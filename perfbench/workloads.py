"""The benchmark's workloads: seeded instance lists, the timed calls into
zecap, and the independent check of each answer.

Importing this module imports zecap and numpy; the worker times that import
as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import zecap.cli
import zecap.model as model
import zecap.search as search

import calibrate
import checks

# Instance sizes.  "full" is what the benchmark measures; "tiny" runs the
# same instance lists in well under a second, for the benchmark's own tests.
SIZES = {
    "full": {"exact_n": 12, "markov_m": 10, "sperner_n": 3, "arc_n": 11,
             "family_n": 18,
             "verify": (("oddrun", 14, "G"), ("fibonacci", 13, "Q"))},
    "tiny": {"exact_n": 6, "markov_m": 4, "sperner_n": 2, "arc_n": 6,
             "family_n": 8,
             "verify": (("oddrun", 6, "G"), ("fibonacci", 5, "Q"))},
}

# The named channels, written out here so the checks do not trust zecap's
# own definitions.
CHANNEL_EDGES = {
    "F": (("00", "01"), ("00", "10"), ("01", "10")),
    "G": (("00", "01"), ("00", "11"), ("01", "11")),
    "L": (("00", "01"), ("00", "10"), ("00", "11")),
    "Q": (("01", "00"), ("01", "10"), ("01", "11")),
}
# Bit complement and word reversal each map codes of a channel one to one
# onto codes of the image channel, so they preserve M and verify outcomes.
SYMMETRIES = {
    "identity": (False, False),
    "complement": (True, False),
    "reversal": (False, True),
    "both": (True, True),
}
# verify's pair predicate stops at the first distinguishing position, so
# reversal changes its work (5,470,554 steps against 4,842,776 for
# oddrun/G at n=14) and would make the seed change the cost; complement
# keeps every step
VERIFY_SYMMETRIES = ("complement", "identity")
VERIFY_PASSES = {("oddrun", "G"): True, ("fibonacci", "Q"): False}
FAMILIES = ("ministring-tribonacci", "oddrun", "no111", "no-isolated-ones",
            "fibonacci")
# family -> (head lengths, tail (start, step) or None) of its equation
EQUATIONS = {
    "ministring-tribonacci": ((1, 2, 3), None),
    "oddrun": ((1,), (2, 2)),
    "no-isolated-ones": ((1,), (3, 1)),
    "fibonacci": ((1, 2), None),
}
CAPACITY_TOL = 1e-12


@dataclass
class Instance:
    """One timed call into zecap and the check of its result.  `prepare`
    runs untimed before the call; `check` raises CheckFailed or returns
    details to report."""

    id: str
    call: Callable[[], Any]
    check: Callable[[Any], dict]
    prepare: Optional[Callable[[], None]] = None


@dataclass
class Workload:
    instances: list[Instance]
    # traced once after the measured passes; its cost varies too much with
    # the seed to be part of solve_s
    probe: Optional[Instance] = None
    probe_given: Optional[str] = None  # id of the instance the probe relabels
    inputs: dict = field(default_factory=dict)
    # reference kernels (calibrate.KERNELS) that track the machine's speed
    # for this workload's mix of work
    kernels: tuple = ("python",)


def transform_word(w: str, symmetry: str) -> str:
    complement, reverse = SYMMETRIES[symmetry]
    if complement:
        w = w.translate(str.maketrans("01", "10"))
    return w[::-1] if reverse else w


def transform_edges(edges, symmetry: str) -> tuple:
    """The channel whose codes are the images of the given channel's codes:
    pair letters map like two-bit words."""
    return tuple((transform_word(a, symmetry), transform_word(b, symmetry))
                 for a, b in edges)


def channel_spec(edges) -> str:
    return ";".join(f"{a}-{b}" for a, b in edges)


def relabel(arcs, perm) -> frozenset:
    return frozenset((perm[a], perm[b]) for a, b in arcs)


def cycle_arcs(k: int) -> frozenset:
    return frozenset(arc for v in range(k)
                     for arc in ((v, (v + 1) % k), ((v + 1) % k, v)))


def complete_arcs(k: int) -> frozenset:
    return frozenset((a, b) for a in range(k) for b in range(k) if a != b)


def distinct_labelings(arcs, k: int) -> list[frozenset]:
    """Every distinct arc set obtained by relabeling vertices, in order of
    the first permutation that produces it."""
    seen: dict[frozenset, None] = {}
    for perm in itertools.permutations(range(k)):
        seen.setdefault(relabel(arcs, perm), None)
    return list(seen)


def labels(arcs) -> str:
    return ";".join(f"{a}>{b}" for a, b in sorted(arcs))


def exact_frontier(rng: random.Random, size: dict, workdir: str) -> Workload:
    """exact_M for F, G, L, Q and the walk-route M(F, m+1), each channel
    under a seed-drawn symmetry."""
    n, m = size["exact_n"], size["markov_m"]
    instances, inputs = [], {}

    def exact(name: str, edges) -> Instance:
        G = model.parse_channel_spec(channel_spec(edges))

        def check(res):
            golden = checks.GOLDEN_M[(name, n)]
            checks.check_size(res.size, golden)
            checks.check_distinguishable_code(res.witness, n, edges, golden)
            return {"size": res.size, "nodes": res.nodes_explored}
        return Instance(f"exact_M({name},{n})", lambda: search.exact_M(G, n),
                        check)

    def markov(name: str, edges) -> Instance:
        G = model.parse_channel_spec(channel_spec(edges))
        shift = model.pair_shift_digraph()

        def check(res):
            golden = checks.GOLDEN_M[(name, m + 1)]
            checks.check_size(res.size, golden)
            words = checks.pair_walks_to_words(res.witness)
            checks.check_distinguishable_code(words, m + 1, edges, golden)
            return {"size": res.size, "nodes": res.nodes_explored}
        return Instance(f"omega_power_markov({name},pair-shift,{m})",
                        lambda: search.omega_power_markov(G, shift, m), check)

    for name, build in (("F", exact), ("G", exact), ("L", exact),
                        ("Q", exact), ("F", markov)):
        symmetry = rng.choice(sorted(SYMMETRIES))
        inst = build(name, transform_edges(CHANNEL_EDGES[name], symmetry))
        inputs[inst.id] = symmetry
        instances.append(inst)
    # its calls follow the array kernel; the Python one tracked them no
    # better than wall time did (perfbench/NOTES.md)
    return Workload(instances, inputs=inputs, kernels=("array",))


def sperner_instance(tag: str, k: int, d_arcs, p_arcs, n: int,
                     golden: int) -> Instance:
    D = model.Digraph(k, frozenset(d_arcs), name=tag)
    P = model.Digraph(k, frozenset(p_arcs))

    def check(res):
        checks.check_size(res.size, golden)
        checks.check_symmetric_clique(res.witness, n, k, d_arcs, p_arcs,
                                      golden)
        return {"size": res.size, "nodes": res.nodes_explored}
    return Instance(f"omega_s({tag},{n})", lambda: search.omega_s(D, P, n),
                    check)


def sperner_search(rng: random.Random, size: dict, workdir: str) -> Workload:
    """omega_s on the pentagon under all 12 labelings, the hexagon under the
    given labeling, and arc01/fibonacci under its four symmetries; the seed
    orders them and draws the hexagon labeling of the probe."""
    n, n_arc = size["sperner_n"], size["arc_n"]
    instances = []
    c5 = distinct_labelings(cycle_arcs(5), 5)
    for i, arcs in enumerate(c5):
        instances.append(sperner_instance(
            f"C5sym#{i}/K5", 5, arcs, complete_arcs(5), n,
            checks.GOLDEN_OMEGA_S[("C5sym", "K5", n)]))
    c6_golden = checks.GOLDEN_OMEGA_S[("C6sym", "K6", n)]
    given = sperner_instance("C6sym/K6", 6, cycle_arcs(6), complete_arcs(6),
                             n, c6_golden)
    instances.append(given)
    # omega_s(D, P) is unchanged by swapping the labels of both digraphs and
    # by reversing D's arcs
    arc01, fib = {(0, 1)}, {(0, 0), (0, 1), (1, 0)}
    swap = (1, 0)
    for tag, d_arcs, p_arcs in (
            ("arc01/fibonacci", arc01, fib),
            ("arc10/fibonacci", {(1, 0)}, fib),
            ("swapped-arc01/fibonacci", relabel(arc01, swap),
             relabel(fib, swap)),
            ("swapped-arc10/fibonacci", relabel({(1, 0)}, swap),
             relabel(fib, swap))):
        instances.append(sperner_instance(
            tag, 2, d_arcs, p_arcs, n_arc,
            checks.GOLDEN_OMEGA_S[("arc01", "fibonacci", n_arc)]))
    rng.shuffle(instances)
    perm = list(range(6))
    rng.shuffle(perm)
    seeded = relabel(cycle_arcs(6), perm)
    probe = sperner_instance("C6sym-seeded/K6", 6, seeded, complete_arcs(6),
                             n, c6_golden)
    return Workload(instances, probe, given.id,
                    {"order": [inst.id for inst in instances],
                     "probe_labeling": labels(seeded)})


def run_cli(argv: list[str]) -> tuple[int, str]:
    """zecap's command line in-process, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = zecap.cli.main(argv)
    return rc, out.getvalue()


def cli_record(result: tuple[int, str]) -> tuple[int, dict]:
    rc, stdout = result
    lines = stdout.splitlines()
    checks.require(len(lines) == 1, f"expected one JSON record, rc={rc}")
    return rc, json.loads(lines[0])


def read_words(path: str) -> list[str]:
    with open(path, encoding="ascii") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def write_words(path: str, words: list[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(w + "\n" for w in sorted(words))


def construct_instance(family: str, n: int, path: str) -> Instance:
    def check(result):
        rc, record = cli_record(result)
        checks.require(rc == 0, f"construct exited {rc}")
        checks.check_family_file(family, n, read_words(path),
                                 record["outputs"]["count"])
        return {"rc": rc}
    return Instance(f"construct({family},{n})",
                    lambda: run_cli(["construct", "--family", family,
                                     "--n", str(n), "--out", path]), check)


def verify_instance(family: str, n: int, channel: str, symmetry: str,
                    path: str) -> Instance:
    """verify on the constructed file and the channel, both mapped by the
    seed-drawn symmetry before the call."""
    edges = transform_edges(CHANNEL_EDGES[channel], symmetry)

    def prepare():
        write_words(path, [transform_word(w, symmetry)
                           for w in read_words(path)])

    def check(result):
        rc, record = cli_record(result)
        checks.check_verify_record(read_words(path), n, edges, rc, record,
                                   VERIFY_PASSES[(family, channel)])
        return {"rc": rc}
    return Instance(f"verify({family},{n},{channel})",
                    lambda: run_cli(["verify", "--channel",
                                     channel_spec(edges), "--code", path]),
                    check, prepare)


def capacity_instance(family: str) -> Instance:
    head, tail = EQUATIONS[family]
    argv = ["capacity", "--lengths", ",".join(map(str, head)),
            "--tol", repr(CAPACITY_TOL)]
    if tail is not None:
        argv += ["--tail", ",".join(map(str, tail))]

    def check(result):
        rc, record = cli_record(result)
        checks.require(rc == 0, f"capacity exited {rc}")
        checks.check_capacity_record(family, head, tail, CAPACITY_TOL,
                                     record)
        return {"rc": rc}
    return Instance(f"capacity({family})", lambda: run_cli(argv), check)


def construct_verify(rng: random.Random, size: dict,
                     workdir: str) -> Workload:
    """The command line end to end: construct every family to a file,
    verify two constructions against channels, solve four equations."""
    n = size["family_n"]
    instances, inputs = [], {}
    for family in FAMILIES:
        instances.append(construct_instance(
            family, n, os.path.join(workdir, f"{family}-{n}.txt")))
    for family, k, channel in size["verify"]:
        path = os.path.join(workdir, f"{family}-{k}-{channel}.txt")
        symmetry = rng.choice(VERIFY_SYMMETRIES)
        instances.append(construct_instance(family, k, path))
        inst = verify_instance(family, k, channel, symmetry, path)
        inputs[inst.id] = symmetry
        instances.append(inst)
    instances += [capacity_instance(family) for family in EQUATIONS]
    return Workload(instances, inputs=inputs, kernels=("python", "strings"))


BUILDERS = {
    "exact-frontier": exact_frontier,
    "sperner-search": sperner_search,
    "construct-verify": construct_verify,
}
WORKLOADS = tuple(BUILDERS)


def generate(name: str, seed: int, workdir: str, size: str = "full"
             ) -> Workload:
    """The workload's instances; the same seed gives the same inputs."""
    return BUILDERS[name](random.Random(seed), SIZES[size], workdir)


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    details: list = field(default_factory=list)


def run_instance(inst: Instance, result: PassResult) -> None:
    """Time one call, check its answer, and record it in `result`.  Any
    exception, cap or wrong answer counts the instance as failed."""
    result.attempted += 1
    start = time.perf_counter()
    detail = {"id": inst.id}
    try:
        if inst.prepare is not None:
            inst.prepare()
        t0 = time.perf_counter()
        try:
            out = inst.call()
        finally:
            elapsed = time.perf_counter() - t0
            result.seconds += elapsed
            detail["s"] = elapsed
        detail.update(inst.check(out))
    except Exception as exc:  # a failed instance must not stop the run
        detail["error"] = f"{type(exc).__name__}: {exc}"
        result.failures.append(detail)
    detail["step_s"] = time.perf_counter() - start
    result.details.append(detail)


def run_pass(instances: list[Instance], tracer=None,
             kernels: tuple = ()) -> PassResult:
    """Each instance once, in order; solve time sums the timed calls.  With
    `kernels`, the machine's slowdown is measured before the first call and
    after each, and each call records the mean of the two around it."""
    result = PassResult()
    before = calibrate.slowdown(kernels) if kernels else 1.0
    for inst in instances:
        if tracer is not None:
            tracer.instance = inst.id
        run_instance(inst, result)
        after = calibrate.slowdown(kernels) if kernels else 1.0
        result.details[-1]["slowdown"] = (before + after) / 2
        before = after
    return result
