"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import zecap.cli  # noqa: E402
import zecap.construct  # noqa: E402
import zecap.model  # noqa: E402
import zecap.search  # noqa: E402


def tiny_pass(name, tmp_path, seed=1):
    workload = workloads.generate(name, seed, str(tmp_path), size="tiny")
    return workload, workloads.run_pass(workload.instances)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)
    assert all(paths.startswith("perfbench") for paths in spec["paths"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_smoke_run_untraced_and_traced(name, tmp_path):
    workload, plain = tiny_pass(name, tmp_path)
    assert plain.failures == []
    assert plain.attempted == len(workload.instances)
    trace = tracer.Tracer()
    with tracer.traced(trace):
        traced = workloads.run_pass(workload.instances, trace)
    assert traced.failures == []
    layers = tracer.layer_metrics(trace)
    assert set(layers) == {name for name, _ in tracer.PER_LAYER}
    busy = {"exact-frontier": ("search.build_s", "search.reduce_s",
                               "search.lexmin_calls"),
            "sperner-search": ("search.bnb_s", "search.nodes", "model.walks"),
            "construct-verify": ("construct.verify_pairs", "cli.self_s",
                                 "cli.file_bytes", "capacity.bisect_iters")}
    assert all(layers[key] > 0 for key in busy[name])
    assert layers["cli.calls"] == (len(workload.instances)
                                   if name == "construct-verify" else 0)
    if workload.probe is not None:
        probe = workloads.run_pass([workload.probe])
        assert probe.failures == []


def test_seed_fixes_the_inputs_and_varies_them(tmp_path):
    def inputs(name, seed):
        w = workloads.generate(name, seed, str(tmp_path), size="tiny")
        return [i.id for i in w.instances], w.inputs

    for name in workloads.WORKLOADS:
        assert inputs(name, 7) == inputs(name, 7)
        assert len({json.dumps(inputs(name, s)) for s in range(8)}) > 1


def corrupt(monkeypatch, module, attr, change):
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        change(result)
        return result
    monkeypatch.setattr(module, attr, wrapper)


def grow_size(res):
    res.size += 1


def duplicate_word(res):
    res.witness[-1] = res.witness[0]


def drop_pair(report):
    report.checked_pairs -= 1


def flip_verdict(report):
    report.passed = not report.passed


@pytest.mark.parametrize("name, module, attr, change", [
    ("exact-frontier", zecap.search, "exact_M", grow_size),
    ("exact-frontier", zecap.search, "exact_M", duplicate_word),
    ("exact-frontier", zecap.search, "omega_power_markov", duplicate_word),
    ("sperner-search", zecap.search, "omega_s", grow_size),
    ("sperner-search", zecap.search, "omega_s", duplicate_word),
    ("construct-verify", zecap.cli, "verify_code", drop_pair),
    ("construct-verify", zecap.cli, "verify_code", flip_verdict),
])
def test_a_corrupted_result_raises_fail_frac(monkeypatch, tmp_path, name,
                                             module, attr, change):
    corrupt(monkeypatch, module, attr, change)
    _, res = tiny_pass(name, tmp_path)
    assert len(res.failures) / res.attempted > 0


def test_a_corrupted_family_raises_fail_frac(monkeypatch, tmp_path):
    build = zecap.construct.FAMILIES["fibonacci"]

    def short(n):
        code = build(n)
        code.words.discard(min(code.words))
        return code
    monkeypatch.setitem(zecap.construct.FAMILIES, "fibonacci", short)
    _, res = tiny_pass("construct-verify", tmp_path)
    assert [f["id"] for f in res.failures] == ["construct(fibonacci,8)",
                                               "construct(fibonacci,5)"]


def test_an_exception_counts_as_a_failure(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise zecap.model.ResourceCapExceeded("cap")
    monkeypatch.setattr(zecap.search, "omega_s", boom)
    workload, res = tiny_pass("sperner-search", tmp_path)
    assert len(res.failures) == res.attempted == len(workload.instances)


def test_family_patterns_count_the_golden_sizes():
    words = [format(v, "08b") for v in range(256)]
    for family, pattern in checks.FAMILY_PATTERNS.items():
        assert sum(bool(pattern.fullmatch(w)) for w in words) == \
            checks.GOLDEN_FAMILY_COUNTS[(family, 8)]


def span(name, start, end, parent=None):
    return tracer.Span(name, start, end, parent, "i")


def test_self_time_subtracts_the_time_children_cover():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 4.0, 0),
             span("a1", 2.0, 3.0, 1),
             span("b", 5.0, 7.0, 0),
             span("b-overlap", 6.0, 8.0, 0),   # overlaps b by 1
             span("late", 9.5, 11.0, 0)]       # ends after its parent
    assert tracer.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 3.0 - 0.5, 2.0, 1.0, 2.0, 2.0, 1.5])
    selfs = tracer.self_times(spans)
    assert tracer.total_self_time(spans, selfs, "a") == pytest.approx(2.0)
    assert tracer.total_time(spans, "a") == pytest.approx(3.0)


def calls(*pairs):
    """A pass whose calls took (seconds, slowdown) each."""
    return workloads.PassResult(details=[
        {"id": i, "s": s, "slowdown": f} for i, (s, f) in enumerate(pairs)])


def test_solve_time_divides_each_call_by_the_slowdown_around_it():
    passes = [calls((2.0, 2.0), (1.0, 1.0)),
              calls((1.2, 1.0), (3.0, 1.5)),
              calls((0.9, 1.0))]            # a partial pass
    # scaled: medians of (1.0, 1.2, 0.9) and (1.0, 2.0)
    assert worker.solve_time(passes) == pytest.approx(1.0 + 1.5)
    # wall: medians of (2.0, 1.2, 0.9) and (1.0, 3.0)
    assert worker.solve_time(passes, scaled=False) == pytest.approx(1.2 + 2.0)


def test_fitting_counts_the_leading_instances_that_fit():
    res = workloads.PassResult(details=[{"step_s": 1.0}, {"step_s": 2.0},
                                        {"step_s": 1.0}])
    # the pass took 8 s in all, so its steps end at 2, 6 and 8 s
    assert worker.fitting(res, 8.0, 6.0) == 2
    assert worker.fitting(res, 8.0, 1.0) == 0


def test_every_call_records_the_slowdown_of_its_workload_kernels(tmp_path):
    for name in workloads.WORKLOADS:
        workload = workloads.generate(name, 1, str(tmp_path), size="tiny")
        assert set(workload.kernels) <= set(calibrate.KERNELS)
        res = workloads.run_pass(workload.instances[:2],
                                 kernels=workload.kernels)
        assert res.failures == []
        assert all(d["slowdown"] > 0 for d in res.details)


def test_tracing_restores_zecap():
    before = (zecap.search.max_clique, zecap.search._has_clique_of_size,
              zecap.cli.main, dict(zecap.construct.FAMILIES),
              sys.getrecursionlimit())
    with tracer.traced(tracer.Tracer()):
        assert zecap.search.max_clique is not before[0]
    assert (zecap.search.max_clique, zecap.search._has_clique_of_size,
            zecap.cli.main, dict(zecap.construct.FAMILIES),
            sys.getrecursionlimit()) == before


def test_worker_reports_setup(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload",
         "sperner-search", "--seed", "3", "--mode", "setup", "--workdir",
         str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["setup_s"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-frontier",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
