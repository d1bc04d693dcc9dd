"""One fresh benchmark process: set up a workload, then measure it.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S --workdir DIR

MODE is `setup` (set up, time the reference kernel, and exit), `solve` (untraced passes) or `trace`
(untraced and traced passes alternately, then the probe, if any).  Set-up is
timed from the start of main: importing zecap, which imports numpy, and
generating the seeded instances.  The last stdout line is a JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_version() -> str | None:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 only prints its configuration
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def environment() -> dict:
    import numpy as np
    return {"numpy": np.__version__, "blas": blas_version(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def solve_time(passes, scaled: bool = True) -> float:
    """Time to solve the instance list once: the sum over instances of the
    median of each one's calls.  Scaled, each call's time is divided by the
    machine's slowdown measured around it, which cancels a drift of the
    machine's speed; the median discards a call hit by a burst of load."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for d in p.details:
            t = d.get("s", 0.0) / (d["slowdown"] if scaled else 1.0)
            samples.setdefault(d["id"], []).append(t)
    return sum(statistics.median(times) for times in samples.values())


def fitting(res, pass_s: float, remaining: float) -> int:
    """How many leading instances of a pass like `res`, which took pass_s
    in all, fit in `remaining` seconds."""
    steps = [d["step_s"] for d in res.details]
    scale = pass_s / sum(steps)
    count, used = 0, 0.0
    for step in steps:
        used += step * scale
        if used > remaining:
            break
        count += 1
    return count


def measure(workload, seconds: float, traced: bool) -> dict:
    """Passes over the instance list until another pass would end after
    `seconds`; at least one.  Untraced, a last partial pass then runs the
    leading instances that fit in the rest of the time.  In traced mode
    each step is an untraced pass followed by a traced one."""
    from tracer import PER_LAYER, Tracer, layer_metrics, traced as tracing
    from workloads import run_pass

    kernels = workload.kernels
    plain, tracked, layers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        gc.collect()
        res = run_pass(workload.instances, kernels=kernels)
        plain.append(res)
        if traced:
            gc.collect()
            tracer = Tracer()
            with tracing(tracer):
                res = run_pass(workload.instances, tracer, kernels)
            tracked.append(res)
            layers.append(layer_metrics(tracer))
        step = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if elapsed + step > seconds:
            break
    if not traced:
        count = fitting(plain[-1], step, seconds - elapsed)
        if count:
            gc.collect()
            plain.append(run_pass(workload.instances[:count],
                                  kernels=kernels))
    passes = plain + tracked
    slowdowns = [d["slowdown"] for p in plain for d in p.details]
    out = {"solve_s": solve_time(plain),
           "wall_solve_s": solve_time(plain, scaled=False),
           "slowdown": statistics.median(slowdowns),
           "pass_s": [p.seconds for p in plain],
           "details": (tracked[-1] if tracked else plain[0]).details}
    if traced:
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name, _ in PER_LAYER}
        metrics["trace.overhead_s"] = solve_time(tracked) - solve_time(plain)
        metrics["bench.wall_solve_s"] = out["wall_solve_s"]
        metrics["bench.slowdown"] = out["slowdown"]
        if workload.probe is not None:
            gc.collect()
            tracer = Tracer()
            with tracing(tracer):
                res = run_pass([workload.probe], tracer)
            passes.append(res)
            given = next(d for d in tracked[-1].details
                         if d["id"] == workload.probe_given)
            metrics["search.probe_given_nodes"] = given.get("nodes", 0)
            metrics["search.probe_seeded_nodes"] = tracer.counts[
                "search.nodes"]
            metrics["search.probe_seeded_s"] = res.seconds
            out["probe"] = res.details
        out["metrics"] = metrics
        out["traced_pass_s"] = [p.seconds for p in tracked]
    out["attempted"] = sum(p.attempted for p in passes)
    out["failures"] = [f for p in passes for f in p.failures]
    return out


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "solve", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports zecap and numpy
    workload = workloads.generate(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    source = Path(workloads.zecap.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        sys.stderr.write(f"error: imported zecap from {source}, not from "
                         f"{ROOT / 'src'}\n")
        return 2

    # set-up is interpreter work, so the Python kernel puts it at the
    # reference speed
    slowdown = workloads.calibrate.slowdown(("python",))
    out = {"setup_s": setup_s / slowdown, "setup_wall_s": setup_s}
    if args.mode != "setup":
        out.update(measure(workload, args.seconds, args.mode == "trace"))
        out["inputs"] = workload.inputs
        out["env"] = environment()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["peak_rss_mb"] = usage.ru_maxrss / 1024  # Linux: KiB
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
