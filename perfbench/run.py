"""Run a workload of the zecap benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-frontier --seed 1 \
        --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

With --trace 0 it prints the end-to-end metrics: solve_s is the time to
solve the whole instance list once (each instance's median over passes,
summed), setup_s the median set-up time of several fresh processes, both
in seconds at the reference speed of calibrate.py; peak_rss_mb is the
measuring process's peak RSS.  With --trace 1 it prints the per-layer
metrics of a traced run.  Every answer is checked; `attempted` and `failed`
count instances, so fail_frac = failed / attempted.  The last stdout line
is one JSON object; the lines before it are a readable summary and a JSON
report with the run's provenance and per-instance details.  `--workload
all` runs every workload, untraced and traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "zecap"

END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_SAMPLES = 7       # fresh set-up-only processes, beside the measuring one
RUN_LIMIT_S = 170.0     # every process of one workload run ends within this


class WorkerFailed(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: on a shared host a second thread waits on whichever
    # vCPU is slower, and the reference kernels time only this one
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over zecap's source files, which identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {"seed": seed, "commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(), "nproc": nproc(),
            "loadavg": list(os.getloadavg()),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_worker(argv: list[str], deadline: float) -> dict:
    """A fresh worker process; its last stdout line is its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("run time limit reached")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=worker_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict, dict]:
    """(result, report) of one workload: fresh set-up processes, then one
    measuring process."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed),
              "--workdir", str(workdir)]
    prov = provenance(seed)
    setup = common + ["--mode", "setup"]
    extra = 0 if trace else SETUP_SAMPLES
    # set-ups before and after the measuring process, so that they sample
    # the machine over the whole run
    setups = [run_worker(setup, deadline) for _ in range(extra // 2)]
    mode = "trace" if trace else "solve"
    out = run_worker(common + ["--mode", mode, "--seconds", str(seconds)],
                     deadline)
    setups.append(out)
    setups += [run_worker(setup, deadline)
               for _ in range(extra - extra // 2)]
    prov.update(out["env"])
    attempted, failed = out["attempted"], len(out["failures"])
    if trace:
        metrics = out["metrics"]
        units = dict(PER_LAYER)
    else:
        metrics = {"solve_s": out["solve_s"],
                   "setup_s": statistics.median(s["setup_s"]
                                                for s in setups),
                   "peak_rss_mb": out["peak_rss_mb"]}
        units = dict(END_TO_END)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    report = {"workload": name, "trace": int(trace), "provenance": prov,
              "fail_frac": failed / attempted, "ops": attempted,
              "wall_solve_s": out["wall_solve_s"],
              "slowdown": out["slowdown"], "pass_s": out["pass_s"],
              "traced_pass_s": out.get("traced_pass_s"),
              "setup_samples_s": [s["setup_s"] for s in setups],
              "setup_wall_samples_s": [s["setup_wall_s"] for s in setups],
              "inputs": out["inputs"],
              "instances": out["details"], "probe": out.get("probe"),
              "failures": out["failures"]}
    return result, report


def summary(name: str, seed: int, result: dict, report: dict) -> str:
    values = " ".join(f"{k}={v['value']:.6g}"
                      for k, v in result["metrics"].items())
    return (f"{name} seed={seed} trace={report['trace']} {values} "
            f"fail_frac={report['fail_frac']:.6g} ops={report['ops']} "
            f"passes={len(report['pass_s'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "__init__.py").is_file():
        sys.stderr.write(f"error: no zecap source at {SOURCE}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    elif args.workload in WORKLOADS:
        plan = [(args.workload, bool(args.trace))]
    else:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all\n")
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    results = {}
    try:
        for name, trace in plan:
            result, report = run_workload(name, args.seed, args.seconds,
                                          trace, workdir)
            print(summary(name, args.seed, result, report))
            print(json.dumps({"report": report}))
            results[(name, trace)] = result
    except WorkerFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}/{key}": value
                              for (name, _), r in results.items()
                              for key, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
