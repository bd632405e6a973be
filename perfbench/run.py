"""Benchmark entry point for enriques.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census|catalog|certificates \\
        --seed N --seconds S --trace 0|1

Each repetition runs in a fresh interpreter (``child.py``) started by
this process, one at a time.  Repetitions continue while the next one
is expected to end within ``--seconds``; there is always at least one.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, with ``--trace 1`` one with the per-layer
metrics of traced repetitions, each paired with an untraced one.  The
full record of a run, with the environment, goes to ``.bench_out/``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spotcheck
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT_DIR = Path(".bench_out")
SETUP_SAMPLES = 9  # import-time samples per untraced run
RUN_LIMIT = 170  # seconds for a whole run, repetitions included


class BenchError(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    env.pop("ENRIQUES_JOBS", None)  # the census runs at its default
    # setup_s is an import from cached bytecode, as for an installed
    # package, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(root / OUT_DIR / "pycache")
    paths = [str(root / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def run_child(env, workload, seed, mode, deadline):
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run exceeded {RUN_LIMIT} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} repetition exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"{mode} repetition printed no result")


def repeat(seconds, once):
    """Results of once(), called while the next call should end in time."""
    results = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(once())
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return results


def end_to_end(reps, setups, ok_frac):
    return {
        "solve_s": {"value": median([r["solve_s"] for r in reps]),
                    "unit": "s"},
        "setup_s": {"value": median(setups), "unit": "s"},
        "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in reps]),
                        "unit": "MB"},
        "ok_frac": {"value": ok_frac, "unit": "ratio"},
    }


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(plain, traced):
    """Median times; counts, equal in every repetition, from the first."""
    out = {}
    for name, first in traced[0]["layers"].items():
        unit = _unit(name)
        value = first if unit == "count" else median(
            [r["layers"][name] for r in traced])
        out[name] = {"value": value, "unit": unit}
    base = median([r["solve_s"] for r in plain])
    out["trace.overhead_frac"] = {
        "value": (median([r["solve_s"] for r in traced]) - base) / base,
        "unit": "ratio"}
    return out


def unsteady_counts(traced):
    """Count metrics that differ between traced repetitions."""
    names = [n for n in traced[0]["layers"] if _unit(n) == "count"]
    return [n for n in names
            if len({r["layers"][n] for r in traced}) > 1]


def environment(root, workload, seed):
    try:
        networkx = importlib.metadata.version("networkx")
    except importlib.metadata.PackageNotFoundError:
        networkx = "not installed"
    sha = "unknown: not a git checkout"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "networkx": networkx,
            "git_sha": sha, "platform": platform.platform()}


def measure(args, root):
    if not (root / "src" / "enriques").is_dir():
        raise BenchError("no src/enriques here; run from a checkout's root")
    deadline = time.perf_counter() + RUN_LIMIT
    env = child_env(root)
    w, seed = args.workload, args.seed

    def child(mode):
        return run_child(env, w, seed, mode, deadline)

    child("import")  # untimed: fills the bytecode cache
    if args.trace:
        pairs = repeat(args.seconds, lambda: (child("solve"),
                                              child("trace")))
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        reps = plain + traced
    else:
        reps = repeat(args.seconds, lambda: child("solve"))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    n, bad, spot_errors = spotcheck.check(reps[0]["samples"], seed)
    attempted, failed = attempted + n, failed + bad
    errors += spot_errors
    if args.trace:
        unsteady = unsteady_counts(traced)
        attempted += 1
        if unsteady:
            failed += 1
            errors.append(f"counts differ between repetitions: {unsteady}")
        metrics = per_layer(plain, traced)
    else:
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(child("import")["setup_s"])
        metrics = end_to_end(reps, setups, 1 - failed / attempted)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "env": environment(root, w, seed),
        "result": result,
        "repetitions": [{k: r[k] for k in ("setup_s", "solve_s", "cpu_s",
                                           "peak_rss_mb", "attempted",
                                           "failed")} for r in reps],
        "errors": errors,
    }
    if args.trace:
        record["absent"] = traced[0]["absent"]
        record["spans"] = traced[0]["spans"]
    else:
        record["setup_samples"] = setups
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{w}-seed{seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for e in errors:
        print(f"failure: {e}", file=sys.stderr)
    print("env", json.dumps(record["env"], sort_keys=True))
    print(f"repetitions {len(reps)}, record {path}")
    if args.trace and record["absent"]:
        print("absent from the package:", ", ".join(record["absent"]))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        measure(args, Path.cwd())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
