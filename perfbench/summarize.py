"""Summarize the run records in ``.bench_out/`` across seeds.

    python3 perfbench/summarize.py [--write perfbench/baseline.json]

For each workload and metric it prints the number of runs, the median
and the quartiles of the per-run values, and the spread: the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  With ``--write`` it
also stores that summary, with the environment of the runs.
"""

import argparse
import json
import statistics
from pathlib import Path

OUT_DIR = Path(".bench_out")


def summarize(records):
    table = {}
    for rec in records:
        w = rec["env"]["workload"]
        for name, m in rec["result"]["metrics"].items():
            table.setdefault(w, {}).setdefault(name, []).append(m["value"])
    out = {}
    for w, metrics in sorted(table.items()):
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            out.setdefault(w, {})[name] = {
                "runs": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    records = [json.loads(p.read_text())
               for p in sorted(OUT_DIR.glob("*.json"))]
    summary = summarize(records)
    for w, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{w:13} {name:42} n={s['runs']:2} median={s['median']:.6g}"
                  f" q1={s['q1']:.6g} q3={s['q3']:.6g}"
                  f" spread={s['spread']:.3f}")
    if args.write:
        env = {k: v for k, v in records[0]["env"].items()
               if k not in ("workload", "seed")}
        env["seeds"] = sorted({r["env"]["seed"] for r in records})
        args.write.write_text(json.dumps(
            {"env": env, "workloads": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
