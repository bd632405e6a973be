"""One benchmark repetition, in a fresh interpreter.

Started by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH``.  It times the import of the package (``setup_s``), runs
one workload (``solve_s``: from the end of imports to a verified
result), and prints one JSON line with its measurements.  With
``--mode import`` it stops after the import; with ``--mode trace`` the
tracer wraps the package's layers during the solve.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("import", "solve", "trace"),
                        default="solve")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import enriques.catalog
    import enriques.classify
    import enriques.cli
    import enriques.polymodels  # noqa: F401
    setup_s = time.perf_counter() - t0

    src = Path("src").resolve()
    if src not in Path(enriques.cli.__file__).resolve().parents:
        sys.exit(f"enriques was imported from {enriques.cli.__file__}, "
                 f"not from {src}")
    result = {"setup_s": setup_s}
    if args.mode != "import":
        solve = workloads.PREPARE[args.workload](
            args.seed, workloads.load_references())
        tr = tracer.Tracer().install() if args.mode == "trace" else None
        t1, c1 = time.perf_counter(), time.process_time()
        outcome = solve()
        result["solve_s"] = time.perf_counter() - t1
        result["cpu_s"] = time.process_time() - c1
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tr is not None:
            tr.uninstall()
            result["layers"] = tr.metrics()
            result["absent"] = tr.absent
            result["spans"] = tr.edge_table()
        result.update(attempted=outcome.attempted, failed=outcome.failed,
                      errors=outcome.errors, samples=outcome.samples)
    print(json.dumps(result, default=str))


if __name__ == "__main__":
    main()
