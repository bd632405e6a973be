"""Self-test of the benchmark's checks and tracer.

Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/selftest.py

It shows that each workload counts a corrupted expected output as a
failure (so ``ok_frac`` drops below 1), that the spot-check rejects a
corrupted certificate, that the tracer patches every namespace binding
a function and reports a missing one as absent, and that the metric
names match ``BENCHMARK.json``.  It takes about half a minute, most of
it the census.
"""

import copy
import json
import random
import sys
from pathlib import Path

import run
import spotcheck
import tracer
import workloads


def corrupted_reference_fails(name, corrupt):
    refs = workloads.load_references()
    clean = workloads.PREPARE[name](0, refs)()
    bad_refs = copy.deepcopy(refs)
    corrupt(bad_refs)
    bad = workloads.PREPARE[name](0, bad_refs)()
    assert clean.failed == 0, (name, clean.errors)
    assert bad.failed > 0, f"{name}: corrupted reference went unnoticed"
    assert 1 - bad.failed / bad.attempted < 1
    return clean


def check_census():
    def corrupt(refs):
        rows = refs["golden"]["survivors.txt"]
        rows[0] = rows[0].replace("disc=16", "disc=4")
    corrupted_reference_fails("census", corrupt)


def check_catalog():
    def corrupt(refs):
        key = workloads.argv_key(["nd", "E7(2)"])
        refs["cli"][key] = refs["cli"][key].replace("max 3", "max 4")
    corrupted_reference_fails("catalog", corrupt)


def check_certificates():
    def corrupt(refs):
        key = workloads.argv_key(workloads.LATTICE_ARGV)
        refs["cli"][key] = refs["cli"][key].replace("index: 3", "index: 9")
    clean = corrupted_reference_fails("certificates", corrupt)
    samples = json.loads(json.dumps(clean.samples, default=str))
    attempted, failed, errors = spotcheck.check(samples, 0)
    assert attempted > 0 and failed == 0, errors
    samples["sextic"][0][1] += " + x1"
    samples["octic"][0][3] += " + 1"
    _, failed, _ = spotcheck.check(samples, 0)
    assert failed == 2, f"spot-check missed a corrupted certificate: {failed}"


def check_evaluator():
    env = {"x0": 2, "x1": -3, "q01": 5}
    assert spotcheck.evaluate("x0^3 - 2*x0*x1 + q01*x1^2", env) == 65
    # Q = x0*x1 gives Q' = x0*x1*x2*x3
    quintic = ("x0*x1^2*x2^2 + x0*x1^2*x3^2 + x0*x2^2*x3^2 + x0^3*x1^2"
               " + x0*x1^2*x2*x3")
    rng = random.Random(1)
    assert spotcheck.sextic_ok("x0*x1", quintic, rng)
    assert not spotcheck.sextic_ok("x0*x1", quintic + " - x1", rng)


def check_tracer():
    from enriques import catalog, divisors, polymodels

    original = divisors.connected_subsets
    targets = [t for t in tracer.TARGETS
               if t[0] in ("divisors.connected_subsets", "polymodels.mul")]
    targets.append(("classify.gone", "classify", "_no_such_function", None))
    targets.append(("nowhere.fn", "no_such_module", "fn", None))
    tr = tracer.Tracer().install(targets)
    try:
        assert divisors.connected_subsets is catalog.connected_subsets
        assert divisors.connected_subsets is not original
        s = catalog.load_surface("E7(2)")
        items = len(catalog.connected_subsets(s.config, max_size=2))
        x0 = polymodels.x(0)
        _ = (x0 + 1) * (x0 - 1) * 3
    finally:
        tr.uninstall()
    assert divisors.connected_subsets is original
    assert tr.absent == ["classify.gone", "nowhere.fn"], tr.absent
    m = tr.metrics()
    assert m["divisors.connected_subsets.calls"] == 1
    assert m["divisors.connected_subsets.items"] == items > 0
    assert m["polymodels.mul.calls"] == 2
    assert m["polymodels.mul.term_products"] == 2 * 2 + 2 * 1

    def gen(n):
        yield from range(n)
    tr = tracer.Tracer()
    hook = targets[0][3]
    traced = tr._wrap("divisors.connected_subsets", gen, hook)
    assert list(traced(4)) == [0, 1, 2, 3]
    assert tr.counts["divisors.connected_subsets.items"] == 4
    assert tr.span_totals()["divisors.connected_subsets"][0] == 1


def check_metric_names():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    layers = set(tracer.Tracer().metrics()) | {"trace.overhead_frac"}
    assert layers == {m["name"] for m in spec["per_layer"]}, layers ^ {
        m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        if m["name"] != "trace.overhead_frac":
            assert run._unit(m["name"]) == m["unit"], m
    rep = {"solve_s": 1.0, "peak_rss_mb": 1.0}
    e2e = run.end_to_end([rep], [1.0], 1.0)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.PREPARE)


CHECKS = (check_evaluator, check_tracer, check_metric_names, check_catalog,
          check_certificates, check_census)


def main():
    failures = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
