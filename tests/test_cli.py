import json
import os
import random
import re
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest

from conftest import GOLDEN
from enriques import catalog, cli
from enriques.config import pairings
from enriques.divisors import MAX_FIBER_COMPONENTS, connected_subsets
from enriques.rootfibers import NotAffine, fiber_divisor

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# CLI text recorded for the benchmark; the census argv is left to the
# acceptance tests, which check the same rows against the goldens
REFERENCE = [r for r in json.loads(
    (ROOT / "perfbench" / "reference" / "cli_text.json").read_text())
    if r["argv"][0] != "classify"]


def run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_text_output(capsys):
    code, out, err = run_main(capsys, ["lattice"])
    assert code == 0
    assert err == ""
    assert out == (
        "command: lattice\n"
        "[pass] isotropic 10-tuple index: 3\n"
        "[pass] distinguished vector products: 1,1,1,1,1,1,1,1,2,2\n"
        "[pass] product sum: 12\n"
        "[pass] divisibility by 3 outside the span: "
        "3 | v.Sf: True, in span: False, 9 | v.Sf: False\n"
        "vector: (1, 1, 2, 3, 4, 3, 2, 1, 0, 2)\n"
    )


def test_nd_known_surface(capsys):
    code, out, _ = run_main(capsys, ["nd", "E7(2)"])
    assert code == 0
    assert "[pass] nd bounds: min 3, max 3" in out
    assert "min_nd: 3" in out and "max_nd: 3" in out


def test_nd_incomplete_surface_is_inconclusive(capsys):
    code, out, _ = run_main(capsys, ["nd", "A7~"])
    assert code == 0
    assert "[inconclusive] nd bounds:" in out


def test_unknown_surface_fails(capsys):
    code, out, _ = run_main(capsys, ["nd", "K3"])
    assert code == 1
    assert "[fail] catalog lookup: K3 not in catalog" in out
    for command in ("verify-surface", "fibrations"):
        code, out, err = run_main(capsys, [command, "nope"])
        assert (code, err) == (1, "")
        assert out == (f"command: {command}\n"
                       "[fail] catalog lookup: nope not in catalog\n")


def test_classify_discriminant_filter_lists_the_filtered_census(capsys):
    golden = (GOLDEN / "census_ge10.txt").read_text().splitlines()
    code, out, err = run_main(capsys, ["classify", "--filter", "discriminant"])
    assert (code, err) == (0, "")
    assert out == ("command: classify\n"
                   "[pass] entries with >= 10 components: 53\n"
                   "entries:\n" + "".join(f"  {row}\n" for row in golden))
    code, out, err = run_main(
        capsys, ["classify", "--filter", "discriminant", "--json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["checks"] == [{"name": "entries with >= 10 components",
                                 "status": "pass", "detail": "53"}]
    assert report["artifacts"] == {"entries": golden}


def _e8t_data():
    return json.loads((catalog._data_dir() / "E8t.json").read_text())


def _without_edges():
    data = _e8t_data()
    del data["edges"]
    return json.dumps(data)


def _bad_multiplicity():
    data = _e8t_data()
    data["fibrations"][0]["multiplicity"] = "double"
    return json.dumps(data)


def _with_edges(edges):
    data = _e8t_data()
    data["edges"] = edges
    return json.dumps(data)


def _e8t_with(**changes):
    data = _e8t_data()
    data.update(changes)
    return json.dumps(data)


def _e8t_fiber(**changes):
    data = _e8t_data()
    data["fibrations"][0].update(changes)
    return json.dumps(data)


@pytest.mark.parametrize("text, reason", [
    ('{"name": "E8~", ', "Expecting"),
    (_without_edges(), "edges must be a list of edges, not missing"),
    (_bad_multiplicity(),
     "fibrations[0].multiplicity must be 'half' or 'simple', not 'double'"),
    (_e8t_with(tangent_edges=[["R1", "ZZ"]]),
     "tangent edge ['R1', 'ZZ'] does not name two distinct curves"),
    (_e8t_with(tangent_edges=[["R1"]]),
     "tangent_edges[0] must be a list of 2 strings, not ['R1']"),
    (_e8t_with(tangent_edges=[["R1", "R1"]]),
     "tangent edge ['R1', 'R1'] does not name two distinct curves"),
    (_e8t_with(tangent_edges=[["R1", "R2", "R3"]]),
     "tangent_edges[0] must be a list of 2 strings, not ['R1', 'R2', 'R3']"),
    (_e8t_with(tangent_edges=[["R1", "R2"]]),
     "tangent edge ['R1', 'R2'] joins curves meeting with weight 1, not 2"),
    (_e8t_with(complete="false"),
     "complete must be true or false, not 'false'"),
    (_e8t_with(additive_default="half"),
     "additive_default must be 'simple' or '', not 'half'"),
    ("[1, 2]", "the file must be an object, not [1, 2]"),
    ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
    (_e8t_with(name=None), "name must be a string, not None"),
    (_e8t_with(fibrations={}), "fibrations must be a list of fibers, not {}"),
    (_e8t_fiber(support="R1"),
     "fibrations[0].support must be a list of strings, not 'R1'"),
    (_e8t_fiber(support=["R1", "ZZZ"]), "fiber F1: unknown curves: ['ZZZ']"),
    (_e8t_fiber(label=3), "fibrations[0].label must be a string, not 3"),
    (_e8t_fiber(kind=5), "fibrations[0].kind must be a string, not 5"),
    (_e8t_with(char_tag=5), "char_tag must be a string, not 5"),
    (_e8t_with(comment="x"), "comment must be absent, not 'x'"),
], ids=("invalid-json", "missing-key", "catalog-data-error",
        "tangent-unknown-curve", "tangent-one-curve", "tangent-same-curve",
        "tangent-three-curves", "tangent-weight-1", "complete-string",
        "additive-default-half", "not-an-object", "nested-too-deep",
        "name-not-a-string",
        "fibrations-object", "support-string", "support-unknown-curve",
        "label-integer",
        "kind-integer", "char-tag-integer", "unknown-key"))
def test_malformed_catalog_data_fails_cleanly(capsys, tmp_path, text, reason):
    (tmp_path / "bad.json").write_text(text)
    code, out, err = run_main(
        capsys, ["verify-surface", "E8~", "--catalog-dir", str(tmp_path)])
    assert code == 1
    assert err == ""
    assert f"[fail] catalog data: bad.json: {reason}" in out


@pytest.mark.parametrize("edges, reason", [
    ([["R1"]],
     "edges[0] must be a list of 2 curves and an optional weight, "
     "not ['R1']"),
    ([["R1", "nosuchcurve", 1]],
     "edge ['R1', 'nosuchcurve', 1] does not name two curves"),
    ([["R8", "R9", 1.0]],
     "edges[0][2] must be an integer >= 0, not 1.0"),
    ([["R8", "R9", True]],
     "edges[0][2] must be an integer >= 0, not True"),
    ([["R8", "R9", "1"]],
     "edges[0][2] must be an integer >= 0, not '1'"),
    ([["R8", "R9", -1]],
     "edges[0][2] must be an integer >= 0, not -1"),
    ([["R1", "R2", 1, 5, "junk"]],
     "edges[0] must be a list of 2 curves and an optional weight, "
     "not ['R1', 'R2', 1, 5, 'junk']"),
    (_e8t_data()["edges"] + [["R2", "R1", 2]],
     "edge ['R2', 'R1', 2] repeats the curve pair of an earlier edge"),
    (_e8t_data()["edges"] + [["R1", "R2", 1]],
     "edge ['R1', 'R2', 1] repeats the curve pair of an earlier edge"),
    ([["R1", "R1", 1]], "edge ['R1', 'R1', 1] does not name two curves"),
], ids=("one-curve", "unknown-curve", "weight-float", "weight-bool",
        "weight-string", "weight-negative", "too-many-entries",
        "repeated-pair-reversed", "repeated-pair-same-weight", "self-edge"))
def test_malformed_edge_fails_cleanly(capsys, tmp_path, edges, reason):
    (tmp_path / "bad.json").write_text(_with_edges(edges))
    code, out, err = run_main(
        capsys, ["verify-surface", "E8~", "--catalog-dir", str(tmp_path)])
    assert code == 1
    assert err == ""
    assert f"[fail] catalog data: bad.json: {reason}" in out


def _clique(size):
    curves = [f"c{i}" for i in range(size)]
    return {"name": "K", "curves": curves,
            "edges": [[a, b, 1] for i, a in enumerate(curves)
                      for b in curves[i + 1:]],
            "fibrations": []}


@pytest.mark.parametrize("command", ["verify-surface", "fibrations"])
def test_catalog_surface_of_too_high_rank_fails_at_once(
        capsys, tmp_path, command):
    # 26 curves meeting pairwise once span a lattice of rank 26
    (tmp_path / "K.json").write_text(json.dumps(_clique(26)))
    t0 = time.perf_counter()
    code, out, err = run_main(
        capsys, [command, "K", "--catalog-dir", str(tmp_path)])
    assert time.perf_counter() - t0 < 5
    assert code == 1
    assert err == ""
    assert ("[fail] catalog data: K.json: the curves span a lattice of "
            "rank 26, above 10") in out


def _low_rank_surface(n):
    # the (-2)-vectors (a, 5040/a, 71) of U + <-2>, for the first n of the
    # 60 divisors a of 5040 = 71^2 - 1, pair pairwise a d + b c - 2 * 71^2
    # >= 0: any number of them spans a lattice of rank 3
    vecs = [(a, 5040 // a) for a in range(1, 5041) if 5040 % a == 0][:n]
    curves = [f"c{a}" for a, _ in vecs]
    return {"name": "W", "curves": curves,
            "edges": [[curves[i], curves[j], a * d + b * c - 2 * 71 ** 2]
                      for i, (a, b) in enumerate(vecs)
                      for j, (c, d) in enumerate(vecs) if i < j],
            "fibrations": []}


@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize("command", ["fibrations", "verify-surface"])
def test_many_curves_of_low_rank_are_enumerated_at_once(
        capsys, tmp_path, command, n):
    (tmp_path / "W.json").write_text(json.dumps(_low_rank_surface(n)))
    t0 = time.perf_counter()
    code, out, err = run_main(
        capsys, [command, "W", "--catalog-dir", str(tmp_path)])
    assert time.perf_counter() - t0 < 5
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("command", ["verify-surface", "fibrations"])
def test_too_many_curves_fail_before_the_gram_matrix(
        capsys, tmp_path, command):
    data = _clique(catalog.MAX_CURVES + 1)
    data["edges"] = []
    (tmp_path / "K.json").write_text(json.dumps(data))
    t0 = time.perf_counter()
    code, out, err = run_main(
        capsys, [command, "K", "--catalog-dir", str(tmp_path)])
    assert time.perf_counter() - t0 < 5
    assert code == 1
    assert err == ""
    assert (f"[fail] catalog data: K.json: curves must be a list of at most "
            f"{catalog.MAX_CURVES} strings, not ['c0', 'c1',") in out


def _three_cycle():
    # the fiber a+b+c meets no other curve, so its fibration has no ray
    return {"name": "C3", "curves": ["a", "b", "c"],
            "edges": [["a", "b", 1], ["b", "c", 1], ["c", "a", 1]],
            "fibrations": [{"label": "F0", "support": ["a", "b", "c"],
                            "multiplicity": "half"}],
            "complete": True}


@pytest.mark.parametrize("command", ["verify-surface", "nd", "fibrations"])
def test_fiber_without_horizontal_curve_fails_cleanly(
        capsys, tmp_path, command):
    (tmp_path / "C3.json").write_text(json.dumps(_three_cycle()))
    code, out, err = run_main(
        capsys, [command, "C3", "--catalog-dir", str(tmp_path)])
    assert code == 1
    assert err == ""
    assert ("[fail] catalog data: C3: fiber a+b+c has no horizontal "
            "curve") in out


def _double_edge(tangent):
    # the fiber a + b meets h twice: its ray (0, 0, 1) has g = 2, and no
    # annotation fixes its scale; tangent curves make it III, else I2
    return {"name": "H", "curves": ["a", "b", "h"],
            "edges": [["a", "b", 2], ["a", "h"], ["b", "h"]],
            "tangent_edges": [["a", "b"]] if tangent else [],
            "fibrations": [], "additive_default": "simple", "complete": True}


def test_the_additive_default_makes_a_iii_fiber_simple(capsys, tmp_path):
    # a half-fiber is multiplicative, so (a + b) / 2 is the half-fiber
    (tmp_path / "H.json").write_text(json.dumps(_double_edge(True)))
    code, out, err = run_main(
        capsys, ["fibrations", "H", "--catalog-dir", str(tmp_path)])
    assert (code, err) == (0, "")
    assert "  ray (0, 0, 1): kinds III labels - (half-fiber)\n" in out
    code, out, err = run_main(
        capsys, ["nd", "H", "--catalog-dir", str(tmp_path)])
    assert (code, err) == (0, "")
    assert "[pass] nd bounds: min 1, max 1\n" in out


def test_the_additive_default_leaves_an_i2_fiber_undetermined(
        capsys, tmp_path):
    (tmp_path / "H.json").write_text(json.dumps(_double_edge(False)))
    code, out, err = run_main(
        capsys, ["fibrations", "H", "--catalog-dir", str(tmp_path)])
    assert (code, err) == (0, "")
    assert "  ray (0, 0, 1): kinds I2 labels - (undetermined scale)\n" in out
    code, out, err = run_main(
        capsys, ["nd", "H", "--catalog-dir", str(tmp_path)])
    assert (code, err) == (1, "")
    assert ("[fail] catalog data: undetermined fibration scale on rays "
            "[(0, 0, 1)]\n") in out


def _surface_data(name):
    return json.loads((catalog._data_dir() / name).read_text())


def test_an_undetermined_scale_fails_the_nd_check_alone(capsys, tmp_path):
    # without its simple fiber G2, the ray of D8~'s second II* fiber has
    # no member that fixes its half-fiber scale
    data = _surface_data("D8t.json")
    data["fibrations"] = [f for f in data["fibrations"] if f["label"] != "G2"]
    (tmp_path / "D8t.json").write_text(json.dumps(data))
    undetermined = ("undetermined fibration scale on rays "
                    "[(0, 0, 0, 0, 0, 0, 0, 1, 0, 0)]")
    code, out, err = run_main(
        capsys, ["verify-surface", "D8~", "--catalog-dir", str(tmp_path)])
    assert (code, err) == (1, "")
    assert out == (
        "command: verify-surface\n"
        "[pass] fiber F1 half-fiber: I4*\n"
        "[pass] fiber F3 half-fiber: II*\n"
        "[fail] fibration scales determined: 3 fibration classes\n"
        "[pass] fibration count: found 3, expected 3\n"
        f"[fail] nd bounds: {undetermined}\n"
        f"[fail] max sequence length: {undetermined}\n"
        "char: p = 2, classical or supersingular\n"
        "surface: D8~\n")
    code, out, err = run_main(
        capsys, ["nd", "D8~", "--catalog-dir", str(tmp_path)])
    assert (code, err) == (1, "")
    assert out == f"command: nd\n[fail] catalog data: {undetermined}\n"


def _unknown_triple_label():
    data = _surface_data("A7t.json")
    data["claims"]["triple"][1] = "F99"
    return data


def _unknown_minus_two_label():
    data = _surface_data("2D4t.json")
    data["claims"]["minus_two"]["other"] = "F99"
    return data


def _unknown_unique_nonspecial_label():
    data = _surface_data("2D4t.json")
    data["claims"]["unique_nonspecial"]["F4"] = ["G1", "F99"]
    return data


def _claims_not_an_object():
    data = _surface_data("A7t.json")
    data["claims"] = "oops"
    return data


def _witness_k(k):
    data = _surface_data("A7t.json")
    data["claims"]["witness"]["k"] = k
    return data


def _claims(surface_file, **changes):
    data = _surface_data(surface_file)
    for key, value in changes.items():
        if value is None:
            del data["claims"][key]
        else:
            data["claims"][key] = value
    return data


def _a7_claims(**changes):
    return _claims("A7t.json", **changes)


@pytest.mark.parametrize("data, reason", [
    (_unknown_triple_label(), "claims.triple names 'F99', no annotated fiber"),
    (_unknown_minus_two_label(),
     "claims.minus_two names 'F99', no annotated fiber"),
    (_unknown_unique_nonspecial_label(),
     "claims.unique_nonspecial names 'F99', no annotated fiber"),
    (_claims_not_an_object(), "claims must be an object, not 'oops'"),
    (_witness_k("3"), "claims.witness.k must be an integer in 1..3, not '3'"),
    (_witness_k(4), "claims.witness.k must be an integer in 1..3, not 4"),
    (_a7_claims(witness={"divisor": {"R6": "x"}, "k": 3}),
     "claims.witness.divisor.R6 must be an integer, not 'x'"),
    (_claims("BP.json", witness={"divisor": {"R11": 1, "ZZZ": 1}, "k": 3}),
     "claims.witness.divisor names 'ZZZ', no curve"),
    (_a7_claims(witness=[3]), "claims.witness must be an object, not [3]"),
    (_a7_claims(witness={"k": 3}),
     "claims.witness.divisor must be an object, not missing"),
    (_a7_claims(types=None),
     "claims.types must list the 3 fiber types of a special triple, "
     "not None"),
    (_claims("2D4t.json", unique_nonspecial={"F4": ["G1"]}),
     "claims.unique_nonspecial.F4 must be a list of 2 strings, not ['G1']"),
    (_claims("2D4t.json", unique_nonspecial=["F4"]),
     "claims.unique_nonspecial must be an object, not ['F4']"),
    (_claims("2D4t.json",
             minus_two={"other": "F5", "triple": ["G1", "G2", "F4"]}),
     "claims.minus_two.value must be an integer, not missing"),
    (_claims("E8t.json", fibration_count="1"),
     "claims.fibration_count must be an integer, not '1'"),
    (_claims("E8t.json", nd="11"),
     "claims.nd must be a list of 2 integers, not '11'"),
    (_claims("E8t.json", max_clique="1"),
     "claims.max_clique must be an integer, not '1'"),
    (_a7_claims(non_extendable="no"),
     "claims.non_extendable must be true or false, not 'no'"),
    (_a7_claims(triple=None),
     "claims.witness needs claims.triple, which is missing"),
    (_claims("BP.json", witness=None),
     "claims.types needs claims.witness, which is missing"),
    (_claims("BP.json", witness=None, types=None),
     "claims.non_extendable needs claims.witness, which is missing"),
    (_claims("E8t.json", fibration_cout=7),
     "claims.fibration_cout must be absent, not 7"),
], ids=("triple", "minus-two", "unique-nonspecial", "claims-not-object",
        "witness-k-string", "witness-k-range", "witness-divisor-string",
        "witness-unknown-curve", "witness-not-object", "witness-without-divisor",
        "special-triple-without-types", "partners-of-one",
        "unique-nonspecial-list", "minus-two-without-value",
        "fibration-count-string", "nd-string", "max-clique-string",
        "non-extendable-string", "witness-without-triple",
        "types-without-witness", "non-extendable-without-witness",
        "unknown-claim"))
def test_malformed_claims_fail_cleanly(capsys, tmp_path, data, reason):
    (tmp_path / "s.json").write_text(json.dumps(data))
    code, out, err = run_main(
        capsys, ["verify-surface", data["name"], "--catalog-dir",
                 str(tmp_path)])
    assert code == 1
    assert err == ""
    assert f"[fail] catalog data: s.json: {reason}" in out


def test_witness_claim_is_compared_as_a_coefficient_vector(capsys, tmp_path):
    # a zero coefficient names the same divisor as the found S3 = R11
    data = _claims("BP.json", witness={"divisor": {"R1": 0, "R11": 1}, "k": 3})
    (tmp_path / "BP.json").write_text(json.dumps(data))
    code, out, err = run_main(
        capsys, ["verify-surface", "BP", "--catalog-dir", str(tmp_path)])
    assert (code, err) == (0, "")
    assert "[pass] special witness: S3 = R11\n" in out


def _verify_claims(capsys, tmp_path, surface_file, **changes):
    data = _claims(surface_file, **changes)
    (tmp_path / surface_file).write_text(json.dumps(data))
    return run_main(capsys, ["verify-surface", data["name"],
                             "--catalog-dir", str(tmp_path)])


def test_a_special_triple_claimed_non_special_names_its_witnesses(
        capsys, tmp_path):
    code, out, err = _verify_claims(capsys, tmp_path, "BP.json", witness=None,
                                    types=None, non_extendable=None)
    assert (code, err) == (1, "")
    assert ("[fail] non-special: S1 = 6R1+5R2+4R3+3R4+2R5+2R7+4R8+3R9, "
            "S2 = R10, S3 = R11\n") in out


def test_a_non_special_claimed_triple_passes(capsys, tmp_path):
    code, out, err = _verify_claims(capsys, tmp_path, "2D4t.json",
                                    triple=["G1", "G2", "F4"])
    assert (code, err) == (0, "")
    assert ("[pass] three-sequence: G1 G2 F4\n"
            "[pass] non-special: no effective F_i + F_j - F_k\n") in out


def test_a_special_triple_claimed_unique_non_special_names_its_witnesses(
        capsys, tmp_path):
    # (G1, G2, G3) is special: each S_k is a fundamental cycle of 2D4~
    code, out, err = _verify_claims(capsys, tmp_path, "2D4t.json",
                                    unique_nonspecial={"G3": ["G1", "G2"]})
    assert (code, err) == (1, "")
    assert ("[fail] non-special through G3: S1 = R0+R1+R10+R4+R5+R6+R7, "
            "S2 = R0+R10+R3+R4+R5+R6+R8, S3 = R0+R10+R2+R4+R5+R6+R9\n") in out


def test_annotation_against_the_forced_scale_fails_cleanly(capsys, tmp_path):
    # G1 = R10 + R11 shares its ray with a III* fiber, which the additive
    # default makes simple; marking G1 a half-fiber contradicts that scale
    data = _surface_data("BP.json")
    data["fibrations"][1]["multiplicity"] = "half"
    (tmp_path / "BP.json").write_text(json.dumps(data))
    code, out, err = run_main(
        capsys, ["verify-surface", "BP", "--catalog-dir", str(tmp_path)])
    assert (code, err) == (1, "")
    assert ("[fail] catalog data: BP: inconsistent half-fiber scale on ray "
            "(0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)\n") in out


@pytest.mark.parametrize("command", ["verify-surface", "nd"])
def test_a_surface_name_two_files_share_fails(capsys, tmp_path, command):
    # b.json would fail its nd claim, were it read
    data = _surface_data("E7p2.json")
    (tmp_path / "a.json").write_text(json.dumps(data))
    data["claims"]["nd"] = [1, 1]
    (tmp_path / "b.json").write_text(json.dumps(data))
    code, out, err = run_main(
        capsys, [command, "E7(2)", "--catalog-dir", str(tmp_path)])
    assert (code, err) == (1, "")
    assert ("[fail] catalog data: a.json and b.json both name 'E7(2)'\n"
            in out)


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_a_catalog_dir_that_is_no_directory_fails_cleanly(
        capsys, tmp_path, kind):
    where = tmp_path / "catalog"
    if kind == "file":
        where.write_text("{}")
    code, out, err = run_main(
        capsys, ["nd", "BP", "--catalog-dir", str(where)])
    assert (code, err) == (1, "")
    assert out == ("command: nd\n"
                   f"[fail] catalog data: {where} is not a directory\n")


def test_a_file_rewritten_in_place_is_read_again(capsys, tmp_path):
    data = _surface_data("E8t.json")
    argv = ["verify-surface", "E8~", "--catalog-dir", str(tmp_path)]
    outs = []
    for tag, nd in (("first", [1, 1]), ("second", [2, 2])):
        data["char_tag"], data["claims"]["nd"] = tag, nd
        (tmp_path / "E8t.json").write_text(json.dumps(data))
        outs.append(run_main(capsys, argv))
    assert outs[0][0] == 0 and "char: first\n" in outs[0][1]
    assert outs[1][0] == 1 and "char: second\n" in outs[1][1]
    assert "[fail] nd bounds: min 1, max 1\n" in outs[1][1]


@pytest.mark.parametrize("text, reason", [
    ("{", "E8t.json: Expecting property name enclosed in double quotes"),
    (_without_edges(), "E8t.json: edges must be a list of edges, not missing"),
    (json.dumps({**_three_cycle(), "name": "E8~"}),
     "E8~: fiber a+b+c has no horizontal curve"),
], ids=("parse", "model", "records"))
def test_a_malformed_file_fails_on_every_load(capsys, tmp_path, text, reason):
    (tmp_path / "E8t.json").write_text(text)
    argv = ["fibrations", "E8~", "--catalog-dir", str(tmp_path)]
    first, second = (run_main(capsys, argv) for _ in range(2))
    assert first == second
    assert first[0] == 1 and f"[fail] catalog data: {reason}" in first[1]


# the keys a surface file must hold, by path with list indices dropped
REQUIRED = {
    "name", "curves", "edges", "fibrations", "fibrations[].label",
    "fibrations[].support", "fibrations[].multiplicity",
    "claims.witness.divisor", "claims.witness.k", "claims.minus_two.triple",
    "claims.minus_two.other", "claims.minus_two.value",
}
# one value of each JSON type
JSON_VALUES = (None, True, 7, 2.5, "x", ["x"], {"x": 1})
DELETE = object()


def _fields(value, rng, path=()):
    """Key paths under a parsed JSON value: every object field, and one
    item of each list, picked by rng."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value:
        k = rng.randrange(len(value))
        items = [(k, value[k])]
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _fields(item, rng, path + (key,))


def _path_text(path):
    return "".join(f"[{k}]" if type(k) is int else f".{k}"
                   for k in path).lstrip(".")


def _mutants(data, rng):
    """(path, mutated copy, replacement or DELETE) for each sampled field:
    the field deleted, or replaced by each value of another JSON type."""
    for path in _fields(data, rng):
        original = data
        for k in path:
            original = original[k]
        others = [v for v in JSON_VALUES if type(v) is not type(original)]
        for value in [DELETE] + others:
            mutant = json.loads(json.dumps(data))
            parent = mutant
            for k in path[:-1]:
                parent = parent[k]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, mutant, value


@pytest.mark.parametrize("surface_file",
                         ["E8t.json", "A7t.json", "2D4t.json", "BP.json"])
def test_mutated_catalog_files_fail_cleanly(capsys, tmp_path, surface_file):
    """Delete each sampled field, or give it a value of another JSON type:
    every run exits 0 or 1 without a traceback, and each wrong type or
    missing required key is a failed catalog data check on its path."""
    data = _surface_data(surface_file)
    rng = random.Random(surface_file)
    t0 = time.perf_counter()
    for path, mutant, value in _mutants(data, rng):
        (tmp_path / surface_file).write_text(json.dumps(mutant))
        where = _path_text(path)
        must_fail = value is not DELETE or re.sub(
            r"\[\d+\]", "[]", where) in REQUIRED
        for command in ("verify-surface", "nd", "fibrations"):
            argv = [command, data["name"], "--catalog-dir", str(tmp_path)]
            try:
                code, out, err = run_main(capsys, argv)
            except Exception as exc:
                pytest.fail(f"{where} = {value!r}: {command} raised {exc!r}")
            assert code in (0, 1) and err == "", (where, value, command)
            assert not re.search(r"\[fail\].*found (\S+), expected \1\b",
                                 out), out
            if must_fail:
                assert (f"[fail] catalog data: {surface_file}: {where} "
                        "must be ") in out, (where, value, out)
    assert time.perf_counter() - t0 < 5


def _add_edge(m, rng):
    a, b = rng.sample(m["curves"], 2)
    m["edges"].append([a, b, rng.choice((1, 2))])


def _delete_edge(m, rng):
    if m["edges"]:
        m["edges"].pop(rng.randrange(len(m["edges"])))


def _reweigh_edge(m, rng):
    if m["edges"]:
        rng.choice(m["edges"])[2:] = [rng.randint(0, 4)]


def _add_tangent_edge(m, rng):
    if m["edges"]:
        m.setdefault("tangent_edges", []).append(rng.choice(m["edges"])[:2])


def _repeat_edge(m, rng):
    if m["edges"]:
        m["edges"].append(list(rng.choice(m["edges"])))


def _drop_support_curve(m, rng):
    support = rng.choice(m["fibrations"])["support"]
    if len(support) > 1:
        support.remove(rng.choice(support))


def _add_support_curve(m, rng):
    support = rng.choice(m["fibrations"])["support"]
    others = [c for c in m["curves"] if c not in support]
    if others:
        support.append(rng.choice(others))


def _flip_multiplicity(m, rng):
    f = rng.choice(m["fibrations"])
    f["multiplicity"] = {"half": "simple", "simple": "half"}[f["multiplicity"]]


def _change_kind(m, rng):
    rng.choice(m["fibrations"])["kind"] = rng.choice(
        ("I2", "I3", "I4", "I8", "I9", "III", "IV", "I0*", "I1*", "I4*",
         "II*", "III*", "IV*"))


def _swap_labels(m, rng):
    if len(m["fibrations"]) > 1:
        f, g = rng.sample(m["fibrations"], 2)
        f["label"], g["label"] = g["label"], f["label"]


def _delete_curve(m, rng):
    c = rng.choice(m["curves"])
    m["curves"].remove(c)
    for key in ("edges", "tangent_edges"):
        if key in m:
            m[key] = [e for e in m[key] if c not in e[:2]]
    for f in m["fibrations"]:
        if c in f["support"] and len(f["support"]) > 1:
            f["support"].remove(c)


def _change_witness(m, rng):
    witness = m.get("claims", {}).get("witness")
    if witness:
        witness["divisor"][rng.choice(m["curves"])] = rng.randint(-1, 3)


# edits that keep a surface file's JSON shape and change what it says
MEANING_EDITS = (
    _add_edge, _delete_edge, _reweigh_edge, _add_tangent_edge, _repeat_edge,
    _drop_support_curve, _add_support_curve, _flip_multiplicity,
    _change_kind, _swap_labels, _delete_curve, _change_witness,
)


def _brute_force_rays(config):
    """Sorted (ray, kinds) of the fibrations visible in config, from every
    connected set of at most MAX_FIBER_COMPONENTS curves that fiber_divisor
    reads as affine, the ray being its pairing vector over their gcd; None
    when one of them pairs to 0 with every curve."""
    rays = {}
    for subset in connected_subsets(config, max_size=MAX_FIBER_COMPONENTS):
        try:
            kind, d = fiber_divisor(config, subset)
        except NotAffine:
            continue
        pv = pairings(d.vec, config)
        g = gcd(*pv)
        if g == 0:
            return None
        rays.setdefault(tuple(x // g for x in pv), set()).add(str(kind))
    return sorted((ray, tuple(sorted(kinds))) for ray, kinds in rays.items())


def _records_match_the_brute_force(s):
    """Whether fibration_records(s) finds the rays and kinds of
    _brute_force_rays, or fails as the brute force says it must: on a fiber
    with no horizontal curve, or on a ray whose half-fiber scale two
    members fix differently."""
    want = _brute_force_rays(s.config)
    try:
        got = sorted((r.ray, r.kinds) for r in catalog.fibration_records(s))
    except catalog.CatalogDataError as exc:
        return ("has no horizontal curve" if want is None
                else "inconsistent half-fiber scale") in str(exc)
    return got == want


def test_meaning_mutants_of_catalog_files_fail_cleanly(capsys, tmp_path):
    """Seeded mutants of every surface file, 1 to 3 meaning-level edits
    each: every command exits 0 or 1 without a traceback.  The fibration
    records of each mutant that loads match a brute force over connected
    subsets; when the mutant does not load, its curve graph alone, with
    no fibers annotated, is compared."""
    files = sorted(p.name for p in catalog._data_dir().glob("*.json"))
    compared = 0
    t0 = time.perf_counter()
    for surface_file in files:
        data = _surface_data(surface_file)
        path = tmp_path / surface_file
        rng = random.Random(f"meaning {surface_file}")
        for _ in range(40):
            mutant = json.loads(json.dumps(data))
            for _ in range(rng.randint(1, 3)):
                rng.choice(MEANING_EDITS)(mutant, rng)
            path.write_text(json.dumps(mutant))
            for command in ("verify-surface", "nd", "fibrations"):
                argv = [command, data["name"], "--catalog-dir", str(tmp_path)]
                try:
                    code, out, err = run_main(capsys, argv)
                except Exception as exc:
                    pytest.fail(f"{mutant}: {command} raised {exc!r}")
                assert code in (0, 1) and err == "", (mutant, command, out)
            graph = {key: mutant[key] for key in
                     ("name", "curves", "edges", "tangent_edges")
                     if key in mutant}
            for candidate in (mutant, {**graph, "fibrations": []}):
                path.write_text(json.dumps(candidate))
                try:
                    s = catalog.load_surface(data["name"], tmp_path)
                except catalog.CatalogDataError:
                    continue
                assert _records_match_the_brute_force(s), candidate
                compared += 1
                break
        path.unlink()
    assert time.perf_counter() - t0 < 5
    # the differential check is not vacuous: most graphs stay loadable
    assert compared >= len(files) * 15, compared


@pytest.mark.parametrize("value", ["12", "0"])
def test_classify_rejects_out_of_range_max_components_at_once(capsys, value):
    t0 = time.perf_counter()
    code, out, err = run_main(capsys, ["classify", "--max-components", value])
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert out == ""
    assert "--max-components must lie in 1..11" in err


@pytest.mark.parametrize("argv, text", [(r["argv"], r["text"])
                                        for r in REFERENCE],
                         ids=[" ".join(r["argv"]) for r in REFERENCE])
def test_cli_text_matches_the_recorded_reference(argv, text):
    report, _ = cli.run(argv)
    assert report.to_text() == text


def test_usage_error_exit_code(capsys):
    code, _, err = run_main(capsys, ["no-such-command"])
    assert code == 2
    assert "usage error" in err
    code, _, err = run_main(capsys, [])
    assert code == 2


def test_verify_surface_bp(capsys):
    code, out, _ = run_main(capsys, ["verify-surface", "BP"])
    assert code == 0
    assert "[fail]" not in out
    assert "surface: BP" in out


def test_a_special_triple_needs_all_three_witnesses(capsys, monkeypatch):
    # only the claimed S3 is found: the other two witnesses are not
    # rebuilt from the annotated fibers, so the claim fails
    find = catalog.specialness_witness
    monkeypatch.setattr(catalog, "specialness_witness",
                        lambda F, ambient: {2: find(F, ambient)[2]})
    code, out, _ = run_main(capsys, ["verify-surface", "E7(2)"])
    assert code == 1
    assert "[fail] special witness: S3 = R10" in out


def test_json_schema_and_shape(capsys):
    code, out, _ = run_main(capsys, ["nd", "E7(2)", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "nd"
    assert payload["checks"] == [
        {"name": "nd bounds", "status": "pass", "detail": "min 3, max 3"}
    ]
    assert payload["artifacts"] == {"min_nd": 3, "max_nd": 3}


def test_fibrations_output_is_deterministic(capsys):
    first = run_main(capsys, ["fibrations", "2D4~"])
    second = run_main(capsys, ["fibrations", "2D4~"])
    assert first == second
    code, out, _ = first
    assert code == 0
    assert "[pass] fibration classes: 10" in out
    assert out.count("ray (") == 10


def test_fibrations_json_round_trip(capsys):
    code, out, _ = run_main(capsys, ["fibrations", "D8~", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["artifacts"]["classes"]) == 3


def test_sextic_check_default(capsys):
    code, out, _ = run_main(capsys, ["sextic-check"])
    assert code == 0
    assert "[pass] castelnuovo certificate" in out
    assert "quintic: x0^3*x1^2 + x0*x1^2*x2^2 + x0*x1^2*x3^2 + x0*x2^2*x3^2" \
        in out


def test_sextic_check_with_quadric(capsys):
    code, out, _ = run_main(capsys, ["sextic-check", "--q", "x0*x1 + 2*x2^2"])
    assert code == 0
    assert "[pass] castelnuovo certificate" in out


def test_sextic_check_rejects_garbage(capsys):
    code, _, err = run_main(capsys, ["sextic-check", "--q", "x9 +"])
    assert code == 2
    assert "cannot parse --q" in err


def test_sextic_check_rejects_a_chain_of_powers(capsys):
    code, out, err = run_main(capsys, ["sextic-check", "--q", "x0^1^2"])
    assert code == 2
    assert out == ""
    assert "cannot parse --q" in err
    assert "a chain of powers needs parentheses" in err


def test_sextic_check_rejects_wrong_degree(capsys):
    code, _, err = run_main(capsys, ["sextic-check", "--q", "x0^3"])
    assert code == 2


def test_sextic_check_rejects_high_degree_before_expanding(capsys):
    t0 = time.perf_counter()
    code, _, err = run_main(
        capsys, ["sextic-check", "--q", "(x0+x1+x2+x3)^200"])
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert "cannot parse --q: degree 200 exceeds 8" in err


@pytest.mark.parametrize("q, reason", [
    ("2^100000000", "exponent 100000000 exceeds 8"),
    ("9" * 5000 + "*x0*x1", "literal exceeds 100 digits"),
    ("(" + "9" * 60 + ")^2*x0*x1", "coefficient exceeds 100 digits"),
    # only ASCII digits are digits: no traceback, no silent reading as 3
    ("x0\u00b2", "bad character '\u00b2'"),
    ("x0*x1 + \u0663*x2^2", "bad character '\u0663'"),
])
def test_sextic_check_rejects_huge_coefficients_at_once(capsys, q, reason):
    t0 = time.perf_counter()
    code, _, err = run_main(capsys, ["sextic-check", "--q", q])
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert f"cannot parse --q: {reason}" in err


@pytest.mark.parametrize("depth", [400, 100_000])
def test_sextic_check_rejects_deep_nesting_at_once(capsys, depth):
    t0 = time.perf_counter()
    code, out, err = run_main(
        capsys, ["sextic-check", "--q", "(" * depth + "x0*x1" + ")" * depth])
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert out == ""
    assert "cannot parse --q: parentheses nested deeper than 50" in err


def test_sextic_check_accepts_nesting_at_the_bound(capsys):
    code, out, _ = run_main(
        capsys, ["sextic-check", "--q", "(" * 50 + "x0*x1" + ")" * 50])
    assert code == 0
    assert "[pass] castelnuovo certificate" in out


def test_importing_the_package_does_not_import_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = "import sys, enriques.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_parser_is_built_once_and_keeps_its_defaults():
    assert cli._build_parser() is cli._build_parser()
    _, args = cli.run(["classify", "--max-components", "9", "--json"])
    assert args.max_components == 9 and args.json
    args = cli._build_parser().parse_args(["classify"])
    assert args.max_components == 11 and not args.json
    with pytest.raises(cli.UsageError):
        cli.run([])


def test_run_returns_report_object():
    report, args = cli.run(["lattice"])
    assert report.command == "lattice"
    assert not report.failed()
    with pytest.raises(cli.UsageError):
        cli.run([])


def test_report_rejects_bad_status():
    report = cli.Report(command="x")
    with pytest.raises(ValueError):
        report.add("check", "maybe")
