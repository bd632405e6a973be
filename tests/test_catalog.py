import json
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enriques import catalog, cli
from enriques.catalog import (
    CatalogDataError,
    IncompleteCatalog,
    UnknownSurface,
    fibration_records,
    load_surface,
    nd_bounds,
    verify_surface,
)
from enriques.config import intersect
from enriques.divisors import is_c_sequence

from conftest import SURFACES

ND_TABLE = {
    "E8~": (1, 1),
    "D8~": (2, 2),
    "E7~": (2, 2),
    "typeI": (3, 4),
    "E7(2)": (3, 3),
    "2D4~": (3, 4),
}

CLASS_COUNTS = {
    "E8~": 1,
    "D8~": 3,
    "E7~": 2,
    "A7~": 9,
    "typeI": 9,
    "BP": 16,
    "E7(2)": 3,
    "2D4~": 10,
}


def test_unknown_surface():
    with pytest.raises(UnknownSurface):
        load_surface("K3")


@pytest.mark.parametrize("name", SURFACES, ids=str)
def test_verify_surface_all_checks_pass(name):
    s = load_surface(name)
    results = verify_surface(s)
    assert results, f"no checks ran for {name}"
    failures = [(n, st, d) for n, st, d in results if st != "pass"]
    assert failures == []


@pytest.mark.parametrize("name", sorted(ND_TABLE), ids=str)
def test_nd_bounds(name):
    assert nd_bounds(load_surface(name)) == ND_TABLE[name]


@pytest.mark.parametrize("name", ("A7~", "BP"), ids=str)
def test_nd_bounds_need_a_complete_catalog(name):
    with pytest.raises(IncompleteCatalog):
        nd_bounds(load_surface(name))


@pytest.mark.parametrize("name", sorted(CLASS_COUNTS), ids=str)
def test_fibration_class_counts(name):
    s = load_surface(name)
    assert len(fibration_records(s)) == CLASS_COUNTS[name]


def test_extra_special_max_cliques():
    # the largest set of pairwise-intersecting half-fiber classes
    cliques = {}
    for name in ("E8~", "D8~", "E7~"):
        records = fibration_records(load_surface(name))
        classes = [r.cls for r in records if r.cls is not None]
        adj = catalog._clique_matrix(classes)
        cliques[name] = max(catalog._clique_sizes(adj))
    assert cliques == {"E8~": 1, "D8~": 2, "E7~": 2}


# visible c-sequences of each length 3, 4 over the determined half-fibers
C_SEQUENCE_COUNTS = {
    "E8~": (0, 0),
    "D8~": (0, 0),
    "E7~": (0, 0),
    "A7~": (11, 2),
    "typeI": (11, 2),
    "BP": (28, 6),
    "E7(2)": (1, 0),
    "2D4~": (10, 1),
}


def c_sequences(classes, length):
    return [set(c) for c in combinations(range(len(classes)), length)
            if is_c_sequence([classes[i] for i in c])]


def test_four_sequences_are_derived_from_the_half_fibers():
    # the paper's headline: a surface in characteristic other than 2
    # admits a 4-sequence; no surface shows a 5-sequence
    counts = {}
    for name in SURFACES:
        s = load_surface(name)
        determined = [r for r in fibration_records(s) if r.cls is not None]
        classes = [r.cls for r in determined]
        index = {label: i for i, r in enumerate(determined)
                 for label in r.labels}
        fours = c_sequences(classes, 4)
        counts[name] = (len(c_sequences(classes, 3)), len(fours))
        assert c_sequences(classes, 5) == []
        if "four_sequence" in s.claims:
            assert {index[lab] for lab in s.claims["four_sequence"]} in fours
        if name == "BP":
            # its non-extendable special 3-sequence next to 4-sequences
            triple = {index[lab] for lab in s.claims["triple"]}
            assert triple in c_sequences(classes, 3)
            assert fours and not any(triple < q for q in fours)
            checks = {n: st for n, st, _ in verify_surface(s)}
            assert checks["special witness"] == "pass"
            assert checks["non-extendable"] == "pass"
    assert counts == C_SEQUENCE_COUNTS


def maximal_clique_sizes(adj):
    """Sizes of the maximal cliques, by testing every vertex subset."""
    n = len(adj)
    cliques = [set(c) for k in range(n + 1) for c in combinations(range(n), k)
               if all(adj[a][b] for a, b in combinations(c, 2))]
    return sorted(len(c) for c in cliques
                  if not any(c < d for d in cliques))


def triangle_with_a_square_at_each_corner():
    """A maximal triangle {0, 1, 2} whose corners each lie in their own
    4-clique: maximal sequences of lengths 3 and 4, as on BP."""
    adj = [[False] * 12 for _ in range(12)]
    cliques = [(0, 1, 2)] + [(i, 3 * i + 3, 3 * i + 4, 3 * i + 5)
                             for i in range(3)]
    for clique in cliques:
        for a, b in combinations(clique, 2):
            adj[a][b] = adj[b][a] = True
    return adj


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 9))
    adj = [[False] * n for _ in range(n)]
    for a, b in combinations(range(n), 2):
        adj[a][b] = adj[b][a] = draw(st.booleans())
    return adj


@settings(max_examples=200, deadline=None)
@given(graphs())
@example(triangle_with_a_square_at_each_corner())
def test_clique_sizes_match_brute_force(adj):
    assert sorted(catalog._clique_sizes(adj)) == maximal_clique_sizes(adj)


def test_shortest_maximal_sequence_need_not_pass_a_longest():
    sizes = catalog._clique_sizes(triangle_with_a_square_at_each_corner())
    assert (min(sizes), max(sizes)) == (3, 4)


@pytest.mark.parametrize("name", SURFACES, ids=str)
def test_determined_classes_are_isotropic_nef_and_integral(name):
    s = load_surface(name)
    for rec in fibration_records(s):
        cls = rec.cls
        if cls is None:
            continue
        assert intersect(cls, cls) == 0
        pv = cls.pairing_vector()
        assert all(x >= 0 for x in pv)
        assert all(x.denominator == 1 for x in pv)


def _file_bytes(name):
    return next(raw for _, n, raw in catalog._surfaces() if n == name)


def test_verify_surface_computes_fibration_records_once(monkeypatch):
    # verify_surface, nd_bounds and the fibrations command read the
    # records of one freshly built model, which enumerates them once
    s = catalog._model_from_json(json.loads(_file_bytes("2D4~")))
    calls = []

    def counting(config, family, max_size):
        calls.append(config)
        return root_subsets(config, family, max_size)

    root_subsets = catalog.root_subsets
    monkeypatch.setattr(catalog, "root_subsets", counting)
    monkeypatch.setattr(catalog, "load_surface", lambda *_, **__: s)
    verify_surface(s)
    nd_bounds(s)
    for command in ("verify-surface", "nd", "fibrations"):
        cli.run([command, "2D4~"])
    assert calls == [s.config]


@pytest.mark.parametrize("name", SURFACES)
def test_a_load_of_unchanged_bytes_shares_one_unchanged_model(name):
    s = load_surface(name)
    assert load_surface(name) is s
    assert any(m is s for m in catalog.surfaces())
    for command in ("verify-surface", "nd", "fibrations"):
        cli.run([command, name])
    raw = _file_bytes(name)
    # nothing the commands ran changed the model or the data it came from
    assert catalog._parse(raw) == json.loads(raw)
    fresh = catalog._model_from_json(json.loads(raw))
    assert s == fresh
    assert fibration_records(s) == fibration_records(fresh)


@pytest.mark.parametrize("name", SURFACES)
def test_annotated_fiber_divisors_are_computed_at_load_only(monkeypatch, name):
    s = load_surface(name)
    data = json.loads(_file_bytes(name))
    for f, entry in zip(s.fibrations, data["fibrations"], strict=True):
        assert {c for c, _ in f.divisor.coeffs} == set(entry["support"])
    # fibration_records recognises every connected subset; apart from it,
    # verify_surface recognises no fiber and reads the stored divisors
    records = fibration_records(s)
    calls = []

    def counting(config, support):
        calls.append(support)
        return fiber_divisor(config, support)

    fiber_divisor = catalog.fiber_divisor
    monkeypatch.setattr(catalog, "fibration_records", lambda _: records)
    monkeypatch.setattr(catalog, "fiber_divisor", counting)
    verify_surface(s)
    assert calls == []


def record_class(s, label):
    classes = {lab: r.cls for r in fibration_records(s) for lab in r.labels}
    return classes[label]


def test_half_fiber_class_lookup():
    s = load_surface("2D4~")
    f0 = record_class(s, "F0")
    assert intersect(f0, f0) == 0
    with pytest.raises(KeyError):
        record_class(s, "F99")


def test_claimed_triples_are_c_sequences():
    for name in ("A7~", "BP", "E7(2)"):
        s = load_surface(name)
        labels = s.claims["triple"]
        fibers = [record_class(s, label) for label in labels]
        assert is_c_sequence(fibers)


def test_four_sequences_are_c_sequences():
    for name in ("A7~", "2D4~"):
        s = load_surface(name)
        labels = s.claims["four_sequence"]
        assert len(labels) == 4
        fibers = [record_class(s, label) for label in labels]
        assert is_c_sequence(fibers)


def test_2d4_nonspecial_partner_products():
    s = load_surface("2D4~")
    f4 = record_class(s, "F4")
    f5 = record_class(s, "F5")
    g1 = record_class(s, "G1")
    g2 = record_class(s, "G2")
    assert intersect(f4, f5) == 4
    # G1 and G2 are halves of their fibers and F4 is its own fiber
    assert (g1.den, g2.den, f4.den) == (2, 2, 1)
    assert intersect(g1 + g2 - f4, f5) == -2


def test_e7_2_has_exactly_three_fibrations_all_determined():
    s = load_surface("E7(2)")
    records = fibration_records(s)
    assert len(records) == 3
    assert all(r.cls is not None for r in records)


def test_catalog_dir_override(tmp_path):
    src = catalog._data_dir() / "E8t.json"
    (tmp_path / "surface.json").write_text(src.read_text())
    s = load_surface("E8~", catalog_dir=tmp_path)
    assert s.name == "E8~"
    assert [name for _, name, _ in catalog._surfaces(tmp_path)] == ["E8~"]
    with pytest.raises(UnknownSurface):
        load_surface("D8~", catalog_dir=tmp_path)


def test_bad_fiber_support_is_rejected(tmp_path):
    data = {
        "name": "broken",
        "curves": ["a", "b", "c"],
        "edges": [["a", "b", 1], ["b", "c", 1]],
        "fibrations": [
            {"label": "F0", "support": ["a", "b"], "multiplicity": "half"},
        ],
        "complete": False,
    }
    (tmp_path / "broken.json").write_text(json.dumps(data))
    with pytest.raises(CatalogDataError):
        load_surface("broken", catalog_dir=tmp_path)


def test_unknown_curve_in_fiber_support_is_rejected(tmp_path):
    data = json.loads((catalog._data_dir() / "E8t.json").read_text())
    data["fibrations"][0]["support"].append("nosuchcurve")
    (tmp_path / "E8t.json").write_text(json.dumps(data))
    with pytest.raises(CatalogDataError, match="nosuchcurve"):
        load_surface("E8~", catalog_dir=tmp_path)


def test_wrong_kind_annotation_is_rejected(tmp_path):
    data = {
        "name": "mislabeled",
        "curves": ["a", "b"],
        "edges": [["a", "b", 2]],
        "fibrations": [
            {"label": "F0", "support": ["a", "b"], "multiplicity": "half",
             "kind": "III"},
        ],
        "complete": False,
    }
    (tmp_path / "bad.json").write_text(json.dumps(data))
    with pytest.raises(CatalogDataError):
        load_surface("mislabeled", catalog_dir=tmp_path)


def _cycle_surface(n, fibrations):
    curves = [f"c{i}" for i in range(n)]
    return {"name": "cycle", "curves": curves,
            "edges": [[curves[i], curves[(i + 1) % n], 1] for i in range(n)],
            "fibrations": fibrations, "complete": False}


@pytest.mark.parametrize("n, fibrations, reason", [
    # an Enriques fiber has at most 9 components; I10 has 10
    (10, [{"label": "F0", "support": [f"c{i}" for i in range(10)],
           "multiplicity": "half"}], "fiber F0 has 10 components, above 9"),
    (3, [{"label": "F0", "support": ["c0", "c1", "c2"],
          "multiplicity": "half"},
         {"label": "F1", "support": ["c2", "c1", "c0"],
          "multiplicity": "simple"}],
     "fibers F0 and F1 repeat a label or a support"),
], ids=("ten-components", "repeated-support"))
def test_fibers_no_record_can_hold_are_rejected(tmp_path, n, fibrations,
                                                reason):
    (tmp_path / "cycle.json").write_text(
        json.dumps(_cycle_surface(n, fibrations)))
    with pytest.raises(CatalogDataError, match=reason):
        load_surface("cycle", catalog_dir=tmp_path)


def test_every_data_file_is_in_the_parametrised_oracles():
    # read apart from catalog._surfaces, which SURFACES comes from
    names = [json.loads(path.read_text())["name"]
             for path in sorted(catalog._data_dir().glob("*.json"))]
    assert list(SURFACES) == names
    assert len(set(names)) == len(names) == 8
    assert sorted(CLASS_COUNTS) == sorted(names)
    assert sorted([*ND_TABLE, "A7~", "BP"]) == sorted(names)
