import json

import pytest

from enriques import catalog
from enriques.catalog import (
    CATALOG_NAMES,
    CatalogDataError,
    IncompleteCatalog,
    UnknownSurface,
    catalog_names,
    enumerate_fibration_classes,
    fibration_records,
    half_fiber_class,
    load_surface,
    nd_bounds,
    verify_surface,
)
from enriques.config import intersect
from enriques.divisors import is_c_sequence

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


def test_catalog_names_cover_all_surfaces():
    assert catalog_names() == sorted(CATALOG_NAMES)


def test_unknown_surface():
    with pytest.raises(UnknownSurface):
        load_surface("K3")


@pytest.mark.parametrize("name", CATALOG_NAMES, ids=str)
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
        classes = [r.cls for r in records if r.determined]
        adj = catalog._clique_matrix(classes)
        cliques[name] = catalog._max_clique(adj, len(classes))
    assert cliques == {"E8~": 1, "D8~": 2, "E7~": 2}


@pytest.mark.parametrize("name", CATALOG_NAMES, ids=str)
def test_determined_classes_are_isotropic_nef_and_integral(name):
    s = load_surface(name)
    for rec in fibration_records(s):
        if not rec.determined:
            continue
        cls = rec.cls
        assert intersect(cls, cls) == 0
        assert cls.half_fiber_flag and cls.primitive_flag
        pv = cls.pairing_vector()
        assert all(x >= 0 for x in pv)
        assert all(x.denominator == 1 for x in pv)


def test_verify_surface_computes_fibration_records_once(monkeypatch):
    s = load_surface("2D4~")
    calls = []

    def counting(surface):
        calls.append(surface.name)
        return fibration_records(surface)

    monkeypatch.setattr(catalog, "fibration_records", counting)
    verify_surface(s)
    assert calls == ["2D4~"]


def test_half_fiber_class_lookup():
    s = load_surface("2D4~")
    f0 = half_fiber_class(s, "F0")
    assert intersect(f0, f0) == 0
    with pytest.raises(KeyError):
        half_fiber_class(s, "F99")


def test_claimed_triples_are_c_sequences():
    for name in ("A7~", "BP", "E7(2)"):
        s = load_surface(name)
        labels = s.claims["triple"]
        fibers = [half_fiber_class(s, label) for label in labels]
        assert is_c_sequence(fibers)


def test_four_sequences_are_c_sequences():
    for name in ("A7~", "2D4~"):
        s = load_surface(name)
        labels = s.claims["four_sequence"]
        assert len(labels) == 4
        fibers = [half_fiber_class(s, label) for label in labels]
        assert is_c_sequence(fibers)


def test_2d4_nonspecial_partner_products():
    s = load_surface("2D4~")
    f4 = half_fiber_class(s, "F4")
    f5 = half_fiber_class(s, "F5")
    g1 = half_fiber_class(s, "G1")
    g2 = half_fiber_class(s, "G2")
    assert intersect(f4, f5) == 4
    combo = tuple(
        g1.vec[i] + g2.vec[i] - f4.vec[i] for i in range(len(f4.vec))
    )
    from enriques.config import NumClass

    assert intersect(NumClass(combo, s.config), f5) == -2


def test_e7_2_has_exactly_three_fibrations_all_determined():
    s = load_surface("E7(2)")
    records = fibration_records(s)
    assert len(records) == 3
    assert all(r.determined for r in records)


def test_catalog_dir_override(tmp_path):
    src = catalog._data_dir() / "E8t.json"
    (tmp_path / "surface.json").write_text(src.read_text())
    s = load_surface("E8~", catalog_dir=tmp_path)
    assert s.name == "E8~"
    assert catalog_names(catalog_dir=tmp_path) == ["E8~"]
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


def test_enumerate_fibration_classes_matches_records():
    s = load_surface("D8~")
    assert [c.vec for c in enumerate_fibration_classes(s)] == [
        r.cls.vec for r in fibration_records(s)
    ]
