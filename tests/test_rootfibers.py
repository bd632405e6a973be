import pytest

from enriques.config import CurveConfig
from enriques.rootfibers import (
    DynkinType,
    KodairaType,
    NonDefinite,
    NotAffine,
    NotDynkin,
    affine_shape,
    canonical_vertex_order,
    classify_affine,
    classify_dynkin,
    dynkin_shape,
    embeds_in_E8,
    fiber_count_bound,
    fundamental_cycle,
    highest_root,
    is_negative_definite,
    null_vector,
    _diagram_edges,
)

ADE_UP_TO_RANK_9 = (
    [DynkinType("A", n) for n in range(1, 10)]
    + [DynkinType("D", n) for n in range(4, 10)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
)


def diagram_config(dtype):
    n, edges = _diagram_edges(dtype)
    names = tuple(f"v{i}" for i in range(n))
    return CurveConfig.from_edges(
        names, [(names[a], names[b]) for a, b in edges]
    )


@pytest.mark.parametrize("dtype", ADE_UP_TO_RANK_9, ids=str)
def test_recognition_round_trip(dtype):
    assert classify_dynkin(diagram_config(dtype)) == dtype


@pytest.mark.parametrize("dtype", ADE_UP_TO_RANK_9, ids=str)
def test_fundamental_cycle_equals_highest_root(dtype):
    cfg = diagram_config(dtype)
    z = fundamental_cycle(cfg)
    order = canonical_vertex_order(cfg, dtype)
    hr = highest_root(dtype)
    assert dict(z.coeffs) == {name: c for name, c in zip(order, hr)}
    # dynkin_shape re-runs the same comparison internally
    assert dynkin_shape(cfg).mult_map() == dict(z.coeffs)


def test_e8_highest_root_coefficients():
    assert highest_root(DynkinType("E", 8)) == (2, 4, 6, 5, 4, 3, 2, 3)


def test_fundamental_cycle_self_intersection_is_minus_two():
    from enriques.config import intersect

    for dtype in ADE_UP_TO_RANK_9:
        cfg = diagram_config(dtype)
        z = fundamental_cycle(cfg)
        assert intersect(z, z) == -2


def test_cycle_graph_is_not_dynkin():
    cycle = CurveConfig.from_edges(
        ("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")]
    )
    with pytest.raises(NotDynkin):
        classify_dynkin(cycle)
    assert not is_negative_definite(cycle)
    with pytest.raises(NonDefinite):
        fundamental_cycle(cycle)


def test_classify_affine_cycle_and_star():
    cycle = CurveConfig.from_edges(
        tuple(f"t{i}" for i in range(5)),
        [(f"t{i}", f"t{(i + 1) % 5}") for i in range(5)],
    )
    assert classify_affine(cycle) == KodairaType("I5")
    star = CurveConfig.from_edges(
        ("c", "a", "b", "d", "e"),
        [("c", "a"), ("c", "b"), ("c", "d"), ("c", "e")],
    )
    assert classify_affine(star) == KodairaType("I0*")
    mult = null_vector(star)
    assert mult == {"c": 2, "a": 1, "b": 1, "d": 1, "e": 1}


def test_classify_affine_two_vertex_double_edge():
    plain = CurveConfig.from_edges(("a", "b"), [("a", "b", 2)])
    assert classify_affine(plain) == KodairaType("I2")
    tangent = CurveConfig.from_edges(
        ("a", "b"), [("a", "b", 2)], tangent_edges=[("a", "b")]
    )
    assert classify_affine(tangent) == KodairaType("III")


def test_affine_shape_of_extended_e8():
    names = tuple(f"v{i}" for i in range(8))
    edges = [(f"v{i}", f"v{i+1}") for i in range(7)]
    # E8 chain of eight vertices with the branch leaf third from one end
    cfg = CurveConfig.from_edges(names + ("w",), edges + [("v2", "w")])
    shape = affine_shape(cfg)
    assert shape.kind == KodairaType("II*")
    assert sum(shape.mult_map().values()) == 30


def test_dynkin_config_is_not_affine():
    chain = CurveConfig.from_edges(("a", "b"), [("a", "b")])
    with pytest.raises(NotAffine):
        null_vector(chain)


def test_kodaira_root_types_and_component_counts():
    table = {
        "II*": ("E8", 9),
        "III*": ("E7", 8),
        "IV*": ("E6", 7),
        "I0*": ("D4", 5),
        "I4*": ("D8", 9),
        "I8": ("A7", 8),
        "III": ("A1", 2),
        "IV": ("A2", 3),
        "II": (None, 1),
        "I2": ("A1", 2),
        "I1": (None, 1),
        "smooth": (None, 1),
    }
    for symbol, (root, count) in table.items():
        k = KodairaType(symbol)
        want = None if root is None else DynkinType.parse(root)
        assert k.root_type() == want
        assert k.component_count() == count


def test_kodaira_rejects_bad_symbols():
    for bad in ("I0", "V", "I-1*", "X3"):
        with pytest.raises(ValueError):
            KodairaType(bad)


def test_embeds_in_e8_basic_facts():
    D = DynkinType.parse
    assert embeds_in_E8([D("E8")])
    assert embeds_in_E8([D("D8")])
    assert embeds_in_E8([D("A8")])
    assert embeds_in_E8([D("E7"), D("A1")])
    assert embeds_in_E8([D("A4"), D("A4")])
    assert not embeds_in_E8([D("A8"), D("A1")])  # rank 9 > 8


def test_fiber_count_bound():
    K = KodairaType
    assert fiber_count_bound([K("II*")], 1)
    assert fiber_count_bound([K("III*"), K("I2")], 2)
    assert not fiber_count_bound([K("III*"), K("I2")], 1)
    assert not fiber_count_bound([K("I4*"), K("I2")], 2)
    assert fiber_count_bound([K("I0*"), K("I0*")], 2)
    assert fiber_count_bound([K("I4*"), K("smooth")], 2)
