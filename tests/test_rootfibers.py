import pytest

from enriques.config import CurveConfig
from enriques.rootfibers import (
    DynkinType,
    KodairaType,
    NotAffine,
    NotDynkin,
    canonical_vertex_order,
    classify_affine,
    classify_dynkin,
    fiber_divisor,
    fiber_graph,
    fundamental_cycle,
    highest_root,
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
    with pytest.raises(NotDynkin):
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


def test_fiber_divisor_of_extended_e8():
    names = tuple(f"v{i}" for i in range(8))
    edges = [(f"v{i}", f"v{i+1}") for i in range(7)]
    # E8 chain of eight vertices with the branch leaf third from one end,
    # and one curve off the fiber
    cfg = CurveConfig.from_edges(names + ("w", "x"),
                                 edges + [("v2", "w"), ("v7", "x")])
    kind, null = fiber_divisor(cfg, names + ("w",))
    assert kind == KodairaType("II*")
    assert null.ambient is cfg
    assert sum(null.vec) == 30 and null.coeff("x") == 0


def test_tree_with_two_branch_vertices_off_the_d_shape_is_not_affine():
    # c has valency 5 and its neighbour b valency 3
    edges = [("c", f"l{i}") for i in range(4)]
    edges += [("c", "b"), ("b", "x"), ("b", "y")]
    cfg = CurveConfig.from_edges(
        ("c", "b", "x", "y", "l0", "l1", "l2", "l3"), edges)
    with pytest.raises(NotAffine):
        fiber_divisor(cfg, cfg.names)


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
        want = None if root is None else DynkinType(root[0], int(root[1:]))
        assert k.root_type() == want
        assert fiber_graph(k).size() == count


def test_kodaira_rejects_bad_symbols():
    for bad in ("I0", "V", "I-1*", "X3"):
        with pytest.raises(ValueError):
            KodairaType(bad)
