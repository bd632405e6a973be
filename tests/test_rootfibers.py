import pytest

from enriques.classify import FIBER_KINDS
from enriques.config import CurveConfig
from enriques.divisors import connected_subsets
from enriques.rootfibers import (
    DynkinType,
    KodairaType,
    NotAffine,
    NotDynkin,
    diagram,
    diagram_maps,
    dynkin_divisor,
    fiber_divisor,
    fiber_graph,
    fundamental_cycle,
)

from conftest import highest_root_by_vertex, whole_null_vector

ADE_UP_TO_RANK_9 = (
    [DynkinType("A", n) for n in range(1, 10)]
    + [DynkinType("D", n) for n in range(4, 10)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
)


@pytest.mark.parametrize("dtype", ADE_UP_TO_RANK_9, ids=str)
def test_recognition_round_trip(dtype):
    cfg = diagram(dtype)
    assert dynkin_divisor(cfg, range(cfg.size()))[0] == dtype


@pytest.mark.parametrize("dtype", ADE_UP_TO_RANK_9, ids=str)
def test_fundamental_cycle_equals_highest_root(dtype):
    z = fundamental_cycle(diagram(dtype))
    assert list(z.vec) == highest_root_by_vertex(dtype)


def test_e8_highest_root_coefficients():
    e8 = fundamental_cycle(diagram(DynkinType("E", 8)))
    assert e8.vec == (2, 4, 6, 5, 4, 3, 2, 3)


FIBER_GRAPH_KINDS = FIBER_KINDS + (KodairaType("III"), KodairaType("IV"))


@pytest.mark.parametrize("kind", FIBER_GRAPH_KINDS, ids=str)
def test_fiber_graph_is_the_diagram_plus_one_last_curve(kind):
    cfg = fiber_graph(kind)
    rt = kind.root_type()
    base = cfg.subconfig(range(cfg.size() - 1))
    assert (base.names, base.inter) == (diagram(rt).names, diagram(rt).inter)
    assert list(whole_null_vector(cfg)) == highest_root_by_vertex(rt) + [1]
    tangent = kind.symbol in ("III", "IV")
    assert cfg.tangent_edges == ({(0, 1)} if tangent else set())
    assert fiber_divisor(cfg, range(cfg.size()))[0] == kind


def test_cycle_fibers_keep_their_labelled_layout():
    # I_n is the cycle t0, ..., t_{n-1}; I0* is the star on t0
    for n in range(3, 10):
        names = tuple(f"t{i}" for i in range(n))
        cycle = [(names[i], names[(i + 1) % n]) for i in range(n)]
        assert fiber_graph(KodairaType(f"I{n}")) == CurveConfig.from_edges(
            names, cycle)
    assert fiber_graph(KodairaType("I2")) == CurveConfig.from_edges(
        ("t0", "t1"), [("t0", "t1", 2)])
    assert fiber_graph(KodairaType("I0*")) == CurveConfig.from_edges(
        ("t0", "t1", "t2", "t3", "t4"),
        [("t0", "t1"), ("t0", "t2"), ("t0", "t3"), ("t0", "t4")])


def maps_by_brute_force(cfg, support, dtype):
    """Every bijection of diagram(dtype) onto support that matches the
    whole intersection matrix, by backtracking over all support vertices
    in index order."""
    inter = diagram(dtype).inter
    found = []

    def extend(images):
        i = len(images)
        if i == len(inter):
            found.append(tuple(images))
            return
        for j in support:
            if j not in images and all(inter[i][a] == cfg.inter[j][b]
                                       for a, b in enumerate(images)):
                extend(images + [j])

    extend([])
    return tuple(found)


@pytest.mark.parametrize("kind", FIBER_KINDS, ids=str)
def test_diagram_maps_are_every_isomorphism_onto_the_support(kind):
    cfg = fiber_graph(kind)
    checked = 0
    for support in connected_subsets(cfg, max_size=cfg.size() - 1):
        try:
            dtype, z = dynkin_divisor(cfg, support)
        except NotDynkin:
            continue
        maps = diagram_maps(cfg, support, dtype)
        assert maps == maps_by_brute_force(cfg, support, dtype)
        for images in maps:
            assert [z.vec[j] for j in images] == highest_root_by_vertex(dtype)
        checked += 1
    assert checked > 0


# orders of the diagram automorphism groups; 2 for A_n (n > 1) and D_n (n > 4)
AUTOMORPHISMS = {"A1": 1, "D4": 6, "E6": 2, "E7": 1, "E8": 1}


@pytest.mark.parametrize("dtype", ADE_UP_TO_RANK_9, ids=str)
def test_diagram_maps_count_the_diagram_automorphisms(dtype):
    cfg = diagram(dtype)
    support = tuple(range(cfg.size()))
    maps = diagram_maps(cfg, support, dtype)
    assert len(maps) == AUTOMORPHISMS.get(str(dtype), 2)
    assert maps == maps_by_brute_force(cfg, support, dtype)


def test_fundamental_cycle_self_intersection_is_minus_two():
    from enriques.config import intersect

    for dtype in ADE_UP_TO_RANK_9:
        z = fundamental_cycle(diagram(dtype))
        assert intersect(z, z) == -2


def test_cycle_graph_is_not_dynkin():
    cycle = CurveConfig.from_edges(
        ("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")]
    )
    with pytest.raises(NotDynkin):
        dynkin_divisor(cycle, range(cycle.size()))
    with pytest.raises(NotDynkin):
        fundamental_cycle(cycle)


def test_fiber_divisor_cycle_and_star():
    cycle = CurveConfig.from_edges(
        tuple(f"t{i}" for i in range(5)),
        [(f"t{i}", f"t{(i + 1) % 5}") for i in range(5)],
    )
    assert fiber_divisor(cycle, range(cycle.size()))[0] == KodairaType("I5")
    star = CurveConfig.from_edges(
        ("c", "a", "b", "d", "e"),
        [("c", "a"), ("c", "b"), ("c", "d"), ("c", "e")],
    )
    assert fiber_divisor(star, range(star.size()))[0] == KodairaType("I0*")
    mult = whole_null_vector(star)
    assert mult == (2, 1, 1, 1, 1)


def test_fiber_divisor_two_vertex_double_edge():
    plain = CurveConfig.from_edges(("a", "b"), [("a", "b", 2)])
    assert fiber_divisor(plain, range(plain.size()))[0] == KodairaType("I2")
    tangent = CurveConfig.from_edges(
        ("a", "b"), [("a", "b", 2)], tangent_edges=[("a", "b")]
    )
    assert (fiber_divisor(tangent, range(tangent.size()))[0]
            == KodairaType("III"))


def test_fiber_divisor_of_extended_e8():
    names = tuple(f"v{i}" for i in range(8))
    edges = [(f"v{i}", f"v{i+1}") for i in range(7)]
    # E8 chain of eight vertices with the branch leaf third from one end,
    # and one curve off the fiber
    cfg = CurveConfig.from_edges(names + ("w", "x"),
                                 edges + [("v2", "w"), ("v7", "x")])
    kind, null = fiber_divisor(cfg, tuple(range(9)))
    assert kind == KodairaType("II*")
    assert null.ambient is cfg
    assert sum(null.vec) == 30 and null.vec[cfg.index("x")] == 0


def test_tree_with_two_branch_vertices_off_the_d_shape_is_not_affine():
    # c has valency 5 and its neighbour b valency 3
    edges = [("c", f"l{i}") for i in range(4)]
    edges += [("c", "b"), ("b", "x"), ("b", "y")]
    cfg = CurveConfig.from_edges(
        ("c", "b", "x", "y", "l0", "l1", "l2", "l3"), edges)
    with pytest.raises(NotAffine):
        fiber_divisor(cfg, tuple(range(cfg.size())))


def test_dynkin_config_is_not_affine():
    chain = CurveConfig.from_edges(("a", "b"), [("a", "b")])
    with pytest.raises(NotAffine):
        whole_null_vector(chain)


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


# I_n is multiplicative; every other singular fiber is additive, III and
# IV too, though they share their dual graphs' numerics with I2 and I3
MULTIPLICATIVE = {
    **{f"I{n}": True for n in range(1, 10)},
    **{symbol: False for symbol in ("II", "III", "IV", "IV*", "III*", "II*")},
    **{f"I{n}*": False for n in range(5)},
}


@pytest.mark.parametrize("symbol", MULTIPLICATIVE)
def test_multiplicative_kinds_are_the_i_n(symbol):
    assert KodairaType(symbol).is_multiplicative() is MULTIPLICATIVE[symbol]


def test_kodaira_rejects_bad_symbols():
    for bad in ("I0", "V", "I-1*", "X3"):
        with pytest.raises(ValueError):
            KodairaType(bad)
