import pytest

from enriques.config import CurveConfig, Divisor
from enriques.divisors import (
    InvariantViolation,
    Obstruction,
    build_triangle,
    connected_subsets,
    extension_obstruction,
    fibration_capacity_ok,
    is_c_sequence,
    specialness_witness,
)
from enriques.rootfibers import DynkinType, KodairaType, fiber_divisor

# smallest triangle graph: three curves meeting pairwise twice, so each
# S_k is a single curve and each G_i = S_j + S_k is a fiber of type I2
SMALL = CurveConfig.from_edges(
    ("a", "b", "c"),
    [("a", "b", 2), ("b", "c", 2), ("c", "a", 2)],
)
WITNESSES = tuple(
    Divisor.from_map({name: 1}, SMALL) for name in ("a", "b", "c")
)


def small_triangle():
    return build_triangle(witnesses=WITNESSES, ambient=SMALL)


def half_fibers(t):
    """The classes F_i = G_i / 2 on the glued configuration."""
    return [Divisor(g.vec, t.glued, 2) for g in t.G]


def test_connected_subsets_ordering_and_count():
    chain = CurveConfig.from_edges(("a", "b", "c"), [("a", "b"), ("b", "c")])
    subsets = connected_subsets(chain)
    assert subsets == [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]
    assert connected_subsets(chain, min_size=2, max_size=2) == [(0, 1), (1, 2)]


def test_small_triangle_assembles():
    t = small_triangle()
    assert t.types == (DynkinType("A", 1),) * 3
    assert t.glued.size() == 3
    for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
        assert t.G[i] == t.S[j] + t.S[k]
        assert fiber_divisor(t.glued, t.G[i].support()) == (
            KodairaType("I2"), t.G[i])


def test_half_fiber_classes_form_c_sequence():
    t = small_triangle()
    fibers = half_fibers(t)
    assert is_c_sequence(fibers)
    # the whole fibers pair to 4, not 1
    assert not is_c_sequence([f.scale(2) for f in fibers])


def test_specialness_witness_recovers_all_three():
    t = small_triangle()
    fibers = half_fibers(t)
    found = specialness_witness(fibers, t.glued)
    assert set(found) == {0, 1, 2}
    for k, w in found.items():
        assert w.support() == t.S[k].support()


def test_build_triangle_checks_class_identity():
    t = small_triangle()
    fibers = half_fibers(t)
    rebuilt = build_triangle(F=fibers, witnesses=WITNESSES, ambient=SMALL)
    assert rebuilt.types == t.types
    # witnesses in the wrong order no longer match F_i + F_j - F_k
    shuffled = (WITNESSES[1], WITNESSES[0], WITNESSES[2])
    with pytest.raises(InvariantViolation):
        build_triangle(F=fibers, witnesses=shuffled, ambient=SMALL)


def test_build_triangle_requires_three_witnesses():
    with pytest.raises(InvariantViolation):
        build_triangle(witnesses=WITNESSES[:2], ambient=SMALL)


def test_small_triangle_capacity_and_obstruction():
    t = small_triangle()
    assert fibration_capacity_ok(t)
    # every witness is its own simple component, clashing nowhere
    assert extension_obstruction(t) is None


def test_obstruction_formatting():
    obs = Obstruction("no simple component in S_1")
    assert str(obs) == "NonExtendable(no simple component in S_1)"
