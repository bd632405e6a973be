from fractions import Fraction

import pytest

from enriques.config import (
    AmbientMismatch,
    CurveConfig,
    Divisor,
    connected,
    intersect,
)

TRIANGLE = CurveConfig.from_edges(
    ("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")]
)


def test_from_edges_symmetric_with_weights():
    cfg = CurveConfig.from_edges(("p", "q"), [("p", "q", 2)])
    assert cfg.pair("p", "q") == 2
    assert cfg.pair("q", "p") == 2
    assert cfg.pair("p", "p") == -2


def test_tangent_annotation():
    cfg = CurveConfig.from_edges(
        ("p", "q"), [("p", "q", 2)], tangent_edges=[("q", "p")]
    )
    assert cfg.tangent_edges == {(0, 1)}
    assert not TRIANGLE.tangent_edges


def test_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        CurveConfig(("a", "b"), ((-2, 1), (0, -2)))


@pytest.mark.parametrize("names, inter", [
    (("a", "b"), ((-2, 0, 5), (0, -2, 7))),
    (("a", "a"), ((-2, 0), (0, -2))),
])
def test_rejects_ragged_matrix_and_repeated_names(names, inter):
    with pytest.raises(ValueError):
        CurveConfig(names, inter)


def test_index_is_positional_and_rejects_unknown_curves():
    assert [TRIANGLE.index(name) for name in "abc"] == [0, 1, 2]
    with pytest.raises(ValueError, match="unknown curve"):
        TRIANGLE.index("z")


def test_rejects_wrong_diagonal():
    with pytest.raises(ValueError):
        CurveConfig(("a",), ((0,),))


def test_subconfig_preserves_ambient_order():
    sub = TRIANGLE.subconfig((0, 2))
    assert sub.names == ("a", "c")
    assert sub.pair("a", "c") == 1


def test_connectivity():
    assert connected(dict(enumerate(TRIANGLE.adj)))
    path = CurveConfig.from_edges(("a", "b", "c"), [("a", "b")])
    assert not connected(dict(enumerate(path.adj)))


def test_divisor_arithmetic():
    d1 = Divisor.from_map({"a": 1, "b": 2}, TRIANGLE)
    d2 = Divisor.from_map({"b": 1, "c": 3}, TRIANGLE)
    total = d1 + d2
    assert total.vec == (1, 3, 3)
    assert (total - d2).coeffs == d1.coeffs
    assert d1.scale(2).vec[1] == 4


def test_divisor_drops_zero_coefficients():
    d = Divisor.from_map({"a": 1, "b": 0}, TRIANGLE)
    assert d.support() == (0,)


def test_divisor_rejects_unknown_curves():
    with pytest.raises(ValueError):
        Divisor.from_map({"z": 1}, TRIANGLE)


def test_intersect_divisors():
    d1 = Divisor.from_map({"a": 1}, TRIANGLE)
    d2 = Divisor.from_map({"b": 1}, TRIANGLE)
    assert intersect(d1, d1) == -2
    assert intersect(d1, d2) == 1
    assert intersect(d1 + d2, d1 + d2) == -2


def test_intersect_rejects_mixed_ambients():
    other = CurveConfig.from_edges(("x", "y"), [("x", "y")])
    with pytest.raises(AmbientMismatch):
        intersect(
            Divisor.from_map({"a": 1}, TRIANGLE),
            Divisor.from_map({"x": 1}, other),
        )


def test_half_divisor_integer_pairing_is_int():
    cls = Divisor((1, 1, 1), TRIANGLE, 2)
    value = intersect(cls, cls)
    assert value == 0
    assert isinstance(value, int)


def test_half_divisor_fractional_pairing_stays_exact():
    cls = Divisor((1, 0, 0), TRIANGLE, 2)
    assert intersect(cls, cls) == Fraction(-1, 2)


def test_half_class_is_reduced_and_den_is_1_or_2():
    # equality of classes (build_triangle, _verify_triple) relies on this
    assert Divisor((2, 2, 2), TRIANGLE, 2) == Divisor((1, 1, 1), TRIANGLE)
    assert Divisor((2, 0, 2), TRIANGLE, 2).den == 1
    assert Divisor((2, 1, 0), TRIANGLE, 2).den == 2
    with pytest.raises(ValueError):
        Divisor((1, 1, 1), TRIANGLE, 3)


def test_pairing_vector_of_cycle_class():
    d = Divisor.from_map({"a": 1, "b": 1, "c": 1}, TRIANGLE)
    assert d.pairing_vector() == (0, 0, 0)
    assert Divisor((1, 0, 0), TRIANGLE, 2).pairing_vector() == (
        -1, Fraction(1, 2), Fraction(1, 2))
