"""Independent oracles for the indexed configuration core.

Random weighted graphs (up to 8 curves, weights 0, 1, 2) are checked
against brute-force or textbook references kept in this file.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from enriques.config import CurveConfig, Divisor
from enriques.divisors import connected_subsets
from enriques.exactmat import det_bareiss
from enriques.rootfibers import (
    DynkinType,
    _diagram_edges,
    fundamental_cycle,
    is_negative_definite,
)


@st.composite
def configs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    names = tuple(f"c{i}" for i in draw(st.permutations(range(n))))
    edges = [
        (names[a], names[b], w)
        for a, b in combinations(range(n), 2)
        if (w := draw(st.sampled_from((0, 0, 1, 2))))
    ]
    return CurveConfig.from_edges(names, edges)


def brute_connected_subsets(config, min_size, max_size):
    out = []
    for size in range(min_size, max_size + 1):
        for subset in combinations(config.names, size):
            if config.subconfig(subset).is_connected():
                out.append(subset)
    return out


@settings(max_examples=150, deadline=None)
@given(configs(), st.integers(1, 9), st.integers(0, 9))
def test_connected_subsets_match_brute_force(config, lo, hi):
    assert connected_subsets(config) == brute_connected_subsets(
        config, 1, config.size())
    assert connected_subsets(config, lo, hi) == brute_connected_subsets(
        config, lo, hi)


@settings(max_examples=200, deadline=None)
@given(configs())
def test_negative_definite_matches_leading_minor_signs(config):
    m = [list(row) for row in config.inter]
    want = all(
        (-1) ** k * det_bareiss([row[:k] for row in m[:k]]) > 0
        for k in range(1, len(m) + 1)
    )
    assert is_negative_definite(config) == want


ADE_UP_TO_RANK_8 = (
    [DynkinType("A", n) for n in range(1, 9)]
    + [DynkinType("D", n) for n in range(4, 9)]
    + [DynkinType("E", n) for n in (6, 7, 8)]
)


def highest_root_by_vertex(dtype):
    """Highest-root coefficients in the vertex layout of _diagram_edges:
    A along the path; D the branch vertex, its two leaves, then the long
    arm; E the chain from its short end, then the leaf on the branch."""
    n = dtype.n
    if dtype.family == "A":
        return [1] * n
    if dtype.family == "D":
        return [2, 1, 1] + [2] * (n - 4) + [1]
    return {6: [1, 2, 3, 2, 1, 2],
            7: [2, 3, 4, 3, 2, 1, 2],
            8: [2, 4, 6, 5, 4, 3, 2, 3]}[n]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ADE_UP_TO_RANK_8), st.randoms(use_true_random=False))
def test_fundamental_cycle_is_highest_root_under_relabelling(dtype, rnd):
    n, edges = _diagram_edges(dtype)
    label = [f"r{i}" for i in range(n)]
    rnd.shuffle(label)
    names = list(label)
    rnd.shuffle(names)
    cfg = CurveConfig.from_edges(
        names, [(label[a], label[b]) for a, b in edges])
    z = fundamental_cycle(cfg)
    assert dict(z.coeffs) == dict(zip(label, highest_root_by_vertex(dtype)))


@settings(max_examples=150, deadline=None)
@given(configs(), st.data())
def test_divisor_round_trips_through_from_map_and_coeffs(config, data):
    coeff = st.integers(-3, 3)
    m1 = data.draw(st.dictionaries(st.sampled_from(config.names), coeff)
                   if config.names else st.just({}))
    m2 = data.draw(st.dictionaries(st.sampled_from(config.names), coeff)
                   if config.names else st.just({}))
    d1, d2 = Divisor.from_map(m1, config), Divisor.from_map(m2, config)
    assert d1.coeffs == tuple(
        (name, m1[name]) for name in config.names if m1.get(name, 0))
    assert Divisor.from_map(dict(d1.coeffs), config) == d1
    assert d1.as_vector() == [m1.get(name, 0) for name in config.names]
    assert d1.support() == {name for name, c in m1.items() if c}
    for name in config.names:
        assert d1.coeff(name) == m1.get(name, 0)
        assert (d1 + d2).coeff(name) == m1.get(name, 0) + m2.get(name, 0)
        assert (d1 - d2).coeff(name) == m1.get(name, 0) - m2.get(name, 0)
        assert d1.scale(3).coeff(name) == 3 * m1.get(name, 0)
