import time
from pathlib import Path

import pytest

from enriques import catalog, classify

GOLDEN = Path(__file__).parent / "golden"
# the names of the catalog's surfaces, one per data file, in file order
SURFACES = tuple(name for _, name, _ in catalog._surfaces())


def format_entry(e):
    types = ",".join(str(t) for t in e.types)
    row = (f"({types}) variant {e.variant}: n={e.glued.size()} "
           f"rank={e.rank} disc={e.disc}")
    if e.verdict is not None:
        row += f" {e.verdict}"
    return row


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


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def census(timings):
    t0 = time.perf_counter()
    out = classify.enumerate_triangles()
    timings["census"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def filtered(census, timings):
    t0 = time.perf_counter()
    out = classify.discriminant_filter(census)
    timings["filter"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def resolved(filtered):
    return classify.derive_survivors(filtered)


@pytest.fixture(scope="session")
def survivors(resolved):
    return [e for e in resolved if isinstance(e.verdict, classify.Survivor)]
