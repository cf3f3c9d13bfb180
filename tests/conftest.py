import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from semap import FaceSequence, PolyhedralMap, catalog, catalog_map, cylinder_search


@pytest.fixture(scope="session")
def tetrahedron():
    return catalog_map("tetrahedron")


@pytest.fixture(scope="session")
def cube():
    return catalog_map("cube")


@pytest.fixture(scope="session")
def rp2():
    return catalog_map("rp2_6")


@pytest.fixture(scope="session")
def k1():
    return catalog_map("K1")


@pytest.fixture(scope="session")
def k2():
    return catalog_map("K2")


@pytest.fixture(scope="session")
def k3():
    return catalog_map("K3")


@pytest.fixture(scope="session")
def t1():
    return catalog_map("T1")


@pytest.fixture(scope="session")
def t2():
    return catalog_map("T2")


@pytest.fixture(scope="session")
def t3():
    return catalog_map("T3")


@pytest.fixture(scope="session")
def n_map():
    return catalog_map("N")


@pytest.fixture(scope="session")
def all_catalog():
    return catalog()


@pytest.fixture(scope="session")
def octahedron():
    return PolyhedralMap(
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
         (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)],
        n=6, name="octahedron")


@pytest.fixture(scope="session")
def k1_quad(k1):
    """Results and provenance of the exhaustive (3^5,4^2) chi=-8 search on
    K1: 482 classes."""
    maps, notes, stats = cylinder_search([k1], FaceSequence.from_string("3^5,4^2"), -8)
    assert stats.exhausted and len(maps) == 482
    return maps, notes
