import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gluecat.algebra import Quiver, path_algebra
from gluecat.field import PrimeField

from oracles import DenseLaws


@pytest.fixture(scope="session")
def gf():
    return PrimeField(32003)


@pytest.fixture(scope="session")
def q_a2():
    # vertices 1 -> 2
    return Quiver(2, ((0, 1),))


@pytest.fixture(scope="session")
def q_a3():
    # 1 -> 2 -> 3
    return Quiver(3, ((0, 1), (1, 2)))


@pytest.fixture(scope="session")
def q_kron():
    # two parallel arrows 1 -> 2
    return Quiver(2, ((0, 1), (0, 1)))


@pytest.fixture(scope="session")
def alg_a2(gf, q_a2):
    return path_algebra(q_a2, gf)


@pytest.fixture(scope="session")
def alg_a3(gf, q_a3):
    return path_algebra(q_a3, gf)


@pytest.fixture(scope="session")
def alg_kron(gf, q_kron):
    return path_algebra(q_kron, gf)


@pytest.fixture
def dense_laws(monkeypatch):
    """Records every algebra, module and bimodule the test builds, and
    after it checks each distinct one against the dense oracles; the
    library builds the outputs of its proved constructions unchecked.
    A failure names every object that breaks a law."""
    laws = DenseLaws().install(monkeypatch)
    yield laws
    bad = laws.violations()
    assert not bad, "objects that break a law:\n" + "\n".join(bad)
