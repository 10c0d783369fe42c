import numpy as np
import pytest

from sovxxz.config import generate_xi
from sovxxz.model import ModelParams, q_table
from sovxxz.sov import SovBasis, separate_state
from sovxxz.spectrum import solve_spectrum

SEED = 7
ETA = 0.6 + 0.35j
KAPPA = 1.0 + 0.0j
KAPPA2 = 1.3 + 0.2j
BOX = {"re_range": [-1.0, 1.0], "im_range": [-0.4, 0.4]}


def make_params(n: int, seed: int = SEED, kappa=KAPPA, eta=ETA) -> ModelParams:
    xi = generate_xi(n, eta, seed, BOX, 0.1)
    return ModelParams(n=n, eta=eta, xi=xi, kappa=kappa)


@pytest.fixture(scope="session")
def params2():
    return make_params(2)


@pytest.fixture(scope="session")
def params3():
    return make_params(3)


@pytest.fixture(scope="session")
def basis3(params3):
    return SovBasis(params3)


@pytest.fixture(scope="session")
def records2(params2):
    return solve_spectrum(SovBasis(params2))


@pytest.fixture(scope="session")
def records3(basis3):
    return solve_spectrum(basis3)


@pytest.fixture(scope="session")
def states3(params3, basis3, records3):
    """(bras at kappa, kets at kappa, kets at kappa2), all eps = +1."""
    bras = [separate_state(basis3, r.table, params3.kappa, 1, "bra")
            for r in records3]
    kets = [separate_state(basis3, r.table, params3.kappa, 1, "ket")
            for r in records3]
    kets2 = [separate_state(basis3, r.table, KAPPA2, 1, "ket")
             for r in records3]
    return bras, kets, kets2


def table(params: ModelParams, poly):
    """``model.q_table`` of a polynomial that carries no eigenvalue."""
    return q_table(params, [poly.roots], None, [])[0]


def rel_dev(a, b, scale: float = 0.0) -> float:
    return abs(a - b) / max(abs(a), abs(b), scale, 1e-30)


def rng(seed: int = SEED) -> np.random.Generator:
    return np.random.default_rng(seed)
