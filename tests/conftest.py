import functools

import numpy as np
import pytest

from sovxxz.config import generate_xi
from sovxxz.model import ModelParams, q_table
from sovxxz.observables import PairContext
from sovxxz.sov import SovBasis, separate_state
from sovxxz.spectrum import Spectrum, solve_spectrum

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
    """The certified ``spectrum.Spectrum`` of the N = 2 chain."""
    return solve_spectrum(SovBasis(params2))


@pytest.fixture(scope="session")
def records3(basis3):
    """The certified ``spectrum.Spectrum`` of the N = 3 chain."""
    return solve_spectrum(basis3)


@pytest.fixture(scope="session")
def states3(params3, basis3, records3):
    """(bras at kappa, kets at kappa, kets at kappa2), each one ``SovState``
    whose row i is record i's state."""
    t = records3.table
    return (separate_state(basis3, t, params3.kappa, "bra"),
            separate_state(basis3, t, params3.kappa, "ket"),
            separate_state(basis3, t, KAPPA2, "ket"))


@functools.cache
def certified_chain(n: int, kappa: complex) -> tuple[SovBasis, Spectrum]:
    """(basis, certified spectrum) of the default chain of ``n`` sites at
    twist ``kappa``, built once per test run."""
    basis = SovBasis(make_params(n, kappa=kappa))
    return basis, solve_spectrum(basis)


def table(params: ModelParams, roots):
    """The one-record ``model.q_table`` of a polynomial that carries no
    eigenvalue, by its roots in ``canonical_roots`` form: the table's first
    record, without its i*pi-shifted partner."""
    return q_table(params, [roots], None, []).take([0])


def poly(spectrum, i: int) -> np.ndarray:
    """The roots of the Q-function of record ``i`` of ``spectrum``."""
    return spectrum.table.roots[i]


def hat(spectrum, i: int) -> np.ndarray:
    """The roots of the i*pi-shifted partner of the Q-function of record
    ``i``: those of its partner record, 2^N-1-i."""
    return spectrum.table.roots[-1 - i]


def tau(params: ModelParams, spectrum, i: int):
    """The eigenvalue tau(lam) of record ``i`` of ``spectrum``, elementwise on
    arrays: its node values through the weights of ``params.node_basis``."""
    return lambda lam: params.node_basis.weights(lam) @ spectrum.table.tau[i]


def matrix_element(bra, op: np.ndarray, ket) -> np.ndarray:
    """Bilinear <bra_i| op |ket_j> of every bra state i with every ket state j."""
    return bra.embedded @ (op @ ket.embedded.T)


def pair_context(params: ModelParams, spectrum, ps, qs, z=None):
    """The ``PairContext`` of the P records ``ps`` and Q records ``qs`` (lists
    of indices) of ``spectrum``."""
    return PairContext(params, spectrum.table.take(ps), spectrum.table.take(qs), z=z)


def norm_scales(bras, kets) -> np.ndarray:
    """||bra_i|| ||ket_j|| of every pair of the states ``bras`` and ``kets``,
    the scale the ``observables`` command measures deviations against."""
    return np.outer(np.linalg.norm(bras.embedded, axis=1), np.linalg.norm(kets.embedded, axis=1))


def rel_dev(a, b, scale: float = 0.0) -> float:
    return abs(a - b) / max(abs(a), abs(b), scale, 1e-30)


def rng(seed: int = SEED) -> np.random.Generator:
    return np.random.default_rng(seed)


def move_one_eigenvalue(monkeypatch, dim: int, by: float = 1e-6) -> list:
    """Make ``np.linalg.eigvals`` of a (dim, dim) matrix return its first
    eigenvalue moved by ``by`` times the spectral radius; returns the list
    that gets, for each such call, the index the moved value takes once the
    values are sorted by (real, imag)."""
    eigvals = np.linalg.eigvals
    moved = []

    def shifted(a):
        vals = eigvals(a)
        if np.shape(a) == (dim, dim):
            vals[0] += by * np.max(np.abs(vals))
            moved.append(int(np.flatnonzero(np.lexsort((vals.imag, vals.real)) == 0)[0]))
        return vals

    monkeypatch.setattr(np.linalg, "eigvals", shifted)
    return moved
