import functools

import numpy as np
import pytest

from sovxxz.config import generate_xi
from sovxxz.model import ModelParams, TrigInterpolation, q_table
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
    """``model.q_table`` of a polynomial that carries no eigenvalue, by its
    roots in ``canonical_roots`` form."""
    return q_table(params, [roots], None, [])


def poly(spectrum, i: int) -> np.ndarray:
    """The roots of the Q-function of record ``i`` of ``spectrum``."""
    return spectrum.table.roots[i]


def hat(spectrum, i: int) -> np.ndarray:
    """The roots of the i*pi-shifted partner of the Q-function of record ``i``."""
    return spectrum.table.hat[i]


def tau(params: ModelParams, spectrum, i: int) -> TrigInterpolation:
    """The eigenvalue tau(lam) of record ``i`` of ``spectrum``."""
    return TrigInterpolation(params.node_basis, spectrum.table.tau[i])


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
