"""``sovxxz.rng.Uniform`` against numpy's ``default_rng``, bit for bit: the
package draws every seeded number through the twin, so each report depends on
this stream being numpy's."""

import math

import numpy as np
import pytest

from sovxxz.model import PI
from sovxxz.rng import Uniform

# 0-300, the fixed seeds of the draw sites, seeds of two, three and five
# 32-bit words (SeedSequence mixes words past its pool of four on its own
# path) and the benchmark's seeds 2 100 001-2 100 031
SEEDS = [*range(301), 515, 4242, 20240, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 5,
         *range(2_100_001, 2_100_032)]
# every (low, high) a draw site passes, the default xi box among them
BOUNDS = [(-1, 1), (-1.2, 1.2), (-1.4, 1.4), (-1.5, 1.5), (-0.45 * PI, 0.45 * PI),
          (-0.5, 0.5), (-1.0, 1.0), (-0.4, 0.4)]


def bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def test_scalar_draws_are_numpys():
    mismatched = []
    for seed in SEEDS:
        ours, numpys = Uniform(seed), np.random.default_rng(seed)
        for low, high in BOUNDS * 3:
            got, want = ours(low, high), numpys.uniform(low, high)
            if type(got) is not float or bits(got) != bits(want):
                mismatched.append((seed, low, high, got, want))
    assert not mismatched, mismatched[:5]


def test_residual_grid_batches_are_numpys():
    # model.residual_grid draws count (real, imag) pairs per batch, in
    # numpy's C order of a (count, 2) array with per-column bounds
    low, high = [-1.5, -0.45 * PI], [1.5, 0.45 * PI]
    for seed in SEEDS:
        ours, numpys = Uniform(seed), np.random.default_rng(seed)
        for _ in range(2):
            want = numpys.uniform(low, high, size=(29, 2))
            got = np.array([[ours(low[0], high[0]), ours(low[1], high[1])] for _ in range(29)])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), seed


def test_refuses_what_numpy_refuses():
    for low, high, error in ((1.0, 0.0, ValueError), (-1e308, 1e308, OverflowError),
                             (0.0, math.nan, OverflowError)):
        for draw in (Uniform(7), np.random.default_rng(7).uniform):
            with pytest.raises(error):
                draw(low, high)
    for make in (Uniform, np.random.default_rng):
        with pytest.raises(ValueError):
            make(-1)
    # an empty range is no refusal: it gives low
    assert Uniform(7)(0.25, 0.25) == np.random.default_rng(7).uniform(0.25, 0.25) == 0.25
