import numpy as np
import pytest

from qsystems import grids
from qsystems.grids import GridSpec


def dense_spectral(grid, values):
    """Oracle: the hermitized F^H diag(values) F from the dense unitary DFT."""
    f = np.fft.fft(np.eye(grid.n_sites, dtype=np.complex128), axis=0, norm="ortho")
    op = f.conj().T @ (values[:, None] * f)
    return 0.5 * (op + op.conj().T)


# 9 is odd, and 8 and 64 carry the Nyquist entry in their fftfreq order.
@pytest.mark.parametrize("n_sites", [8, 9, 64])
def test_circulant_operators_match_dense_dft_oracle(n_sites):
    grid = GridSpec(n_sites, 16.0)
    k = 2.0 * np.pi * np.fft.fftfreq(n_sites, d=16.0 / n_sites)
    for fast, values in (
        (grids.momentum_operator(grid), k),
        (grids.kinetic_operator(grid, 1.5), k ** 2 / 3.0),
    ):
        oracle = dense_spectral(grid, values)
        assert np.max(np.abs(fast - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("n_sites", [8, 9, 64])
def test_kinetic_operator_is_real_and_exactly_symmetric(n_sites):
    t = grids.kinetic_operator(GridSpec(n_sites, 16.0), 1.5)
    assert t.dtype == np.float64
    assert np.array_equal(t, t.T)
    assert grids.momentum_operator(GridSpec(n_sites, 16.0)).dtype == np.complex128
