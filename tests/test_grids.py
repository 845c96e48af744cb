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


def gathered_spectral_operator(column):
    """Oracle: the index-gather circulant that the strided view replaced,
    hermitized into fresh arrays."""
    n = column.size
    sites = np.arange(n)
    op = column[(sites[:, None] - sites[None, :]) % n]
    return 0.5 * (op + op.conj().T)


@pytest.mark.parametrize("n_sites", [8, 9, 17, 44, 64, 255, 256, 1024])
def test_circulant_view_equals_the_index_gather_bit_for_bit(n_sites):
    column = np.random.default_rng(n_sites).standard_normal(n_sites)
    sites = np.arange(n_sites)
    view = grids.circulant(column)
    assert not view.flags.writeable
    assert np.array_equal(view, column[(sites[:, None] - sites[None, :]) % n_sites])
    for length, mass in ((16.0, 1.5), (20.175156469359752, 0.7)):
        grid = GridSpec(n_sites, length)
        k = grids.momentum_values(grid)
        for fast, oracle in (
            (grids.momentum_operator(grid), gathered_spectral_operator(np.fft.ifft(k))),
            (grids.kinetic_operator(grid, mass), gathered_spectral_operator(np.fft.ifft(k ** 2 / (2.0 * mass)).real)),
        ):
            assert fast.dtype == oracle.dtype and fast.flags.c_contiguous
            assert np.array_equal(fast, oracle)


def test_every_2d_transform_returns_the_buffer_it_was_given(monkeypatch):
    # np.fft takes out= from numpy 2.0 on.  numpy's ifft2 drops it (2.4.6
    # does), so every inverse is ifftn over the last two axes.
    from qsystems import dynamics, epr_bell

    calls = []

    def recorded(name, transform):
        def call(a, *args, out=None, **kwargs):
            result = transform(a, *args, out=out, **kwargs)
            calls.append((name, out is not None and np.shares_memory(result, out)))
            return result
        return call

    for name in ("fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, recorded(name, getattr(np.fft, name)))
    cfg = epr_bell.EPRConfig(64, 16.0, 1.0, 3, 0.5)
    psi = epr_bell.build_epr_state(cfg)
    epr_bell.commuting_pair_check(psi, cfg)
    epr_bell.momentum_moments(psi, cfg)
    dynamics.momentum_conservation_residual(GridSpec(64, 16.0), (1.0, 1.5), dynamics.PotentialSpec(2.0, 1.5, 0.8, 0.5))
    names = [name for name, _ in calls]
    states = dynamics._MOMENTUM_STATES
    assert names.count("fft2") == 3 + states and names.count("ifftn") == 2 + states
    assert len(names) == 5 + 2 * states
    assert all(returned_its_buffer for _, returned_its_buffer in calls)
