"""Tests for the effective 1D split-step solver and its conservation laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bectube import nls


class TestWave1D:
    def test_grid_properties(self):
        w = nls.plane_wave(8.0, 256, mode=0)
        assert w.G == 256
        assert np.isclose(w.dx, 16.0 / 256)
        assert np.isclose(w.x[0], -8.0)
        assert np.isclose(w.mass(), 1.0)

    def test_power_of_two_required(self):
        with pytest.raises(nls.NLSError):
            nls.Wave1D(8.0, np.zeros(100, dtype=complex))

    def test_gaussian_normalized(self):
        w = nls.gaussian(8.0, 512, sigma=0.8)
        assert np.isclose(w.mass(), 1.0)

    def test_boundary_mass_small_for_centered_packet(self):
        w = nls.gaussian(8.0, 256, sigma=1.0)
        assert w.boundary_mass() < 1e-8


class TestExactSolutions:
    def test_plane_wave_phase(self):
        # e^{i(kx - (k^2 + b/(2X)) t)} / sqrt(2X) solves the cubic equation
        X, b = 8.0, 0.5
        w0 = nls.plane_wave(X, 256, mode=2)
        traj = nls.evolve(w0, nls.free_potential(), b, dt=1e-3, T=1.0,
                          store_every=1000)
        wf = traj[-1]
        k = 2 * np.pi / X
        exact = np.exp(1j * (k * wf.x - (k**2 + b / (2 * X)))) / np.sqrt(2 * X)
        assert np.max(np.abs(wf.values - exact)) < 1e-6

    def test_free_gaussian_spreading(self):
        # width of a free Gaussian packet grows monotonically
        w0 = nls.gaussian(16.0, 512, sigma=1.0)
        traj = nls.evolve(w0, nls.free_potential(), 0.0, dt=1e-3, T=1.0,
                          store_every=100)
        sups = [np.max(np.abs(w.values)) for w in traj]
        assert all(a > b for a, b in zip(sups, sups[1:]))


class TestConservation:
    def test_mass(self):
        w0 = nls.gaussian(8.0, 256)
        traj = nls.evolve(w0, nls.free_potential(), 1.0, dt=1e-3, T=1.0,
                          store_every=200)
        assert max(abs(w.mass() - 1.0) for w in traj) < 1e-10

    def test_static_energy(self):
        grid = nls.Wave1D(8.0, np.zeros(256, complex)).x
        pot = nls.Potential1D(v_geom=0.1 * np.exp(-grid**2 / 8))
        w0 = nls.gaussian(8.0, 256, sigma=2.0)
        traj = nls.evolve(w0, pot, 0.5, dt=1e-3, T=1.0, store_every=200)
        e = [nls.energy(w, pot, 0.5) for w in traj]
        assert max(abs(v - e[0]) for v in e) / max(1.0, abs(e[0])) < 1e-8

    def test_energy_derivative_identity_second_order(self):
        # dE/dt = <Phi, dV/dt Phi>; defect shrinks ~4x when dt halves
        pot = nls.Potential1D(
            v=lambda t, x: np.sin(t) * np.exp(-x**2 / 4),
            vdot=lambda t, x: np.cos(t) * np.exp(-x**2 / 4))
        defects = []
        for dt in (1e-3, 5e-4):
            w0 = nls.gaussian(8.0, 256)
            traj = nls.evolve(w0, pot, 1.0, dt=dt, T=0.25, store_every=1)
            defects.append(nls.energy_drift_check(traj, pot, 1.0))
        assert defects[0] < 1e-5
        ratio = defects[0] / defects[1]
        assert 2.5 < ratio < 6.0

    def test_plane_wave_energy_value(self):
        X, b = 8.0, 0.7
        w = nls.plane_wave(X, 256, mode=3)
        k = 3 * np.pi / X
        expected = k**2 + b / (4 * X)
        assert np.isclose(nls.energy(w, nls.free_potential(), b), expected)


class TestEvolveInterface:
    def test_focusing_rejected(self):
        w0 = nls.gaussian(8.0, 256)
        with pytest.raises(nls.NLSError, match="focusing"):
            nls.evolve(w0, nls.free_potential(), -1.0, dt=1e-3, T=0.1,
                       store_every=1)

    def test_stability_margin(self):
        w0 = nls.gaussian(8.0, 256)
        with pytest.raises(nls.NLSError, match="stability"):
            nls.evolve(w0, nls.free_potential(), 0.0, dt=0.5, T=1.0,
                       store_every=1)

    def test_stability_checked_on_requested_dt(self):
        # dx^2/pi = 1.24e-3; the requested 1.3e-3 would be shortened to
        # 1.2e-3 to end at T, but the request itself is refused
        w0 = nls.gaussian(8.0, 256)
        with pytest.raises(nls.NLSError, match="stability"):
            nls.evolve(w0, nls.free_potential(), 0.0, dt=1.3e-3, T=2.4e-3,
                       store_every=1)

    def test_ends_at_requested_time(self):
        # T is not a multiple of dt: 101 steps of T/101 end at T, and the
        # plane wave matches its exact phase there
        X, b, T = 8.0, 0.5, 0.1005
        w0 = nls.plane_wave(X, 256, mode=2)
        traj = nls.evolve(w0, nls.free_potential(), b, dt=1e-3, T=T,
                          store_every=1)
        assert len(traj) == 102
        assert traj[-1].t == pytest.approx(T, abs=1e-15)
        k = 2 * np.pi / X
        exact = w0.values * np.exp(-1j * (k**2 + b / (2 * X)) * T)
        assert np.abs(traj[-1].values - exact).max() < 1e-10

    def test_nonpositive_time_rejected(self):
        # a negative dt passes the stability test; dt = 0 and store_every = 0
        # would divide by zero
        w0 = nls.gaussian(8.0, 256)
        for dt, T, store_every in [(1e-3, 0.0, 1), (-1e-3, 0.1, 1),
                                   (0.0, 0.1, 1), (1e-3, 0.1, 0)]:
            with pytest.raises(nls.NLSError, match="positive|dt > 0"):
                nls.evolve(w0, nls.free_potential(), 0.0, dt=dt, T=T,
                           store_every=store_every)

    def test_store_every(self):
        w0 = nls.gaussian(8.0, 256)
        traj = nls.evolve(w0, nls.free_potential(), 0.0, dt=1e-3, T=0.1,
                          store_every=20)
        assert len(traj) == 6  # initial frame + 100/20 stored steps
        assert np.isclose(traj[-1].t, 0.1)


class TestSobolev:
    def test_chain_for_gaussian(self):
        rep = nls.sobolev_check(nls.gaussian(8.0, 256, sigma=0.7))
        assert rep["chain_ok"] and rep["density_ok"]

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_chain_for_random_smooth_waves(self, seed):
        rng = np.random.default_rng(seed)
        G = 128
        k = np.fft.fftfreq(G, d=1.0 / G)
        spec = ((rng.standard_normal(G) + 1j * rng.standard_normal(G))
                / (1.0 + k**2))
        vals = np.fft.ifft(spec)
        w = nls.Wave1D(4.0, vals).normalized()
        rep = nls.sobolev_check(w)
        assert rep["chain_ok"] and rep["density_ok"]

    def test_report_fields(self):
        w = nls.gaussian(8.0, 256)
        rep = nls.report(w, nls.free_potential(), 0.5)
        assert rep.mass == pytest.approx(1.0)
        assert rep.h1 >= np.sqrt(rep.mass)
        assert rep.h2 >= rep.h1


class TestGroundState:
    def test_linear_matches_dense_oracle(self):
        grid = nls.Wave1D(8.0, np.zeros(256, complex)).x
        pot = nls.Potential1D(v_geom=0.5 * grid**2)
        a = nls.ground_state(pot, 0.0, 8.0, 256, tol=1e-10)
        b = nls.linear_ground_state(pot, 8.0, 256)
        assert np.max(np.abs(np.abs(a.values) - np.abs(b.values))) < 1e-8

    def test_nonlinear_converged_and_stationary(self):
        grid = nls.Wave1D(8.0, np.zeros(256, complex)).x
        pot = nls.Potential1D(v_geom=0.5 * grid**2)
        b = 2.0
        w = nls.ground_state(pot, b, 8.0, 256, tol=1e-9)
        assert np.isclose(w.mass(), 1.0)
        # evolving the minimizer only changes the global phase
        traj = nls.evolve(w, pot, b, dt=5e-4, T=0.2, store_every=1)
        dens0 = np.abs(w.values) ** 2
        densT = np.abs(traj[-1].values) ** 2
        assert np.max(np.abs(densT - dens0)) < 1e-6

    def test_repulsion_broadens_profile(self):
        grid = nls.Wave1D(8.0, np.zeros(256, complex)).x
        pot = nls.Potential1D(v_geom=0.5 * grid**2)
        sup0 = np.max(np.abs(nls.ground_state(pot, 0.0, 8.0, 256).values))
        sup5 = np.max(np.abs(nls.ground_state(pot, 5.0, 8.0, 256).values))
        assert sup5 < sup0

    def test_focusing_rejected(self):
        with pytest.raises(nls.NLSError):
            nls.ground_state(nls.free_potential(), -1.0, 8.0, 256)

    @pytest.mark.parametrize("b", [0.0, 5.0])
    def test_matches_dense_eigh(self, b):
        # on a rough potential the minimizer is the lowest eigenvector of
        # its own operator, assembled densely here
        X, G = 8.0, 256
        grid = nls.Wave1D(X, np.zeros(G, complex))
        x, k2 = grid.x, grid.k ** 2
        v = 5.0 * np.cos(3.0 * x) + 0.5 * x**2
        w = nls.ground_state(nls.Potential1D(v_geom=v), b, X, G)
        kin = np.fft.ifft(k2[:, None] * np.fft.fft(np.eye(G), axis=0),
                          axis=0).real
        d = v + b * np.abs(w.values) ** 2
        ref = np.linalg.eigh(0.5 * (kin + kin.T) + np.diag(d))[1][:, 0]
        u = w.values.real * np.sqrt(grid.dx)
        assert np.max(np.abs(u * np.sign(u @ ref) - ref)) < 1e-9

    def test_forms_no_dense_operator(self, monkeypatch):
        # a dense eigh of more than 3 rows would wake a BLAS thread
        sizes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            sizes.append(len(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        grid = nls.Wave1D(8.0, np.zeros(256, complex)).x
        nls.ground_state(nls.Potential1D(v_geom=0.5 * grid**2), 2.0, 8.0, 256)
        assert sizes and max(sizes) <= 3

    @pytest.mark.parametrize("X, G, v, b", [
        # strong repulsion in a trap
        (8.0, 256, lambda x: 0.5 * x**2, 20.0),
        # a double well whose two lowest levels nearly coincide
        (20.0, 1024, lambda x: 0.05 * (x**2 - 9) ** 2, 0.0),
    ], ids=["harmonic", "double_well"])
    def test_residual_below_tol(self, X, G, v, b):
        grid = nls.Wave1D(X, np.zeros(G, complex))
        pot = nls.Potential1D(v_geom=v(grid.x))
        w = nls.ground_state(pot, b, X, G, tol=1e-10)
        phi = w.values
        h_phi = (np.fft.ifft(grid.k**2 * np.fft.fft(phi))
                 + (pot.v_geom + b * np.abs(phi) ** 2) * phi)
        lam = w.dx * np.vdot(phi, h_phi).real
        assert w.mass() == pytest.approx(1.0, abs=1e-12)
        assert np.sqrt(w.dx * np.sum(np.abs(h_phi - lam * phi) ** 2)) < 1e-10
