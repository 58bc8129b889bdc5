"""Tests for the sector projectors, weight functions, and condensation
measures, on both the dense first-quantized and the Fock-space paths."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bectube import cli
from bectube import condensation as cd
from bectube import manybody as mb


class TestWeightFunctions:
    def test_n_endpoints(self):
        n = cd.weight_n(100)
        assert n.table[0] == 0.0 and n.table[100] == 1.0
        assert np.isclose(n.table[25], 0.5)

    def test_m_reference_values(self):
        # N = 100, xi = 0.25: threshold N^(1-2xi) = 10
        m = cd.weight_m(100, 0.25)
        assert np.isclose(m.table[25], 0.5)
        assert np.isclose(m.table[4], 0.22136, atol=5e-6)
        assert m.table[100] == 1.0

    def test_m_sandwich(self):
        for N in (50, 500):
            for xi in (0.1, 0.3, 0.45):
                m = cd.weight_m(N, xi)
                k = np.arange(N + 1)
                n = np.sqrt(k / N)
                assert np.all(m.table >= n - 1e-14)
                assert np.all(m.table <= np.maximum(n, N**-xi) + 1e-14)

    def test_m_xi_range(self):
        with pytest.raises(cd.CondensationError):
            cd.weight_m(100, 0.6)

    def test_shift_zero_padding(self):
        n = cd.weight_n(100)
        assert cd.weight_shift(n, 1).table[100] == 0.0
        assert np.isclose(cd.weight_shift(n, 1).table[24], n.table[25])
        assert cd.weight_shift(n, -1).table[0] == 0.0

    def test_out_of_range_is_zero(self):
        # a shift past either end reads only indices outside 0..N
        n = cd.weight_n(10)
        assert not cd.weight_shift(n, 11).table.any()
        assert not cd.weight_shift(n, -11).table.any()

    @pytest.mark.parametrize("N", [100, 1000, 10_000])
    @pytest.mark.parametrize("xi", [0.1, 0.2, 0.4])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_m_ell_bounds(self, N, xi, ell):
        _, rep = cd.weight_m_ell(N, xi, ell)
        assert rep["nonnegative"]
        assert rep["sqrt_branch_ok"]
        assert rep["linear_branch_ok"]
        assert rep["checked_from_k"] == ell

    def test_xi_cap(self):
        assert np.isclose(cd.xi_cap(0.25), 0.3)
        cd.validate_xi(0.2, 0.25)
        with pytest.raises(cd.CondensationError):
            cd.validate_xi(0.35, 0.25)
        with pytest.raises(cd.CondensationError):
            cd.xi_cap(0.5)


class TestReference:
    def test_zero_phi_rejected(self):
        with pytest.raises(cd.CondensationError):
            cd.condensate_ref(np.zeros(4))


class TestProjectors:
    def test_partition_of_identity(self):
        ref = cd.condensate_ref(np.array([1.0, 2.0, 0.5]))
        bundle = cd.pk_projectors(ref, 3)
        assert np.abs(sum(bundle.P) - np.eye(27)).max() < 1e-12

    def test_dense_cap(self):
        ref = cd.condensate_ref(np.ones(5))
        with pytest.raises(cd.CondensationError):
            cd.pk_projectors(ref, 6)   # 5^6 > 5000

    def test_condensate_sits_in_k0(self):
        rng = np.random.default_rng(1)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phi = phi / np.linalg.norm(phi)
        ref = cd.condensate_ref(phi)
        basis = mb.build_basis(3, 3)
        psi = mb.condensate_state(basis, phi)
        pk = cd.sector_weights(basis, ref, psi)
        assert np.isclose(pk[0], 1.0, atol=1e-12)
        assert np.all(pk[1:] < 1e-12)

    def test_sector_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        basis = mb.build_basis(4, 3)
        psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        psi = psi / np.linalg.norm(psi)
        ref = cd.condensate_ref(rng.standard_normal(4))
        pk = cd.sector_weights(basis, ref, psi)
        assert np.isclose(pk.sum(), 1.0, atol=1e-10)


class TestAlgebraSuites:
    @pytest.mark.parametrize("seed", range(5))
    def test_weight_algebra(self, seed):
        led = cd.weight_algebra_suite(N=3, d=4, seed=seed)
        slack = led.pop("qq_inequality_slack")
        assert slack >= -1e-12
        assert max(led.values()) < 1e-10

    def test_equivalence_suite(self):
        rep = cd.equivalence_suite()
        assert rep["identity_defect"] < 1e-10
        assert rep["co_monotone"]
        # depletion decreases along the shrinking perturbation family
        a = [r["alpha_n2"] for r in rep["rows"]]
        assert all(x > y for x, y in zip(a, a[1:]))

    def test_hat_dynamics_second_order(self):
        # verify's check: the defect of i d/dt f-hat = [H, f-hat] shrinks
        # about 4x when dt halves
        (check,) = [fn for m, n, fn in cli._verify_registry()
                    if (m, n) == ("condensation", "hat_dynamics")]
        ok, ratio = check()
        assert ok and 3.5 < ratio < 4.5

    def test_hat_dynamics_builds_each_frame_once(self, monkeypatch):
        # 50 steps of dt = 2e-3: one set of projectors for each of 51 frames
        calls = []
        build = cd.pk_projectors

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(cd, "pk_projectors", counting)
        rng = np.random.default_rng(5)
        h0 = rng.standard_normal((3, 3))
        h0 = 0.5 * (h0 + h0.T)
        phi0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        cd.hat_dynamics_check(lambda t: h0 * (1 + 0.5 * t),
                              cd.weight_n(2, power=2.0), 2, 3, phi0,
                              T=0.1, dt=2e-3)
        assert len(calls) == 51

    def test_hat_dynamics_honours_dt(self):
        # T / dt = 100.5: the steps are T / 101, not T / 100 > dt
        h0 = np.diag([1.0, 2.0, 3.0])
        times = []

        def h(t):
            times.append(t)
            return h0

        phi0 = np.ones(3, dtype=complex)
        cd.hat_dynamics_check(h, cd.weight_n(2, power=2.0), 2, 3, phi0,
                              T=0.1005, dt=1e-3)
        # RK4 samples every step at its start, middle and end
        steps = 2 * np.diff(np.unique(np.round(times, 15)))
        assert max(times) == pytest.approx(0.1005, abs=1e-15)
        assert steps.max() <= 1e-3


class TestMeasures:
    def test_perturbed_condensate_alpha(self):
        # a normalized one-excitation component of weight delta^2 sits in the
        # k = 1 sector, so alpha_n2 = delta^2 / N exactly
        N, d, delta = 3, 4, 0.3
        psi, phi = cd.perturbed_condensate(N, d, delta, seed=4)
        ref = cd.condensate_ref(phi)
        bundle = cd.pk_projectors(ref, N)
        a = cd.alpha_f_dense(psi, bundle, cd.weight_n(N, power=2.0))
        assert np.isclose(a, delta**2 / N, atol=1e-12)

    def test_alpha_n2_depletion_identity(self):
        # alpha_n2 = 1 - <phi, gamma_1 phi> on the Fock path
        rng = np.random.default_rng(6)
        basis = mb.build_basis(4, 3)
        psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        psi = psi / np.linalg.norm(psi)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi = phi / np.linalg.norm(phi)
        ref = cd.condensate_ref(phi)
        a = cd.alpha_n2(basis, ref, psi)
        g1 = mb.reduced_density(basis, psi, M=1)
        assert np.isclose(a, 1.0 - np.vdot(phi, g1 @ phi).real, atol=1e-10)

    def test_alpha_xi_value(self):
        assert cd.alpha_xi_value(0.1, 2.0, 1.5) == pytest.approx(0.6)

    def test_weight_length_checked(self):
        basis = mb.build_basis(3, 3)
        ref = cd.condensate_ref(np.ones(3))
        psi = np.zeros(basis.dim)
        psi[0] = 1.0
        with pytest.raises(cd.CondensationError):
            cd.alpha_f(basis, ref, psi, cd.weight_n(5))


class TestBridges:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_dense_fock_sector_weights(self, seed):
        N, d = 2, 3
        basis = mb.build_basis(d, N)
        psi_dense = cd.random_symmetric_state(N, d, seed=seed)
        rng = np.random.default_rng(seed + 1)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        ref = cd.condensate_ref(phi)
        bundle = cd.pk_projectors(ref, N)
        pk_dense = np.array([np.vdot(psi_dense, P @ psi_dense).real
                             for P in bundle.P])
        pk_fock = cd.sector_weights(basis, ref,
                                    cd.dense_to_fock(psi_dense, basis))
        assert np.abs(pk_dense - pk_fock).max() < 1e-12

    def test_dense_to_fock_preserves_norm(self):
        basis = mb.build_basis(3, 3)
        psi = cd.random_symmetric_state(3, 3, seed=9)
        amps = cd.dense_to_fock(psi, basis)
        assert np.isclose(np.linalg.norm(amps), 1.0, atol=1e-12)

    def test_reduced_density_dense_matches_fock(self):
        N, d = 3, 3
        basis = mb.build_basis(d, N)
        psi = cd.random_symmetric_state(N, d, seed=12)
        g_dense = cd.reduced_density_dense(psi, N, d, M=1)
        g_fock = mb.reduced_density(basis, cd.dense_to_fock(psi, basis), M=1)
        assert np.abs(g_dense - g_fock).max() < 1e-12

    def test_rotation_dimension_checked(self):
        basis = mb.build_basis(3, 2)
        ref = cd.condensate_ref(np.ones(4))
        with pytest.raises(cd.CondensationError):
            cd.sector_weights(basis, ref, np.zeros(basis.dim))


class TestBinomialMoments:
    """Sector weights from repeated lowering at the largest N in use
    (d = 16, N = 6, Fock dimension 54264)."""

    @pytest.fixture(scope="class")
    def basis(self):
        return mb.build_basis(16, 6)

    @staticmethod
    def _unit(rng, n):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return v / np.linalg.norm(v)

    def test_product_state_is_binomial(self, basis):
        # phi'^N has n_phi ~ Binomial(N, |<phi, phi'>|^2), so
        # pk[k] = C(N, k) q^k (1 - q)^(N - k) with q = 1 - |<phi, phi'>|^2
        rng = np.random.default_rng(7)
        phi = self._unit(rng, 16)
        phi2 = self._unit(rng, 16)
        for mix in (0.1, 0.5, 2.0):
            chi = phi + mix * phi2
            chi = chi / np.linalg.norm(chi)
            q = 1.0 - abs(np.vdot(phi, chi)) ** 2
            pk = cd.sector_weights(basis, cd.condensate_ref(phi),
                                   mb.condensate_state(basis, chi))
            exact = [comb(6, k) * q**k * (1 - q) ** (6 - k) for k in range(7)]
            assert np.abs(pk - exact).max() < 1e-13

    def test_weights_sum_to_norm(self, basis):
        rng = np.random.default_rng(8)
        psi = 0.7 * self._unit(rng, basis.dim)
        pk = cd.sector_weights(basis, cd.condensate_ref(self._unit(rng, 16)),
                               psi)
        assert abs(pk.sum() - np.vdot(psi, psi).real) < 1e-13
        assert np.all(pk > -1e-13)

    def test_alpha_n2_pickl_identity(self, basis):
        rng = np.random.default_rng(9)
        psi = self._unit(rng, basis.dim)
        phi = self._unit(rng, 16)
        a = cd.alpha_n2(basis, cd.condensate_ref(phi), psi)
        g1 = mb.reduced_density(basis, psi, M=1)
        assert abs(a - (1.0 - np.vdot(phi, g1 @ phi).real)) < 1e-13

    def test_cancellation_refused(self):
        # the condensate itself at N = 40: sum_j C(j, n) M_j reaches
        # C(40, n) 2^(40 - n), far past what double precision can cancel
        basis = mb.build_basis(2, 40)
        phi = np.array([0.6, 0.8])
        psi = mb.condensate_state(basis, phi)
        with pytest.raises(cd.CondensationError, match="cancellation"):
            cd.sector_weights(basis, cd.condensate_ref(phi), psi)
