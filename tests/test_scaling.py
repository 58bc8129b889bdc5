"""Tests for scaling bookkeeping, the pair potential, and the 1D reduction."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator, interp1d
from scipy.signal import fftconvolve

from bectube import geometry as geo
from bectube import scaling as sc
from bectube import transverse as tv


def seq(alpha, beta=0.25, n_lo=4, n_hi=64, count=8):
    n = np.unique(np.geomspace(n_lo, n_hi, count).astype(int))
    return [sc.scaling_params(int(k), float(k) ** -alpha, beta) for k in n]


class TestScalingPoint:
    def test_derived_quantities(self):
        p = sc.scaling_params(100, 0.3, 0.25)
        assert np.isclose(p.a, 0.09 / 100)
        assert np.isclose(p.mu, p.a**0.25)
        assert np.isclose(p.mu ** (1 / p.beta), p.a)

    @pytest.mark.parametrize("N,eps,beta", [
        (0, 0.5, 0.25), (10, 0.0, 0.25), (10, 1.5, 0.25),
        (10, 0.5, 0.0), (10, 0.5, 1.0 / 3.0),
    ])
    def test_validation(self, N, eps, beta):
        with pytest.raises(sc.ScalingError):
            sc.scaling_params(N, eps, beta)


class TestClassifier:
    def test_moderate_example(self):
        cl = sc.classify_sequence(seq(0.4))
        assert cl.admissible and cl.moderate and not cl.strong

    def test_strong_example(self):
        cl = sc.classify_sequence(seq(1.0))
        assert cl.admissible and cl.strong and not cl.moderate

    def test_constant_eps_rejected(self):
        n = np.unique(np.geomspace(4, 64, 8).astype(int))
        pts = [sc.ScalingPoint(int(k), 0.5 - 1e-9 * k, 0.25) for k in n]
        cl = sc.classify_sequence(pts)
        assert cl.neither

    def test_short_sequence_rejected(self):
        with pytest.raises(sc.ScalingError):
            sc.classify_sequence(seq(0.4)[:3])

    def test_nonmonotone_rejected(self):
        pts = seq(0.4)
        with pytest.raises(sc.ScalingError):
            sc.classify_sequence(pts[::-1])

    @given(alpha=st.one_of(st.floats(0.36, 0.47), st.floats(0.55, 1.2),
                           st.floats(0.05, 0.22)))
    @settings(max_examples=30, deadline=None)
    def test_regime_boundaries(self, alpha):
        # beta = 1/4: admissible iff alpha > 0.3, moderate iff alpha < 0.5
        cl = sc.classify_sequence(seq(alpha, n_hi=256, count=10))
        if alpha < 0.25:
            assert not cl.admissible
        elif alpha < 0.5:
            assert cl.moderate
        else:
            assert cl.strong


class TestPairPotential:
    def test_bump_closed_forms(self):
        w = sc.bump_potential()
        mass = 4 * np.pi * quad(lambda r: r**2 * w.at_r2(r * r), 0, 1)[0]
        mom1 = 4 * np.pi * quad(lambda r: r**3 * w.at_r2(r * r), 0, 1)[0]
        assert np.isclose(mass, w.mass, rtol=1e-10)
        assert np.isclose(mom1, w.first_moment, rtol=1e-10)
        assert np.isclose(w.mass, 64 * np.pi / 315)
        assert np.isclose(w.first_moment, np.pi / 10)

    def test_compact_support(self):
        w = sc.bump_potential()
        # |r|^2 = 1, 1.28, 4: on and outside the unit sphere
        assert np.all(w.at_r2(np.array([1.0, 1.28, 4.0])) == 0.0)
        assert w.at_r2(0.0) == 1.0

    def test_scaled(self):
        w = sc.bump_potential().scaled(3.0)
        assert np.isclose(w.mass, 3 * 64 * np.pi / 315)
        assert w.at_r2(0.0) == 3.0


@pytest.fixture(scope="module")
def line_frame():
    return geo.bishop_frame(geo.line(), n_nodes=256)


@pytest.fixture(scope="module")
def circle_frame():
    return geo.bishop_frame(
        geo.reparameterize_arclength(geo.circle(2.0)), n_nodes=512)


@pytest.fixture(scope="module")
def modes():
    return tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=63), m=1)


class TestTaylorDecomposition:

    def test_straight_guide_remainder_vanishes(self, line_frame):
        p = sc.scaling_params(10, 0.1, 0.25)
        td = sc.taylor_decompose(p, line_frame, geo.no_twist())
        assert td.rbar == 0.0 and td.rbar_samples > 0
        # the embedding of the straight guide is the scaling r -> r_eps, so
        # the remainder vanishes on every pair, on the interaction support
        # and off it
        rng = np.random.default_rng(0)
        r1 = np.column_stack([rng.uniform(-4.0, 4.0, 50),
                              rng.uniform(-0.5, 0.5, (50, 2))])
        r2 = r1 + rng.uniform(-0.5, 0.5, (50, 3)) * [p.mu, p.mu / p.eps,
                                                     p.mu / p.eps]
        R, df = sc._remainder(r1, r2, p.eps, p.mu, line_frame, geo.no_twist())
        assert np.any(np.linalg.norm(df, axis=-1) < p.mu)
        assert np.all(R == 0.0)

    def test_curved_guide_decomposition(self, circle_frame):
        p = sc.scaling_params(10, 0.1, 0.25)
        td = sc.taylor_decompose(p, circle_frame, geo.no_twist())
        assert td.rbar > 0.0 and td.rbar_samples > 0

    def test_accepts_plain_namespace(self, circle_frame):
        p = sc.scaling_params(10, 0.1, 0.25)
        td = sc.taylor_decompose(types.SimpleNamespace(eps=p.eps, mu=p.mu),
                                 circle_frame, geo.no_twist())
        assert td == sc.taylor_decompose(p, circle_frame, geo.no_twist())
        assert td.rbar > 0.0


class TestFullConvolve:
    @pytest.mark.parametrize("s1, s2", [((7, 7), (7, 7)), ((8, 8), (8, 8)),
                                        ((5, 9), (5, 9)), ((63, 63), (63, 63)),
                                        ((127, 127), (127, 127)),
                                        ((127, 63), (127, 63))])
    def test_bitwise_equal_to_fftconvolve(self, s1, s2):
        # every pair, with the reversed view pair_kernel passes for a
        # correlation
        rng = np.random.default_rng(sum(s1) + sum(s2))
        prods, h = [rng.standard_normal(s1), rng.standard_normal(s2)], 0.1
        pairs = list(sc._lag_correlations(prods, h))
        assert sorted((p, q) for p, q, _ in pairs) == [(0, 0), (0, 1),
                                                       (1, 0), (1, 1)]
        for p, q, corr in pairs:
            assert np.array_equal(
                corr, fftconvolve(prods[p], prods[q][::-1, ::-1]) * h**2)

    def test_padded_length_is_scipys_real_fast_length(self):
        assert all(sc._next_5_smooth(n) == next_fast_len(n, True)
                   for n in range(1, 1200))

    @pytest.mark.parametrize("a, b, n", [(np.pi, np.pi, 127),
                                         (2 * np.pi, np.pi, 63)])
    def test_pair_kernel_transforms_each_product_once(self, a, b, n,
                                                      monkeypatch):
        # the default config's square and a rectangle, both at m = 2: three
        # products chi_a chi_d, so 2 * 3 + 3^2 = 15 transforms, not 27, and
        # K bit for bit as from one fftconvolve per pair
        modes = tv.dirichlet_modes(tv.rectangle(a, b, n=n), m=2)
        spt = sc.scaling_params(4, 0.25, 0.25)
        args = (modes.chi, modes.cs.h, sc.bump_potential(), spt.eps, spt.mu,
                0.5 * np.arange(-2, 3))
        calls = []

        def counted(fft):
            def call(*a, **k):
                calls.append(fft)
                return fft(*a, **k)
            return call

        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        K = sc.pair_kernel(*args)
        assert len(calls) == 15

        def per_pair(prods, h):
            for p, A in enumerate(prods):
                for q, B in enumerate(prods):
                    yield p, q, fftconvolve(A, B[::-1, ::-1]) * h**2

        monkeypatch.setattr(sc, "_lag_correlations", per_pair)
        assert np.array_equal(sc.pair_kernel(*args), K)


class TestLagLookup:
    @pytest.mark.parametrize("a, b", [(np.pi, np.pi), (2 * np.pi, np.pi)])
    def test_bilinear_matches_regular_grid_interpolator(self, a, b):
        modes = tv.dirichlet_modes(tv.rectangle(a, b, n=63), m=2)
        chi, h = modes.chi, modes.cs.h
        lag1, lag2 = (h * np.arange(-(n - 1), n) for n in chi.shape[1:])
        A, B = chi[0] * chi[1], chi[1] ** 2
        corr = fftconvolve(A, B[::-1, ::-1]) * h**2
        # pair_kernel's 17 points over the first axis's whole lag range, the
        # ends of both ranges exactly, and points just beyond them
        end1, end2 = lag1[-1], lag2[-1]
        y = np.concatenate([np.linspace(-end1, end1, 17),
                            [-end2, end2, 0.3 * h, np.nextafter(end2, 1.0),
                             np.nextafter(end1, 2.0 * end1), -1.5 * end1]])
        Y1, Y2 = np.meshgrid(y, y, indexing="ij")
        ref = RegularGridInterpolator((lag1, lag2), corr, bounds_error=False,
                                      fill_value=0.0)(np.stack([Y1, Y2], -1))
        got = sc._bilinear(corr, lag1, lag2, y)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
        outside = (np.abs(Y1) > end1) | (np.abs(Y2) > end2)
        assert np.all(got[outside] == 0.0)
        if len(lag2) < len(lag1):
            # lags beyond the shorter axis lie inside pair_kernel's range
            assert np.any((np.abs(Y2) > end2) & (np.abs(Y1) <= end1))

    def test_radial_table_matches_interp1d(self):
        w = sc.bump_potential()
        k = np.linspace(0.0, 60.0, 4096)
        table = sc._radial_ft_table(w, k_max=60.0)
        ref = interp1d(k, table(k), bounds_error=False, fill_value=0.0)
        q = np.array([0.0, 1e-3, 17.25, 60.0 - 1e-9, 60.0,
                      np.nextafter(60.0, 61.0), 75.0])
        assert np.max(np.abs(table(q) - ref(q))) <= 1e-15 * abs(table(0.0))
        assert table(0.0) == ref(0.0)
        assert np.all(table(q[-2:]) == 0.0)


class TestEffectiveKernel:
    def test_even_and_positive(self, modes):
        x, vals, mass = sc.effective_kernel(modes, sc.bump_potential(),
                                            eps=0.5, mu=0.1)
        assert np.allclose(vals, vals[::-1], rtol=1e-10)
        assert np.all(vals >= 0) and mass > 0

    def test_mass_approaches_coupling(self, modes):
        w = sc.bump_potential()
        b = sc.b_coefficient(modes, w, "moderate")
        _, _, mass = sc.effective_kernel(modes, w, eps=0.5, mu=0.025)
        assert abs(mass - b) / b < 0.05


class TestCoupling:
    def test_b_values(self):
        modes = tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=63), m=1)
        w = sc.bump_potential()
        assert sc.b_coefficient(modes, w, "strong") == 0.0
        assert np.isclose(sc.b_coefficient(modes, w, "moderate"),
                          modes.q4 * w.mass)
        with pytest.raises(sc.ScalingError):
            sc.b_coefficient(modes, w, "weak")

    def test_unit_mass_rectangle_value(self):
        # unit-mass interaction: b reduces to the quartic integral 9/(4 pi^2)
        modes = tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=127), m=1)
        w = sc.bump_potential()
        b = sc.b_coefficient(modes, w.scaled(1.0 / w.mass), "moderate")
        assert abs(b - 9.0 / (4 * np.pi**2)) < 1e-3


class TestConvolutionDefect:
    @pytest.mark.parametrize("wt", [sc.bump_potential().wt,
                                    lambda s: np.exp(-3.0 * s)])
    def test_radial_table_matches_quadrature(self, wt):
        w = sc.PairPotential(wt=wt, mass=0.0, first_moment=0.0)
        table = sc._radial_ft_table(w, k_max=60.0)
        for k in np.linspace(0.0, 60.0, 4096)[::455]:
            ref = 4 * np.pi * quad(
                lambda r: r**2 * w.at_r2(r * r) * np.sinc(k * r / np.pi), 0, 1,
                epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            assert abs(float(table(k)) - ref) < 1e-12

    def test_spectral_vs_direct(self):
        w = sc.bump_potential()
        spec = sc.convolution_defect(w, eps=0.8, mu=0.5)
        direct = sc.convolution_defect_direct(w, eps=0.8, mu=0.5)
        assert abs(spec - direct) / direct < 0.3

    def test_decreases_with_scale_separation(self):
        w = sc.bump_potential()
        d1 = sc.convolution_defect(w, eps=0.5, mu=0.2)
        d2 = sc.convolution_defect(w, eps=0.5, mu=0.1)
        d3 = sc.convolution_defect(w, eps=0.5, mu=0.05)
        assert d1 > d2 > d3

    def test_unresolved_grid_rejected(self):
        with pytest.raises(sc.ScalingError):
            sc.convolution_defect(sc.bump_potential(), eps=0.9, mu=1e-5)
