"""Tests for curves, parallel frames, and the geometric potentials."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bectube import geometry as geo


def frame_for(curve, n=1024):
    return geo.bishop_frame(geo.reparameterize_arclength(curve), n_nodes=n)


def bishop_frame_oracle(curve, n_nodes):
    """Reference parallel frame: RK4 on e1 and e2 separately, one vector at
    a time, then Gram-Schmidt against the exact tangent after every step.
    Returns (tau, e1, e2)."""
    x = np.linspace(curve.x_min, curve.x_max, n_nodes)
    h = x[1] - x[0]
    tau = curve.dc(x)
    ddc = curve.ddc(x)
    ddc_half = curve.ddc(0.5 * (x[:-1] + x[1:]))
    dc_half = curve.dc(0.5 * (x[:-1] + x[1:]))
    e1 = np.empty_like(tau)
    e2 = np.empty_like(tau)
    t0 = tau[0]
    trial = np.array([0.0, 1.0, 0.0])
    if abs(np.dot(trial, t0)) > 0.9:
        trial = np.array([0.0, 0.0, 1.0])
    v = trial - np.dot(trial, t0) * t0
    e1[0] = v / np.linalg.norm(v)
    e2[0] = np.cross(t0, e1[0])

    def rhs(cpp, cp, e):
        return -np.dot(cpp, e) * cp

    for i in range(n_nodes - 1):
        for e in (e1, e2):
            k1 = rhs(ddc[i], tau[i], e[i])
            k2 = rhs(ddc_half[i], dc_half[i], e[i] + 0.5 * h * k1)
            k3 = rhs(ddc_half[i], dc_half[i], e[i] + 0.5 * h * k2)
            k4 = rhs(ddc[i + 1], tau[i + 1], e[i] + h * k3)
            e[i + 1] = e[i] + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = tau[i + 1]
        u1 = e1[i + 1] - np.dot(e1[i + 1], t) * t
        u1 /= np.linalg.norm(u1)
        u2 = e2[i + 1] - np.dot(e2[i + 1], t) * t - np.dot(e2[i + 1], u1) * u1
        u2 /= np.linalg.norm(u2)
        e1[i + 1], e2[i + 1] = u1, u2
    return tau, e1, e2


class TestCurves:
    def test_line_is_arclength(self):
        c = geo.line()
        assert c.arclength
        assert np.allclose(c.speed(np.linspace(-5, 5, 11)), 1.0)

    def test_circle_speed(self):
        c = geo.circle(2.0)
        assert np.allclose(c.speed(np.linspace(0, 2 * np.pi, 17)), 2.0)

    def test_reparameterize_circle_length(self):
        c = geo.reparameterize_arclength(geo.circle(2.0))
        assert c.arclength
        assert np.isclose(c.x_max - c.x_min, 4.0 * np.pi)
        x = np.linspace(c.x_min, c.x_max, 33)
        assert np.allclose(c.speed(x), 1.0, atol=1e-9)

    def test_reparameterize_general_curve(self):
        c = geo.reparameterize_arclength(geo.bump_line())
        x = np.linspace(c.x_min, c.x_max, 257)
        assert np.allclose(c.speed(x), 1.0, atol=1e-6)

    def test_degenerate_curve_rejected(self):
        # helix of radius and pitch 0: speed vanishes identically
        with pytest.raises(geo.GeometryError, match="not regular"):
            geo.reparameterize_arclength(geo.helix(0.0, 0.0))


class TestBishopFrame:
    def test_requires_arclength(self):
        with pytest.raises(geo.GeometryError, match="arc-length"):
            geo.bishop_frame(geo.circle(1.0))

    def test_circle_curvature(self):
        fr = frame_for(geo.circle(2.0))
        assert np.max(np.abs(fr.kappa - 0.5)) < 1e-8

    def test_helix_curvature(self):
        # kappa = R / (R^2 + h^2) = 1/2 for R = h = 1
        fr = frame_for(geo.helix(1.0, 1.0))
        assert np.max(np.abs(fr.kappa - 0.5)) < 1e-6

    def test_orthonormality(self):
        for curve in (geo.circle(1.0), geo.helix(1.0, 0.5), geo.bump_line()):
            fr = frame_for(curve)
            assert fr.orthonormality_defect() < 1e-8

    @pytest.mark.parametrize("curve", [geo.helix(1.0, 1.0), geo.circle(2.0),
                                       geo.bump_line()],
                             ids=["helix", "circle", "bump_line"])
    def test_matches_two_vector_oracle(self, curve):
        # one propagator matrix per step for e1, and e2 = tau x e1, against
        # RK4 on both normals with Gram-Schmidt after every step
        curve = geo.reparameterize_arclength(curve)
        fr = geo.bishop_frame(curve, n_nodes=1024)
        tau, e1, e2 = bishop_frame_oracle(curve, 1024)
        assert np.array_equal(fr.tau, tau)
        assert np.max(np.abs(fr.e1 - e1)) < 1e-13
        assert np.max(np.abs(fr.e2 - e2)) < 1e-13
        assert np.array_equal(fr.e2, np.cross(fr.tau, fr.e1))

    def test_line_frame_trivial(self):
        fr = geo.bishop_frame(geo.line())
        assert np.max(fr.kappa) == 0.0
        assert fr.orthonormality_defect() < 1e-14

    def test_non_unit_tangent_refused(self):
        # marked arc-length but of speed 2: the frame is built against a
        # tangent of length 2 and cannot be orthonormal
        curve = replace(geo.circle(2.0), arclength=True)
        with pytest.raises(geo.GeometryError, match="orthonormality defect"):
            geo.bishop_frame(curve, n_nodes=64)

    def test_frame_continuity(self):
        # parallel transport: no jumps in the normal fields
        fr = frame_for(geo.helix(1.0, 1.0))
        assert np.max(np.linalg.norm(np.diff(fr.e1, axis=0), axis=-1)) < 0.05

    def test_to_csv(self, tmp_path):
        fr = frame_for(geo.circle(1.0), n=64)
        path = tmp_path / "frame.csv"
        fr.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.split(",")[0] == "x"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (64, 13)


class TestPotentials:
    def test_straight_guide_flat(self):
        fr = geo.bishop_frame(geo.line())
        v = geo.geometric_potential(fr, geo.no_twist(), 1.0)
        assert np.all(v == 0.0)

    def test_circle_bending_value(self):
        fr = frame_for(geo.circle(2.0))
        v = geo.geometric_potential(fr, geo.no_twist(), 0.0)
        assert np.allclose(v, -1.0 / 16.0, atol=1e-8)

    def test_twist_adds_repulsive_term(self):
        fr = geo.bishop_frame(geo.line())
        rate, lchi2 = 0.3, 0.145
        v = geo.geometric_potential(fr, geo.linear_twist(rate), lchi2)
        assert np.allclose(v, rate**2 * lchi2)

    def test_lchi2_must_be_nonnegative(self):
        fr = geo.bishop_frame(geo.line())
        with pytest.raises(geo.GeometryError):
            geo.geometric_potential(fr, geo.no_twist(), -1.0)


class TestMetricFactors:
    def test_rho_formula(self):
        fr = frame_for(geo.circle(2.0))
        x = fr.x[len(fr.x) // 2]
        r = np.array([x, 0.3, -0.1])
        eps = 0.2
        rho, s = geo.metric_factors(r, eps, fr, geo.no_twist())
        u = float(np.array([0.3, -0.1]) @ fr.kappa_vec_at(x))
        assert np.isclose(rho, 1.0 - eps * u)
        assert np.isclose(s, (rho**2 - 1.0) / (eps * rho**2))

    def test_s_small_eps_limit(self):
        fr = frame_for(geo.circle(2.0))
        x = fr.x[len(fr.x) // 2]
        r = np.array([x, 0.3, -0.1])
        u = float(np.array([0.3, -0.1]) @ fr.kappa_vec_at(x))
        _, s0 = geo.metric_factors(r, 0.0, fr, geo.no_twist())
        assert np.isclose(s0, -2.0 * u)
        _, s = geo.metric_factors(r, 1e-4, fr, geo.no_twist())
        assert abs(s - s0) < 1e-3

    def test_rho_positivity_guard(self):
        fr = frame_for(geo.circle(0.5))  # kappa = 2
        x = fr.x[len(fr.x) // 2]
        kv = fr.kappa_vec_at(x)
        y = 2.0 * kv / (kv @ kv)  # y . kappa = 2, so rho < 0 at eps = 1
        with pytest.raises(geo.GeometryError, match="rho"):
            geo.metric_factors(np.array([x, y[0], y[1]]), 1.0, fr,
                               geo.no_twist())

    def test_jacobian_matches_rho(self):
        fr = frame_for(geo.circle(2.0))
        x = fr.x[len(fr.x) // 2]
        r = np.array([x, 0.3, -0.1])
        eps = 0.1
        rho, _ = geo.metric_factors(r, eps, fr, geo.no_twist())
        det = geo.embed_jacobian_det(r, eps, fr, geo.no_twist())
        assert np.isclose(abs(det), eps**2 * rho, rtol=1e-4)

    def test_embed_maps_point_arrays(self):
        fr = frame_for(geo.helix(1.0, 1.0), n=256)
        twist = geo.linear_twist(0.5)
        rng = np.random.default_rng(0)
        r = rng.uniform(-0.5, 0.5, (4, 5, 3))
        r[..., 0] += fr.x[128]
        f = geo.embed(r, 0.1, fr, twist)
        assert f.shape == (4, 5, 3)
        for idx in np.ndindex(4, 5):
            x, y = r[idx][0], r[idx][1:]
            c, s = np.cos(0.5 * x), np.sin(0.5 * x)
            ty = 0.1 * np.array([c * y[0] - s * y[1], s * y[0] + c * y[1]])
            e1, e2 = fr.frame_at(x)
            expected = fr.curve.c(x) + ty[0] * e1 + ty[1] * e2
            assert np.allclose(f[idx], expected, rtol=0, atol=1e-14)

    def test_metric_factors_map_point_arrays(self):
        fr = frame_for(geo.helix(1.0, 1.0), n=256)
        twist = geo.linear_twist(0.5)
        rng = np.random.default_rng(1)
        r = rng.uniform(-0.5, 0.5, (4, 5, 3))
        r[..., 0] += fr.x[128]
        for eps in (0.0, 0.1, 0.3):
            rho, s = geo.metric_factors(r, eps, fr, twist)
            assert rho.shape == s.shape == (4, 5)
            for idx in np.ndindex(4, 5):
                assert np.allclose(geo.metric_factors(r[idx], eps, fr, twist),
                                   (rho[idx], s[idx]), rtol=1e-12, atol=0)

    def test_metric_factors_refuse_nonpositive_rho_in_array(self):
        fr = frame_for(geo.circle(0.5))  # kappa = 2
        x = fr.x[len(fr.x) // 2]
        kv = fr.kappa_vec_at(x)
        r = np.zeros((4, 5, 3))
        r[..., 0] = x
        r[2, 3, 1:] = 2.0 * kv / (kv @ kv)  # rho < 0 at eps = 1
        with pytest.raises(geo.GeometryError, match="rho"):
            geo.metric_factors(r, 1.0, fr, geo.no_twist())

    def test_embed_refuses_nonpositive_rho(self):
        fr = frame_for(geo.circle(0.5))  # kappa = 2
        x = fr.x[len(fr.x) // 2]
        kv = fr.kappa_vec_at(x)
        y = 2.0 * kv / (kv @ kv)  # y . kappa = 2, so rho < 0 at eps = 1
        r = np.array([[x, 0.0, 0.0], [x, y[0], y[1]]])
        with pytest.raises(geo.GeometryError, match="rho"):
            geo.embed(r, 1.0, fr, geo.no_twist())


class TestOverlapMargin:
    def test_line_feasible(self):
        c1, c2, feasible = geo.overlap_margin(geo.line())
        assert feasible
        assert c1 > 0.9  # straight line: distance equals parameter gap

    def test_helix_feasible(self):
        c = geo.reparameterize_arclength(geo.helix(1.0, 1.0))
        c1, c2, feasible = geo.overlap_margin(c)
        assert feasible
        assert 0 < c1 <= 1.0 and c2 > 0

    def test_closed_circle_seam_flagged(self):
        # a full closed loop revisits its start: far parameter values map to
        # the same point, so the linear lower bound is infeasible at the seam
        c = geo.reparameterize_arclength(geo.circle(2.0))
        _, _, feasible = geo.overlap_margin(c)
        assert not feasible


@given(rate=st.floats(-2.0, 2.0), i=st.integers(0, 255),
       y1=st.floats(-0.4, 0.4), y2=st.floats(-0.4, 0.4))
@settings(max_examples=40, deadline=None)
def test_twist_rotation_orthogonal(rate, i, y1, y2):
    # the twist is a rotation of the cross-section: at a frame node, where
    # e1 and e2 are orthonormal, the embedded point lies eps |y| from c(x)
    fr, eps = _CIRCLE_FRAME, 0.1
    x = fr.x[i]
    f = geo.embed(np.array([x, y1, y2]), eps, fr, geo.linear_twist(rate))
    assert np.isclose(np.linalg.norm(f - fr.curve.c(x)), eps * np.hypot(y1, y2),
                      rtol=1e-12, atol=1e-15)


@given(y1=st.floats(-0.4, 0.4), y2=st.floats(-0.4, 0.4),
       eps=st.floats(0.01, 0.3))
@settings(max_examples=25, deadline=None)
def test_metric_factor_positive_for_thin_tubes(y1, y2, eps):
    fr = _CIRCLE_FRAME
    x = fr.x[len(fr.x) // 2]
    rho, _ = geo.metric_factors(np.array([x, y1, y2]), eps, fr, geo.no_twist())
    assert rho > 0.5  # |y| < 1, kappa = 1/2, eps < 0.3 keeps rho away from 0


_CIRCLE_FRAME = frame_for(geo.circle(2.0), n=256)
