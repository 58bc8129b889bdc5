"""Waveguide geometry: arc-length curves, parallel frames, embedding maps and
the curvature-induced potentials.

A waveguide is built from three ingredients: a unit-speed space curve, an
orthonormal frame transported along it without tangential rotation, and a
twist angle that rotates the cross-section relative to that frame.  This
module computes the scalar fields derived from the geometry that the
effective 1D dynamics needs: the curvature components, the metric factor
rho, the auxiliary factor s and the combined geometric potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class CurveSpec:
    """A parametrized space curve with exact first and second derivatives.

    Evaluators accept scalar or array arguments and return arrays of shape
    (..., 3).  ``arclength`` marks curves known to be unit speed.
    """

    kind: str
    x_min: float
    x_max: float
    c: Callable[[np.ndarray], np.ndarray]
    dc: Callable[[np.ndarray], np.ndarray]
    ddc: Callable[[np.ndarray], np.ndarray]
    arclength: bool = False

    def speed(self, x):
        return np.linalg.norm(self.dc(x), axis=-1)


def _vec(fx, fy, fz):
    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.stack([fx(x), fy(x), fz(x)], axis=-1)

    return ev


def line() -> CurveSpec:
    """Straight line (t, 0, 0) on [-10, 10]; already unit speed."""
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return CurveSpec(
        "line", -10.0, 10.0,
        c=_vec(lambda x: x, z, z),
        dc=_vec(lambda x: np.ones_like(np.asarray(x, dtype=float)), z, z),
        ddc=_vec(z, z, z),
        arclength=True,
    )


def circle(radius: float) -> CurveSpec:
    """Circle of given radius in the z=0 plane, angle parametrization on
    [0, 2 pi]."""
    R = float(radius)
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return CurveSpec(
        "circle", 0.0, 2.0 * np.pi,
        c=_vec(lambda t: R * np.cos(t), lambda t: R * np.sin(t), z),
        dc=_vec(lambda t: -R * np.sin(t), lambda t: R * np.cos(t), z),
        ddc=_vec(lambda t: -R * np.cos(t), lambda t: -R * np.sin(t), z),
    )


def helix(radius: float, pitch: float) -> CurveSpec:
    """Helix (R cos t, R sin t, h t) on [0, 4 pi]; constant speed
    sqrt(R^2 + h^2)."""
    R, h = float(radius), float(pitch)
    return CurveSpec(
        "helix", 0.0, 4.0 * np.pi,
        c=_vec(lambda t: R * np.cos(t), lambda t: R * np.sin(t), lambda t: h * t),
        dc=_vec(lambda t: -R * np.sin(t), lambda t: R * np.cos(t),
                lambda t: h * np.ones_like(np.asarray(t, dtype=float))),
        ddc=_vec(lambda t: -R * np.cos(t), lambda t: -R * np.sin(t),
                 lambda t: np.zeros_like(np.asarray(t, dtype=float))),
    )


def bump_line(amplitude=0.2) -> CurveSpec:
    """Straight line on [-8, 8] with a localized Gaussian bump of unit width
    in the y-direction."""
    A = float(amplitude)
    g = lambda t: A * np.exp(-t**2)
    dg = lambda t: -2.0 * t * g(t)
    ddg = lambda t: (-2.0 + 4.0 * t**2) * g(t)
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return CurveSpec(
        "bump_line", -8.0, 8.0,
        c=_vec(lambda t: t, g, z),
        dc=_vec(lambda t: np.ones_like(np.asarray(t, dtype=float)), dg, z),
        ddc=_vec(z, ddg, z),
    )


def reparameterize_arclength(curve: CurveSpec) -> CurveSpec:
    """Return the same curve parametrized by arc length.

    Constant-speed curves (speed constant to 1e-9 on 2048 samples) are
    rescaled exactly; otherwise the arc-length function is inverted
    numerically on a grid of 16 * 2048 points.  Raises GeometryError if the
    curve is not regular (speed below 1e-9).
    """
    tol, n_check = 1e-9, 2048
    tt = np.linspace(curve.x_min, curve.x_max, n_check)
    v = curve.speed(tt)
    if np.min(v) < tol:
        i = int(np.argmin(v))
        raise GeometryError(
            f"curve not regular: speed {v[i]:.3e} at parameter {tt[i]:.6g}")
    vbar = float(np.mean(v))
    if np.max(np.abs(v - vbar)) <= tol * max(1.0, vbar):
        if abs(vbar - 1.0) <= tol:
            return curve if curve.arclength else CurveSpec(
                curve.kind, curve.x_min, curve.x_max,
                curve.c, curve.dc, curve.ddc, arclength=True)
        # exact rescale t = x / v
        c0, dc0, ddc0 = curve.c, curve.dc, curve.ddc
        return CurveSpec(
            curve.kind, curve.x_min * vbar, curve.x_max * vbar,
            c=lambda x: c0(np.asarray(x) / vbar),
            dc=lambda x: dc0(np.asarray(x) / vbar) / vbar,
            ddc=lambda x: ddc0(np.asarray(x) / vbar) / vbar**2,
            arclength=True,
        )
    # general case: invert s(t) numerically.  scipy.interpolate is imported
    # here and in FrameField._spline only: it loads scipy.optimize,
    # scipy.special and scipy.spatial too, 0.2-0.36 s on a 2-vCPU host
    from scipy.interpolate import CubicSpline

    tfine = np.linspace(curve.x_min, curve.x_max, 16 * n_check)
    vfine = curve.speed(tfine)
    s = np.concatenate([[0.0], np.cumsum(
        0.5 * (vfine[1:] + vfine[:-1]) * np.diff(tfine))])
    t_of_s = CubicSpline(s, tfine)

    c0, dc0, ddc0 = curve.c, curve.dc, curve.ddc

    def c_new(x):
        return c0(t_of_s(np.asarray(x, dtype=float)))

    def dc_new(x):
        t = t_of_s(np.asarray(x, dtype=float))
        v = np.linalg.norm(dc0(t), axis=-1)
        return dc0(t) / v[..., None]

    def ddc_new(x):
        # chain rule with t'(s) = 1/v and t''(s) = -<c',c''>/v^4
        t = t_of_s(np.asarray(x, dtype=float))
        d1, d2 = dc0(t), ddc0(t)
        v = np.linalg.norm(d1, axis=-1)
        dv = np.einsum("...i,...i->...", d1, d2) / v
        return d2 / v[..., None] ** 2 - d1 * (dv / v**3)[..., None]

    return CurveSpec(curve.kind, 0.0, float(s[-1]), c_new, dc_new, ddc_new,
                     arclength=True)


# ---------------------------------------------------------------------------
# twist


@dataclass(frozen=True)
class TwistSpec:
    """Twist angle of the cross-section relative to the parallel frame."""

    theta: Callable[[np.ndarray], np.ndarray]
    dtheta: Callable[[np.ndarray], np.ndarray]


def no_twist() -> TwistSpec:
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return TwistSpec(theta=z, dtheta=z)


def linear_twist(rate: float) -> TwistSpec:
    r = float(rate)
    return TwistSpec(
        theta=lambda x: r * np.asarray(x, dtype=float),
        dtheta=lambda x: r * np.ones_like(np.asarray(x, dtype=float)),
    )


# ---------------------------------------------------------------------------
# parallel frame


@dataclass
class FrameField:
    """Parallel-transport frame sampled on a uniform grid, with the
    curvature components along its normals."""

    x: np.ndarray
    tau: np.ndarray        # (n, 3)
    e1: np.ndarray
    e2: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray
    curve: CurveSpec
    _splines: dict = field(default_factory=dict, repr=False)

    @property
    def kappa(self) -> np.ndarray:
        return np.hypot(self.kappa1, self.kappa2)

    def orthonormality_defect(self) -> float:
        B = np.stack([self.tau, self.e1, self.e2], axis=1)  # (n, 3, 3)
        G = np.einsum("nij,nkj->nik", B, B)
        return float(np.max(np.abs(G - np.eye(3))))

    def _spline(self, name: str, data: np.ndarray):
        if name not in self._splines:
            from scipy.interpolate import CubicSpline

            self._splines[name] = CubicSpline(self.x, data, axis=0)
        return self._splines[name]

    def frame_at(self, x):
        """Interpolated (e1, e2) at arbitrary x."""
        return self._spline("e1", self.e1)(x), self._spline("e2", self.e2)(x)

    def kappa_vec_at(self, x):
        """Interpolated curvature vector (kappa1, kappa2) at x."""
        k = np.stack([self.kappa1, self.kappa2], axis=-1)
        return self._spline("kv", k)(x)

    def to_csv(self, path) -> None:
        header = ("x,tau1,tau2,tau3,e11,e12,e13,e21,e22,e23,"
                  "kappa1,kappa2,kappa")
        data = np.column_stack([self.x, self.tau, self.e1, self.e2,
                                self.kappa1, self.kappa2, self.kappa])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")


def bishop_frame(curve: CurveSpec, n_nodes: int = 1024) -> FrameField:
    """Integrate the parallel-transport frame along a unit-speed curve.

    Classical RK4 on the normal vector e1 with e' = -<c'', e> c', the
    tangent taken exactly from c'.  The equation is linear in e, so one RK4
    step from node i to i + 1 is one 3 x 3 matrix; all of them are built in
    one batched product, each followed by the projection
    I - tau_{i+1} tau_{i+1}^T, and the sequential pass only applies them and
    normalizes e1.  The second normal is e2 = tau x e1, which is what the
    transported e2 equals in exact arithmetic.  This holds the frame's
    orthonormality defect at round-off on a unit-speed curve.  A defect
    above 1e-6 means the tangent c' is not a unit vector, and is refused
    with GeometryError.
    """
    if not curve.arclength:
        raise GeometryError("bishop_frame requires an arc-length curve; "
                            "call reparameterize_arclength first")
    x = np.linspace(curve.x_min, curve.x_max, n_nodes)
    h = x[1] - x[0]
    tau = curve.dc(x)
    ddc = curve.ddc(x)
    ddc_half = curve.ddc(0.5 * (x[:-1] + x[1:]))
    dc_half = curve.dc(0.5 * (x[:-1] + x[1:]))
    # generator -c' c''^T at the start, the midpoint and the end of each step
    A = -tau[:-1, :, None] * ddc[:-1, None, :]
    B = -dc_half[:, :, None] * ddc_half[:, None, :]
    C = -tau[1:, :, None] * ddc[1:, None, :]
    K2 = B + 0.5 * h * (B @ A)
    K3 = B + 0.5 * h * (B @ K2)
    K4 = C + h * (C @ K3)
    P = np.eye(3) + h / 6.0 * (A + 2.0 * K2 + 2.0 * K3 + K4)
    Q = (np.eye(3) - tau[1:, :, None] * tau[1:, None, :]) @ P

    t0 = tau[0]
    # initial normal: any unit vector orthogonal to tau(0)
    trial = np.array([0.0, 1.0, 0.0])
    if abs(np.dot(trial, t0)) > 0.9:
        trial = np.array([0.0, 0.0, 1.0])
    v = trial - np.dot(trial, t0) * t0
    a, b, c = (v / np.linalg.norm(v)).tolist()
    rows = [(a, b, c)]
    for q0, q1, q2 in Q.tolist():
        a, b, c = (q0[0] * a + q0[1] * b + q0[2] * c,
                   q1[0] * a + q1[1] * b + q1[2] * c,
                   q2[0] * a + q2[1] * b + q2[2] * c)
        r = math.sqrt(a * a + b * b + c * c)
        a, b, c = a / r, b / r, c / r
        rows.append((a, b, c))
    e1 = np.array(rows)
    e2 = np.cross(tau, e1)

    k1c = np.einsum("ni,ni->n", ddc, e1)
    k2c = np.einsum("ni,ni->n", ddc, e2)
    frame = FrameField(x=x, tau=tau, e1=e1, e2=e2, kappa1=k1c, kappa2=k2c,
                       curve=curve)
    defect = frame.orthonormality_defect()
    if defect > 1e-6:
        raise GeometryError(
            f"frame orthonormality defect {defect:.3e} exceeds 1e-6")
    return frame


# ---------------------------------------------------------------------------
# overlap margin (heuristic, sampled proxy for the global non-overlap condition)


def overlap_margin(curve: CurveSpec):
    """Largest sampled constants (c1, c2) with
    ||c(x1) - c(x2)|| >= min(c1 |x1 - x2|, c2) over all sampled pairs.

    This is a sampled heuristic: distances are evaluated on a grid of 512
    points with pairs closer than 3 grid spacings excluded.  Returns
    (c1, c2, feasible).
    """
    x = np.linspace(curve.x_min, curve.x_max, 512)
    h = x[1] - x[0]
    pts = curve.c(x)
    dx = np.abs(x[:, None] - x[None, :])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    sel = dx > 3.0 * h
    dxs, dists = dx[sel], dist[sel]
    if len(dxs) == 0:
        return 1.0, float(np.ptp(x)), True
    best = (0.0, 0.0)
    for ell in np.quantile(dxs, [0.05, 0.1, 0.25, 0.5, 0.75, 1.0]):
        near = dxs <= ell
        c1 = float(np.min(dists[near] / dxs[near])) if near.any() else 1.0
        far_min = float(np.min(dists[~near])) if (~near).any() else np.inf
        c2 = min(c1 * ell, far_min)
        if min(c1, c2) > min(best) or (min(c1, c2) == min(best) and c2 > best[1]):
            best = (c1, min(c2, float(np.max(dists))))
    c1, c2 = best
    feasible = c1 > 1e-12 and c2 > 1e-12
    return c1, c2, feasible


# ---------------------------------------------------------------------------
# embedding and metric factors


def _twisted(r, s: float, frame: FrameField, twist: TwistSpec):
    """(x, ty, u) of points r = (x, y1, y2), an array of shape (..., 3): the
    twisted offset ty = T_theta(s y) and u = ty . kappa(x)."""
    r = np.asarray(r, dtype=float)
    x, y1, y2 = r[..., 0], s * r[..., 1], s * r[..., 2]
    th = np.asarray(twist.theta(x))
    c, sn = np.cos(th), np.sin(th)
    ty = np.stack([c * y1 - sn * y2, sn * y1 + c * y2], axis=-1)
    return x, ty, np.sum(ty * frame.kappa_vec_at(x), axis=-1)


def _refuse_nonpositive(rho, x) -> None:
    if np.any(rho <= 0.0):
        i = np.unravel_index(np.argmin(rho), np.shape(rho))
        raise GeometryError(
            f"metric factor rho = {rho[i]:.3e} <= 0 at x = {x[i]:.4g}; "
            "eps too large for this curvature")


def embed(r, eps: float, frame: FrameField, twist: TwistSpec) -> np.ndarray:
    """Embedding map of points r = (x, y1, y2), an array of shape (..., 3):
    scale the cross-section by eps, twist it, and attach it to the curve
    along the parallel frame.  Refuses points where the metric factor
    rho = 1 - (T_theta eps y . kappa) is not positive."""
    x, ty, u = _twisted(r, eps, frame, twist)
    _refuse_nonpositive(1.0 - u, x)
    e1, e2 = frame.frame_at(x)
    return frame.curve.c(x) + ty[..., :1] * e1 + ty[..., 1:] * e2


def metric_factors(r, eps: float, frame: FrameField, twist: TwistSpec):
    """Metric factor rho = 1 - eps (T_theta y . kappa) and
    s = (rho^2 - 1) / (eps rho^2), with the eps -> 0 limit -2 (T_theta y . kappa),
    at points r of shape (..., 3) as ``embed`` takes them.  Refuses points
    where rho is not positive."""
    x, _, u = _twisted(r, 1.0, frame, twist)
    rho = 1.0 - eps * u
    _refuse_nonpositive(rho, x)
    if eps == 0.0:
        return rho, -2.0 * u
    return rho, (rho**2 - 1.0) / (eps * rho**2)


def geometric_potential(frame: FrameField, twist: TwistSpec,
                        lchi2: float) -> np.ndarray:
    """Static 1D potential -kappa^2/4 + theta'^2 ||L chi||^2 on the frame grid."""
    if lchi2 < 0:
        raise GeometryError("lchi2 must be nonnegative")
    return -frame.kappa**2 / 4.0 + np.asarray(twist.dtheta(frame.x))**2 * lchi2
