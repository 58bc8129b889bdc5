"""Scaling regimes and the pair interaction.

Houses the (N, eps, beta) bookkeeping with the derived coupling a = eps^2/N
and interaction range mu = a^beta, the classification of parameter sequences
(admissible / moderately / strongly confining), the scaled two-body potential
and the sampled Taylor remainder of a pair's separation in a curved guide,
the effective 1D interaction kernel obtained by integrating out the transverse directions, the mean-field
convolution defect, and the coupling constant of the effective nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import FrameField, TwistSpec, embed
from .transverse import TransverseModes


class ScalingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scaling points and sequence classification


@dataclass(frozen=True)
class ScalingPoint:
    """One point (N, eps, beta) of the combined mean-field/confinement limit."""

    N: int
    eps: float
    beta: float

    def __post_init__(self):
        if self.N < 1:
            raise ScalingError("N must be >= 1")
        if not 0.0 < self.eps <= 1.0:
            raise ScalingError("eps must lie in (0, 1]")
        if not 0.0 < self.beta < 1.0 / 3.0:
            raise ScalingError("beta must lie strictly inside (0, 1/3)")

    @property
    def a(self) -> float:
        return self.eps**2 / self.N

    @property
    def mu(self) -> float:
        return self.a**self.beta


def scaling_params(N: int, eps: float, beta: float) -> ScalingPoint:
    return ScalingPoint(int(N), float(eps), float(beta))


@dataclass
class Classification:
    admissible: bool
    moderate: bool
    strong: bool
    ratios_admissible: np.ndarray   # eps^{4/3} / mu
    ratios_moderate: np.ndarray     # mu / eps
    ratios_strong: np.ndarray       # eps / mu

    @property
    def neither(self) -> bool:
        return not (self.admissible or self.moderate or self.strong)


def _tail_vanishing(N: np.ndarray, r: np.ndarray) -> bool:
    # computable proxy for r_n -> 0: decreasing over the last half and a
    # negative fitted power-law exponent in N (so slow decays like N^(-0.05)
    # are recognized while sequences stuck at a positive level are not)
    half = len(r) // 2
    tail = r[half:]
    if np.any(np.diff(tail) >= 0):
        return False
    slope = np.polyfit(np.log(N[half:]), np.log(tail), 1)[0]
    return bool(slope < -0.01)


def classify_sequence(points: Sequence[ScalingPoint]) -> Classification:
    """Classify a finite parameter sequence by tail monotonicity.

    The defining conditions are asymptotic; on a finite sequence we require
    strict decrease over the last half plus a negative fitted power-law
    exponent as the computable proxy, and expose the raw ratio series.
    """
    if len(points) < 4:
        raise ScalingError("need at least 4 points to classify a sequence")
    N = np.array([p.N for p in points], dtype=float)
    eps = np.array([p.eps for p in points])
    mu = np.array([p.mu for p in points])
    if not np.all(np.diff(N) > 0):
        raise ScalingError("N must be strictly increasing along the sequence")
    if not np.all(np.diff(eps) < 0):
        raise ScalingError("eps must be strictly decreasing along the sequence")
    r_adm = eps ** (4.0 / 3.0) / mu
    r_mod = mu / eps
    r_str = eps / mu
    admissible = _tail_vanishing(N, r_adm)
    moderate = admissible and _tail_vanishing(N, r_mod)
    strong = admissible and not moderate and _tail_vanishing(N, r_str)
    return Classification(admissible, moderate, strong, r_adm, r_mod, r_str)


# ---------------------------------------------------------------------------
# pair potential


@dataclass(frozen=True)
class PairPotential:
    """Radial pair potential w(r) = wt(|r|^2) supported in the unit ball.

    ``wt`` acts on the squared radius, and ``at_r2`` cuts it off at the unit
    sphere; ``mass`` and ``first_moment`` are the closed-form integrals of w
    and |r| w over R^3.
    """

    wt: Callable[[np.ndarray], np.ndarray]
    mass: float
    first_moment: float

    def at_r2(self, s: np.ndarray) -> np.ndarray:
        """w at the squared radius s: wt(s) inside the unit ball s < 1, zero
        outside."""
        return np.where(s < 1.0, self.wt(np.minimum(s, 1.0)), 0.0)

    def scaled(self, factor: float) -> "PairPotential":
        f = float(factor)
        return PairPotential(
            wt=lambda s: f * self.wt(s), mass=f * self.mass, first_moment=f * self.first_moment)


def bump_potential() -> PairPotential:
    """Default C^2 bump: wt(s) = (1-s)^3 on [0,1).

    Closed forms: total mass 64 pi / 315, first moment pi / 10.
    """
    return PairPotential(
        wt=lambda s: (1.0 - s) ** 3,
        mass=64.0 * np.pi / 315.0,
        first_moment=np.pi / 10.0,
    )


def _r_eps(r, eps):
    r = np.asarray(r, dtype=float)
    out = r.copy()
    out[..., 1:] *= eps
    return out


# ---------------------------------------------------------------------------
# Taylor decomposition in the curved guide


def _remainder(r1, r2, eps: float, mu: float, frame: FrameField,
               twist: TwistSpec):
    """(R, df) for pairs of points r1, r2 of shape (..., 3): the embedded
    separation df = f_eps(r2) - f_eps(r1) and the remainder
    R = (|df|^2 - |r_eps(r2) - r_eps(r1)|^2) / mu^2 of its square."""
    df = embed(r2, eps, frame, twist) - embed(r1, eps, frame, twist)
    d = _r_eps(r2, eps) - _r_eps(r1, eps)
    R = (np.sum(df * df, axis=-1) - np.sum(d * d, axis=-1)) / mu**2
    return R, df


@dataclass
class TaylorDecomposition:
    """Sampled supremum of the remainder R of the squared embedded pair
    separation, the part of the scaled interaction's argument that the
    straight-guide scaling r -> r_eps misses."""

    rbar: float                     # sampled sup |R| over the support
    rbar_samples: int


def taylor_decompose(sp: ScalingPoint, frame: FrameField,
                     twist: TwistSpec) -> TaylorDecomposition:
    """Sample the remainder supremum at the point sp (any object with
    ``eps`` and ``mu``).

    The remainder only matters on the interaction support, so ``rbar`` is the
    supremum of |R| over a quasi-random cloud of 20 000 pairs with
    |y| <= 0.5 in each transverse coordinate, restricted to
    ||f_eps(r1) - f_eps(r2)|| < mu.
    On a straight untwisted guide the embedding is the scaling itself, and R
    is exactly 0.
    """
    # scipy.stats costs about 0.4 s to import and only this sampler uses it
    from scipy.stats import qmc

    eps, mu = sp.eps, sp.mu
    n_samples, y_halfwidth = 20_000, 0.5
    margin = 0.05 * (frame.x[-1] - frame.x[0])
    lo, hi = frame.x[0] + margin, frame.x[-1] - margin - 2 * mu

    sampler = qmc.Halton(d=8, seed=7)
    u = sampler.random(n_samples)
    r1 = np.empty((n_samples, 3))
    r1[:, 0] = lo + u[:, 0] * (hi - lo)
    r1[:, 1] = (2 * u[:, 1] - 1) * y_halfwidth
    r1[:, 2] = (2 * u[:, 2] - 1) * y_halfwidth
    # offsets on the interaction scale: dx ~ mu, dy ~ mu/eps (clipped to the box)
    r2 = r1.copy()
    r2[:, 0] += (2 * u[:, 3] - 1) * 1.2 * mu
    dy_scale = min(1.2 * mu / eps, 2 * y_halfwidth)
    r2[:, 1] = np.clip(r1[:, 1] + (2 * u[:, 4] - 1) * dy_scale,
                       -y_halfwidth, y_halfwidth)
    r2[:, 2] = np.clip(r1[:, 2] + (2 * u[:, 5] - 1) * dy_scale,
                       -y_halfwidth, y_halfwidth)

    R, df = _remainder(r1, r2, eps, mu, frame, twist)
    on_support = np.linalg.norm(df, axis=-1) < mu
    R = R[on_support]
    rbar = float(np.max(np.abs(R))) if len(R) else 0.0
    return TaylorDecomposition(rbar=rbar, rbar_samples=int(on_support.sum()))


# ---------------------------------------------------------------------------
# effective 1D kernel and coupling


def _next_5_smooth(n: int) -> int:
    """Smallest integer >= n with no prime factor above 5, the padded length
    ``scipy.fft.next_fast_len(n, real=True)`` gives."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _from_spectrum(spec: np.ndarray, shape, fshape) -> np.ndarray:
    """The inverse half of a full convolution with the arithmetic of
    ``scipy.signal.fftconvolve``: the unnormalised irfftn of spec on the
    5-smooth padded shape fshape, times one factor 1/(f1 f2) (numpy's default
    scales once per axis, which rounds differently), cut to shape."""
    out = (np.fft.irfftn(spec, fshape, axes=(0, 1), norm="forward")
           * (1.0 / (fshape[0] * fshape[1])))
    return out[tuple(slice(n) for n in shape)]


def _lag_correlations(prods, h: float):
    """Yield (p, q, h^2 ``fftconvolve(prods[p], prods[q][::-1, ::-1])``)
    for every pair of the P equal-shape real 2D arrays prods, bit for bit
    with ``scipy.signal.fftconvolve``, with each array's spectrum and that
    of its reversed copy computed once: 2 P + P^2 FFTs, not 3 P^2."""
    shape = [2 * n - 1 for n in prods[0].shape]
    fshape = [_next_5_smooth(n) for n in shape]
    spec = [np.fft.rfftn(A, fshape, axes=(0, 1)) for A in prods]
    for q, B in enumerate(prods):
        rev = np.fft.rfftn(B[::-1, ::-1], fshape, axes=(0, 1))
        for p, S in enumerate(spec):
            yield p, q, _from_spectrum(S * rev, shape, fshape) * h**2


def _lag_weights(lag: np.ndarray, y: np.ndarray):
    """Bracketing interval and linear weights (1 - t, t) of the points y on
    the ascending grid lag, as ``RegularGridInterpolator`` finds them; a
    point outside [lag[0], lag[-1]] gets weight 0 on both ends."""
    i = np.clip(np.searchsorted(lag, y, side="right") - 1, 0, len(lag) - 2)
    t = (y - lag[i]) / (lag[i + 1] - lag[i])
    inside = (y >= lag[0]) & (y <= lag[-1])
    return i, np.where(inside, 1.0 - t, 0.0), np.where(inside, t, 0.0)


def _bilinear(values: np.ndarray, lag1: np.ndarray, lag2: np.ndarray,
              y: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of values on the grid lag1 x lag2 at the
    points y x y, shape (len(y), len(y)); points outside the grid read 0.
    The sum has the order of ``RegularGridInterpolator(method="linear")``."""
    i, a1, b1 = _lag_weights(lag1, y)
    j, a2, b2 = _lag_weights(lag2, y)
    i, a1, b1 = i[:, None], a1[:, None], b1[:, None]
    return (values[i, j] * a1 * a2 + values[i, j + 1] * a1 * b2
            + values[i + 1, j] * b1 * a2 + values[i + 1, j + 1] * b1 * b2)


def pair_kernel(chi, h: float, w: PairPotential, eps: float, mu: float,
                x) -> np.ndarray:
    """Transverse-projected pair kernel of the scaled interaction
    (eps^2/mu^3) w((x, eps y)/mu) between real modes chi (m, n1, n2) sampled
    with spacing h.

    Returns K of shape (len(x), m, m, m, m) with

        K[i, a, b, c, d] = (eps^2/mu^3) int int chi_a(y) chi_d(y)
                           chi_b(y') chi_c(y') w((x_i, eps (y - y'))/mu) dy dy'.

    The double integral is reduced to the lag correlation
    Q(dy) = int chi_a chi_d(y) chi_b chi_c(y - dy) dy (smooth on the
    cross-section scale), interpolated once onto a fine lag grid over the
    interaction support |dy| < mu/eps and integrated against the sharp
    profile at every x_i.  Since chi_a chi_d = chi_d chi_a, Q is computed
    only for a <= d and b <= c.
    """
    chi = np.asarray(chi)
    m, n1, n2 = chi.shape
    lag1 = h * np.arange(-(n1 - 1), n1)
    lag2 = h * np.arange(-(n2 - 1), n2)
    # 17 x 17 lag points over the interaction support, clipped to the
    # cross-section's lag range
    half = min(mu / eps, float(lag1[-1]))
    fy = np.linspace(-half, half, 17)
    hf = fy[1] - fy[0]
    FY1, FY2 = np.meshgrid(fy, fy, indexing="ij")

    # pair products chi_a chi_d (a <= d) and their lag correlations
    pair = np.zeros((m, m), dtype=int)
    prods = []
    for a in range(m):
        for dd in range(a, m):
            pair[a, dd] = pair[dd, a] = len(prods)
            prods.append(chi[a] * chi[dd])
    Q = np.empty((len(prods), len(prods), fy.size**2))
    for p, q, corr in _lag_correlations(prods, h):
        Q[p, q] = _bilinear(corr, lag1, lag2, fy).ravel()

    x = np.asarray(x, dtype=float)
    s = (x[:, None]**2 + eps**2 * (FY1**2 + FY2**2).ravel()) / mu**2
    K = eps**2 / mu**3 * np.einsum("pqf,if->ipq", Q, w.at_r2(s)) * hf**2
    return K[:, pair[:, None, None, :], pair[None, :, :, None]]


def effective_kernel(modes: TransverseModes, w: PairPotential,
                     eps: float, mu: float):
    """Effective 1D kernel obtained by integrating the scaled interaction
    against |chi_0|^2 in both transverse arguments: ``pair_kernel`` of the
    ground mode on 33 points of [-mu, mu], spacing mu/16.

    Returns (x_grid, kernel_values, mass).
    """
    x = np.linspace(-mu, mu, 33)
    vals = pair_kernel(modes.chi[:1], modes.cs.h, w, eps, mu, x)[:, 0, 0, 0, 0]
    mass = float(np.trapezoid(vals, x))
    return x, vals, mass


def b_coefficient(modes: TransverseModes, w: PairPotential,
                  regime: str) -> float:
    """Coupling of the effective cubic nonlinearity: quartic integral of the
    ground mode times the total interaction mass for moderate confinement,
    zero for strong confinement."""
    if regime == "strong":
        return 0.0
    if regime != "moderate":
        raise ScalingError(f"unknown regime {regime!r}")
    return modes.q4 * w.mass


# ---------------------------------------------------------------------------
# mean-field convolution defect


def _radial_ft_table(w: PairPotential, k_max: float):
    """Radial 3D Fourier transform of w on 4096 points of [0, k_max]:
    4 pi int_0^1 r^2 w(r) sinc(k r) dr by 64-node Gauss-Legendre on the unit
    ball's radius, all k in one matrix product.  Returns its linear
    interpolant, which reads 0 outside [0, k_max]."""
    k = np.linspace(0.0, k_max, 4096)
    r, wq = np.polynomial.legendre.leggauss(64)
    r, wq = 0.5 * (r + 1.0), 0.5 * wq
    kr = np.outer(k, r)
    sinc = np.divide(np.sin(kr), kr, out=np.ones_like(kr), where=kr > 0)
    vals = 4 * np.pi * sinc @ (wq * r**2 * w.at_r2(r * r))
    return lambda q: np.interp(q, k, vals, left=0.0, right=0.0)


def convolution_defect(w: PairPotential, eps: float, mu: float,
                       sigma: float = 1.0, n_xi: int = 64) -> float:
    """L2 defect of the anisotropically scaled interaction acting as an
    approximate identity on a Gaussian of width ``sigma``, normalized by the
    Gaussian's gradient norm.

    Computed in Fourier space via Plancherel: the convolution kernel
    (eps^2/mu^3) w((x, eps y)/mu) has transform what(mu xi_x, (mu/eps) xi_y),
    so the defect is the L2 norm of (what - what(0)) fhat against the exact
    Gaussian transform on n_xi^3 points of [-8/sigma, 8/sigma]^3.  Both mu
    and mu/eps must be resolved by the xi-grid.  The integrand depends on
    the squares of the three coordinates only, and an even n_xi puts no
    point on a coordinate plane, so both sums run over the positive octant,
    (n_xi/2)^3 points built from 1D arrays; the factor 8 cancels in the
    ratio.

    Rate: for a radial ``w`` the transform is even, so what(K) - what(0)
    = -(M2/6) K^2 + O(K^4) with M2 = int |r|^2 w, and on fixed smooth data
    the defect decays like mu^2.  The first-order rate (mu/eps) C1, with
    C1 = sup_k |what(k) - what(0)| / k, is the H^1 -> L2 bound that holds
    uniformly over all data; it is an upper bound, sharp only over that
    whole class.
    """
    xi_max = 8.0 / sigma
    if xi_max * max(mu, mu / eps) < 0.05:
        raise ScalingError("xi-grid does not resolve the kernel scales")
    if n_xi % 2:
        raise ScalingError("n_xi must be even")
    what = _radial_ft_table(w, k_max=2.0 * xi_max * max(mu, mu / eps) + 1.0)
    w0 = float(what(0.0))
    xi2 = np.linspace(-xi_max, xi_max, n_xi)[n_xi // 2:] ** 2
    X2, Y1sq, Y2sq = xi2[:, None, None], xi2[None, :, None], xi2[None, None, :]
    g = np.exp(-sigma**2 * xi2)
    f2 = g[:, None, None] * g[None, :, None] * g[None, None, :]
    K = np.sqrt(mu**2 * X2 + (mu / eps) ** 2 * (Y1sq + Y2sq))
    defect2 = np.sum((what(K) - w0) ** 2 * f2)
    grad2 = np.sum((X2 + Y1sq + Y2sq) * f2)
    return float(np.sqrt(defect2 / grad2))
