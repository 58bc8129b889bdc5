"""Dirichlet eigenmodes of the waveguide cross-section.

Solves -Lap + Vperp on a bounded 2D region with a 5-point finite-difference
discretization (Dirichlet boundary by mask exclusion) and computes the scalar
quantities the effective 1D equation needs: ground-state energy, spectral
gap, the quartic integral of the ground mode, the angular-momentum norm, and
the mode-overlap tensor.  The lowest modes are a closed form on a full
rectangle with constant Vperp and come from shift-invert Arnoldi on one
sparse LU otherwise; for up to 14 modes neither calls threaded BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Arnoldi steps allowed beyond 4 per wanted eigenpair (``_arnoldi``)
_ARNOLDI_STEPS = 40


class CrossSectionError(ValueError):
    pass


@dataclass(frozen=True)
class CrossSection:
    """Bounded open cross-section on a uniform grid.

    ``mask`` marks interior nodes; everything outside is Dirichlet boundary.
    ``y1``/``y2`` are the node coordinates along the two axes.  ``levelset``
    (negative inside, when available) locates the true boundary between grid
    nodes so curved shapes get boundary-fitted stencils instead of the
    staircase approximation.
    """

    shape: str
    y1: np.ndarray
    y2: np.ndarray
    mask: np.ndarray         # (n1, n2) bool
    vperp: np.ndarray        # (n1, n2) float
    levelset: Callable = None

    @property
    def h(self) -> float:
        return float(self.y1[1] - self.y1[0])

    def centroid(self):
        Y1, Y2 = np.meshgrid(self.y1, self.y2, indexing="ij")
        n = self.mask.sum()
        return float(Y1[self.mask].sum() / n), float(Y2[self.mask].sum() / n)

    @cached_property
    def boundary_fractions(self) -> dict:
        """Fractional distance to the Dirichlet boundary per node and grid
        direction (``_boundary_fractions``); measured once per cross-section
        and shared by the Laplacian and the angular momentum."""
        return _boundary_fractions(self)


def _grid(extent1, extent2, n):
    # interior nodes only: h = L/(n+1), nodes at h, 2h, ..., n h
    a0, a1 = extent1
    b0, b1 = extent2
    n1 = n
    h = (a1 - a0) / (n + 1)
    n2 = int(round((b1 - b0) / h)) - 1
    y1 = a0 + h * np.arange(1, n1 + 1)
    y2 = b0 + h * np.arange(1, n2 + 1)
    return y1, y2


def rectangle(a: float, b: float, n: int, vperp=None) -> CrossSection:
    """Rectangle (0, a) x (0, b); n interior nodes along the first axis.
    vperp, a callable of the node coordinates (Y1, Y2), is the transverse
    potential, zero for None."""
    y1, y2 = _grid((0.0, a), (0.0, b), n)
    mask = np.ones((len(y1), len(y2)), dtype=bool)
    V = (np.zeros(mask.shape) if vperp is None else np.asarray(
        vperp(*np.meshgrid(y1, y2, indexing="ij")), dtype=float))
    return CrossSection("rectangle", y1, y2, mask, V)


def disk(radius: float, n: int) -> CrossSection:
    """Disk of given radius centered at the origin."""
    R = float(radius)
    y1, y2 = _grid((-R, R), (-R, R), n)
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    mask = Y1**2 + Y2**2 < R**2
    return CrossSection("disk", y1, y2, mask, np.zeros(mask.shape),
                        levelset=lambda p1, p2: p1**2 + p2**2 - R**2)


def ellipse(a: float, b: float, n: int) -> CrossSection:
    """Ellipse with semi-axes a, b centered at the origin."""
    y1, y2 = _grid((-a, a), (-b, b), n)
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    mask = (Y1 / a) ** 2 + (Y2 / b) ** 2 < 1.0
    return CrossSection("ellipse", y1, y2, mask, np.zeros(mask.shape),
                        levelset=lambda p1, p2: (p1 / a) ** 2 + (p2 / b) ** 2 - 1.0)


def masked(y1, y2, mask) -> CrossSection:
    """The nodes of the grid y1 x y2 where mask holds, with no transverse
    potential."""
    mask = np.asarray(mask, dtype=bool)
    return CrossSection("mask", np.asarray(y1, float), np.asarray(y2, float),
                        mask, np.zeros(mask.shape))


@dataclass
class TransverseModes:
    """Lowest Dirichlet eigenpairs of -Lap + Vperp with derived scalars."""

    cs: CrossSection
    energies: np.ndarray      # (m,)
    chi: np.ndarray           # (m, n1, n2), zero outside the mask
    origin: tuple             # origin of the angular momentum: mask centroid

    @property
    def e0(self) -> float:
        return float(self.energies[0])

    @property
    def gap(self) -> float:
        if len(self.energies) < 2:
            raise CrossSectionError("need m >= 2 modes for the spectral gap")
        return float(self.energies[1] - self.energies[0])

    @property
    def q4(self) -> float:
        """Integral of |chi_0|^4 over the cross-section."""
        return float(self.cs.h**2 * np.sum(self.chi[0] ** 4))

    @cached_property
    def lchi2(self) -> float:
        return angular_momentum_norm(self)

    def summary(self) -> dict:
        out = {"E0": self.e0, "q4": self.q4, "lchi2": self.lchi2}
        if len(self.energies) >= 2:
            out["gap"] = self.gap
        return out


def _boundary_fractions(cs: CrossSection) -> dict:
    """Fractional distance (in units of h) from each interior node to the
    Dirichlet boundary in each grid direction.

    Equals 1.0 toward an interior neighbor.  With a levelset the true zero
    crossing is located by bisection; without one the boundary is taken to sit
    exactly one spacing outside the mask.
    """
    n1, n2 = cs.mask.shape
    h = cs.h
    out = {}
    Y1, Y2 = np.meshgrid(cs.y1, cs.y2, indexing="ij")
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        t = np.ones((n1, n2))
        if cs.levelset is not None:
            ii, jj = np.nonzero(cs.mask)
            i2, j2 = ii + di, jj + dj
            inside = (i2 >= 0) & (i2 < n1) & (j2 >= 0) & (j2 < n2)
            inside[inside] = cs.mask[i2[inside], j2[inside]]
            bi, bj = ii[~inside], jj[~inside]
            if len(bi):
                p1, p2 = Y1[bi, bj], Y2[bi, bj]
                lo = np.zeros(len(bi))
                hi = np.ones(len(bi))
                crosses = cs.levelset(p1 + h * di, p2 + h * dj) >= 0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    f = cs.levelset(p1 + mid * h * di, p2 + mid * h * dj)
                    hi = np.where(f >= 0, mid, hi)
                    lo = np.where(f >= 0, lo, mid)
                frac = np.where(crosses, np.maximum(hi, 1e-6), 1.0)
                t[bi, bj] = frac
        out[(di, dj)] = t
    return out


def _laplacian(cs: CrossSection) -> sp.csr_matrix:
    """Negative Laplacian plus Vperp on the interior nodes.

    Standard 5-point stencil on the mask; with a levelset the stencil arms
    that cross the boundary are shortened to the true crossing distance
    (Shortley-Weller), which makes the matrix mildly nonsymmetric.
    """
    n1, n2 = cs.mask.shape
    h = cs.h
    idx = -np.ones((n1, n2), dtype=np.int64)
    idx[cs.mask] = np.arange(cs.mask.sum())
    ii, jj = np.nonzero(cs.mask)
    frac = cs.boundary_fractions
    t_pairs = {(1, 0): (-1, 0), (0, 1): (0, -1)}
    rows, cols, vals = [], [], []
    diag = cs.vperp[ii, jj].astype(float).copy()
    for (dp, dq), (dm, dn) in t_pairs.items():
        tp = frac[(dp, dq)][ii, jj]
        tm = frac[(dm, dn)][ii, jj]
        diag += 2.0 / (tp * tm) / h**2
        for di, dj, tn, tf in ((dp, dq, tp, tm), (dm, dn, tm, tp)):
            i2, j2 = ii + di, jj + dj
            ok = (i2 >= 0) & (i2 < n1) & (j2 >= 0) & (j2 < n2)
            ok[ok] = cs.mask[i2[ok], j2[ok]]
            rows.append(idx[ii[ok], jj[ok]])
            cols.append(idx[i2[ok], j2[ok]])
            vals.append(-2.0 / (tn[ok] * (tn[ok] + tf[ok])) / h**2)
    rows.append(idx[ii, jj])
    cols.append(idx[ii, jj])
    vals.append(diag)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))))


def _product_modes(cs: CrossSection, k: int):
    """The k lowest eigenpairs, in ascending order, of the 5-point operator
    on a full rectangle with constant Vperp, in closed form.

    The operator is the Kronecker sum of two 1D second differences, so its
    eigenpairs are
    E_(p,q) = (4/h^2) [sin^2(p pi / (2(n1+1))) + sin^2(q pi / (2(n2+1)))]
    + Vperp, with product sine modes (LeVeque 2007, Finite Difference Methods
    for ODEs and PDEs, Sec. 3.4).  A mode with p > k has the k modes
    (1, q), ..., (k, q) below it, so the k x k candidates (clamped to the
    grid) hold the k lowest.  The sort is stable: an exact tie, such as
    E_(1,2) = E_(2,1) on a square, goes to the lexicographically first pair.
    """
    n1, n2 = cs.mask.shape
    h = cs.h
    p = np.arange(1, min(k, n1) + 1)
    q = np.arange(1, min(k, n2) + 1)
    e1 = 4.0 / h**2 * np.sin(p * np.pi / (2 * (n1 + 1))) ** 2
    e2 = 4.0 / h**2 * np.sin(q * np.pi / (2 * (n2 + 1))) ** 2
    energies = (e1[:, None] + e2[None, :]).ravel() + cs.vperp[0, 0]
    order = np.argsort(energies, kind="stable")[:k]
    s1 = np.sin(np.outer(p, np.arange(1, n1 + 1)) * np.pi / (n1 + 1))
    s2 = np.sin(np.outer(q, np.arange(1, n2 + 1)) * np.pi / (n2 + 1))
    i1, i2 = np.unravel_index(order, (len(p), len(q)))
    vecs = np.stack([np.outer(s1[a], s2[b]).ravel() for a, b in zip(i1, i2)],
                    axis=1)
    return energies[order], vecs


def _shift_invert_modes(cs: CrossSection, k: int):
    """The k lowest eigenpairs, in ascending order, by shift-invert Arnoldi
    at sigma = min Vperp - 1.

    In every row of the 5-point or Shortley-Weller stencil the off-diagonal
    magnitudes sum to at most the Laplacian part of the diagonal, so each
    row of A - sigma I is strictly diagonally dominant, by
    Vperp - min Vperp + 1 >= 1.  The LU therefore needs no pivoting and
    keeps the minimum-degree ordering of the symmetric pattern, about half
    the fill of the default column ordering.  ``_arnoldi`` serves the
    symmetric stencil of a mask and the mildly nonsymmetric, real-spectrum
    one of a curved shape alike.
    """
    A = _laplacian(cs)
    sigma = float(cs.vperp.min()) - 1.0
    lu = splu((A - sigma * sp.eye(A.shape[0])).tocsc(),
              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    theta, vecs = _arnoldi(lu.solve, A.shape[0], k)
    vals = sigma + 1.0 / theta
    if np.max(np.abs(vals.imag)) > 1e-8 * np.max(np.abs(vals.real)):
        raise CrossSectionError("eigensolver returned complex eigenvalues")
    # strip the arbitrary complex phase of each eigenvector
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs = (vecs * (np.abs(lead) / lead)).real
    order = np.argsort(vals.real)
    return vals.real[order], vecs[:, order]


def _arnoldi(op: Callable, n: int, k: int):
    """The k eigenpairs of largest magnitude of the n x n operator ``op``,
    by unrestarted Arnoldi (Saad 2011, Numerical Methods for Large
    Eigenvalue Problems, ch. 4).

    The start vector is fixed and has no symmetry, so no eigenspace of a
    symmetric cross-section is orthogonal to it.  Each new vector is
    orthogonalized by classical Gram-Schmidt done twice, with ``einsum``
    and pairwise sums: on vectors of more than 10000 entries a BLAS
    product would wake a second OpenBLAS thread.  After step j the Ritz
    pairs (theta_i, s_i) of the j x j Hessenberg matrix H_j have the
    residual h_(j+1,j) |s_(j,i)|; the solve stops when each of the k
    wanted pairs has a residual of at most 1e-12 |theta_i|, and raises
    ``CrossSectionError`` if _ARNOLDI_STEPS + 4k steps (or n - 1) do not
    get there.  Up to k = 15 that cap keeps H_j at 100 rows or fewer, where
    ``np.linalg.eig`` wakes no BLAS thread either.  Returns the Ritz values
    and unit Ritz vectors, in columns.
    """
    steps = min(n - 1, _ARNOLDI_STEPS + 4 * k)
    V = np.empty((steps + 1, n))
    H = np.zeros((steps + 1, steps))
    v = np.random.default_rng(0).standard_normal(n)
    V[0] = v / np.sqrt(np.add.reduce(v * v))
    for j in range(steps):
        w = op(V[j])
        for _ in range(2):
            c = np.einsum("ij,j->i", V[:j + 1], w)
            w -= np.einsum("i,ij->j", c, V[:j + 1])
            H[:j + 1, j] += c
        H[j + 1, j] = np.sqrt(np.add.reduce(w * w))
        if j + 1 >= k:
            theta, S = np.linalg.eig(H[:j + 1, :j + 1])
            want = np.argsort(-np.abs(theta), kind="stable")[:k]
            theta, S = theta[want], S[:, want]
            if np.all(H[j + 1, j] * np.abs(S[j]) <= 1e-12 * np.abs(theta)):
                return theta, np.einsum("ij,ik->jk", V[:j + 1], S)
        if H[j + 1, j] == 0.0:
            break
        V[j + 1] = w / H[j + 1, j]
    raise CrossSectionError(
        f"shift-invert Arnoldi did not converge {k} eigenpairs in "
        f"{j + 1} steps")


def dirichlet_modes(cs: CrossSection, m: int) -> TransverseModes:
    """Compute the m lowest eigenpairs.

    A full rectangle with constant Vperp (no levelset, every node inside)
    has a separable operator, and its modes are the sampled product sines
    of ``_product_modes``; no matrix is built.  Every other cross-section
    (masks, a varying Vperp, curved shapes) goes to shift-invert Arnoldi
    (relative Ritz residual 1e-12) on one fill-reducing LU
    (``_shift_invert_modes``); for m <= 14 neither path calls threaded
    BLAS.
    On a square, chi_1 is the (1, 2) product mode, even in y1 and odd in
    y2; its partner (2, 1) is equally low, so m = 2 still cuts the basis
    inside a degenerate pair.  The ground state must be simple and
    nodeless; both are checked.  The angular momentum is taken about the
    centroid of the mask.
    """
    if m < 1:
        raise CrossSectionError("m must be >= 1")
    if cs.mask.sum() <= 100:
        raise CrossSectionError("grid too coarse: need > 100 interior nodes")
    if m + 3 > cs.mask.sum():
        # m + 1 pairs are solved for, in a Krylov space of dimension < N
        raise CrossSectionError("m must be <= interior node count - 3")
    if cs.levelset is None and cs.mask.all() and np.all(
            cs.vperp == cs.vperp[0, 0]):
        vals, vecs = _product_modes(cs, m + 1)
    else:
        vals, vecs = _shift_invert_modes(cs, m + 1)
    scale = max(1.0, abs(vals[0]))
    if vals[1] - vals[0] < 1e-8 * scale:
        raise CrossSectionError(
            f"degenerate ground state: E0 = {vals[0]:.8g}, E1 = {vals[1]:.8g}")
    vals, vecs = vals[:m], vecs[:, :m]

    h = cs.h
    chi = np.zeros((m,) + cs.mask.shape)
    for j in range(m):
        # a pairwise sum, not np.linalg.norm: on more than 10000 entries
        # that is a threaded ddot
        sq = vecs[:, j] * vecs[:, j]
        chi[j][cs.mask] = vecs[:, j] / (h * np.sqrt(np.add.reduce(sq)))
    # sign convention: ground state positive in the interior
    for j in range(m):
        if chi[j][cs.mask].sum() < 0:
            chi[j] = -chi[j]
    interior = chi[0][cs.mask]
    if interior.min() < -1e-8 * interior.max():
        raise CrossSectionError("ground mode changes sign in the interior")
    return TransverseModes(cs=cs, energies=vals, chi=chi,
                           origin=cs.centroid())


def _apply_L(chi2d: np.ndarray, cs: CrossSection, origin) -> np.ndarray:
    """Angular momentum L = y1 d/dy2 - y2 d/dy1 about ``origin``.

    Three-point differences where the wave vanishes at the true boundary
    location from the levelset; without one the boundary is taken one spacing
    outside the mask, which reduces to centered differences with zero
    extension.
    """
    h = cs.h
    frac = cs.boundary_fractions
    pad = np.pad(chi2d, 1)

    def deriv(uL, uR, tL, tR):
        A, B = tL * h, tR * h
        return (-B / (A * (A + B)) * uL + (B - A) / (A * B) * chi2d
                + A / (B * (A + B)) * uR)

    d1 = deriv(pad[:-2, 1:-1], pad[2:, 1:-1], frac[(-1, 0)], frac[(1, 0)])
    d2 = deriv(pad[1:-1, :-2], pad[1:-1, 2:], frac[(0, -1)], frac[(0, 1)])
    Y1, Y2 = np.meshgrid(cs.y1 - origin[0], cs.y2 - origin[1], indexing="ij")
    out = Y1 * d2 - Y2 * d1
    out[~cs.mask] = 0.0
    return out

def angular_momentum_norm(modes: TransverseModes) -> float:
    """||L chi_0||^2 about ``modes.origin``, the mask centroid."""
    cs = modes.cs
    L0 = _apply_L(modes.chi[0], cs, modes.origin)
    return float(cs.h**2 * np.sum(L0**2))


def overlap_tensor(modes: TransverseModes) -> np.ndarray:
    """O[a,b,c,d] = integral of chi_a chi_b chi_c chi_d; symmetric in all
    index permutations, O[0,0,0,0] equals the quartic integral."""
    m = len(modes.energies)
    h = modes.cs.h
    flat = modes.chi.reshape(m, -1)
    return h**2 * np.einsum("ax,bx,cx,dx->abcd", flat, flat, flat, flat)


def gap_scaling(modes: TransverseModes, eps: float) -> float:
    """Physical transverse gap (E1 - E0)/eps^2 after confinement scaling."""
    if eps <= 0:
        raise CrossSectionError("eps must be positive")
    return modes.gap / eps**2


def rayleigh_residual(modes: TransverseModes) -> float:
    """Max residual ||(A - E_j) chi_j|| over the returned modes."""
    A = _laplacian(modes.cs)
    res = 0.0
    for j, E in enumerate(modes.energies):
        v = modes.chi[j][modes.cs.mask]
        v = v / np.linalg.norm(v)
        res = max(res, float(np.linalg.norm(A @ v - E * v)))
    return res
