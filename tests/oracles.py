"""Reference implementations that the tests compare the program against.

None of these is on a program path: each is a second, plainer way to
compute what a product routine computes, or an input that only the tests
build.
"""

import numpy as np

from bectube import geometry as geo
from bectube import scaling as sc
from bectube import transverse as tv


def masked(y1, y2, mask) -> tv.CrossSection:
    """The nodes of the grid y1 x y2 where mask holds, with no transverse
    potential and no levelset: the input that takes a cross-section with
    holes to the eigensolve."""
    mask = np.asarray(mask, dtype=bool)
    return tv.CrossSection("mask", np.asarray(y1, float),
                           np.asarray(y2, float), mask, np.zeros(mask.shape))


def overlap_tensor(modes: tv.TransverseModes) -> np.ndarray:
    """O[a,b,c,d] = integral of chi_a chi_b chi_c chi_d; symmetric in all
    index permutations, O[0,0,0,0] equals the quartic integral."""
    m = len(modes.energies)
    h = modes.cs.h
    flat = modes.chi.reshape(m, -1)
    return h**2 * np.einsum("ax,bx,cx,dx->abcd", flat, flat, flat, flat)


def rayleigh_residual(modes: tv.TransverseModes) -> float:
    """Max residual ||(A - E_j) chi_j|| over the returned modes."""
    A = tv._laplacian(modes.cs)
    res = 0.0
    for j, E in enumerate(modes.energies):
        v = modes.chi[j][modes.cs.mask]
        v = v / np.linalg.norm(v)
        res = max(res, float(np.linalg.norm(A @ v - E * v)))
    return res


def embed_jacobian_det(r, eps: float, frame: geo.FrameField,
                       twist: geo.TwistSpec) -> float:
    """Central finite-difference Jacobian determinant of the embedding, with
    step 1e-5."""
    h = 1e-5
    r = np.asarray(r, dtype=float)
    J = np.empty((3, 3))
    for j in range(3):
        dp = r.copy()
        dm = r.copy()
        dp[j] += h
        dm[j] -= h
        J[:, j] = (geo.embed(dp, eps, frame, twist)
                   - geo.embed(dm, eps, frame, twist)) / (2 * h)
    return float(np.linalg.det(J))


def convolution_defect_cube(w: sc.PairPotential, eps: float, mu: float,
                            sigma: float) -> float:
    """``scaling.convolution_defect`` summed over the whole 64^3 cube of
    its Fourier grid, not over one octant."""
    xi_max = 8.0 / sigma
    what = sc._radial_ft_table(
        w, k_max=2.0 * xi_max * max(mu, mu / eps) + 1.0)
    w0 = float(what(0.0))
    xi = np.linspace(-xi_max, xi_max, 64)
    X, Y1, Y2 = np.meshgrid(xi, xi, xi, indexing="ij")
    f2 = np.exp(-sigma**2 * (X**2 + Y1**2 + Y2**2))
    K = np.sqrt((mu * X) ** 2 + (mu / eps) ** 2 * (Y1**2 + Y2**2))
    defect2 = np.sum((what(K) - w0) ** 2 * f2)
    grad2 = np.sum((X**2 + Y1**2 + Y2**2) * f2)
    return float(np.sqrt(defect2 / grad2))


def convolution_defect_direct(w: sc.PairPotential, eps: float, mu: float,
                              sigma: float = 1.0) -> float:
    """Real-space oracle for the convolution defect (3D grid quadrature on
    96^3 points of the periodic box [-5, 5)^3).

    Only feasible when mu and mu/eps are not much smaller than the spacing
    10/96; used to cross-check the spectral path at moderate scale
    separation.
    """
    x = np.linspace(-5.0, 5.0, 96, endpoint=False)
    d = x[1] - x[0]
    if d > mu / 4.0:
        raise sc.ScalingError("quadrature grid coarser than mu/4")
    X, Y1, Y2 = np.meshgrid(x, x, x, indexing="ij")
    f = np.exp(-(X**2 + Y1**2 + Y2**2) / (2 * sigma**2))
    s = (X**2 + eps**2 * (Y1**2 + Y2**2)) / mu**2
    ker = eps**2 / mu**3 * w.at_r2(s)
    conv = np.fft.ifftn(np.fft.fftn(f) * np.fft.fftn(np.fft.ifftshift(ker))).real
    conv *= d**3
    defect = np.sqrt(np.sum((conv - f * w.mass) ** 2) * d**3)
    gf = np.gradient(f, d, edge_order=2)
    grad = np.sqrt(np.sum(gf[0]**2 + gf[1]**2 + gf[2]**2) * d**3)
    return float(defect / grad)
