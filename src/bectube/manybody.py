"""Exact few-boson simulator on a quasi-1D lattice.

The single-particle space is a periodic x-lattice tensored with a truncated
set of transverse eigenmodes.  Bosonic symmetry is structural: states live in
the occupation-number basis of the lattice modes.  The module assembles the
(renormalized) many-body Hamiltonian, propagates it with a Lanczos
exponential integrator, and extracts reduced density matrices, energies and
transverse-excitation probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator
from scipy.signal import fftconvolve

from .scaling import PairPotential, ScalingPoint
from .transverse import TransverseModes


class ManyBodyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# single-particle lattice and Fock basis


@dataclass(frozen=True)
class SingleParticleBasis:
    """x-lattice of G_x sites tensored with m transverse modes.

    Mode label i = g * m + j for site g and transverse mode j.  Transverse
    energies enter relative to the ground mode, scaled by 1/eps^2, so the
    assembled Hamiltonian is already renormalized by N E_0 / eps^2.
    """

    G_x: int
    dx: float
    eps: float
    transverse_energies: np.ndarray      # (m,) absolute energies E_j

    @property
    def m(self) -> int:
        return len(self.transverse_energies)

    @property
    def d(self) -> int:
        return self.G_x * self.m

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.G_x)

    def mode(self, i: int):
        return divmod(i, self.m)

    def transverse_offsets(self) -> np.ndarray:
        E = self.transverse_energies
        return (E - E[0]) / self.eps**2


@dataclass
class FockBasis:
    """All occupation vectors of N bosons over d modes, lexicographic."""

    N: int
    d: int
    occupations: np.ndarray              # (dim, d) int8
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.occupations)


def build_basis(d: int, N: int, cap: int = 10**6) -> FockBasis:
    """Enumerate the symmetric N-particle basis over d modes."""
    dim = comb(d + N - 1, N)
    if dim > cap:
        raise ManyBodyError(
            f"Fock dimension C({d + N - 1},{N}) = {dim} exceeds cap {cap}")
    occs = np.zeros((dim, d), dtype=np.int8)
    row = 0

    def rec(pos, left, current):
        nonlocal row
        if pos == d - 1:
            current[pos] = left
            occs[row] = current
            row += 1
            current[pos] = 0
            return
        for n in range(left, -1, -1):
            current[pos] = n
            rec(pos + 1, left - n, current)
            current[pos] = 0

    rec(0, N, np.zeros(d, dtype=np.int8))
    index = {occs[i].tobytes(): i for i in range(dim)}
    return FockBasis(N=N, d=d, occupations=occs, index=index)


def condensate_state(basis: FockBasis, phi: np.ndarray) -> np.ndarray:
    """Amplitudes of the product state phi^(x)N in the occupation basis."""
    phi = np.asarray(phi, dtype=complex)
    phi = phi / np.linalg.norm(phi)
    N = basis.N
    occ = basis.occupations.astype(int)
    logfacs = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, N + 1))]))
    lognorm = 0.5 * (logfacs[N] - logfacs[occ].sum(axis=1))
    return np.exp(lognorm) * np.prod(phi**occ, axis=1)


# ---------------------------------------------------------------------------
# interaction kernel on the lattice


def mode_kernel(modes: TransverseModes, w: PairPotential, spt: ScalingPoint,
                dx: float, n_fine: int = 201):
    """Transverse-projected x-kernel of the scaled interaction.

    Returns (offsets, K) where offsets are lattice displacements g' - g with
    nonzero coupling and K[o, a, b, c, d] is the pair-interaction matrix
    element between sites at distance offsets[o]*dx, transverse transitions
    d->a on the first particle and c->b on the second.  Includes the full
    w^{eps,beta,N}/(N-1) = (eps^2/(N mu^3)) w prefactor.

    When mu < 2 dx the kernel collapses to on-site with the lattice sum
    preserving the transverse-weighted interaction mass.
    """
    eps, mu, N = spt.eps, spt.mu, spt.N
    m = len(modes.energies)
    h = modes.cs.h
    n1, n2 = modes.chi[0].shape
    lag1 = h * np.arange(-(n1 - 1), n1)
    lag2 = h * np.arange(-(n2 - 1), n2)

    # pair products chi_a chi_d and their lag correlations
    prods = {}
    for a in range(m):
        for dd in range(a, m):
            prods[(a, dd)] = prods[(dd, a)] = modes.chi[a] * modes.chi[dd]
    corr = {}
    for (a, dd), A in prods.items():
        for (b, c), B in prods.items():
            key = (a, dd, b, c)
            if key in corr:
                continue
            Q = fftconvolve(A, B[::-1, ::-1]) * h**2
            itp = RegularGridInterpolator((lag1, lag2), Q, bounds_error=False,
                                          fill_value=0.0)
            corr[key] = itp

    half = min(mu / eps, float(lag1[-1]))
    n_lag = max(17, int(np.ceil(16 * half / (mu / eps))) | 1)
    fy = np.linspace(-half, half, n_lag)
    hf = fy[1] - fy[0]
    FY1, FY2 = np.meshgrid(fy, fy, indexing="ij")
    pts = np.stack([FY1.ravel(), FY2.ravel()], axis=-1)

    def kernel_at(x_sep):
        s = (x_sep**2 + eps**2 * (FY1**2 + FY2**2)) / mu**2
        wv = np.where(s < 1.0, w.wt(np.minimum(s, 1.0)), 0.0)
        K = np.zeros((m, m, m, m))
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    for dd in range(m):
                        Q = corr[(a, dd, b, c)](pts).reshape(FY1.shape)
                        K[a, b, c, dd] = np.sum(Q * wv) * hf**2
        return eps**2 / (N * mu**3) * K

    if mu < 2.0 * dx:
        # on-site collapse: preserve the lattice-summed kernel mass
        xf = np.linspace(-mu, mu, n_fine)
        vals = np.stack([kernel_at(x) for x in xf])
        mass = np.trapezoid(vals, xf, axis=0)      # (m,m,m,m)
        return np.array([0]), (mass / dx)[None, ...]

    n_off = int(np.floor(mu / dx))
    offsets = np.arange(-n_off, n_off + 1)
    K = np.stack([kernel_at(o * dx) for o in offsets])
    return offsets, K


# ---------------------------------------------------------------------------
# Hamiltonian assembly


def one_body_matrix(spb: SingleParticleBasis, v_static: np.ndarray = None,
                    v_ext: Callable = None, t: float = 0.0) -> np.ndarray:
    """One-particle Hamiltonian on the lattice: 3-point periodic Laplacian in
    x, static potential, external potential V(t, x, 0), and the renormalized
    transverse offsets (E_j - E_0)/eps^2."""
    G, m, dx = spb.G_x, spb.m, spb.dx
    d = spb.d
    h = np.zeros((d, d))
    x = spb.x
    diag_x = np.full(G, 2.0 / dx**2)
    if v_static is not None:
        diag_x = diag_x + np.asarray(v_static, dtype=float)
    if v_ext is not None:
        diag_x = diag_x + np.asarray(v_ext(t, x), dtype=float)
    offs = spb.transverse_offsets()
    for g in range(G):
        for j in range(m):
            i = g * m + j
            h[i, i] = diag_x[g] + offs[j]
            for g2 in ((g + 1) % G, (g - 1) % G):
                h[i, g2 * m + j] = -1.0 / dx**2
    return h


def build_hamiltonian(basis: FockBasis, h_one: np.ndarray,
                      offsets: np.ndarray = None, K: np.ndarray = None,
                      G_x: int = None, m: int = 1) -> sp.csr_matrix:
    """Second-quantized Hamiltonian: sum h_ij a+_i a_j plus
    (1/2) sum K[o,a,b,c,d] a+_(g,a) a+_(g+o,b) a_(g+o,c) a_(g,d).

    Hermitian to round-off by construction (symmetric inputs are enforced)."""
    occ = basis.occupations.astype(np.int64)
    dim, d = occ.shape
    h_one = 0.5 * (h_one + h_one.T.conj())

    rows, cols, vals = [], [], []

    # one-body diagonal
    diag = occ @ np.real(np.diag(h_one))

    # one-body off-diagonal
    ii, jj = np.nonzero(np.triu(np.abs(h_one), k=1) > 1e-15)
    for i, j in zip(ii, jj):
        hij = h_one[i, j]
        sel = np.nonzero(occ[:, j] > 0)[0]
        amp = np.sqrt(occ[sel, j] * (occ[sel, i] + 1.0)) * hij
        for s, a in zip(sel, amp):
            tgt = occ[s].copy()
            tgt[j] -= 1
            tgt[i] += 1
            tix = basis.index[tgt.astype(np.int8).tobytes()]
            rows.append(tix)
            cols.append(s)
            vals.append(a)
            rows.append(s)
            cols.append(tix)
            vals.append(np.conj(a))

    # two-body terms
    if K is not None:
        if G_x is None:
            G_x = d // m
        terms = {}
        for o_idx, o in enumerate(offsets):
            for g in range(G_x):
                g2 = (g + o) % G_x
                for a in range(m):
                    for b in range(m):
                        for c in range(m):
                            for dd in range(m):
                                coef = 0.5 * K[o_idx, a, b, c, dd]
                                if abs(coef) < 1e-16:
                                    continue
                                p, q = g * m + a, g2 * m + b
                                r, s_ = g2 * m + c, g * m + dd
                                key = (p, q, r, s_)
                                terms[key] = terms.get(key, 0.0) + coef
        for (p, q, r, s_), coef in terms.items():
            if p == s_ and q == r:
                # diagonal: a+_p a+_q a_q a_p -> n_p (n_q - delta_pq)
                diag = diag + coef * occ[:, p] * (occ[:, q] - (p == q))
                continue
            sel = np.nonzero((occ[:, s_] > 0)
                             & (occ[:, r] - (r == s_) > 0))[0]
            if len(sel) == 0:
                continue
            n = occ[sel]
            amp = np.sqrt(n[:, s_] * (n[:, r] - (r == s_)))
            tgt = n.copy()
            tgt[:, s_] -= 1
            tgt[:, r] -= 1
            amp = amp * np.sqrt(tgt[:, q] + 1.0)
            tgt[:, q] += 1
            amp = amp * np.sqrt(tgt[:, p] + 1.0)
            tgt[:, p] += 1
            amp = amp * coef
            for row_occ, s0, a0 in zip(tgt.astype(np.int8), sel, amp):
                tix = basis.index[row_occ.tobytes()]
                rows.append(tix)
                cols.append(s0)
                vals.append(a0)

    H = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
    H = H + sp.diags(diag.astype(complex))
    defect = abs(H - H.getH()).max()
    if defect > 1e-12:
        raise ManyBodyError(f"assembled Hamiltonian not Hermitian: {defect:.3e}")
    return H


# ---------------------------------------------------------------------------
# propagation


def lanczos_expm_apply(H, v: np.ndarray, dt: float, kdim: int = 40,
                       tol: float = 1e-12) -> np.ndarray:
    """Apply exp(-i dt H) to v with a Lanczos Krylov approximation."""
    beta0 = np.linalg.norm(v)
    if beta0 == 0:
        return v
    V = [v / beta0]
    alphas, betas = [], []
    for j in range(kdim):
        wv = H @ V[j]
        a = np.vdot(V[j], wv).real
        alphas.append(a)
        wv = wv - a * V[j]
        if j > 0:
            wv = wv - betas[-1] * V[j - 1]
        # full re-orthogonalization for stability
        for u in V:
            wv = wv - np.vdot(u, wv) * u
        b = np.linalg.norm(wv)
        if b < tol:
            break
        betas.append(b)
        V.append(wv / b)
    k = len(alphas)
    T = np.diag(alphas)
    for j in range(len(betas[:k - 1])):
        T[j, j + 1] = T[j + 1, j] = betas[j]
    evals, evecs = np.linalg.eigh(T)
    coef = evecs @ (np.exp(-1j * dt * evals) * evecs[0, :].conj())
    out = np.zeros_like(v)
    for j in range(k):
        out = out + coef[j] * V[j]
    return beta0 * out


def evolve_state(basis: FockBasis, H, psi0: np.ndarray, T: float,
                 dt: float = None, store_every: int = None,
                 kdim: int = 40) -> list:
    """Propagate under a static H (matrix) or H(t) (callable, sampled at the
    step midpoint); norm restored after each step.

    Returns a list of (t, psi) pairs.  For dimensions below 2000 a dense
    eigendecomposition path is available via ``evolve_state_dense``.
    """
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    time_dep = callable(H)
    if dt is None:
        Hmat = H(0.0) if time_dep else H
        hnorm = abs(Hmat).sum(axis=1).max() if sp.issparse(Hmat) else \
            np.abs(Hmat).sum(axis=1).max()
        dt = min(T, max(1e-3, 10.0 / float(hnorm)))
    n_steps = max(1, int(np.ceil(T / dt)))
    dt = T / n_steps
    if store_every is None:
        store_every = n_steps
    out = [(0.0, psi.copy())]
    for step in range(n_steps):
        t_mid = (step + 0.5) * dt
        Hmat = H(t_mid) if time_dep else H
        psi = lanczos_expm_apply(Hmat, psi, dt, kdim=kdim)
        nrm = np.linalg.norm(psi)
        if not np.isfinite(nrm) or nrm == 0:
            raise ManyBodyError(f"propagation failed at step {step}")
        psi = psi / nrm
        if (step + 1) % store_every == 0 or step == n_steps - 1:
            out.append(((step + 1) * dt, psi.copy()))
    return out


def evolve_state_dense(H, psi0: np.ndarray, times: Sequence[float]):
    """Dense eigendecomposition propagator (oracle for dims < 2000)."""
    Hd = H.toarray() if sp.issparse(H) else np.asarray(H)
    if Hd.shape[0] >= 2000:
        raise ManyBodyError("dense propagator limited to dim < 2000")
    evals, evecs = np.linalg.eigh(Hd)
    c0 = evecs.conj().T @ psi0
    return [(t, evecs @ (np.exp(-1j * evals * t) * c0)) for t in times]


# ---------------------------------------------------------------------------
# observables


def lower(basis: FockBasis, psi: np.ndarray):
    """Apply every annihilator a_i to psi, an array of shape (..., dim).

    Returns (basis_minus, out): the (N-1)-particle basis and
    out[..., i, :] = a_i psi on it.  a_i maps basis states one-to-one, so
    each output entry receives a single amplitude.
    """
    basis_minus = build_basis(basis.d, basis.N - 1)
    occ = basis.occupations
    src, mode = np.nonzero(occ)
    amp = np.sqrt(occ[src, mode].astype(float))
    tgt_occ = occ[src]
    tgt_occ[np.arange(len(src)), mode] -= 1
    tgt = np.fromiter((basis_minus.index[row.tobytes()] for row in tgt_occ),
                      dtype=np.intp, count=len(src))
    psi = np.asarray(psi)
    out = np.zeros(psi.shape[:-1] + (basis.d, basis_minus.dim), dtype=complex)
    out[..., mode, tgt] = amp * psi[..., src]
    return basis_minus, out


def reduced_density(basis: FockBasis, psi: np.ndarray, M: int = 1) -> np.ndarray:
    """M-particle reduced density matrix (M in {1, 2}), trace one."""
    if M not in (1, 2):
        raise ManyBodyError("only M in {1, 2} supported at desk scale")
    N, d = basis.N, basis.d
    if M == 2 and N < 2:
        raise ManyBodyError("M = 2 requires N >= 2")
    basis1, A = lower(basis, psi)
    if M == 1:
        gamma = (A @ A.conj().T) / N
    else:
        # rows of B are a_j a_i psi, flattened as i * d + j
        B = lower(basis1, A)[1].reshape(d * d, -1)
        gamma = (B @ B.conj().T) / (N * (N - 1))
    return 0.5 * (gamma + gamma.conj().T)


def trace_distance(gamma: np.ndarray, rho: np.ndarray) -> float:
    """Tr |gamma - rho| via the eigenvalues of the Hermitian difference."""
    diff = np.asarray(gamma) - np.asarray(rho)
    if diff.shape[0] != diff.shape[1] or not np.allclose(
            diff, diff.conj().T, atol=1e-10):
        raise ManyBodyError("inputs must be Hermitian and of equal dimension")
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def mode_occupations(basis: FockBasis, psi: np.ndarray) -> np.ndarray:
    p = np.abs(psi) ** 2
    return p @ basis.occupations.astype(float)


def excitation_probability(basis: FockBasis, psi: np.ndarray,
                           spb: SingleParticleBasis) -> float:
    """Expected fraction of particles outside the transverse ground mode."""
    occ_exp = mode_occupations(basis, psi)
    mask = np.array([spb.mode(i)[1] != 0 for i in range(spb.d)])
    return float(occ_exp[mask].sum() / basis.N)


def energy_per_particle(basis: FockBasis, psi: np.ndarray, H) -> float:
    """<psi, H psi>/N for the assembled (already renormalized) Hamiltonian."""
    return float(np.vdot(psi, H @ psi).real / basis.N)


def g_function(e0: float, t: float, vdot_sup: Callable = None,
               n_quad: int = 64) -> float:
    """g(t) with g(t)^2 = 1 + |E(0)| + int_0^t sup_x |dV/dt(s)| ds."""
    g2 = 1.0 + abs(e0)
    if vdot_sup is not None and t > 0:
        s = np.linspace(0.0, t, n_quad)
        g2 += float(np.trapezoid([vdot_sup(si) for si in s], s))
    return float(np.sqrt(g2))


# ---------------------------------------------------------------------------
# lattice mean-field reference dynamics


def hartree_evolve(h_one, offsets, K, G_x: int, m: int, N: int,
                   phi0: np.ndarray, T: float, dt: float = 1e-3,
                   v_ext: Callable = None, x: np.ndarray = None):
    """Mean-field (Hartree) evolution of a one-body vector under the same
    lattice and kernel as the many-body model.

    i dphi/dt = h phi + (N-1) * contraction(K, |phi|^2) phi, integrated by RK4.
    Returns a list of (t, phi) frames at every step boundary multiple.
    """
    d = len(phi0)
    phi = np.asarray(phi0, dtype=complex)
    phi = phi / np.linalg.norm(phi)

    def nonlinear(v):
        out = np.zeros_like(v)
        dens = np.abs(v) ** 2
        for o_idx, o in enumerate(offsets):
            for g in range(G_x):
                g2 = (g + o) % G_x
                for a in range(m):
                    for b in range(m):
                        for c in range(m):
                            for dd in range(m):
                                coef = K[o_idx, a, b, c, dd]
                                if abs(coef) < 1e-16:
                                    continue
                                # mean-field contraction over the partner particle
                                out[g * m + a] += (coef
                                                   * np.conj(v[g2 * m + b])
                                                   * v[g2 * m + c]
                                                   * v[g * m + dd])
        return (N - 1) * out

    def rhs(t, v):
        hv = h_one @ v
        if v_ext is not None:
            hv = hv + v_ext(t, x)[:, None].repeat(m, axis=1).ravel() * v \
                if m > 1 else hv + v_ext(t, x) * v
        return -1j * (hv + nonlinear(v))

    n_steps = max(1, int(np.ceil(T / dt)))
    dt = T / n_steps
    frames = [(0.0, phi.copy())]
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, phi)
        k2 = rhs(t + dt / 2, phi + dt / 2 * k1)
        k3 = rhs(t + dt / 2, phi + dt / 2 * k2)
        k4 = rhs(t + dt, phi + dt * k3)
        phi = phi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        frames.append((t, phi.copy()))
    return frames


def hartree_energy(h_one, offsets, K, G_x: int, m: int, N: int,
                   phi: np.ndarray) -> float:
    """Per-particle mean-field energy for the same lattice and kernel:
    <phi, h phi> + ((N-1)/2) * two-body contraction on phi."""
    phi = np.asarray(phi, dtype=complex)
    phi = phi / np.linalg.norm(phi)
    e = np.vdot(phi, h_one @ phi).real
    two = 0.0
    for o_idx, o in enumerate(offsets):
        for g in range(G_x):
            g2 = (g + o) % G_x
            for a in range(m):
                for b in range(m):
                    for c in range(m):
                        for dd in range(m):
                            coef = K[o_idx, a, b, c, dd]
                            if abs(coef) < 1e-16:
                                continue
                            two += (coef
                                    * np.conj(phi[g * m + a])
                                    * np.conj(phi[g2 * m + b])
                                    * phi[g2 * m + c]
                                    * phi[g * m + dd]).real
    return float(e + 0.5 * (N - 1) * two)
