"""Exact few-boson simulator on a quasi-1D lattice.

The single-particle space is a periodic x-lattice tensored with a truncated
set of transverse eigenmodes.  Bosonic symmetry is structural: states live in
the occupation-number basis of the lattice modes.  The module assembles the
(renormalized) many-body Hamiltonian, propagates it with a Lanczos
exponential integrator, and extracts reduced density matrices, energies and
transverse-excitation probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations_with_replacement
from math import comb
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dstev

from .scaling import PairPotential, ScalingPoint, pair_kernel
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

    def transverse_offsets(self) -> np.ndarray:
        E = self.transverse_energies
        return (E - E[0]) / self.eps**2


@dataclass
class FockBasis:
    """All occupation vectors of N bosons over d modes, lexicographic with
    the first occupation descending.

    A state's position is its combinatorial rank (Knuth, TAOCP 4A,
    7.2.1.3): with L_i = N - (n_0 + ... + n_{i-1}) particles left for modes
    i..d-1, it is the sum over i = 0..d-2 of C(L_{i+1} + d-i-2, d-i-1), the
    number of states that agree with n on modes 0..i-1 and put more than n_i
    particles on mode i.
    """

    N: int
    d: int
    occupations: np.ndarray              # (dim, d) int8

    @property
    def dim(self) -> int:
        return len(self.occupations)

    @cached_property
    def _binomials(self) -> np.ndarray:
        """C(l + k - 1, k) at [i, l] with k = d - i - 1, for l = 0..N: the
        rank's term for L_{i+1} = l, built once."""
        return np.array([[comb(l + self.d - i - 2, self.d - i - 1)
                          for l in range(self.N + 1)]
                         for i in range(self.d - 1)], dtype=np.int64)

    def rank(self, occ: np.ndarray) -> np.ndarray:
        """Positions of the N-particle occupation vectors occ (rows, d),
        ranked column by column with a running L."""
        occ = np.asarray(occ)
        L = np.full(len(occ), self.N)
        out = np.zeros(len(occ), dtype=np.int64)
        for i, table in enumerate(self._binomials):
            L -= occ[:, i]
            out += table[L]
        return out

    @cached_property
    def minus(self) -> "FockBasis":
        """The (N-1)-particle basis over the same modes, built once."""
        return build_basis(self.d, self.N - 1)

    @cached_property
    def lowering(self):
        """``hop`` of every annihilator a_i into ``minus``, built once:
        (modes, target rows, source rows, amplitudes)."""
        return hop(self, self.minus, np.empty((self.d, 0)),
                   np.arange(self.d)[:, None])


def build_basis(d: int, N: int) -> FockBasis:
    """Enumerate the symmetric N-particle basis over d modes, at most 10^6
    states.

    The sorted mode tuples of combinations_with_replacement come in the
    basis order: more particles in the first mode first."""
    if N < 0 or d < 1:
        raise ManyBodyError(f"no Fock basis of N = {N} bosons on "
                            f"d = {d} modes")
    dim, cap = comb(d + N - 1, N), 10**6
    if dim > cap:
        raise ManyBodyError(
            f"Fock dimension C({d + N - 1},{N}) = {dim} exceeds cap {cap}")
    modes = np.fromiter(chain.from_iterable(
        combinations_with_replacement(range(d), N)), dtype=np.intp,
        count=dim * N).reshape(dim, N)
    occs = np.zeros((dim, d), dtype=np.int8)
    np.add.at(occs, (np.arange(dim)[:, None], modes), 1)
    return FockBasis(N=N, d=d, occupations=occs)


def hop(basis: FockBasis, target: FockBasis, create, annihilate):
    """Matrix elements of T monomials a+_{p_1}..a+_{p_k} a_{s_1}..a_{s_l}.

    create (T, k) and annihilate (T, l) hold each monomial's mode indices;
    k or l may be 0.  target is the basis with N + k - l particles.
    Returns (term, rows, cols, amps): monomial term maps basis state cols to
    amps times target state rows, once for every source state it does not
    annihilate.  The operators act right to left.
    """
    create = np.asarray(create, dtype=np.intp)
    annihilate = np.asarray(annihilate, dtype=np.intp)
    if target.N != basis.N + create.shape[1] - annihilate.shape[1]:
        raise ManyBodyError("target basis has the wrong particle number")
    occ = basis.occupations
    ok = np.ones((len(annihilate), basis.dim), dtype=bool)
    for c in range(annihilate.shape[1]):
        # a_s needs one particle more than the annihilators to its right take
        need = 1 + (annihilate[:, c + 1:] == annihilate[:, c:c + 1]).sum(1)
        ok &= occ[:, annihilate[:, c]].T >= need[:, None]
    term, cols = np.nonzero(ok)
    tgt = occ[cols]
    e = np.arange(len(cols))
    f = np.ones(len(cols))
    for s in annihilate.T[::-1]:
        i = s[term]
        f *= tgt[e, i]
        tgt[e, i] -= 1
    for p in create.T[::-1]:
        i = p[term]
        tgt[e, i] += 1
        f *= tgt[e, i]
    return term, target.rank(tgt), cols, np.sqrt(f)


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
                dx: float):
    """Transverse-projected x-kernel of the scaled interaction.

    Returns (offsets, K) where offsets are lattice displacements g' - g with
    nonzero coupling and K[o, a, b, c, d] is the pair-interaction matrix
    element between sites at distance offsets[o]*dx, transverse transitions
    d->a on the first particle and c->b on the second: ``pair_kernel`` at
    x = offsets*dx divided by N, which gives the full
    w^{eps,beta,N}/(N-1) = (eps^2/(N mu^3)) w prefactor.

    When mu < 2 dx the kernel collapses to on-site with the lattice sum
    preserving the transverse-weighted interaction mass (trapezoid over 201
    points of [-mu, mu]).
    """
    eps, mu, N = spt.eps, spt.mu, spt.N
    chi, h = modes.chi, modes.cs.h
    if mu < 2.0 * dx:
        xf = np.linspace(-mu, mu, 201)
        mass = np.trapezoid(pair_kernel(chi, h, w, eps, mu, xf) / N, xf, axis=0)
        return np.array([0]), (mass / dx)[None, ...]

    n_off = int(np.floor(mu / dx))
    offsets = np.arange(-n_off, n_off + 1)
    return offsets, pair_kernel(chi, h, w, eps, mu, offsets * dx) / N


# ---------------------------------------------------------------------------
# Hamiltonian assembly


def one_body_matrix(spb: SingleParticleBasis) -> np.ndarray:
    """One-particle Hamiltonian on the static lattice: 3-point periodic
    Laplacian in x plus the renormalized transverse offsets
    (E_j - E_0)/eps^2.  The paper's external potential V(t, x) acts on the
    effective 1D model (``nls.Potential1D``), not here."""
    h = np.diag(2.0 / spb.dx**2 + np.tile(spb.transverse_offsets(), spb.G_x))
    # neighbouring sites (g +- 1) mod G_x are modes i +- m mod d; they are
    # one site at G_x = 2 and the site itself at G_x = 1, so the bonds add
    i = np.arange(spb.d)
    for shift in (spb.m, -spb.m):
        h[i, (i + shift) % spb.d] -= 1.0 / spb.dx**2
    return h


def pair_terms(offsets: np.ndarray, K: np.ndarray, d: int, G_x: int = None,
               m: int = None):
    """The pair interaction (1/2) sum K[o,a,b,c,d] a+_p a+_q a_r a_s with
    p = (g,a), q = (g+o,b), r = (g+o,c), s = (g,d), as arrays
    (p, q, r, s, coef) over the d = G_x * m lattice modes (g, j) = g * m + j,
    sites taken modulo G_x.

    m = K.shape[1] and G_x = d / m; a passed G_x or m that disagrees is
    refused.  coef holds 0.5 K; entries with |0.5 K| < 1e-16 are dropped, and
    terms that share (p, q, r, s) are summed into one.
    """
    half = 0.5 * np.asarray(K)
    m_K = half.shape[1] if half.ndim == 5 else 0
    if not m_K or d % m_K or m not in (None, m_K) \
            or G_x not in (None, d // m_K):
        raise ManyBodyError(f"layout G_x = {G_x}, m = {m} does not fit "
                            f"d = {d} and a kernel of shape {half.shape}")
    G_x, m = d // m_K, m_K
    o, a, b, c, dd = np.nonzero(np.abs(half) >= 1e-16)
    g = np.arange(G_x)[:, None]
    g2 = (g + np.asarray(offsets)[o]) % G_x
    keys = np.stack(np.broadcast_arrays(g * m + a, g2 * m + b, g2 * m + c,
                                        g * m + dd)).reshape(4, -1)
    keys, inv = np.unique(keys, axis=1, return_inverse=True)
    coef = np.zeros(keys.shape[1], dtype=half.dtype)
    np.add.at(coef, inv.ravel(), np.tile(half[o, a, b, c, dd], G_x))
    return (*keys, coef)


def _one_body(h_one, d: int) -> np.ndarray:
    if np.shape(h_one) != (d, d):
        raise ManyBodyError(f"one-body matrix of shape {np.shape(h_one)} "
                            f"on {d} modes")
    return np.asarray(h_one)


def build_hamiltonian(basis: FockBasis, h_one: np.ndarray,
                      offsets: np.ndarray = None, K: np.ndarray = None,
                      G_x: int = None, m: int = None) -> sp.csr_matrix:
    """Second-quantized Hamiltonian: sum h_ij a+_i a_j plus
    (1/2) sum K[o,a,b,c,d] a+_(g,a) a+_(g+o,b) a_(g+o,c) a_(g,d).

    Off-diagonal elements come from ``hop``, the interaction from
    ``pair_terms`` (which also derives and checks G_x and m).  Hermitian to
    round-off by construction (symmetric inputs are enforced)."""
    occ = basis.occupations
    dim, d = occ.shape
    h_one = _one_body(h_one, d)
    h_one = 0.5 * (h_one + h_one.T.conj())

    # a numpy sum, not a threaded dgemv (see the note above ``_re_dot``)
    diag = (occ * np.real(np.diag(h_one))).sum(axis=1)
    ii, jj = np.nonzero(np.abs(h_one - np.diag(np.diag(h_one))) > 1e-15)
    term, tgt, src, amp = hop(basis, basis, ii[:, None], jj[:, None])
    rows, cols, vals = [tgt], [src], [amp * h_one[ii, jj][term]]

    if K is not None:
        p, q, r, s, coef = pair_terms(offsets, K, d, G_x, m)
        term, tgt, src, amp = hop(basis, basis, np.stack([p, q], 1),
                                  np.stack([r, s], 1))
        rows.append(tgt)
        cols.append(src)
        vals.append(amp * coef[term])

    H = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dim, dim), dtype=complex)
    H = H + sp.diags(diag.astype(complex))
    defect = abs(H - H.getH()).max()
    if defect > 1e-12:
        raise ManyBodyError(f"assembled Hamiltonian not Hermitian: {defect:.3e}")
    return H


# ---------------------------------------------------------------------------
# propagation


# No Fock-space product calls threaded BLAS.  Above 10000 entries OpenBLAS
# threads zdotc, ddot, zgemv and dgemv, and dsyevd from k = 32; the worker
# thread one call wakes spins about 0.13 s after its last job, through the
# sparse matvecs that follow, for no gain in wall time.  Inner products are
# ``_re_dot``, products with the occupation table and the lowered states
# are numpy sums or einsum, and the Krylov exponential is LAPACK's
# tridiagonal solver.


def _re_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b> of two contiguous complex vectors, as one real sum over
    the product of their float views.  Not BLAS (see above).
    ``np.add.reduce`` sums pairwise, so the round-off grows like log n, not
    like einsum's n."""
    return float(np.add.reduce(a.view(float) * b.view(float)))


def _expm_e1(alpha: np.ndarray, beta: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt T) e_1 for the symmetric tridiagonal T with diagonal alpha
    (k entries) and off-diagonal beta[:k - 1], by LAPACK's dstev.  The
    dense eigh (dsyevd) would wake threaded BLAS from k = 32; dstev's
    wrapper wants max(k - 1, 1) off-diagonal entries, and the one it gets
    at k = 1 is not read."""
    k = len(alpha)
    evals, evecs, info = dstev(alpha, beta[:max(k - 1, 1)])
    if info:
        raise ManyBodyError(f"tridiagonal eigensolver failed at k = {k} "
                            f"(info {info})")
    return evecs @ (np.exp(-1j * dt * evals) * evecs[0])


def lanczos_expm_apply(H, v: np.ndarray, dt: float,
                       kdim: int = 40) -> np.ndarray:
    """Apply exp(-i dt H) to v, for Hermitian H, by the Lanczos method.

    The Krylov vectors come from the plain three-term recurrence
    beta_j u_{j+1} = H u_j - alpha_j u_j - beta_{j-1} u_{j-1}, with no
    re-orthogonalization: they lose orthogonality in floating point, but
    T_k, the tridiagonal matrix of the alpha_j and beta_j, is an exact
    Lanczos matrix of a nearby spectrum, so the result keeps the accuracy of
    a polynomial approximation of the exponential (Druskin, Greenbaum &
    Knizhnerman 1998, SIAM J. Sci. Comput. 19:38; Musco, Musco & Sidford
    2018, SODA).  It stops at the first k with beta_k = 0 or with the a
    posteriori estimate (Saad 1992) of the error relative to ||v||,
    beta_k |[exp(-i dt T_k)]_{k,1}|, <= 1e-12.  When kdim vectors miss that
    tolerance, the step is two half steps of dt/2 under the same rules.  A
    non-finite estimate or kdim < 2 raise ManyBodyError.
    """
    if kdim < 2:
        # with one vector the estimate is beta_1 for every dt, so half steps
        # could never meet the tolerance
        raise ManyBodyError(f"kdim = {kdim}: need at least 2 Krylov vectors")
    u = np.ascontiguousarray(v, dtype=complex)
    beta0 = np.sqrt(_re_dot(u, u))
    if beta0 == 0:
        return v
    alpha, beta = np.zeros(kdim), np.zeros(kdim)
    U = [u / beta0]
    for j in range(kdim):
        w = H @ U[j]
        alpha[j] = _re_dot(U[j], w)
        w -= alpha[j] * U[j]
        if j:
            w -= beta[j - 1] * U[j - 1]
        beta[j] = np.sqrt(_re_dot(w, w))
        coef = _expm_e1(alpha[:j + 1], beta, dt)
        err = beta[j] * abs(coef[-1])
        if not np.isfinite(err):
            raise ManyBodyError(f"non-finite Krylov error estimate at "
                                f"k = {j + 1}")
        if err <= 1e-12:
            return beta0 * sum(c * u for c, u in zip(coef, U))
        U.append(w / beta[j])
    half = lanczos_expm_apply(H, v, dt / 2, kdim)
    return lanczos_expm_apply(H, half, dt / 2, kdim)


def evolve_state(basis: FockBasis, H, psi0: np.ndarray, T: float,
                 dt: float, store_every: int = None) -> list:
    """Propagate under the static Hamiltonian H over T in steps of the
    required dt, shortened to T / ceil(T / dt); returns a list of (t, psi)
    pairs.

    Each step of dt is one ``lanczos_expm_apply`` call with tolerance 1e-12
    relative to the state's norm and at most 40 Krylov vectors; a step that
    they cannot resolve is split into half steps inside that call, so the
    stored times stay multiples of dt.  psi0 is normalized, the steps are
    not: the stored norms show the propagator's own drift.
    """
    psi = np.ascontiguousarray(psi0, dtype=complex)
    psi = psi / np.sqrt(_re_dot(psi, psi))
    n_steps, dt = _steps(T, dt)
    if store_every is None:
        store_every = n_steps
    out = [(0.0, psi.copy())]
    for step in range(n_steps):
        psi = lanczos_expm_apply(H, psi, dt)
        if not np.isfinite(_re_dot(psi, psi)):
            raise ManyBodyError(f"propagation failed at step {step}")
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


def _steps(T: float, dt: float):
    """(n, T / n) with n = ceil(T / dt - 1e-9), so that dt = T / n' gives
    n' steps despite round-off in T / dt; T and dt must be positive."""
    if not (T > 0 and dt > 0):
        raise ManyBodyError(f"T = {T} and dt = {dt} must be positive")
    n = max(1, int(np.ceil(T / dt - 1e-9)))
    return n, T / n


# ---------------------------------------------------------------------------
# observables


def lower(basis: FockBasis, psi: np.ndarray):
    """Apply every annihilator a_i to psi, an array of shape (..., dim).

    Returns (basis.minus, out): the (N-1)-particle basis and
    out[..., i, :] = a_i psi on it.  a_i maps basis states one-to-one, so
    each output entry receives a single amplitude.
    """
    minus = basis.minus
    modes, tgt, src, amp = basis.lowering
    psi = np.asarray(psi)
    out = np.zeros(psi.shape[:-1] + (basis.d, minus.dim), dtype=complex)
    out[..., modes, tgt] = amp * psi[..., src]
    return minus, out


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
    return np.einsum("i,ij->j", np.abs(psi) ** 2, basis.occupations)


def excitation_probability(basis: FockBasis, psi: np.ndarray,
                           spb: SingleParticleBasis) -> float:
    """Expected fraction of particles outside the transverse ground mode."""
    occ_exp = mode_occupations(basis, psi)
    mask = np.arange(spb.d) % spb.m != 0
    return float(occ_exp[mask].sum() / basis.N)


def energy_per_particle(basis: FockBasis, psi: np.ndarray, H) -> float:
    """<psi, H psi>/N for the assembled (already renormalized) Hamiltonian."""
    psi = np.ascontiguousarray(psi, dtype=complex)
    return _re_dot(psi, H @ psi) / basis.N


# ---------------------------------------------------------------------------
# lattice mean-field reference dynamics


def _mean_field(h_one, offsets, K, G_x: int, m: int, N: int,
                d: int) -> Callable:
    """v -> H_mf(v) v = h v + 2 (N-1) sum_t coef_t conj(v_q) v_r v_s e_p
    over the ``pair_terms``: the Hartree right-hand side times i."""
    h_one = _one_body(h_one, d)
    p, q, r, s, coef = pair_terms(offsets, K, d, G_x, m)
    coef = 2 * (N - 1) * coef

    def apply(v):
        hv = h_one @ v
        np.add.at(hv, p, coef * np.conj(v[q]) * v[r] * v[s])
        return hv

    return apply


def stationary_bound(h_one) -> float:
    """The largest mean-field residual that counts as stationary: round-off,
    1e-12 times the 1-norm of the one-body matrix, which grows as 1/eps^2
    and 1/dx^2."""
    return 1e-12 * max(1.0, np.linalg.norm(h_one, 1))


def hartree_evolve(h_one, offsets, K, G_x: int, m: int, N: int,
                   phi0: np.ndarray, T: float, dt: float = 1e-3):
    """Mean-field (Hartree) evolution of a one-body vector under the same
    lattice and kernel as the many-body model.

    i dphi/dt = H_mf(phi) phi (see ``_mean_field``) from the normalized
    phi0.  Returns a list of (t, phi) frames at every step, t accumulated by
    repeated addition of the step.  A phi0 whose residual under its own mean
    field (``mean_field_stationary``) is at most ``stationary_bound`` is a
    stationary solution: its frames are exp(-i lambda t) phi0, exact, and
    no step is integrated.  Any other phi0 is integrated by RK4.
    """
    h_mf = _mean_field(h_one, offsets, K, G_x, m, N, len(phi0))
    phi = np.asarray(phi0, dtype=complex)
    phi = phi / np.linalg.norm(phi)
    n_steps, dt = _steps(T, dt)
    lam, residual = _rayleigh(h_mf, phi)
    if residual > stationary_bound(h_one):
        return _rk4(lambda t, v: -1j * h_mf(v), phi, n_steps, dt)
    t = np.cumsum(np.concatenate([[0.0], np.full(n_steps, dt)]))
    return list(zip(t.tolist(), np.exp(-1j * lam * t)[:, None] * phi))


def _rk4(rhs: Callable, phi: np.ndarray, n_steps: int, dt: float) -> list:
    """Classical RK4 for dphi/dt = rhs(t, phi) from t = 0: the frames
    (t, phi) before the first and after every step, t accumulated by
    repeated addition of dt."""
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


def _rayleigh(h_mf: Callable, phi: np.ndarray):
    """(lambda, residual) of a unit phi under the mean field h_mf."""
    hphi = h_mf(phi)
    lam = np.vdot(phi, hphi).real
    return float(lam), float(np.linalg.norm(hphi - lam * phi))


def mean_field_stationary(h_one, offsets, K, G_x: int, m: int, N: int,
                          phi: np.ndarray):
    """(lambda, residual) of a unit phi under its own static mean field:
    lambda = <phi, H_mf(phi) phi> and residual
    ||H_mf(phi) phi - lambda phi||, with H_mf(phi) phi the Hartree
    right-hand side of ``hartree_evolve`` times i.

    A zero residual makes exp(-i lambda t) phi the exact Hartree solution
    from phi, so its projector |phi><phi| is the mean-field reference at
    every time."""
    phi = np.asarray(phi, dtype=complex)
    return _rayleigh(_mean_field(h_one, offsets, K, G_x, m, N, len(phi)), phi)
