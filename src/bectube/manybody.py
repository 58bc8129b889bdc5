"""Exact few-boson simulator on a quasi-1D lattice.

The single-particle space is a periodic x-lattice tensored with a truncated
set of transverse eigenmodes.  Bosonic symmetry is structural: states live in
the occupation-number basis of the lattice modes.  The module assembles the
(renormalized) many-body Hamiltonian, propagates it with a Lanczos
exponential integrator, and extracts the one-particle density, energies and
transverse-excitation probabilities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
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
        rank's term for L_{i+1} = l, built once.  An entry does not depend
        on N, so the table of the larger N serves both bases of a ``hop``."""
        return np.array([[comb(l + self.d - i - 2, self.d - i - 1)
                          for l in range(self.N + 1)]
                         for i in range(self.d - 1)], dtype=np.int64)

    @cached_property
    def minus(self) -> "FockBasis":
        """The (N-1)-particle basis over the same modes, ``build_basis``'s
        shared one."""
        return build_basis(self.d, self.N - 1)

    @cached_property
    def lowering(self):
        """``hop`` of every annihilator a_i into ``minus``, built once:
        (modes, target rows, source rows, amplitudes), the modes in the
        smallest integer type that holds them."""
        modes, tgt, src, amp = hop(self, self.minus, np.empty((self.d, 0)),
                                   np.arange(self.d)[:, None])
        return modes.astype(np.min_scalar_type(self.d)), tgt, src, amp


@dataclass
class MomentumBlock(FockBasis):
    """The states of zero total momentum of the N-boson basis over the
    momentum modes (k, j) -> k * m + j of a ring of G_x sites:
    sum k n_(k, j) = 0 mod G_x.  Rows keep the basis order; ranks holds
    each row's position in the full basis, increasing.  Its ``minus`` is
    the full (N-1)-particle basis."""

    G_x: int
    ranks: np.ndarray                    # (dim,) int32

    @cached_property
    def _rows(self) -> np.ndarray:
        """The row of every full-basis rank, -1 off the block."""
        rows = np.full(comb(self.d + self.N - 1, self.N), -1, dtype=np.int32)
        rows[self.ranks] = np.arange(self.dim, dtype=np.int32)
        return rows

    def find(self, ranks: np.ndarray) -> np.ndarray:
        """The rows of full-basis ranks; a rank outside the block is
        refused."""
        rows = self._rows[ranks]
        if np.any(rows < 0):
            raise ManyBodyError("a monomial leaves the zero-momentum block")
        return rows


def build_basis(d: int, N: int) -> FockBasis:
    """The symmetric N-particle basis over d modes, at most 10^6 states and
    N <= 127, the largest occupation an int8 holds.  A process builds one
    basis per (d, N) and every caller shares it, with the ``minus`` chain
    and the ``lowering`` maps it caches."""
    return _enumerate(d, N)


@functools.cache
def _enumerate(d: int, N: int) -> FockBasis:
    """Enumerate the basis of ``build_basis``.

    The occupations of the last k modes holding n particles are the blocks
    n0 = n..0 stacked in that order, each n0 in front of the last k - 1
    modes holding n - n0: the basis order, more particles in the first mode
    first.  One step per mode builds every n <= N at once."""
    if N < 0 or d < 1:
        raise ManyBodyError(f"no Fock basis of N = {N} bosons on "
                            f"d = {d} modes")
    if N > 127:
        raise ManyBodyError(f"N = {N} bosons exceed the int8 occupations "
                            f"(at most 127)")
    dim, cap = comb(d + N - 1, N), 10**6
    if dim > cap:
        raise ManyBodyError(
            f"Fock dimension C({d + N - 1},{N}) = {dim} exceeds cap {cap}")
    # occ: the last k modes holding n <= N particles, by n ascending and in
    # basis order within one n, from the k = 0 vacuum; each n takes the
    # rows of total <= n, each behind n - total.  The last step takes n = N
    # only.
    occ, total = np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=int)
    for k in range(1, d + 1):
        n = np.arange(N if k == d else 0, N + 1)
        counts = np.searchsorted(total, n, side="right")
        rows = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                   counts)
        n = np.repeat(n, counts)
        occ = np.hstack(((n - total[rows]).astype(np.int8)[:, None],
                         occ[rows]))
        total = n
    return FockBasis(N=N, d=d, occupations=occ)


def momentum_block(G_x: int, m: int, N: int) -> MomentumBlock:
    """The zero-momentum block of N bosons over the G_x * m momentum modes,
    filtered from ``build_basis``'s full basis."""
    full = build_basis(G_x * m, N)
    momentum = np.zeros(full.dim, dtype=np.int64)
    for i, n_i in enumerate(full.occupations.T):
        momentum += (i // m) * n_i.astype(np.int64)
    ranks = np.flatnonzero(momentum % G_x == 0).astype(np.int32)
    return MomentumBlock(N=N, d=full.d, occupations=full.occupations[ranks],
                         G_x=G_x, ranks=ranks)


def hop(basis: FockBasis, target: FockBasis, create, annihilate):
    """Matrix elements of T monomials a+_{p_1}..a+_{p_k} a_{s_1}..a_{s_l}.

    create (T, k) and annihilate (T, l) hold each monomial's mode indices;
    k or l may be 0.  target is the basis with N + k - l particles.
    Returns (term, rows, cols, amps), the indices int32: monomial term maps
    basis state cols to amps times target state rows, once for every source
    state it does not annihilate.  The operators act right to left.

    Monomials that annihilate the same modes share one mask of the source
    states they do not annihilate, built once; from there every table is
    one entry per returned element.  No target occupation is built.  The
    amplitude multiplies the source occupations the operators see: a_{s_c}
    sees n_s less the annihilators to its right on s, a+_{p_c} sees n_p
    less every annihilator on p, plus the creators to its right on p, plus
    one.  The target's rank is the source's plus the sum over i of
    T[i, L_{i+1} + delta_i] - T[i, L_{i+1}] (T the binomial table, see
    ``FockBasis``), where the monomial shifts L_{i+1} by
    delta_i = (k - l) - #(create <= i) + #(annihilate <= i).  delta is
    constant between the monomial's modes, so with running prefix sums of
    these differences over the modes, one per shift value, the sum takes two
    gathers at each mode where delta changes: at most 2 (k + l) per entry,
    whatever the span of the monomial (a_i shifts all modes below i).  The
    update is additive, so a ``MomentumBlock`` source starts from its rows'
    full-basis ranks, and a block target looks the ranks up, refusing a
    target outside the block.
    """
    create = np.asarray(create, dtype=np.intp)
    annihilate = np.asarray(annihilate, dtype=np.intp)
    k, l = create.shape[1], annihilate.shape[1]
    if target.N != basis.N + k - l:
        raise ManyBodyError("target basis has the wrong particle number")
    by_mode = np.ascontiguousarray(basis.occupations.T)
    # taken[t, c]: annihilators right of column c on the same mode; gain[t,
    # c]: the occupation a+ in column c adds to n_p after the operators
    # right of it
    taken = np.zeros(annihilate.shape, dtype=int)
    gain = np.ones(create.shape, dtype=int)
    for c in range(l):
        taken[:, c] += (annihilate[:, c + 1:] == annihilate[:, c, None]).sum(1)
        gain -= create == annihilate[:, c, None]
    for c in range(k):
        gain[:, c] += (create[:, c + 1:] == create[:, c, None]).sum(1)

    # one mask per group of equal annihilated modes: the group's entries,
    # (group, col) in order, and the factors its annihilators see
    key = (np.ravel_multi_index(annihilate.T, (basis.d,) * l) if l
           else np.zeros(len(annihilate), dtype=np.intp))
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    ann, taken = annihilate[first], taken[first]
    # ok[g, state]: n > taken on every annihilated mode; above[c]: n > c
    above = by_mode > np.arange(l)[:, None, None]
    ok = np.ones((len(first), basis.dim), dtype=bool)
    for c in range(l):
        ok &= above[taken[:, c], ann[:, c]]
    del above
    in_group = np.count_nonzero(ok, axis=1)
    g_of, g_cols = np.nonzero(ok)
    del ok
    g_amp = np.ones(len(g_cols))
    for c in range(l):
        g_amp *= by_mode[ann[g_of, c], g_cols] - taken[g_of, c]
    del g_of
    # each monomial takes its group's entries
    counts = in_group[group]
    term = np.repeat(np.arange(len(group), dtype=np.int32), counts)
    pick = (np.repeat((np.cumsum(in_group) - in_group)[group]
                      - np.cumsum(counts) + counts, counts)
            + np.arange(counts.sum()))
    cols = g_cols[pick].astype(np.int32)
    f = g_amp[pick]
    del pick, g_cols, g_amp
    for c in range(k):
        f *= by_mode[create[term, c], cols] + gain[term, c]

    # delta[t, i] for i = 0..d-1 (0 at i = d-1), between -l and k;
    # code[t, i] numbers the shifts that occur.  P[c, state] holds the
    # prefix sum over i < x of T[i, L_{i+1} + shifts[c]] - T[i, L_{i+1}] at
    # mode x, with table indices clipped: over a run i = a..b-1 of one shift
    # the clipped terms cancel in P(b) - P(a), so the rank update is the
    # sum over the modes x where delta changes, the events, of
    # P[delta_{x-1}](x) - P[delta_x](x)
    modes = np.arange(basis.d)
    at = np.arange(len(group))[:, None] * basis.d
    size = len(group) * basis.d
    delta = (k - l) + np.cumsum(
        (np.bincount((at + annihilate).ravel(), minlength=size)
         - np.bincount((at + create).ravel(), minlength=size))
        .reshape(-1, basis.d), axis=1)
    used = np.bincount((delta + l).ravel(), minlength=k + l + 1) > 0
    shifts = np.flatnonzero(used) - l
    code = (np.cumsum(used) - 1).astype(np.int32)[delta + l]
    # the events in mode order: those of mode x are the monomials
    # t_ev[bounds[x - 1]:bounds[x]], each over its entries
    # start[t]:start[t + 1], built one mode at a time
    x_ev, t_ev = np.nonzero((code[:, :-1] != code[:, 1:]).T)
    bounds = np.searchsorted(x_ev, modes)
    start = np.cumsum(counts) - counts

    table = (basis if basis.N >= target.N else target)._binomials
    rows = (basis.ranks[cols] if isinstance(basis, MomentumBlock)
            else cols.copy())
    P = np.zeros((len(shifts), basis.dim), dtype=np.int64)
    flat = P.reshape(-1)
    L = np.full(basis.dim, basis.N, dtype=np.intp)
    for x in range(1, basis.d):
        L -= by_mode[x - 1]
        P += (np.take(table[x - 1], L + shifts[:, None], mode="clip")
              - table[x - 1, L])
        t = t_ev[bounds[x - 1]:bounds[x]]
        n = counts[t]
        e = np.repeat(start[t] - np.cumsum(n) + n, n) + np.arange(n.sum())
        src = cols[e]
        rows[e] += (np.take(flat, np.repeat(code[t, x - 1] * basis.dim, n)
                            + src)
                    - np.take(flat, np.repeat(code[t, x] * basis.dim, n)
                              + src))
    if isinstance(target, MomentumBlock):
        rows = target.find(rows)
    return term, rows, cols, np.sqrt(f)


def condensate_state(basis: FockBasis, phi: np.ndarray) -> np.ndarray:
    """Amplitudes of the product state phi^(x)N in the occupation basis:
    sqrt(N! / prod n_i!) prod phi_i^n_i, gathered one mode at a time from
    (d, N + 1) tables of the powers phi_i^n and of log n!."""
    phi = np.asarray(phi, dtype=complex)
    phi = phi / np.linalg.norm(phi)
    N = basis.N
    n = np.arange(N + 1)
    logfacs = np.cumsum(np.concatenate([[0.0], np.log(n[1:])]))
    powers = phi[:, None] ** n
    amp = np.ones(basis.dim, dtype=complex)
    logs = np.zeros(basis.dim)
    for i, n_i in enumerate(basis.occupations.T):
        amp *= powers[i, n_i]
        logs += logfacs[n_i]
    return np.exp(0.5 * (logfacs[N] - logs)) * amp


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


def _pair_terms(offsets: np.ndarray, K: np.ndarray, d: int, G_x: int | None,
                m: int | None, momentum: bool):
    """The pair interaction
    (1/2) sum K[o,a,b,c,dd] a+_(g,a) a+_(g+o,b) a_(g+o,c) a_(g,dd), sites
    modulo G_x, as folded terms (p, q, r, s, coef) of a+_p a+_q a_r a_s,
    p <= q and r <= s, over the lattice modes (g, j) = g * m + j or, with
    momentum, the momentum modes (k, j) = k * m + j (below).

    m = K.shape[1] and G_x = d / m; a G_x or m other than None that
    disagrees is refused.  Entries of 0.5 K at most 1e-12 times its largest
    are set to 0 (the round-off of entries that symmetry forbids is below
    2e-14 relative), and the rest is wrapped onto the ring: W[delta] sums
    them over the offsets o = delta mod G_x.  One ordering of a term has
    the coefficient W[g_q - g_p][a, b, c, dd] on the lattice modes if
    g_s = g_p and g_r = g_q, else 0, and V[k_q - k_r][a, b, c, dd] on the
    momentum modes, V[k] = sum_delta W[delta] exp(-2 pi i k delta / G_x)
    / G_x.  The interaction keeps a pair's unordered sites, or its total
    momentum mod G_x, so each annihilated pair r <= s meets every created
    pair p <= q of that key.  Creators commute, and so do annihilators: a
    term sums the orderings of its two pairs, and ``hop`` finds each matrix
    element once per term.  Terms with |coef| <= 1e-12 max |W| are dropped,
    so an all-zero kernel keeps none."""
    half = 0.5 * np.asarray(K)
    m_K = half.shape[1] if half.ndim == 5 else 0
    if not m_K or d % m_K or m not in (None, m_K) \
            or G_x not in (None, d // m_K):
        raise ManyBodyError(f"layout G_x = {G_x}, m = {m} does not fit "
                            f"d = {d} and a kernel of shape {half.shape}")
    G_x, m = d // m_K, m_K
    W = np.zeros((G_x,) + half.shape[1:], dtype=half.dtype)
    np.add.at(W, np.asarray(offsets) % G_x, np.where(
        np.abs(half) > 1e-12 * np.abs(half).max(initial=0.0), half, 0.0))
    cut, table = 1e-12 * np.abs(W).max(initial=0.0), W
    if momentum:
        k = np.arange(G_x)
        phase = np.exp(-2j * np.pi * (np.outer(k, k) % G_x) / G_x)
        table = ((phase[:, :, None] * W.reshape(G_x, -1)).sum(1)
                 .reshape(W.shape) / G_x)

    def v(p, q, r, s):
        c = table[(q // m - (r if momentum else p) // m) % G_x, p % m, q % m,
                  r % m, s % m]
        return c if momentum else np.where(
            (s // m == p // m) & (r // m == q // m), c, 0.0)

    # the pairs i <= j (so g_i <= g_j) by key; pair y meets the n[key[y]]
    # pairs of its key, which start at (cumsum(n) - n)[key[y]]
    i, j = np.triu_indices(d)
    key = (i // m + j // m) % G_x if momentum else (i // m) * G_x + j // m
    order = np.argsort(key, kind="stable")
    i, j, key = i[order], j[order], key[order]
    n = np.bincount(key)
    meets = n[key]
    y = np.repeat(np.arange(len(i)), meets)
    x = (np.repeat((np.cumsum(n) - n)[key] - np.cumsum(meets) + meets, meets)
         + np.arange(meets.sum()))
    p, q, r, s = i[x], j[x], i[y], j[y]
    coef = (v(p, q, r, s) + (p != q) * v(q, p, r, s)
            + (r != s) * (v(p, q, s, r) + (p != q) * v(q, p, s, r)))
    keep = np.abs(coef) > cut
    return p[keep], q[keep], r[keep], s[keep], coef[keep]


# ---------------------------------------------------------------------------
# the zero-momentum block
#
# On the ring the lattice modes (g, j) map to momentum modes (k, j), mode
# k * m + j, by the unitary DFT over x:
# b_(k,j) = G_x^(-1/2) sum_g exp(-2 pi i k g / G_x) a_(g,j).  A circulant
# one-body matrix and an offset-only kernel conserve the total momentum, so
# a condensate of a k = 0 orbital evolves inside ``MomentumBlock``.


def _dft(G_x: int) -> np.ndarray:
    """The unitary DFT over x, F[k, g] = exp(-2 pi i k g / G_x) / sqrt(G_x),
    its phase reduced modulo G_x."""
    k = np.arange(G_x)
    return np.exp(-2j * np.pi * (np.outer(k, k) % G_x) / G_x) / np.sqrt(G_x)


def momentum_modes(v: np.ndarray, G_x: int) -> np.ndarray:
    """The one-body vectors v (..., d) over the lattice modes mapped to the
    momentum modes.  The block holds the product states of k = 0 orbitals
    only, so a vector whose weight off k = 0 exceeds 1e-20 of its norm
    squared is refused; round-off leaves 1e-32 to 2e-28 on the ground
    states and Hartree frames of the CLI's lattices.  Below that bound the
    weight stays in the vector and the block drops it from a product
    state, which moves an observable by about N times the weight."""
    v = np.asarray(v)
    w = np.einsum("kg,...gj->...kj", _dft(G_x),
                  v.reshape(v.shape[:-1] + (G_x, -1))).reshape(v.shape)
    m = v.shape[-1] // G_x
    off = np.sum(np.abs(w[..., m:]) ** 2, axis=-1)
    if np.any(off > 1e-20 * np.sum(np.abs(w) ** 2, axis=-1)):
        raise ManyBodyError(f"a one-body state with weight "
                            f"{np.max(off):.1e} off k = 0 leaves the "
                            f"zero-momentum block")
    return w


def _momentum_one_body(h_one: np.ndarray, G_x: int) -> np.ndarray:
    """F h F^dagger over the momentum modes, F the DFT over x.  A one-body
    matrix that is not circulant in x couples momenta: an entry off the
    k = k' blocks above ``stationary_bound`` is refused, and the round-off
    below it is set to 0."""
    d = len(h_one)
    F = _dft(G_x)
    hk = np.einsum("kg,gahb,lh->kalb", F,
                   h_one.reshape(G_x, d // G_x, G_x, d // G_x), F.conj())
    same_k = np.eye(G_x, dtype=bool)[:, None, :, None]
    off = np.abs(np.where(same_k, 0.0, hk)).max()
    if off > stationary_bound(h_one):
        raise ManyBodyError(f"one-body matrix not circulant in x: it couples "
                            f"momenta by {off:.1e}")
    return np.where(same_k, hk, 0.0).reshape(d, d)


def _one_body(h_one, d: int) -> np.ndarray:
    if np.shape(h_one) != (d, d):
        raise ManyBodyError(f"one-body matrix of shape {np.shape(h_one)} "
                            f"on {d} modes")
    return np.asarray(h_one)


def build_hamiltonian(basis: FockBasis, h_one: np.ndarray,
                      offsets: np.ndarray, K: np.ndarray, G_x: int = None,
                      m: int = None) -> sp.csr_matrix:
    """Second-quantized Hamiltonian: sum h_ij a+_i a_j plus
    (1/2) sum K[o,a,b,c,d] a+_(g,a) a+_(g+o,b) a_(g+o,c) a_(g,d).

    Off-diagonal elements come from ``hop``, the interaction from the
    folded terms of ``_pair_terms``, which also derives and checks G_x and
    m.  On a ``MomentumBlock`` the same operator is written over the
    momentum modes: h_one goes through the DFT over x
    (``_momentum_one_body`` refuses one that is not circulant) and
    ``_pair_terms`` builds the terms on those modes.  Hermitian to
    round-off by construction (symmetric inputs are enforced); a max-abs
    defect of H - H^dagger above 1e-12 is refused.

    H has the dtype its values have: the diagonal is real, and the hops and
    the pair terms keep the dtype of h_one and of the kernel.  A real h_one
    and kernel on the lattice modes give a float64 H; a block gives a
    complex128 one, since the DFT makes its one-body matrix and its pair
    coefficients complex.

    The hops, the pair terms and then the diagonal form one COO triple with
    int32 indices (``build_basis`` caps the basis at 10^6 states), each
    ``hop`` result freed as it joins, converted to CSR once; explicit zeros
    are dropped.  The peak while it runs is 2.5 to 3.5 times the bytes of
    the CSR it returns (traced on the real lattice modes at dims 3876 to
    54264, on-site and finite-range, and on complex blocks of dims 490 and
    6798): the triple beside the CSR, then the CSR beside H^dagger.
    """
    occ = basis.occupations
    dim, d = occ.shape
    h_one = _one_body(h_one, d)
    block = isinstance(basis, MomentumBlock)
    if block:
        if G_x not in (None, basis.G_x):
            raise ManyBodyError(f"layout G_x = {G_x} on a block of "
                                f"G_x = {basis.G_x}")
        G_x, h_one = basis.G_x, _momentum_one_body(h_one, basis.G_x)
    p, q, r, s, coef = _pair_terms(offsets, K, d, G_x, m, block)
    h_one = 0.5 * (h_one + h_one.T.conj())

    # a numpy sum, not a threaded dgemv (see the note above ``_re_dot``)
    diag = (occ * np.real(np.diag(h_one))).sum(axis=1)
    rows, cols, vals = [], [], []
    ii, jj = np.nonzero(np.abs(h_one - np.diag(np.diag(h_one))) > 1e-15)
    monomials = [(ii[:, None], jj[:, None], h_one[ii, jj]),
                 (np.stack([p, q], 1), np.stack([r, s], 1), coef)]
    for create, annihilate, coef in monomials:
        term, tgt, src, amp = hop(basis, basis, create, annihilate)
        rows.append(tgt)
        cols.append(src)
        vals.append(amp * coef[term])
        del term, tgt, src, amp
    # the diagonal joins last; where pair terms with p = s and q = r land on
    # it, their sum may differ from H + diag(...) in the last bit
    states = np.arange(dim, dtype=np.int32)
    rows.append(states)
    cols.append(states)
    vals.append(diag)

    def concatenate(parts: list) -> np.ndarray:
        # the parts go as soon as their copy is made
        out = np.concatenate(parts)
        parts.clear()
        return out

    H = sp.csr_matrix((concatenate(vals),
                       (concatenate(rows), concatenate(cols))),
                      shape=(dim, dim))
    H.eliminate_zeros()
    # summing the duplicates leaves views of the triple's length; the
    # matrix keeps arrays of its own nnz through the propagation
    H.data, H.indices = H.data.copy(), H.indices.copy()
    defect = _hermiticity_defect(H)
    if defect > 1e-12:
        raise ManyBodyError(f"assembled Hamiltonian not Hermitian: {defect:.3e}")
    return H


def _hermiticity_defect(H: sp.csr_matrix) -> float:
    """max |H - H^dagger| of a CSR H, which it puts in canonical form.
    When H^dagger has H's structure, as a Hermitian assembly gives, the
    difference is taken over the stored values, in H^dagger's copy;
    otherwise H - H^dagger is a sparse difference."""
    H.sum_duplicates()
    Hd = H.T.tocsr()
    np.conjugate(Hd.data, out=Hd.data)
    Hd.sum_duplicates()
    if not (np.array_equal(H.indptr, Hd.indptr)
            and np.array_equal(H.indices, Hd.indices)):
        return abs(H - Hd).max()
    return float(np.abs(np.subtract(Hd.data, H.data, out=Hd.data))
                 .max(initial=0.0))


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
    """Re <a, b> of two contiguous vectors of one dtype, real or complex,
    as one real sum over the product of their float views.  Not BLAS (see
    above).  ``np.add.reduce`` sums pairwise, so the round-off grows like
    log n, not like einsum's n."""
    return float(np.add.reduce(a.view(float) * b.view(float)))


def _matvec(H, u: np.ndarray) -> np.ndarray:
    """H u, the one Fock-space product.  A real H applies to a complex u
    as H Re u + i H Im u, two real products that take about as long as one
    complex H would; scipy would otherwise cast H's values to complex on
    every call, 1.4 to 1.7 times as long (dim 54264)."""
    if H.dtype.kind == "c" or u.dtype.kind != "c":
        return H @ u
    out = np.empty_like(u)
    out.real, out.imag = H @ u.real, H @ u.imag
    return out


def _tridiagonal_eig(alpha: np.ndarray, beta: np.ndarray):
    """(evals, evecs) of the symmetric tridiagonal T with diagonal alpha
    (k entries) and off-diagonal beta[:k - 1], by LAPACK's dstev.  The
    dense eigh (dsyevd) would wake threaded BLAS from k = 32; dstev's
    wrapper wants max(k - 1, 1) off-diagonal entries, and the one it gets
    at k = 1 is not read."""
    k = len(alpha)
    evals, evecs, info = dstev(alpha, beta[:max(k - 1, 1)])
    if info:
        raise ManyBodyError(f"tridiagonal eigensolver failed at k = {k} "
                            f"(info {info})")
    return evals, evecs


def _expm_e1(evals: np.ndarray, evecs: np.ndarray, dts) -> np.ndarray:
    """Rows exp(-i dt T) e_1, one for each dt in dts, from the eigenpairs of
    T: a (len(dts), k) array built by elementwise sums, not by a matrix
    product (see the note above ``_re_dot``)."""
    phases = np.exp(-1j * np.multiply.outer(dts, evals)) * evecs[0]
    return (phases[:, None, :] * evecs).sum(axis=-1)


def _last_entry(evals: np.ndarray, evecs: np.ndarray, dts) -> np.ndarray:
    """[exp(-i dt T)]_{k,1} for each dt in dts, as ``_expm_e1`` builds it."""
    return (np.exp(-1j * np.multiply.outer(dts, evals))
            * (evecs[0] * evecs[-1])).sum(axis=-1)


def _combine(U: list, c: np.ndarray, scale: float) -> np.ndarray:
    """scale * sum_l c_l U_l, accumulated in place one vector at a time (see
    the note above ``_re_dot``)."""
    out = c[0] * U[0]
    for c_l, u_l in zip(c[1:], U[1:]):
        out += c_l * u_l
    out *= scale
    return out


def lanczos_expm_apply(H, v: np.ndarray, times: Sequence[float],
                       kdim: int) -> list:
    """exp(-i t H) v for each t of the increasing times, for Hermitian H, by
    the Lanczos method: one Krylov space serves every time it resolves.

    The Krylov vectors come from the plain three-term recurrence
    beta_j u_{j+1} = H u_j - alpha_j u_j - beta_{j-1} u_{j-1}, with no
    re-orthogonalization: they lose orthogonality in floating point, but
    T_k, the tridiagonal matrix of the alpha_j and beta_j, is an exact
    Lanczos matrix of a nearby spectrum, so the result keeps the accuracy of
    a polynomial approximation of the exponential (Druskin, Greenbaum &
    Knizhnerman 1998, SIAM J. Sci. Comput. 19:38; Musco, Musco & Sidford
    2018, SODA).  A space started at time t0 resolves t when the a
    posteriori estimate (Saad 1992) of the error relative to ||v||,
    beta_k |[exp(-i (t - t0) T_k)]_{k,1}|, is <= 1e-12.  Every 4 vectors,
    at beta_k = 0 and at kdim vectors, one tridiagonal eigensolve gives the
    estimate at every pending time, and the pending times it resolves, in
    order, take their state from that space (Park & Light 1986, J. Chem.
    Phys. 85:5870; Hochbruck & Lubich 1997, SIAM J. Numer. Anal. 34:1911).
    At kdim vectors the space advances to the farthest time it still
    resolves, found by bisection on the same estimate, and a new space
    starts there.  The recurrence keeps kdim + 1 vectors of v's length.

    The Krylov vectors keep v's dtype, float64 or complex128 (complex when
    H is): a real H and a real v give a real first space at half the bytes
    per vector.  A restarted space starts from a complex state, so on a
    real H its products go through ``_matvec``.  Returns the list of
    states; decreasing times, a non-finite Krylov vector or estimate,
    kdim < 2 or a space that resolves no step raise ManyBodyError.
    """
    if kdim < 2:
        # with one vector the estimate is beta_1 at every time, so no space
        # could advance
        raise ManyBodyError(f"kdim = {kdim}: need at least 2 Krylov vectors")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) < 0):
        raise ManyBodyError("times must be an increasing sequence")
    u = np.ascontiguousarray(v, dtype=np.result_type(v.dtype, H.dtype, float))
    if not _re_dot(u, u):
        return [v.copy() for _ in times]
    out, t0 = [], 0.0
    while len(out) < len(times):
        beta0 = np.sqrt(_re_dot(u, u))
        alpha, beta = np.zeros(kdim), np.zeros(kdim)
        U = [u / beta0]
        del u
        for j in range(kdim):
            w = _matvec(H, U[j])
            alpha[j] = _re_dot(U[j], w)
            w -= alpha[j] * U[j]
            if j:
                w -= beta[j - 1] * U[j - 1]
            beta[j] = np.sqrt(_re_dot(w, w))
            k = j + 1
            if not np.isfinite(beta[j]):
                raise ManyBodyError(f"non-finite Krylov vector at k = {k}")
            if k % 4 == 0 or k == kdim or not beta[j]:
                evals, evecs = _tridiagonal_eig(alpha[:k], beta)
                dts = times[len(out):] - t0
                err = beta[j] * np.abs(_last_entry(evals, evecs, dts))
                if not np.isfinite(err).all():
                    raise ManyBodyError(f"non-finite Krylov error estimate "
                                        f"at k = {k}")
                ok = err <= 1e-12
                n_ok = len(ok) if ok.all() else int(np.argmin(ok))
                for c in _expm_e1(evals, evecs, dts[:n_ok]):
                    out.append(_combine(U, c, beta0))
                if n_ok == len(dts):
                    break
            if k < kdim:
                w /= beta[j]
                U.append(w)
        else:
            # kdim vectors: a new space starts at the farthest time this one
            # resolves short of the next pending time; the last residual and
            # then this space go before the next is built
            del w
            lo, hi = (dts[n_ok - 1] if n_ok else 0.0), dts[n_ok]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                err = beta[-1] * abs(_last_entry(evals, evecs, [mid])[0])
                lo, hi = (mid, hi) if err <= 1e-12 else (lo, mid)
            if lo <= 0:
                raise ManyBodyError(f"{kdim} Krylov vectors resolve no step")
            u = _combine(U, _expm_e1(evals, evecs, [lo])[0], beta0)
            del U
            t0 += lo
    return out


def evolve_state(basis: FockBasis, H, psi0: np.ndarray, T: float,
                 dt: float, store_every: int = None) -> list:
    """Propagate under the static Hamiltonian H to T; returns a list of
    (t, psi) pairs, psi0 at t = 0 and the stored frames.

    The frames are at (step + 1) dt for every store_every-th step of the
    required dt, shortened to T / ceil(T / dt), and at T.  One
    ``lanczos_expm_apply`` call reaches them all, with tolerance 1e-12
    relative to the state's norm and at most
    kdim = min(64, 32 MiB / (itemsize dim)) Krylov vectors: a budget of
    32 MiB of Krylov vectors, and kdim >= 2 under ``build_basis``'s cap of
    10^6 states.  On a real H a psi0 whose imaginary part is exactly 0 is
    propagated as a float64 vector, so its first space holds up to twice
    the vectors at the same bytes (8 bytes an entry); a restarted space
    holds complex vectors, which may then take up to twice the budget.
    psi0 is normalized, the frames are not: the stored norms show the
    propagator's own drift.  Every frame is complex, psi0's too.
    """
    psi = np.asarray(psi0)
    if H.dtype.kind != "c" and not np.any(np.imag(psi)):
        psi = psi.real
    psi = np.ascontiguousarray(psi, dtype=np.result_type(psi.dtype, H.dtype,
                                                         float))
    psi = psi / np.sqrt(_re_dot(psi, psi))
    n_steps, dt = _steps(T, dt)
    if store_every is None:
        store_every = n_steps
    times = [(step + 1) * dt for step in range(n_steps)
             if (step + 1) % store_every == 0 or step == n_steps - 1]
    kdim = min(64, 2**25 // (psi.itemsize * len(psi)))
    frames = lanczos_expm_apply(H, psi, times, kdim=kdim)
    return [(0.0, psi.astype(complex))] + list(zip(times, frames))


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
    """One-particle reduced density matrix gamma_1, trace one; M = 1 is the
    only order accepted."""
    if M != 1:
        raise ManyBodyError(f"only the one-particle density, not M = {M}")
    A = lower(basis, psi)[1]
    gamma = (A @ A.conj().T) / basis.N
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
    return _re_dot(psi, _matvec(H, psi)) / basis.N


# ---------------------------------------------------------------------------
# lattice mean-field reference dynamics


def _mean_field(h_one, offsets, K, G_x: int, m: int, N: int,
                d: int) -> Callable:
    """v -> H_mf(v) v, the Hartree right-hand side times i: the gradient in
    conj(v) of the condensate's energy per particle, <v, h v> +
    (N-1) sum_t coef_t conj(v_p v_q) v_r v_s over the lattice-mode
    ``_pair_terms``.  A term adds (N-1) coef_t v_r v_s times conj(v_q) at p
    and conj(v_p) at q, with or without pair-exchange symmetry of K."""
    h_one = _one_body(h_one, d)
    p, q, r, s, coef = _pair_terms(offsets, K, d, G_x, m, False)
    p, q = np.concatenate([p, q]), np.concatenate([q, p])
    r, s, coef = np.tile(r, 2), np.tile(s, 2), np.tile((N - 1) * coef, 2)

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
                   phi0: np.ndarray, T: float, dt: float):
    """Mean-field (Hartree) evolution of a one-body vector under the same
    lattice and pair terms as the many-body model: i dphi/dt =
    H_mf(phi) phi from the normalized phi0, with H_mf(phi) phi the gradient
    in conj(phi) of the condensate's energy per particle (``_mean_field``).

    Returns a list of (t, phi) frames at every step, t accumulated by
    repeated addition of the step.  A phi0 whose residual under its own
    mean field (``mean_field_stationary``) is at most ``stationary_bound``
    is a stationary solution: its frames are exp(-i lambda t) phi0, exact,
    and no step is integrated.  Any other phi0 is integrated by RK4.
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
