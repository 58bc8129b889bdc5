"""Tests for the exact few-boson simulator on the quasi-1D lattice."""

import tracemalloc
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bectube import cli
from bectube import condensation as cd
from bectube import manybody as mb
from bectube import scaling as sc
from bectube import transverse as tv


@pytest.fixture(scope="module")
def modes():
    return tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=63), m=2)


@pytest.fixture(scope="module")
def small_system(modes):
    """N = 3 bosons on 6 sites x 2 transverse modes with interactions."""
    spt = sc.scaling_params(3, 0.25, 0.25)
    spb = mb.SingleParticleBasis(G_x=6, dx=0.5, eps=0.25,
                                 transverse_energies=modes.energies)
    w = sc.bump_potential()
    offsets, K = mb.mode_kernel(modes, w, spt, 0.5)
    h = mb.one_body_matrix(spb)
    basis = mb.build_basis(spb.d, 3)
    H = mb.build_hamiltonian(basis, h, offsets, K, G_x=6, m=2)
    evals, evecs = np.linalg.eigh(h)
    phi0 = evecs[:, 0].astype(complex)
    return dict(spb=spb, basis=basis, H=H, h=h, phi0=phi0,
                offsets=offsets, K=K)


def _embed(op, sites, N, d):
    """op acting on the particles `sites` of (C^d)^(x)N, as a matrix."""
    rest = [i for i in range(N) if i not in sites]
    full = np.kron(op, np.eye(d ** (N - len(sites)))).reshape((d,) * 2 * N)
    inv = list(np.argsort(list(sites) + rest))
    return full.transpose(inv + [N + i for i in inv]).reshape(d**N, d**N)


def _pair_matrix(offsets, K, G_x):
    """W[p, q, s, r] = sum of K[o, a, b, c, dd] over the (o, g) with
    p = (g, a), q = (g+o, b), r = (g+o, c), s = (g, dd): the pair operator
    that moves particle one from s to p and particle two from r to q."""
    m = K.shape[1]
    d = G_x * m
    W = np.zeros((d,) * 4, dtype=K.dtype)
    for (o_idx, o), g, a, b, c, dd in product(
            enumerate(offsets), range(G_x), *[range(m)] * 4):
        g2 = (g + o) % G_x
        W[g * m + a, g2 * m + b, g * m + dd, g2 * m + c] += \
            K[o_idx, a, b, c, dd]
    return W


def _wrapped_system(exchange=True):
    """3 sites x 2 modes with a random kernel at offsets -2..2, so offsets
    +-2 and -+1 reach the same sites; the kernel has the pair-exchange and
    Hermitian symmetries and no others, or, without exchange, the Hermitian
    symmetry only."""
    rng = np.random.default_rng(5)
    K = rng.standard_normal((5, 2, 2, 2, 2))
    if exchange:
        K = K + K[::-1].transpose(0, 2, 1, 4, 3)
    K = K + K.transpose(0, 4, 3, 2, 1)
    spb = mb.SingleParticleBasis(G_x=3, dx=0.5, eps=0.5,
                                 transverse_energies=np.array([2.0, 5.0]))
    return dict(h=mb.one_body_matrix(spb), offsets=np.arange(-2, 3), K=K)


def _criterion9(N: int) -> dict:
    """The criterion-9 system at N: 16 sites, one transverse mode, coupling
    lam / (N - 1) with lam = 4 K calibrated at N = 4, from the condensate of
    the lattice ground state phi0."""
    modes = tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=63), m=1)
    w = sc.bump_potential().scaled(15.0)
    offsets, K = mb.mode_kernel(modes, w, sc.scaling_params(4, 0.5, 0.25), 0.5)
    spb = mb.SingleParticleBasis(G_x=16, dx=0.5, eps=0.5,
                                 transverse_energies=modes.energies[:1])
    h = mb.one_body_matrix(spb)
    basis = mb.build_basis(spb.d, N)
    H = mb.build_hamiltonian(basis, h, offsets, 4 * K / (N - 1), G_x=16, m=1)
    phi0 = np.linalg.eigh(h)[1][:, 0]
    return dict(basis=basis, H=H, phi0=phi0,
                psi0=mb.condensate_state(basis, phi0))


@pytest.fixture(scope="module")
def criterion9_system():
    """The criterion-9 system at N = 3: Fock dimension 816 and ||H||_1
    about 55."""
    return _criterion9(3)


def _random_state(dim: int, seed: int) -> np.ndarray:
    """A unit complex vector of independent normal entries."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class _CountingMatrix:
    """H whose products with vectors are counted.  A real H applies to a
    complex vector as two products with its real and imaginary parts,
    strided views, and each counts one half."""

    def __init__(self, H):
        self.H, self.matvecs = H, 0

    @property
    def dtype(self):
        return self.H.dtype

    def __matmul__(self, x):
        self.matvecs += 1 if x.flags.c_contiguous else 0.5
        return self.H @ x


def _rank(basis, occ):
    """Positions of the N-particle occupation vectors occ (rows, d) in the
    basis order, ranked column by column with a running L: with
    L_i = N - (n_0 + ... + n_{i-1}), the sum over i = 0..d-2 of
    C(L_{i+1} + d-i-2, d-i-1) (Knuth, TAOCP 4A, 7.2.1.3).  The oracle for
    ``hop``'s target rows."""
    N, d = basis.N, basis.d
    table = np.array([[comb(l + d - i - 2, d - i - 1) for l in range(N + 1)]
                      for i in range(d - 1)], dtype=np.int64)
    occ = np.asarray(occ, dtype=np.int64)
    L = np.full(len(occ), N)
    out = np.zeros(len(occ), dtype=np.int64)
    for i in range(d - 1):
        L -= occ[:, i]
        out += table[i, L]
    return out


def _hop_oracle(basis, target, create, annihilate):
    """``hop`` by building every target occupation: apply the operators
    right to left to a copy of the source occupations, multiply the
    occupations they see, and rank the targets with ``_rank``."""
    occ = basis.occupations.astype(np.int64)
    ok = np.ones((len(annihilate), basis.dim), dtype=bool)
    for c in range(annihilate.shape[1]):
        need = 1 + (annihilate[:, c + 1:] == annihilate[:, c:c + 1]).sum(1)
        ok &= occ[:, annihilate[:, c]].T >= need[:, None]
    term, cols = np.nonzero(ok)
    tgt = occ[cols]
    e = np.arange(len(cols))
    f = np.ones(len(cols))
    for s in annihilate.T[::-1]:
        f *= tgt[e, s[term]]
        tgt[e, s[term]] -= 1
    for p in create.T[::-1]:
        tgt[e, p[term]] += 1
        f *= tgt[e, p[term]]
    return term, _rank(target, tgt), cols, np.sqrt(f)


def _symmetric(occ, N, d):
    """The normalized symmetric tensor with occupations occ."""
    t = np.zeros((d,) * N)
    t[tuple(np.repeat(np.arange(d), occ))] = 1.0
    v = sum(np.transpose(t, perm) for perm in permutations(range(N)))
    return v.ravel() / np.linalg.norm(v)


def _assembly_peak(basis, h, offsets, K, **layout):
    """(H, the traced peak of its assembly over the bytes of its CSR)."""
    tracemalloc.start()
    try:
        H = mb.build_hamiltonian(basis, h, offsets, K, **layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return H, peak / (H.data.nbytes + H.indices.nbytes + H.indptr.nbytes)


class TestBasis:
    def test_dimension(self):
        basis = mb.build_basis(4, 3)
        assert basis.dim == comb(6, 3)
        assert np.all(basis.occupations.sum(axis=1) == 3)

    def test_lookup_roundtrip(self):
        # the rank oracle puts every state at its own position, including
        # one mode (d = 1) and the vacuum (N = 0)
        for d, N in [(4, 3), (16, 6), (1, 5), (5, 0)]:
            basis = mb.build_basis(d, N)
            assert np.array_equal(_rank(basis, basis.occupations),
                                  np.arange(basis.dim))
        basis = mb.build_basis(16, 6)
        rows = np.random.default_rng(0).permutation(basis.dim)[:500]
        assert np.array_equal(_rank(basis, basis.occupations[rows]), rows)

    def test_lexicographic_order(self):
        # first occupation descending, then the second, and so on
        basis = mb.build_basis(5, 4)
        ref = sorted((c for c in product(range(5), repeat=5) if sum(c) == 4),
                     reverse=True)
        assert np.array_equal(basis.occupations, ref)

    def test_cap(self):
        with pytest.raises(mb.ManyBodyError, match="cap"):
            mb.build_basis(50, 10)

    def test_int8_occupations(self):
        # 127 bosons fit the int8 occupations; 128 would wrap to -128, and
        # are refused although C(130, 2) = 8385 states are under the cap
        basis = mb.build_basis(3, 127)
        assert basis.dim == comb(129, 2)
        assert np.all(basis.occupations.astype(int).sum(axis=1) == 127)
        assert basis.occupations.min() == 0
        with pytest.raises(mb.ManyBodyError, match="int8"):
            mb.build_basis(3, 128)

    @pytest.mark.parametrize("d, N", [(3, -1), (0, 2), (0, 0)])
    def test_no_basis_refused(self, d, N):
        with pytest.raises(mb.ManyBodyError, match="no Fock basis"):
            mb.build_basis(d, N)

    def test_bases_are_shared(self):
        # one basis per (d, N), and ``minus`` is the shared one, so a chain
        # and its lowering maps are built once
        basis = mb.build_basis(16, 4)
        assert mb.build_basis(16, 4) is basis
        assert basis.minus is mb.build_basis(16, 3)
        assert mb.build_basis(16, 5).minus is basis
        assert basis.lowering is mb.build_basis(16, 5).minus.lowering

    def test_vacuum_lowering_refused(self):
        with pytest.raises(mb.ManyBodyError, match="no Fock basis"):
            mb.lower(mb.build_basis(3, 0), np.ones(1))

    def test_single_particle_basis_layout(self):
        spb = mb.SingleParticleBasis(G_x=4, dx=0.5, eps=0.5,
                                     transverse_energies=np.array([2.0, 5.0]))
        assert spb.d == 8 and spb.m == 2
        # mode i = g * m + j: one particle in mode 5 = (site 2, mode 1) is
        # excited, one in mode 4 = (site 2, mode 0) is not
        basis = mb.build_basis(spb.d, 1)
        assert [mb.excitation_probability(basis, np.eye(8)[i], spb)
                for i in (4, 5)] == [0.0, 1.0]
        assert np.allclose(spb.transverse_offsets(), [0.0, 12.0])


class TestHop:
    """``hop`` updates the source rank where a monomial shifts it; the
    oracle builds and ranks every target occupation."""

    @staticmethod
    def _monomials(d, kind):
        if kind == "one_body":
            # the hops of the 8-site, 2-mode lattice, wrap-around included
            spb = mb.SingleParticleBasis(G_x=8, dx=0.5, eps=0.5,
                                         transverse_energies=np.array(
                                             [2.0, 5.0]))
            h = mb.one_body_matrix(spb)
            ii, jj = np.nonzero(h - np.diag(np.diag(h)))
            return ii[:, None], jj[:, None]
        if kind == "on_site_pairs":
            p, q, r, s, _ = mb._pair_terms(np.array([0]),
                                           np.ones((1, 2, 2, 2, 2)), d, None,
                                           None, False)
            return np.stack([p, q], 1), np.stack([r, s], 1)
        modes = np.random.default_rng(d).integers(0, d, (40, 4))
        return modes[:, :2], modes[:, 2:]

    @pytest.mark.parametrize("N", [5, 6])
    @pytest.mark.parametrize("kind", ["one_body", "on_site_pairs",
                                      "random_pairs"])
    def test_matches_oracle(self, N, kind):
        basis = mb.build_basis(16, N)
        create, annihilate = self._monomials(16, kind)
        got = mb.hop(basis, basis, create, annihilate)
        want = _hop_oracle(basis, basis, create, annihilate)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert got[1].dtype == got[2].dtype == np.int32

    @pytest.mark.parametrize("N", [5, 6])
    def test_lowering_and_raising_match_oracle(self, N):
        # a_i shifts every mode below i; a+_i into the larger basis reads
        # that basis's binomial table
        basis = mb.build_basis(16, N)
        modes, none = np.arange(16)[:, None], np.empty((16, 0), dtype=int)
        want = _hop_oracle(basis, basis.minus, none, modes)
        for g, w in zip(basis.lowering, want):
            assert np.array_equal(g, w)
        got = mb.hop(basis.minus, basis, modes, none)
        want = _hop_oracle(basis.minus, basis, modes, none)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestCondensateState:
    def test_pure_mode(self):
        basis = mb.build_basis(3, 2)
        phi = np.array([1.0, 0.0, 0.0])
        psi = mb.condensate_state(basis, phi)
        occ = basis.occupations[np.argmax(np.abs(psi))]
        assert list(occ) == [2, 0, 0]
        assert np.isclose(np.linalg.norm(psi), 1.0)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_normalized(self, seed):
        rng = np.random.default_rng(seed)
        basis = mb.build_basis(4, 3)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = mb.condensate_state(basis, phi)
        assert np.isclose(np.linalg.norm(psi), 1.0, atol=1e-12)

    def test_matches_multinomial_loop(self):
        # sqrt(N! / prod n_i!) prod phi_i^n_i, one state at a time
        basis = mb.build_basis(5, 4)
        rng = np.random.default_rng(4)
        phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        phi = phi / np.linalg.norm(phi)
        ref = [np.sqrt(factorial(4) / np.prod([factorial(n) for n in occ]))
               * np.prod(phi**occ.astype(int)) for occ in basis.occupations]
        assert np.abs(mb.condensate_state(basis, phi) - ref).max() < 1e-15

    def test_condensate_reduced_density_is_projector(self):
        basis = mb.build_basis(4, 3)
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi = phi / np.linalg.norm(phi)
        psi = mb.condensate_state(basis, phi)
        g1 = mb.reduced_density(basis, psi, M=1)
        assert np.allclose(g1, np.outer(phi, phi.conj()), atol=1e-12)
        with pytest.raises(mb.ManyBodyError, match="one-particle"):
            mb.reduced_density(basis, psi, M=2)


class TestOneBody:
    @pytest.mark.parametrize("G_x", [1, 2, 3, 8])
    def test_free_lattice_spectrum(self, G_x):
        # at G_x = 1 and 2 a site's two bonds land on one entry, and add
        spb = mb.SingleParticleBasis(G_x=G_x, dx=0.5, eps=0.5,
                                     transverse_energies=np.array([2.0]))
        h = mb.one_body_matrix(spb)
        evals = np.sort(np.linalg.eigvalsh(h))
        k = 2 * np.pi * np.arange(G_x) / G_x
        exact = np.sort(2.0 / 0.25 * (1 - np.cos(k)))
        assert np.allclose(evals, exact, atol=1e-12)

    @pytest.mark.parametrize("G_x, m", [(1, 2), (2, 1), (3, 2), (5, 3)])
    def test_matches_site_loop(self, G_x, m):
        spb = mb.SingleParticleBasis(G_x=G_x, dx=0.4, eps=0.5,
                                     transverse_energies=np.arange(2.0, 2 + m))
        h = mb.one_body_matrix(spb)
        ref = np.zeros((spb.d, spb.d))
        offs = spb.transverse_offsets()
        for g, j in product(range(G_x), range(m)):
            i = g * m + j
            ref[i, i] = 2.0 / 0.4**2 + offs[j]
            for g2 in ((g + 1) % G_x, (g - 1) % G_x):
                ref[i, g2 * m + j] -= 1.0 / 0.4**2
        assert np.array_equal(h, ref)

    def test_transverse_offsets_enter_diagonal(self, modes):
        spb = mb.SingleParticleBasis(G_x=4, dx=0.5, eps=0.5,
                                     transverse_energies=modes.energies)
        h = mb.one_body_matrix(spb)
        gap = (modes.energies[1] - modes.energies[0]) / 0.25
        assert np.isclose(h[1, 1] - h[0, 0], gap)


class TestKernel:
    def test_shapes_and_symmetry(self, small_system):
        offsets, K = small_system["offsets"], small_system["K"]
        assert K.shape[1:] == (2, 2, 2, 2)
        assert len(offsets) == K.shape[0]
        # bosonic exchange symmetry of the matrix elements
        assert np.allclose(K, K.transpose(0, 2, 1, 4, 3), atol=1e-14)

    def test_onsite_collapse_preserves_mass(self, modes):
        w = sc.bump_potential()
        spt = sc.scaling_params(3, 0.25, 0.25)   # mu ~ 0.34 < 2 dx = 1
        dx = 0.5
        offsets, K = mb.mode_kernel(modes, w, spt, dx)
        assert list(offsets) == [0]
        # lattice sum of the kernel equals the integrated fine-grid kernel
        _, _, mass = sc.effective_kernel(modes, w, spt.eps, spt.mu)
        lattice_mass = float(K[0, 0, 0, 0, 0]) * dx
        expected = spt.eps**2 / (spt.N * spt.mu**3) * mass \
            / (spt.eps**2 / spt.mu**3)
        assert np.isclose(lattice_mass, expected, rtol=1e-2)

    def test_resolved_kernel_has_offsets(self, modes):
        # large mu relative to dx: genuine off-site couplings appear
        spt = sc.scaling_params(3, 0.9, 0.3)
        offsets, K = mb.mode_kernel(modes, sc.bump_potential(), spt, 0.1)
        assert len(offsets) > 1
        assert np.allclose(offsets, -offsets[::-1])

    def test_resolved_kernel_matches_node_pair_sum(self):
        # brute force: the double sum over cross-section node pairs of
        # chi_a chi_d(y) chi_b chi_c(y') w((x, eps (y - y'))/mu) h^4 with the
        # (eps^2/(N mu^3)) prefactor; the fine-lag-grid quadrature of
        # mode_kernel differs from it by 1.6e-3 of max|K| on this grid, and
        # pairing chi_a chi_b instead of chi_a chi_d by 8.9e-2
        modes = tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=31), m=2)
        spt, w, dx = sc.scaling_params(3, 0.9, 0.3), sc.bump_potential(), 0.1
        offsets, K = mb.mode_kernel(modes, w, spt, dx)
        assert len(offsets) == 13
        Y1, Y2 = np.meshgrid(modes.cs.y1, modes.cs.y2, indexing="ij")
        y = np.stack([Y1.ravel(), Y2.ravel()], axis=-1)
        dy2 = np.sum((y[:, None, :] - y[None, :, :]) ** 2, axis=-1)
        chi = modes.chi.reshape(2, -1)
        prods = chi[:, None, :] * chi[None, :, :]
        pref = spt.eps**2 / (spt.N * spt.mu**3) * modes.cs.h**4
        oracle = np.stack([
            pref * np.einsum("adi,ij,bcj->abcd", prods, w.at_r2(
                ((o * dx) ** 2 + spt.eps**2 * dy2) / spt.mu**2), prods)
            for o in offsets])
        assert np.abs(K - oracle).max() < 5e-3 * np.abs(K).max()

    def test_kernel_symmetries(self):
        modes = tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=31), m=2)
        offsets, K = mb.mode_kernel(modes, sc.bump_potential(),
                                    sc.scaling_params(3, 0.9, 0.3), 0.1)
        assert np.array_equal(offsets, -offsets[::-1])
        # real modes: chi_a chi_d = chi_d chi_a and chi_b chi_c = chi_c chi_b
        assert np.abs(K - K.transpose(0, 4, 2, 3, 1)).max() < 1e-14
        assert np.abs(K - K.transpose(0, 1, 3, 2, 4)).max() < 1e-14
        # particle exchange: K[o, a, b, c, d] = K[-o, b, a, d, c]
        assert np.abs(K - K[::-1].transpose(0, 2, 1, 4, 3)).max() < 1e-14


class TestHamiltonian:
    def test_hermitian(self, small_system):
        H = small_system["H"]
        assert abs(H - H.getH()).max() < 1e-12

    def test_default_config_nnz(self):
        # the default `manybody` system.  chi_0 and chi_1 are the (1, 1) and
        # (1, 2) product modes of the square, so a K entry with an odd number
        # of mode-1 indices is odd under y2 -> pi - y2 and vanishes; with
        # exact product modes those entries are round-off far below the
        # assembly's relative cut-off, and the count does not hinge on them
        cfg = cli.load_config(None)
        G_x, dx = cfg["solver"]["G_x"], cfg["solver"]["dx"]
        N, eps, beta = (cfg["scaling"][k] for k in ("N", "eps", "beta"))
        modes = cli.build_modes(cfg)
        spb = mb.SingleParticleBasis(G_x=G_x, dx=dx, eps=eps,
                                     transverse_energies=modes.energies)
        offsets, K = mb.mode_kernel(modes, sc.bump_potential(),
                                    sc.scaling_params(N, eps, beta), dx)
        H = mb.build_hamiltonian(mb.build_basis(spb.d, N),
                                 mb.one_body_matrix(spb), offsets, K,
                                 G_x=G_x, m=spb.m)
        assert H.shape == (3876, 3876) and H.nnz == 32164
        assert H.dtype == np.float64
        odd = np.indices(K.shape[1:]).sum(axis=0) % 2 == 1
        assert np.max(np.abs(K[:, odd])) <= 1e-17
        K_even = K.copy()
        K_even[:, odd] = 0.0
        H_even = mb.build_hamiltonian(mb.build_basis(spb.d, N),
                                      mb.one_body_matrix(spb), offsets,
                                      K_even, G_x=G_x, m=spb.m)
        assert (H_even != H).nnz == 0

    @pytest.mark.parametrize("section", [
        {"shape": "disk", "radius": r} for r in (0.98, 1.0, 1.02, 1.05)] + [
        {"shape": "ellipse", "a": a, "b": 1.5} for a in (1.96, 2.0, 2.04, 2.1)
    ], ids=lambda c: f"{c['shape']}_{c.get('radius', c.get('a'))}")
    def test_sparsity_independent_of_round_off(self, section):
        # the default lattice at N = 4 on curved cross-sections: the entries
        # that symmetry forbids are round-off of 1e-16 to 1e-15, and an
        # absolute 1e-16 cut kept 64, 96 or 128 unfolded pair terms by the
        # shape's size; the relative cut keeps the 64 allowed ones
        # everywhere, 40 once folded to p <= q and r <= s
        cfg = cli.load_config(None)
        cfg["cross_section"].update(section)
        spb, offsets, K, h, _ = cli._lattice(cfg, 4, cfg["scaling"]["eps"],
                                             cli.build_modes(cfg))
        assert len(mb._pair_terms(offsets, K, spb.d, None, None,
                                  False)[0]) == 40
        H = mb.build_hamiltonian(mb.build_basis(spb.d, 4), h, offsets, K)
        assert H.nnz == 32164

    @pytest.mark.parametrize("partner, subtracted", [(2.0, False),
                                                     (0.0, True)])
    def test_non_hermitian_kernel_refused(self, monkeypatch, partner,
                                          subtracted):
        # K[0,0,0,0,1] breaks K[o,a,b,c,d] = conj K[-o,d,c,b,a].  With its
        # partner K[0,1,0,0,0] at another value H and H^dagger share their
        # structure and the defect is read off the stored values; without
        # the partner the structures differ and H - H^dagger is subtracted
        spb = mb.SingleParticleBasis(G_x=3, dx=0.5, eps=0.5,
                                     transverse_energies=np.array([2.0, 5.0]))
        K = np.zeros((1, 2, 2, 2, 2))
        K[0, 0, 0, 0, 1], K[0, 1, 0, 0, 0] = 1.0, partner
        subtractions = []
        sub = sp.csr_matrix.__sub__

        def counting_sub(a, b):
            subtractions.append(1)
            return sub(a, b)

        monkeypatch.setattr(sp.csr_matrix, "__sub__", counting_sub)
        with pytest.raises(mb.ManyBodyError, match="not Hermitian"):
            mb.build_hamiltonian(mb.build_basis(spb.d, 3),
                                 mb.one_body_matrix(spb), np.array([0]), K)
        assert bool(subtractions) == subtracted

    @pytest.mark.parametrize("aligned", [True, False])
    def test_hermiticity_defect(self, aligned):
        # the defect equals the dense max |A - A^dagger| on both branches
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        A[rng.random((6, 6)) < 0.5] = 0.0
        if aligned:
            A[(A.T == 0) & (A != 0)] = 0.0
        assert np.array_equal(A != 0, A.T != 0) == aligned
        dense = np.abs(A - A.conj().T).max()
        assert mb._hermiticity_defect(sp.csr_matrix(A)) == dense
        B = sp.csr_matrix(A + A.conj().T)
        assert mb._hermiticity_defect(B) == 0.0

    def test_assembly_peak_memory(self):
        # the converge N = 6 point of the default config (dim 54264):
        # assembly holds at most 4 times the bytes of the CSR it returns
        # (2.74 measured on the real CSR, 2.56 when it was complex; 2.9
        # before the pair terms were folded, 7.2 when the diagonal was
        # added to the CSR and H - H^dagger was a sparse difference)
        cfg = cli.load_config(None)
        cv = cfg["converge"]
        eps = cv["eps0"] * (6 / cv["N_list"][0]) ** (-cv["alpha"])
        spb, offsets, K, h, _ = cli._lattice(cfg, 6, eps, cli.build_modes(cfg))
        basis = mb.build_basis(spb.d, 6)
        H, ratio = _assembly_peak(basis, h, offsets, K, G_x=spb.G_x, m=spb.m)
        assert basis.dim == 54264 and H.nnz == 612408
        assert ratio <= 4

    def test_finite_range_assembly_peak_memory(self):
        # the default config at dx = 0.2, N = 4, eps = 0.5: five offsets,
        # 320 unfolded pair monomials, 168 folded ones.  A mask per monomial
        # traced 5.98 times the CSR; one per annihilated pair and folded
        # pair terms, 2.89 on a complex CSR and 3.28 on the real one
        cfg = cli.load_config(None)
        cfg["solver"]["dx"] = 0.2
        spb, offsets, K, h, _ = cli._lattice(cfg, 4, 0.5, cli.build_modes(cfg))
        assert len(offsets) == 5
        assert len(mb._pair_terms(offsets, K, spb.d, None, None,
                                  False)[0]) == 168
        H, ratio = _assembly_peak(mb.build_basis(spb.d, 4), h, offsets, K)
        assert H.shape == (3876, 3876) and ratio <= 4

    def test_block_assembly_peak_memory(self):
        # converge's N = 6 point in the zero-momentum block (2.5 measured)
        cfg = cli.load_config(None)
        cv = cfg["converge"]
        eps = cv["eps0"] * (6 / cv["N_list"][0]) ** (-cv["alpha"])
        spb, offsets, K, h, _ = cli._lattice(cfg, 6, eps, cli.build_modes(cfg))
        block = mb.momentum_block(spb.G_x, spb.m, 6)
        H, ratio = _assembly_peak(block, h, offsets, K)
        assert block.dim == 6798 and ratio <= 4

    def test_condensate_energy_identity(self, small_system):
        # <phi^N, H phi^N>/N equals the mean-field energy functional
        # <phi, h phi> + (N-1)/2 <phi phi, W phi phi> exactly
        s, N = small_system, 3
        phi = s["phi0"]
        psi = mb.condensate_state(s["basis"], phi)
        e_many = mb.energy_per_particle(s["basis"], psi, s["H"])
        W = _pair_matrix(s["offsets"], s["K"], 6)
        e_hart = np.vdot(phi, s["h"] @ phi).real + 0.5 * (N - 1) * np.einsum(
            "pqsr,p,q,r,s->", W, phi.conj(), phi.conj(), phi, phi).real
        assert np.isclose(e_many, e_hart, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("system, N", [("small", 2), ("small", 3),
                                           ("wrapped", 3)])
    def test_first_quantized_oracle(self, small_system, system, N):
        # the Hamiltonian on (C^d)^(x)N built from the docstring of
        # build_hamiltonian, mapped to the Fock basis by dense_to_fock
        s = small_system if system == "small" else _wrapped_system()
        h, offsets, K = s["h"], s["offsets"], s["K"]
        d = len(h)
        W = _pair_matrix(offsets, K, d // K.shape[1]).reshape(d * d, d * d)
        H1 = sum(_embed(h, [i], N, d) for i in range(N))
        H1 = H1 + 0.5 * sum(_embed(W, [i, j], N, d)
                            for i in range(N) for j in range(N) if i != j)
        basis = mb.build_basis(d, N)
        J = np.column_stack([_symmetric(occ, N, d)
                             for occ in basis.occupations])
        HJ = H1 @ J
        oracle = np.column_stack([cd.dense_to_fock(HJ[:, k], basis)
                                  for k in range(basis.dim)])
        H = mb.build_hamiltonian(basis, h, offsets, K)
        assert np.abs(H.toarray() - oracle).max() < 1e-12

    def test_layout_derived_from_kernel(self, small_system):
        s = small_system
        H = mb.build_hamiltonian(s["basis"], s["h"], s["offsets"], s["K"])
        assert (H != s["H"]).nnz == 0
        args = (s["basis"], s["h"], s["offsets"], s["K"])
        for kw in ({"m": 1}, {"G_x": 12}, {"G_x": 4, "m": 3}):
            with pytest.raises(mb.ManyBodyError, match="layout"):
                mb.build_hamiltonian(*args, **kw)
        with pytest.raises(mb.ManyBodyError, match="one-body"):
            mb.build_hamiltonian(s["basis"], s["h"][:6, :6], s["offsets"],
                                 s["K"])
        with pytest.raises(mb.ManyBodyError, match="layout"):
            mb.hartree_evolve(s["h"], s["offsets"], s["K"], 12, 1, 3,
                              s["phi0"], T=0.01, dt=1e-3)

    def test_noninteracting_ground_energy(self, modes):
        # an all-zero kernel keeps no pair term
        spb = mb.SingleParticleBasis(G_x=4, dx=0.5, eps=0.5,
                                     transverse_energies=modes.energies)
        h = mb.one_body_matrix(spb)
        basis = mb.build_basis(spb.d, 2)
        K = np.zeros((1,) + (spb.m,) * 4)
        assert len(mb._pair_terms(np.array([0]), K, spb.d, None, None,
                                  False)[0]) == 0
        H = mb.build_hamiltonian(basis, h, np.array([0]), K)
        e0_many = np.min(np.linalg.eigvalsh(H.toarray()))
        e0_one = np.min(np.linalg.eigvalsh(h))
        assert np.isclose(e0_many, 2 * e0_one, atol=1e-10)


class TestPropagation:
    def test_krylov_matches_dense(self, small_system):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        frames = mb.evolve_state(s["basis"], s["H"], psi0, T=0.2, dt=0.01)
        ref = mb.evolve_state_dense(s["H"], psi0, [0.2])[0][1]
        ref = ref / np.linalg.norm(ref)
        assert np.linalg.norm(frames[-1][1] - ref) < 1e-9

    def test_norm_and_energy_conserved(self, small_system):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        frames = mb.evolve_state(s["basis"], s["H"], psi0, T=0.3, dt=0.01,
                                 store_every=5)
        e = [mb.energy_per_particle(s["basis"], p, s["H"]) for _, p in frames]
        assert max(abs(v - e[0]) for v in e) < 1e-9
        assert all(np.isclose(np.linalg.norm(p), 1.0) for _, p in frames)

    @pytest.mark.parametrize("start", ["condensate", "random"])
    @pytest.mark.parametrize("T", [2.0, 4.0])
    def test_long_single_frame_restarts_the_space(self, criterion9_system,
                                                  start, T):
        # T ||H||_1 is 110 or 220: beyond one space of 16 vectors, and
        # beyond evolve_state's 64 except from the condensate at T = 2
        s = criterion9_system
        v = s["psi0"] if start == "condensate" else _random_state(
            s["basis"].dim, 7)
        ref = mb.evolve_state_dense(s["H"], v, [T])[0][1]
        H = _CountingMatrix(s["H"])
        frames = mb.evolve_state(s["basis"], H, v, T=T, dt=T)
        assert [t for t, _ in frames] == [0.0, T]
        assert np.linalg.norm(frames[-1][1] - ref) < 1e-10
        assert (H.matvecs > 64) == (start == "random" or T == 4.0)
        H = _CountingMatrix(s["H"])
        out = mb.lanczos_expm_apply(H, v, [T], kdim=16)
        assert len(out) == 1 and H.matvecs > 4 * 16
        assert np.linalg.norm(out[0] - ref) < 1e-10

    @pytest.mark.parametrize("start", ["real", "restart", "complex"])
    def test_real_hamiltonian_matches_complex(self, criterion9_system,
                                              monkeypatch, start):
        # the real H of the criterion-9 system against the same H stored
        # complex: a real start runs in real Krylov vectors; kdim = 8 forces
        # restarts, whose complex spaces apply the real H through
        # ``_matvec``; the condensate of phi0 exp(2 pi i g / G_x) is complex
        s = criterion9_system
        H, basis = s["H"], s["basis"]
        assert H.dtype == np.float64
        kinds = []
        matvec = mb._matvec

        def recording(A, u):
            if A is H:
                kinds.append(u.dtype.kind)
            return matvec(A, u)

        monkeypatch.setattr(mb, "_matvec", recording)
        if start == "restart":
            v, times = s["psi0"].real.copy(), [0.25, 0.5, 1.0]
            a, b = (mb.lanczos_expm_apply(A, v, times, kdim=8)
                    for A in (H, H.astype(complex)))
        else:
            v = s["psi0"] if start == "real" else mb.condensate_state(
                basis, s["phi0"] * np.exp(2j * np.pi * np.arange(16) / 16))
            a, b = ([p for _, p in mb.evolve_state(basis, A, v, T=1.0,
                                                   dt=0.125, store_every=2)]
                    for A in (H, H.astype(complex)))
        assert len(a) == len(b) and all(p.dtype == complex for p in a)
        assert max(np.linalg.norm(p - q) for p, q in zip(a, b)) <= 1e-13
        assert set(kinds) == {"real": {"f"}, "restart": {"f", "c"},
                              "complex": {"c"}}[start]

    def test_frames_from_one_call_match_dense(self, criterion9_system):
        # 8 frames to T = 4 that several spaces reach in turn
        s = criterion9_system
        H = _CountingMatrix(s["H"])
        frames = mb.evolve_state(s["basis"], H, s["psi0"], T=4.0, dt=0.125,
                                 store_every=4)
        times = [t for t, _ in frames]
        assert times == [0.0] + [0.5 * i for i in range(1, 9)]
        ref = mb.evolve_state_dense(s["H"], s["psi0"], times)
        assert max(np.linalg.norm(p - q) for (_, p), (_, q)
                   in zip(frames, ref)) < 1e-10
        assert 64 < H.matvecs < 2 * 64

    def test_stops_at_error_estimate(self, small_system):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        ref = mb.evolve_state_dense(s["H"], psi0, [0.01])[0][1]
        H = _CountingMatrix(s["H"])
        out = mb.lanczos_expm_apply(H, psi0, [0.01], kdim=40)[0]
        assert 2 < H.matvecs < 40
        assert np.linalg.norm(out - ref) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 31, 32, 40, 120])
    def test_tridiagonal_exponential_matches_dense(self, k):
        # the Lanczos loop passes all kdim off-diagonal entries; only the
        # first k - 1 belong to T_k
        rng = np.random.default_rng(k)
        alpha = rng.uniform(-5.0, 5.0, k)
        beta = rng.uniform(0.5, 3.0, k)
        T = np.diag(alpha) + np.diag(beta[:k - 1], 1) \
            + np.diag(beta[:k - 1], -1)
        evals, evecs = np.linalg.eigh(T)
        dense = evecs @ (np.exp(-0.3j * evals) * evecs[0])
        evals, evecs = mb._tridiagonal_eig(alpha, beta)
        coef = mb._expm_e1(evals, evecs, [0.3])[0]
        assert np.max(np.abs(coef - dense)) <= 1e-14
        assert mb._last_entry(evals, evecs, [0.3])[0] == pytest.approx(
            dense[-1], abs=1e-14)

    def test_default_config_krylov_dimensions(self, monkeypatch):
        # the default `manybody` propagation: one Lanczos call reaches the
        # 10 frames in 172 matvecs; the fixed-step propagator took 10 calls
        # and 290
        cfg = cli.load_config(None)
        N, eps, T = cfg["scaling"]["N"], cfg["scaling"]["eps"], \
            cfg["solver"]["T"]
        spb, offsets, K, h, phi0 = cli._lattice(cfg, N, eps,
                                                cli.build_modes(cfg))
        basis = mb.build_basis(spb.d, N)
        H = _CountingMatrix(mb.build_hamiltonian(basis, h, offsets, K,
                                                 G_x=spb.G_x, m=spb.m))
        calls = []
        apply = mb.lanczos_expm_apply

        def counting(*args, **kwargs):
            calls.append((list(args[2]), kwargs["kdim"]))
            return apply(*args, **kwargs)

        monkeypatch.setattr(mb, "lanczos_expm_apply", counting)
        mb.evolve_state(basis, H, mb.condensate_state(basis, phi0), T=T,
                        dt=T / 10, store_every=1)
        assert calls == [([(i + 1) * (T / 10) for i in range(10)], 64)]
        assert H.matvecs == 172

    @pytest.mark.parametrize("N, fixed_steps", [
        (2, 72), (3, 128), (4, 160), (5, 168), (6, 184)])
    def test_depletion_sweep_matvecs(self, N, fixed_steps):
        # the criterion-9 systems to T = 1 in steps of 0.125, one frame: no
        # more matvecs than the fixed-step propagator took
        s = _criterion9(N)
        H = _CountingMatrix(s["H"])
        mb.evolve_state(s["basis"], H, s["psi0"], T=1.0, dt=0.125)
        assert H.matvecs <= fixed_steps

    def test_converge_matvecs(self):
        # converge's default points, 10 frames each: no more matvecs than
        # the fixed-step propagator took
        cfg = cli.load_config(None)
        cv, modes = cfg["converge"], cli.build_modes(cfg)
        counts = []
        for N in cv["N_list"]:
            eps = cv["eps0"] * (N / cv["N_list"][0]) ** (-cv["alpha"])
            spb, offsets, K, h, phi0 = cli._lattice(cfg, N, eps, modes)
            basis = mb.build_basis(spb.d, N)
            H = _CountingMatrix(mb.build_hamiltonian(
                basis, h, offsets, K, G_x=spb.G_x, m=spb.m))
            T = cfg["solver"]["T"]
            mb.evolve_state(basis, H, mb.condensate_state(basis, phi0), T=T,
                            dt=T / 10, store_every=1)
            counts.append(H.matvecs)
        assert cv["N_list"] == [2, 3, 4, 6]
        assert all(c <= f for c, f in zip(counts, [100, 160, 220, 290]))

    def test_one_recurrence_past_default_kdim(self, criterion9_system):
        # a random start at t = 2 needs some 80 vectors in one space, more
        # than evolve_state's 64: they lose orthogonality, which the plain
        # recurrence does not restore, and the result still matches the
        # dense propagator
        s = criterion9_system
        v = _random_state(s["basis"].dim, 7)
        H = _CountingMatrix(s["H"])
        out = mb.lanczos_expm_apply(H, v, [2.0], kdim=120)[0]
        ref = mb.evolve_state_dense(s["H"], v, [2.0])[0][1]
        assert 40 < H.matvecs <= 120
        assert np.linalg.norm(out - ref) < 1e-12

    def test_norm_not_restored(self, small_system, monkeypatch):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        monkeypatch.setattr(
            mb, "lanczos_expm_apply", lambda H, v, times, kdim: [
                (1 + 1e-6) ** (i + 1) * v for i in range(len(times))])
        frames = mb.evolve_state(s["basis"], s["H"], psi0, T=0.05, dt=0.01,
                                 store_every=1)
        norms = [np.linalg.norm(p) for _, p in frames]
        assert np.allclose(norms, (1 + 1e-6) ** np.arange(6), rtol=0,
                           atol=1e-14)

    def test_eigenvector_gets_phase(self, criterion9_system):
        H = criterion9_system["H"]
        E, U = np.linalg.eigh(H.toarray())
        for i in (0, 400, len(E) - 1):
            out = mb.lanczos_expm_apply(H, U[:, i], [0.7], kdim=40)[0]
            assert np.linalg.norm(out - np.exp(-0.7j * E[i]) * U[:, i]) < 1e-13

    def test_real_and_zero_input(self, criterion9_system):
        s = criterion9_system
        v = s["psi0"].real.copy()
        ref = mb.evolve_state_dense(s["H"], v.astype(complex), [0.3])[0][1]
        out = mb.lanczos_expm_apply(s["H"], v, [0.3], kdim=40)[0]
        assert np.linalg.norm(out - ref) < 1e-12
        zero = np.zeros(s["basis"].dim)
        out = mb.lanczos_expm_apply(s["H"], zero, [0.1, 0.3], kdim=40)
        assert len(out) == 2
        assert all(o.dtype == zero.dtype and not o.any() for o in out)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_refused(self, criterion9_system, bad):
        s = criterion9_system
        H = s["H"].copy()
        H.data[5] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(mb.ManyBodyError, match="non-finite"):
                mb.lanczos_expm_apply(H, s["psi0"], [0.1], kdim=40)
            with pytest.raises(mb.ManyBodyError, match="non-finite"):
                mb.lanczos_expm_apply(s["H"], s["psi0"], [0.1, bad], kdim=40)

    def test_one_vector_refused(self, small_system):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        with pytest.raises(mb.ManyBodyError, match="at least 2"):
            mb.lanczos_expm_apply(s["H"], psi0, [0.01], kdim=1)
        with pytest.raises(mb.ManyBodyError, match="increasing"):
            mb.lanczos_expm_apply(s["H"], psi0, [0.02, 0.01], kdim=40)

    @pytest.mark.parametrize("T, dt", [(0.0, 0.01), (-1.0, 0.1), (0.1, 0.0),
                                       (0.1, -0.01), (0.0, None)])
    def test_bad_time_or_step_refused(self, small_system, T, dt):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        with pytest.raises(mb.ManyBodyError, match="must be positive"):
            mb.evolve_state(s["basis"], s["H"], psi0, T=T, dt=dt)
        with pytest.raises(mb.ManyBodyError, match="must be positive"):
            mb.hartree_evolve(s["h"], s["offsets"], s["K"], 6, 2, 3,
                              s["phi0"], T=T, dt=1e-3 if dt is None else dt)


class TestObservables:
    def test_gamma1_unit_trace_psd(self, small_system):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        frames = mb.evolve_state(s["basis"], s["H"], psi0, T=0.2, dt=0.01)
        g1 = mb.reduced_density(s["basis"], frames[-1][1], M=1)
        ev = np.linalg.eigvalsh(g1)
        assert np.isclose(np.trace(g1).real, 1.0, atol=1e-12)
        assert ev.min() > -1e-12

    def test_trace_distance(self):
        p = np.diag([1.0, 0.0])
        q = np.diag([0.0, 1.0])
        assert np.isclose(mb.trace_distance(p, q), 2.0)
        assert mb.trace_distance(p, p) == 0.0
        with pytest.raises(mb.ManyBodyError):
            mb.trace_distance(np.array([[0, 1], [0, 0]]), p)

    def test_mode_occupations_sum(self, small_system):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        occ = mb.mode_occupations(s["basis"], psi0)
        assert np.isclose(occ.sum(), 3.0)

    def test_excitation_probability_ground_condensate(self, small_system):
        s = small_system
        # condensate built purely from transverse ground-mode sites
        phi = np.zeros(s["spb"].d, dtype=complex)
        phi[0::2] = 1.0
        psi = mb.condensate_state(s["basis"], phi)
        assert mb.excitation_probability(s["basis"], psi, s["spb"]) < 1e-14


def _wave_start(s):
    """phi0 times a density wave along x, in the transverse ground mode: not
    stationary, so ``hartree_evolve`` integrates it by RK4."""
    g = np.arange(len(s["phi0"])) // 2
    phi = s["phi0"] * (1 + 0.3 * np.cos(2 * np.pi * g / 6))
    phi /= np.linalg.norm(phi)
    _, residual = mb.mean_field_stationary(s["h"], s["offsets"], s["K"], 6, 2,
                                           3, phi)
    assert residual > mb.stationary_bound(s["h"])
    return phi


class TestHartree:
    def test_norm_conserved(self, small_system):
        s = small_system
        frames = mb.hartree_evolve(s["h"], s["offsets"], s["K"], 6, 2, 3,
                                   _wave_start(s), T=0.5, dt=2e-3)
        norms = [np.linalg.norm(v) for _, v in frames]
        assert max(abs(n - 1.0) for n in norms) < 1e-8
        # the wave moves: the last frame has left the start's ray
        assert abs(np.vdot(frames[0][1], frames[-1][1])) < 0.99

    def test_energy_conserved(self, small_system):
        s = small_system
        frames = mb.hartree_evolve(s["h"], s["offsets"], s["K"], 6, 2, 3,
                                   _wave_start(s), T=0.5, dt=2e-3)
        # the Hartree energy of v is the many-body energy of its condensate
        e = [mb.energy_per_particle(
                 s["basis"], mb.condensate_state(s["basis"], v), s["H"])
             for _, v in frames[:: len(frames) // 5]]
        assert max(abs(v - e[0]) for v in e) < 1e-8

    def test_pair_matrix_oracle(self):
        # the condensate's energy and the Hartree right-hand side against
        # the pair operator built from the docstring, at a random state that
        # is not stationary.  The first-quantized H sums W over the ordered
        # particle pairs i != j, so the right-hand side reads W symmetrized
        # over the two particles.  The kernel without pair-exchange symmetry
        # tells that from W itself: twice the terms' gradient at p alone
        # is off by 3.4 in norm there
        rng = np.random.default_rng(6)
        phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        phi = phi / np.linalg.norm(phi)
        N, basis = 4, mb.build_basis(6, 4)
        for exchange in (True, False):
            s = _wrapped_system(exchange)
            W = _pair_matrix(s["offsets"], s["K"], 3)
            W_sym = 0.5 * (W + W.transpose(1, 0, 3, 2))
            assert np.array_equal(W_sym, W) == exchange
            e = np.vdot(phi, s["h"] @ phi).real + 0.5 * (N - 1) * np.einsum(
                "pqsr,p,q,r,s->", W, phi.conj(), phi.conj(), phi, phi).real
            H = mb.build_hamiltonian(basis, s["h"], s["offsets"], s["K"])
            assert abs(mb.energy_per_particle(
                basis, mb.condensate_state(basis, phi), H) - e) < 1e-12
            rhs = -1j * (s["h"] @ phi + (N - 1) * np.einsum(
                "pqsr,q,r,s->p", W_sym, phi.conj(), phi, phi))
            dt = 1e-6
            frames = mb.hartree_evolve(s["h"], s["offsets"], s["K"], 3, 2, N,
                                       phi, T=dt, dt=dt)
            step = (frames[-1][1] - phi) / dt
            assert np.linalg.norm(step - rhs) < 1e-4 * np.linalg.norm(rhs)
            # the stationarity residual reads the same right-hand side
            lam, residual = mb.mean_field_stationary(
                s["h"], s["offsets"], s["K"], 3, 2, N, phi)
            assert abs(lam - np.vdot(phi, 1j * rhs).real) < 1e-12
            assert abs(residual - np.linalg.norm(1j * rhs - lam * phi)) < 1e-12

    def test_matches_manybody_for_large_N_weak_coupling(self, small_system):
        # with the interaction switched off Hartree and one-body dynamics agree
        s = small_system
        K0 = np.zeros_like(s["K"])
        frames = mb.hartree_evolve(s["h"], s["offsets"], K0, 6, 2, 3,
                                   s["phi0"], T=0.2, dt=1e-3)
        evals, evecs = np.linalg.eigh(s["h"])
        c0 = evecs.conj().T @ s["phi0"]
        exact = evecs @ (np.exp(-1j * evals * 0.2) * c0)
        assert np.linalg.norm(frames[-1][1] - exact) < 1e-8


class TestStationaryReference:
    @pytest.fixture(scope="class")
    def default_lattice(self):
        cfg = cli.load_config(None)
        N = cfg["scaling"]["N"]
        spb, offsets, K, h, phi0 = cli._lattice(
            cfg, N, cfg["scaling"]["eps"], cli.build_modes(cfg))
        return dict(args=(h, offsets, K, spb.G_x, spb.m, N), phi0=phi0)

    @pytest.mark.parametrize("T", [1.0, 1.2345])
    def test_projector_matches_fine_hartree_run(self, default_lattice, T,
                                                monkeypatch):
        # the stationary phi0's frames against RK4 forced on its mean field
        # at a sixteenth of the 1e-3 step: the same times, phi0's projector
        # and its phase exp(-i lambda t), with no RK4 step of their own
        args, phi0 = default_lattice["args"], default_lattice["phi0"]
        lam, residual = mb.mean_field_stationary(*args, phi0)
        assert residual <= 1e-12
        h_mf = mb._mean_field(*args, len(phi0))
        oracle = mb._rk4(lambda t, v: -1j * h_mf(v),
                         phi0 / np.linalg.norm(phi0), *mb._steps(T, 1e-3 / 16))
        monkeypatch.setattr(mb, "_rk4", lambda *a: pytest.fail(
            "an RK4 run from a stationary start"))
        frames = mb.hartree_evolve(*args, phi0, T=T, dt=1e-3 / 16)
        assert [t for t, _ in frames] == [t for t, _ in oracle]
        picks = list(range(0, len(frames), 250)) + [len(frames) - 1]
        phi = np.array([frames[k][1] for k in picks])
        ref = np.array([oracle[k][1] for k in picks])
        P = np.einsum("ki,kj->kij", phi, phi.conj())
        P_ref = np.einsum("ki,kj->kij", ref, ref.conj())
        assert np.linalg.norm(P - P_ref, axis=(1, 2)).max() <= 1e-12
        assert np.linalg.norm(phi - ref, axis=1).max() <= 1e-12
        assert np.linalg.norm(frames[-1][1]
                              - np.exp(-1j * lam * T) * phi0) <= 1e-12


def _momentum_fock_map(basis, block, G_x):
    """J with the block's states as columns, written on the full basis of
    the lattice modes: each occupation's symmetric tensor over the momentum
    modes, taken to the lattice modes by b+_(k,j) =
    sum_g conj(W[(k,j), (g,j)]) a+_(g,j), W the unitary DFT over x."""
    N, d = block.N, block.d
    k = np.arange(G_x)
    F = np.exp(-2j * np.pi * np.outer(k, k) / G_x) / np.sqrt(G_x)
    W = np.kron(F, np.eye(d // G_x)).conj()
    cols = []
    for occ in block.occupations:
        t = _symmetric(occ, N, d).reshape((d,) * N).astype(complex)
        for axis in range(N):
            t = np.moveaxis(np.tensordot(W, t, axes=([0], [axis])), 0, axis)
        cols.append(cd.dense_to_fock(t.ravel(), basis))
    return np.column_stack(cols)


class TestMomentumBlock:
    @pytest.mark.parametrize("N, dim", [(2, 18), (3, 102), (4, 490),
                                        (6, 6798)])
    def test_dimensions_by_brute_force(self, N, dim):
        # converge's points on 8 sites x 2 modes: the multisets of N modes
        # whose momenta k = mode // 2 sum to 0 mod 8
        count = sum(sum(i // 2 for i in modes) % 8 == 0 for modes in
                    combinations_with_replacement(range(16), N))
        block = mb.momentum_block(8, 2, N)
        assert count == block.dim == dim
        full = mb.build_basis(16, N)
        assert np.array_equal(full.occupations[block.ranks],
                              block.occupations)
        assert np.all(np.diff(block.ranks) > 0)

    def test_default_block_nnz(self):
        cfg = cli.load_config(None)
        N, eps = cfg["scaling"]["N"], cfg["scaling"]["eps"]
        spb, offsets, K, h, _ = cli._lattice(cfg, N, eps, cli.build_modes(cfg))
        H = mb.build_hamiltonian(mb.momentum_block(spb.G_x, spb.m, N), h,
                                 offsets, K)
        assert H.shape == (490, 490) and H.nnz == 18170
        assert H.dtype == np.complex128
        # the folded terms over the momentum modes: of the 2320 pairs of
        # pairs that share a total momentum, those the kernel couples
        assert len(mb._pair_terms(offsets, K, spb.d, None, None,
                                  True)[0]) == 1168

    @pytest.mark.parametrize("N", [2, 3])
    def test_matches_rotated_lattice_hamiltonian(self, N):
        # the random kernel on 3 sites at offsets -2..2 (wrapping): H on the
        # block equals J^dagger H J of the lattice-mode H, and J's columns
        # are orthonormal
        s = _wrapped_system()
        basis = mb.build_basis(len(s["h"]), N)
        block = mb.momentum_block(3, 2, N)
        J = _momentum_fock_map(basis, block, 3)
        H = mb.build_hamiltonian(basis, s["h"], s["offsets"], s["K"])
        H_k = mb.build_hamiltonian(block, s["h"], s["offsets"], s["K"])
        assert np.abs(J.conj().T @ J - np.eye(block.dim)).max() < 1e-13
        assert np.abs(J.conj().T @ (H @ J) - H_k.toarray()).max() < 1e-12

    def test_momentum_violating_monomial_refused(self):
        # mode 2 is (k = 1, j = 0) and mode 0 is (k = 0, j = 0): the hop
        # changes the momentum by 1
        block = mb.momentum_block(4, 2, 2)
        with pytest.raises(mb.ManyBodyError, match="zero-momentum block"):
            mb.hop(block, block, [[2]], [[0]])
        # a momentum-conserving one lands inside: (1, 0) + (3, 0) -> (0, 0)
        # twice
        term, rows, cols, amps = mb.hop(block, block, [[0, 0]], [[2, 6]])
        assert len(rows) > 0

    def test_non_circulant_one_body_refused(self):
        spb = mb.SingleParticleBasis(G_x=4, dx=0.5, eps=0.5,
                                     transverse_energies=np.array([2.0, 5.0]))
        h = mb.one_body_matrix(spb)
        h[0, 0] += 0.1          # a potential on site 0
        block = mb.momentum_block(4, 2, 2)
        with pytest.raises(mb.ManyBodyError, match="not circulant"):
            mb.build_hamiltonian(block, h, np.array([0]),
                                 np.ones((1, 2, 2, 2, 2)))

    def test_off_zero_momentum_state_refused(self):
        v = np.zeros(8, dtype=complex)
        v[::2] = 1.0
        assert np.allclose(mb.momentum_modes(v, 4)[::2], [2.0, 0, 0, 0])
        v[::2] = np.exp(2j * np.pi * np.arange(4) / 4)
        with pytest.raises(mb.ManyBodyError, match="k = 0"):
            mb.momentum_modes(v, 4)
