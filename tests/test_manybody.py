"""Tests for the exact few-boson simulator on the quasi-1D lattice."""

from itertools import permutations, product
from math import comb, factorial

import numpy as np
import pytest
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


def _wrapped_system():
    """3 sites x 2 modes with a random kernel at offsets -2..2, so offsets
    +-2 and -+1 reach the same sites; the kernel has the pair-exchange and
    Hermitian symmetries and no others."""
    rng = np.random.default_rng(5)
    K = rng.standard_normal((5, 2, 2, 2, 2))
    K = K + K[::-1].transpose(0, 2, 1, 4, 3)
    K = K + K.transpose(0, 4, 3, 2, 1)
    spb = mb.SingleParticleBasis(G_x=3, dx=0.5, eps=0.5,
                                 transverse_energies=np.array([2.0, 5.0]))
    return dict(h=mb.one_body_matrix(spb), offsets=np.arange(-2, 3), K=K)


@pytest.fixture(scope="module")
def criterion9_system():
    """The criterion-9 system at N = 3: 16 sites, one transverse mode,
    coupling lam / (N - 1) with lam = 4 K calibrated at N = 4, Fock
    dimension 816 and ||H||_1 about 55."""
    modes = tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=63), m=1)
    w = sc.bump_potential().scaled(15.0)
    offsets, K = mb.mode_kernel(modes, w, sc.scaling_params(4, 0.5, 0.25), 0.5)
    spb = mb.SingleParticleBasis(G_x=16, dx=0.5, eps=0.5,
                                 transverse_energies=modes.energies[:1])
    h = mb.one_body_matrix(spb)
    basis = mb.build_basis(spb.d, 3)
    H = mb.build_hamiltonian(basis, h, offsets, 4 * K / (3 - 1), G_x=16, m=1)
    psi0 = mb.condensate_state(basis, np.linalg.eigh(h)[1][:, 0])
    return dict(basis=basis, H=H, psi0=psi0)


class _CountingMatrix:
    """H whose products with vectors are counted."""

    def __init__(self, H):
        self.H, self.matvecs = H, 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self.H @ x


def _symmetric(occ, N, d):
    """The normalized symmetric tensor with occupations occ."""
    t = np.zeros((d,) * N)
    t[tuple(np.repeat(np.arange(d), occ))] = 1.0
    v = sum(np.transpose(t, perm) for perm in permutations(range(N)))
    return v.ravel() / np.linalg.norm(v)


class TestBasis:
    def test_dimension(self):
        basis = mb.build_basis(4, 3)
        assert basis.dim == comb(6, 3)
        assert np.all(basis.occupations.sum(axis=1) == 3)

    def test_lookup_roundtrip(self):
        # every state ranks to its own position in one batched call,
        # including one mode (d = 1) and the vacuum (N = 0)
        for d, N in [(4, 3), (16, 6), (1, 5), (5, 0)]:
            basis = mb.build_basis(d, N)
            assert np.array_equal(basis.rank(basis.occupations),
                                  np.arange(basis.dim))
        basis = mb.build_basis(16, 6)
        rows = np.random.default_rng(0).permutation(basis.dim)[:500]
        assert np.array_equal(basis.rank(basis.occupations[rows]), rows)

    def test_lexicographic_order(self):
        # first occupation descending, then the second, and so on
        basis = mb.build_basis(5, 4)
        ref = sorted((c for c in product(range(5), repeat=5) if sum(c) == 4),
                     reverse=True)
        assert np.array_equal(basis.occupations, ref)

    def test_cap(self):
        with pytest.raises(mb.ManyBodyError, match="cap"):
            mb.build_basis(50, 10)

    @pytest.mark.parametrize("d, N", [(3, -1), (0, 2), (0, 0)])
    def test_no_basis_refused(self, d, N):
        with pytest.raises(mb.ManyBodyError, match="no Fock basis"):
            mb.build_basis(d, N)

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
        g2 = mb.reduced_density(basis, psi, M=2)
        p2 = np.outer(np.kron(phi, phi), np.kron(phi, phi).conj())
        assert np.allclose(g2, p2, atol=1e-12)


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
        # 1e-16 assembly cut-off, and the count does not hinge on them
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
        odd = np.indices(K.shape[1:]).sum(axis=0) % 2 == 1
        assert np.max(np.abs(K[:, odd])) <= 1e-17
        K_even = K.copy()
        K_even[:, odd] = 0.0
        H_even = mb.build_hamiltonian(mb.build_basis(spb.d, N),
                                      mb.one_body_matrix(spb), offsets,
                                      K_even, G_x=G_x, m=spb.m)
        assert (H_even != H).nnz == 0

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
            mb.build_hamiltonian(s["basis"], s["h"][:6, :6])
        with pytest.raises(mb.ManyBodyError, match="layout"):
            mb.hartree_evolve(s["h"], s["offsets"], s["K"], 12, 1, 3,
                              s["phi0"], T=0.01)

    def test_noninteracting_ground_energy(self, modes):
        spb = mb.SingleParticleBasis(G_x=4, dx=0.5, eps=0.5,
                                     transverse_energies=modes.energies)
        h = mb.one_body_matrix(spb)
        basis = mb.build_basis(spb.d, 2)
        H = mb.build_hamiltonian(basis, h)
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

    @pytest.mark.parametrize("dt", [2.0, 4.0])
    def test_large_step_split_into_half_steps(self, criterion9_system,
                                              monkeypatch, dt):
        # dt ||H||_1 is 110 or 220, beyond what 40 Krylov vectors resolve
        s = criterion9_system
        steps = []
        apply = mb.lanczos_expm_apply

        def recorded(H, v, dt, *args, **kwargs):
            steps.append(dt)
            return apply(H, v, dt, *args, **kwargs)

        monkeypatch.setattr(mb, "lanczos_expm_apply", recorded)
        frames = mb.evolve_state(s["basis"], s["H"], s["psi0"], T=dt, dt=dt)
        ref = mb.evolve_state_dense(s["H"], s["psi0"], [dt])[0][1]
        assert [t for t, _ in frames] == [0.0, dt]
        assert steps[0] == dt and dt / 2 in steps
        assert np.linalg.norm(frames[-1][1] - ref) < 1e-10

    def test_stops_at_error_estimate(self, small_system):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        ref = mb.evolve_state_dense(s["H"], psi0, [0.01])[0][1]
        H = _CountingMatrix(s["H"])
        out = mb.lanczos_expm_apply(H, psi0, 0.01)
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
        assert np.max(np.abs(mb._expm_e1(alpha, beta, 0.3) - dense)) <= 1e-14

    def test_default_config_krylov_dimensions(self, monkeypatch):
        # the default `manybody` propagation: 10 Lanczos calls, 290 matvecs
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
            calls.append(args[2])
            return apply(*args, **kwargs)

        monkeypatch.setattr(mb, "lanczos_expm_apply", counting)
        mb.evolve_state(basis, H, mb.condensate_state(basis, phi0), T=T,
                        dt=T / 10, store_every=1)
        assert len(calls) == 10 and H.matvecs == 290

    def test_one_recurrence_past_default_kdim(self, criterion9_system):
        # a random start at dt = 2 needs some 80 vectors: they lose
        # orthogonality, which the plain recurrence does not restore, and
        # the result still matches the dense propagator
        s = criterion9_system
        rng = np.random.default_rng(7)
        v = rng.standard_normal(s["basis"].dim) \
            + 1j * rng.standard_normal(s["basis"].dim)
        v = v / np.linalg.norm(v)
        H = _CountingMatrix(s["H"])
        out = mb.lanczos_expm_apply(H, v, 2.0, kdim=120)
        ref = mb.evolve_state_dense(s["H"], v, [2.0])[0][1]
        assert 40 < H.matvecs <= 120
        assert np.linalg.norm(out - ref) < 1e-12

    def test_norm_not_restored(self, small_system, monkeypatch):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        monkeypatch.setattr(mb, "lanczos_expm_apply",
                            lambda H, v, dt, **kwargs: (1 + 1e-6) * v)
        frames = mb.evolve_state(s["basis"], s["H"], psi0, T=0.05, dt=0.01,
                                 store_every=1)
        norms = [np.linalg.norm(p) for _, p in frames]
        assert np.allclose(norms, (1 + 1e-6) ** np.arange(6), rtol=0,
                           atol=1e-14)

    def test_eigenvector_gets_phase(self, criterion9_system):
        H = criterion9_system["H"]
        E, U = np.linalg.eigh(H.toarray())
        for i in (0, 400, len(E) - 1):
            out = mb.lanczos_expm_apply(H, U[:, i], 0.7)
            assert np.linalg.norm(out - np.exp(-0.7j * E[i]) * U[:, i]) < 1e-13

    def test_real_and_zero_input(self, criterion9_system):
        s = criterion9_system
        v = s["psi0"].real.copy()
        ref = mb.evolve_state_dense(s["H"], v.astype(complex), [0.3])[0][1]
        assert np.linalg.norm(mb.lanczos_expm_apply(s["H"], v, 0.3) - ref) \
            < 1e-12
        zero = np.zeros(s["basis"].dim)
        out = mb.lanczos_expm_apply(s["H"], zero, 0.3)
        assert out.dtype == zero.dtype and not out.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_refused(self, criterion9_system, bad):
        s = criterion9_system
        H = s["H"].copy()
        H.data[5] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(mb.ManyBodyError, match="non-finite"):
                mb.lanczos_expm_apply(H, s["psi0"], 0.1)
            with pytest.raises(mb.ManyBodyError, match="non-finite"):
                mb.lanczos_expm_apply(s["H"], s["psi0"], bad)

    def test_one_vector_refused(self, small_system):
        s = small_system
        psi0 = mb.condensate_state(s["basis"], s["phi0"])
        with pytest.raises(mb.ManyBodyError, match="at least 2"):
            mb.lanczos_expm_apply(s["H"], psi0, 0.01, kdim=1)

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
        # is not stationary
        s, N = _wrapped_system(), 4
        W = _pair_matrix(s["offsets"], s["K"], 3)
        rng = np.random.default_rng(6)
        phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        phi = phi / np.linalg.norm(phi)
        e = np.vdot(phi, s["h"] @ phi).real + 0.5 * (N - 1) * np.einsum(
            "pqsr,p,q,r,s->", W, phi.conj(), phi.conj(), phi, phi).real
        basis = mb.build_basis(6, N)
        H = mb.build_hamiltonian(basis, s["h"], s["offsets"], s["K"])
        assert abs(mb.energy_per_particle(
            basis, mb.condensate_state(basis, phi), H) - e) < 1e-12
        rhs = -1j * (s["h"] @ phi + (N - 1) * np.einsum(
            "pqsr,q,r,s->p", W, phi.conj(), phi, phi))
        dt = 1e-6
        frames = mb.hartree_evolve(s["h"], s["offsets"], s["K"], 3, 2, N,
                                   phi, T=dt, dt=dt)
        step = (frames[-1][1] - phi) / dt
        assert np.linalg.norm(step - rhs) < 1e-4 * np.linalg.norm(rhs)
        # the stationarity residual reads the same right-hand side
        lam, residual = mb.mean_field_stationary(s["h"], s["offsets"], s["K"],
                                                 3, 2, N, phi)
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
