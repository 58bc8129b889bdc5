"""Tests for the cross-section eigenmode solver and its derived scalars.

Frozen oracles (computed once with scipy.integrate.dblquad / special):
  - square (0,1)^2 angular-momentum norm about the center:
      ||L chi||^2 = 0.14493406684822652   (dblquad, epsabs 1e-12)
  - unit disk ground energy: j_{0,1}^2 = 5.783185962946785
  - rectangle (0,pi)^2 quartic integral: 9 / (4 pi^2)
"""

import json

import numpy as np
import pytest
from scipy.sparse.linalg import eigs, eigsh
from scipy.special import jn_zeros

from bectube import cli
from bectube import transverse as tv
from oracles import masked, overlap_tensor, rayleigh_residual

SQUARE_LCHI2 = 0.14493406684822652
DISK_E0 = 5.783185962946785


@pytest.fixture(scope="module")
def rect_pi():
    return tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=127), m=2)


@pytest.fixture(scope="module")
def disk128():
    return tv.dirichlet_modes(tv.disk(1.0, n=128), m=2)


class TestRectangle:
    def test_ground_energy(self, rect_pi):
        assert abs(rect_pi.e0 - 2.0) / 2.0 < 5e-3

    def test_gap(self, rect_pi):
        # E1 = 1 + 4 = 5, so the gap is 3
        assert abs(rect_pi.gap - 3.0) < 2e-3

    def test_quartic_integral(self, rect_pi):
        assert abs(rect_pi.q4 - 9.0 / (4 * np.pi**2)) < 1e-3

    def test_normalization(self, rect_pi):
        h = rect_pi.cs.h
        assert np.isclose(h**2 * np.sum(rect_pi.chi[0] ** 2), 1.0)

    def test_ground_mode_positive(self, rect_pi):
        interior = rect_pi.chi[0][rect_pi.cs.mask]
        assert interior.min() > -1e-10

    def test_matches_separable_solution(self, rect_pi):
        cs = rect_pi.cs
        Y1, Y2 = np.meshgrid(cs.y1, cs.y2, indexing="ij")
        exact = (2.0 / np.pi) * np.sin(Y1) * np.sin(Y2)
        assert np.max(np.abs(rect_pi.chi[0] - exact)) < 1e-3


class TestDisk:
    def test_ground_energy(self, disk128):
        assert abs(disk128.e0 - DISK_E0) / DISK_E0 < 1e-3

    def test_gap(self, disk128):
        exact = jn_zeros(1, 1)[0] ** 2 - DISK_E0
        assert abs(disk128.gap - exact) / exact < 2e-3

    def test_radial_mode_no_angular_momentum(self, disk128):
        # the ground mode is radial, so ||L chi||^2 vanishes
        assert disk128.lchi2 < 1e-6

    def test_determinism(self):
        a = tv.dirichlet_modes(tv.disk(1.0, n=64), m=1)
        b = tv.dirichlet_modes(tv.disk(1.0, n=64), m=1)
        assert np.array_equal(a.chi, b.chi)
        assert np.array_equal(a.energies, b.energies)


class TestEllipse:
    def test_circular_ellipse_matches_disk(self):
        m = tv.dirichlet_modes(tv.ellipse(1.0, 1.0, n=96), m=1)
        assert abs(m.e0 - DISK_E0) / DISK_E0 < 2e-3

    def test_elongation_lowers_energy(self):
        e0_round = tv.dirichlet_modes(tv.ellipse(1.0, 1.0, n=64), m=1).e0
        e0_long = tv.dirichlet_modes(tv.ellipse(1.5, 1.0, n=64), m=1).e0
        assert e0_long < e0_round


def plain_eigs_modes(cs, m):
    """Energies and unit interior vectors of the m lowest modes from
    ``eigs`` with the LU it builds itself (default column ordering)."""
    A = tv._laplacian(cs)
    vals, vecs = eigs(A, k=m + 1, sigma=float(cs.vperp.min()) - 1.0,
                      which="LM", v0=np.ones(A.shape[0]), tol=1e-9)
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs = (vecs * (np.abs(lead) / lead)).real
    order = np.argsort(vals.real)[:m]
    vecs = vecs[:, order]
    return vals.real[order], vecs / np.linalg.norm(vecs, axis=0)


def _holed_square():
    """A square with an off-centre hole: a mask with no levelset."""
    y = np.linspace(0.0, np.pi, 66)[1:-1]
    mask = np.ones((64, 64), dtype=bool)
    mask[10:22, 16:28] = False
    return masked(y, y, mask)


class TestBoundaryFittedSolve:
    # the BLAS-free Arnoldi on the fill-reducing LU against ARPACK's eigs
    # with its default factorization; the disk's second and third modes are
    # degenerate, so only chi_0 is compared there
    @pytest.mark.parametrize("cs, m, n_compared", [
        (tv.disk(1.0, n=96), 2, 1),
        (tv.ellipse(1.5, 1.0, n=64), 3, 3),
        (_holed_square(), 3, 3),
        (tv.rectangle(2.0, 1.0, n=63,
                      vperp=lambda y1, y2: 4.0 * (y1 - 0.7) ** 2 + y2), 3, 3),
    ], ids=["disk", "ellipse", "mask", "varying_vperp"])
    def test_matches_default_factorization(self, cs, m, n_compared):
        modes = tv.dirichlet_modes(cs, m=m)
        vals, vecs = plain_eigs_modes(cs, m)
        assert np.max(np.abs(modes.energies - vals) / vals) < 1e-12
        for j in range(n_compared):
            v = modes.chi[j][cs.mask]
            v = v / np.linalg.norm(v)
            ref = vecs[:, j] * np.sign(v @ vecs[:, j])
            assert np.max(np.abs(v - ref)) < 1e-10


def _centred_hole():
    """A square with a centred hole: a mask with no levelset that both
    reflections map onto itself."""
    y = np.linspace(0.0, np.pi, 66)[1:-1]
    mask = np.ones((64, 64), dtype=bool)
    mask[24:40, 24:40] = False
    return masked(y, y, mask)


def one_class_modes(cs, k):
    """``_shift_invert_modes`` on the full grid, as one class."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tv, "_mirror_axes", lambda cs: ())
        return tv._shift_invert_modes(cs, k)


class TestParityClasses:
    # the k lowest pairs of the class solve against the one-class solve of
    # the full grid; k never cuts a degenerate pair, and each class mode
    # must lie in the oracle's eigenspace of its energy
    @pytest.mark.parametrize("cs, k, axes", [
        *[(tv.disk(r, n=n), 3, (0, 1)) for n in (127, 128)
          for r in (0.98, 1.0, 1.02)],
        (tv.ellipse(1.5, 1.0, n=64), 4, (0,)),
        (_centred_hole(), 4, (0, 1)),
    ], ids=[f"disk{r}_n{n}" for n in (127, 128) for r in (0.98, 1.0, 1.02)]
        + ["ellipse", "centred_hole"])
    def test_matches_one_class_solve(self, cs, k, axes):
        assert tv._mirror_axes(cs) == axes
        vals, vecs = tv._shift_invert_modes(cs, k)
        ref_vals, ref_vecs = one_class_modes(cs, k)
        assert np.max(np.abs(vals - ref_vals) / ref_vals) < 1e-12
        for E, v in zip(vals, vecs.T):
            space = ref_vecs[:, np.abs(ref_vals - E) < 1e-8 * E]
            coef = np.linalg.lstsq(space, v, rcond=None)[0]
            assert np.linalg.norm(space @ coef - v) < 1e-9 * np.linalg.norm(v)

    @pytest.mark.parametrize("n", [127, 128])
    @pytest.mark.parametrize("r", [0.98, 1.0, 1.02])
    def test_centred_grid_is_its_own_mirror_image(self, r, n):
        cs = tv.disk(r, n=n)
        assert np.array_equal(cs.y1, -cs.y1[::-1])
        assert np.array_equal(cs.y2, -cs.y2[::-1])
        # the nodes r (2k/(n+1) - 1), off by at most about one ulp of r
        old = -r + 2 * r / (n + 1) * np.arange(1, n + 1)
        assert np.max(np.abs(cs.y1 - old)) <= 2 * np.spacing(r)

    def test_unit_disk_grid_is_unchanged(self):
        assert np.array_equal(tv.disk(1.0, n=127).y1,
                              -1.0 + (2.0 / 128) * np.arange(1, 128))

    def test_off_centre_ellipse_axis_does_not_split(self):
        cs = tv.ellipse(1.5, 1.0, n=64)
        # 2 b / h is not a whole number, so the second axis is laid out
        # from -b and is no mirror image of itself
        assert not np.array_equal(cs.y2, -cs.y2[::-1])
        assert tv._mirror_axes(cs) == (0,)

    @pytest.mark.parametrize("cs", [
        _holed_square(),
        tv.rectangle(2.0, 1.0, n=63,
                     vperp=lambda y1, y2: 4.0 * (y1 - 0.7) ** 2 + y2),
    ], ids=["off_centre_hole", "varying_vperp"])
    def test_no_mirror_axis_is_one_class(self, cs):
        assert tv._mirror_axes(cs) == ()
        vals, vecs = tv._shift_invert_modes(cs, 3)
        ref_vals, ref_vecs = one_class_modes(cs, 3)
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)

    def test_disk_chi1_has_a_definite_parity(self):
        # the J1 pair splits into the classes eo and oe; the tie goes to
        # eo, even in y1 and odd in y2
        chi1 = tv.dirichlet_modes(tv.disk(1.0, n=127), m=2).chi[1]
        scale = np.max(np.abs(chi1))
        assert np.max(np.abs(chi1 - chi1[::-1, :])) <= 1e-13 * scale
        assert np.max(np.abs(chi1 + chi1[:, ::-1])) <= 1e-13 * scale

    def test_disk_solves_only_the_pairs_it_needs(self, monkeypatch):
        # E0 and the J2 level in ee, one J1 partner each in eo and oe, one
        # J2 partner in oo: the third lowest is the J1 partner
        wanted = []
        pairs = tv._Arnoldi.pairs

        def counting(self, k):
            wanted.append((self, k))
            return pairs(self, k)

        monkeypatch.setattr(tv._Arnoldi, "pairs", counting)
        tv._shift_invert_modes(tv.disk(0.98, n=127), 3)
        last = {id(a): k for a, k in wanted}
        assert list(last.values()) == [2, 1, 1, 1]


class TestShiftInvertArnoldi:
    def test_disk_finds_both_vectors_of_the_j1_pair(self):
        # m = 2 solves for 3 pairs, and the third must be the J1 partner,
        # not the J2 level
        vals, _ = tv._shift_invert_modes(tv.disk(1.0, n=127), 3)
        assert abs(vals[2] - vals[1]) < 1e-10 * vals[1]
        assert vals[1] > 2.0 * vals[0]

    def test_unconverged_solve_is_refused(self, tmp_path, monkeypatch):
        # a parity class of the disk needs about 11 to 18 steps; 4 per
        # wanted pair do not suffice, and the modes are refused rather than
        # returned unconverged
        monkeypatch.setattr(tv, "_ARNOLDI_STEPS", 0)
        with pytest.raises(tv.CrossSectionError, match="did not converge"):
            tv.dirichlet_modes(tv.disk(1.0, n=63), m=2)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"cross_section": {"shape": "disk",
                                                   "n": 63}}))
        assert cli.main(["modes", "--config", str(p),
                         "--out", str(tmp_path / "out")]) == 2
        assert not list(tmp_path.rglob("scalars.json"))

    def test_operator_without_dominant_eigenvalues_is_refused(self):
        # every eigenvalue of a cyclic shift has modulus 1
        with pytest.raises(tv.CrossSectionError, match="did not converge"):
            tv._Arnoldi(lambda x: np.roll(x, 1), 500, 3).pairs(3)


class TestProductModes:
    # full rectangles with constant Vperp take the closed form; the oracle is
    # eigsh on the assembled 5-point matrix.  The square's (1, 2)/(2, 1)
    # pair is compared as a subspace: each closed-form mode must lie in the
    # oracle's eigenspace of the same energy
    @pytest.mark.parametrize("cs, m", [
        (tv.rectangle(2.0, 1.0, n=63), 3),
        (tv.rectangle(4.0, 1.0, n=63), 4),
        (tv.rectangle(1.0, 1.0, n=48,
                      vperp=lambda y1, y2: np.full(y1.shape, 3.0)), 3),
    ], ids=["2x1", "4x1", "square_vperp"])
    def test_matches_iterative_oracle(self, cs, m):
        modes = tv.dirichlet_modes(cs, m=m)
        A = tv._laplacian(cs)
        vals, vecs = eigsh(A, k=m + 1, sigma=float(cs.vperp.min()) - 1.0,
                           which="LM", v0=np.ones(A.shape[0]), tol=1e-12)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        assert np.max(np.abs(modes.energies - vals[:m]) / vals[:m]) < 1e-10
        for j, E in enumerate(modes.energies):
            v = modes.chi[j][cs.mask]
            v = v / np.linalg.norm(v)
            space = vecs[:, np.abs(vals - E) < 1e-8 * E]
            assert np.linalg.norm(space.T @ v) >= 1 - 1e-10
        assert rayleigh_residual(modes) < 1e-10

    def test_square_second_mode_is_1_2(self, rect_pi):
        # even under y1 -> pi - y1, odd under y2 -> pi - y2
        chi1 = rect_pi.chi[1]
        scale = np.max(np.abs(chi1))
        assert np.max(np.abs(chi1 - chi1[::-1, :])) < 1e-13 * scale
        assert np.max(np.abs(chi1 + chi1[:, ::-1])) < 1e-13 * scale

    def test_no_factorization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("splu called for a full rectangle")

        monkeypatch.setattr(tv, "splu", refuse)
        cs = tv.rectangle(np.pi, 2.0, n=63)
        assert tv.dirichlet_modes(cs, m=3).chi.shape == (3,) + cs.mask.shape
        # the patch is live: a mask with a hole factorizes
        y = np.linspace(0.02, 0.98, 49)
        mask = np.ones((49, 49), dtype=bool)
        mask[20:29, 20:29] = False
        with pytest.raises(AssertionError, match="splu"):
            tv.dirichlet_modes(masked(y, y, mask), m=1)


class TestAngularMomentumNorm:
    def test_square_oracle_by_extrapolation(self):
        # the node-only quadrature misses the boundary strip where
        # (L chi)^2 > 0, an O(h) effect; Richardson in h recovers the oracle
        vals = []
        for n in (127, 255):
            m = tv.dirichlet_modes(tv.rectangle(1.0, 1.0, n=n), m=1)
            vals.append(m.lchi2)
        extrapolated = 2.0 * vals[1] - vals[0]
        assert abs(extrapolated - SQUARE_LCHI2) < 1e-3
        # raw values approach the oracle from below
        assert vals[0] < vals[1] < SQUARE_LCHI2
        assert abs(vals[1] - SQUARE_LCHI2) / SQUARE_LCHI2 < 0.05

    def test_boundary_measured_once_per_solve(self, tmp_path, monkeypatch):
        # `coeffs` reads lchi2 twice (summary and geometric potential) and
        # solves once: one boundary measurement and one L application
        calls = {"frac": 0, "L": 0, "solve": 0}
        frac, apply_L, solve = (tv._boundary_fractions, tv._apply_L,
                                tv.dirichlet_modes)

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(tv, "_boundary_fractions", counting("frac", frac))
        monkeypatch.setattr(tv, "_apply_L", counting("L", apply_L))
        monkeypatch.setattr(tv, "dirichlet_modes", counting("solve", solve))
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "geometry": {"curve": "helix", "radius": 1.0, "pitch": 1.0,
                         "twist_rate": 0.5, "n_nodes": 256},
            "cross_section": {"shape": "disk", "radius": 1.0, "n": 31,
                              "m": 2}}))
        assert cli.main(["coeffs", "--config", str(p),
                         "--out", str(tmp_path / "out")]) == 0
        assert calls == {"frac": 1, "L": 1, "solve": 1}

    def test_rectangle_center_origin_default(self):
        m = tv.dirichlet_modes(tv.rectangle(2.0, 1.0, n=63), m=1)
        assert np.allclose(m.origin, (1.0, 0.5), atol=1e-12)


class TestOverlapTensor:
    def test_symmetry_and_diagonal(self, rect_pi):
        O = overlap_tensor(rect_pi)
        assert O.shape == (2, 2, 2, 2)
        assert np.isclose(O[0, 0, 0, 0], rect_pi.q4)
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (3, 2, 1, 0)):
            assert np.allclose(O, np.transpose(O, perm), atol=1e-12)

    def test_positive_diagonal(self, rect_pi):
        O = overlap_tensor(rect_pi)
        assert O[0, 0, 0, 0] > 0 and O[1, 1, 1, 1] > 0


class TestSolverInterface:
    def test_too_coarse_grid_rejected(self):
        with pytest.raises(tv.CrossSectionError, match="coarse"):
            tv.dirichlet_modes(tv.rectangle(1.0, 1.0, n=8), m=1)

    def test_m_validation(self):
        with pytest.raises(tv.CrossSectionError):
            tv.dirichlet_modes(tv.rectangle(1.0, 1.0, n=32), m=0)
        # 121 interior nodes: at most m = 118, on every cross-section
        with pytest.raises(tv.CrossSectionError, match="node count"):
            tv.dirichlet_modes(tv.rectangle(1.0, 1.0, n=11), m=120)

    def test_gap_needs_two_modes(self):
        m = tv.dirichlet_modes(tv.rectangle(1.0, 1.0, n=32), m=1)
        with pytest.raises(tv.CrossSectionError):
            _ = m.gap

    def test_gap_scaling(self, rect_pi):
        assert np.isclose(tv.gap_scaling(rect_pi, 0.5), rect_pi.gap / 0.25)
        with pytest.raises(tv.CrossSectionError):
            tv.gap_scaling(rect_pi, -1.0)

    def test_rayleigh_residual_small(self):
        m = tv.dirichlet_modes(tv.rectangle(1.0, 1.0, n=63), m=2)
        assert rayleigh_residual(m) < 1e-6

    def test_masked_builder(self):
        y = np.linspace(0.02, 0.98, 49)
        mask = np.ones((49, 49), dtype=bool)
        mask[20:29, 20:29] = False  # square with a hole
        cs = masked(y, y, mask)
        m = tv.dirichlet_modes(cs, m=1)
        # hole raises the ground energy above the plain square value
        assert m.e0 > 2 * np.pi**2

    def test_summary_keys(self, rect_pi):
        s = rect_pi.summary()
        assert set(s) == {"E0", "gap", "q4", "lchi2"}

    def test_confining_potential_raises_energy(self):
        base = tv.dirichlet_modes(tv.rectangle(1.0, 1.0, n=48), m=1).e0
        cs = tv.rectangle(1.0, 1.0, n=48,
                          vperp=lambda a, b: 50.0 * ((a - 0.5) ** 2
                                                     + (b - 0.5) ** 2))
        assert tv.dirichlet_modes(cs, m=1).e0 > base
