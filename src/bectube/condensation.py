"""Projector and weight calculus for quantifying condensation.

Given a reference one-body state phi, the symmetric N-body space splits by
the number k of particles orthogonal to phi; P_k projects onto that sector,
f-hat weights the sectors by a table f(k), and alpha_f = <psi, f-hat psi> is
the resulting condensation measure.  Two realizations are provided: explicit
dense first-quantized matrices (small N and d, used to check the operator
identities verbatim) and, on the Fock basis of the exact few-boson simulator,
the distribution of the number of particles in phi obtained from its binomial
moments by repeated lowering with a(phi).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, factorial
from typing import Callable

import numpy as np

from .manybody import FockBasis, _re_dot, _rk4, _steps


class CondensationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# reference state and weight tables


@dataclass(frozen=True)
class CondensateRef:
    """Normalized one-body reference phi."""

    phi: np.ndarray

    @property
    def d(self) -> int:
        return len(self.phi)

    @property
    def projector(self) -> np.ndarray:
        return np.outer(self.phi, self.phi.conj())


def condensate_ref(phi: np.ndarray) -> CondensateRef:
    """Build the reference from a nonzero phi."""
    phi = np.asarray(phi, dtype=complex)
    nrm = np.linalg.norm(phi)
    if nrm == 0:
        raise CondensationError("phi must be nonzero")
    return CondensateRef(phi=phi / nrm)


@dataclass(frozen=True)
class WeightFn:
    """Weight table f(0..N)."""

    N: int
    table: np.ndarray


def weight_n(N: int, power: float = 1.0) -> WeightFn:
    """n(k)^power with n(k) = sqrt(k/N)."""
    k = np.arange(N + 1)
    return WeightFn(N, (np.sqrt(k / N)) ** power)


def weight_m(N: int, xi: float) -> WeightFn:
    """Piecewise weight: sqrt(k/N) above the threshold N^(1-2 xi), a linear
    ramp (N^(xi-1) k + N^(-xi))/2 below; sandwich-checked on construction."""
    if not 0.0 < xi < 0.5:
        raise CondensationError("xi must lie in (0, 1/2)")
    k = np.arange(N + 1)
    n = np.sqrt(k / N)
    linear = 0.5 * (N ** (xi - 1.0) * k + N ** (-xi))
    table = np.where(k >= N ** (1.0 - 2.0 * xi), n, linear)
    upper = np.maximum(n, N ** (-xi))
    if np.any(table < n - 1e-14) or np.any(table > upper + 1e-14):
        raise CondensationError("m table violates the n <= m <= max sandwich")
    return WeightFn(N, table)


def weight_shift(f: WeightFn, j: int) -> WeightFn:
    """Shifted table (tau_j f)(k) = f(k + j), zero-padded outside {0..N}."""
    k = np.arange(f.N + 1) + j
    table = np.where((k >= 0) & (k <= f.N), f.table[np.clip(k, 0, f.N)], 0.0)
    return WeightFn(f.N, table)


def weight_m_ell(N: int, xi: float, ell: int):
    """Difference weight m_ell(k) = N (m(k) - m(k-ell)) with a bound report.

    The report checks 0 <= m_ell everywhere and the two-branch upper bounds
    for k >= ell.  For 1 <= k < ell the zero-padded m(k-ell) makes the linear
    bound fail by construction; those k are excluded from the check.
    """
    if ell < 1:
        raise CondensationError("ell must be >= 1")
    m = weight_m(N, xi)
    table = N * (m.table - weight_shift(m, -ell).table)
    k = np.arange(N + 1)
    thr = N ** (1.0 - 2.0 * xi)
    hi = k >= thr + ell
    lo = (k >= ell) & ~hi
    report = {
        "nonnegative": bool(np.all(table >= -1e-12)),
        "sqrt_branch_ok": bool(np.all(
            table[hi] <= ell * np.sqrt(N / np.maximum(k[hi], 1)) + 1e-12)),
        "linear_branch_ok": bool(np.all(table[lo] <= 0.5 * ell * N**xi + 1e-12)),
        "checked_from_k": int(ell),
    }
    return WeightFn(N, table), report


def xi_cap(beta: float) -> float:
    """Largest admissible xi for the scaling exponent beta in (0, 1/3)."""
    if not 0.0 < beta < 1.0 / 3.0:
        raise CondensationError("beta must lie in (0, 1/3)")
    return min(3 * beta / (4 - 6 * beta), (2 - 6 * beta) / (2 - 3 * beta))


def validate_xi(xi: float, beta: float) -> None:
    cap = xi_cap(beta)
    if not 0.0 < xi <= cap:
        raise CondensationError(
            f"xi = {xi:g} outside (0, {cap:g}] for beta = {beta:g}")


# ---------------------------------------------------------------------------
# dense first-quantized representation (small N, d)

_DENSE_CAP = 5000


def _one_site(op: np.ndarray, i: int, N: int, d: int) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for j in range(N):
        out = np.kron(out, op if j == i else np.eye(d))
    return out


@dataclass
class ProjectorBundle:
    """Dense p_i, q_i, P_k for N particles in a d-dimensional one-body space."""

    N: int
    d: int
    ref: CondensateRef
    P: list

    def p_i(self, i: int) -> np.ndarray:
        return _one_site(self.ref.projector, i, self.N, self.d)

    def q_i(self, i: int) -> np.ndarray:
        return _one_site(np.eye(self.d) - self.ref.projector, i, self.N, self.d)


def pk_projectors(ref: CondensateRef, N: int) -> ProjectorBundle:
    """All P_k as dense matrices: symmetrized products with k factors of q."""
    d = ref.d
    if d**N > _DENSE_CAP:
        raise CondensationError(f"dense representation needs d^N <= {_DENSE_CAP}")
    p = ref.projector
    q = np.eye(d) - p
    P = []
    for k in range(N + 1):
        acc = np.zeros((d**N, d**N), dtype=complex)
        for subset in combinations(range(N), k):
            term = np.array([[1.0 + 0.0j]])
            for j in range(N):
                term = np.kron(term, q if j in subset else p)
            acc += term
        P.append(acc)
    return ProjectorBundle(N=N, d=d, ref=ref, P=P)


def hat_operator(f: WeightFn, bundle: ProjectorBundle) -> np.ndarray:
    """f-hat = sum_k f(k) P_k as a dense matrix."""
    out = np.zeros_like(bundle.P[0])
    for k in range(bundle.N + 1):
        out += f.table[k] * bundle.P[k]
    return out


def random_symmetric_state(N: int, d: int, seed: int = 0) -> np.ndarray:
    """Normalized bosonic state from a symmetrized random tensor."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((d,) * N) + 1j * rng.standard_normal((d,) * N)
    sym = np.zeros_like(t)
    for perm in permutations(range(N)):
        sym += np.transpose(t, perm)
    v = sym.reshape(-1)
    return v / np.linalg.norm(v)


def alpha_f_dense(psi: np.ndarray, bundle: ProjectorBundle,
                  f: WeightFn) -> float:
    pk = np.array([np.vdot(psi, P @ psi).real for P in bundle.P])
    return float(np.dot(f.table, pk))


def reduced_density_dense(psi: np.ndarray, N: int, d: int,
                          M: int = 1) -> np.ndarray:
    """M-particle reduced density matrix of a first-quantized state."""
    mat = psi.reshape(d**M, d ** (N - M))
    gamma = mat @ mat.conj().T
    return 0.5 * (gamma + gamma.conj().T)


# ---------------------------------------------------------------------------
# Fock-path representation


def sector_weights(basis: FockBasis, ref: CondensateRef,
                   psi: np.ndarray) -> np.ndarray:
    """<psi, P_k psi> for k = 0..N from the binomial moments of n_phi.

    With a(phi) = sum_i conj(phi_i) a_i, the moments
    M_j = ||a(phi)^j psi||^2 / j! = <psi, C(n_phi, j) psi> invert to
    P(n_phi = n) = sum_{j>=n} (-1)^(j-n) C(j, n) M_j, and P_k is the sector
    n_phi = N - k.  The alternating sum loses up to
    eps_machine * sum_j C(j, n) M_j to round-off; a bound above 1e-10 is
    refused rather than clipped.
    """
    if ref.d != basis.d:
        raise CondensationError("reference dimension does not match the basis")
    N = basis.N
    phic = ref.phi.conj()
    v = np.ascontiguousarray(psi, dtype=complex)
    moments = [_re_dot(v, v)]
    for j in range(1, N + 1):
        # a(phi) v in one scatter from the cached lowering map, with no
        # (d, dim) array of the lowered states a_i v
        modes, tgt, src, amp = basis.lowering
        w = np.zeros(basis.minus.dim, dtype=complex)
        np.add.at(w, tgt, phic[modes] * (amp * v[src]))
        basis, v = basis.minus, w
        moments.append(_re_dot(v, v) / factorial(j))
    n = np.arange(N + 1)
    binom = np.array([[comb(j, k) for j in n] for k in n], dtype=float)
    sign = (-1.0) ** (n[None, :] - n[:, None])
    bound = np.finfo(float).eps * (binom @ moments)
    if bound.max() > 1e-10:
        raise CondensationError(
            f"sector weights lose up to {bound.max():.1e} to cancellation at "
            f"N = {N}")
    return ((sign * binom) @ moments)[::-1]


def alpha_f(basis: FockBasis, ref: CondensateRef, psi: np.ndarray,
            f: WeightFn) -> float:
    """alpha_f(psi, phi) = sum_k f(k) <psi, P_k psi> on the Fock basis."""
    if f.N != basis.N:
        raise CondensationError("weight table length does not match N")
    return float(np.dot(f.table, sector_weights(basis, ref, psi)))


def alpha_n2(basis: FockBasis, ref: CondensateRef, psi: np.ndarray) -> float:
    """The standard condensation measure ||q_1 psi||^2 = alpha with f(k)=k/N."""
    return alpha_f(basis, ref, psi, weight_n(basis.N, power=2.0))


def alpha_xi_value(alpha_m: float, e_psi: float, e_phi: float) -> float:
    """Gronwall functional: alpha_m plus the per-particle energy mismatch."""
    return float(alpha_m + abs(e_psi - e_phi))


def dense_to_fock(psi: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Convert a symmetric first-quantized state to occupation amplitudes."""
    N, d = basis.N, basis.d
    t = psi.reshape((d,) * N)
    amps = np.empty(basis.dim, dtype=complex)
    for s, occ in enumerate(basis.occupations):
        idx = tuple(np.repeat(np.arange(d), occ))
        mult = factorial(N)
        for n in occ:
            mult //= factorial(int(n))
        amps[s] = np.sqrt(mult) * t[idx]
    return amps


# ---------------------------------------------------------------------------
# executable identity suites


def weight_algebra_suite(N: int = 3, d: int = 4, seed: int = 0) -> dict:
    """Exact operator identities of the projector/weight calculus on dense
    matrices; returns a ledger mapping identity name to max defect."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    ref = condensate_ref(phi)
    bundle = pk_projectors(ref, N)
    dim = d**N
    eye = np.eye(dim)

    f = WeightFn(N, rng.uniform(0.1, 1.0, N + 1))
    g = WeightFn(N, rng.uniform(0.1, 1.0, N + 1))
    fhat = hat_operator(f, bundle)
    ghat = hat_operator(g, bundle)
    fg_hat = hat_operator(WeightFn(N, f.table * g.table), bundle)

    ledger = {}
    ledger["sum_Pk_identity"] = float(np.abs(sum(bundle.P) - eye).max())
    qP = np.zeros((dim, dim), dtype=complex)
    defect = 0.0
    for k in range(N + 1):
        acc = sum(bundle.q_i(i) @ bundle.P[k] for i in range(N))
        defect = max(defect, float(np.abs(acc - k * bundle.P[k]).max()))
    ledger["sum_qi_Pk_equals_k_Pk"] = defect
    ledger["Pk_orthogonal"] = max(
        float(np.abs(bundle.P[k] @ bundle.P[l] - (k == l) * bundle.P[k]).max())
        for k in range(N + 1) for l in range(N + 1))
    ledger["fhat_ghat_product"] = float(np.abs(fhat @ ghat - fg_hat).max())
    ledger["fhat_commutes_pq"] = max(
        float(np.abs(fhat @ bundle.p_i(i) - bundle.p_i(i) @ fhat).max())
        for i in range(N))

    # symmetric-state identity <chi, fhat q_j psi> = <chi, fhat nhat^2 psi>
    psi = random_symmetric_state(N, d, seed=seed + 1)
    chi = random_symmetric_state(N, d, seed=seed + 2)
    n2hat = hat_operator(weight_n(N, power=2.0), bundle)
    lhs = np.vdot(chi, fhat @ bundle.q_i(0) @ psi)
    rhs = np.vdot(chi, fhat @ n2hat @ psi)
    ledger["fhat_qj_vs_n2"] = float(abs(lhs - rhs))

    # inequality <psi, fhat q1 q2 psi> <= N/(N-1) <psi, fhat nhat^4 psi>
    n4hat = hat_operator(weight_n(N, power=4.0), bundle)
    lhs2 = np.vdot(psi, fhat @ bundle.q_i(0) @ bundle.q_i(1) @ psi).real
    rhs2 = N / (N - 1) * np.vdot(psi, fhat @ n4hat @ psi).real
    ledger["qq_inequality_slack"] = float(rhs2 - lhs2)

    # shift rule on a random Hermitian two-body operator
    T = rng.standard_normal((d**2, d**2)) + 1j * rng.standard_normal((d**2, d**2))
    T = 0.5 * (T + T.conj().T)
    T12 = np.kron(T, np.eye(d ** (N - 2)))
    Qs = {0: bundle.p_i(0) @ bundle.p_i(1),
          1: bundle.p_i(0) @ bundle.q_i(1),
          2: bundle.q_i(0) @ bundle.q_i(1)}
    defect = 0.0
    for nu in range(3):
        for mu in range(3):
            left = fhat @ Qs[nu] @ T12 @ Qs[mu]
            shifted = hat_operator(weight_shift(f, nu - mu), bundle)
            right = Qs[nu] @ T12 @ Qs[mu] @ shifted
            defect = max(defect, float(np.abs(left - right).max()))
    ledger["shift_rule"] = defect
    return ledger


def hat_dynamics_check(h: Callable, f: WeightFn, N: int, d: int,
                       phi0: np.ndarray, T: float, dt: float) -> float:
    """Defect of i d/dt f-hat = [H, f-hat] along a one-body trajectory.

    ``h`` maps t to the d x d one-body Hamiltonian; the reference phi(t) is
    propagated with RK4 in ceil(T/dt) steps, at least 2, so no step is
    longer than dt, and the derivative of f-hat is taken by centered
    differences, so the defect is O(dt^2).  Only phi0 is normalized: an RK4
    step is linear in phi, so a frame's norm does not change the direction
    of the frames after it, and ``condensate_ref`` normalizes each frame."""
    phi = np.asarray(phi0, dtype=complex)
    phi = phi / np.linalg.norm(phi)

    def rhs(t, v):
        return -1j * (h(t) @ v)

    n_steps = max(2, _steps(T, dt)[0])
    dt = T / n_steps
    frames = [v for _, v in _rk4(rhs, phi, n_steps, dt)]

    def fhat_at(v):
        return hat_operator(f, pk_projectors(condensate_ref(v), N))

    defect = 0.0
    fh_prev, fh = fhat_at(frames[0]), fhat_at(frames[1])
    for i in range(1, n_steps):
        ti = i * dt
        fh_next = fhat_at(frames[i + 1])
        deriv = (fh_next - fh_prev) / (2 * dt)
        H = sum(_one_site(h(ti), j, N, d) for j in range(N))
        comm = -1j * (H @ fh - fh @ H)
        defect = max(defect, float(np.abs(deriv - comm).max()))
        fh_prev, fh = fh, fh_next
    return defect


def perturbed_condensate(N: int, d: int, delta: float,
                         seed: int = 0) -> tuple:
    """Symmetric state with one-particle excitation amplitude delta.

    Returns (psi, phi): psi = normalized symmetrization of
    sqrt(1-delta^2) phi^N + delta (excited (x) phi^(N-1))."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    phi = phi / np.linalg.norm(phi)
    exc = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    exc = exc - np.vdot(phi, exc) * phi
    exc = exc / np.linalg.norm(exc)
    base = phi
    for _ in range(N - 1):
        base = np.kron(base, phi)
    one_up = np.zeros(d**N, dtype=complex)
    for i in range(N):
        term = np.array([1.0 + 0.0j])
        for j in range(N):
            term = np.kron(term, exc if j == i else phi)
        one_up += term
    one_up = one_up / np.linalg.norm(one_up)
    psi = np.sqrt(max(0.0, 1 - delta**2)) * base + delta * one_up
    return psi / np.linalg.norm(psi), phi


def equivalence_suite() -> dict:
    """Exact relations and co-monotonicity of the condensation measures on
    perturbed condensates of N = 3 bosons on d = 4 modes with excitation
    amplitudes delta = 0.4, 0.2, 0.1, 0.05 (seed 0)."""
    N, d, seed = 3, 4, 0
    rows = []
    identity_defect = 0.0
    for delta in (0.4, 0.2, 0.1, 0.05):
        psi, phi = perturbed_condensate(N, d, delta, seed=seed)
        ref = condensate_ref(phi)
        bundle = pk_projectors(ref, N)
        p = ref.projector
        a_half = alpha_f_dense(psi, bundle, weight_n(N, power=0.5))
        a_one = alpha_f_dense(psi, bundle, weight_n(N, power=1.0))
        a_two = alpha_f_dense(psi, bundle, weight_n(N, power=2.0))
        g1 = reduced_density_dense(psi, N, d, M=1)
        g2 = reduced_density_dense(psi, N, d, M=2)
        d1 = g1 - p
        d2 = g2 - np.kron(p, p)
        tr1 = float(np.sum(np.abs(np.linalg.eigvalsh(d1))))
        tr2 = float(np.sum(np.abs(np.linalg.eigvalsh(d2))))
        op1 = float(np.abs(np.linalg.eigvalsh(d1)).max())
        op2 = float(np.abs(np.linalg.eigvalsh(d2)).max())
        q1psi = bundle.q_i(0) @ psi
        identity_defect = max(
            identity_defect,
            abs(a_two - float(np.vdot(q1psi, q1psi).real)),
            abs(tr1 - 2 * op1), abs(tr2 - 2 * op2))
        if a_two > tr1 + 1e-12:
            raise CondensationError(
                f"alpha_n2 = {a_two:.3e} exceeds Tr|gamma_1 - p| = {tr1:.3e}")
        rows.append({"delta": delta, "alpha_sqrt_n": a_half, "alpha_n": a_one,
                     "alpha_n2": a_two, "tr_gamma1": tr1, "tr_gamma2": tr2})
    mono = all(
        all(rows[i][key] >= rows[i + 1][key] - 1e-12 for i in range(len(rows) - 1))
        for key in ("alpha_sqrt_n", "alpha_n", "alpha_n2", "tr_gamma1",
                    "tr_gamma2"))
    return {"rows": rows, "identity_defect": identity_defect,
            "co_monotone": mono}
