"""Effective 1D nonlinear Schroedinger dynamics on a periodic grid.

Solves i dPhi/dt = (-d^2/dx^2 + V_geom + V(t,x) + b |Phi|^2) Phi with a
Strang split-step spectral method, provides the conserved observables (mass,
energy, Sobolev norms), ground states by preconditioned energy minimization
on the unit sphere, and the energy-derivative identity
dE/dt = <Phi, dV/dt Phi> as a numeric check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np


class NLSError(ValueError):
    pass


@dataclass(frozen=True)
class Wave1D:
    """Complex wave on the periodic box [-X, X) with G grid points."""

    X: float
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        G = len(self.values)
        if G & (G - 1):
            raise NLSError("grid size must be a power of two")

    @property
    def G(self) -> int:
        return len(self.values)

    @property
    def dx(self) -> float:
        return 2.0 * self.X / self.G

    @property
    def x(self) -> np.ndarray:
        return -self.X + self.dx * np.arange(self.G)

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.G, d=self.dx)

    def mass(self) -> float:
        return float(self.dx * np.sum(np.abs(self.values) ** 2))

    def normalized(self) -> "Wave1D":
        return replace(self, values=self.values / np.sqrt(self.mass()))

    def boundary_mass(self) -> float:
        """Mass within a tenth of the box size from each boundary."""
        n = max(1, int(self.G * 0.1))
        p = np.abs(self.values) ** 2
        return float(self.dx * (p[:n].sum() + p[-n:].sum()))


def plane_wave(X: float, G: int, mode: int) -> Wave1D:
    w = Wave1D(X, np.zeros(G, dtype=complex))
    k = np.pi * mode / X
    return replace(w, values=np.exp(1j * k * w.x) / np.sqrt(2.0 * X))


def gaussian(X: float, G: int, sigma: float = 1.0) -> Wave1D:
    """Normalized Gaussian of width sigma centred at x = 0, at rest."""
    w = Wave1D(X, np.zeros(G, dtype=complex))
    v = np.exp(-(w.x**2) / (2 * sigma**2) + 0j)
    return replace(w, values=v).normalized()


@dataclass
class Potential1D:
    """Static geometric potential plus a time-dependent external part.

    ``v`` and ``vdot`` are evaluators (t, x) -> array; either may be None.
    """

    v_geom: np.ndarray = None
    v: Callable = None
    vdot: Callable = None

    def total(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        if self.v_geom is not None:
            out = out + self.v_geom
        if self.v is not None:
            out = out + self.v(t, x)
        return out

    def vdot_at(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.vdot is None:
            return np.zeros_like(x)
        return self.vdot(t, x)

    @property
    def static(self) -> bool:
        return self.v is None


def free_potential() -> Potential1D:
    return Potential1D()


@dataclass(frozen=True)
class EnergyReport:
    t: float
    mass: float
    energy: float
    h1: float
    h2: float
    sup: float


# ---------------------------------------------------------------------------
# norms and energy


def sobolev_norms(w: Wave1D):
    """(||Phi||_inf^2, ||Phi||_H1^2, ||Phi||_H2^2, ||grad |Phi|^2||) with
    spectral multipliers (1 + k^2)^s."""
    ft = np.fft.fft(w.values)
    p2 = w.dx / w.G * np.abs(ft) ** 2  # Parseval: sum p2 = mass
    k2 = w.k**2
    h1 = float(np.sum((1 + k2) * p2))
    h2 = float(np.sum((1 + k2) ** 2 * p2))
    sup2 = float(np.max(np.abs(w.values)) ** 2)
    dens_ft = np.fft.fft(np.abs(w.values) ** 2)
    grad_dens = float(np.sqrt(w.dx / w.G * np.sum(k2 * np.abs(dens_ft) ** 2)))
    return sup2, h1, h2, grad_dens


def sobolev_check(w: Wave1D) -> dict:
    """Discrete Sobolev chain: sup^2 <= H1^2 <= H2^2 and the gradient-of-
    density bound, each up to 1e-10; returns the norms and violation flags."""
    slack = 1e-10
    sup2, h1, h2, grad_dens = sobolev_norms(w)
    bound = 2.0 * np.sqrt(sup2) * np.sqrt(h1)
    return {
        "sup2": sup2, "h1_sq": h1, "h2_sq": h2, "grad_density": grad_dens,
        "chain_ok": sup2 <= h1 + slack and h1 <= h2 + slack,
        "density_ok": grad_dens <= bound + slack,
    }


def energy(w: Wave1D, pot: Potential1D, b: float) -> float:
    """<Phi, (-d^2/dx^2 + V(t) + (b/2)|Phi|^2) Phi> at the wave's time t,
    with spectral derivative."""
    ft = np.fft.fft(w.values)
    kin = float(w.dx / w.G * np.sum(w.k**2 * np.abs(ft) ** 2))
    dens = np.abs(w.values) ** 2
    potE = float(w.dx * np.sum(pot.total(w.t, w.x) * dens))
    nl = float(0.5 * b * w.dx * np.sum(dens**2))
    return kin + potE + nl


def report(w: Wave1D, pot: Potential1D, b: float) -> EnergyReport:
    sup2, h1, h2, _ = sobolev_norms(w)
    return EnergyReport(t=w.t, mass=w.mass(), energy=energy(w, pot, b),
                        h1=np.sqrt(h1), h2=np.sqrt(h2), sup=np.sqrt(sup2))


# ---------------------------------------------------------------------------
# evolution


def evolve(w0: Wave1D, pot: Potential1D, b: float, dt: float, T: float,
           store_every: int) -> list[Wave1D]:
    """Strang split-step evolution over [t0, t0 + T].

    Half kinetic step in Fourier space, full potential+nonlinear phase with a
    time-dependent potential sampled at the interval midpoint, half kinetic
    step.  Exactly mass preserving up to round-off.  When T is not a multiple
    of dt the step is shortened to T / ceil(T / dt), so the run ends at t0 + T.
    """
    if b < 0:
        raise NLSError("focusing nonlinearity (b < 0) is not supported")
    if T <= 0:
        raise NLSError(f"T = {T:g} must be positive")
    if not dt > 0 or store_every < 1:
        raise NLSError(f"need dt > 0 and store_every >= 1, got dt = {dt:g} "
                       f"and store_every = {store_every}")
    if dt > w0.dx**2 / np.pi:
        raise NLSError(f"dt = {dt:g} exceeds the stability margin "
                       f"dx^2/pi = {w0.dx**2 / np.pi:g}")
    n_steps = int(np.ceil(T / dt - 1e-9))
    dt = T / n_steps
    k2 = w0.k**2
    half_kin = np.exp(-0.5j * dt * k2)
    x = w0.x
    v = w0.values.astype(complex)
    t = w0.t
    out = [w0]
    static_v = pot.total(0.0, x) if pot.static else None
    for step in range(n_steps):
        v = np.fft.ifft(half_kin * np.fft.fft(v))
        vv = static_v if pot.static else pot.total(t + 0.5 * dt, x)
        v = v * np.exp(-1j * dt * (vv + b * np.abs(v) ** 2))
        v = np.fft.ifft(half_kin * np.fft.fft(v))
        t = w0.t + (step + 1) * dt
        if not np.all(np.isfinite(v)):
            raise NLSError(f"non-finite amplitudes at step {step}")
        if (step + 1) % store_every == 0 or step == n_steps - 1:
            out.append(Wave1D(w0.X, v.copy(), t=t))
    return out


def energy_drift_check(traj: Sequence[Wave1D], pot: Potential1D,
                       b: float) -> float:
    """Max defect of dE/dt = <Phi, dV/dt Phi> along a stored trajectory,
    using centered differences in time."""
    if len(traj) < 3:
        raise NLSError("trajectory must contain at least 3 frames")
    E = np.array([energy(w, pot, b) for w in traj])
    t = np.array([w.t for w in traj])
    defect = 0.0
    for i in range(1, len(traj) - 1):
        dEdt = (E[i + 1] - E[i - 1]) / (t[i + 1] - t[i - 1])
        w = traj[i]
        rhs = float(w.dx * np.sum(pot.vdot_at(w.t, w.x) * np.abs(w.values) ** 2))
        defect = max(defect, abs(dEdt - rhs))
    return defect


# ---------------------------------------------------------------------------
# ground state


def ground_state(pot: Potential1D, b: float, X: float, G: int,
                 tol: float = 1e-10) -> Wave1D:
    """Normalized minimizer of ``energy``: block-1 LOBPCG on the unit sphere
    (Knyazev 2001, SIAM J. Sci. Comput. 23:517) from the constant wave.

    Each step spans the wave u, its residual r = H(u) u - <u, H(u) u> u with
    H(u) = -d^2/dx^2 + V + b |u|^2 under the Fourier preconditioner
    1/(k^2 + 1 + max |V + b |u|^2|), and the previous step, and moves to the
    unit wave of least energy in that span (``_least_energy``; Antoine,
    Levitt & Tang 2017, J. Comput. Phys. 343:92).  No G x G matrix is formed.
    Converged when ||r|| < ``tol``; ``NLSError`` after 2000 steps.
    """
    if b < 0:
        raise NLSError("minimizer requires b >= 0")
    w = plane_wave(X, G, mode=0)
    k2, vv = w.k**2, pot.total(0.0, w.x)
    g = b / w.dx  # b |Phi|^2 = g x^2 for the unit vector x = sqrt(dx) Phi

    def h_lin(y):  # -d^2/dx^2 + V on each row of y
        return np.fft.ifft(k2 * np.fft.fft(y)).real + vv * y

    x, p = np.full(G, G**-0.5), np.zeros(G)
    for _ in range(2000):
        hx = h_lin(x) + g * x**3
        r = hx - np.add.reduce(x * hx) * x
        res = np.sqrt(np.add.reduce(r * r))
        if res < tol:
            return Wave1D(X, (x / np.sqrt(w.dx)).astype(complex))
        shift = 1.0 + np.max(np.abs(vv + g * x * x))
        basis = [x]
        for y in (np.fft.ifft(np.fft.fft(r) / (k2 + shift)).real, p):
            y0 = np.sqrt(np.add.reduce(y * y))
            for q in basis + basis:  # Gram-Schmidt, twice
                y = y - np.add.reduce(q * y) * q
            norm = np.sqrt(np.add.reduce(y * y))
            if norm > 1e-10 * y0:
                basis.append(y / norm)
        S = np.array(basis)
        c = _least_energy(S, np.einsum("ij,kj->ik", S, h_lin(S)), g)
        p = np.einsum("i,ij->j", c[1:], S[1:])
        x = np.einsum("i,ij->j", c, S)
        x = x / np.sqrt(np.add.reduce(x * x))
    raise NLSError(f"ground-state iteration did not converge: "
                   f"residual {res:.3e} > {tol:.1e}")


def _least_energy(S, A, g):
    """Unit c of least energy c A c + (g/2) sum (c S)^4 by a self-consistent
    loop from c = e_1: each of at most 50 steps moves c towards the lowest
    eigenvector of A + g S diag((c S)^2) S^T, the one LAPACK call (3 x 3),
    and halves the move, at most 40 times, until the energy does not rise."""
    A = 0.5 * (A + A.T)
    c = np.eye(len(S))[0]
    for _ in range(50):
        y = np.einsum("i,ij->j", c, S)
        M = A + g * np.einsum("ij,j,kj->ik", S, y * y, S)
        u = np.linalg.eigh(M)[1][:, 0]
        u = u if u @ c >= 0 else -u
        for _ in range(40):
            # E(u) - E(c), written in u - c so that it keeps its sign at
            # moves far below the round-off of E itself
            z = np.einsum("i,ij->j", u - c, S)
            de = (u - c) @ A @ (u + c) + 0.5 * g * np.add.reduce(
                z * (2 * y + z) * ((y + z) ** 2 + y * y))
            if de <= 0:
                break
            u = (u + c) / np.linalg.norm(u + c)
        if de > 0 or np.array_equal(u, c):
            return c
        c = u
    return c


def linear_ground_state(pot: Potential1D, X: float, G: int) -> Wave1D:
    """Lowest eigenvector of the discretized linear operator (dense oracle,
    same spectral kinetic term as the propagator)."""
    w = Wave1D(X, np.zeros(G, dtype=complex))
    dx = w.dx
    kin = np.fft.ifft(w.k[:, None] ** 2 * np.fft.fft(np.eye(G), axis=0), axis=0)
    H = kin + np.diag(pot.total(0.0, w.x))
    vals, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    v = vecs[:, 0].astype(complex)
    v /= np.sqrt(dx * np.sum(np.abs(v) ** 2))
    if v.real.sum() < 0:
        v = -v
    return Wave1D(X, v, t=0.0)
