"""Effective one-dimensional dynamics on the tube axis.

After integrating out the cross section, the condensate wave obeys a cubic
NLS on the axis with the geometric potential and coupling b.  The solver is
a Strang split-step scheme on a periodic grid.  This script checks it
against a plane-wave solution, conserves mass and energy, and computes the
nonlinear ground state by energy minimization.
"""

import numpy as np

from bectube import nls


def main():
    X, G, b = 8.0, 256, 0.5

    print("== Plane wave: exact solution of the cubic NLS ==")
    w0 = nls.plane_wave(X, G, mode=2)
    traj = nls.evolve(w0, nls.free_potential(), b, dt=1e-3, T=1.0,
                      store_every=1000)
    k = 2 * np.pi / X
    exact = np.exp(1j * (k * traj[-1].x - (k**2 + b / (2 * X)))) \
        / np.sqrt(2 * X)
    print(f"  max error at T = 1: {np.max(np.abs(traj[-1].values - exact)):.2e}")

    print("\n== Conservation laws under a static potential ==")
    x = nls.Wave1D(X, np.zeros(G, complex)).x
    pot = nls.Potential1D(v_geom=0.1 * np.exp(-x**2 / 8))
    traj = nls.evolve(nls.gaussian(X, G, sigma=2.0), pot, b, dt=1e-3,
                      T=2.0, store_every=400)
    masses = [w.mass() for w in traj]
    energies = [nls.energy(w, pot, b) for w in traj]
    print(f"  mass drift:   {max(abs(m - masses[0]) for m in masses):.2e}")
    print(f"  energy drift: {max(abs(e - energies[0]) for e in energies):.2e}")

    print("\n== Time-dependent potential: dE/dt = <|Phi|^2, dV/dt> ==")
    pot_t = nls.Potential1D(v=lambda t, y: np.sin(t) * np.exp(-y**2 / 4),
                            vdot=lambda t, y: np.cos(t) * np.exp(-y**2 / 4))
    for dt in (1e-3, 5e-4):
        traj = nls.evolve(nls.gaussian(X, G), pot_t, 1.0, dt=dt, T=0.25,
                          store_every=1)
        print(f"  dt = {dt:g}: identity defect "
              f"{nls.energy_drift_check(traj, pot_t, 1.0):.2e}")

    print("\n== Nonlinear ground state by energy minimization ==")
    trap = nls.Potential1D(v_geom=0.5 * x**2)
    for b_gs in (0.0, 2.0):
        gs = nls.ground_state(trap, b_gs, X, G)
        width = np.sqrt(np.sum(gs.x**2 * np.abs(gs.values) ** 2)
                        * (X * 2 / G))
        print(f"  b = {b_gs}: energy {nls.energy(gs, trap, b_gs):.6f}, "
              f"rms width {width:.4f}")
    print("  repulsion broadens the cloud, as it should.")


if __name__ == "__main__":
    main()
