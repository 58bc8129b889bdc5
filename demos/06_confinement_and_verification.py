"""Transverse adiabaticity and the built-in verification registry.

A condensate prepared with a small transverse-excited component of fixed
energy budget stays close to the ground mode during the evolution, and the
time-averaged excited fraction scales like eps^2 as the tube thins.  The
second half runs the self-check registry that backs the `bectube verify`
subcommand and prints its ledger.
"""

import tempfile

import numpy as np

from bectube import cli
from bectube import manybody as mb
from bectube import scaling as sc
from bectube import transverse as tv


def main():
    modes = tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=63), m=2)
    w = sc.bump_potential().scaled(10.0)
    G_x, dx, N, beta, T, budget = 8, 0.5, 3, 0.25, 1.0, 0.5

    print("== Excited fraction against tube thickness ==")
    eps_list = (0.5, 0.25, 0.125)
    averages = []
    for eps in eps_list:
        spt = sc.scaling_params(N, eps, beta)
        spb = mb.SingleParticleBasis(G_x=G_x, dx=dx, eps=eps,
                                     transverse_energies=modes.energies)
        offsets, K = mb.mode_kernel(modes, w, spt, dx)
        h_one = mb.one_body_matrix(spb)
        basis = mb.build_basis(spb.d, N)
        H = mb.build_hamiltonian(basis, h_one, offsets, K)
        evals, evecs = np.linalg.eigh(h_one)
        phi_g = evecs[:, 0].astype(complex)
        phi_e = np.zeros_like(phi_g)
        phi_e[1::2] = phi_g[0::2]
        phi_e /= np.linalg.norm(phi_e)
        s2 = budget * eps**2 / modes.gap
        phi_init = np.sqrt(1 - s2) * phi_g + np.sqrt(s2) * phi_e
        psi0 = mb.condensate_state(basis, phi_init)
        frames = mb.evolve_state(basis, H, psi0, T=T, dt=0.02, store_every=5)
        exc = [mb.excitation_probability(basis, p, spb) for _, p in frames]
        averages.append(float(np.mean(exc)))
        print(f"  eps = {eps:5.3f}: initial excited weight {s2:.4e}, "
              f"time average {averages[-1]:.4e}")
    slope = np.polyfit(np.log(eps_list), np.log(averages), 1)[0]
    print(f"  fitted exponent in eps: {slope:.2f} (expected 2)")

    print("\n== Full verification registry ==")
    with tempfile.TemporaryDirectory() as tmp:
        rc = cli.main(["verify", "--out", tmp])
    print(f"\n  verify exit code: {rc}")


if __name__ == "__main__":
    main()
