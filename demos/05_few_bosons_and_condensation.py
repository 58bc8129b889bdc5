"""Exact few-boson dynamics versus the Hartree approximation.

A small number of bosons on a lattice of axial sites times transverse modes
is evolved exactly in the symmetric Fock basis.  The same initial
condensate is propagated with the Hartree equation, and the condensation
measure alpha_n2 (one minus the largest occupation of the Hartree orbital)
quantifies how far the exact state has left the condensate manifold.
Increasing N at fixed effective pair energy shrinks alpha_n2, the
finite-size trace of the mean-field limit.
"""

import numpy as np

from bectube import condensation as cd
from bectube import manybody as mb
from bectube import scaling as sc
from bectube import transverse as tv


def main():
    modes = tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=63), m=1)
    w = sc.bump_potential().scaled(15.0)
    G_x, dx, eps, beta, T = 12, 0.5, 0.5, 0.25, 1.0

    # calibrate the pair energy at N = 4 and keep lam = (N-1) K fixed
    spt_ref = sc.scaling_params(4, eps, beta)
    offsets, K_ref = mb.mode_kernel(modes, w, spt_ref, dx)
    lam = 4 * K_ref

    spb = mb.SingleParticleBasis(G_x=G_x, dx=dx, eps=eps,
                                 transverse_energies=modes.energies[:1])
    h_one = mb.one_body_matrix(spb)
    evals, evecs = np.linalg.eigh(h_one)
    phi0 = evecs[:, 0].astype(complex)

    print("== alpha_n2 at T = 1 against particle number ==")
    for N in (2, 3, 4, 5):
        K = lam / (N - 1)
        basis = mb.build_basis(spb.d, N)
        H = mb.build_hamiltonian(basis, h_one, offsets, K)
        psi0 = mb.condensate_state(basis, phi0)
        frames = mb.evolve_state(basis, H, psi0, T=T, dt=0.125)
        hart = mb.hartree_evolve(h_one, offsets, K, G_x, 1, N, phi0,
                                 T=T, dt=2e-3)
        phi_T = hart[-1][1] / np.linalg.norm(hart[-1][1])
        a = cd.alpha_n2(basis, cd.condensate_ref(phi_T), frames[-1][1])
        e_mb = mb.energy_per_particle(basis, frames[-1][1], H)
        # the Hartree energy of phi_T is the energy of its condensate
        e_h = mb.energy_per_particle(basis, mb.condensate_state(basis, phi_T),
                                     H)
        print(f"  N = {N}: dim = {basis.dim:6d}  alpha_n2 = {a:.4e}  "
              f"E/N exact {e_mb:+.5f}  Hartree {e_h:+.5f}")

    print("\n== Sector weights of the evolved 4-boson state ==")
    N = 4
    K = lam / (N - 1)
    basis = mb.build_basis(spb.d, N)
    H = mb.build_hamiltonian(basis, h_one, offsets, K)
    frames = mb.evolve_state(basis, H, mb.condensate_state(basis, phi0),
                             T=T, dt=0.125)
    hart = mb.hartree_evolve(h_one, offsets, K, G_x, 1, N, phi0, T=T, dt=2e-3)
    ref = cd.condensate_ref(hart[-1][1])
    pk = cd.sector_weights(basis, ref, frames[-1][1])
    for k, p in enumerate(pk[:4]):
        print(f"  P(k = {k} excited) = {p:.4e}")
    print(f"  total = {pk.sum():.6f}")

    print("\n== Weight-function operator algebra (random spot check) ==")
    led = cd.weight_algebra_suite(N=3, d=4, seed=7)
    slack = led.pop("qq_inequality_slack")
    print(f"  worst identity defect = {max(led.values()):.2e}, "
          f"inequality slack = {slack:+.2e}")


if __name__ == "__main__":
    main()
