"""The benchmark's three workloads.

Each workload has three parts:

- ``inputs(seed, tmp)`` makes the physical inputs from the seed and writes
  any config file into ``tmp``. It is set-up, not timed.
- ``run(inputs, tmp)`` is one timed pass through the public API or the CLI.
- ``checks(inputs, outputs, reference)`` returns ``(name, ok, value)`` rows
  that compare the outputs with exact identities and with the reference
  values in ``reference.json``.

The seed picks one of ``VARIANTS`` physical variants. The variants change
interaction strengths and lengths by a few percent and never a problem size,
so every seed does the same amount of work.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

from bectube import cli
from bectube import condensation as cd
from bectube import manybody as mb
from bectube import scaling as sc
from bectube import transverse as tv

VARIANTS = 8

# Reference values are compared as |x - ref| <= ATOL + RTOL * |ref|. The
# tolerance admits round-off from reordered sums and BLAS threads, and keeps
# any change of the physics visible.
RTOL = 1e-8
ATOL = 1e-9
# alpha_n2 and the convolution defects may change by the error of a
# rewritten propagator or radial transform, so they get a looser tolerance.
RTOL_LOOSE = 1e-6
LOOSE_KEYS = ("alpha_n2.", "defect.")


def _spread(seed: int, half_width: float) -> float:
    """1 + a deterministic offset in [-half_width, half_width] per variant."""
    k = seed % VARIANTS
    return 1.0 + half_width * (2.0 * k / (VARIANTS - 1) - 1.0)


def _match(prefix: str, values: dict, reference: dict):
    """Rows comparing each reference key with the value the pass produced."""
    rows = []
    for key, ref in reference.items():
        val = values.get(key)
        if isinstance(ref, (bool, str)) or val is None:
            rows.append((f"{prefix}.{key}", val == ref, val))
            continue
        rtol = RTOL_LOOSE if key.startswith(LOOSE_KEYS) else RTOL
        rows.append((f"{prefix}.{key}",
                     abs(val - ref) <= ATOL + rtol * abs(ref), float(val)))
    return rows


def _cli(subcommand: str, config: Path, out_root: Path):
    """Run one CLI subcommand into its own output root; return the exit code
    and the run directory."""
    rc = cli.main([subcommand, "--config", str(config), "--out", str(out_root)])
    dirs = sorted(p for p in out_root.iterdir() if p.is_dir()) \
        if out_root.is_dir() else []
    return rc, (dirs[0] if len(dirs) == 1 else None)


def _scalars(run_dir) -> dict:
    if run_dir is None or not (run_dir / "scalars.json").is_file():
        return {}
    return json.loads((run_dir / "scalars.json").read_text())


def _write_config(tmp: Path, name: str, cfg: dict) -> Path:
    path = tmp / name
    path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# depletion_sweep: the criterion-9 study, N = 2..6 at d = 16


DEPLETION_N = (2, 3, 4, 5, 6)
DEPLETION_GX = 16


def depletion_inputs(seed: int, tmp: Path) -> dict:
    return {"strength": 15.0 * _spread(seed, 0.05)}


def depletion_run(inputs: dict, tmp: Path) -> dict:
    G_x, dx, eps, beta, T, N_ref = DEPLETION_GX, 0.5, 0.5, 0.25, 1.0, 4
    modes = tv.dirichlet_modes(tv.rectangle(np.pi, np.pi, n=63), m=1)
    w = sc.bump_potential().scaled(inputs["strength"])
    # a fixed effective pair energy across N: the lattice coupling is
    # lam/(N-1) with lam calibrated at N_ref
    offsets, K_ref = mb.mode_kernel(modes, w,
                                    sc.scaling_params(N_ref, eps, beta), dx)
    lam = N_ref * K_ref
    spb = mb.SingleParticleBasis(G_x=G_x, dx=dx, eps=eps,
                                 transverse_energies=modes.energies[:1])
    h_one = mb.one_body_matrix(spb)
    phi0 = np.linalg.eigh(h_one)[1][:, 0].astype(complex)
    rows = []
    for N in DEPLETION_N:
        K = lam / (N - 1)
        basis = mb.build_basis(spb.d, N)
        H = mb.build_hamiltonian(basis, h_one, offsets, K, G_x=G_x, m=1)
        psi0 = mb.condensate_state(basis, phi0)
        psi = mb.evolve_state(basis, H, psi0, T=T, dt=0.125)[-1][1]
        hart = mb.hartree_evolve(h_one, offsets, K, G_x, 1, N, phi0,
                                 T=T, dt=2e-3)
        ref = cd.condensate_ref(hart[-1][1])
        gamma1 = mb.reduced_density(basis, psi, M=1)
        rows.append({
            "N": N, "d": spb.d, "dim": basis.dim, "nnz": int(H.nnz),
            "alpha_n2": cd.alpha_n2(basis, ref, psi),
            # Pickl's identity: ||q_1 psi||^2 = 1 - <phi, gamma_1 phi>
            "pickl": float(1.0 - np.vdot(ref.phi, gamma1 @ ref.phi).real),
            "norm": float(np.linalg.norm(psi)),
        })
    return {"rows": rows}


def depletion_reference(outputs: dict) -> dict:
    return {f"alpha_n2.N{r['N']}": r["alpha_n2"] for r in outputs["rows"]}


def depletion_checks(inputs, outputs, reference):
    rows = []
    for r in outputs["rows"]:
        N = r["N"]
        rows.append((f"pickl_identity.N{N}",
                     abs(r["alpha_n2"] - r["pickl"]) <= 1e-10,
                     abs(r["alpha_n2"] - r["pickl"])))
        rows.append((f"final_norm.N{N}", abs(r["norm"] - 1.0) <= 1e-12,
                     r["norm"]))
        rows.append((f"fock_dim.N{N}", r["dim"] == comb(r["d"] + N - 1, N),
                     r["dim"]))
    return rows + _match("reference", depletion_reference(outputs), reference)


# ---------------------------------------------------------------------------
# manybody_run: `bectube manybody` on the default config (N=4, m=2, dim 3876)


MANYBODY_FRAMES = 11


def manybody_inputs(seed: int, tmp: Path) -> dict:
    # Only the thickness varies. A change of the cross-section would rotate
    # the degenerate second mode of the square, move symmetry-forbidden
    # kernel entries across the assembly's 1e-16 cut-off, and change the
    # Hamiltonian's nnz from seed to seed.
    cfg = {"scaling": {"eps": 0.25 * _spread(seed, 0.05)}}
    return {"config": str(_write_config(tmp, "manybody.json", cfg))}


def manybody_run(inputs: dict, tmp: Path) -> dict:
    rc, run_dir = _cli("manybody", Path(inputs["config"]), tmp / "out_manybody")
    frames = 0
    if run_dir is not None and (run_dir / "series" / "trajectory.csv").is_file():
        with open(run_dir / "series" / "trajectory.csv") as fh:
            frames = sum(1 for _ in csv.reader(fh)) - 1
    return {"rc": rc, "scalars": _scalars(run_dir), "frames": frames}


def manybody_reference(outputs: dict) -> dict:
    return dict(outputs["scalars"])


def manybody_checks(inputs, outputs, reference):
    drift = outputs["scalars"].get("energy_drift", np.inf)
    rows = [("exit_code", outputs["rc"] == 0, outputs["rc"]),
            ("energy_drift", drift <= 1e-8, drift),
            ("frames", outputs["frames"] == MANYBODY_FRAMES, outputs["frames"])]
    return rows + _match("scalars", outputs["scalars"], reference)


# ---------------------------------------------------------------------------
# effective_model: `bectube coeffs` and `bectube evolve` on a twisted helix
# with a disk cross-section, plus the criterion-7 convolution-defect sweep


DEFECT_EPS = 0.5
DEFECT_RATIOS = (0.2, 0.1, 0.05)


def effective_inputs(seed: int, tmp: Path) -> dict:
    cfg = {
        "geometry": {"curve": "helix", "radius": _spread(seed, 0.05),
                     "pitch": 1.0, "twist_rate": 0.5 * _spread(seed + 3, 0.1)},
        "cross_section": {"shape": "disk", "radius": _spread(seed + 5, 0.02)},
    }
    return {"config": str(_write_config(tmp, "effective.json", cfg)),
            "sigma": _spread(seed + 1, 0.05)}


def effective_run(inputs: dict, tmp: Path) -> dict:
    config = Path(inputs["config"])
    rc_c, dir_c = _cli("coeffs", config, tmp / "out_coeffs")
    rc_e, dir_e = _cli("evolve", config, tmp / "out_evolve")
    w = sc.bump_potential()
    defects = [sc.convolution_defect(w, DEFECT_EPS, r * DEFECT_EPS,
                                     sigma=inputs["sigma"])
               for r in DEFECT_RATIOS]
    slope = float(np.polyfit(np.log(DEFECT_RATIOS), np.log(defects), 1)[0])
    return {"rc": [rc_c, rc_e], "coeffs": _scalars(dir_c),
            "evolve": _scalars(dir_e), "defects": defects, "slope": slope}


def effective_reference(outputs: dict) -> dict:
    ref = {f"coeffs.{k}": v for k, v in outputs["coeffs"].items()}
    ref.update({f"evolve.{k}": v for k, v in outputs["evolve"].items()})
    ref.update({f"defect.r{r}": d
                for r, d in zip(DEFECT_RATIOS, outputs["defects"])})
    return ref


def effective_checks(inputs, outputs, reference):
    mass = outputs["evolve"].get("mass_drift", np.inf)
    rows = [("exit_codes", outputs["rc"] == [0, 0], outputs["rc"]),
            ("nls_mass_drift", mass <= 1e-10, mass),
            # the honest rate of the even kernel is 2; criterion 7 asks for 1
            ("defect_slope", abs(outputs["slope"] - 2.0) <= 0.05,
             outputs["slope"])]
    return rows + _match("reference", effective_reference(outputs), reference)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run: Callable
    reference: Callable
    checks: Callable


WORKLOADS = {
    "depletion_sweep": Workload(depletion_inputs, depletion_run,
                                depletion_reference, depletion_checks),
    "manybody_run": Workload(manybody_inputs, manybody_run,
                             manybody_reference, manybody_checks),
    "effective_model": Workload(effective_inputs, effective_run,
                                effective_reference, effective_checks),
}
