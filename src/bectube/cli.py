"""Command line front end: config ingestion, run orchestration, persistence.

Subcommands: frame | modes | coeffs | evolve | manybody | converge | verify.
Configs are JSON or INI-style key tables; every run writes into
out_root/<subcommand>-<digest>/ with config.json, scalars.json, record.json,
series/*.csv and plots/*.svg, where <digest> hashes the normalized config:
a rerun of one subcommand on one config lands in the same directory with
bit-identical scalar outputs, and different subcommands never share one.

Exit codes: 0 ok, 1 config error, 2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import functools
import hashlib
import json
import os
import sys
import time
import types
from pathlib import Path

import numpy as np

from . import __version__, condensation, geometry, manybody, nls, scaling, transverse

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_VERIFY = 0, 1, 2, 3


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "geometry": {
        "curve": "line",            # line | circle | helix | bump_line
        "radius": 2.0,
        "pitch": 1.0,
        "amplitude": 0.2,
        "twist_rate": 0.0,
        "n_nodes": 1024,
    },
    "cross_section": {
        "shape": "rectangle",       # rectangle | disk | ellipse
        "a": np.pi,
        "b": np.pi,
        "radius": 1.0,
        "n": 127,
        "m": 2,
    },
    "scaling": {
        "N": 4,
        "eps": 0.25,
        "beta": 0.25,
        "xi": 0.2,
        "regime": "moderate",
    },
    "solver": {
        "X": 8.0,
        "G": 256,
        "dt": 1e-3,
        "T": 1.0,
        "G_x": 8,
        "dx": 0.5,
        "store_every": 100,
        "initial": "ground",        # ground | gaussian
        "sigma": 1.0,
    },
    "converge": {
        "N_list": [2, 3, 4, 6],
        "alpha": 0.4,
        "eps0": 0.5,
    },
    "output": {
        "out_root": "runs",
    },
}


# ---------------------------------------------------------------------------
# config handling


def _coerce(value: str):
    try:
        return json.loads(value)
    except (json.JSONDecodeError, TypeError):
        return value


def load_config(path) -> dict:
    """Read a JSON or INI config and merge it over the defaults."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return _validate(cfg)
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        user = json.loads(text)
    else:
        parser = configparser.ConfigParser()
        parser.optionxform = str   # keys are case sensitive
        parser.read_string(text)
        user = {sec: {k: _coerce(v) for k, v in parser.items(sec)}
                for sec in parser.sections()}
    for section, table in user.items():
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(table, dict):
            raise ConfigError(f"section {section!r} must be a table")
        for key, value in table.items():
            if key not in cfg[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            cfg[section][key] = value
    return _validate(cfg)


def _validate(cfg: dict) -> dict:
    # a value must have its default's type; an int stands for a float, and
    # a bool is no int
    for section, table in DEFAULT_CONFIG.items():
        for key, default in table.items():
            value = cfg[section][key]
            if type(default) is int and type(value) is not int:
                raise ConfigError(f"{section}.{key} must be an integer")
            if type(default) is float and type(value) not in (int, float):
                raise ConfigError(f"{section}.{key} must be a number")
    s = cfg["scaling"]
    if s["N"] < 1:
        raise ConfigError("scaling.N must be at least 1")
    if not 0.0 < s["beta"] < 1.0 / 3.0:
        raise ConfigError("scaling.beta must lie in (0, 1/3)")
    if not 0.0 < s["eps"] <= 1.0:
        raise ConfigError("scaling.eps must lie in (0, 1]")
    try:
        condensation.validate_xi(s["xi"], s["beta"])
    except condensation.CondensationError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg["geometry"]["curve"] not in ("line", "circle", "helix", "bump_line"):
        raise ConfigError(f"unknown curve {cfg['geometry']['curve']!r}")
    if cfg["cross_section"]["shape"] not in ("rectangle", "disk", "ellipse"):
        raise ConfigError(f"unknown shape {cfg['cross_section']['shape']!r}")
    if cfg["scaling"]["regime"] not in ("moderate", "strong"):
        raise ConfigError("scaling.regime must be moderate or strong")
    sv = cfg["solver"]
    if sv["initial"] not in ("ground", "gaussian"):
        raise ConfigError("solver.initial must be ground or gaussian")
    # a dx <= 0 would empty the kernel's offsets and drop the interaction,
    # and so would a radius <= 0 through a reversed cross-section grid; a
    # sigma < 0 would run |sigma|
    for section, key in (("solver", "X"), ("solver", "dx"), ("solver", "T"),
                         ("solver", "dt"), ("solver", "sigma"),
                         ("cross_section", "a"), ("cross_section", "b"),
                         ("cross_section", "radius")):
        if not 0.0 < cfg[section][key] < np.inf:
            raise ConfigError(f"{section}.{key} must be a positive number")
    # a helix of radius 0 is a line, but a circle of radius 0 is a point; a
    # negative radius would run the guide of radius |radius|, turned by pi
    if not 0.0 <= cfg["geometry"]["radius"] < np.inf:
        raise ConfigError("geometry.radius must be a non-negative number")
    if cfg["geometry"]["curve"] == "circle" and cfg["geometry"]["radius"] == 0:
        raise ConfigError("geometry.radius must be positive on a circle")
    if not 0.0 < cfg["converge"]["eps0"] <= 1.0:
        raise ConfigError("converge.eps0 must lie in (0, 1]")
    if sv["G"] < 1 or sv["G"] & (sv["G"] - 1):
        raise ConfigError("solver.G must be a power of two")
    # one_body_matrix's two bonds of a site coincide below 3 sites, and the
    # guide's cubic splines need 4 nodes
    for section, key, least in (("solver", "G_x", 3),
                                ("solver", "store_every", 1),
                                ("geometry", "n_nodes", 4),
                                ("cross_section", "n", 1),
                                ("cross_section", "m", 1)):
        if cfg[section][key] < least:
            raise ConfigError(f"{section}.{key} must be an integer, at "
                              f"least {least}")
    Ns = cfg["converge"]["N_list"]
    if not (isinstance(Ns, list) and len(Ns) >= 2
            and all(type(N) is int and N >= 2 for N in Ns)
            and all(a < b for a, b in zip(Ns, Ns[1:]))):
        raise ConfigError("converge.N_list must hold at least two strictly "
                          "increasing integers, each at least 2")
    cv = cfg["converge"]
    for N in Ns:
        try:
            eps = cv["eps0"] * (N / Ns[0]) ** (-cv["alpha"])
        except OverflowError:
            eps = np.inf
        if not 0.0 < eps <= 1.0:
            raise ConfigError(f"converge.alpha gives eps = {eps:.3g} at "
                              f"N = {N}, outside (0, 1]")
    return cfg


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def prepare_outdir(cfg: dict, subcommand: str, out_override) -> Path:
    root = (out_override or os.environ.get("BECTUBE_OUT")
            or cfg["output"]["out_root"])
    out = Path(root) / f"{subcommand}-{config_digest(cfg)}"
    (out / "series").mkdir(parents=True, exist_ok=True)
    (out / "plots").mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(cfg, sort_keys=True, indent=2, default=float) + "\n")
    return out


def write_scalars(out: Path, scalars: dict) -> None:
    (out / "scalars.json").write_text(
        json.dumps(scalars, sort_keys=True, indent=2, default=float) + "\n")


def write_csv(path: Path, header, columns) -> None:
    cols = [np.asarray(c) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def write_svg(path: Path, x, y, title: str) -> None:
    """Deterministic single-series SVG line plot."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    W, H, M = 640, 400, 50
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    px = M + (W - 2 * M) * (x - x0) / (x1 - x0)
    py = H - M - (H - 2 * M) * (y - y0) / (y1 - y0)
    pts = " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(px, py))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{M}" y1="{H - M}" x2="{W - M}" y2="{H - M}" stroke="black"/>',
        f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H - M}" stroke="black"/>',
        f'<text x="{M}" y="{H - M + 20}" font-family="monospace" '
        f'font-size="11">{x0:.6g}</text>',
        f'<text x="{W - M}" y="{H - M + 20}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{x1:.6g}</text>',
        f'<text x="{M - 5}" y="{H - M}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{y0:.6g}</text>',
        f'<text x="{M - 5}" y="{M + 5}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{y1:.6g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f4e8c" '
        'stroke-width="1.5"/>',
        "</svg>",
    ]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared builders


def build_curve(cfg: dict):
    g = cfg["geometry"]
    kind = g["curve"]
    if kind == "line":
        curve = geometry.line()
    elif kind == "circle":
        curve = geometry.circle(g["radius"])
    elif kind == "helix":
        curve = geometry.helix(g["radius"], g["pitch"])
    else:
        curve = geometry.bump_line(amplitude=g["amplitude"])
    return geometry.reparameterize_arclength(curve)


def build_frame(cfg: dict):
    curve = build_curve(cfg)
    frame = geometry.bishop_frame(curve, n_nodes=cfg["geometry"]["n_nodes"])
    rate = cfg["geometry"]["twist_rate"]
    twist = geometry.linear_twist(rate) if rate else geometry.no_twist()
    return frame, twist


def build_modes(cfg: dict) -> transverse.TransverseModes:
    c = cfg["cross_section"]
    if c["shape"] == "rectangle":
        cs = transverse.rectangle(c["a"], c["b"], n=c["n"])
    elif c["shape"] == "disk":
        cs = transverse.disk(c["radius"], n=c["n"])
    else:
        cs = transverse.ellipse(c["a"], c["b"], n=c["n"])
    return transverse.dirichlet_modes(cs, m=c["m"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_frame(cfg: dict, out: Path) -> dict:
    frame, twist = build_frame(cfg)
    frame.to_csv(out / "series" / "frame.csv")
    c1, c2, feasible = geometry.overlap_margin(frame.curve)
    scalars = {
        "kappa_max": float(np.max(frame.kappa)),
        "orthonormality_defect": float(frame.orthonormality_defect()),
        "tube_feasible": bool(feasible),
        "eps_margin_c1": float(c1),
        "eps_margin_c2": float(c2),
    }
    write_svg(out / "plots" / "kappa.svg", frame.x, frame.kappa,
              "curvature along the guide")
    return scalars


def cmd_modes(cfg: dict, out: Path) -> dict:
    modes = build_modes(cfg)
    scalars = modes.summary()
    write_csv(out / "series" / "energies.csv", ["j", "E_j"],
              [np.arange(len(modes.energies)), modes.energies])
    mid = modes.chi[0].shape[1] // 2
    write_svg(out / "plots" / "chi0.svg", modes.cs.y1, modes.chi[0][:, mid],
              "ground mode, central section")
    return scalars


def cmd_coeffs(cfg: dict, out: Path) -> dict:
    frame, twist = build_frame(cfg)
    modes = build_modes(cfg)
    spt = scaling.scaling_params(cfg["scaling"]["N"], cfg["scaling"]["eps"],
                                 cfg["scaling"]["beta"])
    w = scaling.bump_potential()
    b = scaling.b_coefficient(modes, w, cfg["scaling"]["regime"])
    v_geom = geometry.geometric_potential(frame, twist, modes.lchi2)
    xk, vk, kmass = scaling.effective_kernel(modes, w, spt.eps, spt.mu)
    scalars = dict(modes.summary())
    scalars.update({"b": b, "kernel_mass": kmass, "mu": spt.mu, "a": spt.a,
                    "w_mass": w.mass})
    write_csv(out / "series" / "v_geom.csv", ["x", "v_geom"],
              [frame.x, v_geom])
    write_csv(out / "series" / "kernel.csv", ["x", "w0bar"], [xk, vk])
    write_svg(out / "plots" / "kernel.svg", xk, vk, "effective 1D kernel")
    write_svg(out / "plots" / "v_geom.svg", frame.x, v_geom,
              "geometric potential")
    return scalars


def _nls_setup(cfg: dict):
    sv = cfg["solver"]
    X, G = sv["X"], sv["G"]
    modes = build_modes(cfg)
    frame, twist = build_frame(cfg)
    vals = geometry.geometric_potential(frame, twist, modes.lchi2)
    grid = nls.Wave1D(X, np.zeros(G, dtype=complex)).x
    # a reparameterized curve's arc length starts at 0: centre the guide
    # on the box [-X, X)
    centred = frame.x - 0.5 * (frame.x[0] + frame.x[-1])
    v_geom = np.interp(grid, centred, vals, left=vals[0], right=vals[-1])
    pot = nls.Potential1D(v_geom=v_geom)
    b = scaling.b_coefficient(modes, scaling.bump_potential(),
                              cfg["scaling"]["regime"])
    return pot, b


def cmd_evolve(cfg: dict, out: Path) -> dict:
    sv = cfg["solver"]
    pot, b = _nls_setup(cfg)
    if sv["initial"] == "ground":
        w0 = nls.ground_state(pot, b, sv["X"], sv["G"], tol=1e-8)
    else:
        w0 = nls.gaussian(sv["X"], sv["G"], sigma=sv["sigma"])
    traj = nls.evolve(w0, pot, b, dt=sv["dt"], T=sv["T"],
                      store_every=sv["store_every"])
    reports = [nls.report(w, pot, b) for w in traj]
    t = [r.t for r in reports]
    write_csv(out / "series" / "observables.csv",
              ["t", "mass", "energy", "h1", "h2", "sup"],
              [t, [r.mass for r in reports], [r.energy for r in reports],
               [r.h1 for r in reports], [r.h2 for r in reports],
               [r.sup for r in reports]])
    write_svg(out / "plots" / "energy.svg", t, [r.energy for r in reports],
              "effective energy per particle")
    chain = all(nls.sobolev_check(w)["chain_ok"] for w in traj)
    return {
        "mass_drift": max(abs(r.mass - reports[0].mass) for r in reports),
        "energy_drift": max(abs(r.energy - reports[0].energy)
                            for r in reports),
        "boundary_mass": traj[-1].boundary_mass(),
        "sobolev_chain_ok": bool(chain),
        "b": b,
    }


def _lattice(cfg: dict, N: int, eps: float, modes):
    """The lattice model of one (N, eps) point: (spb, offsets, K, h_one,
    phi0), with phi0 the ground state of the one-body matrix."""
    sv = cfg["solver"]
    G_x, m, dx = sv["G_x"], cfg["cross_section"]["m"], sv["dx"]
    spt = scaling.scaling_params(N, eps, cfg["scaling"]["beta"])
    spb = manybody.SingleParticleBasis(G_x=G_x, dx=dx, eps=eps,
                                       transverse_energies=modes.energies[:m])
    offsets, K = manybody.mode_kernel(modes, scaling.bump_potential(), spt, dx)
    h_one = manybody.one_body_matrix(spb)
    phi0 = np.linalg.eigh(h_one)[1][:, 0].astype(complex)
    return spb, offsets, K, h_one, phi0


def _measure(basis, H, spb, psi, phi) -> dict:
    """The observables of one frame psi against the condensate of the
    one-body reference phi: the sector weights pk, e_psi, the trace
    distance of gamma_1 to phi's projector and the excitation
    probability."""
    ref = condensation.condensate_ref(phi)
    g1 = manybody.reduced_density(basis, psi)
    return {"pk": condensation.sector_weights(basis, ref, psi),
            "e_psi": manybody.energy_per_particle(basis, psi, H),
            "trace_dist": manybody.trace_distance(g1, ref.projector),
            "excitation": manybody.excitation_probability(basis, psi, spb)}


def _manybody_point(cfg: dict, N: int, eps: float, modes, T: float):
    """One (N, eps) run: exact evolution from the condensate of phi0, with
    condensation observables against the mean-field reference at the
    initial time and 10 stored times, T / 10 apart, that one Lanczos call
    reaches.

    The lattice is a ring with an offset-only kernel, and phi0 is its
    k = 0 ground state, so the exact evolution runs in the zero-momentum
    block of the momentum modes (``manybody.MomentumBlock``).  The Hartree
    reference runs on the lattice modes and each frame is mapped into the
    momentum modes; a reference off k = 0 is refused."""
    spb, offsets, K, h_one, phi0 = _lattice(cfg, N, eps, modes)
    basis = manybody.momentum_block(spb.G_x, spb.m, N)
    H = manybody.build_hamiltonian(basis, h_one, offsets, K)
    psi0 = manybody.condensate_state(
        basis, manybody.momentum_modes(phi0, spb.G_x))

    steps = 10
    frames = manybody.evolve_state(basis, H, psi0, T=T, dt=T / steps,
                                   store_every=1)
    # Hartree steps of at most min(1e-3, T/1000), rounded up to a multiple
    # of the frame count: frame k is Hartree frame k * stride
    stride = -(-manybody._steps(T, min(1e-3, T / 1000))[0] // steps)
    hart = manybody.hartree_evolve(h_one, offsets, K, spb.G_x, spb.m, N, phi0,
                                   T=T, dt=T / (stride * steps))
    refs = manybody.momentum_modes(np.array([phi for _, phi in
                                             hart[::stride]]), spb.G_x)
    # e_phi, the Hartree energy of the reference, is the many-body energy per
    # particle of its condensate: psi0's at t = 0, and the Hartree flow
    # conserves it
    e0 = manybody.energy_per_particle(basis, psi0, H)

    xi = cfg["scaling"]["xi"]
    mweight = condensation.weight_m(N, xi)
    # the paper's g(t)^2 = 1 + |E(0)| + int_0^t sup_x |dV/dt(s)| ds, constant
    # on the static lattice
    g = float(np.sqrt(1.0 + abs(e0)))
    rows = []
    for (tpsi, psi), phi in zip(frames, refs):
        obs = _measure(basis, H, spb, psi, phi)
        pk = obs.pop("pk")
        a_m = float(np.dot(mweight.table, pk))
        rows.append({
            "t": tpsi, "alpha_n2": float(np.dot(
                condensation.weight_n(N, 2.0).table, pk)),
            "alpha_m": a_m,
            "alpha_xi": condensation.alpha_xi_value(a_m, obs["e_psi"], e0),
            "e_phi": e0, "g": g, **obs,
        })
    return rows


def cmd_manybody(cfg: dict, out: Path) -> dict:
    sc = cfg["scaling"]
    modes = build_modes(cfg)
    rows = _manybody_point(cfg, sc["N"], sc["eps"], modes,
                           T=cfg["solver"]["T"])
    keys = ["t", "e_psi", "e_phi", "g", "excitation", "alpha_n2", "alpha_m",
            "alpha_xi", "trace_dist"]
    write_csv(out / "series" / "trajectory.csv", keys,
              [[r[k] for r in rows] for k in keys])
    t = [r["t"] for r in rows]
    write_svg(out / "plots" / "alpha_n2.svg", t, [r["alpha_n2"] for r in rows],
              "condensate depletion")
    return {
        "final_alpha_n2": rows[-1]["alpha_n2"],
        "final_trace_dist": rows[-1]["trace_dist"],
        "final_excitation": rows[-1]["excitation"],
        "energy_drift": max(abs(r["e_psi"] - rows[0]["e_psi"]) for r in rows),
    }


def cmd_converge(cfg: dict, out: Path) -> dict:
    cv = cfg["converge"]
    modes = build_modes(cfg)
    N_list = list(cv["N_list"])
    N0 = N_list[0]
    results = []
    for N in N_list:
        eps = cv["eps0"] * (N / N0) ** (-cv["alpha"])
        rows = _manybody_point(cfg, N, eps, modes, T=cfg["solver"]["T"])
        final = rows[-1]
        results.append({"N": N, "eps": eps, **{k: final[k] for k in
                        ("alpha_n2", "alpha_m", "alpha_xi", "trace_dist",
                         "excitation")}})
    keys = ["N", "eps", "alpha_n2", "alpha_m", "alpha_xi", "trace_dist",
            "excitation"]
    write_csv(out / "series" / "convergence.csv", keys,
              [[r[k] for r in results] for k in keys])
    Ns = np.array([r["N"] for r in results], dtype=float)
    al = np.array([max(r["alpha_n2"], 1e-300) for r in results])
    slope = float(np.polyfit(np.log(Ns), np.log(al), 1)[0])
    write_svg(out / "plots" / "trace_distance.svg", Ns,
              [r["trace_dist"] for r in results], "trace distance vs N")
    write_svg(out / "plots" / "alpha_n2.svg", Ns, al,
              "depletion vs N at final time")
    return {
        "alpha_n2_by_N": {str(r["N"]): r["alpha_n2"] for r in results},
        "trace_dist_by_N": {str(r["N"]): r["trace_dist"] for r in results},
        "decay_exponent": -slope,
        "monotone_decreasing": bool(np.all(np.diff(al) < 0)),
    }


# ---------------------------------------------------------------------------
# verification suite


def _verify_registry():
    """(module, name, callable) triples; each callable returns
    (ok: bool, value: float).  A system that several checks read is built
    on the first check that needs it and shared by the rest of this
    registry's checks."""
    checks = []

    def add(module, name):
        def deco(fn):
            checks.append((module, name, fn))
            return fn
        return deco

    @functools.cache
    def arclength_frame(kind):
        curve = (geometry.circle(2.0) if kind == "circle"
                 else geometry.helix(1.0, 1.0))
        return geometry.bishop_frame(geometry.reparameterize_arclength(curve))

    @add("geometry", "circle_curvature")
    def _():
        d = float(np.max(np.abs(arclength_frame("circle").kappa - 0.5)))
        return d < 1e-8, d

    @add("geometry", "helix_curvature")
    def _():
        d = float(np.max(np.abs(arclength_frame("helix").kappa - 0.5)))
        return d < 1e-6, d

    @add("geometry", "frame_orthonormality")
    def _():
        fr = geometry.bishop_frame(
            geometry.reparameterize_arclength(geometry.bump_line()))
        d = float(fr.orthonormality_defect())
        return d < 1e-8, d

    @add("geometry", "circle_helix_orthonormality")
    def _():
        d = float(max(arclength_frame("circle").orthonormality_defect(),
                      arclength_frame("helix").orthonormality_defect()))
        return d < 1e-8, d

    @add("geometry", "straight_guide_flat_potential")
    def _():
        fr = geometry.bishop_frame(geometry.line())
        v = geometry.geometric_potential(fr, geometry.no_twist(), 1.0)
        d = float(np.max(np.abs(v)))
        return d == 0.0, d

    @functools.cache
    def square_modes():
        return transverse.dirichlet_modes(
            transverse.rectangle(np.pi, np.pi, n=127), m=1)

    @add("transverse", "rectangle_ground_energy")
    def _():
        d = abs(square_modes().e0 - 2.0) / 2.0
        return d < 5e-3, d

    @add("transverse", "rectangle_quartic_integral")
    def _():
        d = abs(square_modes().q4 - 9.0 / (4 * np.pi**2))
        return d < 1e-3, d

    @add("transverse", "disk_ground_energy")
    def _():
        modes = transverse.dirichlet_modes(transverse.disk(1.0, n=128), m=1)
        exact = 5.783185962946785
        d = abs(modes.e0 - exact) / exact
        return d < 1e-2, d

    @add("scaling", "coupling_roundtrip")
    def _():
        p = scaling.scaling_params(100, 0.3, 0.25)
        d = abs(p.mu ** (1.0 / p.beta) - p.a)
        return d < 1e-15, d

    @add("scaling", "classifier_examples")
    def _():
        n = np.unique(np.geomspace(4, 64, 8).astype(int))
        mod = scaling.classify_sequence(
            [scaling.scaling_params(k, float(k) ** -0.4, 0.25) for k in n])
        strong = scaling.classify_sequence(
            [scaling.scaling_params(k, 1.0 / k, 0.25) for k in n])
        const = scaling.classify_sequence(
            [scaling.ScalingPoint(int(k), 0.5 - 1e-9 * k, 0.25) for k in n])
        ok = (mod.admissible and mod.moderate and not mod.strong
              and strong.admissible and strong.strong and not strong.moderate
              and not const.admissible and const.neither)
        return ok, float(ok)

    @add("scaling", "rectangle_coupling_value")
    def _():
        w = scaling.bump_potential().scaled(1.0 / scaling.bump_potential().mass)
        b = scaling.b_coefficient(square_modes(), w, "moderate")
        d = abs(b - 9.0 / (4 * np.pi**2))
        return d < 1e-3, d

    @add("scaling", "taylor_remainder")
    def _():
        # the sampled remainder sup rbar is O(eps + mu) on a curved guide
        frame = geometry.bishop_frame(
            geometry.reparameterize_arclength(geometry.circle(2.0)),
            n_nodes=512)
        ratios = [scaling.taylor_decompose(
                      types.SimpleNamespace(eps=eps, mu=mu), frame,
                      geometry.no_twist()).rbar / (eps + mu)
                  for eps in (0.05, 0.1) for mu in (0.05, 0.1)]
        d = max(ratios) / min(ratios)
        return d < 3.0, d

    @add("nls", "plane_wave_phase")
    def _():
        X, b = 8.0, 0.5
        w0 = nls.plane_wave(X, 256, mode=2)
        traj = nls.evolve(w0, nls.free_potential(), b, dt=1e-3, T=1.0,
                          store_every=1000)
        wf = traj[-1]
        k = 2 * np.pi / X
        exact = np.exp(1j * (k * wf.x - (k**2 + b / (2 * X)))) / np.sqrt(2 * X)
        d = float(np.max(np.abs(wf.values - exact)))
        return d < 1e-6, d

    @add("nls", "mass_conservation")
    def _():
        w0 = nls.gaussian(8.0, 256)
        traj = nls.evolve(w0, nls.free_potential(), 1.0, dt=1e-3, T=1.0,
                          store_every=200)
        d = max(abs(w.mass() - 1.0) for w in traj)
        return d < 1e-10, d

    @add("nls", "static_energy_conservation")
    def _():
        grid = nls.Wave1D(8.0, np.zeros(256, complex)).x
        pot = nls.Potential1D(v_geom=0.1 * np.exp(-grid**2 / 8))
        w0 = nls.gaussian(8.0, 256, sigma=2.0)
        traj = nls.evolve(w0, pot, 0.5, dt=1e-3, T=1.0, store_every=200)
        e = [nls.energy(w, pot, 0.5) for w in traj]
        d = max(abs(v - e[0]) for v in e) / max(1.0, abs(e[0]))
        return d < 1e-8, d

    def energy_drift(T, dt):
        pot = nls.Potential1D(
            v=lambda t, x: np.sin(t) * np.exp(-x**2 / 4),
            vdot=lambda t, x: np.cos(t) * np.exp(-x**2 / 4))
        traj = nls.evolve(nls.gaussian(8.0, 256), pot, 1.0, dt=dt, T=T,
                          store_every=1)
        return nls.energy_drift_check(traj, pot, 1.0)

    @add("nls", "energy_derivative_identity")
    def _():
        d = energy_drift(0.5, 1e-3)
        return d < 1e-5, d

    @add("nls", "energy_derivative_second_order")
    def _():
        # the centered difference of E is O(dt^2): halving dt divides the
        # defect by about 4
        coarse = energy_drift(0.25, 1e-3)
        d = coarse / energy_drift(0.25, 5e-4)
        return coarse < 1e-5 and 2.5 < d < 6.0, d

    @add("nls", "sobolev_chain")
    def _():
        w = nls.gaussian(8.0, 256, sigma=0.7)
        rep = nls.sobolev_check(w)
        ok = rep["chain_ok"] and rep["density_ok"]
        return ok, float(ok)

    @add("nls", "linear_ground_state_oracle")
    def _():
        v = 0.5 * nls.Wave1D(8.0, np.zeros(256, complex)).x ** 2
        pot = nls.Potential1D(v_geom=v)
        a = nls.ground_state(pot, 0.0, 8.0, 256, tol=1e-10)
        b = nls.linear_ground_state(pot, 8.0, 256)
        d = float(np.max(np.abs(np.abs(a.values) - np.abs(b.values))))
        return d < 1e-6, d

    @functools.cache
    def small_system():
        """N = 3 on the default lattice cut to 6 sites, with the square's
        modes on 63 x 63 nodes, evolved to T = 0.2 in steps of 0.01 with a
        frame every 5 steps, on the lattice modes: a namespace of the
        lattice (spb, offsets, K, h, phi0), the basis, H, psi0 and the
        frames."""
        cfg = load_config(None)
        cfg["solver"]["G_x"], cfg["cross_section"]["n"] = 6, 63
        spb, offsets, K, h, phi0 = _lattice(cfg, 3, cfg["scaling"]["eps"],
                                            build_modes(cfg))
        basis = manybody.build_basis(spb.d, 3)
        H = manybody.build_hamiltonian(basis, h, offsets, K)
        psi0 = manybody.condensate_state(basis, phi0)
        frames = manybody.evolve_state(basis, H, psi0, T=0.2, dt=0.01,
                                       store_every=5)
        return types.SimpleNamespace(spb=spb, offsets=offsets, K=K, h=h,
                                     phi0=phi0, basis=basis, H=H, psi0=psi0,
                                     frames=frames)

    @add("manybody", "hermiticity_and_unitarity")
    def _():
        s = small_system()
        herm = abs(s.H - s.H.getH()).max()
        drift = max(abs(np.linalg.norm(p) - 1.0) for _, p in s.frames)
        d = float(max(herm, drift))
        return d < 1e-9, d

    @add("manybody", "krylov_vs_dense")
    def _():
        s = small_system()
        dense = manybody.evolve_state_dense(s.H, s.psi0, [0.2])
        ref = dense[0][1] / np.linalg.norm(dense[0][1])
        d = float(np.linalg.norm(s.frames[-1][1] - ref))
        return d < 1e-8, d

    @add("manybody", "static_energy_conservation")
    def _():
        s = small_system()
        e = [manybody.energy_per_particle(s.basis, p, s.H)
             for _, p in s.frames]
        d = max(abs(v - e[0]) for v in e)
        return d < 1e-8, d

    @add("manybody", "gamma1_positive_unit_trace")
    def _():
        s = small_system()
        g1 = manybody.reduced_density(s.basis, s.frames[-1][1])
        ev = np.linalg.eigvalsh(g1)
        d = float(max(-ev.min(), abs(np.trace(g1).real - 1.0)))
        return d < 1e-10, d

    @add("manybody", "momentum_block_matches_real_space")
    def _():
        # the same run in the zero-momentum block: alpha_n2, trace_dist,
        # excitation and e_psi against the condensate of phi0 at every frame
        s = small_system()
        block = manybody.momentum_block(s.spb.G_x, s.spb.m, 3)
        H = manybody.build_hamiltonian(block, s.h, s.offsets, s.K)
        phi = manybody.momentum_modes(s.phi0, s.spb.G_x)
        frames = manybody.evolve_state(
            block, H, manybody.condensate_state(block, phi), T=0.2, dt=0.01,
            store_every=5)
        n2 = condensation.weight_n(3, 2.0).table
        d = 0.0
        for (_, psi), (_, psi_k) in zip(s.frames, frames):
            a = _measure(s.basis, s.H, s.spb, psi, s.phi0)
            b = _measure(block, H, s.spb, psi_k, phi)
            d = max(d, abs(np.dot(n2, a.pop("pk") - b.pop("pk"))),
                    *(abs(a[key] - b[key]) for key in a))
        return len(frames) == len(s.frames) and d <= 1e-12, float(d)

    @add("manybody", "first_quantized_bridge")
    def _():
        N, d0 = 2, 3
        basis = manybody.build_basis(d0, N)
        psi_dense = condensation.random_symmetric_state(N, d0, seed=11)
        psi_fock = condensation.dense_to_fock(psi_dense, basis)
        g_fock = manybody.reduced_density(basis, psi_fock)
        g_dense = condensation.reduced_density_dense(psi_dense, N, d0, M=1)
        d = float(np.abs(g_fock - g_dense).max())
        return d < 1e-12, d

    @add("manybody", "mean_field_stationary")
    def _():
        # the default config's phi0 under its own mean field
        cfg = load_config(None)
        N = cfg["scaling"]["N"]
        spb, offsets, K, h_one, phi0 = _lattice(cfg, N, cfg["scaling"]["eps"],
                                                build_modes(cfg))
        _, d = manybody.mean_field_stationary(h_one, offsets, K, spb.G_x,
                                              spb.m, N, phi0)
        return d <= manybody.stationary_bound(h_one), d

    @add("condensation", "hat_dynamics")
    def _():
        # i d/dt f-hat = [H, f-hat] for N = 2 on d = 3 along h(t) =
        # h0 (1 + t/2); the centred difference is O(dt^2), so halving dt
        # divides the defect by about 4
        rng = np.random.default_rng(5)
        h0 = rng.standard_normal((3, 3))
        h0 = 0.5 * (h0 + h0.T)
        phi0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        coarse, fine = (condensation.hat_dynamics_check(
            lambda t: h0 * (1 + 0.5 * t), condensation.weight_n(2, power=2.0),
            2, 3, phi0, T=0.1, dt=dt) for dt in (4e-3, 2e-3))
        d = coarse / fine
        return 2.5 < d < 6.0, d

    @add("condensation", "operator_algebra")
    def _():
        led = condensation.weight_algebra_suite(N=3, d=4, seed=0)
        slack = led.pop("qq_inequality_slack")
        d = max(led.values())
        return d < 1e-10 and slack >= 0, float(d)

    @add("condensation", "operator_algebra_seeds")
    def _():
        d, slack = 0.0, np.inf
        for seed in range(20):
            N, d0 = ((3, 4), (2, 6), (3, 5))[seed % 3]
            led = condensation.weight_algebra_suite(N=N, d=d0, seed=seed)
            slack = min(slack, led.pop("qq_inequality_slack"))
            d = max(d, max(led.values()))
        return d < 1e-10 and slack >= -1e-12, float(d)

    @add("condensation", "weight_m_sandwich")
    def _():
        # n <= m <= max(n, N^-xi) with n = sqrt(k/N), to 1e-14
        d = 0.0
        for N in (100, 1000, 10_000):
            for xi in (0.1, 0.2, 0.4):
                m = condensation.weight_m(N, xi).table
                n = np.sqrt(np.arange(N + 1) / N)
                d = max(d, float(np.max(n - m)),
                        float(np.max(m - np.maximum(n, N**-xi))))
        return d <= 1e-14, d

    @add("condensation", "weight_bounds")
    def _():
        ok = True
        for N in (100, 1000, 10_000):
            for xi in (0.1, 0.2, 0.4):
                for ell in (1, 2, 3):
                    _, rep = condensation.weight_m_ell(N, xi, ell)
                    ok = ok and rep["nonnegative"] and rep["sqrt_branch_ok"] \
                        and rep["linear_branch_ok"]
        return ok, float(ok)

    @add("condensation", "fock_dense_bridge")
    def _():
        N, d0 = 2, 3
        basis = manybody.build_basis(d0, N)
        psi_dense = condensation.random_symmetric_state(N, d0, seed=7)
        rng = np.random.default_rng(13)
        phi = rng.standard_normal(d0) + 1j * rng.standard_normal(d0)
        ref = condensation.condensate_ref(phi)
        bundle = condensation.pk_projectors(ref, N)
        pk_dense = np.array([np.vdot(psi_dense, P @ psi_dense).real
                             for P in bundle.P])
        pk_fock = condensation.sector_weights(
            basis, ref, condensation.dense_to_fock(psi_dense, basis))
        d = float(np.abs(pk_dense - pk_fock).max())
        return d < 1e-12, d

    @add("condensation", "measure_equivalence")
    def _():
        rep = condensation.equivalence_suite()
        ok = rep["identity_defect"] < 1e-10 and rep["co_monotone"]
        return ok, float(rep["identity_defect"])

    return checks


def cmd_verify(cfg: dict, out: Path) -> dict:
    scalars = {}
    n_fail = 0
    for module, name, fn in _verify_registry():
        ok, value = fn()
        scalars[f"{module}.{name}"] = {"ok": bool(ok), "value": float(value)}
        status = "pass" if ok else "FAIL"
        print(f"  {status}  {module}.{name}  ({value:.3e})")
        if not ok:
            n_fail += 1
    scalars["failures"] = n_fail
    if n_fail:
        raise VerificationFailure(f"{n_fail} verification checks failed",
                                  scalars)
    return scalars


class VerificationFailure(RuntimeError):
    def __init__(self, msg, scalars):
        super().__init__(msg)
        self.scalars = scalars


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "frame": cmd_frame,
    "modes": cmd_modes,
    "coeffs": cmd_coeffs,
    "evolve": cmd_evolve,
    "manybody": cmd_manybody,
    "converge": cmd_converge,
    "verify": cmd_verify,
}


# failures of the numerics; anything else is a bug and keeps its traceback
NUMERIC_ERRORS = (geometry.GeometryError, transverse.CrossSectionError,
                  scaling.ScalingError, nls.NLSError, manybody.ManyBodyError,
                  condensation.CondensationError, np.linalg.LinAlgError,
                  FloatingPointError)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bectube",
        description="thin-waveguide boson dynamics laboratory")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None,
                        help="JSON or INI run configuration")
    parser.add_argument("--out", default=None, help="output root override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError, json.JSONDecodeError,
            configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = prepare_outdir(cfg, args.subcommand, args.out)
    t0 = time.time()
    try:
        scalars = COMMANDS[args.subcommand](cfg, out)
    except VerificationFailure as exc:
        write_scalars(out, exc.scalars)
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except NUMERIC_ERRORS as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    write_scalars(out, scalars)
    record = {
        "digest": config_digest(cfg),
        "version": __version__,
        "subcommand": args.subcommand,
        "wall_time_s": round(time.time() - t0, 3),
    }
    (out / "record.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
