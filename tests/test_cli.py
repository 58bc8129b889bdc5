"""Tests for config ingestion, the output layout, and the CLI entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bectube import cli, nls
from oracles import masked


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("BECTUBE_OUT", str(tmp_path / "runs"))
    return tmp_path


def _python(code: str, **env) -> list:
    """The stdout lines of code run by a fresh interpreter that imports this
    checkout's bectube, with the environment variables env set on top of
    the inherited ones."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def _blas_threads(n: int) -> dict:
    """The thread-count variables of OpenBLAS, OpenMP and MKL, all n."""
    return dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS"), str(n))


def small_modes_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cross_section": {"n": 31, "m": 2}}))
    return path


class TestConfig:
    def test_defaults_valid(self):
        cfg = cli.load_config(None)
        assert cfg["scaling"]["beta"] == 0.25

    def test_helix_of_radius_zero_runs(self, outdir, tmp_path):
        # a helix of radius 0 is a line; only a circle needs a positive
        # radius
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"geometry": {"curve": "helix",
                                              "radius": 0.0}}))
        assert cli.main(["frame", "--config", str(p)]) == 0

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"bogus": {"x": 1}}')
        with pytest.raises(cli.ConfigError, match="section"):
            cli.load_config(p)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"solver": {"nope": 1}}')
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.load_config(p)

    @pytest.mark.parametrize("patch,msg", [
        ({"scaling": {"beta": 0.5}}, "beta"),
        ({"scaling": {"eps": 2.0}}, "eps"),
        ({"scaling": {"xi": 0.35}}, "xi"),
        ({"scaling": {"regime": "weak"}}, "regime"),
        ({"geometry": {"curve": "spiral"}}, "curve"),
        ({"cross_section": {"shape": "triangle"}}, "shape"),
    ])
    def test_physical_validation(self, tmp_path, patch, msg):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(patch))
        with pytest.raises(cli.ConfigError, match=msg):
            cli.load_config(p)

    @pytest.mark.parametrize("patch", [
        {"solver": {"dx": -0.5}}, {"solver": {"dx": 0}},
        {"solver": {"G_x": 0}}, {"solver": {"G_x": 2}},
        {"solver": {"G_x": 4.0}}, {"solver": {"T": 0.0}},
        {"solver": {"T": -1.0}}, {"cross_section": {"m": 0}},
        {"cross_section": {"m": 1.5}}, {"scaling": {"N": 2.5}},
        {"scaling": {"N": "4"}}, {"scaling": {"N": True}},
        {"scaling": {"N": 0}}, {"solver": {"dt": "a"}},
        {"cross_section": {"n": "127"}}, {"solver": {"initial": "foo"}},
        {"cross_section": {"radius": -1.0}}, {"cross_section": {"a": 0.0}},
        {"cross_section": {"b": float("inf")}}, {"geometry": {"n_nodes": 1}},
        {"converge": {"eps0": 2.0}}, {"solver": {"X": -8.0}},
        {"solver": {"G": 100}}, {"cross_section": {"n": 0}},
        {"solver": {"dt": 0.0}}, {"solver": {"dt": -1e-3}},
        {"solver": {"store_every": 0}}, {"solver": {"sigma": 0.0}},
        {"solver": {"sigma": -1.0}}, {"geometry": {"radius": -1.0}},
        {"converge": {"alpha": -2.0}}, {"converge": {"alpha": -1e6}},
        {"geometry": {"curve": "circle", "radius": 0.0}},
    ], ids=["dx_negative", "dx_zero", "G_x_zero", "G_x_two", "G_x_float",
            "T_zero", "T_negative", "m_zero", "m_float", "N_float",
            "N_string", "N_bool", "N_zero", "dt_string", "n_string",
            "initial_unknown", "radius_negative", "a_zero", "b_infinite",
            "n_nodes_one", "eps0_above_one", "X_negative",
            "G_not_power_of_two", "n_zero", "dt_zero", "dt_negative",
            "store_every_zero", "sigma_zero", "sigma_negative",
            "guide_radius_negative", "alpha_eps_above_one",
            "alpha_eps_overflow", "circle_radius_zero"])
    def test_out_of_range_is_config_error(self, outdir, tmp_path, patch):
        # a negative dx silently dropped the interaction, G_x = 0 ended in
        # a traceback, and G_x < 3 merged a site's two bonds into one entry;
        # a string for a number ended in a TypeError, N = 2.5 or true ran as
        # an integer, N = 0 exited as a numerical failure, and an unknown
        # initial wave ran a Gaussian; a disk of radius -1 ran with no
        # interaction support, one guide node ended in a traceback, and
        # eps0 = 2, X = -8, G = 100, n = 0, dt <= 0, store_every = 0 and a
        # Gaussian's sigma = 0 exited as numerical failures, and sigma = -1
        # ran |sigma|; a guide of radius -1 ran, and an alpha that takes
        # converge's eps above 1 and a circle of radius 0 exited as
        # numerical failures.  The message names the patch's last key
        ((section, table),) = patch.items()
        key = list(table)[-1]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(patch))
        with pytest.raises(cli.ConfigError, match=f"{section}.{key}"):
            cli.load_config(p)
        assert cli.main(["manybody", "--config", str(p)]) == 1
        assert not list(tmp_path.rglob("scalars.json"))

    @pytest.mark.parametrize("N_list", [[], [0, 2], [4], [4, 3], [2, 2]])
    def test_converge_N_list_validated(self, outdir, tmp_path, N_list):
        # on a bad list the sweep crashed, or fit a slope to one point, or
        # called a falling depletion not monotone
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"converge": {"N_list": N_list}}))
        assert cli.main(["converge", "--config", str(p)]) == 1
        assert not list(tmp_path.rglob("scalars.json"))

    def test_ini_equivalent_to_json(self, tmp_path):
        j = tmp_path / "c.json"
        j.write_text('{"scaling": {"N": 6, "eps": 0.5}}')
        i = tmp_path / "c.ini"
        i.write_text("[scaling]\nN = 6\neps = 0.5\n")
        assert cli.config_digest(cli.load_config(j)) == \
            cli.config_digest(cli.load_config(i))

    def test_digest_sensitivity(self, tmp_path):
        base = cli.load_config(None)
        p = tmp_path / "c.json"
        p.write_text('{"scaling": {"N": 5}}')
        changed = cli.load_config(p)
        assert cli.config_digest(base) != cli.config_digest(changed)
        assert cli.config_digest(base) == cli.config_digest(
            cli.load_config(None))


class TestPersistence:
    def test_csv_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        val = 1.0 / 3.0
        cli.write_csv(path, ["a", "b"], [[val], [2.0]])
        line = path.read_text().splitlines()[1]
        assert line.split(",")[0] == f"{val:.17g}"

    def test_svg_deterministic(self, tmp_path):
        x = np.linspace(0, 1, 50)
        y = np.sin(x)
        cli.write_svg(tmp_path / "a.svg", x, y, "t")
        cli.write_svg(tmp_path / "b.svg", x, y, "t")
        assert (tmp_path / "a.svg").read_bytes() == \
            (tmp_path / "b.svg").read_bytes()

    def test_outdir_layout(self, tmp_path):
        cfg = cli.load_config(None)
        out = cli.prepare_outdir(cfg, "modes", out_override=tmp_path / "runs")
        assert out.name == f"modes-{cli.config_digest(cfg)}"
        assert (out / "config.json").exists()
        assert (out / "series").is_dir() and (out / "plots").is_dir()


class TestMain:
    def test_missing_config_is_config_error(self, outdir):
        assert cli.main(["modes", "--config", "/nonexistent.json"]) == 1

    def test_invalid_value_is_config_error(self, outdir, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"scaling": {"beta": 0.9}}')
        assert cli.main(["modes", "--config", str(p)]) == 1

    def test_numerical_failure_exit_code(self, outdir, tmp_path):
        p = tmp_path / "c.json"
        # grid too coarse for the eigensolver: numerical failure, exit 2
        p.write_text('{"cross_section": {"n": 5}}')
        assert cli.main(["modes", "--config", str(p)]) == 2

    def test_manybody_beyond_int8_occupations_refused(self, outdir,
                                                      tmp_path, capsys):
        # 128 bosons on 3 sites x 1 mode: 8385 states, under the cap, but
        # more than an int8 occupation holds
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"solver": {"G_x": 3},
                                 "cross_section": {"m": 1},
                                 "scaling": {"N": 128}}))
        assert cli.main(["manybody", "--config", str(p)]) == 2
        assert "int8" in capsys.readouterr().err
        assert not list(tmp_path.rglob("scalars.json"))

    def test_bug_is_not_numerical_failure(self, outdir, tmp_path,
                                          monkeypatch):
        # a programming error keeps its traceback instead of exiting 2
        def broken(cfg, out):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(cli.COMMANDS, "modes", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            cli.main(["modes", "--config", str(small_modes_config(tmp_path))])

    def test_module_error_is_numerical_failure(self, outdir, tmp_path,
                                               monkeypatch):
        def failing(cfg, out):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setitem(cli.COMMANDS, "modes", failing)
        p = small_modes_config(tmp_path)
        assert cli.main(["modes", "--config", str(p)]) == 2

    def test_modes_run(self, outdir, tmp_path, capsys):
        p = small_modes_config(tmp_path)
        assert cli.main(["modes", "--config", str(p)]) == 0
        out_root = tmp_path / "runs"
        (run_dir,) = out_root.iterdir()
        scalars = json.loads((run_dir / "scalars.json").read_text())
        assert set(scalars) >= {"E0", "gap", "q4", "lchi2"}
        record = json.loads((run_dir / "record.json").read_text())
        assert record["subcommand"] == "modes"
        assert run_dir.name == f"modes-{record['digest']}"
        assert (run_dir / "series" / "energies.csv").exists()
        assert (run_dir / "plots" / "chi0.svg").exists()

    def test_frame_run(self, outdir, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"geometry": {"curve": "helix", "radius": 1.0, '
                     '"pitch": 1.0, "n_nodes": 256}}')
        assert cli.main(["frame", "--config", str(p)]) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        scalars = json.loads((run_dir / "scalars.json").read_text())
        assert np.isclose(scalars["kappa_max"], 0.5, atol=1e-4)
        assert scalars["tube_feasible"] is True

    def test_rerun_scalars_identical(self, outdir, tmp_path):
        p = small_modes_config(tmp_path)
        assert cli.main(["modes", "--config", str(p)]) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        first = (run_dir / "scalars.json").read_bytes()
        assert cli.main(["modes", "--config", str(p)]) == 0
        assert (run_dir / "scalars.json").read_bytes() == first

    def test_subcommands_do_not_share_a_directory(self, outdir, tmp_path):
        p = small_modes_config(tmp_path)
        assert cli.main(["modes", "--config", str(p)]) == 0
        assert cli.main(["frame", "--config", str(p)]) == 0
        run_dirs = sorted((tmp_path / "runs").iterdir())
        assert [d.name.split("-")[0] for d in run_dirs] == ["frame", "modes"]
        for run_dir in run_dirs:
            record = json.loads((run_dir / "record.json").read_text())
            assert run_dir.name == f"{record['subcommand']}-{record['digest']}"
            assert (run_dir / "scalars.json").is_file()

    def test_evolve_on_thin_square_bump(self, outdir, tmp_path):
        # a 0.5 x 0.5 square gives b = 5.7 and the bump a shallow well:
        # the ground state converges and the run exits 0
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "geometry": {"curve": "bump_line"},
            "cross_section": {"a": 0.5, "b": 0.5, "n": 31, "m": 1}}))
        assert cli.main(["evolve", "--config", str(p)]) == 0

    def test_manybody_g_is_constant(self, outdir):
        # on the static lattice g(t) = sqrt(1 + |E(0)|) at every stored time
        assert cli.main(["manybody"]) == 0
        (run_dir,) = (outdir / "runs").iterdir()
        path = run_dir / "series" / "trajectory.csv"
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert len(rows) == 11
        g0 = np.sqrt(1.0 + abs(rows["e_psi"][0]))
        assert np.all(np.abs(rows["g"] - g0) <= 1e-14)

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_out_flag_overrides_env(self, outdir, tmp_path):
        p = small_modes_config(tmp_path)
        target = tmp_path / "elsewhere"
        assert cli.main(["modes", "--config", str(p),
                         "--out", str(target)]) == 0
        assert any(target.iterdir())
        assert not (tmp_path / "runs").exists()


class TestVerifyRegistry:
    def test_covers_all_modules(self):
        checks = cli._verify_registry()
        modules = {m for m, _, _ in checks}
        assert modules == {"geometry", "transverse", "scaling", "nls",
                           "manybody", "condensation"}
        names = [(m, n) for m, n, _ in checks]
        assert len(names) == len(set(names))
        assert ("manybody", "mean_field_stationary") in names
        assert ("condensation", "hat_dynamics") in names
        assert len(checks) >= 20


class TestImports:
    # imported at start-up these cost the CLI about 0.6 s (signal, stats,
    # integrate) and 0.3 s (interpolate and fft with what they pull in); the
    # package needs scipy.interpolate only for the splines of the pointwise
    # embedding and of non-constant-speed curves, scipy.stats only for
    # verify's sampler
    SLOW = ("scipy.signal", "scipy.stats", "scipy.integrate",
            "scipy.interpolate", "scipy.fft", "scipy.special",
            "scipy.optimize", "scipy.spatial")

    def _loaded_after(self, code):
        code += f"\nprint(*sorted(m for m in {self.SLOW!r} if m in sys.modules))"
        return _python(code)[-1].split()

    def test_start_up_leaves_slow_scipy_subpackages_unloaded(self):
        assert self._loaded_after("import sys, bectube, bectube.cli") == []

    def test_benchmarked_commands_leave_them_unloaded(self, tmp_path):
        # the cost must be gone, not moved from start-up into the run: the
        # default manybody run, and coeffs and evolve on a twisted helix with
        # a disk cross-section
        cfg = tmp_path / "helix_disk.json"
        cfg.write_text(json.dumps({
            "geometry": {"curve": "helix", "radius": 1.0, "pitch": 1.0,
                         "twist_rate": 0.5},
            "cross_section": {"shape": "disk", "radius": 1.0}}))
        out = str(tmp_path / "out")
        code = "\n".join([
            "import sys, bectube.cli as cli",
            f"assert cli.main(['manybody', '--out', {out!r}]) == 0",
            *(f"assert cli.main([{c!r}, '--config', {str(cfg)!r}, "
              f"'--out', {out!r}]) == 0" for c in ("coeffs", "evolve"))])
        assert self._loaded_after(code) == []


# twisted helix on a disk, the shape of the benchmark's effective model: its
# modes come from the shift-invert Arnoldi, its initial wave from
# nls.ground_state
DISK_HELIX = {"geometry": {"curve": "helix", "radius": 1.0, "pitch": 1.0,
                           "twist_rate": 0.5},
              "cross_section": {"shape": "disk", "radius": 1.0}}


class TestBlasThreads:
    """Neither the Fock-space path nor coeffs and evolve on any
    cross-section with up to 14 modes call threaded BLAS, so a second
    OpenBLAS thread stays asleep and the results do not depend on the
    thread count."""

    # a real lattice-mode evolution at d = 16, N = 5: Fock vectors of 15504
    # entries, above OpenBLAS's 10000-entry threading threshold, in real
    # Krylov vectors and then, past a restart at T = 2, complex ones; it
    # prints a digest of its frames
    LATTICE_EVOLUTION = [
        "import hashlib",
        "import numpy as np",
        "from bectube import manybody as mb",
        "spb = mb.SingleParticleBasis(G_x=16, dx=0.5, eps=0.5, "
        "transverse_energies=np.array([2.0]))",
        "h = mb.one_body_matrix(spb)",
        "basis = mb.build_basis(16, 5)",
        "H = mb.build_hamiltonian(basis, h, np.array([0]), "
        "np.full((1, 1, 1, 1, 1), 4.0))",
        "assert basis.dim == 15504 and H.dtype == np.float64",
        "psi0 = mb.condensate_state(basis, np.linalg.eigh(h)[1][:, 0])",
        "frames = mb.evolve_state(basis, H, psi0, T=2.0, dt=0.25)",
        "print(hashlib.sha256(b''.join(p.tobytes() for _, p in frames))"
        ".hexdigest())"]

    @staticmethod
    def cli_runs(commands, out) -> list:
        """The lines of code that run cli.main on each argument list of
        commands, writing under out."""
        return [f"assert cli.main({argv + ['--out', str(out)]!r}) == 0"
                for argv in commands]

    @staticmethod
    def other_thread_cpu(work):
        """CPU seconds that every thread but the main one burns over the
        lines of code work, at 2 BLAS threads; a woken OpenBLAS worker spins
        about 0.13 s after its last job, so the count ends 0.4 s after the
        work."""
        if not Path("/proc/self/task").is_dir():
            pytest.skip("no /proc/self/task to read thread CPU times from")
        code = "\n".join([
            "import os, threading, time",
            "import bectube.cli as cli",
            "def others():",
            "    main, ticks = threading.get_native_id(), 0",
            "    for t in os.listdir('/proc/self/task'):",
            "        if int(t) != main:",
            "            with open(f'/proc/self/task/{t}/stat') as fh:",
            "                f = fh.read().rsplit(')', 1)[1].split()",
            "            ticks += int(f[11]) + int(f[12])",
            "    return ticks / os.sysconf('SC_CLK_TCK')",
            "time.sleep(0.4)", "before = others()"]
            + work
            + ["time.sleep(0.4)",
               "print(len(os.listdir('/proc/self/task')), others() - before)"])
        threads, cpu = _python(code, **_blas_threads(2))[-1].split()
        if int(threads) == 1:
            pytest.skip("the BLAS libraries started no second thread")
        return float(cpu)

    @staticmethod
    def scalars_at(n, commands, out):
        """scalars.json of each run of commands at n BLAS threads, keyed by
        subcommand."""
        _python("\n".join(["import bectube.cli as cli"]
                           + TestBlasThreads.cli_runs(commands, out)),
                **_blas_threads(n))
        return {d.name.split("-")[0]: (d / "scalars.json").read_bytes()
                for d in out.iterdir()}

    def test_manybody_leaves_the_second_thread_asleep(self, tmp_path):
        work = self.cli_runs([["manybody"]], tmp_path)
        assert self.other_thread_cpu(work) <= 0.02

    def test_converge_leaves_the_second_thread_asleep(self, tmp_path):
        # its N = 6 point, a zero-momentum block of 6798 states, builds the
        # largest Krylov space of any command
        work = self.cli_runs([["converge"]], tmp_path)
        assert self.other_thread_cpu(work) <= 0.02

    def test_lattice_evolution_leaves_the_second_thread_asleep(self):
        assert self.other_thread_cpu(self.LATTICE_EVOLUTION) <= 0.02

    def test_disk_coeffs_and_evolve_leave_the_second_thread_asleep(
            self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(DISK_HELIX))
        commands = [[c, "--config", str(p)] for c in ("coeffs", "evolve")]
        work = self.cli_runs(commands, tmp_path / "out")
        assert self.other_thread_cpu(work) <= 0.02

    def test_scalars_do_not_depend_on_the_thread_count(self, tmp_path):
        # converge's N = 6 point is a block of 6798 states, below the BLAS
        # threading thresholds; the lattice evolution below runs above them
        assert cli.load_config(None)["converge"]["N_list"][-1] == 6
        commands = [["manybody"], ["converge"]]
        scalars = [self.scalars_at(n, commands, tmp_path / f"threads{n}")
                   for n in (1, 2)]
        assert sorted(scalars[0]) == ["converge", "manybody"]
        assert scalars[0] == scalars[1]

    def test_lattice_evolution_does_not_depend_on_the_thread_count(self):
        code = "\n".join(self.LATTICE_EVOLUTION)
        digests = [_python(code, **_blas_threads(n)) for n in (1, 2)]
        assert len(digests[0]) == 1 and digests[0] == digests[1]

    def assert_coeffs_and_evolve_thread_free(self, cfg, tmp_path):
        """coeffs and evolve on cfg write the same scalars.json at 1 and 2
        BLAS threads."""
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        commands = [[c, "--config", str(p)] for c in ("coeffs", "evolve")]
        scalars = [self.scalars_at(n, commands, tmp_path / f"threads{n}")
                   for n in (1, 2)]
        assert sorted(scalars[0]) == ["coeffs", "evolve"]
        assert scalars[0] == scalars[1]

    def test_disk_scalars_do_not_depend_on_the_thread_count(self, tmp_path):
        self.assert_coeffs_and_evolve_thread_free(DISK_HELIX, tmp_path)

    # a disk off the unit radius, as the benchmark runs it, and an ellipse
    # whose off-centre second axis leaves two parity classes, not four
    @pytest.mark.parametrize("section", [
        {"shape": "disk", "radius": 0.98},
        {"shape": "ellipse", "a": 1.5, "b": 1.0}], ids=["disk_r098", "ellipse"])
    def test_curved_scalars_do_not_depend_on_the_thread_count(self, tmp_path,
                                                              section):
        self.assert_coeffs_and_evolve_thread_free(
            {**DISK_HELIX, "cross_section": section}, tmp_path)


class TestRunSetup:
    def test_curved_evolve_builds_modes_once(self, tmp_path, monkeypatch):
        calls = []
        solve = cli.transverse.dirichlet_modes

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli.transverse, "dirichlet_modes", counting)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "geometry": {"curve": "helix", "radius": 1.0, "pitch": 1.0,
                         "twist_rate": 0.5, "n_nodes": 256},
            "cross_section": {"n": 31, "m": 1}}))
        pot, b = cli._nls_setup(cli.load_config(p))
        assert len(calls) == 1
        assert np.any(pot.v_geom != 0) and b > 0

    def test_bump_guide_centred_on_box(self, tmp_path):
        # the bump sits at arc length 8.01 of [0, 16.02]; on the box
        # [-8, 8) its well is at x = 0 and the potential is even
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"geometry": {"curve": "bump_line"},
                                 "cross_section": {"n": 31, "m": 1}}))
        cfg = cli.load_config(p)
        pot, _ = cli._nls_setup(cfg)
        v = pot.v_geom
        x = nls.Wave1D(cfg["solver"]["X"], np.zeros(len(v), complex)).x
        assert x[np.argmin(v)] == 0.0
        assert np.max(np.abs(v[1:] - v[1:][::-1])) < 1e-12

    def test_frames_end_at_T(self, tmp_path):
        # T = 1.2345 is no multiple of a round step: the 10 frames are
        # T / 10 apart and the last is at T
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"cross_section": {"n": 31, "m": 1},
                                 "solver": {"G_x": 4}}))
        cfg = cli.load_config(p)
        rows = cli._manybody_point(cfg, 2, 0.25, cli.build_modes(cfg),
                                   T=1.2345)
        assert len(rows) == 11
        assert rows[-1]["t"] == pytest.approx(1.2345, abs=1e-12)

    def test_one_lanczos_call_for_all_frames_and_no_hartree_run(
            self, outdir, tmp_path, monkeypatch):
        calls = []
        apply = cli.manybody.lanczos_expm_apply

        def counting(*args, **kwargs):
            calls.append("lanczos")
            return apply(*args, **kwargs)

        monkeypatch.setattr(cli.manybody, "lanczos_expm_apply", counting)
        # the stationary reference takes no RK4 step
        monkeypatch.setattr(cli.manybody, "_rk4",
                            lambda *a, **k: calls.append("rk4"))
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"cross_section": {"n": 31, "m": 2},
                                 "solver": {"G_x": 4}, "scaling": {"N": 2}}))
        assert cli.main(["manybody", "--config", str(p)]) == 0
        assert calls == ["lanczos"]


def _holed_square_modes(m):
    """Modes of a square with an off-centre hole: no reflection maps the
    cross-section onto itself."""
    y = np.linspace(0.0, np.pi, 33)[1:-1]
    mask = np.ones((31, 31), dtype=bool)
    mask[5:11, 8:14] = False
    return cli.transverse.dirichlet_modes(masked(y, y, mask), m=m)


class TestStationaryReference:
    def config(self, tmp_path, **solver):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"cross_section": {"n": 31},
                                 "solver": {"G_x": 4, **solver}}))
        return cli.load_config(p)

    def run(self, cfg, modes, monkeypatch, eps=0.25):
        """_manybody_point at N = 2 with the RK4 runs of its Hartree
        reference."""
        runs = []
        rk4 = cli.manybody._rk4

        def recording(*args, **kwargs):
            runs.append(rk4(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli.manybody, "_rk4", recording)
        cfg["cross_section"]["m"] = len(modes.energies)
        return cli._manybody_point(cfg, 2, eps, modes, T=1.0), runs

    @pytest.mark.parametrize("modes", [
        # the hole couples chi_1 to the ground mode (residual about 2e-4)
        lambda: _holed_square_modes(2),
        # (1, 3) and (3, 1) are even under every symmetry of the square
        # and couple to (1, 1) (residual about 6e-3 at n = 127)
        lambda: cli.transverse.dirichlet_modes(
            cli.transverse.rectangle(np.pi, np.pi, n=31), m=5),
    ], ids=["holed_square_m2", "square_m5"])
    def test_non_stationary_ground_state_integrates_hartree(
            self, tmp_path, monkeypatch, modes):
        rows, runs = self.run(self.config(tmp_path), modes(), monkeypatch)
        (hart,) = runs
        # every frame time is a Hartree step
        stride = (len(hart) - 1) // 10
        assert len(rows) == 11 and len(hart) == 10 * stride + 1
        assert max(abs(r["t"] - hart[k * stride][0])
                   for k, r in enumerate(rows)) < 1e-12
        # e_phi is the conserved Hartree energy, so alpha_xi - alpha_m is
        # |e_psi - e_phi|, the exact propagator's round-off, and no RK4 error
        assert len({r["e_phi"] for r in rows}) == 1
        assert max(r["alpha_xi"] - r["alpha_m"] for r in rows) <= 1e-14

    def test_one_transverse_mode_stationary(self, tmp_path, monkeypatch):
        # with one transverse mode translation invariance alone makes the
        # uniform phi0 stationary (residual about 1.6e-15)
        rows, runs = self.run(self.config(tmp_path), _holed_square_modes(1),
                              monkeypatch)
        assert runs == [] and len(rows) == 11
        assert all(r["e_phi"] == rows[0]["e_phi"] for r in rows)

    def test_small_eps_and_dx_stationary(self, tmp_path, monkeypatch):
        # (E_1 - E_0)/eps^2 and 4/dx^2 raise the norm of h_one to about 9e3,
        # and the round-off residual with it (about 1.5e-12): the bound
        # scales with that norm
        cfg = self.config(tmp_path, G_x=16, dx=0.05)
        rows, runs = self.run(cfg, cli.build_modes(cfg), monkeypatch,
                              eps=0.02)
        assert runs == [] and len(rows) == 11


def _lattice_rows(cfg, N, eps, modes, T):
    """``cli._manybody_point``'s observables on the lattice modes: the full
    basis from phi0 itself against the Hartree frames as they are; the
    oracle of the zero-momentum block."""
    mb = cli.manybody
    spb, offsets, K, h, phi0 = cli._lattice(cfg, N, eps, modes)
    basis = mb.build_basis(spb.d, N)
    H = mb.build_hamiltonian(basis, h, offsets, K)
    frames = mb.evolve_state(basis, H, mb.condensate_state(basis, phi0), T=T,
                             dt=T / 10, store_every=1)
    stride = -(-mb._steps(T, min(1e-3, T / 1000))[0] // 10)
    hart = mb.hartree_evolve(h, offsets, K, spb.G_x, spb.m, N, phi0, T=T,
                             dt=T / (stride * 10))
    rows = []
    for (t, psi), (_, phi) in zip(frames, hart[::stride]):
        obs = cli._measure(basis, H, spb, psi, phi)
        obs["alpha_n2"] = float(np.dot(
            cli.condensation.weight_n(N, 2.0).table, obs.pop("pk")))
        rows.append({"t": t, **obs})
    return rows


class TestMomentumBlock:
    """``_manybody_point`` runs in the zero-momentum block; the lattice-mode
    path is its oracle, to 1e-12 at every frame."""

    KEYS = ("t", "alpha_n2", "trace_dist", "excitation", "e_psi")

    def assert_matches_oracle(self, cfg, N, eps, modes, T=1.0):
        cfg["cross_section"]["m"] = len(modes.energies)
        got = cli._manybody_point(cfg, N, eps, modes, T=T)
        want = _lattice_rows(cfg, N, eps, modes, T)
        assert len(got) == len(want) == 11
        d = max(abs(g[k] - w[k]) for g, w in zip(got, want) for k in self.KEYS)
        assert d <= 1e-12

    @staticmethod
    def config(tmp_path, doc):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        return cli.load_config(p)

    def test_default_config(self):
        cfg = cli.load_config(None)
        sc = cfg["scaling"]
        self.assert_matches_oracle(cfg, sc["N"], sc["eps"],
                                   cli.build_modes(cfg))

    @pytest.mark.parametrize("N", [2, 3, 4, 6])
    def test_converge_points(self, N):
        cfg = cli.load_config(None)
        cv = cfg["converge"]
        assert cv["N_list"] == [2, 3, 4, 6]
        eps = cv["eps0"] * (N / cv["N_list"][0]) ** (-cv["alpha"])
        self.assert_matches_oracle(cfg, N, eps, cli.build_modes(cfg))

    @pytest.mark.parametrize("modes", [
        lambda: _holed_square_modes(2),
        lambda: cli.transverse.dirichlet_modes(
            cli.transverse.rectangle(np.pi, np.pi, n=31), m=5),
    ], ids=["holed_square_m2", "square_m5"])
    def test_non_stationary_references(self, tmp_path, modes):
        # TestStationaryReference's inputs: the Hartree reference is
        # integrated, and each of its frames is mapped into the block
        cfg = self.config(tmp_path, {"cross_section": {"n": 31},
                                     "solver": {"G_x": 4}})
        self.assert_matches_oracle(cfg, 2, 0.25, modes())

    def test_small_eps_and_dx(self, tmp_path):
        cfg = self.config(tmp_path, {"cross_section": {"n": 31},
                                     "solver": {"G_x": 16, "dx": 0.05}})
        self.assert_matches_oracle(cfg, 2, 0.02, cli.build_modes(cfg))

    def test_finite_range_kernel(self, tmp_path):
        # mu = 0.5 at N = 4, eps = 0.5: five offsets at dx = 0.2
        cfg = self.config(tmp_path, {"solver": {"dx": 0.2}})
        modes = cli.build_modes(cfg)
        assert len(cli._lattice(cfg, 4, 0.5, modes)[1]) == 5
        self.assert_matches_oracle(cfg, 4, 0.5, modes)

    def test_one_transverse_mode(self, tmp_path):
        cfg = self.config(tmp_path, {"cross_section": {"m": 1}})
        self.assert_matches_oracle(cfg, 4, 0.25, cli.build_modes(cfg))

    def test_reference_off_zero_momentum_refused(self, tmp_path,
                                                 monkeypatch):
        # a phi0 with weight on k = 1 would leave the block
        cfg = self.config(tmp_path, {"cross_section": {"n": 31},
                                     "solver": {"G_x": 4}})
        lattice = cli._lattice

        def tilted(*args):
            spb, offsets, K, h, phi0 = lattice(*args)
            g = np.repeat(np.arange(spb.G_x), spb.m)
            return spb, offsets, K, h, phi0 * (1 + 1e-3 * np.cos(
                2 * np.pi * g / spb.G_x))

        monkeypatch.setattr(cli, "_lattice", tilted)
        with pytest.raises(cli.manybody.ManyBodyError, match="k = 0"):
            cli._manybody_point(cfg, 2, 0.25, cli.build_modes(cfg), T=1.0)
