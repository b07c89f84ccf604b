import ast
import concurrent.futures
import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import polarbin as pb
from polarbin.cli import main
from polarbin.config import (
    MODEL_KEYS,
    PRESET_NAMES,
    load_config,
    load_preset,
    parse_time,
)
from polarbin.errors import ConfigError
from polarbin.runs import run_converge, run_dynamics, run_oracle, run_spectrum, run_sweep

from conftest import binned_fock, fig3_spec

MINIMAL = """
[model]
omega0 = 0.10
omega_c = 0.11
omega_nu = 0.01
kappa = 0.006
v12 = 0.0025
s1 = -1
s2 = -4
coupling = 0.03
sigma = 0.0

[run]
t_final = 60 au
n_vib = 6
n_bins = auto
"""


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = load_config(MINIMAL)
        assert cfg.spec.omega0 == 0.10
        assert cfg.n_bins is None
        assert cfg.n_vib == 6
        assert cfg.tolerance == 1e-9
        assert cfg.initial_state == "photonic"

    def test_parse_time_forms(self):
        assert parse_time("30 fs") == pytest.approx(1240.24, abs=0.01)
        assert parse_time("100 au") == 100.0
        assert parse_time("100") == 100.0
        with pytest.raises(ConfigError):
            parse_time("30 ps")
        with pytest.raises(ConfigError):
            parse_time("fast")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(MINIMAL + "\nomega_x = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(MINIMAL + "\n[laser]\npower = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required"):
            load_config("[model]\nomega0 = 0.1\n[run]\nt_final = 1 fs\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="not a number"):
            load_config(MINIMAL.replace("0.006", "six"))

    def test_malformed_ini(self):
        with pytest.raises(ConfigError, match="malformed config"):
            load_config("[model\nomega0 = 0.1\n")

    def test_resonant_cavity_default(self):
        text = MINIMAL.replace("omega_c = 0.11\n", "")
        cfg = load_config(text)
        assert cfg.spec.omega_c == pytest.approx(0.11)

    def test_auto_bins_zero_sigma(self):
        cfg = load_config(MINIMAL)
        assert cfg.resolve_point().n_bins == 1

    def test_auto_bins_rule(self):
        cfg = load_config(MINIMAL.replace("sigma = 0.0", "sigma = 0.02")
                          .replace("t_final = 60 au", "t_final = 30 fs"))
        assert cfg.resolve_point().n_bins == 24

    def test_overrides(self):
        cfg = load_config(MINIMAL, overrides=["model.sigma=0.02",
                                              "run.n_vib=4"])
        assert cfg.spec.sigma == 0.02
        assert cfg.n_vib == 4

    def test_bad_override_target(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(MINIMAL, overrides=["run.bogus=1"])
        with pytest.raises(ConfigError, match="section.key=value"):
            load_config(MINIMAL, overrides=["n_vib=4"])

    def test_sweep_points_sorted_product(self):
        cfg = load_config(
            MINIMAL + "\n[sweep]\nsigma = 0.02, 0.01\ncoupling = 0.03, 0\n"
        )
        points = cfg.sweep_points()
        assert points[0] == {"sigma": 0.01, "coupling": 0.0}
        assert len(points) == 4
        assert points == sorted(
            points, key=lambda p: (p["sigma"], p["coupling"])
        )

    def test_presets_all_load(self):
        for name in PRESET_NAMES:
            cfg = load_preset(name)
            assert cfg.t_final > 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("fig99")

    @pytest.mark.parametrize("overrides", [[], ["model.omega_c=resonant"]],
                             ids=["as_given", "resonant"])
    @pytest.mark.parametrize("name", ("minimal",) + PRESET_NAMES)
    def test_manifest_roundtrip_resolves_identically(self, name, overrides):
        if name == "minimal":
            cfg = load_config(MINIMAL + "\n[sweep]\nsigma = 0, 0.01\n", overrides)
        else:
            cfg = load_preset(name, overrides)
        text = cfg.manifest_text("x")
        again = load_config(text)
        assert again.manifest_text("x") == text
        assert cfg.sweep_points() == again.sweep_points()
        for point in cfg.sweep_points():
            assert cfg.resolve_point(point) == again.resolve_point(point)

    def test_model_keys_keep_their_order_and_defaults(self):
        # derived from ModelSpec's fields; the order is the manifest's
        assert list(MODEL_KEYS.items()) == [
            ("omega0", None), ("omega_nu", None), ("s1", None), ("s2", None),
            ("v12", None), ("omega_c", "resonant"), ("kappa", None),
            ("coupling", None), ("sigma", None), ("delta2", "0.0"),
        ]

    def test_resolved_point_is_a_run_config(self):
        cfg = load_config(MINIMAL.replace("t_final = 60 au", "t_final = 60.5 au")
                          + "\n[sweep]\nsigma = 0, 0.01\n")
        point = cfg.resolve_point({"sigma": 0.01})
        assert point == dataclasses.replace(
            cfg, spec=dataclasses.replace(cfg.spec, sigma=0.01), n_bins=1,
            dt_record=60.5 / 60, sweep={})


class TestRunCommands:
    def test_spectrum_files(self, tmp_path):
        cfg = load_config(MINIMAL)
        out = tmp_path / "spec"
        run_spectrum(cfg, str(out))
        assert (out / "manifest.cfg").exists()
        rows = read_csv(out / "spectrum.csv")
        assert rows[0] == ["omega_au", "absorption"]
        assert len(rows) > 100
        assert (out / "autocorr.csv").exists()
        assert (out / "norms.csv").exists()

    def test_spectrum_requires_photonic(self, tmp_path):
        cfg = load_config(MINIMAL + "initial_state = bright\n")
        with pytest.raises(ConfigError):
            run_spectrum(cfg, str(tmp_path / "x"))

    def test_spectrum_sweep_writes_index(self, tmp_path):
        cfg = load_config(MINIMAL + "\n[sweep]\nsigma = 0, 0.005\n")
        out = tmp_path / "sweep_spec"
        run_spectrum(cfg, str(out))
        index = read_csv(out / "index.csv")
        assert index[0] == ["sigma", "coupling", "kappa", "delta2", "directory"]
        assert len(index) == 3
        for row in index[1:]:
            assert (out / row[-1] / "spectrum.csv").exists()

    def test_dynamics_files_and_columns(self, tmp_path):
        cfg = load_config(
            MINIMAL.replace("sigma = 0.0", "sigma = 0.01")
            .replace("n_bins = auto", "n_bins = 2")
            + "vib_energy_times = 50 au\n"
        )
        out = tmp_path / "dyn"
        run_dynamics(cfg, str(out))
        rows = read_csv(out / "populations.csv")
        assert rows[0][:6] == ["t_au", "photon", "norm2", "gamma",
                               "p_e1_total", "p_e2_total"]
        assert "p_e1_bin01" in rows[0]
        assert len(rows) == 62  # header + 61 samples
        vib = read_csv(out / "vib_energy.csv")
        assert vib[0][-1] == "status"

    def test_vib_energy_population_is_the_recorded_one(self, tmp_path):
        cfg = load_config(
            MINIMAL.replace("sigma = 0.0", "sigma = 0.01")
            .replace("n_bins = auto", "n_bins = 8")
            + "vib_energy_times = 20 au, 50 au\n"
        )
        out = tmp_path / "dyn"
        run_dynamics(cfg, str(out))
        pops = read_csv(out / "populations.csv")
        at_time = {row[0]: row for row in pops[1:]}
        vib = read_csv(out / "vib_energy.csv")
        assert len(vib) == 1 + 2 * 8
        for t, i, _, p_e1, *_ in vib[1:]:
            assert p_e1 == at_time[t][pops[0].index(f"p_e1_bin{int(i):02d}")]

    def test_photonic_start_leaves_every_bin_without_energy(self, tmp_path):
        # at t = 0 the photonic state holds no reactant population anywhere
        cfg = load_config(
            MINIMAL.replace("sigma = 0.0", "sigma = 0.01")
            .replace("n_bins = auto", "n_bins = 3")
            + "vib_energy_times = 0 au\n"
        )
        out = tmp_path / "dyn"
        run_dynamics(cfg, str(out))
        vib = read_csv(out / "vib_energy.csv")
        header = vib[0]
        assert len(vib) == 1 + 3
        for row in vib[1:]:
            assert row[header.index("p_e1_bin")] == f"{0.0:.16e}"
            assert row[header.index("e_vib_au")] == ""
            assert row[header.index("status")] == "no_population"

    @pytest.mark.parametrize("run, keeps", [(run_spectrum, False), (run_sweep, False),
                                            (run_converge, False), (run_dynamics, True)])
    def test_only_dynamics_keeps_states(self, tmp_path, monkeypatch, run, keeps):
        # vibrational energies are written by dynamics alone: no other
        # command keeps a full state per vib_energy_times entry
        from polarbin import runs

        asked = []

        def recording_propagate(*args, state_times=(), **kwargs):
            asked.append(tuple(state_times))
            return pb.propagate(*args, state_times=state_times, **kwargs)

        monkeypatch.setattr(runs, "propagate", recording_propagate)
        text = MINIMAL.replace("sigma = 0.0", "sigma = 0.01") + "vib_energy_times = 20 au\n"
        if run is run_sweep:
            text += "\n[sweep]\nkappa = 0.006, 0.01\n"
        run(load_config(text), str(tmp_path / "out"))
        assert asked and all(times == ((20.0,) if keeps else ()) for times in asked)

    def test_sweep_single_point_matches_dynamics(self, tmp_path):
        text = MINIMAL + "\n[sweep]\nsigma = 0.0\n"
        cfg = load_config(text)
        path = run_sweep(cfg, str(tmp_path / "sw"))
        rows = read_csv(path)
        assert len(rows) == 2
        sweep_yield = float(rows[1][rows[0].index("p_e2_final")])

        run_dynamics(load_config(MINIMAL), str(tmp_path / "dy"))
        pops = read_csv(tmp_path / "dy" / "populations.csv")
        dyn_yield = float(pops[-1][pops[0].index("p_e2_total")])
        assert sweep_yield == pytest.approx(dyn_yield, abs=1e-12)

    def test_sweep_parallel_matches_serial(self, tmp_path):
        text = MINIMAL + "\n[sweep]\nsigma = 0, 0.01\ncoupling = 0, 0.03\n"
        cfg = load_config(text)
        p1 = run_sweep(cfg, str(tmp_path / "serial"), threads=1)
        p2 = run_sweep(cfg, str(tmp_path / "parallel"), threads=2)
        assert open(p1).read() == open(p2).read()

    def test_sweep_records_row_failures(self, tmp_path):
        # explicit n_bins=2 with a sigma=0 grid point cannot bin: that row
        # fails, the others proceed
        text = (
            MINIMAL.replace("n_bins = auto", "n_bins = 2")
            + "\n[sweep]\nsigma = 0, 0.01\n"
        )
        cfg = load_config(text)
        rows = read_csv(run_sweep(cfg, str(tmp_path / "pf")))
        statuses = [row[-1] for row in rows[1:]]
        assert statuses[0].startswith("error:")
        assert statuses[1] == "ok"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(MINIMAL)
        run_spectrum(cfg, str(tmp_path / "a"))
        run_spectrum(cfg, str(tmp_path / "b"))
        for name in ("spectrum.csv", "autocorr.csv", "norms.csv",
                     "manifest.cfg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_manifest_rerun_reproduces_run(self, tmp_path):
        cfg = load_config(MINIMAL)
        run_spectrum(cfg, str(tmp_path / "a"))
        manifest = (tmp_path / "a" / "manifest.cfg").read_text()
        run_spectrum(load_config(manifest), str(tmp_path / "b"))
        assert (tmp_path / "a" / "spectrum.csv").read_bytes() == \
            (tmp_path / "b" / "spectrum.csv").read_bytes()

    def test_converge_needs_disorder(self, tmp_path):
        with pytest.raises(ConfigError):
            run_converge(load_config(MINIMAL), str(tmp_path / "c"))

    def test_converge_refuses_a_sweep(self, tmp_path):
        text = MINIMAL.replace("sigma = 0.0", "sigma = 0.02") + "\n[sweep]\ncoupling = 0, 0.03\n"
        with pytest.raises(ConfigError, match="single-point config"):
            run_converge(load_config(text), str(tmp_path / "c"))
        assert not (tmp_path / "c").exists()

    def test_converge_outputs(self, tmp_path):
        text = MINIMAL.replace("sigma = 0.0", "sigma = 0.01").replace(
            "t_final = 60 au", "t_final = 400 au"
        )
        out = tmp_path / "conv"
        steps = run_converge(load_config(text), str(out))
        assert len(steps) >= 1
        rows = read_csv(out / "convergence.csv")
        assert rows[0][0] == "n_bins_coarse"
        assert (out / "converge_runs.csv").exists()

    def test_oracle_output(self, tmp_path):
        text = (
            MINIMAL.replace("sigma = 0.0", "sigma = 0.01")
            .replace("n_vib = 6", "n_vib = 3")
            .replace("n_bins = auto", "n_bins = 2")
        )
        out = tmp_path / "orc"
        run_oracle(load_config(text), str(out))
        rows = read_csv(out / "oracle.csv")
        assert [row[0] for row in rows[1:]] == ["1", "2", "4"]
        deviations = [float(row[7]) for row in rows[1:]]  # p_e1_total_max
        assert deviations == sorted(deviations, reverse=True)


class TestWriteCsv:
    """A table of floats takes the one-format-per-row path; every table
    reads as csv.writer writes its cells, floats by _fmt and the rest by str."""

    @staticmethod
    def by_cell(path, columns):
        from polarbin.runs import _fmt

        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_fmt(v) if isinstance(v, float) else str(v) for v in row]
                             for row in zip(*columns.values(), strict=True))

    @pytest.mark.parametrize("table", ["floats", "special floats", "mixed", "empty"])
    def test_same_bytes_as_cell_by_cell(self, tmp_path, table):
        from polarbin.runs import write_csv

        rng = np.random.default_rng(3)
        columns = {
            "floats": {f"c{i}": rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40)
                       for i in range(6)},
            "special floats": {"a": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]),
                               "b": [1.0, 1 / 3, -2.5, 1e300, 0.1, np.float64(7.0)]},
            "mixed": {"n": [1, 2, 4], "x": [0.1, 0.2, 0.3],
                      "status": ["ok", 'error: a, "b"', ""]},
            "empty": {"a": np.array([]), "b": []},
        }[table]
        write_csv(tmp_path / "fast.csv", columns)
        self.by_cell(tmp_path / "reference.csv", columns)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestCliEntry:
    @pytest.mark.parametrize("module", ["scipy.integrate", "scipy.linalg", "scipy.special",
                                        "scipy.sparse", "scipy",
                                        "concurrent.futures.process"])
    def test_import_leaves_module_unloaded(self, module):
        # the reference engines, the Krylov stepper and the process pool load
        # what they use on first use; every CLI start paid for them
        code = f"import sys, polarbin.cli; sys.exit({module!r} in sys.modules)"
        src = os.path.dirname(os.path.dirname(pb.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_explicit_assembly_leaves_scipy_sparse_unloaded(self):
        # the reference engines sort their CSR arrays with numpy
        code = ("import sys\n"
                "import polarbin as pb\n"
                "from conftest import fig3_spec\n"
                "from polarbin.oracle import ExplicitEnsemble, build_explicit_hamiltonian\n"
                "spec = fig3_spec(sigma=0.02)\n"
                "bins = pb.discretize_disorder(spec, 2)\n"
                "build_explicit_hamiltonian(spec, ExplicitEnsemble.from_bins(bins, 2, 3, 0.03))\n"
                "sys.exit('scipy.sparse' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(pb.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    @pytest.mark.parametrize("command", ["dynamics", "spectrum", "converge", "oracle", "sweep"])
    def test_production_run_loads_no_scipy(self, tmp_path, command):
        # MINIMAL takes Chebyshev steps of the numpy arrowhead, and the
        # oracle's explicit ensembles those of a numpy CSR operator; converge
        # and oracle need disorder, and converge computes four spectra. No
        # scipy module loads, and so scipy's bundled OpenBLAS is never mapped
        # (numpy's is libscipy_openblas64_)
        text = {"converge": MINIMAL.replace("sigma = 0.0", "sigma = 0.01"),
                "oracle": MINIMAL.replace("sigma = 0.0", "sigma = 0.01")
                .replace("n_vib = 6", "n_vib = 3").replace("n_bins = auto", "n_bins = 2"),
                "sweep": MINIMAL + "\n[sweep]\nkappa = 0.006, 0.01\n"}.get(command, MINIMAL)
        cfg, out = self._write(tmp_path, text), str(tmp_path / "out")
        code = ("import sys\n"
                "from polarbin.cli import main\n"
                f"assert main([{command!r}, '--config', {cfg!r}, '--out', {out!r},\n"
                "             '--threads', '1']) == 0\n"
                "with open('/proc/self/maps') as maps:\n"
                "    print('mapped:', 'libscipy_openblas-' in maps.read())\n"
                "print('loaded:', *(name for name in sys.modules\n"
                "                   if name == 'scipy' or name.startswith('scipy.')))\n")
        src = os.path.dirname(os.path.dirname(pb.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-2:] == ["mapped: False", "loaded:"]

    def test_chained_spectrum_loads_no_scipy(self, tmp_path):
        # a disordered point steps its photon chain: a Lanczos pass in numpy
        # and Chebyshev steps of a tridiagonal operator
        cfg = self._write(tmp_path, MINIMAL.replace("sigma = 0.0", "sigma = 0.02"))
        out = str(tmp_path / "out")
        code = ("import sys\n"
                "from polarbin import runs\n"
                "from polarbin.config import load_config_file\n"
                "build, chains = runs.photon_chain, []\n"
                "runs.photon_chain = lambda *args: chains.append(build(*args)) or chains[-1]\n"
                f"runs.run_spectrum(load_config_file({cfg!r}), {out!r})\n"
                "print('chained:', type(chains[0]).__name__)\n"
                "print('loaded:', *(name for name in sys.modules\n"
                "                   if name == 'scipy' or name.startswith('scipy.')))\n")
        src = os.path.dirname(os.path.dirname(pb.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-2:] == ["chained: PhotonChain", "loaded:"]

    @pytest.mark.parametrize("command", ["dynamics", "spectrum"])
    def test_production_run_builds_no_fock_matrix(self, tmp_path, monkeypatch, command):
        # the reference module's placement is the only Fock assembly; a
        # production run bounds and steps the arrowhead without it
        from polarbin import oracle

        def refuse(*args):
            raise AssertionError("Fock-basis triplets assembled")

        monkeypatch.setattr(oracle, "_triplets", refuse)
        spec = fig3_spec()
        with pytest.raises(AssertionError, match="triplets"):
            binned_fock(spec, pb.discretize_disorder(spec, 1), 2)
        cfg = self._write(tmp_path, MINIMAL)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def _write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["spectrum", "dynamics", "sweep", "converge", "oracle"])
    def test_subcommand_runs_clean_under_warnings_as_errors(self, tmp_path, capsys, command):
        text = MINIMAL.replace("sigma = 0.0", "sigma = 0.01")
        if command == "sweep":
            text += "\n[sweep]\nkappa = 0.006, 0.01\n"
        cfg = self._write(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL)
        code = main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "spectrum.csv").exists()

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL + "\nbogus = 1\n")
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_unwritable_out_exits_one(self, tmp_path, capsys, out):
        # an existing file where the output directory, or its parent, goes
        (tmp_path / "taken").write_text("")
        code = main(["dynamics", "--preset", "figS4", "--out", str(tmp_path / out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("polarbin: cannot write results: ") and err.count("\n") == 1

    def test_bad_flag_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--bogus"])
        assert exc.value.code == 1

    def test_numerical_failure_exit_two(self, tmp_path, monkeypatch, capsys):
        import polarbin.cli as cli_mod

        def boom(cfg, out, threads=1):
            raise pb.PropagationError("diverged")

        monkeypatch.setattr(cli_mod, "run_spectrum", boom)
        cfg = self._write(tmp_path, MINIMAL)
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_override_flag(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL)
        out = tmp_path / "ov"
        code = main([
            "dynamics", "--config", cfg, "--out", str(out),
            "--override", "model.sigma=0.01",
            "--override", "run.n_bins=2",
        ])
        assert code == 0
        rows = read_csv(out / "populations.csv")
        assert "p_e1_bin01" in rows[0]

    def test_preset_flag(self, tmp_path):
        # override to a tiny grid so the preset runs fast
        out = tmp_path / "pre"
        code = main([
            "dynamics", "--preset", "fig6", "--out", str(out),
            "--override", "run.n_vib=4",
            "--override", "run.t_final=40 au",
            "--override", "run.n_bins=2",
        ])
        assert code == 0
        assert (out / "populations.csv").exists()

    def test_sweep_ignores_an_unswept_base_value(self, tmp_path):
        # the base sigma = 200 would take 947,521 states, but every point sets sigma
        out = tmp_path / "fig3c"
        code = main(["sweep", "--preset", "fig3c", "--out", str(out),
                     "--override", "run.t_final=1 fs", "--override", "model.sigma=200",
                     "--override", "sweep.sigma=0, 0.02", "--override", "sweep.coupling=0.03"])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert [row[-1] for row in rows[1:]] == ["ok", "ok"]

    def test_converge_command(self, tmp_path):
        cfg = self._write(
            tmp_path,
            MINIMAL.replace("sigma = 0.0", "sigma = 0.01")
            .replace("t_final = 60 au", "t_final = 400 au"),
        )
        out = tmp_path / "cv"
        code = main(["converge", "--config", cfg, "--out", str(out),
                     "--threads", "2"])
        assert code == 0
        assert (out / "convergence.csv").exists()

    def test_converge_without_disorder_exits_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL)
        assert main(["converge", "--config", cfg,
                     "--out", str(tmp_path / "cv")]) == 1

    def test_oracle_command(self, tmp_path):
        cfg = self._write(
            tmp_path,
            MINIMAL.replace("sigma = 0.0", "sigma = 0.01")
            .replace("n_vib = 6", "n_vib = 3")
            .replace("n_bins = auto", "n_bins = 2"),
        )
        out = tmp_path / "orc"
        code = main(["oracle", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert (out / "oracle.csv").exists()

    @pytest.mark.parametrize("state", ["bright", "upper_polariton", "lower_polariton"])
    def test_oracle_refuses_non_photonic_start(self, tmp_path, capsys, state):
        # the oracle always propagates the photonic state; it used to run
        # anyway and record the requested state in manifest.cfg
        cfg = self._write(
            tmp_path,
            MINIMAL.replace("sigma = 0.0", "sigma = 0.01")
            .replace("n_vib = 6", "n_vib = 3")
            .replace("n_bins = auto", "n_bins = 2"),
        )
        out = tmp_path / "orc"
        code = main(["oracle", "--config", cfg, "--out", str(out),
                     "--override", f"run.initial_state={state}"])
        assert code == 1
        assert "initial_state = photonic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("state", ["bright", "upper_polariton", "lower_polariton"])
    def test_converge_refuses_non_photonic_start(self, tmp_path, capsys, state):
        # the bin-count ladder always propagates the photonic state; it used
        # to run anyway and record the requested state in manifest.cfg
        cfg = self._write(tmp_path, MINIMAL.replace("sigma = 0.0", "sigma = 0.01"))
        out = tmp_path / "cv"
        code = main(["converge", "--config", cfg, "--out", str(out),
                     "--override", f"run.initial_state={state}"])
        assert code == 1
        assert "initial_state = photonic" in capsys.readouterr().err
        assert not out.exists()

    def test_dynamics_sweep_points(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL + "\n[sweep]\ncoupling = 0, 0.03\n")
        out = tmp_path / "dsw"
        code = main(["dynamics", "--config", cfg, "--out", str(out)])
        assert code == 0
        for i in range(2):
            assert (out / f"point_{i:03d}" / "populations.csv").exists()


class TestYieldSheetFlattening:
    def test_yield_vs_disorder_flattens_beyond_coupling(self, tmp_path):
        # broadband yields at fixed strong coupling: the change per sigma
        # step collapses once 2 sigma exceeds the collective coupling
        text = """
[model]
omega0 = 0.10
omega_c = 0.11
omega_nu = 0.01
kappa = 0.006
v12 = 0.0025
s1 = -1
s2 = -4
coupling = 0.03
sigma = 0

[run]
t_final = 30 fs

[sweep]
sigma = 0.005, 0.01, 0.03, 0.04
"""
        path = run_sweep(load_config(text), str(tmp_path / "sheet"), threads=2)
        rows = read_csv(path)
        col = rows[0].index("p_e2_final")
        yields = {float(r[0]): float(r[col]) for r in rows[1:]}
        early = abs(yields[0.01] - yields[0.005])
        late = abs(yields[0.04] - yields[0.03])
        assert late < 0.1 * early


class TestFig3aPreset:
    def test_four_spectra_with_wider_disordered_splitting(self, tmp_path):
        # the full preset at production scale: every disordered spectrum
        # splits wider than the ordered one (at 2 sigma = 2 G the band tops
        # flatten and the two-maxima distance dips; see the notes ledger)
        out = tmp_path / "fig3a"
        code = main(["spectrum", "--preset", "fig3a", "--out", str(out)])
        assert code == 0
        index = read_csv(out / "index.csv")
        assert len(index) == 5  # header + 4 disorder values
        splittings = []
        for row in index[1:]:
            rows = read_csv(out / row[-1] / "spectrum.csv")
            omega = np.array([float(r[0]) for r in rows[1:]])
            values = np.array([float(r[1]) for r in rows[1:]])
            from polarbin.observables import Spectrum

            splittings.append(pb.rabi_splitting(Spectrum(omega, values)))
        assert all(s > splittings[0] for s in splittings[1:])
        assert splittings[0] < splittings[1] < splittings[2]


MODEL_FIELDS = ("omega0", "omega_nu", "s1", "s2", "v12", "omega_c", "kappa",
                "coupling", "sigma", "delta2")


class TestLoadTimeRejection:
    """Inputs that used to crash, run silently or coerce now exit 1 at load."""

    def _figs4(self, tmp_path, *overrides):
        out = tmp_path / "figS4"
        args = ["dynamics", "--preset", "figS4", "--out", str(out)]
        for item in overrides:
            args += ["--override", item]
        return main(args), out

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
    def test_dt_record_must_be_positive_and_finite(self, tmp_path, capsys, value):
        code, out = self._figs4(tmp_path, f"run.dt_record={value}")
        assert code == 1
        assert "dt_record must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        ("run.n_bins=100000",),
        ("model.sigma=1e5",),
        ("run.t_final=0 fs", "run.vib_energy_times="),
        ("run.t_final=1e9 fs", "run.n_bins=4"),
        ("run.dt_record=1e-7",),
    ], ids=["n_bins", "sigma", "t_final", "record grid", "record step"])
    def test_refused_at_resolution_leaves_no_output(self, tmp_path, overrides):
        # an empty manifest.cfg used to be left behind: the file was opened
        # before the configuration was resolved
        code, out = self._figs4(tmp_path, *overrides)
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        ("model.omega_nu=0", "omega_nu must be > 0"),
        ("model.omega0=-0.1", "omega0 and omega_c must be > 0"),
        ("model.omega_c=0", "omega0 and omega_c must be > 0"),
        ("model.v12=-0.001", "v12 must be >= 0"),
        ("run.n_vib=x", "[run] n_vib = 'x' is not an integer"),
        ("laser.power=1", "override targets unknown section [laser]"),
        ("run.t_final=1 fs later", "cannot parse time '1 fs later'"),
    ])
    def test_out_of_range_or_malformed_value(self, tmp_path, capsys, override, message):
        code, out = self._figs4(tmp_path, override)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_stride_is_an_unknown_key(self, tmp_path, capsys):
        # manifests written while full states were stored carry this key
        code, out = self._figs4(tmp_path, "run.snapshot_stride=1")
        assert code == 1
        assert "unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1", "1e-20", "nan"])
    def test_tolerance_out_of_range(self, tmp_path, capsys, value):
        code, out = self._figs4(tmp_path, f"run.tolerance={value}")
        assert code == 1
        assert "tolerance must lie in" in capsys.readouterr().err
        assert not out.exists()

    def test_tolerance_out_of_range_refused_by_sweep(self, tmp_path, capsys):
        # it used to exit 0 with every sweep row reading the error
        out = tmp_path / "fig3c"
        code = main(["sweep", "--preset", "fig3c", "--out", str(out),
                     "--override", "run.tolerance=1"])
        assert code == 1
        assert "tolerance must lie in" in capsys.readouterr().err
        assert not out.exists()

    def test_vib_energy_time_after_t_final(self, tmp_path, capsys):
        code, out = self._figs4(tmp_path, "run.vib_energy_times=2 fs, 6 fs")
        assert code == 1
        assert "must not exceed t_final" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", MODEL_FIELDS)
    def test_non_finite_model_value(self, tmp_path, capsys, key, value):
        code, out = self._figs4(tmp_path, f"model.{key}={value}")
        assert code == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_kappa_exits_before_propagation(self, tmp_path, monkeypatch):
        import polarbin.runs as runs_mod

        def never(*args, **kwargs):
            raise AssertionError("propagation started")

        monkeypatch.setattr(runs_mod, "propagate", never)
        code, _ = self._figs4(tmp_path, "model.kappa=inf")
        assert code == 1

    def test_converge_ladder_refused_before_output(self, tmp_path, capsys, monkeypatch):
        # the rule's 4 bins (dimension 81) fit the cap; the finest rung's 8 (161) do not
        import polarbin.config as config_mod
        import polarbin.runs as runs_mod

        def never(*args, **kwargs):
            raise AssertionError("propagation started")

        monkeypatch.setattr(config_mod, "DEFAULT_DIMENSION_CAP", 100)
        monkeypatch.setattr(runs_mod, "propagate", never)
        out = tmp_path / "conv"
        code = main(["converge", "--preset", "figS1", "--out", str(out),
                     "--override", "run.t_final=5 fs", "--override", "run.n_vib=10"])
        assert code == 1
        assert "dimension 161 exceeds cap 100" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "dynamics"])
    def test_sweep_point_refused_before_output(self, tmp_path, capsys, monkeypatch, command):
        # sigma = 0 fits; sigma = 200 needs 947,521 dimensions at 1 fs. Every
        # point is resolved before manifest.cfg, index.csv or point_000 is written
        import polarbin.runs as runs_mod

        def never(*args, **kwargs):
            raise AssertionError("propagation started")

        monkeypatch.setattr(runs_mod, "propagate", never)
        out = tmp_path / "sw"
        code = main([command, "--preset", "fig3a", "--out", str(out),
                     "--override", "run.t_final=1 fs", "--override", "sweep.sigma=0, 200"])
        assert code == 1
        assert "dimension 947521 exceeds cap 500000" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_keeps_a_refused_point_as_a_row(self, tmp_path):
        out = tmp_path / "sw"
        code = main(["sweep", "--preset", "fig3a", "--out", str(out),
                     "--override", "run.t_final=1 fs", "--override", "sweep.sigma=0, 200"])
        assert code == 0
        statuses = [row[-1] for row in read_csv(out / "sweep.csv")[1:]]
        assert statuses[0] == "ok"
        assert statuses[1] == ("error: DimensionCapError: "
                               "dimension 947521 exceeds cap 500000")

    def test_collapsed_bin_edges(self, tmp_path, capsys):
        code, _ = self._figs4(tmp_path, "model.sigma=1e-300", "run.n_bins=3")
        assert code == 1
        assert "cannot be split into 3 distinct bins" in capsys.readouterr().err


class TestSweepRowCause:
    def test_row_keeps_error_message(self, tmp_path):
        text = (
            MINIMAL.replace("n_bins = auto", "n_bins = 2")
            + "\n[sweep]\nsigma = 0, 0.01\n"
        )
        rows = read_csv(run_sweep(load_config(text), str(tmp_path / "pf")))
        assert rows[1][-1] == (
            "error: DegenerateDistributionError: "
            "sigma = 0 admits a single bin only; use n_bins = 1"
        )
        assert rows[2][-1] == "ok"

    def test_message_with_comma_stays_one_cell(self, tmp_path, monkeypatch):
        import polarbin.runs as runs_mod

        def refuse(*args, **kwargs):
            raise pb.PropagationError("diverged, twice")

        monkeypatch.setattr(runs_mod, "propagate", refuse)
        path = run_sweep(load_config(MINIMAL + "\n[sweep]\nsigma = 0\n"),
                         str(tmp_path / "cm"))
        rows = read_csv(path)
        assert len(rows[1]) == len(rows[0])
        assert rows[1][-1] == "error: PropagationError: diverged, twice"

    def test_programming_error_is_not_recorded(self, tmp_path, monkeypatch):
        import polarbin.runs as runs_mod

        def broken(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(runs_mod, "propagate", broken)
        with pytest.raises(KeyError):
            run_sweep(load_config(MINIMAL + "\n[sweep]\nsigma = 0\n"),
                      str(tmp_path / "pe"))


class TestExtremeValues:
    """Finite but extreme inputs end with exit 1 or 2, never a traceback."""

    def _figs4(self, tmp_path, command, *overrides):
        args = [command, "--preset", "figS4", "--out", str(tmp_path / "x")]
        for item in overrides:
            args += ["--override", item]
        return main(args)

    def test_n_vib_below_two_rejected_at_load(self, tmp_path, capsys):
        # the explicit-ensemble builder used to crash inside scipy
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL.replace("n_vib = 6", "n_vib = -3")
                       .replace("sigma = 0.0", "sigma = 0.01"))
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "n_vib must be >= 2" in capsys.readouterr().err

    def test_time_overflowing_in_conversion(self, tmp_path, capsys):
        assert self._figs4(tmp_path, "dynamics", "run.t_final=1e308 fs") == 1
        assert "time must be finite" in capsys.readouterr().err

    def test_absorption_window_too_wide(self, tmp_path, monkeypatch, capsys):
        import polarbin.runs as runs_mod

        def never(*args, **kwargs):
            raise AssertionError("propagation started")

        monkeypatch.setattr(runs_mod, "propagate", never)
        assert self._figs4(tmp_path, "spectrum", "model.coupling=1e300") == 1
        assert "frequency points" in capsys.readouterr().err

    def test_overflowing_hamiltonian_is_a_numerical_failure(self, tmp_path, capsys):
        # used to pass the invariant-subspace test on an infinite norm and
        # write finite but meaningless populations with exit 0
        assert self._figs4(tmp_path, "dynamics", "model.sigma=1e300",
                           "run.n_bins=2") == 2
        assert "overflowed" in capsys.readouterr().err

    def test_krylov_overflow_prints_only_the_message(self, tmp_path):
        # numpy's overflow warnings used to come before the message
        src = os.path.dirname(os.path.dirname(pb.__file__))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "polarbin.cli", "dynamics",
             "--preset", "figS4", "--override", "model.sigma=1e300",
             "--override", "run.n_bins=2", "--out", str(tmp_path / "x")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == ("polarbin: numerical failure: Krylov vector overflowed: "
                                 "|H|*dt is too large to represent\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, overrides", [
        ("dynamics", ()),
        ("oracle", ("model.sigma=0.01", "run.n_bins=2", "run.n_vib=4")),
    ], ids=["dynamics", "oracle"])
    def test_overflowing_assembly_prints_only_the_message(self, tmp_path, capsys,
                                                          command, overrides):
        # omega_nu * n(s) overflows while the blocks are built; numpy's
        # warnings used to come before the message, or a traceback under -W error
        assert self._figs4(tmp_path, command, "model.omega_nu=1.7e308", *overrides) == 2
        assert capsys.readouterr().err == ("polarbin: numerical failure: "
                                           "the Hamiltonian has entries that are not finite\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_enclosure_prints_only_the_message(self, tmp_path, capsys):
        # finite entries whose Hermitian part overflows: the step plan used to
        # warn before it handed the run to the Krylov stepper
        assert self._figs4(tmp_path, "dynamics", "model.v12=1.7e308", "run.n_bins=2",
                           "run.n_vib=4", "run.t_final=6 fs", "run.vib_energy_times=") == 2
        assert capsys.readouterr().err == ("polarbin: numerical failure: Krylov vector "
                                           "overflowed: |H|*dt is too large to represent\n")

    @pytest.mark.filterwarnings("error")
    def test_fully_leaked_dynamics_is_a_numerical_failure(self, tmp_path, capsys):
        # the leakage-normalized totals used to be written as nan, with exit 0
        assert self._figs4(tmp_path, "dynamics", "model.kappa=1.7e308", "model.sigma=0.01",
                           "run.n_bins=2", "run.n_vib=4", "run.t_final=6 fs",
                           "run.vib_energy_times=") == 2
        err = capsys.readouterr().err
        assert err.startswith("polarbin: numerical failure: the state leaked completely by t = ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x" / "populations.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_absorption_window_names_its_parameter(self, tmp_path, capsys):
        # used to blame the grid size for a window of [-inf, inf]
        assert self._figs4(tmp_path, "spectrum", "model.coupling=1.7e308", "model.sigma=0.01",
                           "run.n_bins=2", "run.n_vib=4") == 1
        err = capsys.readouterr().err
        assert "absorption window" in err
        assert "overflows at coupling = 1.7e+308\n" in err
        assert "frequency points" not in err

    def test_overflowing_absorption_is_a_numerical_failure(self, tmp_path, capsys):
        assert self._figs4(tmp_path, "spectrum", "model.kappa=1e308",
                           "run.n_bins=1", "run.n_vib=4") == 2
        assert "absorption overflows" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_growing_norm_is_a_numerical_failure(self, tmp_path, capsys):
        # expm overflows inside the step, yet its amplitudes stay finite and
        # square to inf: the run used to exit 0 with norm2 = nan. The norm is
        # checked before the populations square the amplitudes, so numpy
        # warns of no overflow either
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL.replace("s1 = -1", "s1 = 4.36e10")
                       .replace("kappa = 0.006", "kappa = 0")
                       .replace("t_final = 60 au", "t_final = 0.5 au\ndt_record = 0.5")
                       .replace("n_vib = 6", "n_vib = 2")
                       .replace("n_bins = auto", "n_bins = 1\ninitial_state = bright"))
        out = tmp_path / "big"
        assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "at step 1 (t = 0.5) exceeds its initial 1" in err
        assert "is not finite" in err and "RuntimeWarning" not in err
        assert not (out / "populations.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_one(self, tmp_path, capsys, threads):
        out = tmp_path / "sw"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig3c", "--threads", threads, "--out", str(out)])
        assert exc.value.code == 1
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_never_larger_than_the_grid(self, tmp_path, monkeypatch):
        # the pool forks all its workers at once: 64 for 2 points is waste
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        text = (MINIMAL.replace("t_final = 60 au", "t_final = 4 au")
                + "\n[sweep]\nkappa = 0.006, 0.01\n")
        rows = read_csv(run_sweep(load_config(text), str(tmp_path / "sw"), threads=64))
        assert pools == [2]
        assert [row[-1] for row in rows[1:]] == ["ok", "ok"]

    @pytest.mark.parametrize("command", ["spectrum", "dynamics"])
    def test_grid_commands_use_the_pool(self, tmp_path, monkeypatch, command):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL.replace("t_final = 60 au", "t_final = 4 au")
                       + "\n[sweep]\nkappa = 0.006, 0.01\n")
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--threads", "64", "--out", str(out)]) == 0
        assert pools == [2]
        assert (out / "point_001").is_dir()

    def test_two_workers_write_what_one_writes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL.replace("t_final = 60 au", "t_final = 4 au")
                       + "\n[sweep]\nkappa = 0.006, 0.01\n")
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert main(["spectrum", "--config", str(cfg), "--threads", threads,
                         "--out", str(out)]) == 0
            trees.append({
                path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()
            })
        assert len(trees[0]) == 2 + 2 * 3  # manifest, index, three CSVs per point
        assert trees[0] == trees[1]

    def test_fully_leaked_sweep_row(self, tmp_path):
        text = MINIMAL + "\n[sweep]\nkappa = 1e308\n"
        rows = read_csv(run_sweep(load_config(text), str(tmp_path / "lk")))
        assert rows[1][-1].startswith("error: ZeroPopulationError:")

    def test_rule_bin_count_beyond_cap_refused_before_binning(self, tmp_path, capsys):
        assert self._figs4(tmp_path, "dynamics", "model.sigma=1e300") == 1
        assert "exceeds cap" in capsys.readouterr().err
        assert self._figs4(tmp_path, "dynamics", "model.sigma=1e308") == 1
        assert "overflows the bin count" in capsys.readouterr().err

    def test_converge_without_reactant_population(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL.replace("sigma = 0.0", "sigma = 0.01")
                       .replace("coupling = 0.03", "coupling = 0.0")
                       .replace("t_final = 60 au", "t_final = 400 au"))
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "cv")]) == 2
        assert "ratio is undefined" in capsys.readouterr().err

    def test_bad_sweep_value_rejected_before_any_point_runs(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "\n[sweep]\nkappa = 0.006, inf\n")
        out = tmp_path / "sw"
        assert main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 1
        assert "kappa must be finite" in capsys.readouterr().err
        assert not out.exists()


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_spans():
    """COMMON_SPANS and COMMAND_SPANS as the benchmark harness defines them."""
    with open(os.path.join(REPO, "perfbench", "run.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    values = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("COMMON_SPANS", "COMMAND_SPANS")
    }
    return values["COMMON_SPANS"], values["COMMAND_SPANS"]


class TestBenchmarkTrace:
    """The benchmark's traced run still sees every layer it times."""

    @pytest.mark.parametrize("command, extra", [
        ("dynamics", "vib_energy_times = 50 au\n"),
        ("sweep", "\n[sweep]\nkappa = 0.006, 0.01\n"),
        ("spectrum", ""),
        ("spectrum", "\n[sweep]\nsigma = 0.02\n"),
        ("oracle", ""),
    ], ids=["dynamics", "sweep", "spectrum", "spectrum-chain", "oracle"])
    def test_every_expected_span_fires(self, tmp_path, command, extra):
        common, per_command = _benchmark_spans()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + extra)
        spans_path = tmp_path / "spans.json"
        src = os.path.dirname(os.path.dirname(pb.__file__))
        result = subprocess.run(
            [sys.executable, os.path.join(REPO, "perfbench", "child.py"), "trace",
             str(spans_path), command, "--config", str(cfg), "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        with open(spans_path, encoding="utf-8") as handle:
            fired = {span["name"] for span in json.load(handle)}
        assert set(common + per_command[command]) - fired == set()
