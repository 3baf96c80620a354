import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relqinfo
from relqinfo import cli, selfcheck

RUN = [sys.executable, "-m", "relqinfo.cli"]
# the directory holding the package under test, absolute, so the child
# process imports the same code from any working directory
SRC = str(Path(relqinfo.__file__).resolve().parent.parent)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def invoke(args, tmp_path, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          cwd=tmp_path, env=child_env(), **kw)


@pytest.mark.parametrize("name", ["relqinfo"] + sorted(
    f"relqinfo.{m.name}" for m in pkgutil.iter_modules(relqinfo.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def scipy_modules_after(statement, tmp_path):
    """The scipy modules a fresh interpreter holds after importing
    relqinfo.cli and running statement."""
    code = (f"import sys, relqinfo.cli; {statement}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=tmp_path, env=child_env())
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after("pass", tmp_path) == "[]"


def test_selfcheck_loads_no_scipy(tmp_path):
    statement = "assert relqinfo.cli.main(['--selfcheck', '--out', 'sc.json']) == 0"
    assert scipy_modules_after(statement, tmp_path) == "[]"
    assert json.loads((tmp_path / "sc.json").read_text())["all_passed"]


@pytest.fixture
def main_in(tmp_path, capsys, monkeypatch):
    """cli.main run in this process from tmp_path: (exit code, stdout)."""
    monkeypatch.chdir(tmp_path)

    def call(args):
        code = cli.main(args)
        return code, capsys.readouterr().out
    return call


class TestExitCodes:
    # one fresh interpreter per exit code covers the `python -m` path; the
    # other rows run cli.main in this process
    def test_unknown_scenario_is_usage_error(self, tmp_path):
        out = invoke(["--scenario", "no-such-thing"], tmp_path)
        assert out.returncode == 2

    def test_missing_scenario_is_usage_error(self, main_in):
        assert main_in([])[0] == 2

    @pytest.mark.parametrize("flags", [
        ["--scenario", "chsh", "--tol.doppler_ratio", "abc"],
        ["--scenario", "chsh", "--grid.photon_theta=abc"],
        ["--selfcheck", "--tol.bogus", "1"], ["--selfcheck", "--grid.bogus", "1"],
        ["--scenario", "unruh", "--tol.bogus", "1"],
        ["--scenario", "unruh", "--grid.nonsense", "3"],
        ["--selfcheck", "--grid.povm_packets", "inf"],
        ["--selfcheck", "--grid.povm_packets", "0"],
        ["--scenario", "bipartite-concurrence", "--grid.bipartite_points", "5.9"],
        ["--scenario", "bipartite-concurrence", "--grid.bipartite_points=nan"],
        ["--selfcheck", "--tol.locc_tv", "nan"],
        ["--scenario", "chsh", "--tol.doppler_ratio=inf"],
        ["--scenario", "unruh", "--tol.doppler_ratio", "0.5"],
        ["--scenario", "unruh", "--grid.photon_theta", "4"]])
    def test_bad_dotted_flag_is_usage_error(self, main_in, flags):
        code, out = main_in(flags)
        assert code == 2
        diag = json.loads(out)
        assert diag["error"] == "usage"
        [flag] = [f for f in flags if f.startswith(("--tol.", "--grid."))]
        assert flag.split(".", 1)[1].split("=")[0] in diag["detail"]

    def test_corrupted_constants_are_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("constants.c = 0\n")
        out = invoke(["--scenario", "unruh", "--config", str(cfg),
                      "--out", str(tmp_path / "u.csv")], tmp_path)
        assert out.returncode == 3
        diag = json.loads(out.stdout.strip().splitlines()[-1])
        assert diag["error"] == "validation" and diag["config"] == {"constants.c": 0.0}
        assert not (tmp_path / "u.csv").exists()

    def test_malformed_config_line(self, tmp_path, main_in):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        code, out = main_in(["--scenario", "unruh", "--config", str(cfg),
                             "--out", str(tmp_path / "u.csv")])
        assert code == 3 and json.loads(out)["error"] == "validation"
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("scenario, line", [
        ("photon-doppler", "velocities = 0.2, nan"),
        ("unruh", "accelerations = inf"),
        ("unruh", "accelerations = -inf, 9.8"),
        ("photon-doppler", "aperture = abc"),
        ("photon-doppler", "velocities = 0.2, abc"),
        pytest.param("photon-doppler", "aperture = 1" + "0" * 400,
                     id="photon-doppler-int-too-large-for-float"),
        ("blackhole-evaporate", "samples = 2.5"),
        ("blackhole-evaporate", "samples = -3"),
        ("causality-bell", "haar_probes = -1"),
        ("causality-bell", "haar_probes = 0"),
        ("teleport-check", "draws = 0"),
        ("pe-gamma-scaling", "gammas = ,"),
        ("blackhole-evaporate", "samples = 0"),
        ("photon-doppler", "velocities = ,"),
        ("photon-povm", "polarization = circular"),
        ("unruh", "units = geometrc"),
        ("fig2-entropy", "delta_over_M = 5"),
        (None, "units = si")])
    def test_non_finite_config_value(self, tmp_path, main_in, scenario, line):
        """A bad value or an undeclared key; scenario None is --selfcheck."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        mode = ["--selfcheck"] if scenario is None else ["--scenario", scenario]
        code, out = main_in(mode + ["--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 3
        diag = json.loads(out)
        assert diag["error"] == "validation" and "config" not in diag
        assert repr(line.split(" =")[0]) in diag["detail"]
        assert not (tmp_path / "o.csv").exists()

    def test_value_a_callee_rejects_names_the_config(self, tmp_path, main_in):
        # the state check cannot name werner_p, so the error carries the config
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("werner_p = 2\n")
        code, out = main_in(["--scenario", "chsh", "--config", str(cfg),
                             "--out", str(tmp_path / "o.csv")])
        assert code == 3
        diag = json.loads(out)
        assert diag["error"] == "validation" and "negative eigenvalues" in diag["detail"]
        assert diag["config"] == {"werner_p": 2.0}
        assert not (tmp_path / "o.csv").exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            out = invoke(["--scenario", "pe-gamma-scaling", "--seed", "11",
                          "--out", str(tmp_path / name)], tmp_path)
            assert out.returncode == 0, out.stderr
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_recorded_in_metadata(self, tmp_path, main_in):
        assert main_in(["--scenario", "cluster-bound", "--seed", "99",
                       "--format", "json", "--out", str(tmp_path / "c.json")])[0] == 0
        obj = json.loads((tmp_path / "c.json").read_text())
        assert obj["meta"]["seed"] == 99
        assert obj["meta"]["version"]


class TestScenarioOutputs:
    def test_fig2_entropy_zero_gamma_row(self, tmp_path, main_in):
        assert main_in(["--scenario", "fig2-entropy", "--out",
                       str(tmp_path / "f.csv"), "--grid.entropy_points", "9"])[0] == 0
        rows = [ln for ln in (tmp_path / "f.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        header = rows[0].split(",")
        assert header == ["theta_rad", "gamma", "entropy_nats"]
        for ln in rows[1:]:
            theta, gamma, s = (float(x) for x in ln.split(","))
            if gamma == 0.0:
                assert abs(s) < 1e-12

    def test_causality_bell_advantage(self, tmp_path, main_in):
        assert main_in(["--scenario", "causality-bell", "--format", "json",
                       "--out", str(tmp_path / "c.json")])[0] == 0
        data = json.loads((tmp_path / "c.json").read_text())["data"]
        # the default seed's witness and verdicts, as a per-pair scan finds them
        assert data["incomplete_bell"]["witness_pre_op"] == "pauli_x"
        assert data["incomplete_bell"]["witness_state"] == "probe_0"
        assert data["complete_bell_semicausal"] == {"B->A": True, "A->B": True}
        assert abs(data["advantage"] - 0.75) <= 1e-15
        # the configured tolerance decides the verdict: 0.75 < 0.5 + 0.3
        (tmp_path / "t.cfg").write_text("tolerance = 0.3\n")
        assert main_in(["--scenario", "causality-bell", "--format", "json", "--config",
                        str(tmp_path / "t.cfg"), "--out", str(tmp_path / "t.json")])[0] == 0
        bell = json.loads((tmp_path / "t.json").read_text())["data"]["incomplete_bell"]
        assert (bell["semicausal"], bell["witness_pre_op"], bell["tolerance"]) == (True, None, 0.3)

    def test_blackhole_evaporate_half_mass(self, tmp_path, main_in):
        cfg = tmp_path / "bh.cfg"
        cfg.write_text("M0_kg = 2.0e9\nsamples = 17\n")
        assert main_in(["--scenario", "blackhole-evaporate", "--format", "json",
                       "--config", str(cfg), "--out", str(tmp_path / "bh.json")])[0] == 0
        obj = json.loads((tmp_path / "bh.json").read_text())
        data = obj["data"]
        assert data["M0_kg"] == 2.0e9
        # closed form at 7 t_E / 8 gives half the mass
        from relqinfo import horizon
        m = horizon.evaporate(data["M0_kg"], 7 * data["t_E_s"] / 8).mass
        assert abs(m - data["M0_kg"] / 2) < 1e-9 * data["M0_kg"]
        assert len(data["samples"]) == 17

    def test_photon_doppler_table(self, tmp_path, main_in):
        assert main_in(["--scenario", "photon-doppler", "--out",
                       str(tmp_path / "d.csv")])[0] == 0
        lines = [ln for ln in (tmp_path / "d.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "aperture,v,P_E,P_E_prime,ratio"
        by_v = {}
        for ln in lines[1:]:
            _, v, pe, pep, ratio = (float(x) for x in ln.split(","))
            by_v[v] = ratio
        assert abs(by_v[0.5] - 3.0) < 0.06

    def test_rindler_table_columns(self, tmp_path, main_in):
        assert main_in(["--scenario", "rindler", "--out",
                       str(tmp_path / "r.csv")])[0] == 0
        lines = [ln for ln in (tmp_path / "r.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "omega_over_a,mean_n,entropy"

    def test_chsh_scenario(self, tmp_path, main_in):
        assert main_in(["--scenario", "chsh", "--format", "json", "--out",
                       str(tmp_path / "z.json")])[0] == 0
        obj = json.loads((tmp_path / "z.json").read_text())
        rows = {r[0]: r[1] for r in obj["rows"]}
        assert abs(rows["singlet"] - np.sqrt(2)) < 1e-9
        assert rows["product_00"] <= 1.0 + 1e-9

    def test_help_lists_config_keys_and_grid_flags(self, capsys):
        # every scenario's output is checked in test_acceptance's golden test
        assert cli.main(["--help"]) == 0
        assert {"delta_over_m", "--grid.entropy_points"} <= set(capsys.readouterr().out.split())


class TestConfigParsing:
    def test_overrides_and_lists(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("# comment only\nvelocities = 0.25, 0.5\naperture = 0.06\n")
        parsed = cli.load_config(str(cfg))
        assert parsed["velocities"] == [0.25, 0.5]
        assert parsed["aperture"] == 0.06

    def test_dotted_flag_extraction(self):
        tols, grids, rest = cli._extract_dotted(
            ["--tol.doppler_ratio=0.05", "--grid.photon_theta", "16",
             "--scenario", "chsh"])
        assert tols == {"doppler_ratio": 0.05}
        assert grids == {"photon_theta": 16} and type(grids["photon_theta"]) is int
        assert rest == ["--scenario", "chsh"]


class TestSelfcheckFlag:
    def test_tightened_tolerances_name_their_sub_checks(self, tmp_path, capsys, monkeypatch):
        # one tolerance tightened in each of criteria 05, 09 and 15: each fails
        # tolerance-class, and its line and report entry name that sub-check
        # with its bound and margin; the shrunk grids keep this fast and must
        # reach every criterion without causing a failure of their own
        tightened = {"chsh_product": 1e-20, "inverse_restore": 1e-30, "first_law": 1e-12}
        shrunk = {"povm_packets": 20, "chsh_draws": 200, "teleport_draws": 5,
                  "locc_draws": 5, "momentum_draws": 20}
        seen, run_criterion = [], selfcheck.run_criterion

        def spy(crit, tols, grids):
            seen.append(grids)
            return run_criterion(crit, tols, grids)

        monkeypatch.setattr(selfcheck, "run_criterion", spy)
        out = tmp_path / "sc.json"
        flags = [arg for name, value in tightened.items() for arg in (f"--tol.{name}", str(value))]
        flags += [arg for name, n in shrunk.items() for arg in (f"--grid.{name}", str(n))]
        assert cli.main(["--selfcheck", *flags, "--out", str(out)]) == 4
        assert len(seen) == len(selfcheck.CRITERIA)
        assert all(grids == {**selfcheck.DEFAULT_GRIDS, **shrunk} for grids in seen)
        lines = dict(ln.split(": ", 1) for ln in capsys.readouterr().out.splitlines())
        failed = [c for c in json.loads(out.read_text())["criteria"] if not c["passed"]]
        assert [c["name"][:2] for c in failed] == ["05", "09", "15"]
        for crit, name in zip(failed, tightened):
            [check] = [c for c in crit["checks"] if not c["holds"]]
            assert (check["bound_name"], check["bound"]) == (name, tightened[name])
            assert check["margin"] < 0 and crit["failure_class"] == "tolerance"
            assert lines.pop(crit["name"]) == (
                f"FAIL[tolerance] {check['key']} {check['relation']} {name} = "
                f"{tightened[name]} (margin {check['margin']:.3g})")
        assert set(lines.values()) == {"PASS"}
