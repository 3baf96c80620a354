import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relqinfo
from relqinfo import cli

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


def test_cli_import_loads_no_scipy(tmp_path):
    code = ("import sys, relqinfo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=tmp_path, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestExitCodes:
    def test_unknown_scenario_is_usage_error(self, tmp_path):
        out = invoke(["--scenario", "no-such-thing"], tmp_path)
        assert out.returncode == 2

    def test_missing_scenario_is_usage_error(self, tmp_path):
        out = invoke([], tmp_path)
        assert out.returncode == 2

    @pytest.mark.parametrize("flags", [
        ["--scenario", "chsh", "--tol.doppler_ratio", "abc"],
        ["--scenario", "chsh", "--grid.photon_theta=abc"],
        ["--selfcheck", "--tol.bogus", "1"], ["--selfcheck", "--grid.bogus", "1"]])
    def test_bad_dotted_flag_is_usage_error(self, tmp_path, flags):
        out = invoke(flags, tmp_path)
        assert out.returncode == 2, out.stderr
        assert json.loads(out.stdout)["error"] == "usage"

    def test_corrupted_constants_are_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("constants.c = 0\n")
        out = invoke(["--scenario", "unruh", "--config", str(cfg),
                      "--out", str(tmp_path / "u.csv")], tmp_path)
        assert out.returncode == 3
        diag = json.loads(out.stdout.strip().splitlines()[-1])
        assert diag["error"] == "validation"

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        out = invoke(["--scenario", "unruh", "--config", str(cfg),
                      "--out", str(tmp_path / "u.csv")], tmp_path)
        assert out.returncode == 3


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            out = invoke(["--scenario", "pe-gamma-scaling", "--seed", "11",
                          "--out", str(tmp_path / name)], tmp_path)
            assert out.returncode == 0, out.stderr
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_recorded_in_metadata(self, tmp_path):
        out = invoke(["--scenario", "cluster-bound", "--seed", "99",
                      "--format", "json", "--out", str(tmp_path / "c.json")],
                     tmp_path)
        assert out.returncode == 0, out.stderr
        obj = json.loads((tmp_path / "c.json").read_text())
        assert obj["meta"]["seed"] == 99
        assert obj["meta"]["version"]


class TestScenarioOutputs:
    def test_fig2_entropy_zero_gamma_row(self, tmp_path):
        out = invoke(["--scenario", "fig2-entropy", "--out",
                      str(tmp_path / "f.csv"), "--grid.entropy_points", "9"],
                     tmp_path)
        assert out.returncode == 0, out.stderr
        rows = [ln for ln in (tmp_path / "f.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        header = rows[0].split(",")
        assert header == ["theta_rad", "gamma", "entropy_nats"]
        for ln in rows[1:]:
            theta, gamma, s = (float(x) for x in ln.split(","))
            if gamma == 0.0:
                assert abs(s) < 1e-12

    def test_causality_bell_advantage(self, tmp_path):
        out = invoke(["--scenario", "causality-bell", "--format", "json",
                      "--out", str(tmp_path / "c.json")], tmp_path)
        assert out.returncode == 0, out.stderr
        obj = json.loads((tmp_path / "c.json").read_text())
        assert abs(obj["data"]["advantage"] - 0.75) < 1e-9
        assert obj["data"]["complete_bell_semicausal"]["B->A"]

    def test_blackhole_evaporate_half_mass(self, tmp_path):
        cfg = tmp_path / "bh.cfg"
        cfg.write_text("M0_kg = 2.0e9\nsamples = 17\n")
        out = invoke(["--scenario", "blackhole-evaporate", "--format", "json",
                      "--config", str(cfg), "--out", str(tmp_path / "bh.json")],
                     tmp_path)
        assert out.returncode == 0, out.stderr
        obj = json.loads((tmp_path / "bh.json").read_text())
        data = obj["data"]
        assert data["M0_kg"] == 2.0e9
        # closed form at 7 t_E / 8 gives half the mass
        from relqinfo import horizon
        m = horizon.evaporate(data["M0_kg"], 7 * data["t_E_s"] / 8).mass
        assert abs(m - data["M0_kg"] / 2) < 1e-9 * data["M0_kg"]
        assert len(data["samples"]) == 17

    def test_photon_doppler_table(self, tmp_path):
        out = invoke(["--scenario", "photon-doppler", "--out",
                      str(tmp_path / "d.csv")], tmp_path)
        assert out.returncode == 0, out.stderr
        lines = [ln for ln in (tmp_path / "d.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "aperture,v,P_E,P_E_prime,ratio"
        by_v = {}
        for ln in lines[1:]:
            _, v, pe, pep, ratio = (float(x) for x in ln.split(","))
            by_v[v] = ratio
        assert abs(by_v[0.5] - 3.0) < 0.06

    def test_rindler_table_columns(self, tmp_path):
        out = invoke(["--scenario", "rindler", "--out",
                      str(tmp_path / "r.csv")], tmp_path)
        assert out.returncode == 0, out.stderr
        lines = [ln for ln in (tmp_path / "r.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "omega_over_a,mean_n,entropy"

    def test_chsh_scenario(self, tmp_path):
        out = invoke(["--scenario", "chsh", "--format", "json", "--out",
                      str(tmp_path / "z.json")], tmp_path)
        assert out.returncode == 0, out.stderr
        obj = json.loads((tmp_path / "z.json").read_text())
        rows = {r[0]: r[1] for r in obj["rows"]}
        assert abs(rows["singlet"] - np.sqrt(2)) < 1e-9
        assert rows["product_00"] <= 1.0 + 1e-9

    def test_every_scenario_emits_valid_output(self, tmp_path):
        quick = {
            "fig2-entropy": ["--grid.entropy_points", "9"],
            "pe-gamma-scaling": ["--grid.scaling_points", "9"],
            "bipartite-concurrence": ["--grid.bipartite_points", "5"],
            "photon-doppler": ["--grid.photon_theta", "16",
                               "--grid.photon_phi", "16"],
        }
        for scenario in cli.SCENARIOS:
            extra = quick.get(scenario, [])
            for fmt in ("csv", "json"):
                target = tmp_path / f"{scenario}.{fmt}"
                out = invoke(["--scenario", scenario, "--format", fmt,
                              "--out", str(target)] + extra, tmp_path)
                assert out.returncode == 0, (scenario, fmt, out.stdout, out.stderr)
                assert target.exists()


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
        assert grids == {"photon_theta": 16.0}
        assert rest == ["--scenario", "chsh"]


class TestSelfcheckFlag:
    def test_quick_selfcheck_subset_tolerance_class(self, tmp_path):
        # shrunk grids keep this fast; a 100x-tightened quadrature-limited
        # tolerance must flag tolerance-class, not logic-class failures
        out = invoke(["--selfcheck", "--tol.entropy_convergence", "5e-5",
                      "--grid.povm_packets", "20", "--grid.chsh_draws", "200",
                      "--grid.teleport_draws", "5", "--grid.locc_draws", "5",
                      "--grid.momentum_draws", "20",
                      "--out", str(tmp_path / "sc.json")], tmp_path)
        assert out.returncode == 4
        report = json.loads((tmp_path / "sc.json").read_text())
        failed = [c for c in report["criteria"] if not c["passed"]]
        assert failed
        assert all(c["failure_class"] == "tolerance" for c in failed)
