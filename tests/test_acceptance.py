"""Acceptance criteria, one test per criterion at its shipped tolerance.

Each test prints a PASS/FAIL line with the measured values (run pytest
with -s to stream them), then asserts. The same table backs the CLI
--selfcheck flag.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from relqinfo import channel, cli, lorentz, photon, selfcheck, wavepacket

_TOLS = selfcheck._tols(None)
_GRIDS = selfcheck._grids(None)

# the benchmark's recorded --selfcheck values and its comparison rule
_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                               _PERFBENCH / "workloads.py")
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
_RECORDED = json.loads(_workloads.REFERENCE_PATH.read_text())
_REFERENCE = _RECORDED["acceptance"]["selfcheck"]["criteria"]


def _run(name):
    crit = next(c for c in selfcheck.CRITERIA if c.name == name)
    result = selfcheck.run_criterion(crit, _TOLS, _GRIDS)
    status = "PASS" if result.passed else "FAIL"
    measured = ", ".join(f"{k}={v}" for k, v in result.measured.items())
    print(f"ACCEPT {result.name}: {status} {measured}")
    assert result.passed, [c for c in result.checks if not c["holds"]]
    got = selfcheck.report_dict([result])["criteria"][0]["measured"]
    drift = _workloads.diff_reference(_REFERENCE[name]["measured"], got, name)
    assert drift == [], drift


def test_criterion_01_incomplete_bell_advantage():
    _run("01-incomplete-bell-advantage")


def test_criterion_02_complete_bell_semicausal():
    _run("02-complete-bell-semicausal")


def test_criterion_03_locc_matches_global_pvm():
    _run("03-locc-matches-global-pvm")


def test_criterion_04_teleportation_identity():
    _run("04-teleportation-identity")


def test_criterion_05_chsh_tsirelson():
    _run("05-chsh-tsirelson")


def test_criterion_06_choi_cp_certification():
    _run("06-choi-cp-certification")


def test_criterion_07_wigner_machinery():
    _run("07-wigner-machinery")


def test_criterion_08_spin_entropy_surface():
    _run("08-spin-entropy-surface")


def test_criterion_09_distinguishability_scaling():
    _run("09-distinguishability-scaling")


def test_criterion_10_bipartite_concurrence():
    _run("10-bipartite-concurrence")


def test_criterion_11_photon_povm():
    _run("11-photon-povm")


def test_criterion_12_photon_doppler_law():
    _run("12-photon-doppler-law")


def test_criterion_13_aberration_small_angle():
    _run("13-aberration-small-angle")


def test_criterion_14_unruh_rindler():
    _run("14-unruh-rindler")


def test_criterion_15_black_hole_thermodynamics():
    _run("15-black-hole-thermodynamics")


def test_criterion_16_noncovariance_cp_failure():
    _run("16-noncovariance-cp-failure")


@pytest.mark.parametrize("overrides, names", [
    ({"povm_packets": 0, "povm_theta": 2.7}, ["11-photon-povm"]),
    ({"momentum_draws": 0}, ["07-wigner-machinery"]),
])
def test_grid_override_must_be_a_whole_count(overrides, names):
    with pytest.raises(KeyError, match="whole numbers >= 1"):
        selfcheck.run_all(grid_overrides=overrides, names=names)


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_failure_is_classified_from_its_one_run(monkeypatch):
    # criterion 08 under a 1000x tighter quadrature tolerance fails only
    # there, and computes its four entropy surfaces once
    runs = _count_calls(monkeypatch, selfcheck, "run_criterion")
    surfaces = _count_calls(monkeypatch, wavepacket, "entropy_surface")
    [result] = selfcheck.run_all({"entropy_convergence": 5e-5},
                                 names=["08-spin-entropy-surface"])
    assert (result.failure_class, len(runs), len(surfaces)) == ("tolerance", 1, 4)
    assert [c["key"] for c in result.checks if not c["holds"]] == ["self_convergence"]


def test_a_sub_check_failing_at_the_defaults_is_logic_class(monkeypatch):
    # a wrong solar pin fails at any tolerance, so criterion 15 is
    # logic-class although its first-law check fails only at the override
    monkeypatch.setattr(selfcheck, "HAWKING_T_SOLAR_K", 2 * selfcheck.HAWKING_T_SOLAR_K)
    [result] = selfcheck.run_all({"first_law": 1e-12},
                                 names=["15-black-hole-thermodynamics"])
    failed = [c for c in result.checks if not c["holds"]]
    assert result.failure_class == "logic"
    assert [(c["key"], c["bound_name"], c["bound"]) for c in failed] == [
        ("first_law_residual", "first_law", 1e-12), ("solar_pin_gap", "hawking_pin", 1e-3)]
    assert failed[1]["margin"] == 1e-3 - result.measured["solar_pin_gap"]


def test_criterion_07_checks_each_boost_stack_once(monkeypatch):
    # one check per batched standard-boost stack and one for the 50
    # rotations of the passthrough; the five single transforms are the
    # collinear boost and its Wigner rotation, and the packet check's two
    # boosts and their composition
    calls = []
    check = lorentz._check_transforms

    def counted(L):
        calls.append(len(L))
        return check(L)

    monkeypatch.setattr(lorentz, "_check_transforms", counted)
    _run("07-wigner-machinery")
    assert _GRIDS["momentum_draws"] == 1000
    assert sorted(calls) == [1] * 5 + [50, 1000, 1000]


def test_criterion_07_fails_when_rotations_meet_other_momenta(monkeypatch):
    # the passthrough's 50 Wigner rotations come from one pairwise call; rows
    # rolled by one pair each rotation with the next draw's result
    core = lorentz._wigner_rotations
    monkeypatch.setattr(lorentz, "_wigner_rotations", lambda L, P, m: tuple(
        np.roll(out, 1, axis=0) for out in core(L, P, m)))
    crit = next(c for c in selfcheck.CRITERIA if c.name == "07-wigner-machinery")
    result = selfcheck.run_criterion(crit, _TOLS, _GRIDS)
    assert [c["key"] for c in result.checks if not c["holds"]] == ["rotation_passthrough"]


def test_criterion_12_values_are_pinned():
    # max_relative_error = |ratio - 3|/3 is a difference of two nearly equal
    # numbers, so a reordered contraction in photon moves it far more than
    # round-off; the same values are pinned by the benchmark's reference
    crit = next(c for c in selfcheck.CRITERIA if c.name == "12-photon-doppler-law")
    measured = selfcheck.run_criterion(crit, _TOLS, _GRIDS).measured
    pins = {"max_relative_error": 0.0012222847450759449,
            "ratio_at_v_half": 2.996333145764772}
    for key, pin in pins.items():
        assert abs(measured[key] - pin) <= 1e-12 * pin, (key, measured[key])


def test_criterion_12_makes_one_helicity_phase_call_per_velocity(monkeypatch):
    # both packets lie on the same rays and take the same phases, read from
    # spinors: no null standard-boost stack is built
    phases = _count_calls(monkeypatch, photon, "helicity_phase_batch")
    stacks = _count_calls(monkeypatch, lorentz, "_standard_boosts_massless")
    _run("12-photon-doppler-law")
    assert (len(phases), stacks) == (4, [])


def test_criterion_04_runs_its_draws_as_one_batch(monkeypatch):
    per_draw = [_count_calls(monkeypatch, channel, name)
                for name in ("simulate_teleportation", "teleport_identity_residual")]
    _run("04-teleportation-identity")
    assert per_draw == [[], []]


def test_criterion_03_runs_its_draws_as_one_batch(monkeypatch):
    calls = _count_calls(monkeypatch, channel, "simulate_locc_protocol")
    _run("03-locc-matches-global-pvm")
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["fig2-entropy@11", "fig2-entropy@15",
                                  "pe-gamma-scaling@11", "pe-gamma-scaling@15"])
def test_spin_packets_task_matches_reference(name, tmp_path):
    # the benchmark's seed-0 spin-packets task, run in-process and checked
    # as the benchmark checks it: exit code, emitted file, scenario
    # invariants and the recorded outputs within 1e-9 relative
    tasks = _workloads.make_tasks("spin-packets", _workloads.DEFAULT_SEED, tmp_path)
    task = next(t for t in tasks if t["name"] == name)
    code = cli.main(list(task["argv"]))
    attempted, failures = _workloads.check_task(
        task, code, _RECORDED["spin-packets"][name], cli.validate_emitted)
    assert (attempted, failures) == (1, [])


_GOLDEN = json.loads(Path(__file__).with_name("golden_outputs.json").read_text())


@pytest.mark.parametrize("name", _GOLDEN)
def test_scenario_output_matches_golden(name, tmp_path):
    # the JSON output pinned under name, its version aside: the metadata
    # exactly, the rest by the benchmark's rule (text exactly, numbers within
    # 1e-9 relative). Entries "<scenario>@config" also hold the config text,
    # every key off its default. A change that moves a value beyond the rule
    # re-pins it: rerun with the entry's --seed, --config and --format json.
    # The CSV of the same run is only checked to be emitted.
    golden = dict(_GOLDEN[name])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(golden.pop("config", ""))
    args = ["--scenario", golden["meta"]["scenario"], "--seed",
            str(golden["meta"]["seed"]), "--config", str(cfg)]
    out = tmp_path / "out.json"
    assert cli.main([*args, "--format", "json", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    del got["meta"]["version"]
    assert got["meta"] == golden["meta"]
    assert _workloads.diff_reference(golden, got, name) == []
    assert cli.main([*args, "--out", str(tmp_path / "out.csv")]) == 0
    assert (tmp_path / "out.csv").exists()


def test_golden_pins_every_default_and_every_key_off_its_default(tmp_path):
    assert set(cli.SCENARIOS) <= set(_GOLDEN)
    names = {name for name, (_, keys, _) in cli.SCENARIOS.items() if keys}
    assert {k.split("@")[0] for k in _GOLDEN if k.endswith("@config")} == names
    for name in names:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_GOLDEN[f"{name}@config"]["config"])
        keys = cli.SCENARIOS[name][1]
        given, default = cli._params(cli.load_config(str(cfg)), keys), cli._params({}, keys)
        assert all(given[k] != default[k] for k in keys), name
