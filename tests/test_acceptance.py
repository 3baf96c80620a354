"""Acceptance criteria, one test per criterion at its shipped tolerance.

Each test prints a PASS/FAIL line with the measured values (run pytest
with -s to stream them), then asserts. The same table backs the CLI
--selfcheck flag.
"""
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from relqinfo import channel, cli, lorentz, photon, qstate, selfcheck, wavepacket

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
    """The positional arguments of each call of module.name from now on."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
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


def _made_generators(monkeypatch):
    """Each generator np.random.default_rng makes from now on."""
    made, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(make(*a)) or made[-1])
    return made


def test_criterion_07_draws_match_the_scalar_loops(monkeypatch):
    # oracle: the loops of per-draw rng.normal(size=3) and rng.uniform calls;
    # the criterion's loops take rng.standard_normal and rng.random and apply
    # uniform's formula once, with the same bits and the same stream
    ref = np.random.default_rng(selfcheck.SEED)
    ref.normal(scale=0.8, size=(1000, 3))
    nvecs, energies = np.empty((1000, 3)), np.empty(1000)
    for i in range(1000):
        nvecs[i] = ref.normal(size=3)
        energies[i] = ref.uniform(0.1, 5.0)
    axes, angles, P = np.empty((50, 3)), np.empty(50), np.empty((50, 3))
    for i in range(50):
        axes[i] = ref.normal(size=3)
        angles[i] = ref.uniform(0, np.pi)
        P[i] = ref.normal(size=3)
    nvecs /= np.sqrt(np.einsum("ni,ni->n", nvecs, nvecs))[:, None]

    made = _made_generators(monkeypatch)
    null_boosts, rotations, pairs = (_count_calls(monkeypatch, lorentz, name) for name in (
        "_standard_boosts_massless", "_rotation3", "_wigner_rotations"))
    _run("07-wigner-machinery")
    assert _GRIDS["momentum_draws"] == 1000
    [(K,)] = null_boosts
    assert np.array_equal(K, np.column_stack([energies, energies[:, None] * nvecs]))
    assert [np.array_equal(a, b) for a, b in zip(rotations[0], (axes, angles))] == [True] * 2
    assert np.array_equal(pairs[0][1][:, 1:], P)
    assert [g.bit_generator.state for g in made] == [ref.bit_generator.state]


def test_criterion_11_draws_match_the_scalar_loop(monkeypatch):
    # oracle: the loop of rng.uniform and haar_state(2) calls; the criterion's
    # loop takes rng.random and a row of normals, then normalizes all rows
    # and applies uniform's formula once, with the same bits and stream
    ref = np.random.default_rng(selfcheck.SEED)
    apertures, polarizations = np.empty(500), np.empty((500, 2), dtype=complex)
    for i in range(500):
        apertures[i] = ref.uniform(0.02, 0.6)
        polarizations[i] = qstate.haar_state(2, ref)

    made = _made_generators(monkeypatch)
    rings = _count_calls(monkeypatch, photon, "_povm_rings")
    _run("11-photon-povm")
    assert _GRIDS["povm_packets"] == 500
    [(got_apertures, got_polarizations, *_)] = rings
    assert np.array_equal(got_apertures, apertures)
    assert np.array_equal(got_polarizations, polarizations)
    assert [g.bit_generator.state for g in made] == [ref.bit_generator.state]


def test_criterion_12_values_are_pinned():
    # max_relative_error = |ratio - 3|/3 is a difference of two nearly equal
    # numbers, so a reordered contraction in photon moves it far more than
    # round-off. The pins hold this code's values at 1e-12; the benchmark's
    # reference, which _run checks at 1e-9, was recorded from an earlier
    # contraction order and differs from them by ~2e-10 relative
    crit = next(c for c in selfcheck.CRITERIA if c.name == "12-photon-doppler-law")
    measured = selfcheck.run_criterion(crit, _TOLS, _GRIDS).measured
    pins = {"max_relative_error": 0.0012222847448071228,
            "ratio_at_v_half": 2.9963331457655786}
    for key, pin in pins.items():
        assert abs(measured[key] - pin) <= 1e-12 * pin, (key, measured[key])


def test_every_benchmark_span_names_a_relqinfo_attribute():
    # the benchmark's --trace wraps these by name; a renamed function would
    # leave its span empty without failing a run
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  _PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.SPANS
               if not hasattr(importlib.import_module(f"relqinfo.{module}"), attr)]
    assert missing == []


def test_criterion_12_builds_no_lorentz_matrix(monkeypatch):
    # a z boost's helicity phase is 0, so the photon boost only relabels
    # rays: no phase call, no velocity boost, no null standard boost
    assert not {"boost", "helicity_phase_batch"} & set(vars(photon))
    calls = [_count_calls(monkeypatch, lorentz, name) for name in (
        "helicity_phase_batch", "_velocity_boosts", "_standard_boosts_massless")]
    _run("12-photon-doppler-law")
    assert calls == [[], [], []]


def test_criterion_04_runs_its_draws_as_one_batch(monkeypatch):
    per_draw = [_count_calls(monkeypatch, channel, name)
                for name in ("simulate_teleportation", "teleport_identity_residual")]
    _run("04-teleportation-identity")
    assert per_draw == [[], []]


def test_criterion_03_runs_its_draws_as_one_batch(monkeypatch):
    calls = _count_calls(monkeypatch, channel, "simulate_locc_protocol")
    _run("03-locc-matches-global-pvm")
    assert len(calls) == 1


def test_criterion_06_runs_its_draws_as_one_batch(monkeypatch):
    # the transpose map is the one choi_and_cp_check call, a batch of one of
    # the spectrum core; the 25 Kraus sets are one stack through it
    per_draw = _count_calls(monkeypatch, channel, "kraus_from_unitary")
    stacks, core = [], channel._choi_min_eigs
    monkeypatch.setattr(channel, "_choi_min_eigs", lambda C: stacks.append(len(C)) or core(C))
    _run("06-choi-cp-certification")
    assert (per_draw, stacks) == ([], [1, 25])


def test_criterion_05_allocates_under_6_mb():
    # tracemalloc peak of one warm run: 4.2 MB, of which 2.56 MB is the float
    # buffer of the 10,000 Ginibre draws; whole (n, 4, 4) complex stacks of
    # the states and their products read 8 MB
    crit = next(c for c in selfcheck.CRITERIA if c.name == "05-chsh-tsirelson")
    assert _GRIDS["chsh_draws"] == 10000
    selfcheck.run_criterion(crit, _TOLS, _GRIDS)
    tracemalloc.start()
    try:
        assert selfcheck.run_criterion(crit, _TOLS, _GRIDS).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


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
