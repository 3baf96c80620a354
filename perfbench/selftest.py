"""Tests of the benchmark itself (not collected by the repository's pytest run).

    python3 perfbench/selftest.py            # everything, about two minutes
    python3 perfbench/selftest.py -k Generator

The traced-run tests start run.py twice per workload and compare every
per-layer count exactly.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(run.SRC))

SEEDS = range(200)
COUNT_SUFFIXES = (".calls", ".points", ".rays", ".bytes_computed")


def _scratch():
    run.BUILD.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.BUILD)


def _tasks(workload, seed):
    """The task list without the fields that hold the temporary directory."""
    with _scratch() as tmp:
        tasks = wl.make_tasks(workload, seed, Path(tmp))
    for t in tasks:
        del t["argv"], t["out"]
    return tasks


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in wl.WORKLOADS:
            self.assertEqual(_tasks(workload, 7), _tasks(workload, 7))

    def test_seed_changes_inputs(self):
        self.assertNotEqual(_tasks("spin-packets", 1), _tasks("spin-packets", 2))

    def test_acceptance_ignores_seed(self):
        self.assertEqual(_tasks("acceptance", 1), _tasks("acceptance", 2))

    def test_spin_packet_domains(self):
        for seed in SEEDS:
            tasks = _tasks("spin-packets", seed)
            self.assertEqual([t["grids"] for t in tasks[::2]],
                             [{"entropy_points": p} for p in wl.SPIN_GRIDS])
            self.assertEqual([t["grids"] for t in tasks[1::2]],
                             [{"scaling_points": p} for p in wl.SPIN_GRIDS])
            for task in tasks:
                p = task["params"]
                dm, gammas = p["delta_over_m"], p["gammas"]
                self.assertTrue(all(b > a for a, b in zip(gammas, gammas[1:])))
                if task["scenario"] == "fig2-entropy":
                    self.assertTrue(wl.FIG2_DELTA[0] <= dm <= wl.FIG2_DELTA[1])
                    self.assertEqual(gammas[0], 0.0)
                    lo, hi = wl.FIG2_GAMMA_SHARE
                    self.assertTrue(all(lo * dm <= g <= hi * dm for g in gammas[1:]))
                    self.assertEqual(p["thetas"][-1], math.pi / 2)
                    self.assertTrue(all(0.0 <= t <= math.pi / 2 for t in p["thetas"]))
                else:
                    self.assertTrue(wl.PE_DELTA[0] <= dm <= wl.PE_DELTA[1])
                    self.assertTrue(0 < gammas[0])
                    self.assertTrue(gammas[-1] <= wl.PE_GAMMA_MAX_SHARE[1] * dm)

    def test_config_round_trips_through_the_cli(self):
        from relqinfo import cli

        with _scratch() as tmp:
            for task in wl.make_tasks("spin-packets", 3, Path(tmp)):
                self.assertEqual(cli.load_config(task["argv"][3]), task["params"])


class ReferenceTest(unittest.TestCase):
    def test_relative_tolerance(self):
        ref = {"a": 0.123, "rows": [[1.0, 2.5e-4]]}
        self.assertEqual(wl.diff_reference(ref, {"a": 0.123 * (1 + 1e-10), "b": 5,
                                                 "rows": [[1.0, 2.5e-4]]}), [])
        self.assertTrue(wl.diff_reference(ref, {"a": 0.123 * (1 + 1e-8),
                                                "rows": [[1.0, 2.5e-4]]}))
        self.assertTrue(wl.diff_reference(ref, {"a": 0.123, "rows": [[1.0]]}))
        self.assertTrue(wl.diff_reference(ref, {"rows": [[1.0, 2.5e-4]]}))

    def test_reference_covers_every_default_seed_task(self):
        stored = json.loads(wl.REFERENCE_PATH.read_text(encoding="utf-8"))
        for workload in wl.WORKLOADS:
            tasks = _tasks(workload, wl.DEFAULT_SEED)
            self.assertEqual(sorted(stored[workload]), sorted(t["name"] for t in tasks))
        self.assertEqual(sorted(stored["acceptance"]["selfcheck"]["criteria"]),
                         sorted(tracing.CRITERIA))


class TracingTest(unittest.TestCase):
    def test_every_alias_is_wrapped_and_restored(self):
        import importlib

        import relqinfo.cli  # noqa: F401  (imports every module)

        modules = [m for n, m in sys.modules.items() if n.startswith("relqinfo")]
        originals = {}
        for module, attr, _, _ in tracing.SPANS:
            obj = getattr(importlib.import_module(f"relqinfo.{module}"), attr)
            originals[(module, attr)] = obj.__init__ if isinstance(obj, type) else obj
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for (module, attr), original in originals.items():
                obj = getattr(importlib.import_module(f"relqinfo.{module}"), attr)
                if isinstance(obj, type):
                    self.assertIsNot(obj.__init__, original, attr)
                    continue
                holders = [m.__name__ for m in modules
                           for v in vars(m).values() if v is original]
                self.assertEqual(holders, [], f"{module}.{attr} left unwrapped")
        finally:
            tracer.uninstall()
        for (module, attr), original in originals.items():
            obj = getattr(importlib.import_module(f"relqinfo.{module}"), attr)
            self.assertIs(obj.__init__ if isinstance(obj, type) else obj, original)

    def test_photon_path_and_constructors_are_traced(self):
        from relqinfo import lorentz, photon

        tracer = tracing.Tracer()
        tracer.install()
        try:
            photon.boost_packet(photon.collimated_packet(0.05, n_theta=2, n_phi=3), 0.3)
            lorentz.boost([0.0, 0.0, 0.2]).inverse()
        finally:
            tracer.uninstall()
        spans, counters, _ = tracer.take()
        self.assertEqual(spans["lorentz.helicity_phase_batch"][0], 1)
        self.assertEqual(counters["lorentz.helicity_phase_batch.rays"], 6)
        # three per ray (two standard boosts, one inverse), one for the boost
        # inside boost_packet, two for boost() and inverse() above
        self.assertEqual(spans["lorentz.LorentzTransform"][0], 6 * 3 + 1 + 2)

    def test_self_time_excludes_children(self):
        import time

        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: time.sleep(0.02))
        outer = tracer.wrap("outer", lambda: (time.sleep(0.01), inner(), inner()))
        outer()
        spans, _, arrays = tracer.take()
        calls, total, own = spans["outer"]
        self.assertEqual(spans["inner"][0], 2)
        self.assertAlmostEqual(own, total - spans["inner"][1], places=9)
        self.assertTrue(0.009 < own < 0.03)
        self.assertEqual(list(arrays["parent"]), [-1, 0, 0])

    def test_benchmark_json_lists_every_per_layer_metric(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         tracing.per_layer_metrics())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(wl.WORKLOADS))


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=200)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


class TracedRunTest(unittest.TestCase):
    def test_counts_repeat_between_traced_runs(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                first = _traced_counts(workload, 5)
                self.assertTrue(any(first.values()))
                self.assertEqual(first, _traced_counts(workload, 5))


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with _scratch() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "acceptance", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], capture_output=True, text=True,
                                  cwd=tmp, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
