"""Benchmark of the relqinfo CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload spin-packets --seed 1 --seconds 55 --trace 0

Workloads are defined in workloads.py; BENCHMARK.json says why each was
chosen. The run draws the workload's inputs from --seed, times several
fresh interpreters importing relqinfo.cli (set-up), then starts one fresh
worker process that runs the task list back to back through
relqinfo.cli.main for --seconds and checks every output. wall_ref_s is
the median pass after the first, which is warm-up, scaled to the
reference machine speed (see worker.py). The program is
used from source (src/ on PYTHONPATH); BLAS runs on one thread.

The last line of standard output is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1. Scratch files go to .bench_build/perfbench/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import envinfo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKER = Path(__file__).resolve().with_name("worker.py")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
PROBE = ("import time; t = time.perf_counter(); import relqinfo.cli; "
         "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in envinfo.BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _remaining(started: float) -> float:
    left = TIME_LIMIT_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def setup_probes(trace: bool, env: dict, started: float) -> list:
    """(import seconds, stderr) of SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), "-c", PROBE]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=_remaining(started))
        if proc.returncode != 0:
            raise BenchError(f"import relqinfo.cli failed:\n{proc.stderr[-2000:]}")
        out.append((float(proc.stdout.split()[-1]), proc.stderr))
    return out


def run_worker(plan_path: Path, workdir: Path, args, env: dict, started: float) -> dict:
    result_path = workdir / "worker.json"
    cmd = [sys.executable, str(WORKER), "--plan", str(plan_path),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path), "--spans", str(workdir / "spans.npz")]
    if args.record_reference:
        cmd.append("--record-reference")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=_remaining(started))
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(probes: list, result: dict) -> dict:
    # the first pass is warm-up: it also pays lazy imports and first calls
    passes = result["pass_ref_s"][1:] or result["pass_ref_s"]
    return {
        "setup_s": {"value": statistics.median(s for s, _ in probes), "unit": "s"},
        "wall_ref_s": {"value": statistics.median(passes), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(probes: list, result: dict) -> dict:
    imports = [tracing.parse_importtime(err) for _, err in probes]
    values = {f"import.{m}.self_s": statistics.median(i[m] for i in imports)
              for m in tracing.IMPORT_MODULES}
    spans = result["spans"]
    for name in tracing.span_names() + [f"selfcheck.{c}" for c in tracing.CRITERIA]:
        row = spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        values.update({f"{name}.calls": row["calls"], f"{name}.self_s": row["self_s"],
                       f"{name}.s": row["s"]})
    values.update(result["counters"])
    points = result["counters"]["kernels.wigner_su2_batch.points"]
    kernel_s = spans.get("kernels.wigner_su2_batch", {"self_s": 0.0})["self_s"]
    values["kernels.wigner_su2_batch.ns_per_point"] = kernel_s * 1e9 / points if points else 0.0
    values["trace.overhead_s"] = result["overhead_s"]
    values["trace.overhead_frac"] = result["overhead_frac"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.per_layer_metrics()}


def report(args, result: dict, metrics: dict) -> None:
    """Human-readable lines ahead of the JSON result line."""
    env = result["env"]
    print(f"{args.workload} seed {args.seed}: {result['attempted']} checks, "
          f"{len(result['pass_s'])} untraced passes of {len(result['tasks'])} tasks")
    print(f"  env: backend={env['kernel_backend']} blas={env['blas_name']} "
          f"{env['blas_version']} threads={env['blas_threads']} nproc={env['nproc']} "
          f"numpy={env['numpy']} scipy={env['scipy']} python={env['python']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    if args.trace:
        busiest = sorted(result["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:6]
        for name, row in busiest:
            print(f"  {name:40s} self {row['self_s']:.4f} s  calls {row['calls']}")
        print(f"  tracing overhead {result['overhead_s']:.4f} s "
              f"({100 * result['overhead_frac']:.1f}%), counts repeat across traced "
              f"passes: {result['counts_repeat']}")
    else:
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:.6g} {m['unit']}")
        print(f"  unscaled median pass {statistics.median(result['pass_s'][1:] or result['pass_s']):.6g} s, "
              f"median calibration probe {statistics.median(result['probe_s']):.6g} s")
    print(f"  failed_frac  {frac:.6g} ({result['failed']}/{result['attempted']})")
    for failure in result["failures"][:5]:
        print(f"  FAILED {failure}", file=sys.stderr)
    for crash in result["crashes"]:
        print(f"  RAISED {crash}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run one pass and store its outputs as the reference "
                             "(only at the default seed)")
    args = parser.parse_args(argv)
    if not (SRC / "relqinfo" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'relqinfo'} not found; run from a relqinfo checkout",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != workloads.DEFAULT_SEED:
        parser.error(f"the reference is recorded at seed {workloads.DEFAULT_SEED}")

    started = time.perf_counter()
    workdir = BUILD / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    tasks = workloads.make_tasks(args.workload, args.seed, workdir / "inputs")
    plan = {"workload": args.workload, "seed": args.seed, "tasks": tasks,
            "compare_reference": (args.workload == "acceptance"
                                  or args.seed == workloads.DEFAULT_SEED)}
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")

    env = child_env()
    try:
        probes = setup_probes(bool(args.trace), env, started)
        result = run_worker(plan_path, workdir, args, env, started)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(probes, result) if args.trace else end_to_end(probes, result)
    (workdir / "run.json").write_text(json.dumps({"metrics": metrics, **result}, indent=1),
                                      encoding="utf-8")
    report(args, result, metrics)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
