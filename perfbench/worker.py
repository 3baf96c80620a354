"""Runs one workload's task list back to back in a fresh interpreter.

Started by run.py with relqinfo on PYTHONPATH. A pass runs every task of
the plan once through relqinfo.cli.main; passes repeat while the next one
is predicted to end within --seconds. After each pass, outside the timed
region, every output is checked. With --trace 1 untraced and traced passes
alternate, so the tracing overhead is measured in the same process; the
first untraced pass is left out of that comparison.

A shared host's speed drifts by 10-40% over seconds to minutes, for any code.
So a fixed calibration probe runs before the first pass and after each
one, and each untraced pass is also reported scaled to the reference speed
at which the probe takes CALIBRATION_REF_S: pass seconds times
CALIBRATION_REF_S over the mean of the two probes around the pass.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import envinfo  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# About the probe time on the 2-vCPU Xeon host the benchmark was defined on,
# at its least loaded.
CALIBRATION_REF_S = 0.15
_PROBE_ARRAY = np.linspace(-1.0, 1.0, 4096 * 16).reshape(4096, 4, 4)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and small-matrix numpy
    work, the two kinds the program does. It uses nothing of relqinfo."""
    a = _PROBE_ARRAY
    start = time.perf_counter()
    total = 0
    for i in range(900_000):
        total += i & 7
    for _ in range(60):
        b = a @ a @ a
        np.einsum("nij,nkj->nik", a, b)
    return time.perf_counter() - start


def run_pass(cli, tasks, tracer) -> tuple:
    """Seconds for one pass, each task's exit code (None if it raised) and
    the tracebacks of tasks that raised."""
    for task in tasks:  # a task that writes nothing must not pass on old output
        Path(task["out"]).unlink(missing_ok=True)
    codes, crashes = [], []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        try:
            codes.append(cli.main(list(task["argv"])))
        except Exception:  # a crashing task is a failed task, not a crashed run
            codes.append(None)
            crashes.append(f"{task['name']}: {traceback.format_exc(limit=3)}")
    return time.perf_counter() - start, codes, crashes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="file for the raw spans of the last traced pass")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the first pass's outputs in reference.json")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    tasks = plan["tasks"]

    from relqinfo import cli, kernels

    if args.record_reference:
        references = {}
    else:
        stored = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
        references = stored[plan["workload"]] if plan["compare_reference"] else {}

    tracer = tracing.Tracer() if args.trace else None
    times = {False: [], True: []}
    scaled, probe_s = [], [calibrate()]
    attempted, failures, crashes, traced = 0, [], [], []
    start = time.perf_counter()
    with open(Path(args.result).with_suffix(".log"), "w", encoding="utf-8") as log:
        while True:
            use_trace = tracer is not None and len(times[True]) < len(times[False])
            if use_trace:
                tracer.install()
            try:
                with contextlib.redirect_stdout(log):
                    seconds, codes, crashed = run_pass(cli, tasks,
                                                       tracer if use_trace else None)
            finally:
                if use_trace:
                    tracer.uninstall()
            times[use_trace].append(seconds)
            probe_s.append(calibrate())
            if not use_trace:
                scaled.append(seconds * CALIBRATION_REF_S / ((probe_s[-2] + probe_s[-1]) / 2))
            if use_trace:
                traced.append(tracer.take())
            crashes += crashed
            for task, code in zip(tasks, codes):
                n, bad = workloads.check_task(task, code, references.get(task["name"]),
                                              cli.validate_emitted)
                attempted += n
                failures += bad
            if args.record_reference:
                references = {t["name"]: workloads.parse_output(t) for t in tasks}
                break
            elapsed = time.perf_counter() - start
            next_trace = tracer is not None and len(times[True]) < len(times[False])
            predicted = (times[next_trace] or times[not next_trace])[-1]
            # a traced run needs a traced pass and an untraced one after the
            # first, which also pays lazy imports and first-call costs
            done = times[True] and len(times[False]) > 1 if tracer else times[False]
            if done and elapsed + predicted > args.seconds:
                break

    result = {
        "workload": plan["workload"],
        "seed": plan["seed"],
        "tasks": [t["name"] for t in tasks],
        "pass_s": times[False],
        "pass_ref_s": scaled,
        "probe_s": probe_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "crashes": crashes[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": envinfo.record(kernels),
    }
    if tracer is not None:
        result.update(_trace_summary(traced, times))
        if args.spans:
            import numpy as np

            np.savez(args.spans, **traced[-1][2])
    if args.record_reference:
        if failures or crashes:
            print("not recording a reference from a run with failed checks:",
                  *failures, *crashes, sep="\n", file=sys.stderr)
            return 1
        stored = (json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
                  if workloads.REFERENCE_PATH.exists() else {})
        stored[plan["workload"]] = references
        workloads.REFERENCE_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True)
                                            + "\n", encoding="utf-8")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _trace_summary(traced, times) -> dict:
    """Per-span medians over the traced passes; counts from the first one,
    with a flag telling whether every traced pass counted the same."""
    def counts(spans, counters):
        return {name: row[0] for name, row in spans.items() if row[0]}, counters

    names = sorted({name for spans, _, _ in traced for name in spans})
    spans = {}
    for name in names:
        rows = [s.get(name, (0, 0.0, 0.0)) for s, _, _ in traced]
        spans[name] = {"calls": rows[0][0],
                       "s": statistics.median(r[1] for r in rows),
                       "self_s": statistics.median(r[2] for r in rows)}
    first = counts(*traced[0][:2])
    repeat = all(counts(s, c) == first for s, c, _ in traced)
    untraced = statistics.median(times[False][1:])
    traced_s = statistics.median(times[True])
    return {"spans": spans, "counters": traced[0][1], "counts_repeat": repeat,
            "traced_pass_s": times[True],
            "overhead_s": traced_s - untraced,
            "overhead_frac": (traced_s - untraced) / untraced}


if __name__ == "__main__":
    sys.exit(main())
