"""Run every workload over several seeds and print each end-to-end metric
with its median, quartiles, spread and sample count, plus failed_frac, the
environment and one traced run per workload.

    python3 perfbench/summary.py --seeds 1,2,3 --seconds 10 --out summary.json
    python3 perfbench/summary.py --seeds 1,2,3 --seconds 10 --compare old.json

--compare refuses (exit 3) to compare with a summary from another kernel
backend or BLAS thread count; otherwise it prints the change of every
median against the bound BENCHMARK.json fixes for it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import envinfo  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=run.TIME_LIMIT_S + 30)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((run.BUILD / f"{workload}-seed{seed}-trace{trace}" / "run.json")
                         .read_text(encoding="utf-8"))
    return {**line, "env": details["env"], "spans": details.get("spans", {}),
            "overhead_s": details.get("overhead_s"),
            "overhead_frac": details.get("overhead_frac"),
            "counts_repeat": details.get("counts_repeat")}


def stats(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def layer_self_s(spans: dict) -> dict:
    layers: dict = {}
    for name, row in spans.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]))


def summarize(names, seeds, seconds, trace: bool) -> dict:
    out = {}
    for workload in names:
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"metrics": {}, "env": runs[0]["env"], "seeds": seeds}
        for metric in BOUNDS:
            entry["metrics"][metric] = {"unit": runs[0]["metrics"][metric]["unit"],
                                        **stats([r["metrics"][metric]["value"] for r in runs])}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry["failed_frac"] = {"value": failed / attempted, "failed": failed,
                                "attempted": attempted, "unit": "ratio"}
        if trace:
            traced = one_run(workload, seeds[0], seconds, 1)
            entry["trace"] = {
                "seed": seeds[0],
                "top_self_s": sorted(((n, r["self_s"]) for n, r in traced["spans"].items()),
                                     key=lambda kv: -kv[1])[:5],
                "layer_self_s": layer_self_s(traced["spans"]),
                "overhead_s": traced["overhead_s"], "overhead_frac": traced["overhead_frac"],
                "counts_repeat": traced["counts_repeat"], "failed": traced["failed"]}
        out[workload] = entry
        print_entry(workload, entry)
    return out


def print_entry(workload: str, entry: dict) -> None:
    env = entry["env"]
    print(f"{workload}  (backend {env['kernel_backend']}, BLAS threads {env['blas_threads']}, "
          f"seeds {','.join(map(str, entry['seeds']))})")
    for metric, s in entry["metrics"].items():
        print(f"  {metric:12s} {s['median']:10.5g} {s['unit']:3s}  q1 {s['q1']:.5g}  "
              f"q3 {s['q3']:.5g}  spread {100 * s['spread']:.2f}% "
              f"(bound {100 * BOUNDS[metric]:.0f}%)  n={s['n']}")
    f = entry["failed_frac"]
    print(f"  {'failed_frac':12s} {f['value']:10.5g} ratio  ({f['failed']}/{f['attempted']})")
    if "trace" in entry:
        t = entry["trace"]
        top = ", ".join(f"{n} {v:.3f}s" for n, v in t["top_self_s"])
        layers = ", ".join(f"{n} {v:.3f}s" for n, v in t["layer_self_s"].items() if v > 0)
        print(f"  traced seed {t['seed']}: top self time: {top}")
        print(f"  self time by layer: {layers}")
        print(f"  tracing overhead {t['overhead_s']:.4f} s ({100 * t['overhead_frac']:.1f}%), "
              f"counts repeat: {t['counts_repeat']}")


def compare(old: dict, new: dict) -> int:
    status = 0
    for workload, entry in new.items():
        if workload not in old:
            continue
        reasons = envinfo.incomparable(old[workload]["env"], entry["env"])
        if reasons:
            print(f"{workload}: not comparable ({'; '.join(reasons)})")
            return 3
        for metric, s in entry["metrics"].items():
            before = old[workload]["metrics"][metric]["median"]
            change = (s["median"] - before) / before
            worse = change > BOUNDS[metric]
            status |= worse
            print(f"{workload:13s} {metric:12s} {before:.5g} -> {s['median']:.5g} "
                  f"({100 * change:+.1f}%, bound {100 * BOUNDS[metric]:.0f}%)"
                  f"{'  WORSE' if worse else ''}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", help="write the summary as JSON")
    parser.add_argument("--compare", help="an earlier --out file to compare against")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    summary = summarize(names, seeds, args.seconds, not args.no_trace)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if args.compare:
        return compare(json.loads(Path(args.compare).read_text(encoding="utf-8")), summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
