"""Seeded inputs for the benchmark workloads and the checks on their outputs.

Every workload is a fixed task list. A task is one ``relqinfo.cli.main``
call; its drawn parameters go into a flat ``--config`` file and its grid
sizes into ``--grid.*`` flags, so the program sees only generated inputs.
The same (workload, seed) always gives the same task list.
"""
from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("spin-packets", "acceptance")

# Default-seed outputs are compared with reference.json, recorded at the
# commit that introduced the benchmark. Acceptance ignores the seed (the
# criteria use their own fixed seed), so it is compared on every seed.
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_REL = 1e-9
# Residuals at rounding level (e.g. 3e-16) differ between BLAS kernels in
# every digit; below this size two values compare absolutely.
REFERENCE_ABS = 1e-12

# Points per momentum axis: 11**3 = 1,331 up to 21**3 = 9,261 momenta, so
# both overhead-bound small batches and throughput-bound large ones occur.
SPIN_GRIDS = (11, 15, 21)

# Input domains the generator draws from (checked by selftest.py).
FIG2_DELTA = (0.25, 0.45)
FIG2_GAMMA_SHARE = (0.05, 0.85)  # gamma / (delta/m); at 1 the boost is luminal
PE_DELTA = (0.05, 0.15)
PE_GAMMA_MAX_SHARE = (0.3, 0.5)  # largest gamma / (delta/m)

ENTROPY_ZERO = 1e-12
EXPONENT_RANGE = (1.8, 2.2)
PE_REST_MAX = 1e-8


def _fmt(value) -> str:
    if isinstance(value, list):
        return ", ".join(repr(float(v)) for v in value)
    return repr(value)


def _scenario_task(name, scenario, params, grids, seed, workdir: Path) -> dict:
    cfg = workdir / f"{name}.cfg"
    cfg.write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in params.items()),
                   encoding="utf-8")
    out = workdir / f"{name}.csv"
    argv = ["--scenario", scenario, "--config", str(cfg), "--seed", str(seed),
            "--out", str(out)]
    for key, value in grids.items():
        argv += [f"--grid.{key}", str(value)]
    return {"name": name, "scenario": scenario, "argv": argv, "out": str(out),
            "params": params, "grids": grids}


def _spin_packet_tasks(rng: random.Random, seed: int, workdir: Path) -> list:
    tasks = []
    for points in SPIN_GRIDS:
        dm = rng.uniform(*FIG2_DELTA)
        lo, hi = FIG2_GAMMA_SHARE
        width = (hi - lo) / 4
        # one draw per quarter of the range keeps the list strictly rising
        gammas = [0.0] + [dm * rng.uniform(lo + i * width, lo + (i + 1) * width)
                          for i in range(4)]
        thetas = [rng.uniform(0.0, math.pi / 4), rng.uniform(math.pi / 4, math.pi / 2),
                  math.pi / 2]
        tasks.append(_scenario_task(
            f"fig2-entropy@{points}", "fig2-entropy",
            {"delta_over_m": dm, "gammas": gammas, "thetas": thetas},
            {"entropy_points": points}, seed, workdir))

        dm = rng.uniform(*PE_DELTA)
        gmax = dm * rng.uniform(*PE_GAMMA_MAX_SHARE)
        gammas = [gmax * rng.uniform(0.2, 0.3), gmax * rng.uniform(0.45, 0.55), gmax]
        tasks.append(_scenario_task(
            f"pe-gamma-scaling@{points}", "pe-gamma-scaling",
            {"delta_over_m": dm, "gammas": gammas},
            {"scaling_points": points}, seed, workdir))
    return tasks


def make_tasks(workload: str, seed: int, workdir: Path) -> list:
    """Draw the workload's inputs from seed, write their config files into
    workdir and return the task list."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spin-packets":
        return _spin_packet_tasks(rng, seed, workdir)
    if workload == "acceptance":
        out = workdir / "selfcheck.json"
        return [{"name": "selfcheck", "scenario": None,
                 "argv": ["--selfcheck", "--out", str(out)], "out": str(out),
                 "params": {}, "grids": {}}]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output parsing and checks

def _number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(path: Path) -> dict:
    """Metadata and numeric rows of an emitted scenario CSV."""
    meta, lines = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            meta[key.strip()] = _number(value.strip())
        elif line:
            lines.append(line)
    table = list(csv.reader(lines))
    return {"meta": meta, "columns": table[0],
            "rows": [[_number(c) for c in row] for row in table[1:]]}


def parse_output(task: dict) -> dict:
    """The task's output in the form reference.json stores."""
    path = Path(task["out"])
    if task["scenario"] is None:
        report = json.loads(path.read_text(encoding="utf-8"))
        return {"criteria": {c["name"]: {"passed": c["passed"], "measured": c["measured"]}
                             for c in report["criteria"]}}
    parsed = parse_csv(path)
    parsed["meta"].pop("version", None)
    return parsed


def _close(ref, got) -> bool:
    return abs(got - ref) <= max(REFERENCE_REL * max(abs(ref), abs(got)), REFERENCE_ABS)


def diff_reference(ref, got, where: str = "") -> list:
    """Places where got differs from ref; keys that only got has are ignored,
    so outputs may gain fields without failing."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                out += diff_reference(value, got[key], f"{where}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected {len(ref)} entries"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += diff_reference(r, g, f"{where}[{i}]")
        return out
    if isinstance(ref, bool) or not isinstance(ref, (int, float)):
        return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)) or not _close(ref, got):
        return [f"{where}: {got!r} != {ref!r}"]
    return []


def _check_fig2(task, out) -> list:
    rows = out["rows"]
    n = len(task["params"]["gammas"]) * len(task["params"]["thetas"])
    if len(rows) != n:
        return [f"expected {n} rows, got {len(rows)}"]
    problems = []
    if any(abs(s) > ENTROPY_ZERO for _, g, s in rows if g == 0.0):
        problems.append("entropy at gamma = 0 is not 0")
    side = sorted((g, s) for th, g, s in rows if math.isclose(th, math.pi / 2))
    if any(b[1] <= a[1] for a, b in zip(side, side[1:])):
        problems.append("entropy does not rise strictly with gamma at theta = pi/2")
    if any(s >= math.log(2.0) for _, _, s in rows):
        problems.append("entropy reaches ln 2")
    return problems


def _check_pe(task, out) -> list:
    meta = out["meta"]
    problems = []
    if len(out["rows"]) != len(task["params"]["gammas"]):
        problems.append("row count differs from the gamma list")
    lo, hi = EXPONENT_RANGE
    if not lo <= meta.get("fitted_exponent", math.nan) <= hi:
        problems.append(f"fitted exponent {meta.get('fitted_exponent')} outside [{lo}, {hi}]")
    if not meta.get("pe_rest", math.nan) < PE_REST_MAX:
        problems.append(f"rest-frame error {meta.get('pe_rest')} not below {PE_REST_MAX}")
    return problems


_INVARIANTS = {"fig2-entropy": _check_fig2, "pe-gamma-scaling": _check_pe}


def check_task(task: dict, code: int, reference: dict | None, validate) -> tuple:
    """(attempted, failures) for one finished task.

    validate is the CLI's own validate_emitted. A scenario task counts once;
    the self-check counts once per criterion. reference is the task's entry
    in reference.json, or None when no comparison applies.
    """
    if task["scenario"] is None:
        return _check_selfcheck(task, code, reference)
    where = task["name"]
    if code != 0:
        return 1, [f"{where}: exit code {code}"]
    try:
        validate(Path(task["out"]), "csv")
        out = parse_output(task)
        problems = _INVARIANTS[task["scenario"]](task, out)
    except (OSError, ValueError, IndexError, TypeError) as exc:
        return 1, [f"{where}: malformed output ({exc})"]
    if reference is not None:
        problems += diff_reference(reference, out, "reference")
    return 1, [f"{where}: {p}" for p in problems[:1]]


def _check_selfcheck(task: dict, code: int, reference: dict | None) -> tuple:
    """Each criterion must pass and, when a reference is given, measure what
    it measured when the reference was recorded."""
    try:
        got = parse_output(task)["criteria"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        n = len(reference["criteria"]) if reference else 1
        return n, [f"selfcheck: malformed report ({exc})"] * n
    expected = reference["criteria"] if reference else {name: {"passed": True}
                                                       for name in got}
    failures = []
    for name, ref in expected.items():
        problems = diff_reference(ref, got[name], name) if name in got else ["missing"]
        if problems:
            failures.append(f"{name}: {problems[0]}")
    if code != 0 and not failures:
        failures.append(f"selfcheck: exit code {code} with every criterion passing")
    return len(expected), failures
