"""Scenario runner: every module exposed as reproducible, file-emitting
subcommands with a flat config file and seeded determinism. SCENARIOS
declares the config keys and --grid.* names each scenario reads.

Exit codes: 0 success, 2 usage error (unknown scenario, bad or non-finite
flags, or a tolerance or grid name the run does not read), 3 validation
failure (JSON diagnostic on stdout), such as an undeclared config key, 4
numerical acceptance failure in self-check mode.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import (__version__, channel, horizon, photon, qstate, selfcheck,
               wavepacket)
from ._errors import DimensionError, ValidationError

USAGE_EXIT = 2
VALIDATION_EXIT = 3
NUMERICAL_EXIT = 4


def _fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _parse_value(raw: str):
    """A comma list of numbers as floats, else an int, a float or the text."""
    raw = raw.strip()
    if "," in raw:
        try:
            return [float(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            return raw
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            continue
    return raw


def load_config(path: str | None) -> dict:
    """Flat key = value file; '#' starts a comment; run checks the keys."""
    cfg: dict = {}
    if path is None:
        return cfg
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno} is not key = value")
        key, raw = line.split("=", 1)
        cfg[key.strip()] = _parse_value(raw)
    return cfg


def _read(cfg: dict, key: str, default):
    """cfg[key] in the type of its default, or the default when absent: a
    float takes a finite number; a list of floats, a comma list of them or
    one; an int, a count (a whole number >= 1); a tuple of words, one of them."""
    if key not in cfg:
        return default[0] if isinstance(default, tuple) else default
    value = cfg[key]
    if isinstance(default, tuple):
        if value in default:
            return value
        raise ValidationError(
            f"config key {key!r} needs one of {', '.join(default)}, got {value!r}")
    many = isinstance(default, list)
    try:
        numbers = [float(v) for v in (value if many and isinstance(value, list)
                                      else [value])]
    except (TypeError, ValueError, OverflowError):
        numbers = [math.nan]
    if numbers and all(map(math.isfinite, numbers)):
        if many:
            return numbers
        if isinstance(default, float):
            return numbers[0]
        if numbers[0].is_integer() and numbers[0] >= 1:
            return int(numbers[0])
    kind = ("a list of one or more finite numbers" if many else "a finite number"
            if isinstance(default, float) else "a whole number >= 1")
    raise ValidationError(f"config key {key!r} needs {kind}, got {value!r}")


def _params(config: dict, keys: dict) -> dict:
    """Every declared key's typed value; an undeclared key is invalid."""
    undeclared = sorted(set(config) - set(keys))
    if undeclared:
        raise ValidationError(f"undeclared config keys {undeclared}")
    return {key: _read(config, key, default) for key, default in keys.items()}


# ---------------------------------------------------------------------------
# scenario bodies: each takes its typed config values and grids in one dict
# and returns (columns, rows, extra_meta) for tables or (None, payload_dict,
# extra_meta) for object-shaped output

def _scn_fig2_entropy(p, seed):
    dm, points = p["delta_over_m"], p["entropy_points"]
    betas = [wavepacket.beta_for_gamma(g, dm, 1.0) for g in p["gammas"]]
    rows = wavepacket.entropy_surface(dm, betas, p["thetas"], points=points)
    return (["theta_rad", "gamma", "entropy_nats"],
            [[th, g, s] for th, g, s in rows],
            {"delta_over_m": dm, "points_per_axis": points})


def _scn_pe_gamma_scaling(p, seed):
    dm = p["delta_over_m"]
    report = wavepacket.packet_error_scaling(dm, p["gammas"],
                                             points=p["scaling_points"])
    rows = [[g, pe] for g, pe in zip(report["gamma"], report["pe_boosted"])]
    return (["gamma", "pe_boosted"], rows,
            {"delta_over_m": dm, "fitted_exponent": report["fitted_exponent"],
             "pe_rest": report["pe_rest"]})


def _scn_bipartite_concurrence(p, seed):
    dm, points = p["delta_over_m"], p["bipartite_points"]
    rows = wavepacket.bipartite_boost_concurrence(dm, p["rapidities"], points=points)
    return (["rapidity", "concurrence"], [[r, c] for r, c in rows],
            {"delta_over_m": dm, "points_per_axis": points})


def _scn_photon_doppler(p, seed):
    aperture = p["aperture"]
    rows = [[aperture, v, out["P_E"], out["P_E_prime"], out["ratio"]]
            for v, out in zip(p["velocities"], photon._doppler_ratios(
                aperture, p["velocities"], n_theta=p["photon_theta"],
                n_phi=p["photon_phi"]))]
    return (["aperture", "v", "P_E", "P_E_prime", "ratio"], rows, {})


def _scn_photon_povm(p, seed):
    pk = photon.collimated_packet(p["aperture"], polarization=p["polarization"],
                                  n_theta=p["photon_theta"], n_phi=p["photon_phi"])
    expectations = {ax: photon.povm_expectation(pk, ax) for ax in "xyz"}
    rho = photon.effective_density_matrix(pk)
    payload = {
        "aperture": p["aperture"],
        "polarization": p["polarization"],
        "expectations": expectations,
        "expectation_sum": sum(expectations.values()),
        "effective_matrix_re": [[float(x.real) for x in row] for row in rho.matrix],
        "effective_matrix_im": [[float(x.imag) for x in row] for row in rho.matrix],
    }
    return None, payload, {}


def _scn_causality_bell(p, seed):
    probes, tol = p["haar_probes"], p["tolerance"]
    incomplete = channel.is_semicausal(channel.incomplete_bell_pvm(), "B->A", tol=tol,
                                       haar_probes=probes, seed=seed)
    complete = {
        direction: channel.is_semicausal(channel.complete_bell_pvm(), direction, tol=tol,
                                         haar_probes=probes, seed=seed).semicausal
        for direction in ("B->A", "A->B")
    }
    payload = {
        "incomplete_bell": incomplete.to_report("incomplete-bell", tol),
        "complete_bell_semicausal": complete,
        "advantage": incomplete.advantage,
    }
    return None, payload, {}


def _scn_teleport_check(p, seed):
    draws = p["draws"]
    rng = np.random.default_rng(seed)
    states = np.array([qstate.haar_state(2, rng) for _ in range(draws)])
    residuals, _, fidelities = channel._teleport_batch(states)
    return None, {"draws": draws, "max_residual": float(residuals.max()),
                  "min_fidelity": float(fidelities.min())}, {}


def _scn_chsh(p, seed):
    psim = channel.bell_state("psi-")
    z_singlet, _ = channel.chsh_optimize(qstate.DensityMatrix.from_pure(psim))
    z_product, _ = channel.chsh_optimize(
        qstate.DensityMatrix.from_pure(np.kron([1, 0], [1, 0]).astype(complex)))
    wp = p["werner_p"]
    werner = qstate.DensityMatrix(wp * np.outer(psim, psim.conj())
                                  + (1 - wp) * np.eye(4) / 4)
    z_werner, _ = channel.chsh_optimize(werner)
    rows = [["singlet", z_singlet], ["product_00", z_product],
            [f"werner_{_fmt(wp)}", z_werner]]
    return (["state", "zeta_max"], rows,
            {"tsirelson_bound": float(np.sqrt(2.0))})


def _scn_cluster_bound(p, seed):
    rows = [[m, r, channel.cluster_chsh_bound(m, r)]
            for m in p["masses"] for r in p["separations"]]
    return ["mass", "separation", "bound"], rows, {}


def _scn_unruh(p, seed):
    base = horizon.GEOMETRIC if p["units"] == "geometric" else horizon.SI
    given = {k: p[f"constants.{k}"] for k in ("hbar", "c", "k_B")}
    constants = dataclasses.replace(
        base, **{k: v for k, v in given.items() if not math.isnan(v)})
    rows = [[a, horizon.unruh_temperature(a, constants)] for a in p["accelerations"]]
    return ["acceleration", "temperature"], rows, {"units": p["units"]}


def _scn_rindler(p, seed):
    rows = []
    for r in p["omega_over_a"]:
        st = horizon.rindler_mode_state(float(r), 1.0)
        rows.append([r, st.mean_occupation(), st.entropy()])
    return ["omega_over_a", "mean_n", "entropy"], rows, {}


def _scn_blackhole_evaporate(p, seed):
    m0, k_evap = p["M0_kg"], p["k_evap"]
    t_e = horizon.evaporation_lifetime(m0, k_evap)
    fractions = np.linspace(0.0, 1.0, p["samples"])
    samples = [{"t": float(f * t_e),
                "M": horizon.evaporate(m0, f * t_e, k_evap).mass}
               for f in fractions]
    return None, {"M0_kg": m0, "t_E_s": t_e, "k_evap": k_evap,
                  "samples": samples}, {}


def _scn_superscatter_demo(p, seed):
    rng = np.random.default_rng(seed)
    s = qstate.haar_unitary(4, rng)
    rho_in = qstate.DensityMatrix.from_pure(qstate.haar_state(2, rng))
    rho_out = horizon.superscattering(s, rho_in)
    ks = horizon.superscattering_kraus(s, 2)
    _, cp, min_eig = channel.choi_and_cp_check(ks)
    payload = {
        "input_purity": float(np.trace(rho_in.matrix @ rho_in.matrix).real),
        "output_purity": float(np.trace(rho_out.matrix @ rho_out.matrix).real),
        "output_entropy_nats": qstate.von_neumann_entropy(rho_out),
        "output_trace": float(np.trace(rho_out.matrix).real),
        "cp_certified": bool(cp),
        "choi_min_eig": min_eig,
    }
    return None, payload, {}


# name: (body, config keys with defaults, --grid.* names). A default's type
# is its key's type (see _read); a constants.* key's nan stands for the value
# in the chosen units. Grid defaults are selfcheck.DEFAULT_GRIDS.
SCENARIOS = {
    "fig2-entropy": (_scn_fig2_entropy, {
        "delta_over_m": 0.35, "gammas": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
        "thetas": [0.0, np.pi / 4, np.pi / 2]}, ("entropy_points",)),
    "pe-gamma-scaling": (_scn_pe_gamma_scaling, {
        "delta_over_m": 0.1, "gammas": [0.0125, 0.025, 0.05]}, ("scaling_points",)),
    "bipartite-concurrence": (_scn_bipartite_concurrence, {
        "delta_over_m": 0.3, "rapidities": [0.0, 0.5, 1.0, 2.0]}, ("bipartite_points",)),
    "photon-doppler": (_scn_photon_doppler, {"aperture": 0.05,
        "velocities": [-0.5, -0.25, 0.25, 0.5]}, ("photon_theta", "photon_phi")),
    "photon-povm": (_scn_photon_povm, {
        "aperture": 0.2, "polarization": ("linear-x", "linear-y", "plus", "minus")},
        ("photon_theta", "photon_phi")),
    "causality-bell": (_scn_causality_bell, {"tolerance": 1e-9, "haar_probes": 50}, ()),
    "teleport-check": (_scn_teleport_check, {"draws": 100}, ()),
    "chsh": (_scn_chsh, {"werner_p": 0.5}, ()),
    "cluster-bound": (_scn_cluster_bound, {"masses": [0.5, 1.0, 2.0],
        "separations": [0.0, 1.0, float(np.log(4.0)), 5.0]}, ()),
    "unruh": (_scn_unruh, {
        "units": ("si", "geometric"), "constants.hbar": math.nan,
        "constants.c": math.nan, "constants.k_B": math.nan,
        "accelerations": [9.8, 1e10, 1e20]}, ()),
    "rindler": (_scn_rindler, {"omega_over_a": [0.05, 0.1, 0.2, 0.5, 1.0, 2.0]}, ()),
    "blackhole-evaporate": (_scn_blackhole_evaporate, {
        "M0_kg": 1.0e9, "k_evap": horizon.K_EVAP_DEFAULT, "samples": 9}, ()),
    "superscatter-demo": (_scn_superscatter_demo, {}, ()),
}


# ---------------------------------------------------------------------------
# emission and validation

def write_csv(path: Path, columns, rows, meta: dict) -> None:
    import csv
    import io

    buf = io.StringIO()
    for key, value in meta.items():
        if isinstance(value, dict):
            for k2 in sorted(value):
                buf.write(f"# {key}.{k2} = {_fmt(value[k2])}\n")
        else:
            buf.write(f"# {key} = {_fmt(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    path.write_text(buf.getvalue(), encoding="utf-8")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def validate_emitted(path: Path, fmt: str) -> None:
    """Round-trip the emitted file through its schema check."""
    import csv

    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "meta" not in obj:
            raise ValidationError("emitted JSON lacks the meta object")
        for key in ("scenario", "version", "seed"):
            if key not in obj["meta"]:
                raise ValidationError(f"emitted JSON meta lacks {key!r}")
        return
    lines = [ln for ln in text.splitlines() if ln]
    header_idx = next((i for i, ln in enumerate(lines)
                       if not ln.startswith("#")), None)
    if header_idx is None:
        raise ValidationError("emitted CSV lacks a header row")
    meta_keys = {ln[2:].split("=", 1)[0].strip() for ln in lines[:header_idx]}
    for key in ("scenario", "version", "seed"):
        if key not in meta_keys:
            raise ValidationError(f"emitted CSV metadata lacks {key!r}")
    parsed = list(csv.reader(lines[header_idx:]))
    ncol = len(parsed[0])
    for cells in parsed[1:]:
        if len(cells) != ncol:
            raise ValidationError("emitted CSV row width mismatch")
        if any(not cell.strip() for cell in cells):
            raise ValidationError("emitted CSV has an empty cell")


def run(scenario: str, config: dict, seed: int, out_path: Path, fmt: str,
        grid_overrides: dict) -> None:
    """Execute a scenario on its declared config keys and grids and emit
    its table or report to out_path."""
    body, keys, grids = SCENARIOS[scenario]
    params = _params(config, keys)
    params.update({g: grid_overrides.get(g, selfcheck.DEFAULT_GRIDS[g]) for g in grids})
    try:
        columns, payload, extra = body(params, seed)
    except (ValidationError, DimensionError) as exc:  # a callee cannot name the key
        raise type(exc)(str(exc), {k: params[k] for k in sorted(config)}) from exc
    meta = {"scenario": scenario, "version": __version__, "seed": seed,
            "tolerances": {}, **{k: extra[k] for k in sorted(extra)}}
    if columns is None:
        # object-shaped reports are JSON-native; csv mode wraps them as
        # key,value rows with JSON-encoded values
        if fmt == "csv":
            rows = [[k, json.dumps(payload[k], sort_keys=True)]
                    for k in sorted(payload)]
            write_csv(out_path, ["key", "value"], rows, meta)
        else:
            write_json(out_path, {"meta": meta, "data": payload})
    else:
        if fmt == "json":
            write_json(out_path, {"meta": meta, "columns": columns,
                                  "rows": payload})
        else:
            write_csv(out_path, columns, payload, meta)
    validate_emitted(out_path, fmt)


# ---------------------------------------------------------------------------
# argument handling

def _extract_dotted(argv: list) -> tuple:
    """Split --tol.NAME and --grid.NAME options from the raw argument list.

    Every value must be a number; a whole grid value is returned as an
    int. main checks the names and values against selfcheck and SCENARIOS."""
    tols, grids, rest = {}, {}, []
    i = 0
    while i < len(argv):
        tok = argv[i]
        target = None
        if tok.startswith("--tol."):
            target, key = tols, tok[len("--tol."):]
        elif tok.startswith("--grid."):
            target, key = grids, tok[len("--grid."):]
        if target is None:
            rest.append(tok)
            i += 1
            continue
        if "=" in key:
            key, raw = key.split("=", 1)
        else:
            i += 1
            if i >= len(argv):
                raise ValidationError(f"flag {tok} is missing a value")
            raw = argv[i]
        try:
            value = float(raw)
        except ValueError:
            raise ValidationError(f"flag {tok} needs a number, got {raw!r}") from None
        target[key] = int(value) if target is grids and value.is_integer() else value
        i += 1
    return tols, grids, rest


def _build_parser() -> argparse.ArgumentParser:
    epilog = "config keys and --grid.* names of each scenario:\n" + "\n".join(
        f"  {name}: " + (" ".join([*keys, *(f"--grid.{g}" for g in grids)]) or "none")
        for name, (_, keys, grids) in SCENARIOS.items())
    parser = argparse.ArgumentParser(
        prog="relqinfo", epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Run relativistic-quantum-information scenarios or the "
                    "acceptance self-check.")
    parser.add_argument("--scenario", choices=SCENARIOS,
                        help="scenario to run")
    parser.add_argument("--config", help="flat key = value parameter file")
    parser.add_argument("--seed", type=int, default=20240901,
                        help="64-bit seed recorded in all outputs")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the acceptance criteria suite")
    return parser


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        tol_overrides, grid_overrides, rest = _extract_dotted(list(argv))
        args = parser.parse_args(rest)
        selfcheck._tols(tol_overrides)
        selfcheck._grids(grid_overrides)
        if args.scenario and not args.selfcheck:
            grids = SCENARIOS[args.scenario][2]
            unread = [*(f"--tol.{k}" for k in tol_overrides),
                      *(f"--grid.{k}" for k in grid_overrides if k not in grids)]
            if unread:
                raise ValidationError(f"{args.scenario} does not read {unread}")
    except (KeyError, ValidationError) as exc:
        print(json.dumps({"error": "usage", "detail": exc.args[0]}))
        return USAGE_EXIT
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0

    try:
        config = load_config(args.config)
    except (OSError, ValidationError) as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}))
        return VALIDATION_EXIT

    if args.selfcheck:
        return _run_selfcheck(args, tol_overrides, grid_overrides, config)

    if not args.scenario:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    out_path = Path(args.out) if args.out else Path(
        f"{args.scenario}.{args.format}")
    try:
        run(args.scenario, config, args.seed, out_path, args.format,
            grid_overrides)
    except (ValidationError, DimensionError) as exc:  # args: message[, config]
        diag = dict(zip(("detail", "config"), exc.args))
        print(json.dumps({"error": "validation", "scenario": args.scenario, **diag},
                         sort_keys=True))
        return VALIDATION_EXIT
    print(f"wrote {out_path}")
    return 0


def _run_selfcheck(args, tol_overrides, grid_overrides, config) -> int:
    try:
        _params(config, {})  # the criteria read no config key
        results = selfcheck.run_all(tol_overrides or None,
                                    grid_overrides or None)
    except (ValidationError, DimensionError) as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}))
        return VALIDATION_EXIT
    report = selfcheck.report_dict(results)
    for crit in report["criteria"]:
        failed = "; ".join(  # 'key relation [name =] bound (margin m)'
            f"{c['key']} {c['relation']} " + (f"{c['bound_name']} = " if c["bound_name"] else "")
            + f"{c['bound']}" + (f" (margin {c['margin']:.3g})" if "margin" in c else "")
            for c in crit["checks"] if not c["holds"])
        status = f"FAIL[{crit['failure_class']}] {failed}" if failed else "PASS"
        print(f"{crit['name']}: {status}")
    if args.out:
        write_json(Path(args.out), report)
    return 0 if report["all_passed"] else NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
