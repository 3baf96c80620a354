"""Scenario runner: every module exposed as reproducible, file-emitting
subcommands with a flat config file and seeded determinism.

Exit codes: 0 success, 2 usage error (unknown scenario or bad flags),
3 validation failure (JSON diagnostic on stdout), 4 numerical acceptance
failure in self-check mode.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import (__version__, channel, horizon, photon, qstate, selfcheck,
               wavepacket)
from ._errors import DimensionError, ValidationError

SCENARIOS = (
    "fig2-entropy",
    "pe-gamma-scaling",
    "bipartite-concurrence",
    "photon-doppler",
    "photon-povm",
    "causality-bell",
    "teleport-check",
    "chsh",
    "cluster-bound",
    "unruh",
    "rindler",
    "blackhole-evaporate",
    "superscatter-demo",
)

USAGE_EXIT = 2
VALIDATION_EXIT = 3
NUMERICAL_EXIT = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _parse_value(raw: str):
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
    """Flat key = value file; '#' starts a comment."""
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


def _as_float_list(value, default) -> list:
    if value is None:
        return list(default)
    if isinstance(value, (int, float)):
        return [float(value)]
    return [float(v) for v in value]


def _constants_from(cfg: dict) -> horizon.PhysicalConstants:
    keys = ("hbar", "c", "G", "k_B")
    overrides = {k: float(cfg[f"constants.{k}"]) for k in keys
                 if f"constants.{k}" in cfg}
    if cfg.get("units", "si") == "geometric":
        base = horizon.GEOMETRIC
    else:
        base = horizon.SI
    if not overrides:
        return base
    values = {k: overrides.get(k, getattr(base, k)) for k in keys}
    return horizon.PhysicalConstants(**values)


# ---------------------------------------------------------------------------
# scenario bodies: each returns (columns, rows, extra_meta) for tables or
# (None, payload_dict, extra_meta) for object-shaped output

def _scn_fig2_entropy(cfg, grids, seed):
    dm = float(cfg.get("delta_over_m", 0.35))
    gammas = _as_float_list(cfg.get("gammas"),
                            [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
    thetas = _as_float_list(cfg.get("thetas"), [0.0, np.pi / 4, np.pi / 2])
    points = int(grids.get("entropy_points", 15))
    betas = [wavepacket.beta_for_gamma(g, dm, 1.0) for g in gammas]
    rows = wavepacket.entropy_surface(dm, betas, thetas, points=points)
    return (["theta_rad", "gamma", "entropy_nats"],
            [[th, g, s] for th, g, s in rows],
            {"delta_over_m": dm, "points_per_axis": points})


def _scn_pe_gamma_scaling(cfg, grids, seed):
    dm = float(cfg.get("delta_over_m", 0.1))
    gammas = _as_float_list(cfg.get("gammas"), [0.0125, 0.025, 0.05])
    points = int(grids.get("scaling_points", 15))
    report = wavepacket.packet_error_scaling(dm, gammas, points=points)
    rows = [[g, pe] for g, pe in zip(report["gamma"], report["pe_boosted"])]
    return (["gamma", "pe_boosted"], rows,
            {"delta_over_m": dm, "fitted_exponent": report["fitted_exponent"],
             "pe_rest": report["pe_rest"]})


def _scn_bipartite_concurrence(cfg, grids, seed):
    dm = float(cfg.get("delta_over_m", 0.3))
    rapidities = _as_float_list(cfg.get("rapidities"), [0.0, 0.5, 1.0, 2.0])
    points = int(grids.get("bipartite_points", 9))
    rows = wavepacket.bipartite_boost_concurrence(dm, rapidities, points=points)
    return (["rapidity", "concurrence"], [[r, c] for r, c in rows],
            {"delta_over_m": dm, "points_per_axis": points})


def _scn_photon_doppler(cfg, grids, seed):
    aperture = float(cfg.get("aperture", 0.05))
    velocities = _as_float_list(cfg.get("velocities"), [-0.5, -0.25, 0.25, 0.5])
    nt = int(grids.get("photon_theta", 32))
    nph = int(grids.get("photon_phi", 64))
    rows = []
    for v in velocities:
        out = photon.doppler_error_ratio(aperture, v, n_theta=nt, n_phi=nph)
        rows.append([aperture, v, out["P_E"], out["P_E_prime"], out["ratio"]])
    return (["aperture", "v", "P_E", "P_E_prime", "ratio"], rows, {})


def _scn_photon_povm(cfg, grids, seed):
    aperture = float(cfg.get("aperture", 0.2))
    pol = cfg.get("polarization", "linear-x")
    nt = int(grids.get("photon_theta", 32))
    nph = int(grids.get("photon_phi", 64))
    pk = photon.collimated_packet(aperture, polarization=pol, n_theta=nt,
                                  n_phi=nph)
    expectations = {ax: photon.povm_expectation(pk, ax) for ax in "xyz"}
    rho = photon.effective_density_matrix(pk)
    payload = {
        "aperture": aperture,
        "polarization": pol,
        "expectations": expectations,
        "expectation_sum": sum(expectations.values()),
        "effective_matrix_re": [[float(x.real) for x in row] for row in rho.matrix],
        "effective_matrix_im": [[float(x.imag) for x in row] for row in rho.matrix],
    }
    return None, payload, {}


def _scn_causality_bell(cfg, grids, seed):
    tol = float(cfg.get("tolerance", 1e-9))
    probes = int(cfg.get("haar_probes", 50))
    incomplete = channel.is_semicausal(channel.incomplete_bell_pvm(), "B->A",
                                       haar_probes=probes, seed=seed)
    complete = {
        direction: channel.is_semicausal(channel.complete_bell_pvm(), direction,
                                         haar_probes=probes, seed=seed).semicausal
        for direction in ("B->A", "A->B")
    }
    payload = {
        "incomplete_bell": incomplete.to_report("incomplete-bell", tol),
        "complete_bell_semicausal": complete,
        "advantage": incomplete.advantage,
    }
    return None, payload, {}


def _scn_teleport_check(cfg, grids, seed):
    draws = int(cfg.get("draws", 100))
    rng = np.random.default_rng(seed)
    worst_res, worst_fid = 0.0, 1.0
    for _ in range(draws):
        v = qstate.haar_state(2, rng)
        worst_res = max(worst_res, channel.teleport_identity_residual(v[0], v[1]))
        sim = channel.simulate_teleportation(v[0], v[1])
        worst_fid = min(worst_fid, sim["min_fidelity"])
    return None, {"draws": draws, "max_residual": worst_res,
                  "min_fidelity": worst_fid}, {}


def _scn_chsh(cfg, grids, seed):
    singlet = qstate.DensityMatrix.from_pure(channel.bell_state("psi-"))
    z_singlet, _ = channel.chsh_optimize(singlet)
    product = qstate.DensityMatrix.from_pure(
        np.kron([1, 0], [1, 0]).astype(complex))
    z_product, _ = channel.chsh_optimize(product)
    p = float(cfg.get("werner_p", 0.5))
    psim = channel.bell_state("psi-")
    werner = qstate.DensityMatrix(p * np.outer(psim, psim.conj())
                                  + (1 - p) * np.eye(4) / 4)
    z_werner, _ = channel.chsh_optimize(werner)
    rows = [["singlet", z_singlet], ["product_00", z_product],
            [f"werner_{_fmt(p)}", z_werner]]
    return (["state", "zeta_max"], rows,
            {"tsirelson_bound": float(np.sqrt(2.0))})


def _scn_cluster_bound(cfg, grids, seed):
    masses = _as_float_list(cfg.get("masses"), [0.5, 1.0, 2.0])
    seps = _as_float_list(cfg.get("separations"), [0.0, 1.0, float(np.log(4.0)), 5.0])
    rows = [[m, r, channel.cluster_chsh_bound(m, r)] for m in masses for r in seps]
    return ["mass", "separation", "bound"], rows, {}


def _scn_unruh(cfg, grids, seed):
    constants = _constants_from(cfg)
    accs = _as_float_list(cfg.get("accelerations"), [9.8, 1e10, 1e20])
    rows = [[a, horizon.unruh_temperature(a, constants)] for a in accs]
    return ["acceleration", "temperature"], rows, {"units": cfg.get("units", "si")}


def _scn_rindler(cfg, grids, seed):
    ratios = _as_float_list(cfg.get("omega_over_a"),
                            [0.05, 0.1, 0.2, 0.5, 1.0, 2.0])
    rows = []
    for r in ratios:
        st = horizon.rindler_mode_state(float(r), 1.0)
        rows.append([r, st.mean_occupation(), st.entropy()])
    return ["omega_over_a", "mean_n", "entropy"], rows, {}


def _scn_blackhole_evaporate(cfg, grids, seed):
    m0 = float(cfg.get("M0_kg", 1.0e9))
    k_evap = float(cfg.get("k_evap", horizon.K_EVAP_DEFAULT))
    n_samples = int(cfg.get("samples", 9))
    t_e = horizon.evaporation_lifetime(m0, k_evap)
    fractions = np.linspace(0.0, 1.0, n_samples)
    samples = [{"t": float(f * t_e),
                "M": horizon.evaporate(m0, f * t_e, k_evap).mass}
               for f in fractions]
    return None, {"M0_kg": m0, "t_E_s": t_e, "k_evap": k_evap,
                  "samples": samples}, {}


def _scn_superscatter_demo(cfg, grids, seed):
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


_RUNNERS = {
    "fig2-entropy": _scn_fig2_entropy,
    "pe-gamma-scaling": _scn_pe_gamma_scaling,
    "bipartite-concurrence": _scn_bipartite_concurrence,
    "photon-doppler": _scn_photon_doppler,
    "photon-povm": _scn_photon_povm,
    "causality-bell": _scn_causality_bell,
    "teleport-check": _scn_teleport_check,
    "chsh": _scn_chsh,
    "cluster-bound": _scn_cluster_bound,
    "unruh": _scn_unruh,
    "rindler": _scn_rindler,
    "blackhole-evaporate": _scn_blackhole_evaporate,
    "superscatter-demo": _scn_superscatter_demo,
}


# ---------------------------------------------------------------------------
# emission and validation

def _meta(scenario, seed, tols, extra) -> dict:
    meta = {"scenario": scenario, "version": __version__, "seed": seed}
    meta["tolerances"] = {k: tols[k] for k in sorted(tols)} if tols else {}
    meta.update({k: extra[k] for k in sorted(extra)})
    return meta


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
        tol_overrides: dict, grid_overrides: dict) -> None:
    """Execute a scenario and emit its table or report to out_path."""
    runner = _RUNNERS[scenario]
    columns, payload, extra = runner(config, grid_overrides, seed)
    meta = _meta(scenario, seed, tol_overrides, extra)
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
    """Split --tol.NAME and --grid.NAME options from the raw argument list."""
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
            target[key] = float(raw)
        except ValueError:
            raise ValidationError(f"flag {tok} needs a number, got {raw!r}") from None
        i += 1
    return tols, grids, rest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relqinfo",
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
    try:
        tol_overrides, grid_overrides, rest = _extract_dotted(list(argv))
    except ValidationError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}))
        return USAGE_EXIT
    parser = _build_parser()
    try:
        args = parser.parse_args(rest)
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
            tol_overrides, grid_overrides)
    except (ValidationError, DimensionError) as exc:
        print(json.dumps({"error": "validation", "scenario": args.scenario,
                          "detail": str(exc)}, sort_keys=True))
        return VALIDATION_EXIT
    print(f"wrote {out_path}")
    return 0


def _run_selfcheck(args, tol_overrides, grid_overrides, config) -> int:
    try:
        selfcheck._tols(tol_overrides)
        selfcheck._grids(grid_overrides)
    except KeyError as exc:
        print(json.dumps({"error": "usage", "detail": exc.args[0]}))
        return USAGE_EXIT
    # config may corrupt constants deliberately; guard before any numerics
    try:
        _constants_from(config)
        results = selfcheck.run_all(tol_overrides or None,
                                    grid_overrides or None)
    except (ValidationError, DimensionError) as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}))
        return VALIDATION_EXIT
    report = selfcheck.report_dict(results)
    for crit in report["criteria"]:
        status = "PASS" if crit["passed"] else (
            f"FAIL[{crit.get('failure_class', 'logic')}]")
        print(f"{crit['name']}: {status} "
              f"(tol {crit['tolerance_name']} = {_fmt(crit['tolerance'])})")
    if args.out:
        write_json(Path(args.out), report)
    return 0 if report["all_passed"] else NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
