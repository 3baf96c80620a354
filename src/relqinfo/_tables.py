"""The tolerances and grid sizes of the acceptance criteria: the
--tol.NAME and --grid.NAME tables, whose grids the scenarios' --grid.*
defaults share. The CLI checks flags against them and selfcheck reads them
from here, so neither loads the other to do so.
"""
from __future__ import annotations

import math

from .qstate import _is_count

DEFAULT_TOLS = {
    "bell_advantage": 1e-9,
    "semicausal_shift": 1e-12,
    "locc_tv": 1e-12,
    "teleport": 1e-12,
    "chsh_singlet": 1e-6,
    "chsh_product": 1e-9,
    "tsirelson": 1e-9,
    "choi_transpose": 1e-10,
    "standard_boost": 1e-10,
    "wigner_rotation": 1e-10,
    "representation": 1e-8,
    "entropy_zero": 1e-12,
    "entropy_convergence": 0.05,
    "exponent_low": 1.8,
    "exponent_high": 2.2,
    "inverse_restore": 1e-8,
    "concurrence_rest": 1e-3,
    "concurrence_restore": 1e-6,
    "povm_completeness": 1e-10,
    "effective_naive": 1e-10,
    "doppler_ratio": 0.02,
    "aberration": 1e-3,
    "detailed_balance": 1e-12,
    "rindler_entropy": 1e-10,
    "mean_occupation": 1e-12,
    "bh_scaling": 1e-12,
    "first_law": 1e-7,
    "evaporate_half": 1e-9,
    "evaporate_ode": 1e-3,
    "hawking_pin": 1e-3,
    "noncovariance_gap": 1e-4,
    "cp_margin": 1e-6,
}

DEFAULT_GRIDS = {
    "entropy_points": 15,
    "entropy_points_coarse": 11,
    "entropy_points_fine": 21,
    "scaling_points": 15,
    "bipartite_points": 9,
    "photon_theta": 32,
    "photon_phi": 64,
    "povm_packets": 500,
    "povm_theta": 12,
    "povm_phi": 16,
    "chsh_draws": 10000,
    "teleport_draws": 100,
    "locc_draws": 50,
    "momentum_draws": 1000,
}


def _tols(overrides: dict | None) -> dict:
    t = dict(DEFAULT_TOLS)
    if overrides:
        unknown = set(overrides) - set(t)
        if unknown:
            raise KeyError(f"unknown tolerance names: {sorted(unknown)}")
        bad = {k: v for k, v in overrides.items() if not math.isfinite(float(v))}
        if bad:
            raise KeyError(f"tolerance values must be finite numbers: {bad}")
        t.update(overrides)
    return t


def _grids(overrides: dict | None) -> dict:
    g = dict(DEFAULT_GRIDS)
    if overrides:
        unknown = set(overrides) - set(g)
        if unknown:
            raise KeyError(f"unknown grid names: {sorted(unknown)}")
        bad = {k: v for k, v in overrides.items() if not _is_count(v)}
        if bad:
            raise KeyError(f"grid values must be finite whole numbers >= 1: {bad}")
        g.update({k: int(v) for k, v in overrides.items()})
    return g
