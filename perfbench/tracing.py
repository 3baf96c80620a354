"""Span tracing around the public functions of each relqinfo module.

The benchmark wraps the functions and class constructors listed in SPANS
from the outside; nothing under src/ changes. A span records its name,
start, end, parent span and task id. Spans stay in memory until the pass
ends; self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_kernel(counters, args, kwargs, result):
    lam, momenta = _arg(args, kwargs, 0, "lam"), _arg(args, kwargs, 1, "P")
    counters["kernels.wigner_su2_batch.points"] += len(momenta)
    counters["kernels.wigner_su2_batch.bytes_computed"] += (
        lam.nbytes + momenta.nbytes + sum(a.nbytes for a in result))


def _count_rays(counters, args, kwargs, result):
    counters["lorentz.helicity_phase_batch.rays"] += len(_arg(args, kwargs, 1, "ks"))


def _count_boost_bipartite(counters, args, kwargs, result):
    packet = _arg(args, kwargs, 0, "packet")
    counters["wavepacket.bipartite.bytes_computed"] += (
        packet.amplitudes.nbytes + result.amplitudes.nbytes)


def _count_reduce_pair(counters, args, kwargs, result):
    counters["wavepacket.bipartite.bytes_computed"] += (
        _arg(args, kwargs, 0, "packet").amplitudes.nbytes)


def _criterion_span(args, kwargs):
    return "selfcheck." + _arg(args, kwargs, 0, "crit").name


# (module, attribute, span name, counter). A class is traced through its
# __init__, so every construction is seen, including those made inside
# inverse() and @. Several CLI writers share the span cli.emit.
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "run", "cli.run", None),
    ("cli", "write_csv", "cli.emit", None),
    ("cli", "write_json", "cli.emit", None),
    ("cli", "validate_emitted", "cli.emit", None),
    ("selfcheck", "run_criterion", _criterion_span, None),
    ("kernels", "wigner_su2_batch", "kernels.wigner_su2_batch", _count_kernel),
    ("wavepacket", "gaussian_packet", "wavepacket.gaussian_packet", None),
    ("wavepacket", "boost_packet", "wavepacket.boost_packet", None),
    ("wavepacket", "reduced_spin", "wavepacket.reduced_spin", None),
    ("wavepacket", "singlet_packet", "wavepacket.singlet_packet", None),
    ("wavepacket", "boost_bipartite", "wavepacket.boost_bipartite", _count_boost_bipartite),
    ("wavepacket", "reduced_spin_pair", "wavepacket.reduced_spin_pair", _count_reduce_pair),
    ("wavepacket", "SpinorPacket", "wavepacket.SpinorPacket", None),
    ("wavepacket", "BipartitePacket", "wavepacket.BipartitePacket", None),
    ("lorentz", "helicity_phase_batch", "lorentz.helicity_phase_batch", _count_rays),
    ("lorentz", "standard_boost_massless", "lorentz.standard_boost_massless", None),
    ("lorentz", "standard_boost_massive", "lorentz.standard_boost_massive", None),
    ("lorentz", "wigner_rotation", "lorentz.wigner_rotation", None),
    ("lorentz", "LorentzTransform", "lorentz.LorentzTransform", None),
    ("photon", "collimated_packet", "photon.collimated_packet", None),
    ("photon", "boost_packet", "photon.boost_packet", None),
    ("photon", "effective_density_matrix", "photon.effective_density_matrix", None),
    ("photon", "povm_expectation", "photon.povm_expectation", None),
    ("photon", "naive_density_matrix", "photon.naive_density_matrix", None),
    ("qstate", "von_neumann_entropy", "qstate.von_neumann_entropy", None),
    ("qstate", "error_probability", "qstate.error_probability", None),
    ("qstate", "concurrence", "qstate.concurrence", None),
    ("qstate", "DensityMatrix", "qstate.DensityMatrix", None),
    ("channel", "is_semicausal", "channel.is_semicausal", None),
    ("channel", "chsh_optimize", "channel.chsh_optimize", None),
    ("channel", "choi_and_cp_check", "channel.choi_and_cp_check", None),
    ("channel", "simulate_teleportation", "channel.simulate_teleportation", None),
    ("channel", "teleport_identity_residual", "channel.teleport_identity_residual", None),
    ("channel", "simulate_locc_protocol", "channel.simulate_locc_protocol", None),
    ("horizon", "detector_response", "horizon.detector_response", None),
    ("horizon", "rindler_mode_state", "horizon.rindler_mode_state", None),
    ("horizon", "evaporate", "horizon.evaporate", None),
    ("horizon", "first_law_residual", "horizon.first_law_residual", None),
)

# Spans whose inclusive time is reported too (<span>.s).
ENTRY_SPANS = ("cli.main",)
CRITERIA = (
    "01-incomplete-bell-advantage", "02-complete-bell-semicausal",
    "03-locc-matches-global-pvm", "04-teleportation-identity", "05-chsh-tsirelson",
    "06-choi-cp-certification", "07-wigner-machinery", "08-spin-entropy-surface",
    "09-distinguishability-scaling", "10-bipartite-concurrence", "11-photon-povm",
    "12-photon-doppler-law", "13-aberration-small-angle", "14-unruh-rindler",
    "15-black-hole-thermodynamics", "16-noncovariance-cp-failure",
)
COUNTERS = ("kernels.wigner_su2_batch.points", "kernels.wigner_su2_batch.bytes_computed",
            "lorentz.helicity_phase_batch.rays", "wavepacket.bipartite.bytes_computed")
# Import self time (python -X importtime) per relqinfo module; numpy and
# scipy sum their submodules.
IMPORT_MODULES = ("relqinfo", "relqinfo._errors", "relqinfo.qstate", "relqinfo.channel",
                  "relqinfo.lorentz", "relqinfo._wigner_np", "relqinfo.kernels",
                  "relqinfo.wavepacket", "relqinfo.photon", "relqinfo.horizon",
                  "relqinfo.selfcheck", "relqinfo.cli", "numpy", "scipy")


def span_names() -> list:
    names = []
    for _, _, name, _ in SPANS:
        if isinstance(name, str) and name not in names:
            names.append(name)
    return names


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = [(f"import.{m}.self_s", "s") for m in IMPORT_MODULES]
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name in ENTRY_SPANS:
            out.append((f"{name}.s", "s"))
    out += [(f"selfcheck.{c}.s", "s") for c in CRITERIA]
    out += [(c, "B" if c.endswith("bytes_computed") else "count") for c in COUNTERS]
    out += [("kernels.wigner_su2_batch.ns_per_point", "ns"),
            ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]
    return out


class Tracer:
    """Collects spans and counters for the passes it is installed for."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.records: list = []  # (name id, start ns, end ns, parent index, task)
        self.counters: dict = dict.fromkeys(COUNTERS, 0)
        self.task = -1
        self._stack: list = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span, fn, counter=None):
        records, stack, clock = self.records, self._stack, time.perf_counter_ns
        fixed = self._name_id(span) if isinstance(span, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(span(args, kwargs))
            idx = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[idx] = (nid, start, end, parent, self.task)
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every SPANS entry, rebinding each relqinfo module that
        imported a wrapped function by value."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "relqinfo" or name.startswith("relqinfo.")]
        for module, attr, span, counter in SPANS:
            target = getattr(importlib.import_module(f"relqinfo.{module}"), attr)
            if isinstance(target, type):
                init = target.__dict__["__init__"]
                target.__init__ = self.wrap(span, init, counter)
                self._undo.append((target, "__init__", init))
                continue
            traced = self.wrap(span, target, counter)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is target]:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, target))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def take(self) -> tuple:
        """Aggregate and clear the recorded spans and counters.

        Returns ({span: (calls, inclusive s, self s)}, counters, arrays) where
        arrays holds the raw spans as numpy columns.
        """
        import numpy as np

        rec = np.array(self.records, dtype=np.int64).reshape(-1, 5)
        nid, start, end, parent, task = rec.T
        dur = end - start
        covered = np.zeros(len(rec), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_ns = dur - covered
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        incl = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=self_ns, minlength=n)
        spans = {name: (int(calls[i]), incl[i] * 1e-9, own[i] * 1e-9)
                 for i, name in enumerate(self.names)}
        counters = dict(self.counters)
        origin = int(start.min()) if len(rec) else 0
        arrays = {"name_id": nid, "start_ns": start - origin, "end_ns": end - origin,
                  "parent": parent, "task": task, "names": np.array(self.names)}
        self.records.clear()
        self.counters = dict.fromkeys(COUNTERS, 0)
        return spans, counters, arrays


def parse_importtime(stderr: str) -> dict:
    """Self seconds per IMPORT_MODULES entry from `python -X importtime`."""
    totals = dict.fromkeys(IMPORT_MODULES, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        module, self_us = fields[2].strip(), int(fields[0])
        if module in totals and module.startswith("relqinfo"):
            totals[module] += self_us * 1e-6
            continue
        root = module.split(".", 1)[0]
        if root in ("numpy", "scipy"):
            totals[root] += self_us * 1e-6
    return totals
