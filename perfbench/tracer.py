"""Per-layer tracing of gtattack from outside the package.

The tracer replaces public functions and methods of the ``gtattack``
modules with timing wrappers, at every name they are bound to (``from x
import f`` copies the binding, so ``eig_sym`` must be patched in
``spectral``, ``models.san`` and ``train`` alike).  Each call records a span
(name, start, end, parent, trace id) in memory; self time is a span's
duration minus the part of it covered by its child spans.  Counters are
taken at the same boundaries.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import logging
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, "module" or "module:Class", attribute).  A module target is
# wrapped at every gtattack binding of the function; a class target is the
# method on that class.  Targets are looked up at install time, so a layer
# that a later version removes is skipped and reports zero calls.
SPANS = [
    ("spectral.eig_sym", "spectral", "eig_sym"),
    ("spectral.degenerate_alignment", "spectral", "degenerate_alignment"),
    ("spectral.perturbation_operator", "spectral", "perturbation_operator"),
    ("paths.rspd_matrix", "paths", "rspd_matrix"),
    ("kernels.bfs_hops", "_kernels", "bfs_hops"),
    ("models.gcn.forward", "models.gcn:GCN", "forward"),
    ("models.gcn.forward_discrete", "models.gcn:GCN", "forward_discrete"),
    ("models.grit.forward", "models.grit:GRIT", "forward"),
    ("models.grit.forward_discrete", "models.grit:GRIT", "forward_discrete"),
    ("models.grit.rrwp", "models.grit", "rrwp"),
    ("models.graphormer.forward", "models.graphormer:Graphormer", "forward"),
    ("models.graphormer.forward_discrete", "models.graphormer:Graphormer", "forward_discrete"),
    ("models.san.forward", "models.san:SAN", "forward"),
    ("models.san.forward_discrete", "models.san:SAN", "forward_discrete"),
    ("autodiff.backward", "autodiff", "backward"),
    ("optim.adam_step", "optim", "adam_step"),
    ("train.train_model", "train", "train_model"),
    ("train.evaluate_accuracy", "train", "evaluate_accuracy"),
    ("generators.make_cluster_dataset", "generators", "make_cluster_dataset"),
    ("generators.make_tree_dataset", "generators", "make_tree_dataset"),
    ("attack.run_attack", "attack.runner", "run_attack"),
    ("attack.random_baseline", "attack.runner", "random_baseline"),
    ("attack.prbcd_step", "attack.structure", "prbcd_step"),
    ("attack.project_budget", "attack.projection", "project_budget"),
    ("attack.resample_block", "attack.structure", "resample_block"),
    ("attack.sample_discrete", "attack.structure", "sample_discrete"),
    ("attack.evaluate_discrete", "attack.runner:AttackRun", "evaluate_discrete"),
    ("attack.prune_disconnected", "attack.injection", "prune_disconnected"),
    ("attack.node_probability", "attack.injection", "node_probability"),
    ("attack.mst_projection", "attack.injection", "mst_projection"),
    ("attack.build_candidate_set", "attack.injection", "build_candidate_set"),
    ("attack.transfer_attack", "attack.runner", "transfer_attack"),
    ("graphs.connected_components", "graphs", "connected_components"),
    ("graphs.save_dataset", "graphs", "save_dataset"),
    ("graphs.load_dataset", "graphs", "load_dataset"),
    ("experiment.cmd_generate", "experiment", "cmd_generate"),
    ("experiment.cmd_train", "experiment", "cmd_train"),
    ("experiment.cmd_attack", "experiment", "cmd_attack"),
    ("experiment.cmd_report", "experiment", "cmd_report"),
]

RSPD_BACKWARD = "paths.rspd_matrix.backward"

# Totals over the traced run, and means over the events that produce them.
SUM_COUNTERS = ["spectral.clamped_gaps", "paths.unreachable_pairs", "io.bytes_written"]
MEAN_COUNTERS = ["autodiff.tape_ops", "attack.kept_ratio", "attack.effective_flip_ratio"]

SPECTRAL_LOGGER = "gtattack.spectral"

SPAN_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for name, _, _ in SPANS:
        for field, unit in SPAN_FIELDS:
            units[f"{name}.{field}"] = unit
    units["paths.rspd_matrix.backward_s"] = "s"
    units["spectral.clamped_gaps"] = "count"
    units["paths.unreachable_pairs"] = "count"
    units["io.bytes_written"] = "bytes"
    units["autodiff.tape_ops"] = "ops/pass"
    units["attack.kept_ratio"] = "ratio"
    units["attack.effective_flip_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus the union of the
    intervals of its direct children.  ``spans`` holds
    ``[name, start, end, parent_index, trace_id]`` records."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(spans: list) -> dict[str, dict[str, float]]:
    """calls, busy time and self time per span name.

    Busy time counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice."""
    selfs = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                                           "self_s": 0.0})
    for idx, (name, start, end, parent, _) in enumerate(spans):
        entry = agg[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[idx]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["busy_s"] += end - start
    return dict(agg)


class _ClampCounter(logging.Handler):
    """Counts eigen-gaps clamped by ``spectral.perturbation_operator``."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.args and isinstance(record.args[0], int):
            self.tracer.add("spectral.clamped_gaps", record.args[0])


class Tracer:
    """In-memory spans and counters around the gtattack layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.trace_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._handler: _ClampCounter | None = None

    # -- recording ----------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.trace_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.sums[counter] += value

    def sample(self, counter: str, value: float) -> None:
        self.samples[counter].append(value)

    def timed(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- installation -------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _patch(self, target: str, attr: str, wrap) -> None:
        """Replace ``target.attr`` by ``wrap(original)``: on a class, that one
        attribute; on a module, every gtattack binding of the original.  A
        target that no longer exists is skipped."""
        owner = _resolve(target)
        original = None if owner is None else owner.__dict__.get(attr)
        if original is None:
            return
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        else:
            self._patches += rebind(original, wrap(original))

    def install(self) -> None:
        """Wrap every SPANS entry at all its bindings, plus the counter hooks."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        _resolve("cli")  # imports every module, so that rebind sees every binding
        after = {
            "paths.rspd_matrix": self._after_rspd,
            "attack.prune_disconnected": self._after_prune,
            "attack.run_attack": self._after_run_attack,
        }
        for name, owner, attr in SPANS:
            self._patch(owner, attr,
                        lambda fn, name=name: self.timed(name, fn, after.get(name)))
        self._hook_counters()

    def _hook_counters(self) -> None:
        tracer = self

        def counted_clear(clear):
            def wrapper(tape):
                tracer.sample("autodiff.tape_ops", len(tape.nodes))
                return clear(tape)

            return wrapper

        def sized_save(save):
            def wrapper(obj, path):
                out = save(obj, path)
                tracer.add("io.bytes_written", os.path.getsize(path))
                return out

            return wrapper

        self._patch("autodiff:Tape", "clear", counted_clear)
        self._patch("attack.config:PerturbationResult", "save", sized_save)
        self._patch("experiment:ResultsTable", "save", sized_save)
        self._handler = _ClampCounter(self)
        logging.getLogger(SPECTRAL_LOGGER).addHandler(self._handler)

    def uninstall(self) -> None:
        """Restore every patched binding, in reverse order of patching."""
        unbind(self._patches)
        self._patches.clear()
        if self._handler is not None:
            logging.getLogger(SPECTRAL_LOGGER).removeHandler(self._handler)
            self._handler = None

    # -- counter hooks ------------------------------------------------------
    def _after_rspd(self, args, out) -> None:
        self.add("paths.unreachable_pairs", int(np.isinf(out.data).sum()))
        node = out.node
        if node is not None:
            node.vjps = tuple(self.timed(RSPD_BACKWARD, v) for v in node.vjps)

    def _after_prune(self, args, out) -> None:
        atilde = args[0]
        self.sample("attack.kept_ratio", len(out[1]) / atilde.shape[0])

    def _after_run_attack(self, args, result) -> None:
        if result.budget > 0:
            self.sample("attack.effective_flip_ratio", len(result.flips) / result.budget)

    # -- results ------------------------------------------------------------
    def retime(self, convert) -> None:
        """Map every span's start and end through ``convert``, which takes
        an array of ``perf_counter`` readings (see ``Clock.to_nominal``)."""
        if not self.spans:
            return
        times = convert([t for span in self.spans for t in (span[1], span[2])])
        for span, (start, end) in zip(self.spans, times.reshape(-1, 2)):
            span[1], span[2] = float(start), float(end)

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric of ``metric_units`` from the spans so far."""
        agg = aggregate(self.spans)
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            entry = agg.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for field, _ in SPAN_FIELDS:
                out[f"{name}.{field}"] = entry[field]
        out["paths.rspd_matrix.backward_s"] = agg.get(RSPD_BACKWARD, {"busy_s": 0.0})["busy_s"]
        for counter in SUM_COUNTERS:
            out[counter] = self.sums.get(counter, 0)
        for counter in MEAN_COUNTERS:
            vals = self.samples.get(counter, [])
            out[counter] = sum(vals) / len(vals) if vals else 0.0
        out["trace.overhead_s"] = overhead_s
        return out


def _resolve(target: str):
    """The module or class that ``"module"`` / ``"module:Class"`` names
    inside gtattack, or None if it does not exist."""
    mod_name, _, cls_name = target.partition(":")
    try:
        owner = importlib.import_module(f"gtattack.{mod_name}")
    except ImportError:
        return None
    return getattr(owner, cls_name, None) if cls_name else owner


def rebind(original, new) -> list[tuple[object, str, object]]:
    """Point every gtattack module's binding of ``original`` at ``new``;
    returns the (module, name, original) patches for ``unbind``."""
    patches = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "gtattack" or name.startswith("gtattack.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, attr, value))
                setattr(mod, attr, new)
    return patches


def unbind(patches: list[tuple[object, str, object]]) -> None:
    """Undo patches, last first."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
