"""The benchmark's workloads and the checks on their outputs.

A workload is set up several times (dataset generation plus training),
then runs timed *rounds* until the measuring window closes:

* ``structure`` and ``injection``: one attack cell per architecture on one
  test graph; a cell is ``run_attack`` followed by ``random_baseline``.
* ``sweep``: the ``attack`` and ``report`` stages of ``gtattack.cli``.

Graph sizes and attack lengths are far below the shipped configs because
the Jacobi eigensolver and Dijkstra run as plain Python without numba
(see README.md); they are fixed sizes so that timings depend on the seed
only through graph structure, not through graph size.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Traced calls go through module attributes (``attack.run_attack``), so
# that the tracer's patches of those bindings see them.
from gtattack import attack, cli, experiment, generators, train
from gtattack import autodiff as ad
from gtattack.attack import (
    AttackConfig,
    PerturbationResult,
    allowed_pairs,
    budget_from_fraction,
    is_tree,
    node_probability,
)
from gtattack.autodiff import Tensor
from gtattack.graphs import connected_components, load_dataset
from gtattack.models import RelaxToggles, SpectralReference, build_model, load_checkpoint

from .tracer import rebind, unbind

ARCHS = ("gcn", "grit", "graphormer", "san")
SWEEP_ARCHS = ("gcn", "grit")
EPOCHS = 3
LR = {"gcn": 3e-3, "grit": 5e-3, "graphormer": 1e-2, "san": 3e-3}
N_SPLIT = {"n_train": 8, "n_val": 2, "n_test": 8}
# Injection cells vary most from graph to graph (the pruned size sets the
# SAN cost), so a run attacks more distinct graphs there.
N_TEST = {"structure": 8, "injection": 16}
N_CANDIDATES = 24
BLOCK_SIZE = 48
TREE_NODES = (16, 16)
RELAXED_TOL = 1e-8

# Attack lengths shared by all workloads: three relaxed steps with one
# block resample, three Bernoulli draws, as in a full cell but shorter.
ATTACK = {"steps": 3, "n_discrete_samples": 3, "resample_every": 2, "base_lr": 500.0}
STRUCTURE_ATTACK = {**ATTACK, "budget_fraction": 0.05, "loss_kind": "tanh_margin",
                    "mode": "structure"}
INJECTION_ATTACK = {**ATTACK, "budget_fraction": 0.1, "block_size": BLOCK_SIZE,
                    "loss_kind": "raw_score", "mode": "injection",
                    "constraint": "tree_only", "max_candidates": N_CANDIDATES}


@dataclass
class CellTime:
    """One timed attack cell, in nominal and in wall seconds (see clock.py)."""

    arch: str
    seconds: float
    wall: float
    ok: bool = True


@dataclass
class Round:
    """One timed unit of work and what it produced."""

    seconds: float
    wall: float
    cells: list[CellTime]
    doc: object  # digestable outputs
    adaptive_metrics: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    pending: list[tuple] = field(default_factory=list)  # results to check later


# ---------------------------------------------------------------------------
# output checks


def check_result(res: PerturbationResult, graph, config: AttackConfig,
                 n_candidates: int = 0) -> list[str]:
    """Problems with one attack result; an empty list means it passed.

    Flips number at most the budget and lie inside ``allowed_pairs``;
    metrics lie in [0, 100] and loss traces are finite; ``tree_only``
    results are trees that only add edges from the tree to candidates.
    Injection results index the ``n_candidates`` candidates after the
    graph's own nodes.
    """
    errs = []
    tag = f"{res.attack_kind} g{res.graph_id} s{res.seed}"
    expected = budget_from_fraction(config.budget_fraction, graph.num_edges)
    if res.budget != expected:
        errs.append(f"{tag}: budget {res.budget} != {expected}")
    for name in ("clean_metric", "attacked_metric"):
        value = getattr(res, name)
        if not 0.0 <= value <= 100.0:
            errs.append(f"{tag}: {name} {value} outside [0, 100]")
    if not np.all(np.isfinite(res.loss_trace)):
        errs.append(f"{tag}: non-finite loss trace")
    flips = np.asarray(res.flips, dtype=np.int64).reshape(-1, 2)
    if len(flips) > res.budget:
        errs.append(f"{tag}: {len(flips)} flips exceed budget {res.budget}")
    n, n_aug = graph.n, graph.n + n_candidates
    allowed = allowed_pairs(graph, config, n_aug=n_aug if config.mode == "injection" else None)
    allowed = {tuple(p) for p in allowed.tolist()}
    outside = [f for f in flips.tolist() if (min(f), max(f)) not in allowed]
    if outside:
        errs.append(f"{tag}: flips outside allowed pairs {outside[:3]}")
    if config.constraint == "tree_only":
        adj = np.zeros((n_aug, n_aug))
        adj[:n, :n] = graph.adjacency
        for i, j in flips.tolist():
            if adj[i, j] != 0.0 or (i < n) == (j < n):
                errs.append(f"{tag}: flip {(i, j)} is not a tree-to-candidate edge")
            adj[i, j] = adj[j, i] = 1.0
        comp = connected_components(adj)
        kept = np.flatnonzero(comp == comp[0])
        if not is_tree(adj[np.ix_(kept, kept)]):
            errs.append(f"{tag}: attacked graph is not a tree")
    return errs


def relaxed_gap(model, adjacency: np.ndarray, features: np.ndarray) -> float:
    """Largest |relaxed forward - discrete forward| at zero perturbation."""
    with ad.no_grad():
        ref = model.forward_discrete(adjacency, features).data
        kw = {}
        if model.arch == "san":
            kw["spectral_ref"] = SpectralReference.of(adjacency)
        if model.task == "graph":
            kw["node_probs"] = node_probability(Tensor(adjacency))
        out = model.forward(Tensor(adjacency), features, RelaxToggles(), **kw).data
    return float(np.max(np.abs(out - ref)) / max(1.0, float(np.max(np.abs(ref)))))


def check_relaxed(models: dict, graphs: dict) -> list[str]:
    errs = []
    for arch, model in models.items():
        for gid, g in graphs.items():
            gap = relaxed_gap(model, g.adjacency, g.features)
            if not gap <= RELAXED_TOL:
                errs.append(f"{arch} g{gid}: relaxed forward differs from discrete by {gap:.3g}")
    return errs


def _params_digest(models: dict) -> str:
    h = hashlib.sha256()
    for arch in sorted(models):
        for name in sorted(models[arch].params):
            h.update(name.encode())
            h.update(models[arch].params[name].data.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# structure and injection: attack cells called directly


class CellWorkload:
    """One attack cell per architecture and round, on a fixed-size dataset."""

    archs = ARCHS

    def __init__(self, kind: str, seed: int, clock, tracer=None):
        self.kind = kind
        self.seed = seed
        self.clock = clock
        self.tracer = tracer
        self.dataset = None
        self.models: dict = {}
        self.candidates: dict = {}

    def setup(self) -> str:
        """Generate the dataset, train every model and, for injection, build
        every target's candidate set; returns a fingerprint."""
        split = {**N_SPLIT, "n_test": N_TEST[self.kind]}
        if self.kind == "structure":
            ds = generators.make_cluster_dataset(self.seed, **split, n_clusters=3,
                                                 nodes_per_cluster_range=(7, 7))
            task, n_classes = "node", 3
        else:
            ds = generators.make_tree_dataset(self.seed, **split, n_nodes_range=TREE_NODES)
            task, n_classes = "graph", 1
        models = {}
        for arch in self.archs:
            model = build_model(arch, task, ds.graphs[0].feature_dim, n_classes, seed=self.seed)
            train.train_model(model, ds,
                              train.TrainConfig(epochs=EPOCHS, lr=LR[arch], seed=self.seed))
            models[arch] = model
        self.dataset, self.models = ds, models
        self.candidates = {} if self.kind == "structure" else {
            gid: attack.build_candidate_set(ds, gid, exclude_roots=True,
                                            max_candidates=N_CANDIDATES, seed=gid)
            for gid in self.targets}
        return _params_digest(models)

    @property
    def targets(self) -> list[int]:
        return self.dataset.split["test"]

    @property
    def min_rounds(self) -> int:
        """Rounds that always run and are digested: every test graph once."""
        return N_TEST[self.kind]

    def config(self, seed: int) -> AttackConfig:
        spec = STRUCTURE_ATTACK if self.kind == "structure" else INJECTION_ATTACK
        return AttackConfig(seed=seed, **spec)

    def round(self, r: int) -> Round:
        gid = self.targets[r % len(self.targets)]
        graph = self.dataset.graphs[gid]
        acfg = self.config(r)
        cands = self.candidates.get(gid)
        rnd = Round(seconds=0.0, wall=0.0, cells=[], doc=[])
        for arch in self.archs:
            gc.collect()  # no cell pays for the previous cell's garbage
            self.clock.start()
            if self.tracer is not None:
                self.tracer.trace_id = arch
            try:
                res = attack.run_attack(self.models[arch], graph, acfg, candidates=cands,
                                        graph_id=gid)
                rres = attack.random_baseline(self.models[arch], graph, acfg,
                                              candidates=cands, graph_id=gid)
            except Exception as exc:  # a failing cell is counted, not fatal
                res = rres = None
                rnd.errors.append(f"{arch} g{gid} s{r}: {type(exc).__name__}: {exc}")
                rnd.doc.append({"arch": arch, "error": type(exc).__name__})
            if self.tracer is not None:
                self.tracer.trace_id = ""
            wall, seconds = self.clock.lap()
            rnd.seconds += seconds
            rnd.wall += wall
            rnd.cells.append(CellTime(arch, seconds, wall, ok=res is not None))
            if res is not None:
                rnd.doc.append({"arch": arch, "adaptive": res.to_doc(), "random": rres.to_doc()})
                rnd.adaptive_metrics.append(res.attacked_metric)
                n_cands = 0 if cands is None else cands.size
                rnd.pending.append((len(rnd.cells) - 1, graph, acfg, n_cands, res, rres))
        return rnd

    def check(self, rounds: list[Round]) -> list[str]:
        """Check every cell's results (marking failed cells) and the models."""
        errs = []
        for rnd in rounds:
            for idx, graph, acfg, n_cands, res, rres in rnd.pending:
                cell_errs = check_result(res, graph, acfg, n_cands) + check_result(
                    rres, graph, acfg, n_cands)
                if len(res.loss_trace) != (acfg.steps if res.budget else 0):
                    cell_errs.append(f"loss trace has {len(res.loss_trace)} steps")
                if cell_errs:
                    rnd.cells[idx].ok = False
                    errs += [f"{rnd.cells[idx].arch}: {e}" for e in cell_errs]
            errs += rnd.errors
        graphs = {gid: self.dataset.graphs[gid] for gid in self.targets}
        return errs + check_relaxed(self.models, graphs)


# ---------------------------------------------------------------------------
# sweep: the CLI stages, in-process


def sweep_config(seed: int, out: str) -> dict:
    """A small tree sweep over GCN and GRIT, one worker, output in ``out``."""
    return {
        "dataset": {"kind": "tree", "seed": seed, **N_SPLIT,
                    "n_nodes_range": list(TREE_NODES)},
        "models": [{"arch": arch, "epochs": EPOCHS, "lr": LR[arch], "seed": seed}
                   for arch in SWEEP_ARCHS],
        "budgets": [0.05, 0.1],
        "seeds": [0, 1],
        "n_attack_graphs": 6,
        "attack": {**ATTACK, "block_size": BLOCK_SIZE, "max_candidates": N_CANDIDATES},
        "n_workers": 1,
        "out": out,
    }


def _files_digest(root: str, subdirs: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for sub in subdirs:
        base = os.path.join(root, sub)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class SweepWorkload:
    """generate -> train (set-up), then attack -> report (one round)."""

    archs = SWEEP_ARCHS
    min_rounds = 4

    def __init__(self, seed: int, workdir: str, clock, tracer=None):
        self.seed = seed
        self.clock = clock
        self.tracer = tracer
        self.doc = sweep_config(seed, os.path.join(workdir, "sweep"))
        self.out = self.doc["out"]
        self.config_path = os.path.join(workdir, "sweep.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.doc, fh)

    def _cli(self, *args: str) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([*args, "--config", self.config_path])
        if code != 0:
            raise RuntimeError(f"gtattack {args[0]} exited {code}: {sink.getvalue()}")

    def setup(self) -> str:
        self._cli("generate")
        self._cli("train")
        return _files_digest(self.out, ("dataset", "checkpoints"))

    def round(self, r: int) -> Round:
        """One ``attack`` + ``report`` pass.  Cells are timed by wrapping
        ``experiment._attack_cell``, the function ``cmd_attack`` calls once
        per cell."""
        rnd = Round(seconds=0.0, wall=0.0, cells=[], doc=None)
        clock, tracer = self.clock, self.tracer

        def lap() -> tuple[float, float]:
            wall, seconds = clock.lap()
            rnd.wall += wall
            rnd.seconds += seconds
            return wall, seconds

        attack_cell = experiment._attack_cell

        def timed_cell(model, *args, **kwargs):
            lap()  # the sweep's own work since the previous cell
            if tracer is not None:
                tracer.trace_id = model.arch
            ok = False
            try:
                out = attack_cell(model, *args, **kwargs)
                ok = True
            finally:
                if tracer is not None:
                    tracer.trace_id = ""
                wall, seconds = lap()
                rnd.cells.append(CellTime(model.arch, seconds, wall, ok=ok))
            return out

        patches = rebind(attack_cell, timed_cell)
        gc.collect()
        clock.start()
        try:
            self._cli("attack")
            self._cli("report")
            errors = []
        except Exception as exc:  # the round fails, the benchmark goes on
            errors = [f"sweep round {r}: {type(exc).__name__}: {exc}"]
        finally:
            lap()
            unbind(patches)
        if errors:
            for cell in rnd.cells:
                cell.ok = False
            rnd.cells = rnd.cells or [CellTime("sweep", rnd.seconds, rnd.wall, ok=False)]
            rnd.doc, rnd.errors = {"error": errors[0]}, errors
            return rnd
        rnd.doc = _files_digest(self.out, ("results.json", "perturbations", "report"))
        table = experiment.ResultsTable.load(os.path.join(self.out, "results.json"))
        rnd.adaptive_metrics = [row["accuracy"] for row in table.rows
                                if row["attack"] == "adaptive"]
        return rnd

    def check(self, rounds: list[Round]) -> list[str]:
        """Check the files the last round left; every round must have left
        identical ones, so a failed check fails every cell."""
        try:
            errs = self._check_files()
        except (OSError, ValueError, KeyError) as exc:  # outputs missing or malformed
            errs = [f"sweep outputs: {type(exc).__name__}: {exc}"]
        if len({json.dumps(rnd.doc) for rnd in rounds}) != 1:
            errs.append("sweep rounds wrote different outputs")
        for rnd in rounds:
            errs += rnd.errors
            if errs:
                for cell in rnd.cells:
                    cell.ok = False
        return errs

    def _check_files(self) -> list[str]:
        """Check the documented outputs: results.json rows, one perturbation
        file per (model, budget, seed, graph, attack kind), the report."""
        cfg = experiment.ExperimentConfig.from_doc(self.doc)
        ds = load_dataset(os.path.join(self.out, "dataset"))
        targets = ds.split["test"][: cfg.n_attack_graphs]
        errs = []
        table = experiment.ResultsTable.load(os.path.join(self.out, "results.json"))
        n = len(cfg.models)
        rows = len(cfg.seeds) * n * (1 + len(cfg.budgets) * (2 + (n - 1) + 1))
        if len(table.rows) != rows:
            errs.append(f"results.json has {len(table.rows)} rows, expected {rows}")
        errs += [f"row {row}: accuracy outside [0, 100]" for row in table.rows
                 if not 0.0 <= row["accuracy"] <= 100.0]
        pdir = os.path.join(self.out, "perturbations")
        found = []
        for name in sorted(os.listdir(pdir)):
            res = PerturbationResult.load(os.path.join(pdir, name))
            found.append((res.budget_fraction, res.seed, res.graph_id, res.attack_kind))
            if (res.mode, res.constraint) != ("injection", "tree_only"):
                errs.append(f"{name}: mode {res.mode}, constraint {res.constraint}")
                continue
            acfg = AttackConfig(budget_fraction=res.budget_fraction, mode=res.mode,
                                constraint=res.constraint, loss_kind="raw_score")
            errs += [f"{name}: {e}" for e in
                     check_result(res, ds.graphs[res.graph_id], acfg, N_CANDIDATES)]
        expected = [(b, s, g, k) for b in cfg.budgets for s in cfg.seeds
                    for g in targets for k in ("adaptive", "random")]
        if sorted(found) != sorted(expected * n):
            errs.append(f"perturbations/ holds {len(found)} results, expected "
                        f"{len(expected) * n} covering every budget, seed, graph and kind")
        csv = os.path.join(self.out, "report", "results.csv")
        groups = {(r["model"], r["attack"], r["budget"]) for r in table.rows}
        strongest = {(r["model"], r["budget"]) for r in table.rows if r["attack"] != "clean"}
        if not os.path.exists(csv):
            errs.append("report/results.csv missing")
        elif len(experiment.load_report_csv(csv)) != len(groups) + len(strongest):
            errs.append(f"report has {len(experiment.load_report_csv(csv))} rows, expected "
                        f"{len(groups) + len(strongest)}")
        models = {spec.arch: load_checkpoint(os.path.join(self.out, "checkpoints",
                                                          f"{spec.arch}.json"))
                  for spec in cfg.models}
        return errs + check_relaxed(models, {gid: ds.graphs[gid] for gid in targets})


def make_workload(name: str, seed: int, workdir: str, clock, tracer=None):
    if name == "sweep":
        return SweepWorkload(seed, workdir, clock, tracer)
    return CellWorkload(name, seed, clock, tracer)

