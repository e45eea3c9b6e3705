"""Experiment harness: dataset generation, training, attack sweeps, reports.

Everything is driven by one JSON config document (see ``ExperimentConfig``)
and writes into an output directory:

    out/
      dataset/            one JSON per graph + split.json (with the dataset's stamp)
      checkpoints/        <arch>.json model checkpoints (with stamps) + <arch>.history.json
      perturbations/      one JSON per attack run (model, budget, seed, graph, kind[, toggles])
      results.json        attack rows (clean, adaptive, random, transfer) + config hash
      ablation.json       ablate rows (clean, random, adaptive per toggle set) + config hash
      report/             CSV files derived from results.json and ablation.json
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Annotated, Literal, NamedTuple

import numpy as np

from .attack import (
    AttackConfig,
    AttackRun,
    PerturbationResult,
    build_candidate_set,
    run_cell,
    transfer_attack,
)
from .generators import make_cluster_dataset, make_tree_dataset
from .graphs import (
    NON_EMPTY,
    Bound,
    ConfigError,
    Count,
    Dataset,
    Fraction,
    Index,
    Positive,
    check_value,
    load_dataset,
    read_json,
    save_dataset,
    write_json,
)
from .models import Arch, GraphModel, RelaxToggles, build_model, model_from_doc, save_checkpoint
from .train import TrainConfig, evaluate_accuracy, train_model

log = logging.getLogger(__name__)

__all__ = [
    "ExperimentConfig",
    "ResultsTable",
    "ConfigError",
    "cmd_generate",
    "cmd_train",
    "cmd_attack",
    "cmd_ablate",
    "cmd_report",
    "toggles_label",
    "ablation_grid",
]


DATASETS = {"cluster": make_cluster_dataset, "tree": make_tree_dataset}


def _make_dataset(spec: dict) -> Dataset:
    """The dataset of a config's ``dataset`` entry: its kind's maker called
    with the entry's other keys; ConfigError for a key the maker lacks or a
    graph it cannot make."""
    try:
        return DATASETS[spec["kind"]](**{k: v for k, v in spec.items() if k != "kind"})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad dataset config: {exc}") from exc


@dataclass
class DatasetSpec:
    """The keys of a config's ``dataset`` entry, each a keyword of the
    kind's maker (see ``generators`` for the settings no config varies).
    The entry stays a dict, so its hash still stamps the dataset; a key left
    out takes the maker's default, and a default here only marks a key as
    optional.  A key the kind's maker lacks fails its one-graph build."""

    kind: Literal["cluster", "tree"]
    seed: Index
    n_train: Count = None
    n_val: Count = None
    n_test: Count = None
    n_clusters: Count = None
    nodes_per_cluster_range: tuple[Count, Count] = None
    n_nodes_range: tuple[Count, Count] = None


@dataclass
class ModelSpec:
    arch: Arch
    epochs: Index = 6
    lr: Positive = 3e-3
    seed: Index = 0
    train_subset: Count | None = None
    hparams: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    dataset: Annotated[dict, DatasetSpec]
    models: Annotated[list[ModelSpec], NON_EMPTY]
    budgets: Annotated[list[Fraction], NON_EMPTY]
    seeds: Annotated[list[Index], NON_EMPTY]
    out: str
    attack: dict = field(default_factory=dict)
    n_attack_graphs: Count = 20
    ablate_budget: Fraction | None = None
    n_workers: Count = 1

    def __post_init__(self):
        check_value(self, ExperimentConfig, "")  # the CLI's overrides included
        # a repeated budget or seed would run its cells, and write its rows, twice
        if any(lo >= hi for lo, hi in zip(self.budgets, self.budgets[1:])):
            raise ConfigError(f"budgets must be strictly ascending, got {self.budgets}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        labels = [f"{b:g}" for b in self.budgets]  # as file names and report rows print them
        if len(set(labels)) < len(labels):
            raise ConfigError(f"budgets must differ in their :g labels, got {self.budgets} "
                              f"as {labels}")
        above = os.path.abspath(self.out)
        while not os.path.exists(above):
            above = os.path.dirname(above)
        if not os.path.isdir(above):
            raise ConfigError(f"out {self.out} cannot be made: {above} is not a directory")
        # fail before generate, not inside it: make the dataset's first graph
        _make_dataset({**self.dataset, "n_train": 1, "n_val": 0, "n_test": 0})
        archs = [spec.arch for spec in self.models]
        if len(set(archs)) < len(archs):  # each writes checkpoints/<arch>.json
            raise ConfigError(f"each model arch may appear once, got {archs}")
        for spec in self.models:  # fail before train, not inside it
            try:
                build_model(spec.arch, self.task, 1, 1, spec.seed, **spec.hparams)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad model config: {exc}") from exc
        try:  # fail before any stage runs; every budget and seed has AttackConfig's bounds
            _attack_config(self, self.budgets[0], self.seeds[0])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad attack config: {exc}") from exc

    @classmethod
    def from_doc(cls, doc: dict) -> "ExperimentConfig":
        check_value(doc, cls, "")  # unknown and missing keys, before they are unpacked
        return cls(**{**doc, "models": [ModelSpec(**m) for m in doc["models"]]})

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        return cls.from_doc(read_json(path))

    def hash(self) -> str:
        doc = {
            "dataset": self.dataset,
            "models": [vars(m) for m in self.models],
            "budgets": self.budgets,
            "seeds": self.seeds,
            "attack": self.attack,
            "n_attack_graphs": self.n_attack_graphs,
        }
        if self.ablate_budget is not None:  # absent when unset: older hashes still match
            doc["ablate_budget"] = self.ablate_budget
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]

    @property
    def task(self) -> str:
        return "node" if self.dataset["kind"] == "cluster" else "graph"


# ---------------------------------------------------------------------------
# results table


@dataclass
class ResultRow:
    """One row of results.json or ablation.json."""

    model: str
    attack: str
    budget: float
    toggles: str
    seed: Index
    accuracy: Annotated[float, Bound(">=", 0), Bound("<=", 100)]


@dataclass
class ResultsTable:
    """Flat rows keyed by (model, attack, budget, toggles, seed) -> accuracy."""

    rows: list[Annotated[dict, ResultRow]]
    config_hash: str = ""

    def add(self, model: str, attack: str, budget: float, toggles: str, seed: int,
            accuracy: float) -> None:
        row = {"model": model, "attack": attack, "budget": budget, "toggles": toggles,
               "seed": seed, "accuracy": accuracy}
        check_value(row, ResultRow, "")
        self.rows.append(row)

    def cell(self, **kw) -> list[float]:
        return [r["accuracy"] for r in self.rows if all(r[k] == v for k, v in kw.items())]

    def save(self, path: str) -> None:
        write_json(path, {"config_hash": self.config_hash, "rows": self.rows})

    @classmethod
    def load(cls, path: str) -> "ResultsTable":
        """The table in ``path``; GraphParseError naming the file and the key
        where it breaks the declared types."""
        doc = read_json(path)
        check_value(doc, cls, f"{path}:")
        return cls(**doc)


def toggles_label(t: RelaxToggles) -> str:
    on = [k for k, v in sorted(t.to_dict().items()) if v]
    return "+".join(on) if on else "none"


# ---------------------------------------------------------------------------
# commands


def _dataset_dir(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.out, "dataset")


def _stamp(*specs) -> str:
    """Hash of the config entries an output is made from."""
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()[:16]


def _check_stamp(doc: dict, stamp: str, path: str, stage: str) -> None:
    """ConfigError unless ``doc``, read from ``path``, records ``stamp``."""
    if doc.get("stamp") != stamp:
        raise ConfigError(f"{path} was made from another config (stamp {doc.get('stamp')}, "
                          f"config {stamp}); rerun {stage}")


def cmd_generate(cfg: ExperimentConfig) -> Dataset:
    """Generate the synthetic dataset and write it to out/dataset, stamped
    with the hash of the ``dataset`` entry."""
    ds = _make_dataset(cfg.dataset)
    save_dataset(ds, _dataset_dir(cfg), stamp=_stamp(cfg.dataset))
    return ds


def _load_or_generate(cfg: ExperimentConfig) -> Dataset:
    path = _dataset_dir(cfg)
    split = os.path.join(path, "split.json")
    if not os.path.exists(split):
        return cmd_generate(cfg)
    _check_stamp(read_json(split), _stamp(cfg.dataset), split, "generate")
    return load_dataset(path)


def cmd_train(cfg: ExperimentConfig) -> dict[str, GraphModel]:
    """Train every configured model; write checkpoints, each stamped with the
    hash of the ``dataset`` entry and the model's own, and histories."""
    ds = _load_or_generate(cfg)
    ckpt_dir = os.path.join(cfg.out, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    feature_dim = ds.graphs[0].feature_dim
    n_classes = (int(max(int(g.node_labels.max()) for g in ds.graphs) + 1)
                 if cfg.task == "node" else 1)
    models: dict[str, GraphModel] = {}
    for spec in cfg.models:
        model = build_model(spec.arch, cfg.task, feature_dim, n_classes,
                            seed=spec.seed, **spec.hparams)
        train_ds = ds
        if spec.train_subset:
            sub = dict(ds.split)
            sub["train"] = ds.split["train"][: spec.train_subset]
            train_ds = Dataset(graphs=ds.graphs, split=sub, task=ds.task)
        history = train_model(model, train_ds, TrainConfig(epochs=spec.epochs, lr=spec.lr,
                                                           seed=spec.seed))
        history["test_acc"] = evaluate_accuracy(model, ds.part("test"))
        save_checkpoint(model, os.path.join(ckpt_dir, f"{spec.arch}.json"),
                        stamp=_stamp(cfg.dataset, vars(spec)))
        write_json(os.path.join(ckpt_dir, f"{spec.arch}.history.json"), history)
        models[spec.arch] = model
    return models


def _load_models(cfg: ExperimentConfig) -> dict[str, GraphModel]:
    ckpt_dir = os.path.join(cfg.out, "checkpoints")
    models = {}
    for spec in cfg.models:
        path = os.path.join(ckpt_dir, f"{spec.arch}.json")
        if not os.path.exists(path):
            raise ConfigError(f"missing checkpoint {path}; run train first")
        doc = read_json(path)
        _check_stamp(doc, _stamp(cfg.dataset, vars(spec)), path, "train")
        try:
            models[spec.arch] = model_from_doc(doc)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}; rerun train") from exc
    return models


def _attack_config(cfg: ExperimentConfig, budget: float, seed: int,
                   toggles: RelaxToggles | None = None) -> AttackConfig:
    """One cell's AttackConfig; ValueError for settings the cell cannot use."""
    base = dict(cfg.attack)
    for key, source in (("budget_fraction", "budgets"), ("seed", "seeds")):
        if key in base:
            raise ValueError(f"attack.{key} is not read; each cell takes it from {source}")
    check_value(base, AttackConfig, "attack")
    toggle_doc = base.pop("toggles", None)
    if toggles is None:
        toggles = RelaxToggles() if toggle_doc is None else RelaxToggles.from_dict(toggle_doc)
    defaults = ({"loss_kind": "tanh_margin", "mode": "structure"} if cfg.task == "node" else
                {"loss_kind": "raw_score", "mode": "injection", "constraint": "tree_only"})
    acfg = AttackConfig(budget_fraction=budget, seed=seed, toggles=toggles,
                        **{**defaults, **base})
    kind, loss = cfg.dataset["kind"], defaults["loss_kind"]
    if acfg.loss_kind != loss:
        raise ValueError(f"{kind} datasets take loss_kind {loss!r}, got {acfg.loss_kind!r}")
    if kind == "tree" and acfg.constraint == "protect_labeled":
        raise ValueError("protect_labeled needs labeled nodes; tree graphs have none")
    if kind == "cluster" and acfg.mode == "injection":
        raise ValueError("injection needs a candidate set; cluster datasets build none")
    return acfg


class _Cell(NamedTuple):
    """One model attacking one target graph under one config."""

    arch: str
    gid: int
    config: AttackConfig
    label: str  # toggles column of the rows the results average into
    tag: str | None = ""  # perturbation-file label; None: results are not written
    kinds: tuple[str, ...] = ("adaptive", "random")

    def name(self, kind: str) -> str:
        """``<arch>.b<budget>.s<seed>.g<graph>.<kind>[.<tag>]``"""
        acfg = self.config
        tag = f".{self.tag}" if self.tag else ""
        return f"{self.arch}.b{acfg.budget_fraction:g}.s{acfg.seed}.g{self.gid}.{kind}{tag}"


# a name for run_cell, which perfbench's sweep workload rebinds to time cells
_attack_cell = run_cell


def _run_task(task: tuple) -> tuple[PerturbationResult, ...]:
    return run_cell(*task)


class _Executor:
    """The dataset, models, targets and candidate sets of one command, loaded
    once, and the run of each target at each of ``budgets`` built before any cell.
    ``run`` maps cells over a fork pool when n_workers > 1 (each run owns its
    RNG, so results do not depend on scheduling) and writes their
    perturbation JSONs."""

    def __init__(self, cfg: ExperimentConfig, budgets: list[float]):
        self.cfg = cfg
        self.ds = _load_or_generate(cfg)
        self.models = _load_models(cfg)
        self.targets = self.ds.split["test"][: cfg.n_attack_graphs]
        if len(self.targets) < cfg.n_attack_graphs:
            log.warning("n_attack_graphs %d exceeds the %d test graphs; attacking all of them",
                        cfg.n_attack_graphs, len(self.targets))
        self.target_graphs = [self.ds.graphs[gid] for gid in self.targets]
        acfg = _attack_config(cfg, cfg.budgets[0], cfg.seeds[0])
        self.cands = {
            gid: None if acfg.mode != "injection" else build_candidate_set(
                self.ds, gid, exclude_roots=True, max_candidates=acfg.max_candidates, seed=gid)
            for gid in self.targets
        }
        # a target that a cell's run rejects fails here, not in its first cell;
        # every model has the config's task, so the first one stands for all
        model = next(iter(self.models.values()))
        for gid, graph in zip(self.targets, self.target_graphs):
            for budget in budgets:
                try:
                    AttackRun(model, graph, _attack_config(cfg, budget, cfg.seeds[0]),
                              self.cands[gid])
                except ValueError as exc:
                    raise ConfigError(f"{exc} on graph {gid}") from exc
        os.makedirs(os.path.join(cfg.out, "perturbations"), exist_ok=True)

    def run(self, cells: list[_Cell]) -> list[tuple[_Cell, tuple[PerturbationResult, ...]]]:
        tasks = [(self.models[c.arch], self.ds.graphs[c.gid], c.config, self.cands[c.gid],
                  c.gid, c.kinds) for c in cells]
        pool = None
        if self.cfg.n_workers > 1:
            import multiprocessing as mp  # here, so that only sweeps that fork load it

            pool = mp.get_context("fork").Pool(self.cfg.n_workers)
        done = []
        with pool or nullcontext():
            outcomes = pool.imap(_run_task, tasks) if pool else map(_run_task, tasks)
            for i, (cell, results) in enumerate(zip(cells, outcomes), 1):
                if cell.tag is not None:
                    for res in results:
                        res.save(os.path.join(self.cfg.out, "perturbations",
                                              cell.name(res.attack_kind) + ".json"))
                log.info("cell %d/%d: %s", i, len(cells), cell.name("+".join(cell.kinds)))
                done.append((cell, results))
        return done


def _add_means(table: ResultsTable, done: list[tuple[_Cell, tuple]]) -> dict[tuple, list]:
    """One mean-accuracy row per (arch, kind, budget, label, seed), in the
    order the cells first produce them; returns the grouped results."""
    groups: dict[tuple, list[PerturbationResult]] = {}
    for cell, results in done:
        for res in results:
            key = (cell.arch, res.attack_kind, cell.config.budget_fraction, cell.label,
                   cell.config.seed)
            groups.setdefault(key, []).append(res)
    for (arch, kind, budget, label, seed), group in groups.items():
        table.add(arch, kind, budget, label, seed,
                  float(np.mean([r.attacked_metric for r in group])))
    return groups


def cmd_attack(cfg: ExperimentConfig) -> ResultsTable:
    """Adaptive + random + transfer sweep over (model, budget, seed)."""
    ex = _Executor(cfg, cfg.budgets)
    table = ResultsTable([], cfg.hash())
    label = toggles_label(_attack_config(cfg, cfg.budgets[0], cfg.seeds[0]).toggles)
    for arch, model in ex.models.items():
        clean = evaluate_accuracy(model, ex.target_graphs)
        for seed in cfg.seeds:
            table.add(arch, "clean", 0.0, label, seed, clean)

    cells = [_Cell(arch, gid, _attack_config(cfg, budget, seed), label)
             for arch in ex.models for budget in cfg.budgets
             for seed in cfg.seeds for gid in ex.targets]
    groups = _add_means(table, ex.run(cells))

    # transfer: every other model's stored perturbations, all scored on one
    # target model in one call
    budget_seeds = [(budget, seed) for budget in cfg.budgets for seed in cfg.seeds]
    for target_arch, model in ex.models.items():
        sources = [arch for arch in ex.models if arch != target_arch]
        stored = [res for budget, seed in budget_seeds for arch in sources
                  for res in groups[(arch, "adaptive", budget, label, seed)]]
        metrics = iter(transfer_attack(stored, model, ex.ds.graphs, ex.cands))
        for budget, seed in budget_seeds:
            accs = [float(np.mean([next(metrics) for _ in
                                   groups[(arch, "adaptive", budget, label, seed)]]))
                    for arch in sources]
            for arch, acc in zip(sources, accs):
                table.add(target_arch, f"transfer:{arch}", budget, label, seed, acc)
            if accs:
                table.add(target_arch, "transfer", budget, label, seed, min(accs))

    table.save(os.path.join(cfg.out, "results.json"))
    return table


# the two relaxations each transformer's ablation table switches
ABLATION_AXES = {
    "graphormer": ("graphormer_deg", "graphormer_spd"),
    "san": ("san_attention", "san_lap_pert"),
    "grit": ("grit_rrwp_grad", "grit_deg_grad"),
}


def _ablate_budget(cfg: ExperimentConfig) -> float:
    return cfg.ablate_budget if cfg.ablate_budget is not None else cfg.budgets[-1]


def ablation_grid(arch: str, mode: str) -> list[RelaxToggles]:
    """Toggle combinations mirroring the per-model ablation tables: both
    axes, each alone; injection adds ``node_prob_bias`` to each of these and
    appends it alone and both axes without it."""
    if arch not in ABLATION_AXES:
        return [RelaxToggles()]
    a, b = ABLATION_AXES[arch]
    sets = [(a, b), (a,), (b,)]
    if mode == "injection":
        sets = [s + ("node_prob_bias",) for s in sets] + [("node_prob_bias",), (a, b)]
    return [RelaxToggles(**{name: name in on for name in RelaxToggles().to_dict()})
            for on in sets]


def cmd_ablate(cfg: ExperimentConfig) -> ResultsTable:
    """Fixed-budget sweep over toggle combinations plus random/clean rows."""
    budget = _ablate_budget(cfg)
    ex = _Executor(cfg, [budget])
    mode = _attack_config(cfg, budget, cfg.seeds[0]).mode
    table = ResultsTable([], cfg.hash())

    cells = []
    for arch in ex.models:
        cells += [_Cell(arch, gid, _attack_config(cfg, budget, seed, RelaxToggles()), "-",
                        tag=None, kinds=("random",))
                  for seed in cfg.seeds for gid in ex.targets]
        for toggles in ablation_grid(arch, mode):
            label = toggles_label(toggles)
            cells += [_Cell(arch, gid, _attack_config(cfg, budget, seed, toggles), label,
                            tag=label, kinds=("adaptive",))
                      for seed in cfg.seeds for gid in ex.targets]
    done = ex.run(cells)

    for arch, model in ex.models.items():
        clean = evaluate_accuracy(model, ex.target_graphs)
        for seed in cfg.seeds:
            table.add(arch, "clean", budget, "-", seed, clean)
        _add_means(table, [(cell, results) for cell, results in done if cell.arch == arch])

    table.save(os.path.join(cfg.out, "ablation.json"))
    return table


REPORT_COLUMNS = ["budget", "model", "attack", "mean", "std"]


def cmd_report(cfg: ExperimentConfig) -> list[str]:
    """Aggregate the rows of results.json/ablation.json under ``cfg.out``
    that belong to the config's cells into CSV files under ``cfg.out``/report.

    A row belongs when its seed is in ``seeds`` and its model in ``models``;
    a results row also needs its budget in ``budgets`` (clean rows, at
    budget 0, stay), and an ablation row the ablate budget.  A file of which
    no row belongs is a ConfigError rather than an empty CSV.

    One CSV per sweep: columns budget, model, attack, mean, std (rows
    sorted by model, attack, budget), plus a strongest-attack-per-budget
    series (minimum mean accuracy over attack kinds).  Missing cells warn
    loudly instead of being interpolated.
    """
    archs = {spec.arch for spec in cfg.models}
    # clean results rows sit at budget 0
    budgets = {"results": {0.0, *cfg.budgets}, "ablation": {_ablate_budget(cfg)}}
    written = []
    report_dir = os.path.join(cfg.out, "report")
    for name in ("results", "ablation"):
        path = os.path.join(cfg.out, f"{name}.json")
        if not os.path.exists(path):
            continue
        table = ResultsTable.load(path)
        table.rows = [r for r in table.rows if r["seed"] in cfg.seeds and r["model"] in archs
                      and r["budget"] in budgets[name]]
        if not table.rows:
            raise ConfigError(f"no row of {path} belongs to the config's seeds, models "
                              "and budgets")
        os.makedirs(report_dir, exist_ok=True)
        out_path = os.path.join(report_dir, f"{name}.csv")
        _write_csv(table, out_path, with_toggles=(name == "ablation"))
        written.append(out_path)
    if not written:
        raise ConfigError(f"no results.json or ablation.json under {cfg.out}")
    return written


def _write_csv(table: ResultsTable, path: str, with_toggles: bool) -> None:
    groups: dict[tuple, list[float]] = {}
    for r in table.rows:
        key = (r["model"], r["attack"], r["budget"], r["toggles"])
        groups.setdefault(key, []).append(r["accuracy"])

    seeds_per_group = {len(v) for v in groups.values()}
    if len(seeds_per_group) > 1:
        log.warning("uneven seed coverage across cells: %s", sorted(seeds_per_group))

    lines = []
    header = REPORT_COLUMNS + (["toggles"] if with_toggles else [])
    lines.append(",".join(header))
    rows = []
    for (model, attack, budget, toggles), accs in groups.items():
        rows.append((model, attack, float(budget), toggles,
                     float(np.mean(accs)), float(np.std(accs))))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    for model, attack, budget, toggles, mean, std in rows:
        cells = [f"{budget:g}", model, attack, f"{mean:.4f}", f"{std:.4f}"]
        if with_toggles:
            cells.append(toggles)
        lines.append(",".join(cells))

    # strongest attack per (model, budget): min mean accuracy over attack kinds
    strongest: dict[tuple, float] = {}
    for model, attack, budget, toggles, mean, std in rows:
        if attack == "clean":
            continue
        key = (model, budget)
        strongest[key] = min(strongest.get(key, np.inf), mean)
    for (model, budget), mean in sorted(strongest.items()):
        cells = [f"{budget:g}", model, "strongest", f"{mean:.4f}", "0.0000"]
        if with_toggles:
            cells.append("-")
        lines.append(",".join(cells))

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_report_csv(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]
