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
import inspect
import json
import logging
import os
import types
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .attack import (
    AttackConfig,
    PerturbationResult,
    build_candidate_set,
    run_cell,
    transfer_attack,
)
from .generators import (
    generate_retweet_tree,
    generate_sbm_cluster,
    make_cluster_dataset,
    make_tree_dataset,
)
from .graphs import Dataset, load_dataset, save_dataset
from .models import GraphModel, RelaxToggles, build_model, model_from_doc, save_checkpoint
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


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exits with code 2)."""


# dataset kind -> (dataset maker, the per-graph generator it passes extra
# keys to, the keywords the maker passes that generator itself)
DATASETS = {
    "cluster": (make_cluster_dataset, generate_sbm_cluster, {}),
    "tree": (make_tree_dataset, generate_retweet_tree, {"label": 0}),
}


def _check_dataset(spec: dict) -> None:
    """Raise TypeError or ValueError unless the dataset maker of
    ``spec["kind"]`` takes every other key of ``spec`` and its generator
    makes a graph of seed 0 from them."""
    spec = dict(spec)
    make, generate, own = DATASETS[spec.pop("kind")]
    extra = inspect.signature(make).bind(**spec).arguments.get("gen_kwargs", {})
    generate(0, **own, **extra)


def _conforms(value, hint) -> bool:
    """Whether a config value has the declared type ``hint``: a bool is not
    an int, an int is a float."""
    if get_origin(hint) is types.UnionType:
        return any(_conforms(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_conforms(v, get_args(hint)[0]) for v in value)
    kinds = (int, float) if hint is float else hint
    return not isinstance(value, bool) and isinstance(value, kinds)


def _check_fields(cls, values: dict, prefix: str = "") -> None:
    """ConfigError naming the first field of dataclass ``cls`` whose entry
    in ``values`` is not of its type; fields absent from ``values`` pass."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name in values and not _conforms(values[f.name], hints[f.name]):
            raise ConfigError(f"{prefix}{f.name} must be {f.type}, got {values[f.name]!r}")


@dataclass
class ModelSpec:
    arch: str
    epochs: int = 6
    lr: float = 3e-3
    seed: int = 0
    train_subset: int | None = None
    hparams: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    dataset: dict
    models: list[ModelSpec]
    budgets: list[float]
    seeds: list[int]
    out: str
    attack: dict = field(default_factory=dict)
    n_attack_graphs: int = 20
    ablate_budget: float | None = None
    n_workers: int = 1

    def __post_init__(self):
        _check_fields(type(self), vars(self))
        for i, spec in enumerate(self.models):
            _check_fields(ModelSpec, vars(spec), f"models[{i}].")
        if not self.models or not self.seeds or not self.budgets:
            raise ConfigError("models, seeds and budgets must be non-empty")
        if list(self.budgets) != sorted(self.budgets):
            raise ConfigError("budgets must be ascending")
        if self.dataset.get("kind") not in DATASETS:
            raise ConfigError("dataset.kind must be 'cluster' or 'tree'")
        try:  # fail before generate, not inside it
            _check_dataset(self.dataset)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad dataset config: {exc}") from exc
        archs = [spec.arch for spec in self.models]
        if len(set(archs)) < len(archs):  # each writes checkpoints/<arch>.json
            raise ConfigError(f"each model arch may appear once, got {archs}")
        for spec in self.models:  # fail before train, not inside it
            try:
                build_model(spec.arch, self.task, 1, 1, spec.seed, **spec.hparams)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad model config: {exc}") from exc
        for name in ("n_attack_graphs", "n_workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        try:  # fail before any stage runs, not at the first attack cell
            _attack_config(self, self.budgets[0], self.seeds[0])
            if self.ablate_budget is not None:
                _attack_config(self, self.ablate_budget, self.seeds[0])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad attack config: {exc}") from exc

    @classmethod
    def from_doc(cls, doc: dict) -> "ExperimentConfig":
        try:
            unknown = sorted(set(doc) - {f.name for f in fields(cls)})
            if unknown:
                raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
            return cls(**{**doc, "models": [ModelSpec(**m) for m in doc["models"]]})
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                return cls.from_doc(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

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
class ResultsTable:
    """Flat rows keyed by (model, attack, budget, toggles, seed) -> accuracy."""

    rows: list[dict] = field(default_factory=list)
    config_hash: str = ""

    def add(self, model: str, attack: str, budget: float, toggles: str, seed: int,
            accuracy: float) -> None:
        if not 0.0 <= accuracy <= 100.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 100]")
        self.rows.append({
            "model": model, "attack": attack, "budget": budget,
            "toggles": toggles, "seed": seed, "accuracy": accuracy,
        })

    def cell(self, **kw) -> list[float]:
        return [r["accuracy"] for r in self.rows if all(r[k] == v for k, v in kw.items())]

    def save(self, path: str) -> None:
        doc = {"config_hash": self.config_hash, "rows": self.rows}
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True))

    @classmethod
    def load(cls, path: str) -> "ResultsTable":
        with open(path) as fh:
            doc = json.load(fh)
        return cls(rows=doc["rows"], config_hash=doc.get("config_hash", ""))


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
    spec = dict(cfg.dataset)
    make = DATASETS[spec.pop("kind")][0]
    ds = make(**spec)
    save_dataset(ds, _dataset_dir(cfg), stamp=_stamp(cfg.dataset))
    return ds


def _load_or_generate(cfg: ExperimentConfig) -> Dataset:
    path = _dataset_dir(cfg)
    split = os.path.join(path, "split.json")
    if not os.path.exists(split):
        return cmd_generate(cfg)
    ds = load_dataset(path)
    with open(split) as fh:
        _check_stamp(json.load(fh), _stamp(cfg.dataset), split, "generate")
    return ds


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
        with open(os.path.join(ckpt_dir, f"{spec.arch}.history.json"), "w") as fh:
            fh.write(json.dumps(history, sort_keys=True))
        models[spec.arch] = model
    return models


def _load_models(cfg: ExperimentConfig) -> dict[str, GraphModel]:
    ckpt_dir = os.path.join(cfg.out, "checkpoints")
    models = {}
    for spec in cfg.models:
        path = os.path.join(ckpt_dir, f"{spec.arch}.json")
        if not os.path.exists(path):
            raise ConfigError(f"missing checkpoint {path}; run train first")
        with open(path) as fh:
            doc = json.load(fh)
        _check_stamp(doc, _stamp(cfg.dataset, vars(spec)), path, "train")
        models[spec.arch] = model_from_doc(doc)
    return models


def _attack_config(cfg: ExperimentConfig, budget: float, seed: int,
                   toggles: RelaxToggles | None = None) -> AttackConfig:
    """One cell's AttackConfig; ValueError for settings the cell cannot use."""
    base = dict(cfg.attack)
    for key, source in (("budget_fraction", "budgets"), ("seed", "seeds")):
        if key in base:
            raise ValueError(f"attack.{key} is not read; each cell takes it from {source}")
    toggle_doc = base.pop("toggles", None)
    if toggles is None:
        toggles = RelaxToggles() if toggle_doc is None else RelaxToggles.from_dict(toggle_doc)
    _check_fields(AttackConfig, base, "attack.")  # types first, then AttackConfig's ranges
    defaults = ({"loss_kind": "tanh_margin", "mode": "structure"} if cfg.task == "node" else
                {"loss_kind": "raw_score", "mode": "injection", "constraint": "tree_only"})
    acfg = AttackConfig(budget_fraction=budget, seed=seed, toggles=toggles,
                        **{**defaults, **base})
    kind = cfg.dataset["kind"]
    loss = "tanh_margin" if kind == "cluster" else "raw_score"
    if acfg.loss_kind != loss:
        raise ValueError(f"{kind} datasets take loss_kind {loss!r}, got {acfg.loss_kind!r}")
    if kind == "tree" and acfg.constraint == "protect_labeled":
        raise ValueError("protect_labeled needs labeled nodes; tree graphs have none")
    if kind == "cluster" and acfg.mode == "injection":
        raise ValueError("injection needs a candidate set; cluster datasets build none")
    if acfg.constraint == "tree_only" and acfg.mode != "injection":
        raise ValueError("tree_only constrains injection attacks only")
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


def _attack_cell(model: GraphModel, graph, acfg: AttackConfig, cands, gid: int,
                 kinds: tuple[str, ...]) -> tuple[PerturbationResult, ...]:
    """Run the attacks named in ``kinds`` as one cell, in order."""
    return run_cell(model, graph, acfg, cands, gid, kinds)


def _run_task(task: tuple) -> tuple[PerturbationResult, ...]:
    return _attack_cell(*task)


class _Executor:
    """The dataset, models, targets and candidate sets of one command, loaded
    once.  ``run`` maps cells over a fork pool when n_workers > 1 (each run
    owns its RNG, so results do not depend on scheduling) and writes their
    perturbation JSONs."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.ds = _load_or_generate(cfg)
        self.models = _load_models(cfg)
        self.targets = self.ds.split["test"][: cfg.n_attack_graphs]
        self.target_graphs = [self.ds.graphs[gid] for gid in self.targets]
        acfg = _attack_config(cfg, cfg.budgets[0], cfg.seeds[0])
        self.cands = {
            gid: None if acfg.mode != "injection" else build_candidate_set(
                self.ds, gid, exclude_roots=True, max_candidates=acfg.max_candidates, seed=gid)
            for gid in self.targets
        }
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
    ex = _Executor(cfg)
    table = ResultsTable(config_hash=cfg.hash())
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
    ex = _Executor(cfg)
    budget = cfg.ablate_budget if cfg.ablate_budget is not None else cfg.budgets[-1]
    mode = _attack_config(cfg, budget, cfg.seeds[0]).mode
    table = ResultsTable(config_hash=cfg.hash())

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


def cmd_report(results_dir: str) -> list[str]:
    """Aggregate results.json/ablation.json under ``results_dir`` into CSV
    files under ``results_dir``/report.

    One CSV per sweep: columns budget, model, attack, mean, std (rows
    sorted by model, attack, budget), plus a strongest-attack-per-budget
    series (minimum mean accuracy over attack kinds).  Missing cells warn
    loudly instead of being interpolated.
    """
    written = []
    report_dir = os.path.join(results_dir, "report")
    found = False
    for name in ("results", "ablation"):
        path = os.path.join(results_dir, f"{name}.json")
        if not os.path.exists(path):
            continue
        found = True
        table = ResultsTable.load(path)
        os.makedirs(report_dir, exist_ok=True)
        out_path = os.path.join(report_dir, f"{name}.csv")
        _write_csv(table, out_path, with_toggles=(name == "ablation"))
        written.append(out_path)
    if not found:
        raise ConfigError(f"no results.json or ablation.json under {results_dir}")
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
