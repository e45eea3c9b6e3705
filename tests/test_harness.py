import io
import json
import logging
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from gtattack.cli import main as cli_main
from gtattack.experiment import (
    ConfigError,
    ExperimentConfig,
    ResultsTable,
    _attack_config,
    ablation_grid,
    cmd_ablate,
    cmd_attack,
    cmd_generate,
    cmd_report,
    cmd_train,
    load_report_csv,
    toggles_label,
)
from gtattack.graphs import load_dataset, save_dataset
from gtattack.models import RelaxToggles, load_checkpoint, save_checkpoint


def tiny_config(tmp_path, kind="cluster", **over):
    doc = {
        "dataset": {
            "kind": kind,
            "seed": 5,
            "n_train": 4,
            "n_val": 2,
            "n_test": 3,
        },
        "models": [
            {"arch": "gcn", "epochs": 1, "lr": 0.003, "seed": 0},
        ],
        "budgets": [0.02, 0.05],
        "seeds": [0, 1],
        "n_attack_graphs": 2,
        "attack": {"steps": 4, "block_size": 100, "n_discrete_samples": 2, "base_lr": 500.0},
        "out": str(tmp_path / "run"),
    }
    if kind == "cluster":
        doc["dataset"]["nodes_per_cluster_range"] = [4, 5]
    else:
        doc["dataset"]["n_nodes_range"] = [6, 9]
        doc["attack"]["max_candidates"] = 16
    doc.update(over)
    return doc


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config validation


def test_budgets_must_ascend(tmp_path):
    doc = tiny_config(tmp_path, budgets=[0.05, 0.01])
    with pytest.raises(ConfigError, match="ascending"):
        ExperimentConfig.from_doc(doc)


def test_seeds_must_be_nonempty(tmp_path):
    doc = tiny_config(tmp_path, seeds=[])
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_doc(doc)


@pytest.mark.parametrize("name", ["cluster_config.json", "tree_config.json"])
def test_shipped_configs_build_every_attack_config(name):
    cfg = ExperimentConfig.load(str(Path(__file__).parent.parent / "scripts" / name))
    mode = "structure" if cfg.task == "node" else "injection"
    toggle_sets = [None] + [t for m in cfg.models for t in ablation_grid(m.arch, mode)]
    for budget in cfg.budgets + [cfg.ablate_budget]:
        for seed in cfg.seeds:
            for toggles in toggle_sets:
                assert _attack_config(cfg, budget, seed, toggles).mode == mode


def test_config_hash_unchanged_without_ablate_budget(tmp_path):
    # value computed before ablate_budget entered the hash
    assert ExperimentConfig.from_doc(tiny_config(tmp_path)).hash() == "57cb5d1898b1c07a"


def test_config_hash_covers_ablate_budget(tmp_path):
    hashes = {ExperimentConfig.from_doc(tiny_config(tmp_path, ablate_budget=b)).hash()
              for b in (None, 0.05, 0.2)}
    assert len(hashes) == 3


def test_results_table_rejects_out_of_range_accuracy():
    t = ResultsTable()
    with pytest.raises(ValueError):
        t.add("gcn", "adaptive", 0.01, "all", 0, 120.0)


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_dataset(tmp_path):
    cfg = ExperimentConfig.from_doc(tiny_config(tmp_path))
    ds = cmd_generate(cfg)
    assert len(ds.graphs) == 9
    reloaded = load_dataset(os.path.join(cfg.out, "dataset"))
    assert reloaded.split == ds.split
    np.testing.assert_array_equal(reloaded.graphs[0].adjacency, ds.graphs[0].adjacency)


def test_generate_deterministic(tmp_path):
    cfg1 = ExperimentConfig.from_doc(tiny_config(tmp_path, out=str(tmp_path / "a")))
    cfg2 = ExperimentConfig.from_doc(tiny_config(tmp_path, out=str(tmp_path / "b")))
    cmd_generate(cfg1)
    cmd_generate(cfg2)
    f1 = Path(cfg1.out, "dataset", "graph_00000.json").read_bytes()
    f2 = Path(cfg2.out, "dataset", "graph_00000.json").read_bytes()
    assert f1 == f2


def test_tree_dataset_label_balance(tmp_path):
    doc = tiny_config(tmp_path, kind="tree")
    doc["dataset"].update(n_train=6, n_val=2, n_test=2)
    cfg = ExperimentConfig.from_doc(doc)
    ds = cmd_generate(cfg)
    labels = [g.graph_label for g in ds.graphs]
    assert labels.count(0) == 5 and labels.count(1) == 5


# ---------------------------------------------------------------------------
# train


def test_train_zero_epochs_saves_random_init(tmp_path):
    doc = tiny_config(tmp_path)
    doc["models"][0]["epochs"] = 0
    cfg = ExperimentConfig.from_doc(doc)
    models = cmd_train(cfg)
    path = os.path.join(cfg.out, "checkpoints", "gcn.json")
    assert os.path.exists(path)
    fresh = load_checkpoint(path)
    from gtattack.models import build_model

    ref = build_model("gcn", "node", 8, 6, seed=0)
    for k in ref.params:
        np.testing.assert_array_equal(fresh.params[k].data, ref.params[k].data)


def test_train_checkpoint_bytes_deterministic(tmp_path):
    doc = tiny_config(tmp_path)
    cfg_a = ExperimentConfig.from_doc({**doc, "out": str(tmp_path / "a")})
    cfg_b = ExperimentConfig.from_doc({**doc, "out": str(tmp_path / "b")})
    cmd_train(cfg_a)
    cmd_train(cfg_b)
    b1 = Path(cfg_a.out, "checkpoints", "gcn.json").read_bytes()
    b2 = Path(cfg_b.out, "checkpoints", "gcn.json").read_bytes()
    assert b1 == b2


# ---------------------------------------------------------------------------
# attack sweep + report


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sweep")
    doc = tiny_config(tmp_path)
    cfg = ExperimentConfig.from_doc(write_and_load(tmp_path, doc))
    cmd_train(cfg)
    table = cmd_attack(cfg)
    return cfg, table


def write_and_load(tmp_path, doc):
    return doc


def test_attack_table_shape(swept):
    cfg, table = swept
    # per (model, budget, seed): adaptive + random rows
    adaptive = [r for r in table.rows if r["attack"] == "adaptive"]
    assert len(adaptive) == len(cfg.budgets) * len(cfg.seeds)
    rand = [r for r in table.rows if r["attack"] == "random"]
    assert len(rand) == len(adaptive)
    clean = [r for r in table.rows if r["attack"] == "clean"]
    assert len(clean) == len(cfg.seeds)
    assert all(0 <= r["accuracy"] <= 100 for r in table.rows)


def test_attack_writes_perturbations(swept):
    cfg, _ = swept
    files = os.listdir(os.path.join(cfg.out, "perturbations"))
    # 1 model x 2 budgets x 2 seeds x 2 graphs x {adaptive, random}
    assert len(files) == 16


def test_report_csv_golden_columns(swept):
    cfg, _ = swept
    written = cmd_report(cfg.out)
    rows = load_report_csv(written[0])
    assert list(rows[0].keys()) == ["budget", "model", "attack", "mean", "std"]
    # sorted by model, attack, budget
    keys = [(r["model"], r["attack"], float(r["budget"])) for r in rows if r["attack"] != "strongest"]
    assert keys == sorted(keys)
    strongest = [r for r in rows if r["attack"] == "strongest"]
    assert len(strongest) == len(cfg.budgets)  # one per attacked budget


def test_report_strongest_is_min_over_kinds(swept):
    cfg, table = swept
    written = cmd_report(cfg.out)
    rows = load_report_csv(written[0])
    for budget in cfg.budgets:
        means = [float(r["mean"]) for r in rows
                 if float(r["budget"]) == budget and r["attack"] not in ("strongest", "clean")]
        strongest = [float(r["mean"]) for r in rows
                     if float(r["budget"]) == budget and r["attack"] == "strongest"]
        assert strongest[0] == pytest.approx(min(means))


def test_report_warns_on_uneven_seed_coverage(tmp_path, caplog):
    table = ResultsTable(rows=[], config_hash="x")
    table.add("gcn", "adaptive", 0.02, "-", 0, 50.0)
    table.add("gcn", "adaptive", 0.02, "-", 1, 40.0)
    table.add("gcn", "random", 0.02, "-", 0, 60.0)
    table.save(str(tmp_path / "results.json"))
    with caplog.at_level(logging.WARNING, logger="gtattack.experiment"):
        cmd_report(str(tmp_path))
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "uneven seed coverage across cells: [1, 2]" in caplog.text


def test_report_empty_dir_errors(tmp_path):
    with pytest.raises(ConfigError, match="no results"):
        cmd_report(str(tmp_path))


def test_attack_cells_reproducible(swept):
    cfg, table = swept
    # re-run one cell: same seed, same accuracy
    from gtattack.attack import run_attack
    from gtattack.experiment import _attack_config, _load_models

    ds = load_dataset(os.path.join(cfg.out, "dataset"))
    models = _load_models(cfg)
    targets = ds.split["test"][: cfg.n_attack_graphs]
    budget, seed = cfg.budgets[0], cfg.seeds[0]
    accs = []
    for gid in targets:
        acfg = _attack_config(cfg, budget, seed)
        res = run_attack(models["gcn"], ds.graphs[gid], acfg, graph_id=gid)
        accs.append(res.attacked_metric)
    want = table.cell(model="gcn", attack="adaptive", budget=budget, seed=seed)
    assert float(np.mean(accs)) == want[0]


# ---------------------------------------------------------------------------
# ablation grids


def test_ablation_grid_structure_rows():
    grid = ablation_grid("graphormer", "structure")
    labels = [toggles_label(t) for t in grid]
    assert labels == [
        "graphormer_deg+graphormer_spd",
        "graphormer_deg",
        "graphormer_spd",
    ]


def test_ablation_grid_injection_rows():
    grid = ablation_grid("graphormer", "injection")
    assert len(grid) == 5
    assert toggles_label(grid[3]) == "node_prob_bias"
    assert "node_prob_bias" not in toggles_label(grid[4])


def test_ablation_grid_gcn_defaults():
    assert len(ablation_grid("gcn", "structure")) == 1


# ---------------------------------------------------------------------------
# ablate sweep, and the same files from a worker pool


TWO_MODELS = [
    {"arch": "gcn", "epochs": 1, "lr": 0.003, "seed": 0},
    {"arch": "graphormer", "epochs": 1, "lr": 0.01, "seed": 0},
]


def _sweep_files(out):
    names = ["results.json", "ablation.json"]
    names += [os.path.join("perturbations", f)
              for f in sorted(os.listdir(os.path.join(out, "perturbations")))]
    files = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


@pytest.fixture(scope="module")
def tree_swept(tmp_path_factory):
    """attack + ablate on a tiny tree config, with one worker and with two."""
    tmp_path = tmp_path_factory.mktemp("tree")
    doc = tiny_config(tmp_path, kind="tree", models=TWO_MODELS, ablate_budget=0.1)
    cfg = ExperimentConfig.from_doc(doc)
    cmd_train(cfg)
    out2 = str(tmp_path / "run2")
    shutil.copytree(cfg.out, out2)
    cfg2 = ExperimentConfig.from_doc({**doc, "out": out2, "n_workers": 2})
    for c in (cfg, cfg2):
        cmd_attack(c)
        cmd_ablate(c)
    return cfg, cfg2


def test_ablate_rows_and_files(tree_swept):
    cfg, _ = tree_swept
    table = ResultsTable.load(os.path.join(cfg.out, "ablation.json"))
    targets = load_dataset(os.path.join(cfg.out, "dataset")).split["test"][: cfg.n_attack_graphs]
    want_rows, want_files = [], set()
    for arch in ("gcn", "graphormer"):
        labels = [toggles_label(t) for t in ablation_grid(arch, "injection")]
        want_rows += [(arch, "clean", "-", s) for s in cfg.seeds]
        want_rows += [(arch, "random", "-", s) for s in cfg.seeds]
        want_rows += [(arch, "adaptive", lab, s) for lab in labels for s in cfg.seeds]
        want_files |= {f"{arch}.b0.1.s{s}.g{g}.adaptive.{lab}.json"
                       for lab in labels for s in cfg.seeds for g in targets}
    assert [(r["model"], r["attack"], r["toggles"], r["seed"]) for r in table.rows] == want_rows
    assert all(r["budget"] == 0.1 for r in table.rows)
    # attack wrote the untagged <kind>.json files into the same directory
    written = {f for f in os.listdir(os.path.join(cfg.out, "perturbations"))
               if not f.endswith((".adaptive.json", ".random.json"))}
    assert written == want_files


def test_json_writers_match_json_dump(tree_swept):
    # dataset graphs and split, checkpoints and histories, perturbations,
    # results.json and ablation.json: each file holds json.dump's bytes
    cfg, _ = tree_swept
    paths = [os.path.join(d, f) for d, _, fs in os.walk(cfg.out) for f in fs
             if f.endswith(".json")]
    written = {os.path.relpath(p, cfg.out) for p in paths}
    assert {os.path.join("dataset", "split.json"), os.path.join("dataset", "graph_00000.json"),
            os.path.join("checkpoints", "gcn.json"),
            os.path.join("checkpoints", "gcn.history.json"),
            "results.json", "ablation.json"} <= written
    assert any(p.startswith("perturbations") for p in written)
    for path in paths:
        with open(path) as fh:
            text = fh.read()
        want = io.StringIO()
        json.dump(json.loads(text), want, sort_keys=True)
        assert text == want.getvalue(), path


def test_two_workers_write_identical_files(tree_swept):
    cfg, cfg2 = tree_swept
    one, two = _sweep_files(cfg.out), _sweep_files(cfg2.out)
    assert sorted(one) == sorted(two)
    assert one == two


# ---------------------------------------------------------------------------
# CLI


def test_cli_generate_and_report_roundtrip(tmp_path, capsys):
    doc = tiny_config(tmp_path)
    cfg_path = write_config(tmp_path, doc)
    assert cli_main(["generate", "--config", cfg_path]) == 0
    assert cli_main(["train", "--config", cfg_path]) == 0
    assert cli_main(["attack", "--config", cfg_path, "--seed", "0", "--budget", "0.02"]) == 0
    assert cli_main(["report", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "results.csv" in out


def test_cli_stages_chained_with_common_flags(tmp_path, capsys):
    # as scripts/run_*_experiment.py do: every stage, report included, gets
    # the same flags, and --out moves every output away from the config's out
    doc = tiny_config(tmp_path, kind="tree", budgets=[0.1])
    doc["attack"].update(steps=2, block_size=40)
    cfg_path, other = write_config(tmp_path, doc), str(tmp_path / "other")
    for stage in ("generate", "train", "attack", "ablate", "report"):
        assert cli_main([stage, "--config", cfg_path, "--out", other, "--seed", "0"]) == 0
    report = [os.path.join(other, "report", f"{name}.csv") for name in ("results", "ablation")]
    assert capsys.readouterr().out.splitlines()[-2:] == report
    assert all(os.path.exists(path) for path in report)
    assert {r["seed"] for r in ResultsTable.load(os.path.join(other, "results.json")).rows} == {0}
    assert not os.path.exists(doc["out"])


def test_cli_ablate_budget_overrides_config(tmp_path):
    doc = tiny_config(tmp_path, ablate_budget=0.05, seeds=[0])
    cfg_path = write_config(tmp_path, doc)
    assert cli_main(["train", "--config", cfg_path]) == 0
    assert cli_main(["ablate", "--config", cfg_path, "--budget", "0.02"]) == 0
    table = ResultsTable.load(os.path.join(doc["out"], "ablation.json"))
    assert table.rows and {r["budget"] for r in table.rows} == {0.02}


def test_cli_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli_main(["generate", "--config", str(path)]) == 2


@pytest.mark.parametrize("attack", [{"bogus": 1}, {"steps": 0}, {"toggles": ["x"]},
                                    {"toggles": {"node_prob_bias": False, "bogus": True}}])
def test_cli_bad_attack_block_exits_2(tmp_path, capsys, attack):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path, attack=attack))
    assert cli_main(["attack", "--config", cfg_path]) == 2
    assert "bad attack config" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-0.05"])
def test_cli_nonpositive_budget_exits_2(tmp_path, capsys, budget):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path, seeds=[0]))
    assert cli_main(["train", "--config", cfg_path]) == 0
    assert cli_main(["attack", "--config", cfg_path, "--budget", budget]) == 2
    assert "budget_fraction must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("ablate_budget", [0, -0.05])
def test_cli_nonpositive_ablate_budget_exits_2(tmp_path, capsys, ablate_budget):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path, ablate_budget=ablate_budget))
    assert cli_main(["ablate", "--config", cfg_path]) == 2
    assert "bad attack config: budget_fraction must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("change,message", [
    (lambda doc: {**doc, "n_worker": 3}, "unknown config keys: n_worker"),
    (lambda doc: {**doc, "n_attack_graphs": -1}, "n_attack_graphs must be >= 1"),
    (lambda doc: {**doc, "n_attack_graphs": 0}, "n_attack_graphs must be >= 1"),
    (lambda doc: {**doc, "dataset": {**doc["dataset"], "sed": 5}}, "bad dataset config"),
    (lambda doc: {**doc, "dataset": {**doc["dataset"], "label": 1}},
     "multiple values for keyword argument 'label'"),
    (lambda doc: {**doc, "dataset": {**doc["dataset"], "n_nodes_range": [1, 3]}},
     "bad dataset config: trees need at least 2 nodes"),
    (lambda doc: {**doc, "dataset": {"kind": "cluster", "seed": 5, "p_inter": 0.5,
                                     "p_intra": 0.4}},
     "bad dataset config: require 0 <= p_inter < p_intra <= 1"),
    (lambda doc: {**doc, "models": [{"arch": "gat"}]},
     "bad model config: unknown architecture 'gat'"),
    (lambda doc: {**doc, "models": [{"arch": "gcn", "hparams": {"hiden": 3}}]},
     "bad model config: gcn: unknown hparams ['hiden']"),
    (lambda doc: {**doc, "models": [{"arch": "graphormer", "hparams": {"hidden": 5}}]},
     "bad model config: hidden must be divisible by heads"),
    (lambda doc: {**doc, "models": [{"arch": "gcn"}, {"arch": "gcn", "seed": 1}]},
     "each model arch may appear once"),
    (lambda doc: {**doc, "n_workers": "2"}, "n_workers must be int, got '2'"),
    (lambda doc: {**doc, "n_workers": 0}, "n_workers must be >= 1, got 0"),
    (lambda doc: {**doc, "models": [{"arch": "gcn", "epochs": "2"}]},
     "models[0].epochs must be int, got '2'"),
    (lambda doc: {**doc, "models": [{"arch": "gcn", "train_subset": 0.5}]},
     "models[0].train_subset must be int | None, got 0.5"),
    (lambda doc: {**doc, "models": [{"arch": "gcn", "lr": "x"}]},
     "models[0].lr must be float, got 'x'"),
    (lambda doc: {**doc, "n_attack_graphs": 2.5}, "n_attack_graphs must be int, got 2.5"),
    (lambda doc: {**doc, "n_attack_graphs": True}, "n_attack_graphs must be int, got True"),
    (lambda doc: {**doc, "seeds": ["a"]}, "seeds must be list[int], got ['a']"),
    (lambda doc: {**doc, "models": []}, "models, seeds and budgets must be non-empty"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "budget_fraction": 0.9}},
     "attack.budget_fraction is not read; each cell takes it from budgets"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "seed": 3}},
     "attack.seed is not read; each cell takes it from seeds"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "resample_every": 0}},
     "bad attack config: resample_every must be >= 1, got 0"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "block_size": 0}},
     "bad attack config: block_size must be >= 1, got 0"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "block_size": "x"}},
     "attack.block_size must be int, got 'x'"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "steps": 2.5}},
     "attack.steps must be int, got 2.5"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "loss_kind": 3}},
     "attack.loss_kind must be str, got 3"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "n_discrete_samples": -1}},
     "bad attack config: n_discrete_samples must be >= 0, got -1"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "base_lr": 0}},
     "bad attack config: base_lr must be finite and > 0, got 0"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "base_lr": float("inf")}},
     "bad attack config: base_lr must be finite and > 0, got inf"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "max_candidates": 0}},
     "bad attack config: max_candidates must be None or >= 1, got 0"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "max_candidates": 2.5}},
     "attack.max_candidates must be int | None, got 2.5"),
], ids=["unknown_top_level_key", "negative_n_attack_graphs", "zero_n_attack_graphs",
        "unknown_dataset_key", "tree_label_key", "tree_too_small", "sbm_p_inter_above_p_intra",
        "unknown_arch", "unknown_hparam", "hidden_not_divisible_by_heads", "duplicate_arch",
        "n_workers_string", "zero_n_workers", "string_epochs", "float_train_subset",
        "string_lr", "float_n_attack_graphs", "bool_n_attack_graphs", "string_seed",
        "no_models", "attack_budget_fraction", "attack_seed", "zero_resample_every",
        "zero_block_size", "string_block_size", "float_steps", "int_loss_kind",
        "negative_n_discrete_samples", "zero_base_lr", "infinite_base_lr",
        "zero_max_candidates", "float_max_candidates"])
def test_cli_rejects_config_at_load(tmp_path, capsys, change, message):
    cfg_path = write_config(tmp_path, change(tiny_config(tmp_path, kind="tree")))
    assert cli_main(["generate", "--config", cfg_path]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("kind,attack,message", [
    ("tree", {"constraint": "protect_labeled"}, "protect_labeled needs labeled nodes"),
    ("tree", {"mode": "structure"}, "tree_only constrains injection attacks only"),
    ("tree", {"loss_kind": "tanh_margin"}, "tree datasets take loss_kind 'raw_score'"),
    ("cluster", {"mode": "injection"}, "injection needs a candidate set"),
    ("cluster", {"constraint": "tree_only"}, "tree_only constrains injection attacks only"),
    ("cluster", {"loss_kind": "raw_score"}, "cluster datasets take loss_kind 'tanh_margin'"),
])
def test_cli_rejects_attack_the_dataset_cannot_run(tmp_path, capsys, kind, attack, message):
    doc = tiny_config(tmp_path, kind=kind)
    cfg_path = write_config(tmp_path, {**doc, "attack": {**doc["attack"], **attack}})
    assert cli_main(["generate", "--config", cfg_path]) == 2
    assert f"bad attack config: {message}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("kind,attack", [
    ("tree", {"mode": "structure", "constraint": "none"}),
    ("tree", {"constraint": "none"}),
    ("cluster", {"constraint": "protect_labeled"}),
])
def test_attack_settings_the_dataset_can_run_load(tmp_path, kind, attack):
    doc = tiny_config(tmp_path, kind=kind)
    cfg = ExperimentConfig.from_doc({**doc, "attack": {**doc["attack"], **attack}})
    acfg = _attack_config(cfg, cfg.budgets[0], cfg.seeds[0])
    assert {key: getattr(acfg, key) for key in attack} == attack


def test_tree_structure_attack_runs(tmp_path):
    doc = tiny_config(tmp_path, kind="tree", seeds=[0], budgets=[0.2])
    doc["attack"].update(mode="structure", constraint="none")
    cfg_path = write_config(tmp_path, doc)
    for command in ("generate", "train", "attack"):
        assert cli_main([command, "--config", cfg_path]) == 0
    results = ResultsTable.load(str(tmp_path / "run" / "results.json"))
    assert results.cell(model="gcn", attack="adaptive")


def test_tree_structure_ablate_sweeps_the_structure_grid(tmp_path):
    doc = tiny_config(tmp_path, kind="tree", models=TWO_MODELS, seeds=[0], budgets=[0.2],
                      ablate_budget=0.2)
    doc["attack"].update(mode="structure", constraint="none")
    cfg = ExperimentConfig.from_doc(doc)
    cmd_train(cfg)
    table = cmd_ablate(cfg)
    labels = [r["toggles"] for r in table.rows
              if r["model"] == "graphormer" and r["attack"] == "adaptive"]
    assert labels == [toggles_label(t) for t in ablation_grid("graphormer", "structure")]
    assert len(labels) == 3


def test_cli_unknown_model_exits_2(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path))
    assert cli_main(["train", "--config", cfg_path, "--model", "nope"]) == 2


def test_cli_unknown_toggle_exits_2(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path))
    assert cli_main(["attack", "--config", cfg_path, "--toggles", "bogus"]) == 2


def test_cli_ablate_rejects_toggles(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path))
    assert cli_main(["ablate", "--config", cfg_path, "--toggles", "node_prob_bias"]) == 2
    assert "ablation_grid" in capsys.readouterr().err


def test_cli_progress_goes_to_each_calls_stderr(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path, seeds=[0], budgets=[0.05]))
    sinks = {}
    for command in ("generate", "train", "attack"):
        sinks[command] = io.StringIO()
        monkeypatch.setattr("sys.stderr", sinks[command])
        assert cli_main([command, "--config", cfg_path]) == 0
    monkeypatch.undo()
    assert "cell" not in sinks["generate"].getvalue()
    assert "cell" not in sinks["train"].getvalue()
    assert sinks["attack"].getvalue().count("cell ") == 2  # 1 arch x 1 budget x 1 seed x 2 graphs
    assert not logging.getLogger("gtattack").handlers


def test_cli_progress_reaches_caller_handlers(tmp_path, caplog):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path, seeds=[0], budgets=[0.05]))
    assert cli_main(["generate", "--config", cfg_path]) == 0
    assert cli_main(["train", "--config", cfg_path]) == 0
    with caplog.at_level(logging.INFO, logger="gtattack.experiment"):
        assert cli_main(["attack", "--config", cfg_path]) == 0
    assert [r.message.split(":")[0] for r in caplog.records] == ["cell 1/2", "cell 2/2"]


# ---------------------------------------------------------------------------
# stale inputs: dataset and checkpoints carry the stamp of the config they
# were made from


def test_cli_attack_rejects_dataset_of_another_config(tmp_path, capsys):
    doc = tiny_config(tmp_path, seeds=[0], budgets=[0.05])
    assert cli_main(["train", "--config", write_config(tmp_path, doc)]) == 0
    doc["dataset"]["seed"] = 6
    assert cli_main(["attack", "--config", write_config(tmp_path, doc)]) == 2
    assert "split.json was made from another config" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(doc["out"], "results.json"))


def test_cli_attack_rejects_checkpoint_of_another_config(tmp_path, capsys):
    doc = tiny_config(tmp_path, seeds=[0], budgets=[0.05])
    assert cli_main(["train", "--config", write_config(tmp_path, doc)]) == 0
    doc["models"][0]["hparams"] = {"hidden": 16}
    assert cli_main(["attack", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "gcn.json was made from another config" in err and "rerun train" in err


def test_unstamped_dataset_is_rejected(tmp_path):
    cfg = ExperimentConfig.from_doc(tiny_config(tmp_path))
    cmd_train(cfg)
    path = os.path.join(cfg.out, "dataset")
    save_dataset(load_dataset(path), path)
    with pytest.raises(ConfigError, match="stamp None.*rerun generate"):
        cmd_attack(cfg)


def test_unstamped_checkpoint_is_rejected(tmp_path):
    cfg = ExperimentConfig.from_doc(tiny_config(tmp_path))
    models = cmd_train(cfg)
    save_checkpoint(models["gcn"], os.path.join(cfg.out, "checkpoints", "gcn.json"))
    with pytest.raises(ConfigError, match="stamp None.*rerun train"):
        cmd_attack(cfg)


def test_generate_removes_graphs_of_a_larger_dataset(tmp_path):
    doc = tiny_config(tmp_path)
    doc["dataset"]["n_test"] = 6
    cmd_generate(ExperimentConfig.from_doc(doc))
    doc["dataset"]["n_test"] = 3
    ds = cmd_generate(ExperimentConfig.from_doc(doc))
    assert len(ds.graphs) == 9
    reloaded = load_dataset(os.path.join(doc["out"], "dataset"))
    assert len(reloaded.graphs) == 9
    for a, b in zip(reloaded.graphs, ds.graphs):
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
