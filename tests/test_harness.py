import contextlib
import io
import json
import logging
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtattack.cli import main as cli_main
from gtattack.experiment import (
    ConfigError,
    ExperimentConfig,
    ResultsTable,
    _attack_config,
    _make_dataset,
    ablation_grid,
    cmd_ablate,
    cmd_attack,
    cmd_generate,
    cmd_report,
    cmd_train,
    load_report_csv,
    toggles_label,
)
from gtattack.graphs import _graph_to_doc, load_dataset, save_dataset
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


@pytest.mark.parametrize("config", ["cluster", "tree"])
def test_experiment_scripts_chain_all_five_stages(config, monkeypatch):
    # the driver passes its own arguments to every stage, ablate included,
    # so that the config's ablate_budget is read
    import runpy
    import sys

    from gtattack import cli

    calls = []
    scripts = Path(__file__).parent.parent / "scripts"
    config = str(scripts / f"{config}_config.json")
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", ["run_experiment.py", config, "--seed", "0"])
    runpy.run_path(str(scripts / "run_experiment.py"), run_name="__main__")
    assert calls == [[stage, "--config", config, "--seed", "0"]
                     for stage in ("generate", "train", "attack", "ablate", "report")]


def test_config_hash_unchanged_without_ablate_budget(tmp_path):
    # value computed before ablate_budget entered the hash
    assert ExperimentConfig.from_doc(tiny_config(tmp_path)).hash() == "57cb5d1898b1c07a"


def test_config_hash_covers_ablate_budget(tmp_path):
    hashes = {ExperimentConfig.from_doc(tiny_config(tmp_path, ablate_budget=b)).hash()
              for b in (None, 0.05, 0.2)}
    assert len(hashes) == 3


def test_results_table_rejects_out_of_range_accuracy():
    t = ResultsTable([])
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
    written = cmd_report(cfg)
    rows = load_report_csv(written[0])
    assert list(rows[0].keys()) == ["budget", "model", "attack", "mean", "std"]
    # sorted by model, attack, budget
    keys = [(r["model"], r["attack"], float(r["budget"])) for r in rows if r["attack"] != "strongest"]
    assert keys == sorted(keys)
    strongest = [r for r in rows if r["attack"] == "strongest"]
    assert len(strongest) == len(cfg.budgets)  # one per attacked budget


def test_report_strongest_is_min_over_kinds(swept):
    cfg, table = swept
    written = cmd_report(cfg)
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
    cfg = ExperimentConfig.from_doc(tiny_config(tmp_path, out=str(tmp_path)))
    with caplog.at_level(logging.WARNING, logger="gtattack.experiment"):
        cmd_report(cfg)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "uneven seed coverage across cells: [1, 2]" in caplog.text


def test_report_empty_dir_errors(tmp_path):
    with pytest.raises(ConfigError, match="no results"):
        cmd_report(ExperimentConfig.from_doc(tiny_config(tmp_path, out=str(tmp_path))))


def test_cli_report_restricts_rows_like_every_stage(tmp_path, capsys):
    # report aggregates only the cells that the flags leave in the config:
    # here gcn's rows of seed 0 at budget 0.02, and gcn's clean row of seed 0
    doc = tiny_config(tmp_path, models=[{"arch": "gcn", "epochs": 1, "lr": 0.003, "seed": 0},
                                        {"arch": "grit", "epochs": 1, "lr": 0.005, "seed": 0}])
    cfg_path = write_config(tmp_path, doc)
    for stage in ("generate", "train", "attack"):
        assert cli_main([stage, "--config", cfg_path]) == 0
    table = ResultsTable.load(os.path.join(doc["out"], "results.json"))
    assert {r["model"] for r in table.rows} == {"gcn", "grit"}
    flags = ["--seed", "0", "--model", "gcn", "--budget", "0.02"]
    assert cli_main(["report", "--config", cfg_path, *flags]) == 0
    csv = os.path.join(doc["out"], "report", "results.csv")
    rows = load_report_csv(csv)
    assert {(r["model"], r["budget"]) for r in rows} == {("gcn", "0"), ("gcn", "0.02")}
    assert {r["attack"] for r in rows} == {"clean", "adaptive", "random", "transfer:grit",
                                           "transfer", "strongest"}
    assert {r["std"] for r in rows} == {"0.0000"}  # one seed per cell
    adaptive = [float(r["mean"]) for r in rows if r["attack"] == "adaptive"]
    want = table.cell(model="gcn", attack="adaptive", budget=0.02, seed=0)
    assert adaptive == [pytest.approx(want[0], abs=5e-5)]
    # a restriction that leaves no row exits 2 instead of writing an empty CSV
    os.remove(csv)
    capsys.readouterr()
    assert cli_main(["report", "--config", cfg_path, "--seed", "2"]) == 2
    assert "no row of" in capsys.readouterr().err
    assert not os.path.exists(csv)


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
    # as scripts/run_experiment.py does: every stage, report included, gets
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
                                    {"toggles": {"node_prob_bias": False, "bogus": True}},
                                    {"toggles": {"san_attention": "false"}},
                                    {"toggles": {"grit_deg_grad": 0}}])
def test_cli_bad_attack_block_exits_2(tmp_path, capsys, attack):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path, attack=attack))
    assert cli_main(["attack", "--config", cfg_path]) == 2
    assert "bad attack config" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-0.05"])
def test_cli_nonpositive_budget_exits_2(tmp_path, capsys, budget):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path, seeds=[0]))
    assert cli_main(["train", "--config", cfg_path]) == 0
    assert cli_main(["attack", "--config", cfg_path, "--budget", budget]) == 2
    assert f"budgets[0] must be > 0, got {float(budget)}" in capsys.readouterr().err


def test_cli_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path))
    assert cli_main(["generate", "--config", cfg_path, "--seed", "-1"]) == 2
    assert "seeds[0] must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("ablate_budget", [0, -0.05])
def test_cli_nonpositive_ablate_budget_exits_2(tmp_path, capsys, ablate_budget):
    cfg_path = write_config(tmp_path, tiny_config(tmp_path, ablate_budget=ablate_budget))
    assert cli_main(["ablate", "--config", cfg_path]) == 2
    assert f"ablate_budget must be > 0, got {ablate_budget}" in capsys.readouterr().err


@pytest.mark.parametrize("change,message", [
    (lambda doc: {**doc, "n_worker": 3}, "has unknown key 'n_worker'"),
    (lambda doc: {**doc, "n_attack_graphs": -1}, "n_attack_graphs must be >= 1"),
    (lambda doc: {**doc, "n_attack_graphs": 0}, "n_attack_graphs must be >= 1"),
    (lambda doc: {**doc, "dataset": {**doc["dataset"], "sed": 5}}, "dataset has unknown key 'sed'"),
    (lambda doc: {**doc, "dataset": {**doc["dataset"], "label": 1}},
     "dataset has unknown key 'label'"),
    (lambda doc: {**doc, "dataset": {**doc["dataset"], "n_nodes_range": [1, 3]}},
     "bad dataset config: trees need at least 2 nodes"),
    (lambda doc: {**doc, "dataset": {"kind": "cluster", "seed": 5, "p_inter": 0.5,
                                     "p_intra": 0.4}},
     "dataset has unknown key 'p_inter'"),
    (lambda doc: {**doc, "dataset": {**doc["dataset"], "n_clusters": 3}},
     "bad dataset config: make_tree_dataset() got an unexpected keyword argument 'n_clusters'"),
    (lambda doc: {**doc, "dataset": {"kind": "cluster", "seed": 5, "n_clusters": 9}},
     "bad dataset config: n_clusters must be <= FEATURE_DIM = 8"),
    (lambda doc: {**doc, "dataset": {"kind": "cluster", "seed": 5,
                                     "nodes_per_cluster_range": [1, 1]}},
     "bad dataset config: generate_sbm_cluster: no connected sample in 200 retries"),
    (lambda doc: {**doc, "models": [{"arch": "gat"}]},
     "models[0].arch must be 'gcn' | 'grit' | 'graphormer' | 'san', got 'gat'"),
    (lambda doc: {**doc, "models": [{"arch": "gcn", "hparams": {"hiden": 3}}]},
     "bad model config: gcn: unknown hparams ['hiden']"),
    (lambda doc: {**doc, "models": [{"arch": "graphormer", "hparams": {"hidden": 5}}]},
     "bad model config: hidden must be divisible by heads"),
    (lambda doc: {**doc, "models": [{"arch": "grit", "hparams": {"walk_length": 1}}]},
     "bad model config: walk_length must be >= 2, got 1"),
    (lambda doc: {**doc, "models": [{"arch": "san", "hparams": {"gamma": -1.0}}]},
     "bad model config: gamma must be >= 0, got -1.0"),
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
    (lambda doc: {**doc, "seeds": ["a"]}, "seeds[0] must be int, got 'a'"),
    (lambda doc: {**doc, "seeds": [-1]}, "seeds[0] must be >= 0, got -1"),
    (lambda doc: {**doc, "seeds": [0, -1]}, "seeds[1] must be >= 0, got -1"),
    (lambda doc: {**doc, "models": []}, "models must have length >= 1, got []"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "budget_fraction": 0.9}},
     "attack.budget_fraction is not read; each cell takes it from budgets"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "seed": 3}},
     "attack.seed is not read; each cell takes it from seeds"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "resample_every": 0}},
     "bad attack config: attack.resample_every must be >= 1, got 0"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "block_size": 0}},
     "bad attack config: attack.block_size must be >= 1, got 0"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "block_size": "x"}},
     "attack.block_size must be int, got 'x'"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "steps": 2.5}},
     "attack.steps must be int, got 2.5"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "loss_kind": 3}},
     "attack.loss_kind must be 'tanh_margin' | 'raw_score', got 3"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "n_discrete_samples": -1}},
     "bad attack config: attack.n_discrete_samples must be >= 0, got -1"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "base_lr": 0}},
     "bad attack config: attack.base_lr must be > 0, got 0"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "base_lr": float("inf")}},
     "bad attack config: attack.base_lr must be finite, got inf"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "max_candidates": 0}},
     "bad attack config: attack.max_candidates must be >= 1, got 0"),
    (lambda doc: {**doc, "attack": {**doc["attack"], "max_candidates": 2.5}},
     "attack.max_candidates must be int | None, got 2.5"),
    (lambda doc: {**doc, "budgets": [float("nan")]}, "budgets[0] must be finite, got nan"),
    (lambda doc: {**doc, "budgets": [float("inf")]}, "budgets[0] must be finite, got inf"),
    (lambda doc: {**doc, "models": [{"arch": "gcn", "lr": float("nan")}]},
     "models[0].lr must be finite, got nan"),
    (lambda doc: {**doc, "budgets": [0.05, 5.0]}, "budgets[1] must be <= 1, got 5.0"),
    (lambda doc: {**doc, "dataset": {**doc["dataset"], "n_train": -1}},
     "dataset.n_train must be >= 1, got -1"),
    (lambda doc: {**doc, "dataset": {**doc["dataset"], "n_val": 0}},
     "dataset.n_val must be >= 1, got 0"),
    (lambda doc: {**doc, "dataset": {**doc["dataset"], "n_test": 0}},
     "dataset.n_test must be >= 1, got 0"),
    (lambda doc: {**doc, "seeds": [0, 0, 1]}, "seeds must be distinct, got [0, 0, 1]"),
    (lambda doc: {**doc, "budgets": [0.05, 0.05]},
     "budgets must be strictly ascending, got [0.05, 0.05]"),
    (lambda doc: {**doc, "budgets": [0.2000001, 0.2000002]},
     "budgets must differ in their :g labels, got [0.2000001, 0.2000002] as ['0.2', '0.2']"),
    (lambda doc: {**doc, "out": __file__},
     f"out {__file__} cannot be made: {__file__} is not a directory"),
    (lambda doc: {**doc, "out": os.path.join(__file__, "run")},
     f"cannot be made: {__file__} is not a directory"),
], ids=["unknown_top_level_key", "negative_n_attack_graphs", "zero_n_attack_graphs",
        "unknown_dataset_key", "tree_label_key", "tree_too_small", "sbm_p_inter_above_p_intra",
        "tree_cluster_key", "more_clusters_than_features", "unconnectable_clusters",
        "unknown_arch", "unknown_hparam", "hidden_not_divisible_by_heads",
        "grit_walk_length_1", "san_negative_gamma", "duplicate_arch",
        "n_workers_string", "zero_n_workers", "string_epochs", "float_train_subset",
        "string_lr", "float_n_attack_graphs", "bool_n_attack_graphs", "string_seed",
        "negative_seed", "negative_later_seed",
        "no_models", "attack_budget_fraction", "attack_seed", "zero_resample_every",
        "zero_block_size", "string_block_size", "float_steps", "int_loss_kind",
        "negative_n_discrete_samples", "zero_base_lr", "infinite_base_lr",
        "zero_max_candidates", "float_max_candidates", "nan_budget", "infinite_budget",
        "nan_lr", "budget_above_1", "negative_n_train", "zero_n_val", "zero_n_test",
        "repeated_seed", "repeated_budget", "budgets_sharing_a_label", "out_is_a_file",
        "out_inside_a_file"])
def test_cli_rejects_config_at_load(tmp_path, capsys, change, message):
    cfg_path = write_config(tmp_path, change(tiny_config(tmp_path, kind="tree")))
    assert cli_main(["generate", "--config", cfg_path]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_cli_generate_rejects_a_later_graph_it_cannot_connect(tmp_path, capsys):
    # three one-node clusters connect with probability 0.7% per sample: seed
    # 0's first graph connects, so the config loads, but a later one does not
    doc = tiny_config(tmp_path, dataset={"kind": "cluster", "seed": 0, "n_train": 4, "n_val": 2,
                                         "n_test": 3, "n_clusters": 3,
                                         "nodes_per_cluster_range": [1, 1]})
    ExperimentConfig.from_doc(doc)
    assert cli_main(["generate", "--config", write_config(tmp_path, doc)]) == 2
    assert ("bad dataset config: generate_sbm_cluster: no connected sample in 200 retries"
            in capsys.readouterr().err)
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


@pytest.mark.parametrize("stage", ["attack", "ablate"])
def test_cli_rejects_block_size_below_a_budget_before_any_cell(tmp_path, capsys, stage):
    # the block size is a config key, but a budget's flips depend on each
    # target graph's edge count, so the check waits for the dataset
    doc = tiny_config(tmp_path, kind="tree", seeds=[0], budgets=[0.2], ablate_budget=0.2)
    doc["dataset"]["n_nodes_range"] = [12, 12]  # 11 edges: 2 flips at budget 0.2
    doc["attack"]["block_size"] = 1
    cfg_path = write_config(tmp_path, doc)
    for command in ("generate", "train"):
        assert cli_main([command, "--config", cfg_path]) == 0
    assert cli_main([stage, "--config", cfg_path]) == 2
    assert ("attack.block_size 1 is below the 2 flips of budget 0.2 on graph 6"
            in capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "run" / "perturbations")
    assert not os.path.exists(tmp_path / "run" / "results.json")
    assert not os.path.exists(tmp_path / "run" / "ablation.json")


def test_cli_rejects_budget_above_the_pairs_a_constraint_leaves(tmp_path, capsys):
    # two clusters of two nodes, each with one labeled node: protect_labeled
    # leaves the one pair of unlabeled nodes, and budget 0.5 takes 2 flips
    doc = tiny_config(tmp_path, seeds=[0], budgets=[0.5], n_attack_graphs=1)
    doc["dataset"].update(n_clusters=2, nodes_per_cluster_range=[2, 2])
    doc["attack"]["constraint"] = "protect_labeled"
    cfg_path = write_config(tmp_path, doc)
    for command in ("generate", "train"):
        assert cli_main([command, "--config", cfg_path]) == 0
    assert cli_main(["attack", "--config", cfg_path]) == 2
    assert ("attack.constraint 'protect_labeled' leaves 1 pairs to flip, below the 2 flips of "
            "budget 0.5 on graph 6" in capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "run" / "perturbations")


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


def test_cli_report_rejects_toggles(tmp_path, capsys):
    # a results.json holds the rows of one attack run, all of one toggle
    # set, so the flag could only keep every row or none
    cfg_path = write_config(tmp_path, tiny_config(tmp_path))
    assert cli_main(["report", "--config", cfg_path, "--toggles", "node_prob_bias"]) == 2
    assert "report takes no --toggles" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


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


def test_cli_reports_stale_dataset_before_parsing_its_graphs(tmp_path, capsys):
    doc = tiny_config(tmp_path)
    assert cli_main(["generate", "--config", write_config(tmp_path, doc)]) == 0
    graph = Path(doc["out"], "dataset", "graph_00000.json")
    graph.write_text(graph.read_text()[:10])
    doc["dataset"]["seed"] = 6
    assert cli_main(["train", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "split.json was made from another config" in err and "rerun generate" in err


def test_cli_attack_rejects_checkpoint_of_another_config(tmp_path, capsys):
    doc = tiny_config(tmp_path, seeds=[0], budgets=[0.05])
    assert cli_main(["train", "--config", write_config(tmp_path, doc)]) == 0
    doc["models"][0]["hparams"] = {"hidden": 16}
    assert cli_main(["attack", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "gcn.json was made from another config" in err and "rerun train" in err


def _drop(doc, name):
    del doc["params"][name], doc["shapes"][name]


def _shorten(doc, name):
    doc["params"][name] = doc["params"][name][:-1]


def _add_old_eback(doc, name):  # what GRIT checkpoints saved before it was dropped
    doc["params"][name], doc["shapes"][name] = [0.0] * 64, [8, 8]


@pytest.mark.parametrize("edit,name,message", [
    (_drop, "l0.wq", "lacks parameter 'l0.wq'"),
    (_shorten, "out.w", "parameter 'out.w' has shape [24, 6] and 143 values; grit expects [24, 6]"),
    (_add_old_eback, "l1.eback", "has parameter 'l1.eback', which grit lacks"),
], ids=["missing", "mis_sized", "unexpected"])
def test_cli_attack_rejects_checkpoint_with_bad_parameters(tmp_path, capsys, edit, name, message):
    doc = tiny_config(tmp_path, seeds=[0], budgets=[0.05],
                      models=[{"arch": "grit", "epochs": 0, "lr": 0.003, "seed": 0}])
    cfg_path = write_config(tmp_path, doc)
    assert cli_main(["train", "--config", cfg_path]) == 0
    path = Path(doc["out"], "checkpoints", "grit.json")
    ckpt = json.loads(path.read_text())
    edit(ckpt, name)
    path.write_text(json.dumps(ckpt))
    assert cli_main(["attack", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"grit.json: checkpoint {message}; rerun train" in err
    assert not os.path.exists(os.path.join(doc["out"], "results.json"))


# ---------------------------------------------------------------------------
# broken artifacts: a stage exits 2 naming the file it cannot read


@pytest.fixture(scope="module")
def cli_swept(tmp_path_factory):
    """train, attack and ablate through the CLI on a tiny cluster config."""
    tmp_path = tmp_path_factory.mktemp("cli")
    doc = tiny_config(tmp_path, seeds=[0], budgets=[0.05], ablate_budget=0.05)
    cfg_path = write_config(tmp_path, doc)
    for stage in ("train", "attack", "ablate"):
        assert cli_main([stage, "--config", cfg_path]) == 0
    return cfg_path, doc["out"]


def _truncate(text):
    return text[: len(text) // 2]


def _without_hparams(text):
    doc = json.loads(text)
    del doc["hparams"]
    return json.dumps(doc)


def _set(value, *keys):
    """An edit setting the entry at ``keys`` of the document to ``value``."""
    def edit(text):
        doc = json.loads(text)
        inner = doc
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = value
        return json.dumps(doc)

    return edit


def _without(key, rows=False):
    """An edit deleting ``key`` from the document, or from its first row."""
    def edit(text):
        doc = json.loads(text)
        del (doc["rows"][0] if rows else doc)[key]
        return json.dumps(doc)

    return edit


@pytest.mark.parametrize("stage,name,edit,said", [
    ("attack", os.path.join("checkpoints", "gcn.json"), _truncate, ""),
    ("attack", os.path.join("checkpoints", "gcn.json"), _without_hparams, ""),
    ("report", "results.json", _truncate, ""),
    ("report", "results.json", lambda text: "[1]", ""),
    ("report", "ablation.json", _truncate, ""),
    ("report", "results.json", lambda text: "{}", "lacks key 'rows'"),
    ("report", "results.json", _without("seed", rows=True), "rows[0] lacks key 'seed'"),
    ("attack", os.path.join("dataset", "split.json"), _without("train"), "lacks key 'train'"),
    ("report", "results.json", _set("x", "rows", 0, "accuracy"),
     "rows[0].accuracy must be float, got 'x'"),
    ("attack", os.path.join("checkpoints", "gcn.json"), _set("x", "hparams", "hidden"),
     "hparams.hidden must be int, got 'x'"),
    ("attack", os.path.join("dataset", "split.json"), _set([999], "test"),
     "split test holds index 999, outside range(9)"),
    ("attack", os.path.join("dataset", "split.json"), _set("x", "test"),
     "test must be list[int], got 'x'"),
    ("attack", os.path.join("dataset", "graph_00000.json"), _set(float("nan"), "edges", 0, 2),
     "edges[0][2] must be finite, got nan"),
    ("attack", os.path.join("dataset", "graph_00000.json"), _set("x", "graph_label"),
     "graph_label must be 0 | 1 | None, got 'x'"),
], ids=["truncated_checkpoint", "checkpoint_without_hparams", "truncated_results",
        "results_not_an_object", "truncated_ablation", "results_without_rows",
        "results_row_without_seed", "split_without_train", "string_accuracy",
        "string_hparam", "split_index_out_of_range", "split_part_not_a_list",
        "nan_edge_weight", "string_graph_label"])
def test_cli_broken_artifact_exits_2_naming_it(cli_swept, tmp_path, capsys, stage, name, edit,
                                               said):
    cfg_path, out = cli_swept
    copy = str(tmp_path / "run")
    shutil.copytree(out, copy)
    path = Path(copy, name)
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert cli_main([stage, "--config", cfg_path, "--out", copy]) == 2
    assert f"error: {path}: {said}" in capsys.readouterr().err


def _add_edge(text):
    """A graph edit adding an edge on the first pair of nodes without one."""
    doc = json.loads(text)
    joined = {(i, j) for i, j, _ in doc["edges"]}
    doc["edges"].append(next([i, j, 1.0] for i in range(doc["n"]) for j in range(i + 1, doc["n"])
                             if (i, j) not in joined))
    return json.dumps(doc)


def _drop_first_edge(text):
    doc = json.loads(text)
    del doc["edges"][0]
    return json.dumps(doc)


# what each stage writes: a stage that rejects its input leaves none of it
STAGE_OUTPUTS = {"train": ["checkpoints"], "attack": ["perturbations", "results.json"],
                 "ablate": ["perturbations", "ablation.json"]}

# a target graph that breaks a rule of the cell's run fails before the first
# cell, and so does a graph without the labels of its dataset's task:
# (stages, dataset kind, attack settings, split part of the graph, edit, message)
BROKEN_GRAPHS = {
    "tree_only_target_with_a_cycle": (
        ("attack", "ablate"), "tree", {}, "test", _add_edge,
        "tree_only injection requires a tree as the original graph on graph 6"),
    "injection_target_disconnected": (
        ("attack", "ablate"), "tree", {"constraint": "none"}, "test", _drop_first_edge,
        "injection attacks require a connected original graph on graph 6"),
    "protect_labeled_target_without_mask": (
        ("attack", "ablate"), "cluster", {"constraint": "protect_labeled"}, "test",
        _set(None, "labeled_mask"),
        "protect_labeled requires a labeled_mask on the graph on graph 6"),
    "cluster_target_label_beyond_the_classes": (
        ("attack", "ablate"), "cluster", {}, "test", _set(999, "node_labels", 0),
        "node label 999 is outside the model's 6 classes on graph 6"),
    "cluster_train_graph_without_node_labels": (
        ("train",), "cluster", {}, "train", _set(None, "node_labels"),
        "graph 0 has no node_labels, which every graph of a node-classification dataset "
        "carries"),
    "tree_train_graph_without_graph_label": (
        ("train",), "tree", {}, "train", _set(None, "graph_label"),
        "graph 0 has no graph_label, which every graph of a binary-graph-classification "
        "dataset carries"),
    "tree_target_without_graph_label": (
        ("attack",), "tree", {}, "test", _set(None, "graph_label"),
        "graph 6 has no graph_label, which every graph of a binary-graph-classification "
        "dataset carries"),
}


@pytest.mark.parametrize("case,stage", [(case, stage) for case, (stages, *_) in
                                        BROKEN_GRAPHS.items() for stage in stages])
def test_cli_broken_graph_exits_2_naming_it(tmp_path, capsys, case, stage):
    _, kind, attack, part, edit, said = BROKEN_GRAPHS[case]
    doc = tiny_config(tmp_path, kind=kind, seeds=[0], budgets=[0.2], n_attack_graphs=1)
    doc["attack"].update(attack)
    cfg_path = write_config(tmp_path, doc)
    for command in ("generate",) if stage == "train" else ("generate", "train"):
        assert cli_main([command, "--config", cfg_path]) == 0
    dataset = Path(doc["out"], "dataset")
    gid = json.loads((dataset / "split.json").read_text())[part][0]
    path = dataset / f"graph_{gid:05d}.json"
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert cli_main([stage, "--config", cfg_path]) == 2
    assert said in capsys.readouterr().err
    for name in STAGE_OUTPUTS[stage]:
        assert not os.path.exists(os.path.join(doc["out"], name))


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


def test_attack_clips_n_attack_graphs_to_the_test_split(tmp_path, caplog):
    doc = tiny_config(tmp_path, kind="tree", seeds=[0], budgets=[0.1], n_attack_graphs=100)
    cfg_path = write_config(tmp_path, doc)
    for stage in ("generate", "train"):
        assert cli_main([stage, "--config", cfg_path]) == 0
    with caplog.at_level(logging.WARNING, logger="gtattack.experiment"):
        assert cli_main(["attack", "--config", cfg_path]) == 0
    assert "n_attack_graphs 100 exceeds the 3 test graphs; attacking all of them" in caplog.text
    files = os.listdir(os.path.join(doc["out"], "perturbations"))
    assert len({name.split(".g")[1].split(".")[0] for name in files}) == 3  # graph ids


# ---------------------------------------------------------------------------
# fuzz: one leaf of a config or artifact mutated, then the stage that reads it


# each artifact of a finished tree run but its graph files, and the stage
# that reads it: a few hundred cases, drawn
FUZZ_TARGETS = {
    "config.json": "generate",
    os.path.join("run", "dataset", "split.json"): "train",
    os.path.join("run", "checkpoints", "gcn.json"): "attack",
    os.path.join("run", "results.json"): "report",
}

# graph files of a finished run of each dataset kind, and the stage that
# reads each: every case of these is tested
FUZZ_GRAPHS = {
    ("tree", "graph_00000.json"): "train",  # a training graph
    ("tree", "graph_00006.json"): "attack",  # the attacked graph
    ("cluster", "graph_00006.json"): "attack",
}

MUTATIONS = ["type", "nan", "inf", "-inf", "negative", "index", "one", "extra", "missing"]


def _fuzz_config(tmp_path, kind):
    doc = tiny_config(tmp_path, kind=kind, seeds=[0], budgets=[0.1], n_attack_graphs=1)
    doc["attack"].update(steps=2, block_size=40, n_discrete_samples=1)
    return doc


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory):
    """A finished tiny run (generate, train, attack) of each dataset kind,
    with its config, by kind."""
    runs = {}
    for kind in ("tree", "cluster"):
        tmp_path = tmp_path_factory.mktemp(f"fuzz_{kind}")
        doc = _fuzz_config(tmp_path, kind)
        cfg_path = write_config(tmp_path, doc)
        for stage in ("generate", "train", "attack"):
            assert cli_main([stage, "--config", cfg_path]) == 0
        shutil.rmtree(os.path.join(doc["out"], "perturbations"))
        runs[kind] = tmp_path
    return runs


def _leaves(doc, path=()):
    """Paths to the scalar leaves of a JSON document (two entries per list)."""
    if isinstance(doc, dict):
        return [leaf for key, value in doc.items() for leaf in _leaves(value, path + (key,))]
    if isinstance(doc, list):
        return [leaf for i, value in enumerate(doc[:2]) for leaf in _leaves(value, path + (i,))]
    return [path]


def _graph_leaves(kind, name):
    """The leaves of graph file ``name`` of the ``kind`` fuzz run, from the
    graph its config generates."""
    graph = _make_dataset(_fuzz_config(Path("run"), kind)["dataset"]).graphs[int(name[6:11])]
    return _leaves(json.loads(json.dumps(_graph_to_doc(graph))))


def _mutate(value, kind):
    return {"type": 1 if isinstance(value, str) else "x", "nan": float("nan"),
            "inf": float("inf"), "-inf": float("-inf"), "index": 999, "one": 1,
            "negative": -abs(value) - 1 if isinstance(value, (int, float)) else -1}[kind]


def _stage_exit_on_mutated_leaf(run, name, stage, path, kind):
    """Exit code and output of ``stage`` on a copy of ``run`` whose file
    ``name`` has the leaf at ``path`` mutated by ``kind``."""
    doc = json.loads((run / name).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "missing":
        del parent[path[-1]]
    elif kind == "extra":
        if isinstance(parent, dict):
            parent["bogus"] = 1
        else:
            parent.append(parent[path[-1]])
    else:
        parent[path[-1]] = _mutate(parent[path[-1]], kind)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(run, tmp, dirs_exist_ok=True)
        Path(tmp, name).write_text(json.dumps(doc))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main([stage, "--config", os.path.join(tmp, "config.json"),
                             "--out", os.path.join(tmp, "run")])
    return code, sink.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_stage_never_crashes_on_a_mutated_leaf(fuzz_runs, data):
    run = fuzz_runs["tree"]
    name = data.draw(st.sampled_from(sorted(FUZZ_TARGETS)), label="file")
    doc = json.loads((run / name).read_text())
    path = data.draw(st.sampled_from(_leaves(doc)), label="leaf")
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    code, output = _stage_exit_on_mutated_leaf(run, name, FUZZ_TARGETS[name], path, kind)
    assert code in (0, 2), output


@pytest.mark.parametrize("run_kind,name,path,kind", [
    pytest.param(run_kind, name, path, kind,
                 id=f"{run_kind}-{name[:-5]}-{'.'.join(map(str, path))}-{kind}")
    for run_kind, name in FUZZ_GRAPHS for path in _graph_leaves(run_kind, name)
    for kind in MUTATIONS])
def test_cli_stage_never_crashes_on_a_mutated_graph_leaf(fuzz_runs, run_kind, name, path, kind):
    run = fuzz_runs[run_kind]
    name_in_run = os.path.join("run", "dataset", name)
    assert path in _leaves(json.loads((run / name_in_run).read_text()))
    code, output = _stage_exit_on_mutated_leaf(run, name_in_run, FUZZ_GRAPHS[run_kind, name],
                                               path, kind)
    assert code in (0, 2), output
