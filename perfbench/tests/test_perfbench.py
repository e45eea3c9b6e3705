"""Tests of the benchmark's own code: tracer arithmetic and patching,
metric names, and the output checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import logging
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gtattack import autodiff, paths, spectral, train
from gtattack.attack import AttackConfig, PerturbationResult
from gtattack.autodiff import Tensor
from gtattack.generators import make_cluster_dataset, make_tree_dataset
from gtattack.models import GCN
from gtattack.models import san as san_module
from perfbench import run, workloads
from perfbench.clock import Clock
from perfbench.tracer import Tracer, aggregate, metric_units, self_times

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def span(name, start, end, parent=-1):
    return [name, start, end, parent, ""]


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, 0),
        span("c", 5.0, 9.0, 0),
        span("d", 6.0, 7.0, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_takes_union_of_overlapping_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0), span("c", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_busy_time_counts_reentered_name_once():
    spans = [span("x", 0.0, 4.0), span("x", 1.0, 2.0, 0), span("y", 5.0, 6.0)]
    agg = aggregate(spans)
    assert agg["x"] == pytest.approx({"calls": 2, "busy_s": 4.0, "self_s": 4.0})
    assert agg["y"] == pytest.approx({"calls": 1, "busy_s": 1.0, "self_s": 1.0})


def test_nominal_time_line_scales_each_interval_by_its_mark():
    clock = Clock()
    clock.marks = [(10.0, 2.0), (0.0, 1.0), (4.0, 0.5)]  # recorded out of order
    got = clock.to_nominal([-1.0, 0.0, 2.0, 4.0, 8.0, 10.0, 11.0])
    assert got == pytest.approx([-1.0, 0.0, 2.0, 4.0, 6.0, 7.0, 9.0])


def test_retime_maps_span_bounds():
    tracer = Tracer()
    tracer.spans = [span("a", 1.0, 3.0), span("b", 2.0, 2.5, 0)]
    tracer.retime(lambda ts: 2.0 * np.asarray(ts))
    assert [(s[1], s[2]) for s in tracer.spans] == [(2.0, 6.0), (4.0, 5.0)]


# ---------------------------------------------------------------------------
# metric names


def test_metric_names_and_units_are_well_formed():
    names = list(metric_units()) + list(run.E2E_UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(metric_units().values()) + list(run.E2E_UNITS.values()):
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", unit), unit


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metric_units()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


# ---------------------------------------------------------------------------
# tracer patching


def test_install_wraps_every_binding_and_uninstall_restores():
    bindings = [(spectral, "eig_sym"), (san_module, "eig_sym"), (train, "eig_sym"),
                (GCN, "forward"), (autodiff.Tape, "clear"), (PerturbationResult, "save")]
    before = [owner.__dict__[attr] for owner, attr in bindings]
    handlers = list(logging.getLogger(spectral.__name__).handlers)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(bindings, before))
        assert san_module.eig_sym is spectral.eig_sym is train.eig_sym
        spectral.eig_sym(np.eye(3))
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr in bindings] == before
    assert logging.getLogger(spectral.__name__).handlers == handlers
    assert [s[0] for s in tracer.spans] == ["spectral.eig_sym"]


def test_rspd_backward_and_counters_are_traced():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1.0  # node 3 is unreachable
    tracer = Tracer()
    tracer.install()
    try:
        leaf = Tensor(a, requires_grad=True)
        with autodiff.Tape():
            out = paths.rspd_matrix(leaf)
            finite = autodiff.masked_fill(out, ~np.isfinite(out.data), 0.0)
            autodiff.backward(autodiff.tsum(finite))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(overhead_s=0.0)
    assert set(metrics) == set(metric_units())
    assert metrics["paths.rspd_matrix.calls"] == 1
    assert metrics["paths.unreachable_pairs"] == 6
    assert metrics["paths.rspd_matrix.backward_s"] > 0.0
    assert metrics["autodiff.tape_ops"] > 0


# ---------------------------------------------------------------------------
# output checks


def result(flips, budget, config, attack_kind="adaptive"):
    return PerturbationResult(
        graph_id=0, budget=budget, budget_fraction=config.budget_fraction, flips=flips,
        clean_metric=100.0, attacked_metric=0.0, loss_trace=[0.5], seed=0, toggles={},
        mode=config.mode, constraint=config.constraint, attack_kind=attack_kind)


@pytest.fixture(scope="module")
def tree_case():
    ds = make_tree_dataset(0, n_train=3, n_val=1, n_test=1, n_nodes_range=(8, 8))
    config = AttackConfig(**workloads.INJECTION_ATTACK)
    budget = workloads.budget_from_fraction(config.budget_fraction, ds.graphs[0].num_edges)
    return ds.graphs[0], config, 6, budget


def test_check_accepts_valid_injection(tree_case):
    graph, config, cands, budget = tree_case
    res = result([[0, graph.n]], budget, config)
    assert workloads.check_result(res, graph, config, cands) == []


def test_check_rejects_injection_over_budget(tree_case):
    graph, config, cands, budget = tree_case
    flips = [[i, graph.n + i] for i in range(budget + 1)]
    errs = workloads.check_result(result(flips, budget, config), graph, config, cands)
    assert any("exceed budget" in e for e in errs)


def test_check_rejects_non_tree_injection(tree_case):
    graph, config, cands, budget = tree_case
    assert budget >= 1
    cycle = [[0, graph.n], [1, graph.n]]  # one candidate joined to two tree nodes
    res = result(cycle, len(cycle), config)
    errs = workloads.check_result(res, graph, config, cands)
    assert any("not a tree" in e for e in errs)


def test_check_rejects_edges_inside_the_tree(tree_case):
    graph, config, cands, budget = tree_case
    i, j = np.argwhere(np.triu(graph.adjacency == 0, k=1))[0]
    errs = workloads.check_result(result([[int(i), int(j)]], budget, config), graph, config,
                                  cands)
    assert any("allowed pairs" in e for e in errs)
    assert any("tree-to-candidate" in e for e in errs)


def test_check_rejects_structure_over_budget_and_bad_metric():
    graph = make_cluster_dataset(0, n_train=1, n_val=0, n_test=0, n_clusters=3,
                                 nodes_per_cluster_range=(4, 4)).graphs[0]
    config = AttackConfig(**workloads.STRUCTURE_ATTACK)
    budget = workloads.budget_from_fraction(config.budget_fraction, graph.num_edges)
    flips = [[0, j] for j in range(1, budget + 2)]
    res = result(flips, budget, config)
    res.attacked_metric = 101.0
    res.loss_trace = [float("nan")]
    errs = workloads.check_result(res, graph, config)
    assert any("exceed budget" in e for e in errs)
    assert any("outside [0, 100]" in e for e in errs)
    assert any("non-finite" in e for e in errs)


# ---------------------------------------------------------------------------
# the command


def test_command_fails_without_program_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "structure", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
