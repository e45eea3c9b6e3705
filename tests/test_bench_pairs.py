"""The summary of scripts/bench_pairs.py on canned perfbench output."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output(cell, acc, digest="ea4519c3ffff", correct=True, failed=0):
    """perfbench's last lines for one run."""
    metrics = {"cell_s.gcn": {"value": cell, "unit": "s"}, "acc": {"value": acc, "unit": "%"}}
    return "\n".join([
        "# workload structure: 9 rounds, 36 cells",
        f"# fail_ratio 0 ({failed}/36 cells)",
        f"# digest {digest}",
        json.dumps({"correct": correct, "attempted": 36, "failed": failed, "metrics": metrics}),
    ])


BETTER = {"cell_s.gcn": "lower", "acc": "higher"}


def test_parse_run_reads_metrics_checks_and_digest(bench_pairs):
    run = bench_pairs.parse_run(output(0.0035, 50.0, failed=2) + "\n")
    assert run == bench_pairs.Run({"cell_s.gcn": 0.0035, "acc": 50.0}, True, 2, "ea4519c3ffff")


def test_summary_applies_the_claim_rule(bench_pairs):
    # parent cells 3.0-3.9 ms (quartiles 3.225 and 3.675); the change is
    # 0.5 ms faster in 9 of 10 pairs and ties the tenth: a gap of 0.5 ms
    # against an IQR of 0.45 ms.  acc moves in the change's favour in every
    # pair, but by less than its IQR
    parent_cells = [3.0 + 0.1 * i for i in range(10)]
    change_cells = [c - 0.5 for c in parent_cells[:9]] + [parent_cells[9]]
    parse, pairs = bench_pairs.parse_run, list(enumerate(zip(parent_cells, change_cells)))
    parent = [parse(output(p * 1e-3, 50.0 + i)) for i, (p, _) in pairs]
    change = [parse(output(c * 1e-3, 50.5 + i)) for i, (_, c) in pairs]
    assert bench_pairs.summarize(parent, change, BETTER) == [
        "cell_s.gcn: parent 0.00345 [0.003225, 0.003675] -> change 0.00295 (-14.5%), "
        "won 9/10, claim rule holds",
        "acc: parent 54.5 [52.25, 56.75] -> change 55 (+0.9%), won 10/10, claim rule fails",
        "every run correct with 0 failed: yes",
        "digests match: yes (ea4519c3)",
    ]
    # fewer than MIN_PAIRS pairs never make a claim, whatever they show
    lines = bench_pairs.summarize(parent[:9], change[:9], {"cell_s.gcn": "lower"})
    assert lines[0].endswith("won 9/9, claim rule fails")


def test_summary_reports_failed_runs_and_digest_mismatch(bench_pairs):
    parent = [bench_pairs.parse_run(output(3e-3, 50.0)) for _ in range(2)]
    change = [bench_pairs.parse_run(output(3e-3, 50.0, digest="deadbeef00", failed=1)),
              bench_pairs.parse_run(output(4e-3, 50.0, correct=False))]
    lines = bench_pairs.summarize(parent, change, {"cell_s.gcn": "lower"})
    assert lines[0] == ("cell_s.gcn: parent 0.003 [0.003, 0.003] -> change 0.0035 (+16.7%), "
                        "won 0/2, claim rule fails")
    assert lines[1:] == ["every run correct with 0 failed: no",
                         "digests match: no (deadbeef, ea4519c3)"]


def test_summary_adds_cell_lines_that_benchmark_does_not_list(bench_pairs):
    # perfbench prints a cell line per architecture; the JSON result's value
    # wins where it has one.  Graphormer's line is informational: it names
    # no claim rule, though the change is 5 ms faster in every pair
    def traced(graphormer, gcn):
        cells = [f"# cell_s.gcn {gcn:.6g} s (median of 9 cells; wall median {gcn:.6g} s)",
                 f"# cell_s.graphormer {graphormer:.6g} s (median of 9 cells; wall median "
                 f"{graphormer:.6g} s)"]
        return bench_pairs.parse_run("\n".join(cells) + "\n" + output(gcn, 50.0))

    run = traced(0.0123456789, 0.0035123456)
    assert run.metrics == {"cell_s.gcn": 0.0035123456, "acc": 50.0, "cell_s.graphormer": 0.0123457}
    parent = [traced((10.0 + i) * 1e-3, 3e-3) for i in range(10)]
    change = [traced((5.0 + i) * 1e-3, 3e-3) for i in range(10)]
    assert bench_pairs.summarize(parent, change, {"cell_s.gcn": "lower"})[:2] == [
        "cell_s.gcn: parent 0.003 [0.003, 0.003] -> change 0.003 (+0.0%), won 0/10, "
        "claim rule fails",
        "cell_s.graphormer: parent 0.0145 [0.01225, 0.01675] -> change 0.0095 (-34.5%), "
        "won 10/10 (informational)",
    ]
