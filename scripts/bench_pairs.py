"""Paired benchmark runs of a parent checkout against this one.

    python scripts/bench_pairs.py PARENT_DIR --workload structure --seed 1 \\
        --pairs 10 --seconds 20

Runs ``perfbench/run.py --trace 0`` of both checkouts ``--pairs`` times,
alternating which side runs first, each with ``PYTHONHASHSEED=0`` in its
own checkout.  For each end-to-end metric of ``BENCHMARK.json`` it prints
the parent's median with its quartiles, the change's median, the pairs the
change won (ties count for neither) and whether the claim rule holds: at
least ``MIN_PAIRS`` pairs, the change winning at least nine tenths of them,
and a gap between the medians, in the change's favour, wider than the
parent's interquartile range.  The per-architecture cell times that
perfbench prints as ``# cell_s.<arch>`` lines but ``BENCHMARK.json`` does
not list (``cell_s.graphormer``, ``cell_s.san``) get the same line, marked
informational and without the claim rule.  It also prints whether every run
was ``correct`` with 0 failed cells and whether every run's ``# digest``
line is the same.  It only reads what perfbench prints.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


class Run(NamedTuple):
    """What one perfbench run printed."""

    metrics: dict[str, float]
    correct: bool
    failed: int
    digest: str | None


def parse_run(text: str) -> Run:
    """A run from perfbench's output: the ``# digest`` line, the JSON result
    on the last line, and the ``# cell_s.<arch>`` lines of the cell times
    that result does not carry."""
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((line.split()[2] for line in lines if line.startswith("# digest ")), None)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if line.startswith("# cell_s."):
            name, value = line.split()[1:3]
            metrics.setdefault(name, float(value))
    return Run(metrics, result["correct"] is True, result["failed"], digest)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def compare(name: str, direction: str, parent: list[Run], change: list[Run]) -> tuple[str, bool]:
    """``name``'s parent median with its quartiles, the change's median and
    the pairs the change won; and whether the claim rule holds."""
    n = len(parent)
    sign = 1.0 if direction == "lower" else -1.0
    p = [r.metrics[name] for r in parent]
    c = [r.metrics[name] for r in change]
    won = sum(sign * (b - a) < 0.0 for a, b in zip(p, c))
    q1, median, q3 = quartiles(p)
    cm = statistics.median(c)
    holds = n >= MIN_PAIRS and 10 * won >= 9 * n and sign * (median - cm) > q3 - q1
    return (f"{name}: parent {median:.6g} [{q1:.6g}, {q3:.6g}] -> change {cm:.6g} "
            f"({100.0 * (cm - median) / median:+.1f}%), won {won}/{n}"), holds


def summarize(parent: list[Run], change: list[Run], better: dict[str, str]) -> list[str]:
    """Report lines of paired runs, ``parent[i]`` against ``change[i]``,
    for the metrics of ``better`` (name -> "lower" or "higher"), then for
    the cell times every run printed that ``better`` does not name."""
    lines = []
    for name, direction in better.items():
        line, holds = compare(name, direction, parent, change)
        lines.append(f"{line}, claim rule {'holds' if holds else 'fails'}")
    runs = parent + change
    cells = set.intersection(*(set(r.metrics) for r in runs)) - set(better)
    for name in sorted(m for m in cells if m.startswith("cell_s.")):
        lines.append(f"{compare(name, 'lower', parent, change)[0]} (informational)")
    correct = all(r.correct and r.failed == 0 for r in runs)
    lines.append(f"every run correct with 0 failed: {'yes' if correct else 'no'}")
    digests = sorted({str(r.digest) for r in runs})
    lines.append(f"digests match: {'yes' if len(digests) == 1 else 'no'} "
                 f"({', '.join(d[:8] for d in digests)})")
    return lines


def run_perfbench(checkout: str, args: argparse.Namespace) -> Run:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env={**os.environ, "PYTHONHASHSEED": "0"},
                          capture_output=True, text=True)
    try:
        return parse_run(proc.stdout)
    except (ValueError, IndexError, KeyError):
        sys.exit(f"{checkout}: perfbench exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    parent, change = [], []
    for i in range(args.pairs):
        sides = [(args.parent, parent), (ROOT, change)]
        for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run_perfbench(checkout, args))
        print(f"# pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for line in summarize(parent, change, better):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
