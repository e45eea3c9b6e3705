"""Attack-cell benchmark for gtattack.

Run from the repository root:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 15 --trace 0

The workload's inputs come from ``--seed``.  It is set up several times,
then timed rounds run until ``--seconds`` have passed (at least the
workload's ``min_rounds``), and every output is checked.  A traced run
(``--trace 1``) does a fixed amount of work instead: ``SETUP_REPEATS``
set-ups and ``min_rounds`` rounds, so that its per-layer totals do not
depend on how much work fits in a time window.  Lines starting with ``#``
give the machine record, every metric with its unit and sample count, and
a digest of the first ``min_rounds`` rounds' flips and metrics.  The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
from a traced run with ``--trace 1``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("structure", "injection", "sweep")
SETUP_REPEATS = 5  # at least; untraced, more while SETUP_SECONDS have not passed
SETUP_SECONDS = 2.0
TWIN_ROUNDS = 3  # traced rounds re-run untraced to measure the tracing overhead

E2E_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "cell_s.gcn": "s",
    "cell_s.grit": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def limit_threads() -> None:
    """One BLAS thread: the matrices here are at most ~40 x 40, which
    OpenBLAS runs single-threaded anyway, and the machine has few cores."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program() -> str | None:
    """Import gtattack from this checkout's src/; an error message if absent."""
    package = os.path.join(SRC, "gtattack")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        return f"no gtattack sources at {os.path.relpath(package)}"
    sys.path[:0] = [SRC, ROOT]
    import gtattack

    if os.path.dirname(os.path.abspath(gtattack.__file__)) != package:
        return f"gtattack imported from {gtattack.__file__}, not from src/"
    return None


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "blas" in ln.split()[-1].lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def numba_imports() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def machine_record(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "numba": numba_imports(),
        "seed": seed,
    }


def tail(values: list[float]) -> str:
    """The highest of p99 and p90 with at least ten samples beyond it: a
    timing is reported as its median and that tail percentile."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return ""


def describe(name: str, values: list[float], walls: list[float], what: str,
             mean: bool = False) -> str:
    value = statistics.fmean(values) if mean else statistics.median(values)
    extra = f", median {statistics.median(values):.6g}" if mean else ""
    return (f"# {name} {value:.6g} s ({'mean' if mean else 'median'} of {len(values)} {what}"
            f"{extra}{tail(values)}; wall median {statistics.median(walls):.6g} s)")


def measure(args, workdir: str) -> int:
    from perfbench import workloads
    from perfbench.clock import NOMINAL_PROBE_S, Clock
    from perfbench.tracer import Tracer, metric_units, self_times

    tracer = Tracer() if args.trace else None
    traced = tracer is not None
    clock = Clock(tracer)
    wl = workloads.make_workload(args.workload, args.seed, workdir, clock, tracer)
    errors: list[str] = []

    setups, fingerprints = [], []
    if traced:
        tracer.trace_id = "setup"
        tracer.install()
    start = time.perf_counter()
    try:
        while len(setups) < SETUP_REPEATS or (
                not traced and time.perf_counter() - start < SETUP_SECONDS):
            gc.collect()
            clock.start()
            fingerprints.append(wl.setup())
            setups.append(clock.lap())
    finally:
        if traced:
            tracer.uninstall()
            tracer.trace_id = ""
    if len(set(fingerprints)) != 1:
        errors.append("repeated set-ups produced different models")

    if traced:
        tracer.install()
    rounds = []
    start = time.perf_counter()
    try:
        while len(rounds) < wl.min_rounds or (
                not traced and time.perf_counter() - start < args.seconds):
            rounds.append(wl.round(len(rounds)))
    finally:
        if traced:
            tracer.uninstall()
    # untraced twins of the first traced rounds, run after them so that
    # neither side alone pays for first calls
    twins = [wl.round(r) for r in range(min(TWIN_ROUNDS, len(rounds)))] if traced else []

    errors += wl.check(rounds)
    if any(twin.doc != rnd.doc for twin, rnd in zip(twins, rounds)):
        errors.append("traced and untraced runs of the same round differ")

    cells = [c for r in rounds for c in r.cells]
    attempted, failed = len(cells), sum(not c.ok for c in cells)
    by_arch = {arch: [c for c in cells if c.arch == arch and c.ok]
               or [c for c in cells if c.arch == arch] for arch in wl.archs}
    prefix = rounds[:wl.min_rounds]
    accs = [a for r in prefix for a in r.adaptive_metrics]
    e2e = {
        "setup_s": statistics.median(nominal for _, nominal in setups),
        "sweep_s": statistics.fmean(r.seconds for r in rounds),
        "cell_s.gcn": statistics.median(c.seconds for c in by_arch["gcn"]),
        "cell_s.grit": statistics.median(c.seconds for c in by_arch["grit"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    digest = hashlib.sha256(
        json.dumps([r.doc for r in prefix], sort_keys=True).encode()).hexdigest()

    print(f"# workload {args.workload}: {len(rounds)} rounds, {attempted} cells"
          f"{', traced' if tracer else ''}")
    print(f"# machine speed: probe {min(clock.probes) * 1e3:.3g}-{max(clock.probes) * 1e3:.3g}"
          f" ms, nominal {NOMINAL_PROBE_S * 1e3:.3g} ms; times below are nominal")
    print(describe("setup_s", [n for _, n in setups], [w for w, _ in setups], "set-ups"))
    print(describe("sweep_s", [r.seconds for r in rounds], [r.wall for r in rounds], "rounds",
                   mean=True))
    for arch, arch_cells in by_arch.items():
        print(describe(f"cell_s.{arch}", [c.seconds for c in arch_cells],
                       [c.wall for c in arch_cells], "cells"))
    print(f"# adaptive_acc {statistics.fmean(accs) if accs else float('nan'):.6g} % "
          f"(mean of {len(accs)} adaptive results in the first {len(prefix)} rounds)")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed}/{attempted} cells)")
    print(f"# peak_rss_mb {e2e['peak_rss_mb']:.6g} MB")
    print(f"# digest {digest}")
    for err in errors[:20]:
        print(f"error: {err}", file=sys.stderr)

    if not traced:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    else:
        overhead = statistics.median(rnd.seconds - twin.seconds
                                     for twin, rnd in zip(twins, rounds))
        print(f"# trace.overhead_s {overhead:.6g} s (median over rounds 0-{len(twins) - 1} of"
              f" traced minus untraced round time)")
        tracer.retime(clock.to_nominal)
        print_attribution(tracer.spans, self_times(tracer.spans), wl.archs)
        units = metric_units()
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in tracer.metrics(overhead).items()}
        write_spans(tracer.spans, args)
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def print_attribution(spans: list, selfs: list[float], archs) -> None:
    """Where each architecture's cell time went, by self time per layer."""
    for arch in archs:
        per: dict[str, float] = {}
        for span, own in zip(spans, selfs):
            if span[4] == arch:
                per[span[0]] = per.get(span[0], 0.0) + own
        total = sum(per.values())
        if not total:
            continue
        top = sorted(per.items(), key=lambda kv: -kv[1])[:5]
        shares = ", ".join(f"{name} {100 * t / total:.1f}%" for name, t in top)
        print(f"# cell time {arch} {total:.6g} s: {shares}")


def write_spans(spans: list, args) -> None:
    path = os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.jsonl")
    with open(path, "w") as fh:
        for name, start, end, parent, trace_id in spans:
            fh.write(json.dumps([name, start, end, parent, trace_id]) + "\n")
    print(f"# spans {len(spans)} written to {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_threads()
    problem = import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    print(f"# machine {json.dumps(machine_record(args.seed), sort_keys=True)}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
