"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME ...``.

Runs the workload's cells repeatedly for ``--seconds`` seconds, checks
every cell's output, and prints one JSON object as the last line of
standard output. ``--trace 0`` reports the end-to-end metrics (medians
over repetitions); ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones. Human
diagnostics (offered against requested counts, the layer table) go to
standard error. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:
    from perfbench.workloads import Cell

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: repetitions always run, however long they take
MIN_REPS = 3
#: untraced/traced pairs always run with --trace 1
MIN_PAIRS = 2
#: extra set-up-only passes over the cells per untraced repetition
SETUP_PASSES = 4
#: no new repetition starts after this many seconds
HARD_LIMIT_S = 120.0


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    src = ROOT / "src"
    sys.path[:0] = [str(ROOT), str(src)]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {exc}")
    where = Path(repro.__file__).resolve().parent.parent
    if where != src.resolve():
        raise SystemExit(f"perfbench: repro imported from {where}, not {src}")


Rep = Tuple[bool, list]   # (traced, [CellRun per cell])


def measure(cells: Tuple[Cell, ...], seed: int, seconds: float, trace: bool
            ) -> Tuple[List[Rep], List[float]]:
    """Repeat *cells* until *seconds* would be exceeded.

    Returns the repetitions and, for untraced runs, the set-up samples:
    each is the set-up seconds summed over the workload's cells, from a
    full repetition or from a set-up-only pass.
    """
    from perfbench.cell import run_cell, setup_only

    setups: List[float] = []
    modes = (False, True) if trace else (False,)
    minimum = MIN_PAIRS * 2 if trace else MIN_REPS
    reps: List[Rep] = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        traced = modes[len(reps) % len(modes)]
        began = time.perf_counter()
        if not trace:
            for _ in range(SETUP_PASSES):
                samples = [setup_only(c, seed) for c in cells]
                if None not in samples:
                    setups.append(sum(samples))
        runs = [run_cell(c, seed, traced) for c in cells]
        reps.append((traced, runs))
        if not trace and all(run.ok for run in runs):
            setups.append(sum(run.setup_s for run in runs))
        gc.collect()
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(reps) >= minimum and (elapsed + longest > seconds
                                     or elapsed > HARD_LIMIT_S):
            break
    _check_digests(reps)
    return reps, setups


def _check_digests(reps: List[Rep]) -> None:
    """Every repetition of a cell, traced or not, yields the same JSON."""
    first: Dict[int, str] = {}
    for _, runs in reps:
        for index, run in enumerate(runs):
            if not run.ok:
                continue
            expected = first.setdefault(index, run.digest)
            if run.digest != expected:
                run.problems.append(
                    f"results digest {run.digest[:12]} differs from"
                    f" {expected[:12]} of an earlier repetition")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(reps: List[Rep], setups: List[float]
               ) -> Dict[str, Tuple[float, str]]:
    """Medians over repetitions of the workload's summed cells."""
    per_sim, per_wall = [], []
    for _, runs in reps:
        if not all(run.ok for run in runs):
            continue
        run_s = sum(r.run_s for r in runs)
        per_sim.append(_ratio(run_s, sum(r.sim_s for r in runs)))
        per_wall.append(_ratio(sum(r.committed for r in runs), run_s))
    median = (lambda xs: statistics.median(xs) if xs else 0.0)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(setups), "s"),
        "wall_per_sim_s": (median(per_sim), "s/s"),
        "committed_tx_per_wall_s": (median(per_wall), "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer(reps: List[Rep]) -> Dict[str, Tuple[float, str]]:
    """Layer metrics over the traced repetitions (sums, then ratios)."""
    from perfbench.layers import COUNTED, LAYER_OF, LAYERS

    traced = [runs for t, runs in reps if t and all(r.ok for r in runs)]
    plain = [runs for t, runs in reps if not t and all(r.ok for r in runs)]
    runs = [run for rep in traced for run in rep]
    n = max(1, len(traced))
    self_time: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for run in runs:
        for key, value in run.self_time.items():
            self_time[key] = self_time.get(key, 0.0) + value
        for key, value in run.calls.items():
            calls[key] = calls.get(key, 0) + value
        for key, value in run.counts.items():
            counts[key] = counts.get(key, 0) + value
    layer_s = {layer.name: 0.0 for layer in LAYERS}
    for label, seconds in self_time.items():
        layer_s[LAYER_OF[label]] += seconds
    crypto_calls = sum(calls.get(label, 0) for label, layer in LAYER_OF.items()
                       if layer == "crypto")
    wall = sum(r.wall_s for r in runs)
    setup = sum(r.setup_s for r in runs)
    engine = sum(r.run_s for r in runs) - sum(layer_s.values())
    committed = sum(r.committed for r in runs)
    offered = sum(r.offered for r in runs)
    adds = calls.get("Mempool.add", 0)
    us = (lambda seconds, den: 1e6 * _ratio(seconds, den))
    rep_wall = (lambda rs: sum(r.wall_s for r in rs))
    price_label = COUNTED[0].label
    metrics: Dict[str, Tuple[float, str]] = {
        "core.emission.us_per_tx": (
            us(layer_s["core.emission"], counts.get("emission.txs", 0)), "us"),
        "core.emission.txs": (counts.get("emission.txs", 0) / n, "count"),
        "blockchains.submit.us_per_tx": (
            us(layer_s["blockchains.submit"], counts.get("submit.txs", 0)),
            "us"),
        "blockchains.submit.accept_ratio": (
            _ratio(counts.get("submit.accepted", 0),
                   counts.get("submit.txs", 0)), "ratio"),
        "blockchains.submit.retries": (
            sum(r.retries for r in runs) / n, "count"),
        "chain.mempool.add_us": (us(layer_s["chain.mempool.write"], adds),
                                 "us"),
        "chain.mempool.evictions": (
            sum(r.evictions for r in runs) / n, "count"),
        "econ.fees.price_calls_per_add": (
            _ratio(calls.get(price_label, 0), adds), "ratio"),
        "chain.mempool.pop_us_per_tx": (
            us(layer_s["chain.mempool.read"], counts.get("mempool.popped", 0)),
            "us"),
        "vm.execute.us_per_tx": (
            us(layer_s["vm"], calls.get("VirtualMachine.execute", 0)), "us"),
        "vm.gas_per_tx": (
            _ratio(counts.get("vm.gas", 0),
                   calls.get("VirtualMachine.execute", 0)), "gas"),
        "crypto.hash.us_per_committed_tx": (
            us(layer_s["crypto"], committed), "us"),
        "crypto.hash.calls_per_tx": (
            _ratio(crypto_calls, offered), "ratio"),
        "chain.ledger.us_per_block": (
            us(layer_s["chain.ledger"], calls.get("Ledger.append", 0)), "us"),
        "consensus.model.us_per_block": (
            us(layer_s["consensus.model"],
               calls.get("ConsensusPerfModel.decide", 0)), "us"),
        "consensus.blocks": (
            calls.get("ConsensusPerfModel.decide", 0) / n, "count"),
        "econ.market.us_per_block": (
            us(layer_s["econ"], calls.get("FeeMarket.on_block", 0)), "us"),
        "core.population.us_per_tick": (
            us(layer_s["core.population"],
               calls.get("AggregateArrivals.count_at", 0)), "us"),
        "core.results.record_us": (
            us(self_time.get("TransactionRecord.from_transaction", 0.0),
               calls.get("TransactionRecord.from_transaction", 0)), "us"),
        "core.results.json_us_per_record": (
            us(self_time.get("BenchmarkResult.to_json", 0.0),
               counts.get("results.json_records", 0)), "us"),
        "sim.engine.self_share": (_ratio(engine, wall), "ratio"),
        "sim.engine.events": (sum(r.events for r in runs) / n, "count"),
        "trace.overhead_ratio": (
            _ratio(statistics.median(map(rep_wall, traced)) if traced else 0,
                   statistics.median(map(rep_wall, plain)) if plain else 0),
            "ratio"),
        "setup.share": (_ratio(setup, wall), "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer.name}.share"] = (_ratio(layer_s[layer.name], wall),
                                          "ratio")
    return metrics


def _report(name: str, seed: int, reps: List[Rep],
            metrics: Dict[str, Tuple[float, str]], trace: bool) -> None:
    """Human diagnostics on standard error."""
    err = sys.stderr
    print(f"perfbench {name} seed={seed} repetitions={len(reps)}"
          f" ({sum(t for t, _ in reps)} traced)", file=err)
    for run in reps[0][1]:
        print(f"  {run.label:22s} offered {run.offered:>7d}"
              f" (spec asks {run.expected:9.1f}) committed {run.committed:>7d}"
              f" dropped {run.dropped:>6d} pending {run.pending:>6d}"
              f" digest {run.digest[:12]}", file=err)
    for traced, runs in reps:
        print(f"  {'traced' if traced else 'plain'} repetition:"
              f" setup {sum(r.setup_s for r in runs):.4f} s,"
              f" run {sum(r.run_s for r in runs):.4f} s", file=err)
        for run in runs:
            for problem in run.problems:
                print(f"  FAILED {run.label}: {problem}", file=err)
    if trace:
        shares = sorted(((value, key) for key, (value, _) in metrics.items()
                         if key.endswith("share")), reverse=True)
        for value, key in shares:
            print(f"  {key:32s} {100 * value:6.2f} %", file=err)
    for key, (value, unit) in metrics.items():
        if not key.endswith("share"):
            print(f"  {key:34s} {value:14.6g} {unit}", file=err)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" have {', '.join(WORKLOADS)}")
    trace = bool(args.trace)
    reps, setups = measure(WORKLOADS[args.workload](), args.seed,
                           args.seconds, trace)
    metrics = per_layer(reps) if trace else end_to_end(reps, setups)
    runs = [run for _, rep in reps for run in rep]
    failed = sum(1 for run in runs if not run.ok)
    _report(args.workload, args.seed, reps, metrics, trace)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
