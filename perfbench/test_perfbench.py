"""Tests of the benchmark itself, on cells small enough for a test run.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from repro.core.spec import (AccountSample, LoadSchedule, TransferSpec,
                             simple_population_spec, simple_spec)
from repro.econ.fees import FeeSpec

from perfbench import layers
from perfbench.cell import CellRun, run_cell
from perfbench.run import _check_digests, end_to_end, per_layer
from perfbench.workloads import WORKLOADS, Cell

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: a transfer cell: every chain-side layer except fees and population
TRANSFER = Cell("quorum", "testnet", 0.02, "tiny-transfer",
                simple_spec(TransferSpec(AccountSample(100)),
                            LoadSchedule.constant(500.0, 4.0)))
#: a priced population cell: aggregate lane, fee model, price-aware pool
PRICED = Cell("ethereum", "testnet", 0.02, "tiny-priced",
              simple_population_spec(
                  users=100_000, interaction=TransferSpec(AccountSample(100)),
                  rate_per_user=0.01, duration=4.0, fees=FeeSpec()))


@pytest.fixture(scope="module")
def spec_file() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=[TRANSFER, PRICED],
                ids=lambda cell: cell.workload_name)
def reps(request) -> list:
    cell = request.param
    return [(False, [run_cell(cell, seed=3)]),
            (True, [run_cell(cell, seed=3, traced=True)])]


def test_metric_names_and_units_are_valid(spec_file, reps) -> None:
    declared = {"end_to_end": end_to_end(reps, [0.5]),
                "per_layer": per_layer(reps)}
    for kind, produced in declared.items():
        names = [m["name"] for m in spec_file[kind]]
        assert len(names) == len(set(names))
        assert sorted(names) == sorted(produced)
        for metric in spec_file[kind]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
            assert UNIT.fullmatch(metric["unit"]), metric["unit"]
            assert metric["unit"] == produced[metric["name"]][1]
    for workload in spec_file["workloads"]:
        assert NAME.fullmatch(workload["name"])
    assert sorted(WORKLOADS) == sorted(
        w["name"] for w in spec_file["workloads"])


def test_cells_pass_their_output_checks(reps) -> None:
    for _, runs in reps:
        for run in runs:
            assert run.ok, run.problems
            assert run.offered > 0 and run.setup_s > 0 and run.run_s > 0


def test_traced_and_untraced_digests_match(reps) -> None:
    (_, [plain]), (_, [traced]) = reps
    assert plain.digest == traced.digest


def test_a_differing_digest_fails_the_later_repetition() -> None:
    reps = [(False, [CellRun("a", digest="1" * 64)]),
            (True, [CellRun("a", digest="2" * 64)])]
    _check_digests(reps)
    assert reps[0][1][0].ok
    assert not reps[1][1][0].ok


def test_shares_cover_the_whole_cell_wall(reps) -> None:
    metrics = per_layer(reps)
    shares = {k: v for k, (v, _) in metrics.items()
              if k.endswith(".share") or k == "sim.engine.self_share"}
    assert len(shares) == len(layers.LAYERS) + 2   # + setup + engine
    assert all(value >= 0 for value in shares.values())
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)


def test_traced_cell_reaches_every_layer(reps) -> None:
    _, (_, [traced]) = reps
    called = {layer.name for layer in layers.LAYERS
              for target in layer.targets if traced.calls[target.label]}
    expected = {"core.emission", "blockchains.submit", "chain.mempool.write",
                "chain.mempool.read", "vm", "crypto", "chain.ledger",
                "consensus.model", "core.results"}
    if traced.label.startswith("ethereum"):
        expected |= {"econ", "core.population"}
        assert traced.calls[layers.COUNTED[0].label] > 0
    assert expected <= called


def test_no_wrapper_is_left_after_a_traced_run(reps) -> None:
    assert layers.leftover_wrappers() == []
    from repro.chain import block
    from repro.crypto import hashing
    assert block.digest is hashing.digest
    assert not hasattr(hashing.digest, layers.MARK)


def test_tracer_patches_names_where_callers_look_them_up() -> None:
    from repro.chain import block
    from repro.consensus.models import CliquePerf
    from repro.crypto import hashing
    original = hashing.digest
    with layers.LayerTracer():
        assert getattr(block.digest, layers.MARK) == "digest"
        assert getattr(hashing.digest, layers.MARK) == "digest"
        assert hasattr(CliquePerf.__dict__["decide"], layers.MARK)
    assert block.digest is original
    assert layers.leftover_wrappers() == []


def test_a_failing_cell_is_counted_not_raised() -> None:
    broken = Cell("no-such-chain", "testnet", 0.02, "broken",
                  TRANSFER.spec)
    run = run_cell(broken, seed=1, traced=True)
    assert not run.ok
    assert layers.leftover_wrappers() == []


def test_runner_refuses_to_run_without_the_program(tmp_path) -> None:
    import shutil
    import subprocess
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "native-transfer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
