"""Run one cell the way a user does, timing it from outside.

The cell wall runs from constructing the ``Primary`` to the moment the
results JSON string exists. It splits at the first emitted transaction
(the first ``SimConnector.encode_batch`` call): before it is set-up
(chain build, accounts, contract deployment, Secondaries), after it the
run proper (event loop, drain, aggregation, ``to_json``).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.interface import SimConnector
from repro.core.primary import Primary

from perfbench.layers import LayerTracer, leftover_wrappers
from perfbench.workloads import Cell


class SetupDone(Exception):
    """Raised at the first emission by a set-up-only :class:`SetupClock`."""


class SetupClock:
    """Stamps the first ``encode_batch`` call, then gets out of the way.

    The stamp wrapper puts the previous attribute back on its first call,
    so every later emission runs the unwrapped method. Traced and
    untraced cells both carry it, so it does not make them differ. With
    a tracer it also switches span recording on at that instant; with
    ``stop`` it ends the cell there by raising :class:`SetupDone`.
    """

    def __init__(self, tracer: Optional[LayerTracer] = None,
                 stop: bool = False) -> None:
        self.tracer = tracer
        self.stop = stop
        self.started = 0.0
        self.at: Optional[float] = None
        self._previous: Any = None

    def __enter__(self) -> "SetupClock":
        previous = self._previous = SimConnector.__dict__["encode_batch"]
        clock = self

        def first_emission(connector: SimConnector, *args: Any,
                           **kwargs: Any) -> Any:
            SimConnector.encode_batch = previous
            clock.at = time.perf_counter()
            if clock.tracer is not None:
                clock.tracer.active = True
            if clock.stop:
                raise SetupDone
            return previous(connector, *args, **kwargs)

        SimConnector.encode_batch = first_emission
        return self

    def __exit__(self, *exc: Any) -> None:
        SimConnector.encode_batch = self._previous


@dataclass
class CellRun:
    """Timings, outcome counts and check results of one cell."""

    label: str
    setup_s: float = 0.0
    run_s: float = 0.0          # end of set-up to results JSON
    sim_s: float = 0.0
    offered: int = 0
    expected: float = 0.0
    committed: int = 0
    dropped: int = 0
    pending: int = 0
    events: int = 0
    retries: int = 0
    evictions: int = 0
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    #: traced cells only: per-call self seconds, call and result counts
    self_time: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s

    @property
    def ok(self) -> bool:
        return not self.problems


def _execute(cell: Cell, seed: int, clock: SetupClock
             ) -> tuple[Primary, Any, str, float]:
    """The cell itself; returns the clock reading once the JSON exists."""
    with clock:
        clock.started = time.perf_counter()
        primary = Primary(cell.chain, cell.configuration, scale=cell.scale,
                          seed=seed)
        result = primary.run(cell.spec, workload_name=cell.workload_name)
        text = result.to_json()
        end = time.perf_counter()
    return primary, result, text, end


def setup_only(cell: Cell, seed: int) -> Optional[float]:
    """Seconds from constructing the Primary to its first emission.

    The cell stops there, so set-up can be sampled many times per run at
    little cost. None if the cell fails before emitting; the full run of
    the cell then records why.
    """
    clock = SetupClock(stop=True)
    try:
        _execute(cell, seed, clock)
    except SetupDone:
        return clock.at - clock.started
    except Exception:
        return None
    return None


def run_cell(cell: Cell, seed: int, traced: bool = False) -> CellRun:
    """Run *cell* once; a raised error becomes a recorded problem."""
    run = CellRun(cell.label, expected=cell.expected_offered())
    try:
        if traced:
            with LayerTracer() as tracer:
                clock = SetupClock(tracer)
                primary, result, text, end = _execute(cell, seed, clock)
            run.self_time = dict(tracer.self_time)
            run.calls = dict(tracer.calls)
            run.counts = dict(tracer.counts)
            leftover = leftover_wrappers()
            if leftover:
                run.problems.append(f"wrappers left behind: {leftover}")
        else:
            clock = SetupClock()
            primary, result, text, end = _execute(cell, seed, clock)
    except Exception as exc:  # a failed cell is reported, not fatal
        run.problems.append(f"raised {type(exc).__name__}: {exc}")
        return run
    if clock.at is None:
        run.problems.append("no transaction was ever emitted")
        return run
    run.setup_s = clock.at - clock.started
    run.run_s = end - clock.at
    run.sim_s = primary.engine.now
    run.events = primary.engine.events_executed
    run.digest = hashlib.sha256(text.encode()).hexdigest()
    stats = result.chain_stats
    run.offered = sum(len(s.sent) + len(s.aggregate_sent)
                      for s in primary.secondaries)
    run.committed = int(stats["committed"])
    run.dropped = int(stats["dropped"])
    run.pending = int(stats["pending"])
    run.retries = int(stats.get("retries_scheduled", 0))
    run.evictions = int(stats.get("mempool_drop_evicted", 0)
                        + stats.get("mempool_drop_fee_evicted", 0))
    if run.committed > run.offered:
        run.problems.append(
            f"committed {run.committed} > offered {run.offered}")
    settled = run.committed + run.dropped + run.pending
    if settled > run.offered:
        run.problems.append(
            f"committed+dropped+pending {settled} > offered {run.offered}")
    return run
