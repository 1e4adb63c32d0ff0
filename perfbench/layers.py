"""Per-layer host-time tracing, recorded from outside the program.

A :class:`LayerTracer` wraps the public calls at each layer boundary
(the table in :data:`LAYERS`) for the length of a ``with`` block and
records, per wrapped call, its *self time*: the call's span minus the
spans of wrapped calls made inside it. Summing self time over a layer's
calls gives the layer's share of the cell wall; whatever lies outside
every span is the engine and pipeline glue (``sim.engine``).

The wrappers only observe: each one calls the original with the same
arguments and returns its result, so a traced cell executes the same
code paths as an untraced one (no ``LifecycleTracer``, no ``observe=``).
Names are patched where callers look them up — on the defining class
and every subclass that overrides the method, and in every ``repro``
module that imported a module-level function by name — and every patch
is undone when the block exits.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: marker attribute carried by every wrapper this module installs
MARK = "_perfbench_target"

#: ``(counts, args, result)`` hook run after a wrapped call returns
OnResult = Callable[[Dict[str, float], Tuple[Any, ...], Any], None]


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module:Class.attr`` or ``module:function``."""

    path: str
    on_result: Optional[OnResult] = None

    @property
    def module(self) -> str:
        return self.path.split(":", 1)[0]

    @property
    def label(self) -> str:
        """The qualified name, unique across the table."""
        return self.path.split(":", 1)[1]


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[Target, ...]


def _add(key: str, value: Callable[[Tuple[Any, ...], Any], float]
         ) -> OnResult:
    def hook(counts: Dict[str, float], args: Tuple[Any, ...],
             result: Any) -> None:
        counts[key] = counts.get(key, 0) + value(args, result)
    return hook


def _both(*hooks: OnResult) -> OnResult:
    def hook(counts: Dict[str, float], args: Tuple[Any, ...],
             result: Any) -> None:
        for h in hooks:
            h(counts, args, result)
    return hook


#: The layer boundaries, named after the repo's modules. The order is
#: the order of the per-layer report; ``sim.engine`` is the remainder.
LAYERS: Tuple[Layer, ...] = (
    Layer("core.emission", (
        Target("repro.core.interface:SimConnector.encode_batch",
               _add("emission.txs", lambda a, r: len(r))),
        Target("repro.core.interface:SimConnector.encode",
               _add("emission.txs", lambda a, r: 1)),
    )),
    Layer("blockchains.submit", (
        Target("repro.core.interface:SimConnector.trigger_batch"),
        Target("repro.core.interface:SimConnector.trigger_aggregate"),
        Target("repro.blockchains.base:BlockchainNetwork.submit",
               _both(_add("submit.txs", lambda a, r: 1),
                     _add("submit.accepted", lambda a, r: int(r.accepted)))),
        Target("repro.blockchains.base:BlockchainNetwork.submit_batch",
               _both(_add("submit.txs", lambda a, r: len(a[1])),
                     _add("submit.accepted", lambda a, r: r))),
    )),
    Layer("chain.mempool.write", (
        Target("repro.chain.mempool:Mempool.add"),
        Target("repro.chain.mempool:Mempool.try_add"),
    )),
    Layer("chain.mempool.read", (
        Target("repro.chain.mempool:Mempool.pop_batch",
               _add("mempool.popped", lambda a, r: len(r))),
        Target("repro.chain.mempool:Mempool.drop_expired",
               _add("mempool.popped", lambda a, r: len(r))),
    )),
    Layer("vm", (
        Target("repro.vm.base:VirtualMachine.execute",
               _add("vm.gas", lambda a, r: r.gas_used)),
    )),
    Layer("crypto", (
        Target("repro.crypto.hashing:digest"),
        Target("repro.crypto.hashing:merkle_root"),
        Target("repro.chain.transaction:Transaction.tx_hash"),
        Target("repro.chain.transaction:Transaction.signing_payload"),
        Target("repro.crypto.signing:PrecomputedSigner.__call__"),
    )),
    Layer("chain.ledger", (
        Target("repro.chain.ledger:Ledger.append"),
        Target("repro.chain.block:Block.block_hash"),
        Target("repro.chain.block:Block.tx_root"),
    )),
    Layer("consensus.model", (
        Target("repro.consensus.models:ConsensusPerfModel.decide"),
        Target("repro.consensus.models:ConsensusPerfModel.next_block_delay"),
        Target("repro.consensus.models:ConsensusPerfModel.payload_factor"),
    )),
    Layer("econ", (
        Target("repro.econ.market:FeeMarket.charge"),
        Target("repro.econ.market:FeeMarket.on_block"),
    )),
    Layer("core.population", (
        Target("repro.core.population:AggregateArrivals.count_at"),
    )),
    Layer("core.results", (
        Target("repro.core.results:TransactionRecord.from_transaction"),
        Target("repro.core.results:BenchmarkResult.to_json",
               _add("results.json_records", lambda a, r: len(a[0].records))),
    )),
)

#: layer name of every timed target, by label
LAYER_OF: Dict[str, str] = {target.label: layer.name
                            for layer in LAYERS for target in layer.targets}

#: calls too hot and too small to time; only their calls are counted
COUNTED: Tuple[Target, ...] = (
    Target("repro.econ.fees:FeeModel.effective_price"),
)


def _resolve_owner(target: Target) -> Tuple[Any, str]:
    """(module or class that defines the name, attribute name)."""
    owner: Any = importlib.import_module(target.module)
    *parents, attr = target.label.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _repro_modules() -> Iterator[Tuple[str, Any]]:
    """The loaded ``repro`` package and its submodules, by name."""
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "repro"
                                   or name.startswith("repro.")):
            yield name, module


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def patch_sites(target: Target) -> List[Tuple[Any, str, Any]]:
    """Every ``(owner, attribute, original)`` a caller can look *target* up in.

    A method is patched on its class and on each loaded subclass whose
    own dictionary overrides it; a module-level function is patched in
    every loaded ``repro`` module that holds the same function object
    (``from repro.crypto.hashing import digest`` binds a second name).
    """
    owner, attr = _resolve_owner(target)
    if isinstance(owner, type):
        return [(cls, attr, cls.__dict__[attr]) for cls in _subclasses(owner)
                if attr in cls.__dict__]
    original = getattr(owner, attr)
    return [(module, key, original) for _, module in _repro_modules()
            for key, value in vars(module).items() if value is original]


def _rewrap(original: Any, make: Callable[[Callable], Callable]) -> Any:
    """Wrap the function inside a class-dict entry, keeping its kind."""
    if isinstance(original, staticmethod):
        return staticmethod(make(original.__func__))
    if isinstance(original, property):
        return property(make(original.fget), original.fset, original.fdel,
                        original.__doc__)
    return make(original)


class LayerTracer:
    """Self time and counts per wrapped call, over one ``with`` block.

    Spans are recorded only while :attr:`active` is set; the cell runner
    sets it when setup ends (the first emitted transaction), so setup is
    timed as one piece and never split across layers.
    """

    def __init__(self) -> None:
        self.active = False
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._counters: Dict[str, Iterator[int]] = {}
        for label in LAYER_OF:
            self.self_time[label] = 0.0
            self.calls[label] = 0

    # -- wrappers -------------------------------------------------------------

    def _timed(self, target: Target) -> Callable[[Callable], Callable]:
        label = target.label
        on_result = target.on_result
        stack = self._stack
        self_time = self.self_time
        calls = self.calls
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.active:
                    return fn(*args, **kwargs)
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self_time[label] += elapsed - stack.pop()
                    calls[label] += 1
                    if stack:
                        stack[-1] += elapsed
                if on_result is not None:
                    on_result(counts, args, result)
                return result
            setattr(wrapper, MARK, label)
            return wrapper
        return make

    def _counted(self, target: Target) -> Callable[[Callable], Callable]:
        # a C-level counter keeps the wrapper cheap: these calls run
        # hundreds of times per mempool admission on a full priced pool
        label = target.label
        counter = itertools.count()
        self._counters[label] = counter

        def make(fn: Callable) -> Callable:
            tick = counter.__next__

            @functools.wraps(fn)
            def wrapper(*args: Any) -> Any:
                tick()
                return fn(*args)
            setattr(wrapper, MARK, label)
            return wrapper
        return make

    # -- install / remove -----------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for layer in LAYERS:
                for target in layer.targets:
                    self._install(target, self._timed(target))
            for target in COUNTED:
                self._install(target, self._counted(target))
        except BaseException:
            self._remove()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.active = False
        self._remove()
        for label, counter in self._counters.items():
            # a fresh count() yields the number of calls it has counted
            self.calls[label] = next(counter)

    def _install(self, target: Target,
                 make: Callable[[Callable], Callable]) -> None:
        sites = patch_sites(target)
        if not sites:
            raise LookupError(f"nothing to wrap for {target.path}")
        for owner, attr, original in sites:
            setattr(owner, attr, _rewrap(original, make))
            self._patches.append((owner, attr, original))

    def _remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> List[str]:
    """Names in loaded ``repro`` modules and classes still wrapped.

    Empty after every traced cell; the cell runner counts a non-empty
    answer as a failed check.
    """
    found = []
    for name, module in _repro_modules():
        for key, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{name}.{key}")
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    inner = (member.fget if isinstance(member, property)
                             else getattr(member, "__func__", member))
                    if hasattr(inner, MARK):
                        found.append(f"{name}.{key}.{attr}")
    return found
