"""The benchmark's workloads: which cells one repetition runs.

A *cell* is what a user runs: ``Primary(chain, configuration, scale,
seed)``, then ``.run(spec)``, then ``BenchmarkResult.to_json()``. Every
workload is an open loop (Secondaries emit on a fixed tick schedule,
whatever the chain does), generated in one process, cells run one at a
time. The seed goes to the Primary, which derives every random stream
of the run (network jitter, Poisson arrivals) from it. Scales are pinned
here: they are part of the benchmark's definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.core.spec import (AccountSample, TransferSpec, WorkloadSpec,
                             simple_population_spec)
from repro.econ.fees import FeeSpec
from repro.workloads import dapp_suite, deployment_challenge_trace

#: the paper's testnet account population (Fig. 3)
ACCOUNTS = 2_000

#: the six registered chains, in run order
CHAINS = ("algorand", "avalanche", "diem", "ethereum", "quorum", "solana")


@dataclass(frozen=True)
class Cell:
    """One ``Primary(...).run(spec)`` plus its results JSON."""

    chain: str
    configuration: str
    scale: float
    workload_name: str
    spec: WorkloadSpec

    @property
    def label(self) -> str:
        return f"{self.chain}/{self.configuration}"

    def expected_offered(self) -> float:
        """Transactions the spec asks the Secondaries to emit (scaled).

        The integral of every client's load schedule plus, for a
        population, the aggregate lane's mean. Printed next to the count
        actually emitted; the two differ where the tick clock drifts.
        """
        total = 0.0
        for group in self.spec.client_groups():
            for behavior in group.client.behaviors:
                total += group.number * behavior.load.total_transactions()
        population = self.spec.population
        if population is not None:
            total += (population.aggregate_users
                      * population.load.total_transactions())
        return total * self.scale


def _native_transfer() -> Tuple[Cell, ...]:
    trace = deployment_challenge_trace()   # 1,000 TPS for 120 s
    spec = trace.spec(accounts=ACCOUNTS)
    return tuple(Cell(chain, "testnet", 0.1, trace.name, spec)
                 for chain in CHAINS)


def _dapp_mobility() -> Tuple[Cell, ...]:
    trace = dapp_suite()["mobility"]       # Uber checkDistance, 810-900 TPS
    return (Cell("quorum", "consortium", 0.05, trace.name,
                 trace.spec(accounts=ACCOUNTS)),)


def _fee_saturation() -> Tuple[Cell, ...]:
    spec = simple_population_spec(
        users=1_000_000, interaction=TransferSpec(AccountSample(ACCOUNTS)),
        rate_per_user=0.001, duration=120.0, arrival="poisson",
        fees=FeeSpec())
    return (Cell("ethereum", "testnet", 0.02, "population-1000000", spec),)


#: workload name -> the cells of one repetition (why each was chosen:
#: README.md and BENCHMARK.json)
WORKLOADS: Dict[str, Callable[[], Tuple[Cell, ...]]] = {
    "native-transfer": _native_transfer,
    "dapp-mobility": _dapp_mobility,
    "fee-saturation": _fee_saturation,
}
