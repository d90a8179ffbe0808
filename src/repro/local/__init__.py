"""LOCAL model: synchronous simulator, batched engine, dense kernels, ledger.

The dense (numpy) kernels are exported lazily: ``repro.local.luby_mis_batched``
etc. resolve on first access so importing the package never requires numpy
— the pure-Python reference and engine paths keep working without it.
"""

from repro.local.complexity import (
    degree_splitting_rounds,
    degree_splitting_rounds_simplified,
    log_star,
    power_graph_coloring_rounds,
    slocal_conversion_rounds,
)
from repro.local.engine import CSREngine, run_local_fast
from repro.local.ids import sequential_ids, shuffled_ids, sparse_random_ids
from repro.local.ledger import Charge, RoundLedger
from repro.local.network import (
    NO_BROADCAST,
    LocalAlgorithm,
    Network,
    NodeView,
    RoundHooks,
    SimulationResult,
    build_reverse_ports,
    run_local,
)

__all__ = [
    "LocalAlgorithm",
    "Network",
    "NodeView",
    "RoundHooks",
    "SimulationResult",
    "run_local",
    "run_local_fast",
    "CSREngine",
    "NO_BROADCAST",
    "build_reverse_ports",
    "Charge",
    "RoundLedger",
    "log_star",
    "degree_splitting_rounds",
    "degree_splitting_rounds_simplified",
    "slocal_conversion_rounds",
    "power_graph_coloring_rounds",
    "sequential_ids",
    "shuffled_ids",
    "sparse_random_ids",
    # lazy (numpy-backed) dense kernel exports, resolved in __getattr__:
    "DenseResult",
    "BatchedDenseResult",
    "luby_mis_batched",
    "sinkless_trial_batched",
    "dense_orientation",
    "uniform_splitting_batched",
    # lazy sharded-backend exports (numpy + multiprocessing):
    "ShardPlan",
    "plan_shards",
    "ShardedExecutor",
    "luby_mis_sharded",
    "luby_mis_sharded_batch",
    "sinkless_trial_sharded",
    "uniform_splitting_sharded",
]

_DENSE_NAMES = frozenset(
    {
        "DenseResult",
        "BatchedDenseResult",
        "luby_mis_batched",
        "sinkless_trial_batched",
        "dense_orientation",
        "uniform_splitting_batched",
    }
)

_SHARDED_NAMES = frozenset(
    {
        "ShardPlan",
        "plan_shards",
        "ShardedExecutor",
        "luby_mis_sharded",
        "luby_mis_sharded_batch",
        "sinkless_trial_sharded",
        "uniform_splitting_sharded",
    }
)


def __getattr__(name):  # PEP 562: defer the numpy import to first use
    if name in _DENSE_NAMES:
        from repro.local import dense

        return getattr(dense, name)
    if name in _SHARDED_NAMES:
        from repro.local import sharded

        return getattr(sharded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
