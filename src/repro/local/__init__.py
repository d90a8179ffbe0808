"""LOCAL model: synchronous simulator, batched engine, dense kernels, ledger.

numpy is required: :class:`Network` packs and validates its graph as numpy
CSR arrays.  The sharded backend is exported lazily
(``repro.local.luby_mis_sharded`` etc. resolve on first access), so
importing the package does not load its process-pool machinery.
"""

from repro.local.complexity import (
    degree_splitting_rounds,
    degree_splitting_rounds_simplified,
    log_star,
    power_graph_coloring_rounds,
    slocal_conversion_rounds,
)
from repro.local.dense import (
    BatchedDenseResult,
    DenseResult,
    dense_orientation,
    luby_mis_batched,
    sinkless_trial_batched,
    uniform_splitting_batched,
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


def __getattr__(name):  # PEP 562: defer the sharded import to first use
    if name in _SHARDED_NAMES:
        from repro.local import sharded

        return getattr(sharded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
