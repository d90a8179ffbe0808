"""A synchronous message-passing simulator for the LOCAL model.

The LOCAL model [Lin92, Pel00] (footnote 1 of the paper): a communication
graph ``G``; computation proceeds in synchronous rounds; in each round every
node may send an arbitrarily large message to each neighbor, receive the
messages of its neighbors, and update its state.  Nodes know ``n`` (or an
upper bound) and carry unique identifiers.  Time complexity is the number of
rounds until every node has produced its output.

The simulator here is faithful to that definition:

* messages are delivered only along edges, with one-round latency;
* a node's behaviour is a function of its own state, its private coins and
  the messages received — there is no global shared state;
* the round count is exact and is reported to the caller, who typically
  forwards it to a :class:`repro.local.ledger.RoundLedger` as a *simulated*
  charge.

A :class:`Network` validates its adjacency once and holds it as numpy CSR
arrays, which every executor and kernel reads, so all of them deliver
along the same port pairing.

Randomized LOCAL algorithms receive per-node private coin sources keyed by
``(master seed, node index, draw, round)`` (see
:class:`repro.utils.rng.NodeCoins`), keeping runs reproducible without
correlating nodes — and drawing exactly the coins the numpy kernels of
:mod:`repro.local.dense` recompute.
"""

from __future__ import annotations

import operator
import struct
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import NodeCoins, mix64
from repro.utils.validation import require

__all__ = [
    "Network",
    "NodeView",
    "LocalAlgorithm",
    "RoundHooks",
    "run_local",
    "SimulationResult",
    "NO_BROADCAST",
]


class _NoBroadcast:
    """Sentinel: the algorithm has no broadcast message this round."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NO_BROADCAST"


#: Returned by :meth:`LocalAlgorithm.broadcast` to fall back to :meth:`send`.
NO_BROADCAST = _NoBroadcast()


class Network:
    """A communication graph for the simulator, held as CSR arrays.

    Parameters
    ----------
    adjacency:
        ``adjacency[i]`` lists the node indices adjacent to node ``i``.  The
        graph must be symmetric and loop-free and every entry an integer;
        parallel entries are allowed (multi-edges) and are presented to the
        algorithm as distinct ports; :attr:`simple` records whether there
        are none.
    ids:
        Unique identifiers (the LOCAL model's O(log n)-bit names).  Defaults
        to the node indices.

    The graph is stored as three numpy int64 arrays, the one representation
    every executor and kernel reads: the ports of node ``i`` occupy slots
    ``offsets[i]:offsets[i+1]``, and a message sent on slot ``k`` lands in
    the inbox of ``dst_node[k]`` under port ``dst_port[k]``.  Multi-edges
    are paired in order of appearance: the k-th occurrence of ``j`` in
    ``adjacency[i]`` pairs with the k-th occurrence of ``i`` in
    ``adjacency[j]``.  The arrays are read-only, as every engine and kernel
    over the network shares them.  :attr:`adjacency` is rebuilt from the
    arrays on first use.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]], ids: Optional[Sequence[int]] = None):
        n = len(adjacency)
        self.offsets, self.dst_node, self.dst_port, self.simple = _pack(adjacency, n)
        if ids is None:
            ids = list(range(n))
        require(len(ids) == n, "ids must have one entry per node")
        require(len(set(ids)) == n, "ids must be unique")
        self.ids: Tuple[int, ...] = tuple(int(x) for x in ids)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.ids)

    def degree(self, i: int) -> int:
        """Degree (number of ports) of node ``i``."""
        return int(self.offsets[i + 1] - self.offsets[i])

    @cached_property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """``adjacency[i]``: node ``i``'s neighbors in port order."""
        flat = self.dst_node.tolist()
        bounds = self.offsets.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @classmethod
    def from_bipartite(cls, inst, ids: Optional[Sequence[int]] = None) -> "Network":
        """Communication network of a bipartite instance.

        Left node ``u`` becomes simulator node ``u``; right node ``v`` becomes
        node ``inst.n_left + v``.  Each bipartite edge is one communication
        link (one port on each side).
        """
        adj: List[List[int]] = [[] for _ in range(inst.n_left + inst.n_right)]
        for u, v in inst.edges:
            adj[u].append(inst.n_left + v)
            adj[inst.n_left + v].append(u)
        return cls(adj, ids=ids)


def _neighbor_array(adjacency: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Every neighbor entry in slot order, as int64.

    An entry must be an integer (anything ``operator.index`` accepts, such
    as a Python ``int`` or a numpy integer): ``1.0`` or ``"1"`` raises
    ``TypeError`` naming the node instead of being truncated to an index.
    """
    flat = list(chain.from_iterable(adjacency))
    if not flat:
        return np.zeros(0, dtype=np.int64)
    try:
        # struct's "q" takes exactly the integers that fit in int64.
        return np.frombuffer(struct.pack(f"{len(flat)}q", *flat), dtype=np.int64)
    except struct.error:
        for i, nbrs in enumerate(adjacency):
            for j in nbrs:
                try:
                    j = operator.index(j)
                except TypeError:
                    raise TypeError(f"node {i} lists non-integer neighbor {j!r}") from None
                require(0 <= j < n, f"node {i} lists out-of-range neighbor {j}")
        raise


def _pack(adjacency: Sequence[Sequence[int]], n: int):
    """Validate ``adjacency`` and pack it: ``(offsets, dst_node, dst_port, simple)``.

    Vectorised: slot ``t`` (owner ``src[t]``, neighbor ``dst[t]``) gets the
    keys ``src*n + dst`` and ``dst*n + src``.  The adjacency is symmetric
    with multiplicities iff the two key multisets are equal, i.e. iff the
    sorted key arrays are.  Stable sorts keep equal keys in slot order, so
    the t-th entries of the two orders pair the k-th ``j`` in
    ``adjacency[i]`` with the k-th ``i`` in ``adjacency[j]``.
    """
    degrees = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    dst = _neighbor_array(adjacency, n)
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    bad = np.flatnonzero((dst < 0) | (dst >= n) | (dst == src))
    if bad.size:
        t = int(bad[0])
        i, j = int(src[t]), int(dst[t])
        if j == i:
            raise ValueError(f"node {i} lists itself as a neighbor (self-loop)")
        raise ValueError(f"node {i} lists out-of-range neighbor {j}")
    m = dst.shape[0]
    require(n * max(n, m) < 2**63, "graph too large for int64 slot keys")
    fwd = src * n + dst
    a = np.argsort(fwd, kind="stable")  # src ascends with the slot: nearly sorted
    # The stable order by ``dst*n + src`` is the order by (dst, slot), as src
    # ascends with the slot; the default sort of ``dst*m + slot`` (far faster
    # than a stable argsort) yields it.
    b = np.sort(dst * m + np.arange(m, dtype=np.int64)) % m
    fwd, bwd = fwd[a], (dst * n + src)[b]
    mismatch = np.flatnonzero(fwd != bwd)
    if mismatch.size:
        t = int(mismatch[0])
        i, j = divmod(int(min(fwd[t], bwd[t])), n)
        raise ValueError(f"asymmetric adjacency between nodes {i} and {j}")
    dst_port = np.empty_like(dst)
    dst_port[a] = b - offsets[src[b]]
    simple = not bool((fwd[1:] == fwd[:-1]).any())
    for arr in (offsets, dst, dst_port):
        arr.flags.writeable = False  # shared by every executor and kernel
    return offsets, dst, dst_port, simple


@dataclass
class NodeView:
    """Everything a node may legitimately see during the simulation.

    ``state`` is the node's private memory; ``rng`` its private coin source;
    ``ports`` maps port number to nothing the node shouldn't know — the node
    addresses neighbors only by port, never by global index.
    """

    index: int  #: simulator-internal index (used by the harness, not the node)
    uid: int  #: the node's unique identifier (visible to the algorithm)
    degree: int  #: number of incident ports
    n: int  #: number of nodes in the network (known in the LOCAL model)
    rng: NodeCoins  #: private coins (``random()`` / ``randrange(k)``)
    state: Dict[str, Any] = field(default_factory=dict)  #: private memory
    output: Any = None  #: final output once set
    halted: bool = False  #: whether the node has terminated


class LocalAlgorithm(ABC):
    """A node-uniform algorithm for the synchronous simulator.

    Subclasses implement three hooks.  ``init`` runs before round 1;
    ``send`` produces this round's outgoing messages as ``{port: message}``
    (missing ports send nothing); ``receive`` consumes the inbox
    ``{port: message}`` and may set ``view.output`` / ``view.halted``.
    The simulation stops when every node has halted or after ``max_rounds``.
    """

    @abstractmethod
    def init(self, view: NodeView) -> None:
        """Initialize private state before the first round."""

    @abstractmethod
    def send(self, view: NodeView, round_no: int) -> Dict[int, Any]:
        """Messages to emit in round ``round_no`` (1-based), keyed by port."""

    @abstractmethod
    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, Any]) -> None:
        """Process the messages received in round ``round_no``."""

    def broadcast(self, view: NodeView, round_no: int) -> Any:
        """Message to emit on *every* port this round, or :data:`NO_BROADCAST`.

        Many LOCAL algorithms are *broadcast algorithms*: each round a node
        sends one message, identical on all its ports.  Declaring the round
        here (instead of materializing ``{port: msg}`` dicts in ``send``)
        lets the batched engine deliver the message in a tight loop over the
        node's CSR slice.  The default falls back to :meth:`send`.

        Both :func:`run_local` and the engine consult this hook exactly once
        per active node per round, *before* ``send``; when it returns a
        message, ``send`` is not called.  Overrides must therefore perform
        any per-round state updates (coin flips, counters) in whichever hook
        actually runs.
        """
        return NO_BROADCAST


class RoundHooks:
    """Harness-side round instrumentation shared by both executors.

    Hooks model the *environment* rather than the algorithm: node crashes,
    lossy links, dynamic edges, adversarial schedules.  The nodes never see
    the hook object — they only observe its effects (missing messages,
    silent neighbors), exactly as in the faulty-LOCAL literature.

    Call points (identical in :func:`run_local` and
    :class:`~repro.local.engine.CSREngine`, so hooked runs stay
    bit-identical across executors):

    * :meth:`before_round` — after the all-halted check, before the send
      phase.  May crash nodes by setting ``view.halted`` (by convention a
      crash also sets ``view.state["crashed"] = True`` so contracts can
      tell a crash from a normal termination).
    * :meth:`deliver` — once per outgoing message, after port validation.
      Returning False silently drops the message.  **Must be a pure
      function of ``(round_no, sender, port)``** — both executors consult
      it while sweeping senders, but the engine's broadcast fast path and
      the reference's dict loop enumerate messages in different orders, so
      any internal state consumption would break the bit-identity
      guarantee.
    * :meth:`transform` — once per *delivered* message, immediately after
      :meth:`deliver` approves it.  Returns the (possibly rewritten)
      payload — the Byzantine corruption channel.  Like ``deliver`` it
      **must be pure** in ``(round_no, sender, port, message)`` and must
      not mutate the payload in place (broadcast messages are shared
      across ports).
    * :meth:`after_round` — after the receive phase of every executed
      round (observation only, e.g. per-round violation tracking).

    The default implementation is a no-op; ``hooks=None`` skips all calls
    on the original fast paths.
    """

    def before_round(self, round_no: int, views: List["NodeView"]) -> None:
        """Inject faults for ``round_no`` (crash nodes via ``view.halted``)."""

    def deliver(self, round_no: int, sender: int, port: int) -> bool:
        """Whether the message ``sender`` emits on ``port`` arrives."""
        return True

    def transform(self, round_no: int, sender: int, port: int, message):
        """The payload actually delivered for an approved message."""
        return message

    def after_round(self, round_no: int, views: List["NodeView"]) -> None:
        """Observe the state after ``round_no``'s receive phase."""


@dataclass
class SimulationResult:
    """Outcome of a simulation run."""

    rounds: int  #: number of executed rounds
    views: List[NodeView]  #: final node views (outputs in ``view.output``)
    completed: bool  #: True iff all nodes halted before the round cap
    #: wall time of per-node coin-stream construction (see also
    #: ``TrialResult.rng_seconds``)
    rng_seconds: float = 0.0

    def outputs(self) -> List[Any]:
        """Convenience: the per-node outputs in index order."""
        return [v.output for v in self.views]


def run_local(
    network: Network,
    algorithm: LocalAlgorithm,
    max_rounds: int = 10_000,
    seed: int = 0,
    hooks: Optional[RoundHooks] = None,
) -> SimulationResult:
    """Execute ``algorithm`` on ``network`` synchronously.

    Message delivery is port-to-port: if node ``a`` lists ``b`` at port ``p``
    and ``b`` lists ``a`` at port ``q``, a message sent by ``a`` on port ``p``
    in round ``t`` arrives in ``b``'s inbox under port ``q`` in the same
    round's receive phase (standard synchronous semantics); the pairing is
    the network's ``dst_node``/``dst_port`` arrays.

    ``hooks`` (a :class:`RoundHooks`) injects environment faults — crashes
    in ``before_round``, message loss via ``deliver`` — at the same call
    points the batched engine uses, so hooked runs remain bit-identical
    between the two executors (the scenario subsystem in
    :mod:`repro.scenarios` is built on this).

    This is the *reference* implementation: simple, dict-based, audited
    against the model definition.  :func:`repro.local.engine.run_local_fast`
    is the batched drop-in replacement, bit-identical for a fixed seed.
    """
    require(max_rounds >= 0, f"max_rounds must be >= 0, got {max_rounds}")
    n = network.n
    offsets = network.offsets.tolist()
    dst_node = network.dst_node.tolist()
    dst_port = network.dst_port.tolist()
    degrees = [offsets[i + 1] - offsets[i] for i in range(n)]

    rng_start = time.perf_counter()
    seed_hash = mix64(seed)
    clock = [1]  # the round every NodeCoins keys its draws by; init is round 1
    views = [
        NodeView(
            index=i,
            uid=network.ids[i],
            degree=degrees[i],
            n=n,
            rng=NodeCoins(seed_hash, i, n, clock),
        )
        for i in range(n)
    ]
    rng_seconds = time.perf_counter() - rng_start
    for view in views:
        algorithm.init(view)

    rounds = 0
    for round_no in range(1, max_rounds + 1):
        if all(v.halted for v in views):
            break
        clock[0] = round_no
        if hooks is not None:
            hooks.before_round(round_no, views)
        inboxes: List[Dict[int, Any]] = [{} for _ in range(n)]
        for i in range(n):
            if views[i].halted:
                continue
            bmsg = algorithm.broadcast(views[i], round_no)
            if bmsg is not NO_BROADCAST:
                outgoing = {p: bmsg for p in range(degrees[i])}
            else:
                outgoing = algorithm.send(views[i], round_no)
            for port, message in outgoing.items():
                require(
                    0 <= port < degrees[i],
                    f"node {i} sent on invalid port {port}",
                )
                if hooks is not None:
                    if not hooks.deliver(round_no, i, port):
                        continue
                    message = hooks.transform(round_no, i, port, message)
                k = offsets[i] + port
                inboxes[dst_node[k]][dst_port[k]] = message
        for i in range(n):
            if views[i].halted:
                continue
            algorithm.receive(views[i], round_no, inboxes[i])
        rounds = round_no
        if hooks is not None:
            hooks.after_round(round_no, views)
        if all(v.halted for v in views):
            break
    return SimulationResult(
        rounds=rounds,
        views=views,
        completed=all(v.halted for v in views),
        rng_seconds=rng_seconds,
    )
