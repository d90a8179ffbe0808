"""Deterministic random-number plumbing.

Every randomized algorithm in this library takes either a seed or a
:class:`random.Random` instance.  In the LOCAL model each node flips private
coins; we model this with one counter-based SplitMix64 hash: a node's coin
is a pure function of the master seed, the node's index, its draw number
and the round (:class:`NodeCoins` for the simulators, :func:`keyed_u01` for
the numpy kernels), which keeps runs reproducible while preserving the
independence structure the analyses rely on — no node's consumption
perturbs another's, and every backend draws the same values.
"""

from __future__ import annotations

import numbers
import random
from typing import List, Tuple, Union

__all__ = [
    "ensure_rng",
    "seed_batch",
    "NodeCoins",
    "mix64",
    "keyed_hash53",
    "keyed_u01",
]

SeedLike = Union[None, int, random.Random]

# SplitMix64 mixing chain — the repo-wide counter-based hash idiom, shared
# by the keyed node coins below and the fault coins of repro.scenarios.base.
_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
_TO_U01 = 2.0**-53


def mix64(z: int) -> int:
    """Pure-python SplitMix64 finalizer (used to pre-hash master seeds)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _SM_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_M2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_np(np, z):
    """Vectorized SplitMix64 finalizer over a uint64 *array*.

    Array-only on purpose: numpy uint64 *scalar* arithmetic raises overflow
    warnings on wrap-around, array arithmetic wraps silently.
    """
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_M2)
    return z ^ (z >> np.uint64(31))


def keyed_hash53(np, seed_hash, counters, tag: int):
    """53-bit counter-based hash of ``(seed, counter, tag)`` as uint64 array.

    ``seed_hash`` is :func:`mix64` of the master seed — either one python
    int broadcast over every counter (a single trial), or a uint64 array
    aligned with ``counters`` carrying per-element seeds (the trial-batched
    kernels' pooled phases, where one flat array mixes nodes of many
    trials).  ``counters`` is the per-draw key (node index, slot index, or
    call position) and ``tag`` the round number, so every value is a pure
    function of ``(seed, counter, tag)`` — no consumption order anywhere.

    The top 53 bits are returned so that comparing hashes is *order- and
    tie-isomorphic* to comparing the ``(h >> 11) * 2**-53`` uniforms built
    from them: kernels may rank raw hashes and skip the float convert.
    """
    u64 = np.uint64
    c = np.asarray(counters)
    if c.dtype != np.uint64:
        c = c.astype(np.uint64)
    if isinstance(seed_hash, int):
        base = u64((seed_hash + _SM_GAMMA) & _MASK64) ^ c
    else:
        base = (seed_hash + u64(_SM_GAMMA)) ^ c
    h = _mix64_np(np, base)
    h = _mix64_np(np, (h + u64(_SM_GAMMA)) ^ u64(tag))
    return h >> u64(11)


def keyed_u01(np, seed_hash, counters, tag: int):
    """Uniforms in [0, 1) keyed by ``(seed, counter, tag)`` (float64 array)."""
    return keyed_hash53(np, seed_hash, counters, tag) * _TO_U01


def ensure_rng(seed: SeedLike = None) -> random.Random:
    """Coerce ``seed`` into a :class:`random.Random`.

    ``None`` yields a fresh nondeterministically seeded generator, an ``int``
    a deterministically seeded one, and an existing generator is passed
    through unchanged.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def seed_batch(seed) -> Tuple[List, bool]:
    """``(seeds, batched)``: a sequence of seeds is a batch, anything else
    (``None``, an int, a :class:`random.Random`) is a batch of one."""
    if seed is None or isinstance(seed, (numbers.Integral, random.Random)):
        return [seed], False
    return list(seed), True


class NodeCoins:
    """One node's private coins, keyed like the dense kernels' draws.

    The ``j``-th draw node ``index`` makes in round ``r`` is
    ``keyed_u01(mix64(seed), index + j*n, r)`` — a pure function of
    ``(seed, index, j, r)``, so no node's consumption perturbs another's
    and a numpy kernel can recompute any draw without replaying a stream.
    ``clock`` is a one-element list shared by every node of a run: the
    executor writes the current round into ``clock[0]`` (1 during ``init``,
    so draws made there key as round 1), and each stream restarts ``j`` at
    0 the first time it draws in a new round.  ``randrange(k)`` is
    ``floor(u * k)``, the kernels' port-choice mapping.
    """

    __slots__ = ("_clock", "_base", "_index", "_n", "_round", "_j")

    def __init__(self, seed_hash: int, index: int, n: int, clock: list):
        self._clock = clock
        self._base = (seed_hash + _SM_GAMMA) & _MASK64  # keyed_hash53's seed term
        self._index = index
        self._n = n
        self._round = 0
        self._j = 0

    def random(self) -> float:
        r = self._clock[0]
        if r != self._round:
            self._round, self._j = r, 0
        h = mix64(self._base ^ (self._index + self._j * self._n))
        self._j += 1
        return (mix64(((h + _SM_GAMMA) & _MASK64) ^ r) >> 11) * _TO_U01

    def randrange(self, k: int) -> int:
        return int(self.random() * k)
