"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, unit)``: ``parent`` is the index of
the enclosing span (None for a root) and ``unit`` names the setup or trial
the span belongs to.  Spans stay in memory while the run measures and are
written once, when it ends.  The untraced run uses :data:`NULL_SPANS`,
whose methods do nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple


class Spans:
    """Records nested spans; ``unit`` is set by the runner per setup/trial."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self.unit: Optional[str] = None
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.unit]
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def wrap(self, targets: Iterable[Tuple[object, str, str]]):
        """Record a span around every call of each ``(owner, attribute, span)``.

        ``owner`` is a module or a class.  For a module function every
        ``repro`` module global bound to the same function object is
        replaced too, so calls through ``from x import f`` are seen.  All
        bindings are restored on exit.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                wrapper = self._wrapper(original, name)
                sites = [owner]
                if not isinstance(owner, type):
                    sites += [
                        mod for key, mod in list(sys.modules.items())
                        if key.startswith("repro.") and mod is not owner
                    ]
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is original:
                            saved.append((site, key, value))
                            setattr(site, key, wrapper)
            yield
        finally:
            for site, key, value in reversed(saved):
                setattr(site, key, value)

    def _wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, unit in self.records:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "trial": unit}
                ) + "\n")


class _NullSpans:
    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, targets):
        return contextlib.nullcontext()


NULL_SPANS = _NullSpans()


def self_times(records: List[list]) -> Dict[str, Dict[str, float]]:
    """``{unit: {span name: summed self time}}``.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of one unit sum to its root span's duration.
    """
    covered: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, unit in records:
        if parent is not None:
            covered[parent] += end - start
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, unit) in enumerate(records):
        out[unit][name] += (end - start) - covered[i]
    return out
