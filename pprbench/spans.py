"""In-memory span tracer that wraps the program's public names from outside.

The benchmark never edits the program. Instead, :class:`Tracer` replaces a
module attribute (``repro.core.taupush.gfp``, ...) with a wrapper that
records a span around each call and restores the original on exit. The
wrappers sit where the caller looks the name up, so a call from
``repro.pprviz`` to ``taupush_query`` goes through the wrapper installed on
``repro.pprviz``.

A span is (name, start, end, parent, query id). Self time is the span's
duration minus the durations of its direct children; since the program is
single-threaded, children never overlap. Push spans also record the
``OpBudget.ops`` delta across the call (arcs touched) and the rounds the
kernel returns.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name). Every entry must exist: a renamed or
# removed name fails the traced run instead of silently reporting zero.
WRAPPED = [
    ("repro.pprviz", "build_hierarchy", "hierarchy.build"),
    ("repro.pprviz", "build_taupush_index", "core.index.build"),
    ("repro.pprviz", "taupush_query", "core.taupush"),
    ("repro.pprviz", "stress_majorization", "layout.stress"),
    ("repro.core.index", "dpr_vector_local", "pprlib.dpr.build"),
    ("repro.core.index", "gbp", "core.index.gbp"),
    ("repro.core.taupush", "gfp", "core.gfp"),
    ("repro.core.taupush", "gbp", "core.gbp.live"),
    ("repro.core.taupush", "pdist_matrix", "core.pdist"),
    ("repro.core.gfp", "forward_push", "pprlib.push.forward"),
    ("repro.core.gbp", "backward_push", "pprlib.push.backward"),
    ("repro.core.taupush_spark", "push_rounds_spark", "core.taupush_spark.push"),
    (
        "repro.hierarchy.supergraph",
        "Hierarchy.query_children_leafsets",
        "hierarchy.children",
    ),
]

PUSH_SPANS = ("pprlib.push.forward", "pprlib.push.backward")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    qid: int = -1
    arcs: int = 0
    rounds: int = 0
    children_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.children_s


@dataclass
class Tracer:
    """Records spans; ``install()``/``uninstall()`` patch the program."""

    spans: list = field(default_factory=list)
    qid: int = -1
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- span recording ---------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name=name, start=time.perf_counter(), parent=parent, qid=self.qid)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        if sp.parent >= 0:
            self.spans[sp.parent].children_s += sp.dur

    @contextmanager
    def span(self, name: str):
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp)

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self
        is_push = name in PUSH_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = tracer.open(name)
            budget = kwargs.get("budget") if is_push else None
            ops0 = budget.ops if budget is not None else 0
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sp)
            if is_push:
                if budget is None:
                    raise RuntimeError(f"{name} called without an OpBudget; arcs unknown")
                sp.arcs = budget.ops - ops0
                sp.rounds = int(out[2])
            return out

        return wrapper

    def install(self) -> None:
        for mod_name, attr, span_name in WRAPPED:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not hasattr(owner, leaf):
                raise RuntimeError(f"traced name {mod_name}.{attr} no longer exists")
            orig = getattr(owner, leaf)
            self._saved.append((owner, leaf, orig))
            setattr(owner, leaf, self._wrap(orig, span_name))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, orig = self._saved.pop()
            setattr(owner, leaf, orig)

    # -- aggregation ------------------------------------------------------
    def select(self, name: str, *, query: bool | None = None) -> list:
        """Spans called ``name``; ``query`` keeps query (True) or setup spans."""
        return [
            s for s in self.spans
            if s.name == name and (query is None or (s.qid >= 0) == query)
        ]

    def total(self, name: str, *, query: bool | None = None, self_time: bool = False) -> float:
        return sum(s.self_s if self_time else s.dur for s in self.select(name, query=query))

    def dump(self) -> list:
        return [
            {
                "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                "qid": s.qid, "arcs": s.arcs, "rounds": s.rounds,
            }
            for s in self.spans
        ]


def wrapper_cost_s(n: int = 20000) -> float:
    """Seconds one traced call adds over a plain call (calibration loop)."""
    def noop(*args, **kwargs):
        return None

    tr = Tracer()
    traced = tr._wrap(noop, "calibration")
    t0 = time.perf_counter()
    for _ in range(n):
        noop(1, budget=None)
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced(1, budget=None)
    wrapped = time.perf_counter() - t0
    return max(0.0, (wrapped - plain) / n)
