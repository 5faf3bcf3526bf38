"""Spans and call counts around hypercut's public functions, taken from outside.

`Tracer.install()` replaces a function in the module namespace that looks it
up (for example `ipm_second_eigvec` as `hypercut.report` imported it) with a
wrapper that records a span and lets an observer read the call's arguments
and result.  `Tracer.remove()` puts the originals back.  Nothing under
`src/` is changed on disk.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import logging
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top


def _inner_outcome(tracer, args, kwargs, result):
    tracer.counts["solver.inner_improved"] += int(result.improved)
    tracer.counts["solver.inner_converged"] += int(result.converged)


def _expansion_size(tracer, args, kwargs, result):
    h = args[0]
    sizes = np.array([ms.size for ms in h.hyperedges], dtype=np.int64)
    adj = result.adjacency
    tracer.counts["reduction.member_pairs"] += int((sizes * (sizes - 1) // 2).sum())
    tracer.counts["reduction.graph_edges"] += int(adj.nnz // 2)
    tracer.counts["reduction.adjacency_bytes"] += int(
        adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes)


#: (module that looks the name up, function name, span name, observer)
WRAPPED = (
    ("hypercut.report", "with_degree_mu", "core.degree_mu", None),
    ("hypercut.report", "clique_expand", "reduction.clique_expand", _expansion_size),
    ("hypercut.report", "ipm_second_eigvec", "solver.ipm", None),
    ("hypercut.report", "optimal_threshold", "solver.threshold", None),
    ("hypercut.report", "build_rw_laplacian", "baselines.rw_build", None),
    ("hypercut.report", "second_eigvec_2lap", "baselines.eig", None),
    ("hypercut.solver", "inner_tv_solve", "solver.inner", _inner_outcome),
    ("hypercut.solver", "second_eigvec_2lap", "solver.spectral_init", None),
    ("hypercut.solver", "graph_threshold_partition", "solver.graph_threshold", None),
    ("hypercut.solver", "graph_r1", "solver.graph_r1", None),
)


class WarningCounter(logging.Handler):
    """Counts WARNING and worse records per hypercut module."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = collections.Counter()

    def emit(self, record):
        self.counts[record.name.rpartition(".")[2]] += 1


class Tracer:
    """Spans kept in memory plus call counts, keyed by span name."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = collections.Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self.counts[name + ".calls"] += 1
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()].end = time.perf_counter()

    def _wrap(self, fn, name, observe):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, observe in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, observe))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def totals(self) -> tuple[dict, dict]:
        """(total seconds, self seconds) per span name."""
        total = collections.defaultdict(float)
        child = collections.defaultdict(float)
        for s in self.spans:
            total[s.name] += s.end - s.start
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        own = collections.defaultdict(float)
        for i, s in enumerate(self.spans):
            own[s.name] += s.end - s.start - child[i]
        return dict(total), dict(own)

    def span_records(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]

