"""Hypergraph file formats: a line-oriented text format and its JSON mirror.

Text format (vertex ids are 0-based integers)::

    # comment lines start with '#'
    N M
    kappa v1:gamma1 v2:gamma2 ...     (one line per hyperedge, M lines)
    mu w0 w1 ... w(N-1)               (optional vertex-weight section)

Floats are written with full repr precision so files round-trip exactly.
The JSON mirror carries the same fields::

    {"n_vertices": N,
     "hyperedges": [{"kappa": k, "members": [...], "gamma": [...]}, ...],
     "mu": [...] | null}
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import EdvwHypergraph
from .errors import HypergraphFormatError


def to_json_dict(h: EdvwHypergraph) -> dict:
    mu = None if np.all(h.mu == 1.0) else [float(w) for w in h.mu]
    return {
        "n_vertices": h.n_vertices,
        "hyperedges": [
            {"kappa": float(h.kappa[e]),
             "members": [int(v) for v in ms],
             "gamma": [float(g) for g in gs]}
            for e, (ms, gs) in enumerate(zip(h.hyperedges, h.gamma))
        ],
        "mu": mu,
    }


def from_json_dict(obj: dict) -> EdvwHypergraph:
    try:
        edges = obj["hyperedges"]
        return EdvwHypergraph(
            obj["n_vertices"],
            [e["members"] for e in edges],
            [e["gamma"] for e in edges],
            [e["kappa"] for e in edges],
            obj.get("mu"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise HypergraphFormatError(f"bad hypergraph JSON: {exc}") from exc


def write_hypergraph(h: EdvwHypergraph, path) -> None:
    """Write text or JSON depending on the file suffix (.json selects JSON)."""
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(to_json_dict(h), indent=2, sort_keys=True)
                        + "\n")
        return
    lines = [f"{h.n_vertices} {h.n_hyperedges}"]
    for e, (ms, gs) in enumerate(zip(h.hyperedges, h.gamma)):
        pairs = " ".join(f"{int(v)}:{float(g)!r}" for v, g in zip(ms, gs))
        lines.append(f"{float(h.kappa[e])!r} {pairs}")
    if not np.all(h.mu == 1.0):
        lines.append("mu " + " ".join(repr(float(w)) for w in h.mu))
    path.write_text("\n".join(lines) + "\n")


def _parse_text(text: str) -> EdvwHypergraph:
    rows = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    rows = [(ln, s) for ln, s in rows if s and not s.startswith("#")]
    if not rows:
        raise HypergraphFormatError("empty hypergraph file")
    ln, header = rows[0]
    try:
        n, m = (int(tok) for tok in header.split())
    except ValueError as exc:
        raise HypergraphFormatError(
            f"line {ln}: header must be 'N M', got {header!r}") from exc
    if len(rows) < 1 + m:
        raise HypergraphFormatError(
            f"expected {m} hyperedge lines, found {len(rows) - 1}")

    edges, gammas, kappas = [], [], []
    for ln, line in rows[1:1 + m]:
        toks = line.split()
        try:
            kappas.append(float(toks[0]))
            members, gvals = [], []
            for tok in toks[1:]:
                v, g = tok.split(":")
                members.append(int(v))
                gvals.append(float(g))
        except (ValueError, IndexError) as exc:
            raise HypergraphFormatError(
                f"line {ln}: bad hyperedge entry {line!r}") from exc
        edges.append(members)
        gammas.append(gvals)

    mu = None
    extra = rows[1 + m:]
    if extra:
        ln, line = extra[0]
        toks = line.split()
        if toks[0] != "mu" or len(extra) > 1:
            raise HypergraphFormatError(f"line {ln}: unexpected trailing content")
        try:
            mu = [float(t) for t in toks[1:]]
        except ValueError as exc:
            raise HypergraphFormatError(
                f"line {ln}: bad vertex-weight section") from exc

    try:
        return EdvwHypergraph(n, edges, gammas, kappas, mu)
    except ValueError as exc:
        raise HypergraphFormatError(f"invalid hypergraph: {exc}") from exc


def read_hypergraph(path) -> EdvwHypergraph:
    """Read text or JSON depending on the file suffix (.json selects JSON)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise HypergraphFormatError(f"cannot read {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise HypergraphFormatError(f"bad JSON in {path}: {exc}") from exc
        return from_json_dict(obj)
    return _parse_text(text)
