"""Hypergraph file formats: a line-oriented text format and its JSON mirror.

Text format (vertex ids are 0-based integers)::

    # comment lines start with '#'
    N M
    kappa v1:gamma1 v2:gamma2 ...     (one line per hyperedge, M lines)
    mu w0 w1 ... w(N-1)               (optional vertex-weight section)

Floats are written with `repr`, so writing what was read gives the same
bytes.  Each hyperedge line is written with one %-format and read with one
split; fields are separated by any whitespace `str.split` knows, parsed by
Python's `int` and `float` into arrays (the constructor judges the values,
and only lists need its scan for booleans), and a line that is not
``kappa v:gamma ...`` is refused naming its line number.  JSON mirrors it::

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
    mu = None if np.all(h.mu == 1.0) else h.mu.tolist()
    return {
        "n_vertices": h.n_vertices,
        "hyperedges": [
            {"kappa": k, "members": ms.tolist(), "gamma": gs.tolist()}
            for k, ms, gs in zip(h.kappa.tolist(), h.hyperedges, h.gamma)
        ],
        "mu": mu,
    }


def from_json_dict(obj: dict) -> EdvwHypergraph:
    try:
        edges, mu = obj["hyperedges"], obj.get("mu")
        members, gamma, kappa = ([e[k] for e in edges]
                                 for k in ("members", "gamma", "kappa"))
        return EdvwHypergraph(obj["n_vertices"], members, gamma, kappa, mu)
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
    for k, ms, gs in zip(h.kappa.tolist(), h.hyperedges, h.gamma):
        fields = [k] * (2 * ms.size + 1)
        fields[1::2], fields[2::2] = ms.tolist(), gs.tolist()
        lines.append(("%r" + " %d:%r" * ms.size) % tuple(fields))
    if not np.all(h.mu == 1.0):
        lines.append(" ".join(["mu", *map(repr, h.mu.tolist())]))
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
        # with each colon a token of its own, "kappa v:gamma ..." splits into
        # kappa and (v, ":", gamma) triples, and it has one colon fewer than
        # whitespace-separated tokens unless whitespace sits beside a colon
        colons = line.count(":")
        toks = line.replace(":", " : ").split()
        try:
            if (len(toks) != 3 * colons + 1 or toks[2::3] != [":"] * colons
                    or len(line.split()) != colons + 1):
                raise ValueError("expected 'kappa v:gamma ...'")
            kappas.append(float(toks[0]))
            edges.append(np.array(list(map(int, toks[1::3]))))
            gammas.append(np.array(list(map(float, toks[3::3]))))
        except ValueError as exc:
            raise HypergraphFormatError(
                f"line {ln}: bad hyperedge entry {line!r}") from exc

    mu = None
    extra = rows[1 + m:]
    if extra:
        ln, line = extra[0]
        toks = line.split()
        if toks[0] != "mu" or len(extra) > 1:
            raise HypergraphFormatError(f"line {ln}: unexpected trailing content")
        try:
            mu = np.array(list(map(float, toks[1:])))
        except ValueError as exc:
            raise HypergraphFormatError(
                f"line {ln}: bad vertex-weight section") from exc

    try:
        return EdvwHypergraph(n, edges, gammas, np.array(kappas), mu)
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
