"""Command-line interface: fetch, build, cluster, sweep (and a debug oracle).

Exit codes: 0 success, 2 usage errors (bad solver flags, and outputs that
cannot be written or would overwrite an input or another output, refused
before any input is read or built), 3 data errors, 4 solver failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import datasets
from .core import (GKind, HKind, SubmodularWeightSpec, _as_int64_array,
                   with_degree_mu)
from .errors import (DataIngestError, DisconnectedGraphError,
                     SolverConvergenceError)
from .io import read_hypergraph, write_hypergraph
from .oracle import exact_h2
from .report import METHODS, MU_MODES, _checked_labels, run_method
from .solver import IpmConfig

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

DEFAULT_ALPHA = 1.0
DEFAULT_ALPHA_GRID = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]

logger = logging.getLogger(__name__)


def _alpha(text: str) -> float:
    """An EDVW exponent: a finite number, refused before any data is read."""
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"alpha must be finite, got {text}")
    return value


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--restarts", type=int, default=5,
                   help="IPM restarts: the first starts at the spectral "
                        "vector, each other at the best sweep cut of a "
                        "seeded random draw")


def _cfg_from_args(args) -> IpmConfig:
    return IpmConfig(n_restarts=args.restarts, rng_seed=args.seed)


def _build_dataset(args, alpha: float) -> datasets.DatasetBuild:
    if args.dataset == "newsgroups":
        return datasets.build_newsgroups_hypergraph(
            args.data_dir, datasets.CorpusSpec(), alpha)
    if args.dataset == "covertype":
        return datasets.build_covertype_hypergraph(
            args.data_dir, datasets.BinningSpec(), alpha)
    raise DataIngestError(f"unknown dataset {args.dataset!r}")


def _sidecar(path) -> Path:
    """The provenance file `build` writes beside a hypergraph file."""
    return Path(f"{path}.provenance.json")


def _raw_files(args) -> list:
    """The raw files a dataset build reads, under --data-dir."""
    return [Path(args.data_dir, f) for f, _ in datasets.DATASET_FILES[args.dataset]]


def _check_writable(*paths, inputs=()) -> None:
    """Refuse, before any work is done, an output path that cannot be written
    or that resolves to one of `inputs` or to an earlier path."""
    taken = [Path(p).resolve() for p in (*inputs, *paths)]
    for i, path in enumerate(map(Path, paths), len(inputs)):
        if path.resolve() in taken[:i]:
            reason = "it is an input or another output"
        elif not path.parent.is_dir():
            reason = f"no directory {path.parent}"
        elif path.is_dir():
            reason = "it is a directory"
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            reason = "permission denied"
        else:
            continue
        raise ValueError(f"cannot write {path}: {reason}")


def cmd_fetch(args) -> int:
    record = datasets.fetch_dataset(args.dataset, args.data_dir)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_build(args) -> int:
    sidecar = _sidecar(args.out)
    _check_writable(args.out, sidecar, inputs=_raw_files(args))
    build = _build_dataset(args, args.alpha)
    write_hypergraph(build.hypergraph, args.out)
    payload = dict(build.provenance)
    payload["labels"] = [int(v) for v in build.labels]
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({build.hypergraph.n_vertices} vertices, "
          f"{build.hypergraph.n_hyperedges} hyperedges) and {sidecar}")
    return 0


def _read_sidecar(path: Path, n_vertices: int) -> tuple:
    """Labels and the other provenance of a `build` sidecar.  The labels (None
    when absent) are judged by `_as_int64_array` and `_checked_labels`."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # bad JSON and UTF-8 are ValueErrors
        raise DataIngestError(
            f"unreadable provenance sidecar {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataIngestError(f"provenance sidecar {path} is not a JSON object")
    try:
        if (labels := payload.pop("labels", None)) is not None:
            labels = _checked_labels(_as_int64_array(labels, "labels"),
                                     n_vertices)
    except ValueError as exc:
        raise DataIngestError(f"provenance sidecar {path}: {exc}") from exc
    return labels, payload


def _mu_mode(mu: str | None, h) -> str:
    """The --mu given, else "keep" for weights other than 1, else "degree"."""
    return mu or ("keep" if not np.all(h.mu == 1.0) else "degree")


def _prepare(args, alpha: float | None):
    """`run_method` bound to the command's input, read or built once.

    A file input is read with its sidecar; a dataset is built at `alpha`.
    The result takes the method, the IPM config and the report's alpha, so
    one input serves every method run on it.  `cardinality-1lap` recomputes
    kappa from the unit weights for both, so a built file and the build it
    holds give one answer.
    """
    if args.input:
        h, labels, source = read_hypergraph(args.input), None, str(args.input)
        provenance = {"input": source}
        if (sidecar := _sidecar(source)).exists():
            labels, payload = _read_sidecar(sidecar, h.n_vertices)
            provenance.update(payload)
    else:
        build = _build_dataset(args, alpha)
        h, labels, source = build.hypergraph, build.labels, args.dataset
        provenance = build.provenance
    return partial(run_method, h, labels, source=source,
                   mu_mode=_mu_mode(args.mu, h), provenance=provenance)


def cmd_cluster(args) -> int:
    if args.input and args.alpha is not None:
        raise ValueError("--alpha applies to --dataset only; a file keeps "
                         "the EDVWs of the alpha it was built at")
    cfg = _cfg_from_args(args)
    inputs = [args.input, _sidecar(args.input)] if args.input else _raw_files(args)
    _check_writable(*filter(None, (args.out, args.export_graph)), inputs=inputs)
    alpha = DEFAULT_ALPHA if args.dataset and args.alpha is None else args.alpha
    solve = _prepare(args, alpha)
    report = solve(args.method, cfg, alpha=alpha,
                   export_graph=args.export_graph)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
        error = "" if report.error is None else f", error={report.error:.6g}"
        print(f"wrote {args.out} (ncc={report.ncc:.6g}{error})")
    else:
        print(text, end="")
    return 0


def cmd_sweep(args) -> int:
    _check_writable(args.out_prefix + ".csv", args.out_prefix + ".json")
    methods = args.methods.split(",") if args.methods else list(METHODS)
    for mth in methods:
        if mth not in METHODS:
            raise ValueError(f"unknown method {mth!r}; "
                             f"expected one of {METHODS}")
    cfg = _cfg_from_args(args)
    reports = []
    flat = "cardinality-1lap"  # ignores the EDVWs: solved once, without alpha
    for i, alpha in enumerate(args.alphas):  # one build serves all methods
        solve = _prepare(args, alpha)
        reports += [solve(m, cfg, alpha=None if m == flat else alpha)
                    for m in methods if i == 0 or m != flat]

    rows = [{
        "dataset": args.dataset,
        "alpha": rep.alpha,
        "method": rep.method,
        "ncc": rep.ncc,
        "error": rep.error,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "seed": args.seed,
    } for rep in reports]

    csv_path = Path(args.out_prefix + ".csv")
    json_path = Path(args.out_prefix + ".json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    json_path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(f"wrote {csv_path} and {json_path} ({len(rows)} rows)")
    return 0


def cmd_oracle(args) -> int:
    h = read_hypergraph(args.input)
    spec = SubmodularWeightSpec(HKind(args.h_kind), GKind(args.g_kind))
    if _mu_mode(args.mu, h) == "degree":
        h = with_degree_mu(h, spec)
    h2, part = exact_h2(h, spec)
    print(json.dumps({
        "h2": h2,
        "argmin_block_of_vertex_0": part.block(part.side_of[0]).tolist(),
        "cut_weight": part.cut_weight,
        "vol_s": part.vol_s,
        "vol_sbar": part.vol_sbar,
    }, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercut",
        description="Spectral clustering of hypergraphs with edge-dependent "
                    "vertex weights")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download and digest-verify raw datasets")
    p.add_argument("dataset", choices=sorted(datasets.DATASET_FILES))
    p.add_argument("--data-dir", default="data", help="raw data directory")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("build", help="build a hypergraph file from a dataset")
    p.add_argument("dataset", choices=sorted(datasets.DATASET_FILES))
    p.add_argument("--alpha", type=_alpha, default=DEFAULT_ALPHA,
                   help=f"EDVW exponent (default {DEFAULT_ALPHA})")
    p.add_argument("--data-dir", default="data")
    p.add_argument("--out", required=True,
                   help="output path (.json selects the JSON mirror format)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("cluster", help="run one clustering method")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="hypergraph file (text or .json)")
    src.add_argument("--dataset", choices=sorted(datasets.DATASET_FILES))
    p.add_argument("--method", choices=METHODS, default="edvw-1lap")
    p.add_argument("--alpha", type=_alpha, default=None,
                   help=f"EDVW exponent (--dataset only; default {DEFAULT_ALPHA})")
    p.add_argument("--data-dir", default="data")
    p.add_argument("--mu", choices=MU_MODES, default=None,
                   help="vertex weights (default: degree; file inputs with "
                        "explicit weights default to keep)")
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--export-graph",
                   help="also write the clique expansion as a matrix-market file")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep", help="alpha sweep over methods, CSV + JSON out")
    p.add_argument("--dataset", choices=sorted(datasets.DATASET_FILES),
                   required=True)
    p.add_argument("--alphas",
                   type=lambda text: [_alpha(t) for t in text.split(",")],
                   default=DEFAULT_ALPHA_GRID,
                   help="comma-separated alpha grid (default 0,0.25,...,2)")
    p.add_argument("--methods", help=f"comma-separated subset of {METHODS}")
    p.add_argument("--data-dir", default="data")
    p.add_argument("--mu", choices=["degree", "ones"], default="degree")
    p.add_argument("--out-prefix", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_sweep, input=None)

    p = sub.add_parser("oracle", help=argparse.SUPPRESS)
    p.add_argument("--input", required=True)
    p.add_argument("--h-kind", default="identity",
                   choices=[k.value for k in HKind])
    p.add_argument("--g-kind", default="clique",
                   choices=[k.value for k in GKind])
    p.add_argument("--mu", choices=["degree", "keep"])  # default: _mu_mode
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataIngestError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SolverConvergenceError, DisconnectedGraphError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
