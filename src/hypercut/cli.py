"""Command-line interface: fetch, build, cluster, sweep (and a debug oracle).

Exit codes: 0 success, 2 usage errors, 3 data errors, 4 solver failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import datasets
from .core import GKind, HKind, SubmodularWeightSpec, with_degree_mu
from .errors import (DataIngestError, DisconnectedGraphError,
                     SolverConvergenceError)
from .io import read_hypergraph, write_hypergraph
from .oracle import exact_h2
from .report import METHODS, ClusteringReport, run_method
from .solver import IpmConfig

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

DEFAULT_ALPHA_GRID = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]

logger = logging.getLogger(__name__)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--restarts", type=int, default=5,
                   help="IPM restarts (first one is spectrally initialized)")
    p.add_argument("--max-outer", type=int, default=100)
    p.add_argument("--outer-tol", type=float, default=1e-6)
    p.add_argument("--inner-max", type=int, default=2000)
    p.add_argument("--inner-tol", type=float, default=1e-8)


def _cfg_from_args(args) -> IpmConfig:
    return IpmConfig(max_outer_iters=args.max_outer, outer_tol=args.outer_tol,
                     inner_max_iters=args.inner_max, inner_tol=args.inner_tol,
                     n_restarts=args.restarts, rng_seed=args.seed)


def _build_dataset(args, alpha: float) -> datasets.DatasetBuild:
    if args.dataset == "newsgroups":
        return datasets.build_newsgroups_hypergraph(
            args.data_dir, datasets.CorpusSpec(), alpha,
            kappa_members_only=args.kappa_members_only)
    if args.dataset == "covertype":
        return datasets.build_covertype_hypergraph(
            args.data_dir, datasets.BinningSpec(), alpha,
            kappa_members_only=args.kappa_members_only)
    raise DataIngestError(f"unknown dataset {args.dataset!r}")


def cmd_fetch(args) -> int:
    record = datasets.fetch_dataset(args.dataset, args.data_dir)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_build(args) -> int:
    build = _build_dataset(args, args.alpha)
    write_hypergraph(build.hypergraph, args.out)
    sidecar = Path(str(args.out) + ".provenance.json")
    payload = dict(build.provenance)
    payload["labels"] = [int(v) for v in build.labels]
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({build.hypergraph.n_vertices} vertices, "
          f"{build.hypergraph.n_hyperedges} hyperedges) and {sidecar}")
    return 0


def _cluster_once(args, method: str, alpha: float | None) -> ClusteringReport:
    cfg = _cfg_from_args(args)
    if args.input:
        h = read_hypergraph(args.input)
        labels = None
        sidecar = Path(str(args.input) + ".provenance.json")
        provenance = {"input": str(args.input)}
        if sidecar.exists():
            payload = json.loads(sidecar.read_text())
            labels = np.asarray(payload.pop("labels", None))
            labels = labels if labels.size == h.n_vertices else None
            provenance.update(payload)
        mu_mode = args.mu if args.mu else ("keep" if not np.all(h.mu == 1.0)
                                           else "degree")
        return run_method(h, labels, method, cfg, alpha=alpha,
                          source=str(args.input), mu_mode=mu_mode,
                          cardinality_recompute_kappa=False,
                          provenance=provenance,
                          export_graph=getattr(args, "export_graph", None))
    build = _build_dataset(args, alpha if alpha is not None else 0.0)
    return run_method(build.hypergraph, build.labels, method, cfg,
                      alpha=alpha, source=args.dataset,
                      mu_mode=args.mu or "degree",
                      cardinality_recompute_kappa=True,
                      provenance=build.provenance,
                      export_graph=getattr(args, "export_graph", None))


def cmd_cluster(args) -> int:
    report = _cluster_once(args, args.method, args.alpha)
    text = report.to_json(include_timings=args.timings)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} (ncc={report.ncc:.6g}"
              + (f", error={report.error:.6g}" if report.error is not None else "")
              + ")")
    else:
        print(text, end="")
    return 0


def cmd_sweep(args) -> int:
    alphas = ([float(t) for t in args.alphas.split(",")]
              if args.alphas else list(DEFAULT_ALPHA_GRID))
    methods = args.methods.split(",") if args.methods else list(METHODS)
    for mth in methods:
        if mth not in METHODS:
            raise DataIngestError(f"unknown method {mth!r}")
    jobs = [(alpha, method) for alpha in alphas for method in methods]

    def one(job):
        alpha, method = job
        return _cluster_once(args, method, alpha)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(one, jobs))
    else:
        reports = [one(job) for job in jobs]

    rows = [{
        "dataset": args.dataset,
        "alpha": rep.alpha,
        "method": rep.method,
        "ncc": rep.ncc,
        "error": rep.error,
        "lambda": rep.lam,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "seed": args.seed,
    } for rep in reports]

    csv_path = Path(args.out_prefix + ".csv")
    json_path = Path(args.out_prefix + ".json")
    fieldnames = ["dataset", "alpha", "method", "ncc", "error", "lambda",
                  "iterations", "converged", "seed"]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    json_path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(f"wrote {csv_path} and {json_path} ({len(rows)} rows)")
    return 0


def cmd_oracle(args) -> int:
    h = read_hypergraph(args.input)
    spec = SubmodularWeightSpec(HKind(args.h_kind), GKind(args.g_kind))
    if args.mu == "degree":
        h = with_degree_mu(h, spec)
    h2, part = exact_h2(h, spec)
    print(json.dumps({
        "h2": h2,
        "argmin_block_of_vertex_0": [int(v) for v in
                                     np.flatnonzero(part.side_of == part.side_of[0])],
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
    p.add_argument("--alpha", type=float, default=1.0, help="EDVW exponent")
    p.add_argument("--data-dir", default="data")
    p.add_argument("--out", required=True,
                   help="output path (.json selects the JSON mirror format)")
    p.add_argument("--kappa-members-only", action="store_true",
                   help="std rule over members instead of all vertices")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("cluster", help="run one clustering method")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="hypergraph file (text or .json)")
    src.add_argument("--dataset", choices=sorted(datasets.DATASET_FILES))
    p.add_argument("--method", choices=METHODS, default="edvw-1lap")
    p.add_argument("--alpha", type=float, default=None,
                   help="EDVW exponent (dataset inputs)")
    p.add_argument("--data-dir", default="data")
    p.add_argument("--mu", choices=["degree", "ones", "keep"], default=None,
                   help="vertex weights (default: degree; file inputs with "
                        "explicit weights default to keep)")
    p.add_argument("--kappa-members-only", action="store_true")
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the report "
                        "(reports are only byte-reproducible without them)")
    p.add_argument("--export-graph",
                   help="also write the clique expansion as a matrix-market file")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep", help="alpha sweep over methods, CSV + JSON out")
    p.add_argument("--dataset", choices=sorted(datasets.DATASET_FILES),
                   required=True)
    p.add_argument("--alphas", help="comma-separated alpha grid "
                                    "(default 0,0.25,...,2)")
    p.add_argument("--methods", help=f"comma-separated subset of {METHODS}")
    p.add_argument("--data-dir", default="data")
    p.add_argument("--mu", choices=["degree", "ones"], default="degree")
    p.add_argument("--kappa-members-only", action="store_true")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel sweep points (threads)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_sweep, input=None)

    p = sub.add_parser("oracle", help=argparse.SUPPRESS)
    p.add_argument("--input", required=True)
    p.add_argument("--h-kind", default="identity",
                   choices=[k.value for k in HKind])
    p.add_argument("--g-kind", default="clique",
                   choices=[k.value for k in GKind])
    p.add_argument("--mu", choices=["degree", "keep"], default="degree")
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
