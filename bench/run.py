"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 bench/run.py --workload covertype-1lap --seed 0 --seconds 55 --trace 0

Runs from the root of a checkout and uses the library in its `src/`.  The
full record of the run (machine and input facts, every timing, and with
`--trace 1` the spans) is written to `bench/out/` and printed as one JSON
line; the last line printed is the summary

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with `--trace 1` the per-layer ones.
Workloads: covertype-1lap, newsgroups-1lap, covertype-rw-dense, and
covertype-rw, whose every call fails at present.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypercut" / "__init__.py").is_file():
        print(f"no hypercut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import hypercut
    if Path(hypercut.__file__).resolve().parent != SRC / "hypercut":
        print(f"imported hypercut from {hypercut.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: v for k, v in record.items() if k != "spans"}))
    print(json.dumps(harness.summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
