"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/sweep.py --workloads covertype-1lap,newsgroups-1lap \
        --seeds 1-10 --seconds 55 --trace 0 --out bench/out/sweep.json

Each run is a fresh `bench/run.py` process, one after another.  For every
metric the summary gives the median, the quartiles (as
`statistics.quantiles(values, n=4)` computes them) and the spread, the
inter-quartile distance as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list) -> dict:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return {"values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    result = {}
    for name in args.workloads.split(","):
        lines = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600, check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            lines.append(line)
            print(name, seed, json.dumps(line), flush=True)
        metrics = {k: spread([ln["metrics"][k]["value"] for ln in lines])
                   for k in lines[0]["metrics"]}
        result[name] = {
            "correct": all(ln["correct"] for ln in lines),
            "attempted": sum(ln["attempted"] for ln in lines),
            "failed": sum(ln["failed"] for ln in lines),
            "metrics": metrics,
        }
        for k, m in metrics.items():
            if "spread" in m:
                print(f"{name} {k}: median {m['median']:.6g} "
                      f"spread {m['spread'] if m['spread'] is None else round(m['spread'], 4)}",
                      flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
