"""One point of the perf trajectory: deskbench's end-to-end metrics over a
fixed seed set, written to BENCH_<label>.json at the root of this checkout.

    python tools/bench_trajectory.py LABEL [--checkout DIR]

For each seed in SEEDS and each workload in WORKLOADS (seed by seed, so a
drift of the machine's speed spreads over every workload), it runs
`python3 deskbench/run.py --workload W --seed N --seconds SECONDS` of the
checkout DIR (default: this one) as a child process, tracing off, and reads
the result from the child's last output line. DIR can be an older commit,
which need not hold this script, so two commits are compared with the same
benchmark settings on the same machine.

The file holds, per workload: the number of runs, how many were `correct`,
the operations attempted and failed, and the median and quartiles
(inclusive method) of each end-to-end metric with every run's value. It also
holds the checkout's commit and whether `src/` or `deskbench/` differed from
it, and deskbench's environment stamp. Per-layer (traced) metrics are not
recorded yet: several of deskbench's spans do not time what the engine runs
(ROADMAP direction 18).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 20
WORKLOADS = ("prep", "finetune", "finetune_long", "evaluate")
METRICS = ("work_per_s", "latency_ms_p50", "peak_rss_mb", "setup_s")


def git(checkout: str, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(checkout: str, workload: str, seed: int) -> tuple[dict, dict]:
    """(result, detail) that deskbench prints for one run."""
    done = subprocess.run(
        [sys.executable, os.path.join("deskbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True, check=True)
    *_, detail_line, result_line = done.stdout.strip().splitlines()
    return json.loads(result_line), json.loads(detail_line.removeprefix("detail "))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--checkout", default=ROOT, help="the checkout whose deskbench runs")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)

    runs = {w: [] for w in WORKLOADS}
    environment = None
    for seed in SEEDS:
        for workload in WORKLOADS:
            result, detail = run_once(checkout, workload, seed)
            environment = environment or detail["environment"]
            runs[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m} {result['metrics'][m]['value']:.4g}" for m in METRICS), flush=True)

    status = git(checkout, "status", "--porcelain", "--", "src", "deskbench")
    report = {
        "label": args.label,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "src_or_deskbench_modified": None if status is None else bool(status),
        "environment": environment,
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "workloads": {
            w: {
                "runs": len(results),
                "correct": sum(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {m: {"unit": results[0]["metrics"][m]["unit"],
                                **summarize([r["metrics"][m]["value"] for r in results])}
                            for m in METRICS},
            }
            for w, results in runs.items()
        },
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
