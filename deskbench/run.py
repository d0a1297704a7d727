"""Benchmark entry point.

    python3 deskbench/run.py --workload prep --seed 1 --seconds 15 --trace 0

Prints a `detail` line (the workload's own metric names, input properties,
errors, environment) and, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. The program is imported from `src/`
of the checkout this file sits in; without it the benchmark exits with 2.
Scratch files, traces and determinism records go under `.bench_out/`.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("prep", "finetune", "finetune_long", "evaluate")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "desklora", "__init__.py")):
        print(f"deskbench: no desklora package under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the workloads are single-threaded
    # by design, and extra BLAS threads on small matrices only add spread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [src, ROOT]
    from deskbench import runner

    out_root = os.path.join(ROOT, ".bench_out")
    report = runner.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_root)
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    result_path = os.path.join(out_root, "results",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, ensure_ascii=False)
    print("detail " + json.dumps(report["detail"], ensure_ascii=False))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
