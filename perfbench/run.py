"""factlink benchmark: one workload through the real CLI, stage by stage.

    python3 perfbench/run.py --workload toy-train --seed 0 --seconds 30 --trace 0

Run it from the repository root. The command generates the workload's
inputs from the seed, then runs the factlink CLI of the working tree's
``src`` as one child process per stage, in stage order, each waiting for
the previous one (a closed loop with one client). A discarded warm-up
stage runs first so the page cache holds the inputs and the interpreter.
Then the whole pipeline runs in rounds, each from an empty output
directory: the set-up stages, then the measured stages. Rounds repeat
while another one fits in ``--seconds``, and at least twice, so that the
artifacts of two rounds can be compared byte for byte. Every stage
reports its median over the rounds. The outputs are checked, every
metric is printed with its unit, and the last stdout line is one JSON
object ``{correct, attempted, failed, metrics}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
round as child processes (for per-stage wall time and peak RSS), then
the pipeline twice in this process, untraced and traced, and reports
per-layer metrics from the traced pass; the spans go to
``.bench_work/traces``.

The exit status is 0 only when every stage exits 0 and every output
check passes.
"""

import os
import sys

# BLAS/OpenMP threads are fixed before numpy loads, here and in the stages
THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import argparse  # noqa: E402

import bench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (bench.SRC / "factlink" / "cli.py").is_file():
        print(f"factlink sources not found under {bench.SRC}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    if args.trace:
        import layers

        return layers.run_traced(workload, args.seed)
    return bench.run_plain(workload, args.seed, args.seconds)


if __name__ == "__main__":
    raise SystemExit(main())
