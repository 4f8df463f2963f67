"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mdgan-toy-tcp --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it describe the host and the run (loss digest, checks).  A
traced run also writes its spans to ``perfbench/out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import pb_env  # noqa: E402  (stdlib only)

# Before NumPy loads its BLAS; the pool slots inherit the environment.
pb_env.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"error: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from pb_harness import run_workload
    from pb_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        trace_path = os.path.relpath(
            os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        )
    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds,
        trace=bool(args.trace), trace_path=trace_path,
    )
    print(json.dumps({"host": pb_env.host_info()}))
    print(json.dumps({"run": result.info}))
    print(json.dumps(result.as_line()))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        pb_env.reap_children()
    sys.exit(code)
