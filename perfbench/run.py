"""qadb benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload gen-remote|retrieve-sparse|retrieve-dense \\
        --seed N --seconds S --trace 0|1

It runs the checkout's ``qadb`` (``src/``) through whole CLI commands,
checks their outputs, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("gen-remote", "retrieve-sparse", "retrieve-dense")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "qadb" / "cli.py").is_file():
        print(f"error: no qadb sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import workloads

    result = workloads.run(args.workload, root, args.seed, args.seconds, bool(args.trace))
    for error in result.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
