"""Run one ``qadb`` CLI command in this process, timed from the outside.

Usage: ``python3 perfbench/launch.py OUT.json items|trace -- <qadb args>``

``items`` times each per-item call (query or revise row) and nothing else;
``trace`` records spans around every layer's public functions. Either way
the records are written to OUT.json when the command ends, and the process
exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys


def peak_rss_kb() -> int:
    """This process image's peak RSS (VmHWM).

    Unlike ``ru_maxrss`` it does not count the parent's pages that the
    child held between fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    out_path, mode, sep, *qadb_args = argv
    if sep != "--" or mode not in ("items", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    import tracing

    rec = tracing.Recorder()
    intervals: list = []
    code = 1
    try:
        if mode == "trace":
            with rec.span("cli.import"):
                from qadb import cli
            tracing.install_layer_spans(rec)
            with rec.span("cli.main"):
                code = cli.main(qadb_args)
        else:
            from qadb import cli

            tracing.install_item_timer(intervals)
            code = cli.main(qadb_args)
    finally:
        record = {"exit": code, "items": intervals, "spans": rec.spans,
                  "counters": rec.counters, "peak_rss_kb": peak_rss_kb()}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
