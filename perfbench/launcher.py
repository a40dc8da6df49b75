"""Run one ``eprblab`` CLI command with span recording.

Usage: python3 perfbench/launcher.py SPANS_OUT PASS_ID SPAWN_TIME -- ARGV...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so the ``cli.startup`` span covers interpreter start and package
import.  The spans are written to SPANS_OUT as JSON when the command ends,
whether it succeeded or not.
"""

import json
import sys
import time

import eprblab.cli

import tracing


def main() -> int:
    spans_out, pass_id, spawn_time, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_OUT PASS_ID SPAWN_TIME -- ARGV...")
    rec = tracing.Recorder(pass_id)
    rec.close(rec.open("cli.startup", start=float(spawn_time)))
    tracing.install(rec)
    sid = rec.open("cli.main")
    try:
        return eprblab.cli.main(argv)
    finally:
        rec.close(sid)
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(rec.spans, handle)


if __name__ == "__main__":
    sys.exit(main())
