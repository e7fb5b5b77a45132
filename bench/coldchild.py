"""One traced cold request: ``python coldchild.py SPANS_FILE ARGS...``.

Runs ``cmkit.cli.main(ARGS)`` in this fresh process with the tracer
installed, writes the spans and counters to SPANS_FILE as JSON, and exits
with cmkit's exit code.  The report goes to stdout as usual.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import cmkit.cli

    tracer = Tracer()
    tracer.counting = True
    tracer.install()
    try:
        code = tracer.call("cli.main", cmkit.cli.main, argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
