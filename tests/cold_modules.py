"""Run ``cmkit.cli`` as ``python -m cmkit.cli`` does, then write the modules the command loaded to a file:

    python tests/cold_modules.py OUT ARGS... < document

Standard input, standard output and the exit code are the command's own.  On
exit, OUT holds one line: the loaded ``cmkit`` modules, sorted, then
``dataclasses`` if it was loaded, separated by spaces.  ``-X importtime``
logs only what an import statement loads, so it misses a module loaded
through ``cmkit.__getattr__`` (``importlib.import_module``); ``sys.modules``
holds every one.  Only the standard library is used, so it runs in an
environment that holds the package's runtime dependencies and nothing else.
"""

import runpy
import sys

out, sys.argv = sys.argv[1], ["cmkit", *sys.argv[2:]]
try:
    runpy.run_module("cmkit.cli", run_name="__main__")
finally:
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "cmkit")
    with open(out, "w", encoding="utf-8") as f:
        print(*loaded, *["dataclasses"] * ("dataclasses" in sys.modules), file=f)
