"""Run the benchmark as a script: ``python3 src/repro/bench/run.py ...``.

The same as ``PYTHONPATH=src python -m repro.bench ...``, for callers that
can only name a file.  It puts ``src/`` on the import path itself, in place
of this directory, so the package's own module names shadow nothing.
"""

import os
import sys

if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    if sys.path and os.path.abspath(sys.path[0] or ".") == here:
        del sys.path[0]
    sys.path.insert(0, os.path.dirname(os.path.dirname(here)))
    try:
        from repro.bench.cli import main
    except ImportError as error:
        print(f"repro.bench: cannot import the profiler sources: {error}",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
