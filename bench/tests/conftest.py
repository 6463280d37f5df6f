"""Self-tests of the benchmark's own arithmetic (``python -m pytest bench/tests -q``).

Not part of tier-1: ``bench/`` is outside ``testpaths``.
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (BENCH, os.path.join(os.path.dirname(BENCH), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
