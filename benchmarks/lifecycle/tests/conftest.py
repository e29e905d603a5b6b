"""Self-tests of the benchmark's own machinery.

Run with ``python3 -m pytest benchmarks/lifecycle/tests``; the repo's tier-1
suite (``testpaths = tests``) does not collect this directory.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LIFECYCLE = os.path.dirname(HERE)
REPO = os.path.dirname(os.path.dirname(LIFECYCLE))

for path in (os.path.join(REPO, "src"), LIFECYCLE):
    if path not in sys.path:
        sys.path.insert(0, path)
