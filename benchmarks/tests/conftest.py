"""Make the benchmark's modules and the program importable.

Run with ``python -m pytest benchmarks/tests`` from the repository root;
this directory is deliberately outside tier-1's ``testpaths``.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT_DIR = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT_DIR, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
