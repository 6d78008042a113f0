#!/usr/bin/env python3
"""braidcover benchmark: time to verdict over seeded grid lines.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; braidcover is imported from its
`src/` and the oracle from `tests/b3oracle.py`, nothing is installed.
Without them the script exits with code 2 and prints no result.

The import of braidcover.cli is the first thing this process does, before
any other module is loaded, so that its time is the set-up a user pays.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ORACLE_DIR = os.path.join(ROOT, "tests")


def first_import():
    """(seconds, module) for the first `import braidcover.cli` here."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import braidcover.cli
    return time.perf_counter() - t0, braidcover.cli


def main():
    needed = (os.path.join(SRC, "braidcover", "cli.py"),
              os.path.join(ORACLE_DIR, "b3oracle.py"))
    absent = [p for p in needed if not os.path.isfile(p)]
    if absent:
        print("perfbench: not a braidcover checkout, missing %s"
              % ", ".join(os.path.relpath(p, ROOT) for p in absent), file=sys.stderr)
        return 2
    import_s, cli = first_import()
    sys.path.insert(0, ORACLE_DIR)
    import harness
    return harness.main(sys.argv[1:], import_s, cli)


if __name__ == "__main__":
    sys.exit(main())
