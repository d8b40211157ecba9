"""dmst benchmark.

    python3 perfbench/run.py --workload er-sparse --seed 1 --seconds 30 --trace 0

Run from the root of a dmst checkout; the program is imported from its
``src/``. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. The lines before it
print each metric with its unit and sample count. ``--workload all`` runs
every workload in turn. perfbench/README.md describes the metrics and the
workloads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dmst benchmark")
    ap.add_argument("--workload", required=True,
                    help="er-sparse, antilemon, superroot or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dmst" / "__init__.py").is_file():
        print("run.py: no src/dmst here; run it from the root of a dmst checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import bench

    return bench.main(args, root)


if __name__ == "__main__":
    sys.exit(main())
