"""Recompute the non-CM analytic limit that the sweep workload checks
against, and write it to derived_limit.json beside this file.

The log R -> infinity limit of evaluate_S for noncm_3x12t is the one
reference value that only the program itself can make (the printed
-2.703 assembles cited constants that do not follow the expansion).  It
comes from ``aggregate_lower_order("noncm_3x12t", source="derived")``,
recomputed from scratch here; the sweep reads the file and never the
program's own reference tables.

    python3 perfbench/derive.py           # recompute and write (~3 min)
    python3 perfbench/derive.py --check   # recompute and compare
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "derived_limit.json"


def derive() -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np
    from ldl import constants, explicit_formula

    agg = constants.aggregate_lower_order("noncm_3x12t", source="derived")
    return {
        "family": agg.family,
        "aggregate": agg.aggregate,
        "pieces": agg.pieces,
        "sieve_pieces": agg.sieve_pieces,
        "atilde_primes": explicit_formula.ATILDE_PRIMES,
        "made_by": "python3 perfbench/derive.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the written file, write nothing")
    args = parser.parse_args()
    fresh = derive()
    if not args.check:
        OUT.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"aggregate {fresh['aggregate']!r} written to {OUT.name}")
        return 0
    kept = json.loads(OUT.read_text())
    delta = abs(kept["aggregate"] - fresh["aggregate"])
    print(f"kept {kept['aggregate']!r} recomputed {fresh['aggregate']!r} "
          f"delta {delta:.3g}")
    return 0 if math.isclose(kept["aggregate"], fresh["aggregate"],
                             rel_tol=0.0, abs_tol=1e-9) else 1


if __name__ == "__main__":
    sys.exit(main())
