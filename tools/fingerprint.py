"""Print one JSON line per perfbench operation, to show that a change keeps
every result.

    python3 tools/fingerprint.py [ROOT] > fingerprint.jsonl

ROOT is a checkout of this repository (default: the one holding this
script); its src/scflp and perfbench/workloads.py are imported, every
operation of every workload runs once, in workload order, and nothing is
written into ROOT.  A solve line holds the repr of objective, upper_bound,
gap_pct and root_bound, plus status, nodes, cuts and best_x; a hull line
holds the repr of max_discrepancy.  Run it on two trees and compare the
outputs with cmp.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):  # as perfbench/run.py
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # no __pycache__ in ROOT

import json
from pathlib import Path


def fingerprint(rep) -> dict:
    if hasattr(rep, "max_discrepancy"):
        return {"max_discrepancy": repr(rep.max_discrepancy)}
    return {
        **{key: repr(getattr(rep, key)) for key in ("objective", "upper_bound", "gap_pct", "root_bound")},
        "status": rep.status,
        "nodes": rep.nodes,
        "cuts": rep.cuts,
        "best_x": None if rep.best_x is None else "".join(str(int(b)) for b in rep.best_x),
    }


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    for name, build in workloads.WORKLOADS.items():
        for op in build().ops:
            print(json.dumps({"workload": name, "op": op.name, **fingerprint(op.run())}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
