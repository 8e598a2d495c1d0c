"""Print one JSON line per perfbench operation, to show that a change keeps
every result, and compare two such outputs.

    python3 tools/fingerprint.py [ROOT] > fingerprint.jsonl
    python3 tools/fingerprint.py --compare A.jsonl B.jsonl

ROOT is a checkout of this repository (default: the one holding this
script); its src/scflp and perfbench/workloads.py are imported, every
operation of every workload runs once, in workload order, and nothing is
written into ROOT.  A solve line holds the repr of objective, upper_bound,
gap_pct and root_bound, plus status, nodes, cuts and best_x; a hull line
holds the repr of max_discrepancy.

--compare exits 0 when the two outputs hold the same operations in the same
order, every solve line is byte-identical and every hull line's
max_discrepancy agrees within 1e-9: it can move in the last bits when the
LP path of verify changes (other rows in the model, other vertices).
Otherwise it prints the first operation that differs, with both lines, and
exits 1.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):  # as perfbench/run.py
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # no __pycache__ in ROOT

import itertools
import json
from pathlib import Path

HULL_TOL = 1e-9  # largest max_discrepancy difference --compare accepts


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


def _agree(line_a: str, line_b: str) -> bool:
    if line_a == line_b:
        return True
    a, b = json.loads(line_a), json.loads(line_b)
    hull = "max_discrepancy"
    if hull not in a or a.keys() != b.keys() or any(a[k] != b[k] for k in a if k != hull):
        return False
    return abs(float(a[hull]) - float(b[hull])) <= HULL_TOL


def compare(path_a: str, path_b: str) -> int:
    lines_a = Path(path_a).read_text().splitlines()
    lines_b = Path(path_b).read_text().splitlines()
    for line_a, line_b in itertools.zip_longest(lines_a, lines_b):
        if line_a is None or line_b is None or not _agree(line_a, line_b):
            op = json.loads(line_a or line_b)
            print(f"first differing op: {op['workload']} {op['op']}")
            print(f"{path_a}: {line_a or '(ends before it)'}")
            print(f"{path_b}: {line_b or '(ends before it)'}")
            return 1
    print(f"{len(lines_a)} ops agree")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print("usage: fingerprint.py --compare A.jsonl B.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    for name, build in workloads.WORKLOADS.items():
        for op in build().ops:
            print(json.dumps({"workload": name, "op": op.name, **fingerprint(op.run())}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
