"""Print one JSON line per perfbench operation, to show that a change keeps
every result, and compare two such outputs.

    python3 tools/fingerprint.py [ROOT] > fingerprint.jsonl
    python3 tools/fingerprint.py --compare A.jsonl B.jsonl
    python3 tools/fingerprint.py --compare --results A.jsonl B.jsonl

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
When all agree it also prints how many hull lines differ and the largest
difference.  Otherwise it prints the first operation that differs, with
both lines, and exits 1; a line that is not a fingerprint (say, cut off by
a killed run) is printed with its file and line number, and exits 1 too.

--results is for a change that moves the search by design (another cut
sequence, another node order): a solve line then agrees when objective,
upper_bound, gap_pct, status and best_x are byte-identical and root_bound
agrees within 1e-9 relative; nodes and cuts may differ.  When all agree it
also prints how many solve lines differ in root_bound, in nodes and in cuts.
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
ROOT_TOL = 1e-9  # largest relative root_bound difference --compare --results accepts
SEARCH_KEYS = ("root_bound", "nodes", "cuts")  # may move under --results; every other field may not


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


def _read(path: str) -> tuple[list[str], list[dict]] | None:
    """The lines of a fingerprint file and the operation each holds.  When
    a line is not a JSON object with a workload and an op (a run killed
    mid-line leaves one), prints the file, the line number and the line,
    and returns None."""
    lines = Path(path).read_text().splitlines()
    ops = []
    for number, line in enumerate(lines, 1):
        try:
            op = json.loads(line)
        except json.JSONDecodeError:
            op = None
        if not isinstance(op, dict) or not {"workload", "op"} <= op.keys():
            print(f"{path}:{number}: not a fingerprint line: {line!r}")
            return None
        ops.append(op)
    return lines, ops


def _hull_difference(a: dict, b: dict) -> float | None:
    """|max_discrepancy difference| of two operations that are the same hull
    operation and agree in every other field; None for any other pair."""
    hull = "max_discrepancy"
    if hull not in a or a.keys() != b.keys() or any(a[k] != b[k] for k in a if k != hull):
        return None
    return abs(float(a[hull]) - float(b[hull]))


def _same_result(a: dict, b: dict) -> bool:
    """Whether two operations are the same solve operation with the same
    result fields and root bounds within ROOT_TOL relative."""
    if "root_bound" not in a or a.keys() != b.keys() or any(a[k] != b[k] for k in a if k not in SEARCH_KEYS):
        return False
    root_a, root_b = float(a["root_bound"]), float(b["root_bound"])
    return root_a == root_b or abs(root_a - root_b) <= ROOT_TOL * max(abs(root_a), abs(root_b))


def compare(path_a: str, path_b: str, results: bool = False) -> int:
    read_a, read_b = _read(path_a), _read(path_b)
    if read_a is None or read_b is None:
        return 1
    (lines_a, ops_a), (lines_b, ops_b) = read_a, read_b
    hull_lines, moved = 0, []
    search_moved = dict.fromkeys(SEARCH_KEYS, 0)
    for line_a, line_b, a, b in itertools.zip_longest(lines_a, lines_b, ops_a, ops_b):
        diff = None if a is None or b is None else _hull_difference(a, b)
        if results and line_a != line_b and diff is None and a is not None and b is not None and _same_result(a, b):
            for key in SEARCH_KEYS:
                search_moved[key] += a[key] != b[key]
            continue
        if line_a != line_b and (diff is None or diff > HULL_TOL):
            op = a or b
            print(f"first differing op: {op['workload']} {op['op']}")
            print(f"{path_a}: {line_a or '(ends before it)'}")
            print(f"{path_b}: {line_b or '(ends before it)'}")
            return 1
        if diff is not None:
            hull_lines += 1
            if line_a != line_b:
                moved.append(diff)
    print(f"{len(lines_a)} ops agree")
    print(f"{len(moved)} of {hull_lines} hull lines differ, by at most {max(moved, default=0.0):.2g}")
    if results:
        print(", ".join(f"{count} solve lines differ in {key}" for key, count in search_moved.items()))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"]:
        results = argv[1:2] == ["--results"]
        paths = argv[2:] if results else argv[1:]
        if len(paths) != 2:
            print("usage: fingerprint.py --compare [--results] A.jsonl B.jsonl", file=sys.stderr)
            return 2
        return compare(*paths, results=results)
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    for name, build in workloads.WORKLOADS.items():
        for op in build().ops:
            print(json.dumps({"workload": name, "op": op.name, **fingerprint(op.run())}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
