"""``tools/fingerprint.py --compare`` on small hand-written fingerprint
files; no workload runs."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"

SOLVE = {
    "workload": "desk",
    "op": "k0/SF",
    "objective": "1.5",
    "upper_bound": "1.5",
    "gap_pct": "0.0",
    "root_bound": "1.75",
    "status": "optimal",
    "nodes": 3,
    "cuts": 7,
    "best_x": "0110",
}


def _hull(value: float) -> dict:
    return {"workload": "hull_probe", "op": "h0", "max_discrepancy": repr(value)}


def _write(path: Path, ops) -> str:
    path.write_text("".join((op if isinstance(op, str) else json.dumps(op)) + "\n" for op in ops))
    return str(path)


def _compare(tmp_path, ops_a, ops_b, *flags) -> subprocess.CompletedProcess:
    a = _write(tmp_path / "a.jsonl", ops_a)
    b = _write(tmp_path / "b.jsonl", ops_b)
    return subprocess.run([sys.executable, str(TOOL), "--compare", *flags, a, b], capture_output=True, text=True, timeout=60)


def test_equal_files_agree(tmp_path):
    out = _compare(tmp_path, [SOLVE, _hull(0.03)], [SOLVE, _hull(0.03)])
    assert out.returncode == 0, out.stdout + out.stderr
    assert "2 ops agree" in out.stdout
    assert "0 of 1 hull lines differ" in out.stdout


def test_a_solve_line_that_differs_fails(tmp_path):
    other = {**SOLVE, "nodes": 4}
    out = _compare(tmp_path, [SOLVE, _hull(0.03)], [other, _hull(0.03)])
    assert out.returncode == 1
    assert "first differing op: desk k0/SF" in out.stdout
    assert '"nodes": 4' in out.stdout


def test_a_hull_line_within_tolerance_agrees(tmp_path):
    out = _compare(tmp_path, [SOLVE, _hull(0.03)], [SOLVE, _hull(0.03 + 5e-10)])
    assert out.returncode == 0, out.stdout + out.stderr
    assert "1 of 1 hull lines differ" in out.stdout


def test_a_hull_line_beyond_tolerance_fails(tmp_path):
    out = _compare(tmp_path, [SOLVE, _hull(0.03)], [SOLVE, _hull(0.03 + 2e-9)])
    assert out.returncode == 1
    assert "first differing op: hull_probe h0" in out.stdout


def test_a_truncated_line_is_reported_without_a_traceback(tmp_path):
    cut = json.dumps(SOLVE)[:30]
    for ops_a, ops_b, bad in (([SOLVE, _hull(0.03)], [cut], "b.jsonl:1"), ([SOLVE, cut], [SOLVE, _hull(0.03)], "a.jsonl:2")):
        out = _compare(tmp_path, ops_a, ops_b)
        assert out.returncode == 1
        assert bad in out.stdout and cut in out.stdout
        assert "Traceback" not in out.stderr


def test_a_shorter_file_fails(tmp_path):
    out = _compare(tmp_path, [SOLVE, _hull(0.03)], [SOLVE])
    assert out.returncode == 1
    assert "(ends before it)" in out.stdout


def test_results_mode_lets_the_search_move_but_not_the_result(tmp_path):
    moved = {**SOLVE, "nodes": 5, "cuts": 9, "root_bound": repr(1.75 * (1 + 4e-10))}
    same_search = {**SOLVE, "op": "k1/SF"}
    ops_a = [SOLVE, same_search, _hull(0.03)]
    out = _compare(tmp_path, ops_a, [moved, same_search, _hull(0.03)], "--results")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "3 ops agree" in out.stdout
    assert "1 solve lines differ in root_bound, 1 solve lines differ in nodes, 1 solve lines differ in cuts" in out.stdout
    assert _compare(tmp_path, ops_a, [moved, same_search, _hull(0.03)]).returncode == 1  # the default mode stays byte for byte
    for key, value in (("objective", "1.5000000000000002"), ("upper_bound", "1.6"), ("gap_pct", "0.1"), ("status", "limit"), ("best_x", "1010"), ("root_bound", repr(1.75 * (1 + 2e-9)))):
        out = _compare(tmp_path, ops_a, [{**SOLVE, key: value}, same_search, _hull(0.03)], "--results")
        assert out.returncode == 1, key
        assert "first differing op: desk k0/SF" in out.stdout


def test_results_mode_keeps_the_hull_tolerance_and_the_usage(tmp_path):
    assert _compare(tmp_path, [SOLVE, _hull(0.03)], [SOLVE, _hull(0.03 + 5e-10)], "--results").returncode == 0
    assert _compare(tmp_path, [SOLVE, _hull(0.03)], [SOLVE, _hull(0.03 + 2e-9)], "--results").returncode == 1
    assert _compare(tmp_path, [SOLVE], [SOLVE], "--results", "--results").returncode == 2
