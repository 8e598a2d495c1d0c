import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scflp
from scflp.cli import main

from conftest import GOLDEN_TEXT


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden3x3.scflp"
    path.write_text(GOLDEN_TEXT)
    return str(path)


def test_solve_prints_objective(golden_file, capsys):
    code = main(["solve", "--in", golden_file, "--form", "GSF"])
    out = capsys.readouterr().out
    assert code == 0
    assert "O=1.333333" in out
    assert "status=optimal" in out


def test_solve_all_formulations_agree(golden_file, capsys):
    for form in ("SF", "GSF", "EF"):
        assert main(["solve", "--in", golden_file, "--form", form]) == 0
        assert "O=1.333333" in capsys.readouterr().out


def test_oracle_lists_tie_class(golden_file, capsys):
    assert main(["oracle", "--in", golden_file]) == 0
    out = capsys.readouterr().out
    assert "value=1.333333" in out
    assert out.count("x=") == 3
    assert {"x=110", "x=101", "x=011"} <= set(out.split())


def test_verify_checks_pass(golden_file, capsys):
    code = main(["verify", "--in", golden_file, "--checks", "hull,prop61,aggregation", "--trials", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("pass") == 3
    assert "FAIL" not in out


def test_generate_deterministic_and_loadable(tmp_path, capsys):
    a = tmp_path / "a.scflp"
    b = tmp_path / "b.scflp"
    for path in (a, b):
        assert main(["generate", "--style", "qi", "--m", "6", "--n", "5", "--p", "2", "--r", "2", "--seed", "4", "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()
    assert main(["oracle", "--in", str(a)]) == 0
    capsys.readouterr()


def test_events_log(golden_file, tmp_path, capsys):
    events = tmp_path / "ev.jsonl"
    assert main(["solve", "--in", golden_file, "--form", "EF", "--events", str(events)]) == 0
    capsys.readouterr()
    assert '"event": "done"' in events.read_text()


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--in", "x.scflp", "--bogus-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["solve", "--in", str(tmp_path / "missing.scflp")])
    assert err.value.code == 2
    capsys.readouterr()


def test_unwritable_outputs_exit_2_before_solving(golden_file, tmp_path, capsys, monkeypatch):
    """An --out or --events path that cannot be opened ends with one error
    line and exit code 2; solve, bench, oracle and verify check theirs
    before any search, enumeration or check."""
    import scflp.cli

    def no_work(*args, **kwargs):
        raise AssertionError("work ran although its output cannot be written")

    for name in ("solve", "brute_force_solve", "verify_hull", "verify_prop61", "verify_aggregation"):
        monkeypatch.setattr(scflp.cli, name, no_work)
    bad = str(tmp_path / "missing" / "out.txt")
    runs = (
        ["solve", "--in", golden_file, "--events", bad],
        ["solve", "--in", golden_file, "--out", bad],
        ["generate", "--m", "4", "--n", "4", "--p", "2", "--r", "2", "--out", bad],
        ["bench", "--in", golden_file, "--form", "GSF", "--out", bad],
        ["oracle", "--in", golden_file, "--out", bad],
        ["verify", "--in", golden_file, "--out", bad],
    )
    for argv in runs:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {bad}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "missing").exists()


def test_bad_check_list_exits_2(golden_file, capsys):
    assert main(["verify", "--in", golden_file, "--checks", "hull,nonsense"]) == 2
    capsys.readouterr()


def _mask_times(csv_text: str) -> str:
    rows = []
    for line in csv_text.strip().splitlines():
        cols = line.split(",")
        if cols[0] != "instance":
            cols[3] = cols[6] = "T"
        rows.append(",".join(cols))
    return "\n".join(rows)


def test_bench_csv_deterministic_up_to_wall_times(tmp_path, capsys):
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code = main(
            [
                "bench",
                "--style", "qi",
                "--m", "5", "--n", "5",
                "--p", "2", "--r", "2,3",
                "--seed", "11",
                "--form", "GSF,EF",
                "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_text())
        capsys.readouterr()
    assert _mask_times(outs[0]) == _mask_times(outs[1])
    header, *rows = outs[0].strip().splitlines()
    assert header == "instance,formulation,objective,time_s,nodes,cuts,sep_time_s,root_gap_pct,status"
    assert len(rows) == 4  # 2 instances x 2 formulations
    profile = tmp_path / "one_profile_GSF.dat"
    assert profile.exists()
    lines = profile.read_text().strip().splitlines()
    assert lines and all(re.match(r"^\d+\.\d{3} [01]\.\d{4}$", ln) for ln in lines)
    assert lines[-1].endswith("1.0000")


def test_bench_single_instance_file(golden_file, tmp_path, capsys):
    out = tmp_path / "golden.csv"
    assert main(["bench", "--in", golden_file, "--form", "GSF", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("golden3x3.scflp,GSF,1.333333,")
    capsys.readouterr()


def test_bench_parallel_workers_match_serial(golden_file, tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    args = ["bench", "--style", "qi", "--m", "4", "--n", "4", "--p", "2", "--r", "2", "--seed", "3", "--form", "SF,GSF,EF"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--workers", "2"]) == 0
    assert _mask_times(serial.read_text()) == _mask_times(parallel.read_text())
    capsys.readouterr()


def test_bench_starts_no_more_workers_than_tasks(golden_file, tmp_path, monkeypatch, capsys):
    """--workers above the task count starts one worker per task, and one
    task runs in-process; the stub pool maps in-process and starts nothing."""
    import concurrent.futures

    asked = []

    class StubPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    args = ["bench", "--in", golden_file, "--workers", "64", "--out"]
    assert main(args + [str(tmp_path / "three.csv"), "--form", "SF,GSF,EF"]) == 0
    assert asked == [3]
    assert main(args + [str(tmp_path / "one.csv"), "--form", "GSF"]) == 0
    assert asked == [3]
    assert len((tmp_path / "three.csv").read_text().splitlines()) == 4
    capsys.readouterr()


def test_bench_solves_the_instance_it_names(tmp_path, monkeypatch, capsys):
    """bench solves the generated instance itself, and an --in file's
    instance as load_instance reads it, not a 12-digit re-save of either."""
    from scflp import cli
    from scflp.instance import FORMAT_HEADER, GeneratorParams, generate_instance, load_instance

    seen = []
    real = cli.solve
    monkeypatch.setattr(cli, "solve", lambda inst, cfg: seen.append(inst) or real(inst, cfg))
    args = ["bench", "--m", "5", "--n", "6", "--p", "2", "--r", "2", "--seed", "3", "--form", "GSF"]
    assert main(args + ["--out", str(tmp_path / "gen.csv")]) == 0
    generated = generate_instance(GeneratorParams("biesinger", m=5, n=6, p=2, r=2, seed=3))
    num = "{:.17g}".format
    text = "\n".join(
        [FORMAT_HEADER, "5 6 2 2", " ".join(map(num, generated.w))] + [" ".join(map(num, row)) for row in generated.v]
    )
    path = tmp_path / "full.scflp"
    path.write_text(text + "\n")
    assert main(["bench", "--in", str(path), "--form", "GSF", "--out", str(tmp_path / "file.csv")]) == 0
    assert len(seen) == 2
    for inst, want in zip(seen, (generated, load_instance(text))):
        assert np.array_equal(inst.v, want.v) and np.array_equal(inst.w, want.w)
    assert np.array_equal(seen[1].v, generated.v)  # 17 digits round-trip exactly
    capsys.readouterr()


def test_verify_exits_1_when_a_check_fails(tmp_path, capsys):
    """The pinned criterion-4 counterexample fails the hull check; a FAIL
    line comes with exit code 1, as the documented exit codes say."""
    from scflp import Instance, save_instance
    from test_verify import HULL_GAP_V, HULL_GAP_W

    path = tmp_path / "hullgap.scflp"
    path.write_text(save_instance(Instance(m=4, n=6, w=HULL_GAP_W, v=HULL_GAP_V, p=3, r=5)))
    code = main(["verify", "--in", str(path), "--checks", "hull", "--trials", "200", "--seed", "0"])
    out = capsys.readouterr().out
    assert "hull: FAIL" in out
    assert code == 1


def _refusal(argv, capsys) -> str:
    """Run main on argv and return its one stderr line, after checking that
    it ended with exit code 2 (returned or raised) and printed nothing else."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured
    return captured.err


def test_invalid_solver_settings_exit_2(golden_file, tmp_path, capsys):
    """A time limit that is not positive (nan included) or a negative gap is
    refused with one error line, and bench refuses it before it opens its
    CSV: an existing file keeps its contents."""
    for flags in (["--time-limit", "0"], ["--time-limit", "nan"], ["--gap", "-1"]):
        _refusal(["solve", "--in", golden_file] + flags, capsys)
    out = tmp_path / "kept.csv"
    out.write_text("old\n")
    err = _refusal(["bench", "--in", golden_file, "--form", "GSF", "--time-limit", "-1", "--out", str(out)], capsys)
    assert "time limit" in err
    assert out.read_text() == "old\n"


def test_bench_with_an_invalid_generated_instance_exits_2(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    err = _refusal(["bench", "--m", "4", "--n", "4", "--p", "5", "--r", "2", "--out", str(out)], capsys)
    assert "p=5" in err
    assert not out.exists()


def test_instances_beyond_an_enumeration_cap_exit_2(golden_file, tmp_path, capsys):
    """oracle's pair cap (C(40,3)^2 pairs) and verify's hull cap (n = 12).
    Both refusals come after --out is opened and leave an existing file as
    it was; a run that succeeds replaces a longer file's whole content."""
    from scflp import GeneratorParams, generate_instance, save_instance

    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    big = tmp_path / "big.scflp"
    big.write_text(save_instance(generate_instance(GeneratorParams("biesinger", m=40, n=40, p=3, r=3))))
    assert "cap" in _refusal(["oracle", "--in", str(big), "--out", str(out)], capsys)
    wide = tmp_path / "wide.scflp"
    wide.write_text(save_instance(generate_instance(GeneratorParams("biesinger", m=4, n=12, p=3, r=3))))
    _refusal(["verify", "--in", str(wide), "--out", str(out)], capsys)
    assert out.read_text() == "kept\n"

    assert main(["oracle", "--in", golden_file]) == 0
    fresh = capsys.readouterr().out
    out.write_text("x" * 4 * len(fresh))
    assert main(["oracle", "--in", golden_file, "--out", str(out)]) == 0
    assert out.read_text() == fresh


def test_bench_refuses_empty_lists_and_workers_below_one(tmp_path, capsys):
    """An empty --form, --p or --r list and --workers below 1 are refused
    with one error line before the CSV or any profile file is written."""
    out = tmp_path / "bench.csv"
    for flags in (["--form", ","], ["--p", ","], ["--r", ""], ["--workers", "0"], ["--workers", "-3"]):
        err = _refusal(["bench", "--m", "4", "--n", "4", "--p", "2", "--r", "2"] + flags + ["--out", str(out)], capsys)
        assert flags[0] in err
        assert list(tmp_path.iterdir()) == []


def test_verify_refuses_trials_below_one(golden_file, capsys):
    for trials in ("0", "-3"):
        assert "--trials" in _refusal(["verify", "--in", golden_file, "--trials", trials], capsys)


@pytest.mark.parametrize("command", ["generate", "bench", "verify"])
def test_negative_seed_exits_2(command, golden_file, tmp_path, capsys):
    """A seed below 0 is refused with one error line, not a traceback."""
    argv = {
        "generate": ["generate", "--m", "3", "--n", "3", "--p", "1", "--r", "1", "--seed", "-1"],
        "bench": ["bench", "--m", "4", "--n", "4", "--p", "2", "--r", "2", "--seed", "-5", "--out", str(tmp_path / "b.csv")],
        "verify": ["verify", "--in", golden_file, "--seed", "-2"],
    }[command]
    assert "seed" in _refusal(argv, capsys)


def test_malformed_inputs_exit_2(golden_file, tmp_path, capsys):
    """A malformed instance file, an unknown formulation in bench's list and
    a bad integer list end with exit code 2 and no traceback."""
    bad = tmp_path / "bad.scflp"
    bad.write_text("scflp 1\n3 3 2\n")
    assert "size line needs 4 integers" in _refusal(["solve", "--in", str(bad)], capsys)
    out = tmp_path / "bench.csv"
    assert "unknown formulation 'XX'" in _refusal(["bench", "--in", golden_file, "--form", "XX", "--out", str(out)], capsys)
    with pytest.raises(SystemExit) as err:
        main(["bench", "--in", golden_file, "--p", "1,a", "--out", str(out)])
    assert err.value.code == 2
    assert "bad integer list '1,a'" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point_runs_the_cli():
    """python -m scflp is the scflp command."""
    from scflp import GeneratorParams, generate_instance, save_instance

    src = str(Path(scflp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["generate", "--style", "qi", "--m", "3", "--n", "4", "--p", "2", "--r", "1", "--seed", "5"]
    done = subprocess.run([sys.executable, "-m", "scflp", *argv], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == save_instance(generate_instance(GeneratorParams("qi", m=3, n=4, p=2, r=1, seed=5)))
