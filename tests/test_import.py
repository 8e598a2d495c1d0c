"""Cold-start structure: scflp loads scipy's HiGHS binding from its file, so
importing the package runs neither scipy.optimize's package import nor
multiprocessing, and shares one binding with a later scipy.optimize import.
Each check runs in a fresh interpreter, since this test process has already
imported scipy.optimize."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_skips_scipy_optimize_and_multiprocessing():
    out = _run(
        """
        import sys
        import scflp, scflp.cli, scflp.verify, scflp.oracle
        heavy = sorted(k for k in sys.modules if k == "scipy.optimize" or k.split(".")[0] == "multiprocessing")
        print(heavy)
        """
    )
    assert out.strip() == "[]"


def test_one_binding_in_either_import_order():
    for first, second in (("scflp.lp", "scipy.optimize"), ("scipy.optimize", "scflp.lp")):
        out = _run(
            f"""
            import sys
            import {first}
            import {second}
            import scflp.lp
            from scipy.optimize._highspy import _core, _highs_wrapper  # what linprog runs on
            print(scflp.lp.highs_core is sys.modules["scipy.optimize._highspy._core"] is _core is _highs_wrapper._h)
            print(scflp.lp.highs_core._Highs is _core._Highs is _highs_wrapper._h._Highs)
            """
        )
        assert out.split() == ["True", "True"], (first, second)


def test_linprog_solves_after_scflp_loaded_the_binding():
    out = _run(
        """
        import numpy as np
        import scflp
        from scflp.lp import LpModel, lp_solve
        model = LpModel([1.0, 2.0], [0.0, 0.0], [4.0, 4.0])
        model.add_row({0: 1.0, 1: 1.0}, "<=", 5.0)
        ours = lp_solve(model).objective
        from scipy.optimize import linprog
        ref = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[5.0], bounds=[(0, 4)] * 2, method="highs-ds")
        print(ref.status, ours, -ref.fun)
        """
    )
    assert out.split() == ["0", "9.0", "9.0"]


def test_missing_binding_names_the_directory(tmp_path):
    """A scipy without optimize/_highspy/_core* fails the import with the
    directory it searched, not with a later AttributeError."""
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    out = _run(
        f"""
        import sys
        sys.path.insert(0, {str(tmp_path)!r})
        try:
            import scflp
        except ImportError as exc:
            print(exc)
        print(sorted(k for k in sys.modules if k.startswith("scipy")))
        """
    )
    error, loaded = out.strip().splitlines()
    assert "no HiGHS binding _core" in error and str(tmp_path / "scipy" / "optimize" / "_highspy") in error
    assert loaded == "[]"
