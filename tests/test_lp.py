import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from scflp.bnc import add_cut_row, build_model
from scflp.cuts import improved_cut, submodular_cut
from scflp.lp import LpModel, lp_solve

from conftest import golden_instance
from tableau_simplex import tableau_simplex_max
from test_cuts import GOLDEN_GSF, Y_ALL


def test_single_row_cap():
    model = LpModel([1.0], [-np.inf], [np.inf], ["eta"])
    model.add_row({0: 1.0}, "<=", 1.5)
    res = lp_solve(model)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.5, abs=1e-12)


def test_golden_sf_relaxation(golden):
    model = build_model(golden, "SF")
    for size in range(4):
        for S in itertools.combinations(range(3), size):
            add_cut_row(model, golden, submodular_cut(golden, Y_ALL, S))
    res = lp_solve(model)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(25 / 18, abs=1e-9)
    np.testing.assert_allclose(res.x[1:4], [2 / 3, 2 / 3, 2 / 3], atol=1e-8)


def test_golden_gsf_relaxation_twelve_cut_subset(golden):
    model = build_model(golden, "GSF")
    for const, coefs in GOLDEN_GSF:
        coef = {0: 1.0}
        coef.update({1 + j: -c for j, c in enumerate(coefs)})
        model.add_row(coef, "<=", const)
    res = lp_solve(model)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4 / 3, abs=1e-9)
    np.testing.assert_allclose(sorted(res.x[1:4]), [0.0, 1.0, 1.0], atol=1e-8)


def test_infeasible_and_unbounded_status():
    model = LpModel([1.0, 0.0], [0.0, 0.0], [1.0, 1.0])
    model.add_row({0: 1.0, 1: 1.0}, ">=", 5.0)
    assert lp_solve(model).status == "infeasible"
    free = LpModel([1.0], [0.0], [np.inf])
    assert lp_solve(free).status == "unbounded"


def test_unbounded_or_infeasible_verdict_is_settled():
    """HiGHS may stop at "unbounded or infeasible"; the backend settles it
    by primal feasibility instead of guessing either status."""
    for rhs, expected in ((-1.0, "infeasible"), (1.0, "unbounded")):
        model = LpModel([1.0, 1.0], [-np.inf, -np.inf], [np.inf, np.inf])
        model.add_row({0: 1.0, 1: -1.0}, "<=", -1.0)
        assert lp_solve(model).status == "unbounded"
        model._highs.setOptionValue("allow_unbounded_or_infeasible", True)
        model.add_row({0: -1.0, 1: 1.0}, "<=", rhs)
        assert lp_solve(model).status == expected
        model.add_row({0: 1.0}, "<=", 5.0)
        model.add_row({1: 1.0}, "<=", 5.0)
        res = lp_solve(model)
        if expected == "infeasible":
            assert res.status == "infeasible"
        else:  # the settling solve zeroed the costs; the next solve restores them
            assert res.status == "optimal"
            assert res.objective == pytest.approx(10.0 - rhs, abs=1e-9)


def _linprog_reference(model: LpModel):
    """Status and objective of the model's current data in a fresh solve
    by scipy's linprog."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row in model.rows:
        a = np.zeros(model.ncols)
        for j, c in row.coef.items():
            a[j] = c
        if row.sense == "=":
            A_eq.append(a)
            b_eq.append(row.rhs)
        else:
            flip = -1.0 if row.sense == ">=" else 1.0
            A_ub.append(flip * a)
            b_ub.append(flip * row.rhs)
    res = linprog(
        -model.objective,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(model.lower, model.upper)),
        method="highs-ds",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, -res.fun if status == "optimal" else None


def _random_row(rng, model: LpModel, anchor: np.ndarray):
    """Random sparse row of random sense, mostly satisfied at anchor."""
    cols = rng.choice(model.ncols, size=int(rng.integers(1, model.ncols + 1)), replace=False)
    coef = {int(j): float(rng.uniform(-1.0, 1.0)) for j in cols}
    lhs = sum(c * anchor[j] for j, c in coef.items())
    sense = str(rng.choice(["<=", ">=", "="]))
    slack = float(rng.uniform(-0.05, 1.0)) if sense != "=" else float(rng.choice([0.0] * 9 + [0.5]))
    rhs = lhs - slack if sense == ">=" else lhs + slack
    model.add_row(coef, sense, rhs)


def test_warm_backend_matches_linprog_under_model_mutations():
    """Every mutation the package makes between solves -- rows appended,
    a slice of bounds fixed and restored as a branch-and-cut node does, the
    objective reassigned as the hull check does -- leaves the persistent
    model agreeing with a fresh linprog solve."""
    rng = np.random.default_rng(97)
    seen = set()

    def check(model):
        res = lp_solve(model)
        status, objective = _linprog_reference(model)
        assert res.status == status
        if status == "optimal":
            assert res.objective == pytest.approx(objective, abs=1e-9)
        seen.add(status)

    for _ in range(30):
        n = int(rng.integers(3, 9))
        lower = rng.uniform(-1.0, 0.0, size=n)
        upper = rng.uniform(0.5, 2.0, size=n)
        if rng.random() < 0.5:  # one free column
            free = rng.integers(n)
            lower[free], upper[free] = -np.inf, np.inf
        model = LpModel(rng.normal(size=n), lower, upper)
        anchor = rng.uniform(np.maximum(lower, -1.0), np.minimum(upper, 2.0))
        for _ in range(int(rng.integers(1, 5))):
            _random_row(rng, model, anchor)
        check(model)
        for _ in range(3):  # cut rounds
            for _ in range(int(rng.integers(1, 4))):
                _random_row(rng, model, anchor)
            check(model)
        saved_lower, saved_upper = model.lower.copy(), model.upper.copy()
        for j in rng.choice(n, size=2, replace=False):
            if rng.random() < 0.5:
                model.upper[j] = max(model.lower[j], 0.0)
            else:
                model.lower[j] = min(model.upper[j], 1.0)
        check(model)
        model.lower[:] = saved_lower
        model.upper[:] = saved_upper
        check(model)
        model.objective = rng.normal(size=n)
        check(model)
        _random_row(rng, model, anchor)
        check(model)
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_matches_textbook_tableau_simplex():
    """Backend and the independent full-tableau implementation agree on
    random origin-feasible LPs with up to 20 columns."""
    rng = np.random.default_rng(53)
    for k in range(40):
        n = int(rng.integers(2, 21))
        rows = int(rng.integers(1, 15))
        A = rng.normal(size=(rows, n))
        b = rng.uniform(0.2, 3.0, size=rows)
        u = rng.uniform(0.5, 2.0, size=n)
        c = rng.normal(size=n)
        model = LpModel(c, np.zeros(n), u)
        for i in range(rows):
            model.add_row({j: A[i, j] for j in range(n)}, "<=", b[i])
        res = lp_solve(model)
        assert res.status == "optimal"
        # box upper bounds enter the tableau as explicit rows
        A_full = np.vstack([A, np.eye(n)])
        b_full = np.concatenate([b, u])
        ref = tableau_simplex_max(c, A_full, b_full)
        assert ref is not None
        assert res.objective == pytest.approx(ref, abs=1e-8), f"case {k}"


def test_adding_rows_never_raises_the_objective():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        c = rng.uniform(0.1, 1.0, size=n)
        model = LpModel(c, np.zeros(n), np.ones(n))
        prev = lp_solve(model).objective
        for _ in range(6):
            coef = {j: float(rng.uniform(0.1, 1.0)) for j in range(n)}
            model.add_row(coef, "<=", float(rng.uniform(0.2, 2.0)))
            cur = lp_solve(model)
            if cur.status != "optimal":
                break
            assert cur.objective <= prev + 1e-9
            prev = cur.objective


def test_optimal_solutions_respect_residual_contract():
    golden = golden_instance()
    model = build_model(golden, "EF")
    res = lp_solve(model)
    assert res.status == "optimal"
    assert res.max_violation <= 1e-7


def test_lp_text_dump(golden):
    model = build_model(golden, "GSF")
    add_cut_row(model, golden, improved_cut(golden, Y_ALL, np.array([0, 1, 0])))
    text = model.to_lp_text()
    for section in ("Maximize", "Subject To", "Bounds", "End"):
        assert section in text
    assert " card: 1 x0 + 1 x1 + 1 x2 = 2" in text
    assert "-inf <= eta <= 3" in text
    # cut row carries 12-significant-digit coefficients
    assert "0.166666666667" in text
