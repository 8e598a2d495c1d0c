import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from scflp.bnc import add_cut_row, build_model
from scflp.cuts import ef_cut, improved_cut, submodular_cut
from scflp.lp import LpModel, highs_core, lp_solve

from conftest import golden_instance
from lp_rows import lp_rows
from tableau_simplex import tableau_simplex_max
from test_cuts import GOLDEN_GSF, Y_ALL


def test_single_row_cap():
    model = LpModel([1.0], [-np.inf], [np.inf])
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
    """Free columns that leave a warm-started LP infeasible or unbounded:
    HiGHS decides which one itself, and once the columns are bounded the
    next solve is optimal on the model's costs."""
    for rhs, expected in ((-1.0, "infeasible"), (1.0, "unbounded")):
        model = LpModel([1.0, 1.0], [-np.inf, -np.inf], [np.inf, np.inf])
        model.add_row({0: 1.0, 1: -1.0}, "<=", -1.0)
        assert lp_solve(model).status == "unbounded"
        model.add_row({0: -1.0, 1: 1.0}, "<=", rhs)
        assert lp_solve(model).status == expected
        model.add_row({0: 1.0}, "<=", 5.0)
        model.add_row({1: 1.0}, "<=", 5.0)
        res = lp_solve(model)
        if expected == "infeasible":
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(10.0 - rhs, abs=1e-9)


def _linprog_reference(model: LpModel):
    """Status and objective of the model's current data in a fresh solve
    by scipy's linprog."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row in lp_rows(model):
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


def test_gsf_model_rows_and_bounds(golden):
    """The cardinality row, eta's bounds and a cut row, read back from the
    model's numbers."""
    model = build_model(golden, "GSF")
    add_cut_row(model, golden, improved_cut(golden, Y_ALL, np.array([0, 1, 0])))
    card, cut = lp_rows(model)
    assert (card.coef, card.sense, card.rhs) == ({1: 1.0, 2: 1.0, 3: 1.0}, "=", 2.0)
    assert (model.lower[0], model.upper[0]) == (-np.inf, 3.0)
    assert cut.sense == "<=" and cut.rhs == pytest.approx(1.0, rel=1e-12)
    assert cut.coef == pytest.approx({0: 1.0, 1: -1 / 6, 2: -1 / 6, 3: -1 / 6}, rel=1e-12)


def _row_records(model: LpModel):
    """Rows with their coefficients in stored order (LpRow equality would
    ignore the order of a dict)."""
    return [(r.sense, r.rhs, list(r.coef.items())) for r in lp_rows(model)]


def test_add_rows_matches_add_row_loop():
    """Bulk appends, one per run of rows of one sense, and a loop of
    single-row appends build the same model: rows and every solve bit for
    bit.  The rows include an empty row, explicit zeros and all three
    senses, and 300 rows grow the store through several capacity
    doublings."""
    rng = np.random.default_rng(71)
    n = 6
    objective = rng.normal(size=n)
    lower, upper = -np.ones(n), 2.0 * np.ones(n)
    anchor = rng.uniform(-0.5, 1.0, size=n)
    indptr, index, value, senses, rhs = [0], [], [], [], []
    for t in range(300):
        size = 0 if t == 5 else int(rng.integers(1, n + 1))
        cols = rng.choice(n, size=size, replace=False)
        coefs = rng.uniform(-1.0, 1.0, size=size)
        coefs[rng.random(size) < 0.2] = 0.0  # explicit zeros
        sense = ("<=", ">=", "=")[(t // 10) % 3]  # runs of ten rows of one sense
        lhs = float(coefs @ anchor[cols])
        index += cols.tolist()
        value += coefs.tolist()
        indptr.append(len(index))
        senses.append(sense)
        rhs.append(lhs if sense == "=" else lhs + (0.5 if sense == "<=" else -0.5))

    looped = LpModel(objective, lower, upper)
    bulk = LpModel(objective, lower, upper)
    for step in (37, 300):  # two batches, each followed by a solve
        first = looped.nrows
        for t in range(first, step):
            s, e = indptr[t], indptr[t + 1]
            looped.add_row(dict(zip(index[s:e], value[s:e])), senses[t], rhs[t])
        for sense, run in itertools.groupby(range(first, step), key=senses.__getitem__):
            run = list(run)
            lo, hi = run[0], run[-1] + 1
            base = indptr[lo]
            assert bulk.add_rows(
                np.asarray(indptr[lo : hi + 1]) - base,
                index[base : indptr[hi]],
                value[base : indptr[hi]],
                sense,
                rhs[lo:hi],
            ) == lo
        assert bulk.nrows == looped.nrows == step
        assert _row_records(bulk) == _row_records(looped)
        a, b = lp_solve(looped), lp_solve(bulk)
        assert a.status == b.status == "optimal"
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.x, b.x)
    assert lp_rows(bulk)[5].coef == {}
    assert all(c != 0.0 for row in lp_rows(bulk) for c in row.coef.values())


def test_add_rows_validates_like_add_row():
    model = LpModel([1.0, 0.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="bad row sense"):
        model.add_rows((0, 1, 2), (0, 1), (1.0, 1.0), "=<", 1.0)
    with pytest.raises(ValueError, match="invalid column 2"):
        model.add_rows((0, 1, 2), (0, 2), (1.0, 1.0), "<=", 1.0)
    with pytest.raises(ValueError, match="invalid column -1"):
        model.add_row({-1: 1.0}, "<=", 1.0)
    with pytest.raises(ValueError, match="malformed"):
        model.add_rows((0, 3), (0, 1), (1.0, 1.0), "<=", 1.0)
    with pytest.raises(ValueError, match="3 right-hand sides for 2 rows"):
        model.add_rows((0, 1, 2), (0, 1), (1.0, 1.0), "<=", (1.0, 1.0, 1.0))
    model.add_row({0: 1.0, 7: 0.0}, "<=", 1.0)  # a zero on a bad column is dropped, as before
    assert model.nrows == 1 and lp_rows(model)[0].coef == {0: 1.0}


def test_sense_is_one_string_per_call():
    """add_rows takes one sense for all its rows; a sequence of senses is
    refused and leaves the model unchanged."""
    model = LpModel([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    for sense in (["<=", "<="], ("<=", ">="), ["<="], np.array(["<=", "<="])):
        with pytest.raises(ValueError, match="bad row sense"):
            model.add_rows((0, 1, 2), (0, 1), (1.0, 1.0), sense, 1.0)
    assert model.nrows == 0


def test_non_finite_row_data_rejected_at_append():
    """A NaN coefficient used to pass HiGHS and come back "optimal" with a
    nan residual; non-finite data is now refused when the row is added,
    with the offending row named."""
    model = LpModel([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    model.add_row({0: 1.0}, "<=", 1.0)
    for coef, rhs in (({0: 1.0, 1: np.nan}, 1.0), ({1: np.inf}, 1.0), ({0: 1.0}, np.nan), ({0: 1.0}, -np.inf)):
        with pytest.raises(ValueError, match=r"row 1 has a non-finite"):
            model.add_row(coef, "<=", rhs)
    with pytest.raises(ValueError, match=r"row 3 has a non-finite coefficient"):
        model.add_rows((0, 1, 2, 3), (0, 1, 0), (1.0, 1.0, -np.inf), "<=", 1.0)
    assert model.nrows == 1
    res = lp_solve(model)
    assert res.status == "optimal" and res.objective == pytest.approx(2.0, abs=1e-12)


def test_highs_never_answers_unbounded_or_infeasible():
    """lp_solve maps HiGHS's verdicts optimal, infeasible and unbounded and
    reports any other as not optimal; the option that lets HiGHS answer
    "unbounded or infeasible" instead stays off."""
    model = LpModel([1.0], [0.0], [1.0])
    assert lp_solve(model).status == "optimal"
    assert model._highs.getOptionValue("allow_unbounded_or_infeasible") == (highs_core.HighsStatus.kOk, False)


def test_non_finite_objective_refused_at_solve():
    """A nan or infinite cost used to be solved as "optimal" with objective
    nan or inf.  The solve raises, naming the first non-finite column, and
    solves normally once the objective is finite again."""
    for bad in (np.nan, np.inf, -np.inf):
        model = LpModel([bad, 1.0], [0.0, 0.0], [1.0, 1.0])
        model.add_row({0: 1.0, 1: 1.0}, "<=", 1.0)
        with pytest.raises(ValueError, match="column 0 has a non-finite objective"):
            lp_solve(model)
        model.objective[0] = 2.0
        res = lp_solve(model)
        assert res.status == "optimal" and res.objective == pytest.approx(2.0, abs=1e-12)
        model.objective[1] = bad  # changed in place between warm solves
        with pytest.raises(ValueError, match="column 1 has a non-finite objective"):
            lp_solve(model)
        model.objective[1] = 3.0
        res = lp_solve(model)
        assert res.status == "optimal" and res.objective == pytest.approx(3.0, abs=1e-12)


def test_model_keeps_its_own_objective():
    """Changing the caller's objective array afterwards does not change
    what the model solves."""
    obj = np.array([1.0, 2.0])
    model = LpModel(obj, [0.0, 0.0], [1.0, 1.0])
    model.add_row({0: 1.0, 1: 1.0}, "<=", 1.0)
    obj[0] = 5.0
    assert lp_solve(model).objective == pytest.approx(2.0, abs=1e-12)


def test_repeated_column_rejected_at_append():
    """A row naming one column twice used to be accepted, and then every
    later solve of the model failed in HiGHS's addRows.  It is refused at
    append time, naming the row, and the model stays as it was."""
    model = LpModel([1.0, 1.0, 1.0], [0.0] * 3, [1.0] * 3)
    model.add_row({0: 1.0, 1: 1.0}, "<=", 1.5)
    with pytest.raises(ValueError, match=r"row 1 repeats column 0"):
        model.add_rows((0, 3), (0, 1, 0), (1.0, 1.0, 1.0), "<=", 1.0)
    with pytest.raises(ValueError, match=r"row 2 repeats column 2"):
        model.add_rows((0, 2, 5), (0, 1, 2, 1, 2), (1.0,) * 5, "<=", 1.0)
    assert model.nrows == 1 and lp_rows(model)[0].coef == {0: 1.0, 1: 1.0}
    # a repeat whose coefficient is zero is dropped before the check
    model.add_rows((0, 3), (2, 0, 2), (1.0, 1.0, 0.0), "<=", 2.0)
    assert lp_rows(model)[1].coef == {2: 1.0, 0: 1.0}
    res = lp_solve(model)
    assert res.status == "optimal" and res.objective == pytest.approx(2.5, abs=1e-12)
    ref = linprog(-model.objective, A_ub=[[1, 1, 0], [1, 0, 1]], b_ub=[1.5, 2.0], bounds=[(0, 1)] * 3, method="highs-ds")
    assert res.objective == pytest.approx(-ref.fun, abs=1e-12)


def test_repeat_check_sees_falls_inside_rows_only():
    """Columns that fall back at a row start (as the EF linking rows and
    eta-first cut rows do) are no repeat; a fall inside a row is checked by
    sorting, with empty rows anywhere in the block."""
    model = LpModel([1.0] * 4, [0.0] * 4, [1.0] * 4)
    # rows (3, 0), (), (2, 1), (3, 0, 2), () -- every fall is at a row start or inside a row without a repeat
    model.add_rows((0, 2, 2, 4, 7, 7), (3, 0, 2, 1, 3, 0, 2), (1.0,) * 7, "<=", 2.0)
    assert [row.coef for row in lp_rows(model)] == [{3: 1.0, 0: 1.0}, {}, {2: 1.0, 1: 1.0}, {3: 1.0, 0: 1.0, 2: 1.0}, {}]
    for indptr, index in (((0, 0, 3), (2, 1, 2)), ((0, 2, 5, 5), (3, 0, 1, 3, 1)), ((0, 2, 2, 4), (2, 3, 0, 0))):
        with pytest.raises(ValueError, match="repeats column"):
            model.add_rows(indptr, index, (1.0,) * len(index), "<=", 1.0)
    assert model.nrows == 5
    res = lp_solve(model)
    assert res.status == "optimal" and res.objective == pytest.approx(3.0, abs=1e-12)


def test_nan_residual_is_never_optimal():
    """The residual gate fails unless the violation is at most the
    tolerance, so a nan residual cannot pass as optimal."""
    model = LpModel([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    model.add_row({0: 1.0, 1: 1.0}, "<=", 1.5)
    assert lp_solve(model).status == "optimal"
    model._value[1] = np.nan  # the model's own copy only; HiGHS keeps 1.0
    res = lp_solve(model)
    assert res.status == "iteration_limit"
    assert res.message == "residuals above tolerance"
    assert math.isnan(res.max_violation)


def test_residual_gate_is_independent_of_highs():
    """Loosening a row inside HiGHS only leaves the model's arrays, and
    with them the residual check, unchanged: the solve is refused."""
    model = LpModel([1.0, 1.0], [0.0, 0.0], [10.0, 10.0])
    model.add_row({0: 1.0, 1: 1.0}, "<=", 1.0)
    model.add_row({0: 1.0}, ">=", 0.25)
    res = lp_solve(model)
    assert res.status == "optimal" and res.objective == pytest.approx(1.0, abs=1e-12)
    model._highs.changeRowBounds(0, -np.inf, 5.0)
    res = lp_solve(model)
    assert res.status == "iteration_limit"
    assert res.message == "residuals above tolerance"
    assert res.max_violation == pytest.approx(4.0, abs=1e-9)
    assert lp_rows(model)[0].rhs == 1.0


def _dict_cut_row(inst, cut) -> dict:
    """The cut row as a {column: coefficient} dict, built cell by cell."""
    coef = {0: 1.0}
    if cut.kind == "EF":
        for i in range(inst.m):
            for j in range(inst.n):
                if cut.zcoef[i, j] != 0.0:
                    coef[1 + inst.n + i * inst.n + j] = -cut.zcoef[i, j]
    else:
        for j in range(inst.n):
            if cut.xcoef[j] != 0.0:
                coef[1 + j] = -cut.xcoef[j]
    return coef


def test_add_cut_row_matches_dict_reference(golden):
    cuts = [
        ("SF", submodular_cut(golden, Y_ALL, [1])),
        ("SF", submodular_cut(golden, [1, 0, 1], [])),
        ("GSF", improved_cut(golden, Y_ALL, np.array([0, 1, 3]))),
        ("GSF", improved_cut(golden, [0, 1, 1], np.array([2, 2, 0]))),
        ("EF", ef_cut(golden, Y_ALL)),
        ("EF", ef_cut(golden, [1, 0, 0])),
    ]
    for form, cut in cuts:
        model = build_model(golden, form)
        k = add_cut_row(model, golden, cut)
        assert k == model.nrows - 1
        row = lp_rows(model)[k]
        expected = _dict_cut_row(golden, cut)
        assert list(row.coef) == list(expected)
        assert list(row.coef.values()) == list(expected.values())
        assert (row.sense, row.rhs) == ("<=", cut.constant)


def test_bound_fix_and_restore_solves_like_a_fresh_model():
    """A bound fixed and restored, a bound changed and restored between
    solves, and a new objective each solve like a fresh model."""
    rng = np.random.default_rng(101)
    model = LpModel(rng.normal(size=5), np.zeros(5), np.ones(5))
    model.add_row(dict(enumerate(rng.uniform(0.5, 1.0, size=5))), "<=", 2.0)

    def solve_like_linprog():
        res = lp_solve(model)
        assert (res.status, res.objective) == pytest.approx(_linprog_reference(model), abs=1e-9)

    solve_like_linprog()
    model.upper[2] = 0.0  # a branch fixes a column ...
    solve_like_linprog()
    model.upper[2] = 1.0  # ... and its sibling restores it
    solve_like_linprog()
    model.lower[1] = 1.0
    model.lower[1] = 0.0
    model.add_row({0: 1.0, 3: 1.0}, ">=", 0.5)
    solve_like_linprog()
    model.objective = rng.normal(size=5)
    solve_like_linprog()


def test_normal_solve_after_an_unbounded_or_infeasible_verdict():
    """An LP that is infeasible with unbounded free columns: HiGHS decides
    "infeasible" itself, and the next solve, with the bounds changed and
    the objective not, runs on the model's costs."""
    model = LpModel([1.0, 2.0, 0.0], [-np.inf, -np.inf, 0.0], [np.inf, np.inf, 1.0])
    model.add_row({0: 1.0, 1: -1.0}, "<=", -1.0)
    assert lp_solve(model).status == "unbounded"
    model.add_row({2: 1.0}, ">=", 2.0)  # x2 <= 1: infeasible, and x0, x1 unbounded
    assert lp_solve(model).status == "infeasible"
    model.lower[:] = (-3.0, -3.0, 0.0)
    model.upper[:] = (3.0, 5.0, 4.0)
    res = lp_solve(model)
    assert (res.status, res.objective) == pytest.approx(_linprog_reference(model), abs=1e-9)


def test_set_basis_rejects_bad_data_and_leaves_the_model_unchanged():
    """Wrong lengths, unknown codes and a basic count other than the row
    count are refused; the model keeps its rows and solves as before."""
    model = LpModel([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    model.add_row({0: 1.0, 1: 1.0}, "<=", 1.5)
    for col, row, match in (
        ((1, 0, 0), (2,), "basis of 3 columns and 1 rows"),
        ((1, 0), (), "basis of 2 columns and 0 rows"),
        ((1, 3), (2,), "status codes"),
        ((-1, 0), (1,), "status codes"),
        ((0, 0.5), (1,), "status codes"),
        ((1, 1), (1,), "3 basic entries for 1 rows"),
        ((0, 2), (2,), "0 basic entries for 1 rows"),
    ):
        with pytest.raises(ValueError, match=match):
            model.set_basis(col, row)
    assert model._basis is None and model.nrows == 1
    res = lp_solve(model)
    assert res.status == "optimal" and res.objective == pytest.approx(1.5, abs=1e-12)


def test_set_basis_with_rows_appended_later_solves_like_a_fresh_model():
    """A set basis covers the rows present at the call; rows appended after
    it start basic.  The solves that follow, with bounds and objective
    changed in between, agree with linprog."""
    rng = np.random.default_rng(103)
    model = LpModel(rng.normal(size=5), np.zeros(5), np.ones(5))
    model.add_row(dict(enumerate(rng.uniform(0.5, 1.0, size=5))), "<=", 2.0)
    model.set_basis((1, 2, 0, 2, 0), (2,))
    model.add_row({0: 1.0, 3: 1.0}, ">=", 0.5)
    model.add_row({1: 1.0, 2: -1.0, 4: 1.0}, "<=", 0.8)
    basis = model._sync().getBasis()
    assert [int(s) for s in basis.col_status] == [1, 2, 0, 2, 0]
    assert [int(s) for s in basis.row_status] == [2, 1, 1]

    def solve_like_linprog():
        res = lp_solve(model)
        assert (res.status, res.objective) == pytest.approx(_linprog_reference(model), abs=1e-9)

    solve_like_linprog()
    model.upper[2] = 0.0
    solve_like_linprog()
    model.upper[2] = 1.0
    model.set_basis((1, 1, 0, 0, 2), (0, 1, 2))  # a basis set between solves
    model.add_row({2: 1.0, 4: 1.0}, "<=", 1.2)
    solve_like_linprog()
    model.objective = rng.normal(size=5)
    solve_like_linprog()


def test_model_refuses_bounds_of_another_length():
    for lower, upper in (([0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="bound arrays must match the objective length"):
            LpModel([1.0, 0.0], lower, upper)
