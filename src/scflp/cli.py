"""Command-line front end: generate, solve, oracle, verify, bench.

Exit codes: 0 success, 1 a solve finished on a limit or a ``verify`` check
reported FAIL, 2 usage errors, invalid option values, unreadable inputs,
unwritable outputs or instances beyond a command's enumeration cap.
All numeric output uses fixed formats so repeated runs with identical seeds
and limits produce identical result columns.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from .bnc import CSV_HEADER, FORMULATIONS, BncConfig, solve
from .instance import GeneratorParams, InstanceError, generate_instance, load_instance, save_instance
from .oracle import brute_force_solve
from .rmedian import CapExceededError
from .verify import verify_aggregation, verify_hull, verify_prop61

USAGE_ERROR = 2
LIMIT_EXIT = 1


def _usage_error(message: str) -> int:
    """One error line on stderr; returns exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _refuse(message: str) -> NoReturn:
    """One error line on stderr, then exit code 2."""
    raise SystemExit(_usage_error(message))


def _read_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_instance(fh)
    except OSError as exc:
        _refuse(f"cannot read {path}: {exc}")
    except InstanceError as exc:
        _refuse(f"{path}: {exc}")


def _open_out(path: str | None):
    """A text stream for path (stdout when None), opened before any work and
    emptied only by ``_replace``; exits 2 with one error line if unwritable."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "a", encoding="utf-8")
    except OSError as exc:
        _refuse(f"cannot write {path}: {exc}")


def _replace(out, text: str) -> None:
    """Write text as out's whole content; stdout, pipes and devices are only written to."""
    if out is not sys.stdout and os.path.isfile(out.name):
        out.truncate(0)
    out.write(text)


def _config(form: str, args) -> BncConfig:
    """The solver settings of one formulation, checked before any work."""
    try:
        return BncConfig(formulation=form, time_limit=args.time_limit, gap_tol=args.gap)
    except ValueError as exc:
        _refuse(str(exc))


def _write_text(path: str | None, text: str):
    with _open_out(path) as fh:
        _replace(fh, text)


def _int_list(value: str) -> list[int]:
    try:
        return [int(tok) for tok in value.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {value!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scflp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random instance")
    gen.add_argument("--style", choices=("biesinger", "qi"), default="biesinger")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--r", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)

    so = sub.add_parser("solve", help="branch-and-cut solve of one instance")
    so.add_argument("--in", dest="path", required=True)
    so.add_argument("--form", choices=FORMULATIONS, default="GSF")
    so.add_argument("--time-limit", type=float, default=7200.0)
    so.add_argument("--gap", type=float, default=0.0)
    so.add_argument("--out", default=None)
    so.add_argument("--events", default=None, help="JSON-lines event log path")

    orc = sub.add_parser("oracle", help="brute-force bilevel enumeration")
    orc.add_argument("--in", dest="path", required=True)
    orc.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="structural checks on one instance")
    ver.add_argument("--in", dest="path", required=True)
    ver.add_argument("--checks", default="hull,prop61,aggregation")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=int, default=50)
    ver.add_argument("--out", default=None)

    be = sub.add_parser("bench", help="benchmark campaign with CSV output")
    be.add_argument("--in", dest="path", default=None, help="solve one instance file instead of generating")
    be.add_argument("--style", choices=("biesinger", "qi"), default="biesinger")
    be.add_argument("--m", type=int, default=40)
    be.add_argument("--n", type=int, default=40)
    be.add_argument("--p", type=_int_list, default=[2, 3])
    be.add_argument("--r", type=_int_list, default=[2, 3])
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--form", default="SF,GSF,EF", help="comma list of formulations")
    be.add_argument("--time-limit", type=float, default=7200.0)
    be.add_argument("--gap", type=float, default=0.0)
    be.add_argument("--workers", type=int, default=1)
    be.add_argument("--out", required=True)
    return ap


def _cmd_generate(args) -> int:
    params = GeneratorParams(style=args.style, m=args.m, n=args.n, p=args.p, r=args.r, seed=args.seed)
    _write_text(args.out, save_instance(generate_instance(params)))
    return 0


def _cmd_solve(args) -> int:
    cfg = _config(args.form, args)
    inst = _read_instance(args.path)
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(_open_out(args.out))
        events = stack.enter_context(_open_out(args.events)) if args.events else None
        if events is not None:
            _replace(events, "")  # the search appends to it as it runs
        report = solve(inst, cfg, events=events)
        _replace(out, _solve_text(report, Path(args.path).name))
    return 0 if report.status == "optimal" else LIMIT_EXIT


def _solve_text(report, label: str) -> str:
    lines = [
        f"O={report.objective:.6f}",
        f"status={report.status}",
        f"bound={report.upper_bound:.6f}",
        f"gap_pct={report.gap_pct:.4f}",
        f"nodes={report.nodes}",
        f"cuts={report.cuts}",
        f"x={''.join(str(int(b)) for b in report.best_x)}" if report.best_x is not None else "x=",
    ]
    return "\n".join(lines) + "\n" + CSV_HEADER + "\n" + report.csv_row(label) + "\n"


def _cmd_oracle(args) -> int:
    inst = _read_instance(args.path)
    with _open_out(args.out) as out:
        report = brute_force_solve(inst)
        lines = [f"value={report.value:.6f}", f"optima={len(report.optimal_x)}"]
        lines += ["x=" + "".join(str(int(b)) for b in x) for x in report.optimal_x]
        _replace(out, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    inst = _read_instance(args.path)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = set(checks) - {"hull", "prop61", "aggregation"}
    if unknown or not checks:
        return _usage_error(f"bad check list {args.checks!r}")
    if args.trials < 1:
        return _usage_error(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        return _usage_error(f"--seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    lines = []
    ok = True
    with _open_out(args.out) as out:
        for check in checks:
            if check == "hull":
                y = np.zeros(inst.n, dtype=np.int8)
                y[rng.choice(inst.n, size=inst.r, replace=False)] = 1
                rep = verify_hull(inst, y, trials=args.trials, seed=args.seed)
                good = rep.max_discrepancy < 1e-7
                lines.append(f"hull: {'pass' if good else 'FAIL'} max_discrepancy={rep.max_discrepancy:.3e}")
            elif check == "prop61":
                worst = 0.0
                for _ in range(args.trials):
                    x = rng.uniform(0.0, 1.0, size=inst.n)
                    y = np.zeros(inst.n, dtype=np.int8)
                    y[rng.choice(inst.n, size=inst.r, replace=False)] = 1
                    worst = max(worst, verify_prop61(inst, x, y))
                good = worst < 1e-10
                lines.append(f"prop61: {'pass' if good else 'FAIL'} max_discrepancy={worst:.3e}")
            else:
                rep = verify_aggregation(inst, trials=min(args.trials, 5), seed=args.seed)
                gap = abs(rep.shared_value - rep.disaggregated_value)
                good = gap < 1e-7 and rep.max_greedy_gap < 1e-7 and rep.max_dual_gap < 1e-9
                lines.append(
                    "aggregation: "
                    f"{'pass' if good else 'FAIL'} lp_gap={gap:.3e} "
                    f"greedy_gap={rep.max_greedy_gap:.3e} dual_gap={rep.max_dual_gap:.3e}"
                )
            ok = ok and good
        _replace(out, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    forms = [f.strip() for f in args.form.split(",") if f.strip()]
    for flag, values in (("--form", forms), ("--p", args.p), ("--r", args.r)):
        if not values:
            _refuse(f"{flag} needs at least one value")
    if args.workers < 1:
        _refuse(f"--workers must be at least 1, got {args.workers}")
    configs = [_config(form, args) for form in forms]

    # (label, instance, settings); workers get the Instance itself (it
    # pickles), so each solves exactly the instance its label names
    tasks = []
    if args.path:
        inst = _read_instance(args.path)
        tasks += [(Path(args.path).name, inst, cfg) for cfg in configs]
    else:
        idx = 0
        for p in args.p:
            for r in args.r:
                params = GeneratorParams(style=args.style, m=args.m, n=args.n, p=p, r=r, seed=args.seed + idx)
                inst = generate_instance(params)
                label = f"{args.style}_m{args.m}_n{args.n}_p{p}_r{r}_s{args.seed + idx}"
                tasks += [(label, inst, cfg) for cfg in configs]
                idx += 1

    labels, insts, cfgs = zip(*tasks)
    workers = min(args.workers, len(tasks))  # the pool forks all its workers at the first task
    with _open_out(args.out) as csv:
        if workers > 1:
            # imported here: multiprocessing would add ~15 ms to every CLI start
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(solve, insts, cfgs))
        else:
            reports = list(map(solve, insts, cfgs))
        _replace(csv, "\n".join([CSV_HEADER] + [rep.csv_row(label) for rep, label in zip(reports, labels)]) + "\n")

    # two-column performance profile per formulation: time, solved fraction
    per_form: dict[str, list[float]] = {f: [] for f in forms}
    counts: dict[str, int] = {f: 0 for f in forms}
    for rep in reports:
        counts[rep.formulation] += 1
        if rep.status == "optimal":
            per_form[rep.formulation].append(rep.total_time_s)
    out = Path(args.out)
    for form in forms:
        times = sorted(per_form[form])
        lines = [f"{t:.3f} {float(k) / counts[form]:.4f}" for k, t in enumerate(times, start=1)]
        profile = out.with_name(out.stem + f"_profile_{form}.dat")
        _write_text(str(profile), "\n".join(lines) + ("\n" if lines else ""))

    limited = any(rep.status != "optimal" for rep in reports)
    return LIMIT_EXIT if limited else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (CapExceededError, InstanceError) as exc:
        _refuse(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
