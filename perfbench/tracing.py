"""Traced run: spans around scflp's layer boundaries, recorded from outside
the package.

scflp's modules import each other's functions by name, so a layer is
wrapped by replacing the binding in every calling module (for example
``scflp.bnc.lp_solve`` and ``scflp.verify.lp_solve``).  A binding that no
longer exists raises at install time, and the benchmark checks that each
hook a workload relies on fired under the expected parent span, so a rename
cannot silently zero a layer metric.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter


class TraceError(RuntimeError):
    """A binding the tracer wraps is missing or not callable."""


def _lp_note(args, res):
    return [args[0].nrows, res.status]


def _rmedian_note(args, res):
    return res[2]  # status


def _cuts_note(args, res):
    return len(res)


def _solve_note(args, rep):
    return [rep.nodes, rep.cuts]


# (binding, span name, note taken from the arguments and the result)
HOOKS = [
    ("scflp.solve", "bnc.solve", _solve_note),
    ("scflp.bnc.build_model", "bnc.build_model", None),
    ("scflp.bnc.add_cut_row", "bnc.add_cut_row", None),
    ("scflp.bnc.lp_solve", "lp.solve", _lp_note),
    ("scflp.verify.lp_solve", "lp.solve", _lp_note),
    ("scflp.bnc.separate_sf", "separation.sf", _cuts_note),
    ("scflp.bnc.separate_gsf", "separation.gsf", _cuts_note),
    ("scflp.bnc.separate_ef", "separation.ef", _cuts_note),
    ("scflp.separation.rmedian_solve", "rmedian.solve", _rmedian_note),
    ("scflp.market.rmedian_solve", "rmedian.solve", _rmedian_note),
    ("scflp.bnc.follower_best_response", "market.best_response", None),
    ("scflp.separation.gsf_separation_costs", "cuts.costs", None),
    ("scflp.separation.ef_separation_costs", "cuts.costs", None),
    ("scflp.separation.tight_ell", "cuts.tight_ell", None),
    ("scflp.bnc.tight_ell", "cuts.tight_ell", None),
    ("scflp.separation.submodular_cut", "cuts.build", None),
    ("scflp.separation.improved_cut", "cuts.build", None),
    ("scflp.separation.ef_cut", "cuts.build", None),
    ("scflp.bnc.submodular_cut", "cuts.build", None),
    ("scflp.bnc.improved_cut", "cuts.build", None),
    ("scflp.bnc.ef_cut", "cuts.build", None),
    ("scflp.verify.improved_cut", "cuts.build", None),
    ("scflp.verify.ef_cut", "cuts.build", None),
    ("scflp.verify.verify_hull", "verify.hull", None),
    ("scflp.brute_force_solve", "oracle.brute_force", None),
    ("scflp.generate_instance", "instance.generate", None),
]

# span fields
NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """Records spans [name, start, end, parent index, op id, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.fired: Counter = Counter()  # binding -> calls seen
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = None

    def install(self):
        if self._saved:
            raise TraceError("tracer is already installed")
        for binding, name, note in HOOKS:
            module_name, attr = binding.rsplit(".", 1)
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.uninstall()
                raise TraceError(f"traced binding {binding} is missing")
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(binding, name, note, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, binding, name, note, fn):
        spans, stack, fired = self.spans, self._stack, self.fired

        def traced(*args, **kwargs):
            fired[binding] += 1
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def begin(self, name: str, op=None):
        """Open a root span (an operation, or the set-up)."""
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, -1, op, None])

    def end(self):
        self.spans[self._stack.pop()][END] = perf_counter()
        self._op = None

    def seen(self) -> set[str]:
        """Bindings that fired, and "child<parent" span-name pairs."""
        out = {binding for binding, n in self.fired.items() if n}
        for s in self.spans:
            if s[PARENT] >= 0:
                out.add(f"{s[NAME]}<{self.spans[s[PARENT]][NAME]}")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "note"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# name -> unit, in report order
PER_LAYER = {
    "lp.calls": "count",
    "lp.busy_s": "s",
    "lp.ms_per_call": "ms",
    "lp.rows_mean": "rows",
    "lp.nonoptimal": "count",
    "rmedian.sep_calls": "count",
    "rmedian.sep_busy_s": "s",
    "rmedian.br_calls": "count",
    "rmedian.br_busy_s": "s",
    "rmedian.max_call_s": "s",
    "rmedian.nonoptimal": "count",
    "separation.calls": "count",
    "separation.busy_s": "s",
    "separation.self_s": "s",
    "separation.exact_frac": "ratio",
    "separation.cuts_per_call": "cuts/call",
    "cuts.costs_s": "s",
    "cuts.tight_ell_s": "s",
    "cuts.build_s": "s",
    "market.best_response_calls": "count",
    "market.best_response_s": "s",
    "bnc.nodes": "count",
    "bnc.cuts": "count",
    "bnc.self_s": "s",
    "bnc.build_model_s": "s",
    "bnc.add_cut_row_s": "s",
    "verify.calls": "count",
    "verify.self_s": "s",
    "oracle.busy_s": "s",
    "instance.generate_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list[list], passes: int, overhead_frac: float):
    """Per-layer metrics per traced pass (set-up layers: per set-up), plus
    self time per layer over all traced operations.

    A span's self time is its duration minus the durations of its direct
    children; the code is single threaded, so children never overlap.
    """
    covered = defaultdict(float)
    exact = set()  # separation spans with an r-median child
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
            if s[NAME] == "rmedian.solve":
                exact.add(s[PARENT])
    dur = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    for i, s in enumerate(spans):
        if s[OP] is None and s[NAME] not in ("oracle.brute_force", "instance.generate"):
            continue
        d = s[END] - s[START]
        dur[s[NAME]] += d
        self_time[s[NAME]] += d - covered[i]
        calls[s[NAME]] += 1

    lp = [s for s in spans if s[NAME] == "lp.solve" and s[OP] is not None]
    rm_sep, rm_br, rm_all = [], [], []
    for s in spans:
        if s[NAME] == "rmedian.solve" and s[OP] is not None:
            rm_all.append(s)
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            (rm_sep if parent.startswith("separation.") else rm_br).append(s)
    seps = [(i, s) for i, s in enumerate(spans) if s[NAME].startswith("separation.") and s[OP] is not None]
    solves = [s for s in spans if s[NAME] == "bnc.solve" and s[OP] is not None]

    def busy(group):
        return sum(s[END] - s[START] for s in group)

    def group_sum(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    n_sep = len(seps)
    out = {
        "lp.calls": len(lp) / passes,
        "lp.busy_s": busy(lp) / passes,
        "lp.ms_per_call": 1e3 * busy(lp) / len(lp) if lp else 0.0,
        "lp.rows_mean": sum(s[NOTE][0] for s in lp) / len(lp) if lp else 0.0,
        "lp.nonoptimal": sum(s[NOTE][1] != "optimal" for s in lp) / passes,
        "rmedian.sep_calls": len(rm_sep) / passes,
        "rmedian.sep_busy_s": busy(rm_sep) / passes,
        "rmedian.br_calls": len(rm_br) / passes,
        "rmedian.br_busy_s": busy(rm_br) / passes,
        "rmedian.max_call_s": max((s[END] - s[START] for s in rm_all), default=0.0),
        "rmedian.nonoptimal": sum(s[NOTE] != "optimal" for s in rm_all) / passes,
        "separation.calls": n_sep / passes,
        "separation.busy_s": group_sum("separation.", dur) / passes,
        "separation.self_s": group_sum("separation.", self_time) / passes,
        "separation.exact_frac": sum(i in exact for i, _ in seps) / n_sep if n_sep else 0.0,
        "separation.cuts_per_call": sum(s[NOTE] for _, s in seps) / n_sep if n_sep else 0.0,
        "cuts.costs_s": dur["cuts.costs"] / passes,
        "cuts.tight_ell_s": dur["cuts.tight_ell"] / passes,
        "cuts.build_s": dur["cuts.build"] / passes,
        "market.best_response_calls": calls["market.best_response"] / passes,
        "market.best_response_s": dur["market.best_response"] / passes,
        "bnc.nodes": sum(s[NOTE][0] for s in solves) / passes,
        "bnc.cuts": sum(s[NOTE][1] for s in solves) / passes,
        "bnc.self_s": self_time["bnc.solve"] / passes,
        "bnc.build_model_s": dur["bnc.build_model"] / passes,
        "bnc.add_cut_row_s": dur["bnc.add_cut_row"] / passes,
        "verify.calls": calls["verify.hull"] / passes,
        "verify.self_s": self_time["verify.hull"] / passes,
        "oracle.busy_s": dur["oracle.brute_force"],
        "instance.generate_s": dur["instance.generate"],
        "trace.overhead_frac": overhead_frac,
    }
    layers = defaultdict(float)
    for name, t in self_time.items():
        if t > 0 and name not in ("op", "oracle.brute_force", "instance.generate"):
            layers[name.split(".")[0]] += t / passes
    return out, dict(sorted(layers.items(), key=lambda kv: -kv[1]))
