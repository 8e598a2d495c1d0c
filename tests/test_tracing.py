"""The traced benchmark (perfbench/tracing.py) wraps scflp's layer
boundaries by replacing module bindings such as ``scflp.bnc.tight_ell``.
Installing its tracer here makes a change that drops or renames one of
those bindings fail the test suite, not only a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(name):
    module_name, attr = name.rsplit(".", 1)
    return getattr(importlib.import_module(module_name), attr, None)


def test_tracer_installs_every_binding_and_restores_them():
    tracing = _load_tracing()
    names = [binding for binding, *_ in tracing.HOOKS]
    before = {name: _binding(name) for name in names}
    tracer = tracing.Tracer()
    tracer.install()  # raises TraceError naming a missing binding
    try:
        assert all(_binding(name) is not before[name] for name in names)
    finally:
        tracer.uninstall()
    assert all(_binding(name) is before[name] for name in names)


@pytest.mark.parametrize("name", ["hull_probe", "desk", "ladder40", "rmedian100"])
def test_traced_workload_sees_every_expected_hook(name, monkeypatch):
    """Build each workload and run its operations under the tracer as the
    traced benchmark does (a set-up span, then one root span per
    operation): every hook the workload expects, verify_hull's calls into
    improved_cut and the set-up's generate_instance among them, must fire,
    and every result must pass the workload's own check."""
    tracing = _load_tracing()
    path = TRACING.with_name("workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin("setup")
        try:
            wl = workloads.WORKLOADS[name]()
        finally:
            tracer.end()
        for op_id, op in enumerate(wl.ops):
            tracer.begin("op", op=op_id)
            try:
                result = op.run()
            finally:
                tracer.end()
            assert op.check(result) is None, op.name
    finally:
        tracer.uninstall()
    assert wl.expected_hooks <= tracer.seen()
