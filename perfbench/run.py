"""scflp benchmark: time to a proven optimum, one workload per process.

Each workload runs in a fresh single-threaded process as a closed loop: one
caller, and the next operation starts only after the previous one returns.
A run repeats whole passes over the workload's operations (each pass in an
order drawn from ``--seed``) while another pass still fits in ``--seconds``,
then checks every result against the workload's gate.  In an untraced run a
host-speed probe (calibrate.py) samples the shared host's speed on a timer,
and the gated times are rescaled to a reference host speed.

    python3 perfbench/run.py --workload ladder40 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported, here or in a child
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("ladder40", "rmedian100", "desk", "hull_probe")
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
CHILD_TIMEOUT_S = 170

# end-to-end metrics in the result line, on every workload: name -> unit
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The package or the benchmark's data cannot be loaded."""


def import_scflp():
    """Import scflp from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import scflp
    except ImportError as exc:
        raise SetupError(f"cannot import scflp from {src}: {exc}") from None
    if Path(scflp.__file__).resolve().parent != src / "scflp":
        raise SetupError(f"scflp was imported from {scflp.__file__}, not from {src}")
    return scflp


def build_workload(name: str, tracer=None):
    """Set-up: instance generation and reference values (import is timed by
    the caller)."""
    import workloads

    if tracer is None:
        return workloads.WORKLOADS[name]()
    tracer.begin("setup")
    try:
        return workloads.WORKLOADS[name]()
    finally:
        tracer.end()


def child_setup_s(name: str) -> float:
    """One set-up in a fresh interpreter, so the import is paid again."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--setup-only"],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(out.stdout.split()[-1])


@dataclass
class Sample:
    op: int
    traced: bool
    seconds: float
    cpu_seconds: float
    start: float  # perf_counter() at the call and at its return
    end: float
    result: object
    error: str | None  # exception text from the call, or the gate's verdict
    ref_seconds: float | None = None  # seconds at the reference host speed (untraced runs)


def timed(op, index: int, traced: bool, tracer, op_id: int, probe) -> Sample:
    """One call, timed, less the probe's time inside it; the hooks are in
    place only around a traced call."""
    if traced:
        tracer.install()
        tracer.begin("op", op=op_id)
    k0 = len(probe.spans) if probe is not None else 0
    t0, c0 = perf_counter(), process_time()
    try:
        result, error = op.run(), None
    except Exception:
        result, error = None, traceback.format_exc()
    t1, dc = perf_counter(), process_time() - c0
    dt = t1 - t0
    if probe is not None:
        for start, wall, cpu in probe.spans[k0:]:
            if t0 <= start and start + wall <= t1:
                dt -= wall
                dc -= cpu
    if traced:
        tracer.end()
        tracer.uninstall()
    return Sample(index, traced, dt, dc, t0, t1, result, error)


def measure(ops, seconds: float, seed: int, tracer=None, probe=None):
    """Closed loop over whole passes.  With a tracer, each operation runs
    twice in a row, untraced and traced, which one first alternating from
    call to call, so that the overhead is measured close in time."""
    rng = random.Random(seed)
    samples: list[Sample] = []
    pass_times: list[float] = []
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        for i in rng.sample(range(len(ops)), len(ops)):
            if tracer is None:
                modes = (False,)
            else:
                modes = (False, True) if len(samples) % 4 == 0 else (True, False)
            for traced in modes:
                samples.append(timed(ops[i], i, traced, tracer, len(samples), probe))
        pass_times.append(perf_counter() - t_pass)
        if perf_counter() - start + statistics.fmean(pass_times) > seconds:
            return samples, pass_times


def gate(ops, samples):
    """Run every result through its operation's check (outside the timed
    region); a check that raises counts as failed."""
    for s in samples:
        if s.error is None:
            try:
                s.error = ops[s.op].check(s.result)
            except Exception:
                s.error = traceback.format_exc()


def per_op_medians(ops, samples, traced: bool, clock: str) -> list[float]:
    times = [[] for _ in ops]
    for s in samples:
        if s.traced == traced:
            times[s.op].append(getattr(s, clock))
    return [statistics.median(t) for t in times]


def tail(times: list[float]):
    """Highest whole percentile (>= 50) with at least 10 samples beyond it,
    by nearest rank; None when there are too few samples."""
    xs = sorted(times)
    n = len(xs)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, xs[rank - 1], n
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, wl):
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "scflp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instance_seeds": wl.instance_seeds,
    }


def run_one(args) -> int:
    t0 = perf_counter()
    import_scflp()
    import calibrate
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        wl = build_workload(args.workload, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setups = [perf_counter() - t0]
    if not args.trace:
        setups += [child_setup_s(args.workload) for _ in range(SETUP_REPEATS - 1)]

    # the probe's handler would count inside the spans, so traced runs go without
    probe = None if args.trace else calibrate.HostProbe()
    if probe is not None:
        probe.start()
    try:
        samples, pass_times = measure(wl.ops, args.seconds, args.seed, tracer, probe)
    finally:
        if probe is not None:
            probe.stop()
    gate(wl.ops, samples)
    failed = [s for s in samples if s.error is not None]
    for s in failed[:5]:
        print(f"FAILED {wl.ops[s.op].name}: {s.error.strip()}", file=sys.stderr)

    plain = [s.seconds for s in samples if not s.traced]
    medians = per_op_medians(wl.ops, samples, traced=False, clock="seconds")
    report = {}
    if probe is not None:
        for s in samples:
            s.ref_seconds = s.seconds / probe.factor(s.start, s.end)
        ref = [s.ref_seconds for s in samples if not s.traced]
        ref_medians = per_op_medians(wl.ops, samples, traced=False, clock="ref_seconds")
        report["wall_ref_s"] = (sum(ref_medians), "s")
        report["op_p50_ref_s"] = (statistics.median(ref), "s")
        for form in ("SF", "GSF", "EF"):
            group = [t for op, t in zip(wl.ops, ref_medians) if op.group == form]
            if group:
                report[f"wall_{form.lower()}_ref_s"] = (sum(group), "s")
        tail_stat = tail(ref)
        if tail_stat is not None:
            pct, value, n = tail_stat
            report["op_tail_ref_s"] = (value, f"s (p{pct}, n={n})")
        report["host_factor"] = (probe.factor(), "ratio")
    report["wall_s"] = (sum(medians), "s")
    report["cpu_s"] = (sum(per_op_medians(wl.ops, samples, traced=False, clock="cpu_seconds")), "s")
    report["op_p50_s"] = (statistics.median(plain), "s")
    report["fail_frac"] = (len(failed) / len(samples), "ratio")
    report["setup_s"] = (statistics.median(setups), "s")
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    correct = not failed
    print(f"workload {wl.name}: seed {args.seed}, {len(pass_times)} passes of {len(wl.ops)} operations, "
          f"{len(samples)} attempted, {len(failed)} failed")
    print(f"  pass times (s): {', '.join(f'{t:.3f}' for t in pass_times)}"
          + (f"; {len(probe.spans)} probe tasks" if probe is not None else ""))
    for name, (value, unit) in report.items():
        print(f"  {name:<14} {value:.6g} {unit}")

    layers = None
    if tracer is not None:
        traced_wall = sum(per_op_medians(wl.ops, samples, traced=True, clock="seconds"))
        layers, by_layer = tracing.layer_metrics(tracer.spans, len(pass_times), traced_wall / sum(medians) - 1.0)
        print(f"  traced run: {len(pass_times)} traced passes; per-layer metrics per pass")
        for name, unit in tracing.PER_LAYER.items():
            print(f"  {name:<27} {layers[name]:.6g} {unit}")
        total = sum(by_layer.values())
        print("  self time by layer (s per pass, share): "
              + ", ".join(f"{k} {v:.3f} ({v / total:.0%})" for k, v in by_layer.items()))
        missing = sorted(wl.expected_hooks - tracer.seen())
        if missing:
            print(f"TRACE ERROR: expected hooks never fired on {wl.name}: {', '.join(missing)}", file=sys.stderr)
            correct = False

    env = environment(args, wl)
    print("env " + json.dumps(env))
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(
            {
                "env": env,
                "correct": correct,
                "attempted": len(samples),
                "failed": len(failed),
                "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
                "per_layer": layers,
                "pass_times_s": pass_times,
                "op_median_s": {op.name: t for op, t in zip(wl.ops, medians)},
                "probe_spans": probe.spans if probe is not None else None,
                "samples": [[wl.ops[s.op].name, s.traced, s.seconds, s.cpu_seconds, s.ref_seconds] for s in samples],
                "failures": [{"op": wl.ops[s.op].name, "error": s.error} for s in failed],
            },
            fh,
            indent=1,
        )
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER.items()}
    else:
        metrics = {name: {"value": report[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="orders the operations of each pass")
    parser.add_argument("--seconds", type=float, default=24.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            t0 = perf_counter()
            import_scflp()
            build_workload(args.workload)
            print(perf_counter() - t0)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (RuntimeError, OSError, KeyError, subprocess.SubprocessError) as exc:  # set-up and trace errors
        print(f"benchmark set-up failed: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
