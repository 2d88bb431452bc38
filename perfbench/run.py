"""detac benchmark: one workload per run, end-to-end metrics with tracing
off (``--trace 0``) or per-module metrics from a traced run (``--trace 1``).

    python3 perfbench/run.py --workload penfac-pointmass --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports detac from ``src/`` there
and writes only under ``.perfbench_out/``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the machine, the seed and the
settings.  ``work_per_s`` is the workload's own rate, printed under its
own name as well: env_steps_per_s or bandit_episodes_per_s.

Untraced run: whole rounds of operations repeat until ``--seconds`` are
used, and set-up (import included) is timed in a fresh interpreter
before every round.  Times are scaled to the host's reference speed,
measured by a calibration kernel beside them (see hostspeed.py); the
wall-clock figures go to the context line.

Traced run: a fixed number of operations, set by ``--seconds``, runs once
untraced and once with spans around detac's public functions; the two
passes must give byte-identical outputs.  Spans are written to
``.perfbench_out/trace-<workload>.npz`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("penfac-pointmass", "bandit-suite")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2
CALIBRATE_EVERY_S = 0.2

END_TO_END = [
    ("work_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_detac():
    """Import detac from this checkout; returns the import's (start, end)."""
    if not os.path.isfile(os.path.join(SRC, "detac", "__init__.py")):
        sys.exit(f"perfbench: no detac sources under {SRC}")
    sys.path.insert(0, SRC)
    start = perf_counter()
    import detac
    end = perf_counter()
    if not os.path.abspath(detac.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported detac from {detac.__file__}, "
                 f"not from {SRC}")
    return start, end


def make_workload(args, out_dir):
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed, out_dir)


def setup_probe(args):
    """Time import plus set-up in this fresh interpreter and print it."""
    start, _ = import_detac()
    make_workload(args, os.path.join(OUT, "probe")).setup()
    print(repr(perf_counter() - start))


def probe_setup(args):
    """Set-up time in a fresh interpreter, so the import is paid the way a
    user pays it, in reference seconds: the host's speed is taken from
    the kernel just before and just after."""
    before = [hostspeed.kernel_seconds() for _ in range(3)]
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    after = [hostspeed.kernel_seconds() for _ in range(3)]
    wall = float(proc.stdout.strip().splitlines()[-1])
    return hostspeed.reference_seconds(wall,
                                       statistics.median(before + after))


@contextlib.contextmanager
def calibrating(samples):
    """Time the kernel at both ends of the body and, from a SIGALRM
    handler, every CALIBRATE_EVERY_S of wall time within it; ``samples``
    gets (start, kernel seconds, end) for each.  The handler runs between
    bytecodes of whatever detac is doing, and changes none of its state."""
    def sample(*_):
        start = perf_counter()
        kernel = hostspeed.kernel_seconds()
        samples.append((start, kernel, perf_counter()))

    sample()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S,
                     CALIBRATE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sample()


def timed(samples):
    """(wall seconds, reference seconds) between the first and the last
    sample, leaving out the kernel's own time."""
    wall = ref = 0.0
    for (_, k0, end), (start, k1, _) in zip(samples, samples[1:]):
        wall += start - end
        ref += hostspeed.reference_seconds(start - end, (k0 + k1) / 2)
    return wall, ref


def run_untraced(args, workload):
    """Repeat whole rounds of operations until the next round would end
    after ``--seconds`` (at least MIN_ROUNDS rounds), with one set-up probe
    before each round and at least SETUP_SAMPLES in all.

    Times are in reference seconds (see hostspeed): each operation's time
    is the median over its rounds, and ``work_per_s`` is the work of one
    round over the sum of those medians.  A repeat whose output differs
    from the first run's fails."""
    workload.setup()
    setup_samples, times, ops = [], [], []
    start = perf_counter()
    while True:
        setup_samples.append(probe_setup(args))
        first = ops[:workload.per_round]
        tag = f"r{len(ops) // workload.per_round}"
        for i in range(workload.per_round):
            samples = []
            with calibrating(samples):
                op = workload.run_op(i, tag=tag)
            times.append(timed(samples))
            if first and op.artifact != first[i].artifact:
                op.work, op.failed = 0, op.attempted
            ops.append(op)
        rounds = len(ops) // workload.per_round
        elapsed = perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    wall = perf_counter() - start
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(probe_setup(args))

    n = workload.per_round
    # an operation that failed in any round does no work
    work = sum(min(op.work for op in ops[i::n]) for i in range(n))
    op_wall = sum(statistics.median(t[0] for t in times[i::n])
                  for i in range(n))
    op_ref = sum(statistics.median(t[1] for t in times[i::n])
                 for i in range(n))
    metrics = {
        "work_per_s": work / op_ref,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"wall_s": wall, "rounds": rounds,
             "host_speed": op_ref / op_wall,
             "wall_work_per_s": work / op_wall,
             "op_wall_s": [t[0] for t in times],
             "op_ref_s": [t[1] for t in times],
             "setup_ref_s": setup_samples}
    extra[workload.alias[0]] = metrics["work_per_s"]
    return ops, metrics, extra


def traced_passes(workload, n, import_span):
    """Run operations 0..n-1 untraced, then again traced (set-up too).
    A traced operation fails if its output differs from its untraced
    twin.  Returns (untraced ops, traced ops, tracer, overhead fraction)."""
    from tracer import Tracer

    workload.setup()
    start = perf_counter()
    untraced = [workload.run_op(i, tag="untraced") for i in range(n)]
    wall_untraced = perf_counter() - start

    tracer = Tracer()
    tracer.record("import", *import_span)
    tracer.install()
    try:
        workload.setup()
        start = perf_counter()
        traced = [workload.run_op(i, tag="traced") for i in range(n)]
        wall_traced = perf_counter() - start
    finally:
        tracer.uninstall()
    for u, t in zip(untraced, traced):
        if u.artifact != t.artifact:
            t.work, t.failed = 0, t.attempted
    return untraced, traced, tracer, wall_traced / wall_untraced - 1.0


def run_traced(args, workload, import_span):
    from workloads import traced_ops

    n = traced_ops(workload, args.seconds)
    untraced, traced, tracer, overhead = traced_passes(workload, n,
                                                       import_span)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}.npz")
    tracer.save(trace_path)
    extra = {"operations_per_pass": n, "spans": len(tracer.name),
             "trace_file": os.path.relpath(trace_path, ROOT)}
    return untraced + traced, tracer.metrics(overhead), extra


def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def machine_info():
    import numpy as np
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(os.path.join(base, index, "size"))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "DETAC_THREADS": os.environ.get("DETAC_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    args = parse_args(argv)
    # one process, no seed fan-out: with two shared cores a process pool
    # would time the scheduler rather than detac
    os.environ["DETAC_THREADS"] = "1"
    if args.setup_probe:
        setup_probe(args)
        return 0

    import_span = import_detac()
    sys.path.insert(0, HERE)
    out_dir = os.path.join(OUT, f"runs-{os.getpid()}")
    workload = make_workload(args, out_dir)
    try:
        if args.trace:
            ops, metrics, extra = run_traced(args, workload, import_span)
            from tracer import PER_LAYER
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            ops, metrics, extra = run_untraced(args, workload)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "work_unit": workload.unit, "machine": machine_info(), **extra}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}"
                                ".json"), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)

    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    alias, unit = workload.alias
    if alias in extra:
        print(f"{alias:34s} {extra[alias]:>16.6g} {unit}")
    print(f"{'operations attempted':34s} {attempted:>16d}")
    print(f"{'operations failed':34s} {failed:>16d}")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
