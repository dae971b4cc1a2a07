"""Benchmark of the computations behind the paper's numbers.

    python3 bench/run.py --workload local-bound --seed 1 --seconds 40 --trace 0

Runs one workload (``local-bound``, ``model-maxima`` or
``graph-invariants``) in this process: a fixed list of calls built from
``--seed``, repeated in whole passes for about ``--seconds`` seconds.  Every
pass must reproduce the first bit for bit, every output is checked against
references computed apart from the program, and one JSON line is printed
last: ``correct``, ``attempted`` and ``failed`` items, and the metrics.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one more pass runs traced, it must give bit-identical results, and the
metrics are the per-layer ones derived from its spans, which are written to
``bench/out/``.  See README.md.
"""

import os
import sys
import time

START = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started (Linux /proc), else 0."""
    try:
        with open("/proc/self/stat") as stat:
            start_ticks = int(stat.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


STARTUP_S = _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("local-bound", "model-maxima", "graph-invariants"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


MIN_PASSES = 2
# a round figure near reference_kernel's time on an unloaded core (README,
# "Timing at a reference speed"); call times are scaled to it
REFERENCE_S = 0.005


def reference_kernel() -> float:
    """Seconds taken by fixed work of the program's kind, small symmetric
    eigenproblems in a Python loop, which imports nothing from the program."""
    import numpy as np  # here, after main has pinned the BLAS threads

    start = time.perf_counter()
    base = np.cos(np.arange(144.0)).reshape(12, 12)
    base = base + base.T
    total = 0.0
    for i in range(100):
        values, vectors = np.linalg.eigh(base + i * 1e-3 * np.eye(12))
        total += float(values[0]) + float(vectors[:, 0] @ vectors[:, 1])
        for j in range(40):
            total += (i * j) % 7 * 0.5
    assert math.isfinite(total)
    return time.perf_counter() - start


def run_passes(workload, ops, more, raised, reference=None):
    """Run whole passes over ``ops`` while ``more(passes run, seconds
    elapsed)``.  Every result must have the fingerprint of the first pass's
    result, or of ``reference`` where given.  ``reference_kernel`` runs
    before and after every call, and the call's time is scaled by
    REFERENCE_S over the mean of the two kernel times.  Returns the first
    pass's results and fingerprints, the scaled call times of each
    operation (one per pass), the failed items, the passes, the wall time
    and the mismatches."""
    results, prints, times = [], [], [[] for _ in ops]
    failed, passes, errors = 0, 0, []
    start = time.perf_counter()
    while more(passes, time.perf_counter() - start):
        kernel_before = reference_kernel()
        for k, op in enumerate(ops):
            call_start = time.perf_counter()
            try:
                result = op.call()
            except Exception:  # an item that raises is counted as failed
                raised.append(traceback.format_exc())
                result = None
            call_time = time.perf_counter() - call_start
            kernel_after = reference_kernel()
            times[k].append(call_time * 2 * REFERENCE_S / (kernel_before + kernel_after))
            kernel_before = kernel_after
            failed += op.items if result is None else workload.failed(op, result)
            fingerprint = None if result is None else workload.fingerprint(op, result)
            if passes == 0:
                results.append(result)
                prints.append(fingerprint)
            expected = (reference or prints)[k]
            if fingerprint != expected:
                errors.append(f"{op.kind} call {k}: pass {passes + 1}"
                              f"{' traced' if reference else ''} differs from the first pass")
        passes += 1
    return results, prints, times, failed, passes, time.perf_counter() - start, errors


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "exclusivity")):
        print(f"no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # one BLAS thread: the largest matrix is 121 x 121, and a second thread
    # on a small machine mostly spins and adds noise
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"

    import layers  # imports the program, NumPy and SciPy
    import tracing
    import workloads
    import_end = time.perf_counter()

    tracer = tracing.Tracer()
    tracer.record("setup.import", START - STARTUP_S, import_end)
    if args.trace:
        layers.wrap_setup(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ops = workload.ops()
    tracer.unwrap()
    tracer.record("setup.inputs", import_end, time.perf_counter())
    setup_s = STARTUP_S + time.perf_counter() - START

    # whole passes while the next one would end by --seconds plus half a
    # pass, and at least MIN_PASSES so that every call has more than one
    # timing; MIN_PASSES is only 2 so that a slow host does not stretch a
    # model-maxima run (about 13 s a pass) far past --seconds
    raised: list[str] = []
    results, prints, times, failed, passes, wall, errors = run_passes(
        workload, ops,
        lambda count, elapsed: count < MIN_PASSES or elapsed * (2 * count + 1) / (2 * count) <= args.seconds,
        raised)

    if args.trace:
        layers.wrap_timed(tracer)
        calls = iter(range(1, len(ops) + 1))
        for op in ops:
            op.call = _counted(op.call, tracer, calls)
        _, _, traced_times, _, _, _, traced_errors = run_passes(
            workload, ops, lambda count, _: count == 0, raised, reference=prints)
        tracer.unwrap()
        errors += traced_errors
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        overhead_s = sum(t[0] for t in traced_times) - sum(statistics.median(t) for t in times)
        metrics = layers.per_layer(tracing.SpanIndex(tracer.spans), overhead_s)

    attempted = passes * sum(op.items for op in ops)
    for op, result in zip(ops, results):
        if result is None:
            if op.items == 0:
                errors.append(f"the {op.kind} pass raised")
            continue
        errors += workload.check(op, result)
    errors += workload.check_run(ops, results)
    for message in raised + errors:
        print(message, file=sys.stderr)

    if not args.trace:
        # each call at its median scaled time over the passes
        medians = [statistics.median(t) for t in times]
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": ((attempted - failed) / passes / sum(medians), "items/s"),
            "call_p50_ms": (statistics.median(m for m, op in zip(medians, ops) if op.items) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(f"{args.workload}: {len(ops)} calls x {passes} passes, {attempted} items, "
          f"{failed} failed, {wall:.2f} s timed", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _counted(call, tracer, calls):
    """``call`` with a fresh call id for the spans it records."""
    def counted():
        tracer.call = next(calls)
        return call()
    return counted


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
