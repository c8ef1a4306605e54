"""tubesynth benchmark driver.

    python3 perfbench/run.py --workload tanks-synth --seed 1 --seconds 50 --trace 0

Single process, single thread, closed loop: one client issues the next
op as soon as the previous one returns, with no think time.  Inputs
come from --seed.  Every op is checked outside its timed interval (see
oracle.py); an op that raises or fails its check counts as failed and
is never retried.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload
once with every layer binding wrapped in a span recorder and once
without, and prints per-layer per-op figures plus the tracing
overhead.  The last line of stdout is the result object; the line
before it holds the environment and sample details.
"""

import os

# Pin BLAS/OpenMP pools to one thread before NumPy loads them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

# set-up repeats at least SETUP_REPS times and for at least SETUP_SECONDS
SETUP_REPS = 3
SETUP_SECONDS = 1.0
# op_tail_s needs 10 samples beyond it, so every run carries at least 11 ops
MIN_OPS = 11
MIN_TRACE_OPS = 3

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
         "pass_share": "ratio", "peak_rss_mb": "MB"}


def fresh_import():
    """Import tubesynth (and its CLI module) from scratch."""
    for name in [n for n in sys.modules if n == "tubesynth" or n.startswith("tubesynth.")]:
        del sys.modules[name]
    ts = importlib.import_module("tubesynth")
    importlib.import_module("tubesynth.cli")
    return ts


def set_up(workload_cls, seed):
    """Repeated set-up: import, build every input, one warm-up op.

    Returns the last workload, the set-up durations and the warm-up
    op's fingerprint.  Warm-ups that differ give None, which no op
    matches, so the first timed op then fails its rerun check."""
    durations = []
    prints = []
    while len(durations) < SETUP_REPS or sum(durations) < SETUP_SECONDS:
        t0 = perf_counter()
        wl = workload_cls(fresh_import(), seed, WORKDIR)
        out = wl.run(wl.inputs(0))
        durations.append(perf_counter() - t0)
        prints.append(wl.fingerprint(out))
        wl.release(out)
        gc.collect()  # free the previous import before the next one
    reference = prints[0] if all(p == prints[0] for p in prints) else None
    return wl, durations, reference


def timed_loop(wl, seconds, min_ops, reference, tracer=None):
    """Closed loop for ``seconds`` of wall time and at least ``min_ops``
    ops.  Returns (latencies, failures, bytes written)."""
    latencies = []
    failures = []
    written = 0
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        args = wl.inputs(i)
        out = None
        error = None
        t0 = perf_counter()
        span = tracer.open(tracing.OP_SPAN) if tracer else None
        try:
            out = wl.run(args)
        except Exception as exc:  # a failed op is counted, not retried
            error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            if tracer:
                tracer.close(span)
        latencies.append(perf_counter() - t0)
        if error is None:
            try:
                if not wl.check(i, out):
                    error = "output failed its check"
                elif i == 0 and wl.fingerprint(out) != reference:
                    error = "rerun of the first op is not bit-identical"
                written += wl.bytes_written(out)
            except Exception as exc:  # unreadable output fails the op
                error = "check raised %s: %s" % (type(exc).__name__, exc)
            finally:
                wl.release(out)
        if error is not None:
            failures.append({"op": i, "error": error})
        i += 1
    return latencies, failures, written


def tail(latencies):
    """(value, percentile) of the highest order statistic with at least
    ten samples beyond it; needs the 11 samples MIN_OPS guarantees."""
    n = len(latencies)
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "seed": seed,
            "git_commit": git_commit()}


def end_to_end(wl, seconds, reference, setups):
    latencies, failures, _ = timed_loop(wl, seconds, MIN_OPS, reference)
    n = len(latencies)
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "pass_share": (n - len(failures)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"ops": n, "op_p50_samples": n, "op_tail_percentile": tail_pct,
              "op_tail_samples_beyond": 10, "setup_runs": setups,
              "fail_share": len(failures) / n}
    return ({k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            n, failures, detail)


def traced(wl, workload_cls, seed, seconds, reference):
    """Traced half, then untraced half with every binding restored."""
    ts = wl.ts
    tracer = tracing.Tracer()
    tracer.install(ts)
    try:
        span = tracer.open(tracing.SETUP_SPAN)
        traced_wl = workload_cls(ts, seed, WORKDIR)
        tracer.close(span)
        lat_t, fail_t, written = timed_loop(traced_wl, seconds / 2, MIN_TRACE_OPS,
                                            reference, tracer)
    finally:
        tracer.restore()
    leftovers = tracing.leftover_wrappers(ts)
    if leftovers:
        raise RuntimeError("bindings still wrapped after the traced run: %s" % leftovers)
    lat_u, fail_u, _ = timed_loop(wl, seconds / 2, MIN_TRACE_OPS, reference)
    layer = tracing.layer_metrics(tracer.spans, statistics.median(lat_t),
                                  statistics.median(lat_u), written)
    metrics = {k: {"value": float(v), "unit": tracing.unit(k)} for k, v in layer.items()}
    detail = {"traced_ops": len(lat_t), "untraced_ops": len(lat_u),
              "spans": len(tracer.spans)}
    return metrics, len(lat_t) + len(lat_u), fail_t + fail_u, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "tubesynth" / "__init__.py").is_file():
        print("error: no tubesynth sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload_cls = WORKLOADS[args.workload]
    try:
        wl, setups, reference = set_up(workload_cls, args.seed)
        if args.trace:
            metrics, attempted, failures, detail = traced(
                wl, workload_cls, args.seed, args.seconds, reference)
        else:
            metrics, attempted, failures, detail = end_to_end(
                wl, args.seconds, reference, setups)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    detail.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                  environment=environment(args.seed), failures=failures[:20])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
