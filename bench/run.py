"""idfusion benchmark: seeded workloads, end-to-end metrics, per-layer traces.

    python3 bench/run.py --workload lynx-loop --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics from spans recorded around each
library call and writes the spans to ``bench/traces/``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload, one fresh process after another.
"""

import os

# One BLAS thread: results and timings must not depend on how many cores
# OpenBLAS finds, and the benchmark never uses more than one core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Every operation runs at least this many times (see README.md).
REPEATS = 3
# A timing spanning fewer speed samples than this is scaled by the mean of
# the MIN_SAMPLES samples around it.
MIN_SAMPLES = 8


def import_library():
    """Import idfusion and the test oracles from this checkout's sources only."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import idfusion
    except ImportError as exc:
        sys.exit(f"error: cannot import idfusion from {ROOT / 'src'}: {exc}")
    if Path(idfusion.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"error: idfusion was imported from {idfusion.__file__}, not this checkout")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "commit": commit,
    }


class SpeedSampler:
    """Samples how fast this process's CPU runs, every PERIOD_S of wall time.

    On a shared machine a CPU can run about 2x slower, in stretches of
    milliseconds to minutes, while a neighbour is busy; CPU time grows with
    wall time then, so the program cannot tell. A timer signal runs a fixed
    calibration unit every PERIOD_S, also in the middle of library calls:
    small numpy products and exponentials like the library's inner loops,
    on arrays that stay in the L1 cache, timed after a few untimed rounds
    so that its time does not depend on what the program left in the
    caches. The mean calibration time over an interval, against
    REFERENCE_NS, is how much slower than the reference speed the machine
    ran in that interval. ``clock`` leaves out the time spent in the sampler.
    """

    PERIOD_S = 0.01
    # The calibration unit's time on an uncontended core of the machine in
    # README.md ("Seeds and environment"); its fastest time in each run is
    # printed with the environment record.
    REFERENCE_NS = 96_000

    def __init__(self) -> None:
        import numpy as np

        self._a = np.random.default_rng(0).normal(size=(40, 32))
        self._x = np.random.default_rng(1).normal(size=32)
        self._np = np
        self.samples_ns: list[int] = []
        self.handler_ns = 0

    def _on_alarm(self, signum, frame) -> None:
        entered = perf_counter_ns()
        for _ in range(5):
            z = self._a @ self._x
            self._np.exp(z - z.max()).sum()
        start = perf_counter_ns()
        for _ in range(20):
            z = self._a @ self._x
            self._np.exp(z - z.max()).sum()
        end = perf_counter_ns()
        self.samples_ns.append(end - start)
        self.handler_ns += end - entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> int:
        """perf_counter_ns without the time spent sampling."""
        return perf_counter_ns() - self.handler_ns

    def mark(self) -> int:
        return len(self.samples_ns)

    def slowdowns(self, starts, ends):
        """Mean calibration time over each interval of samples [start, end),
        from two ``mark`` calls, as a multiple of REFERENCE_NS. An interval
        with fewer than MIN_SAMPLES samples is widened to MIN_SAMPLES around
        its middle. Returns a numpy array."""
        import numpy as np

        n = len(self.samples_ns)
        cum = np.concatenate([[0.0], np.cumsum(self.samples_ns, dtype=np.float64)])
        starts, ends = np.asarray(starts, np.int64), np.asarray(ends, np.int64)
        width = np.minimum(np.maximum(ends - starts, MIN_SAMPLES), n)
        lo = np.clip(starts - (width - (ends - starts)) // 2, 0, n - width)
        hi = lo + width
        return (cum[hi] - cum[lo]) / width / self.REFERENCE_NS

    def record(self) -> dict:
        return {"calibration_fastest_us": round(min(self.samples_ns) / 1e3, 1),
                "calibration_reference_us": self.REFERENCE_NS / 1e3,
                "calibration_samples": len(self.samples_ns),
                "slowdown_mean": round(statistics.fmean(self.samples_ns) / self.REFERENCE_NS, 3)}


def quantile(values, q: int) -> float:
    """q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_reference(workload: str, seed: int) -> dict | None:
    reference = json.loads((BENCH / "reference.json").read_text())
    return reference["workloads"].get(workload, {}).get(str(seed))


def measure(workload, seconds: float, trace: bool, sampler: SpeedSampler) -> dict:
    """Set up ``workload.setup_repeats`` times, then run passes of operations
    until ``seconds`` is used, and at least REPEATS passes.

    Under tracing, passes alternate untraced and traced, so the tracing
    overhead is the difference between the two in one process. As in
    ``timeit``, the garbage collector is paused while an operation runs and
    collects between operations, so its pauses do not land on the same calls
    of every repeat. Every time is program time (``sampler.clock``); the
    interval of samples taken during each set-up and operation is kept, so
    that the metrics can be scaled to the machine's uncontended speed.
    """
    tracer = workload.tracer
    tracer.enabled = trace
    clock = workload.clock = tracer.clock = sampler.clock
    workload.mark = sampler.mark
    setups = []  # (seconds, sample interval)
    for r in range(workload.setup_repeats):
        tracer.op = f"setup{r}"
        mark, start = sampler.mark(), clock()
        workload.setup()
        setups.append(((clock() - start) / 1e9, (mark, sampler.mark())))
    tracer.op = "reference"
    mark = sampler.mark()
    attempted, failed = workload.prepare()
    prepare = (mark, sampler.mark())

    # op index -> (traced, seconds without checks, sample interval)
    ops = {}
    per_pass = workload.ops_per_pass
    min_ops = per_pass * (2 if trace else REPEATS)
    index = 0
    start = perf_counter()
    while True:
        traced = trace and (index // per_pass) % 2 == 1
        tracer.enabled = traced
        tracer.op = f"op{index}"
        workload.excluded_ns = 0
        gc.disable()
        mark, op_start = sampler.mark(), clock()
        try:
            with tracer.span("workload.op"):
                tried, bad = workload.run_op(index, traced)
        except Exception:
            workload.fail(f"op {index} raised:\n{traceback.format_exc()}")
            tried, bad = 1, 1
        else:
            elapsed_ns = clock() - op_start - workload.excluded_ns
            ops[index] = (traced, elapsed_ns / 1e9, (mark, sampler.mark()))
        finally:
            gc.enable()
            gc.collect()
        attempted += tried
        failed += bad
        index += 1
        done = [secs for _, secs, _ in ops.values()]
        if index >= min_ops and (
            not done or perf_counter() - start + statistics.median(done) > seconds
        ):
            break
    tracer.enabled = False
    # Read before the metrics are computed, which builds lists of call timings.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not any(not traced for traced, _, _ in ops.values()) or (
        trace and not any(traced for traced, _, _ in ops.values())
    ):
        raise RuntimeError("no operation completed:\n" + "\n".join(workload.failures))
    accuracy, counts = workload.pass_results()
    reference = load_reference(workload.name, workload.seed)
    if reference is not None and reference != {"fused_accuracy": accuracy, "counts": counts}:
        # A changed result: every operation of the run counts as failed.
        workload.fail(f"results differ from the reference recorded for seed {workload.seed}: "
                      f"{reference} != {accuracy}, {counts}")
        failed = attempted
    return {
        "setups": setups,
        "prepare": prepare,
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "accuracy": accuracy,
        "counts": counts,
        "reference_checked": reference is not None,
    }


def timings(workload, m: dict, sampler: SpeedSampler) -> dict:
    """Every timing of the run, raw and scaled to the reference speed.

    Each timing is divided by the slowdown measured while it ran. Returns
    name -> (raw values, scaled values): ``setup`` and ``op`` in seconds per
    set-up or untraced operation, ``traced_op`` the same for traced
    operations. ``calls`` maps each prior configuration to (raw, scaled) ns
    per sighting and the sightings of each untraced ``sequential_infer``
    call. ``slowdown`` maps the span op id of each set-up, operation and the
    reference pass to its factor.
    """
    import numpy as np

    def scaled(rows):
        """rows of (seconds, (start mark, end mark)) -> (raw, scaled) lists."""
        if not rows:
            return [], [], []
        slow = sampler.slowdowns(*zip(*(interval for _, interval in rows)))
        return [v for v, _ in rows], list(np.array([v for v, _ in rows]) / slow), list(slow)

    setup_raw, setup_scaled, setup_slow = scaled(m["setups"])
    [prepare_slow] = scaled([(0.0, m["prepare"])])[2]
    keys = sorted(m["ops"])
    _, _, op_slow = scaled([(secs, interval) for _, secs, interval in
                            (m["ops"][k] for k in keys)])
    out = {"slowdown": {**{f"setup{r}": f for r, f in enumerate(setup_slow)},
                        **{f"op{k}": f for k, f in zip(keys, op_slow)},
                        "reference": prepare_slow},
           "setup": (setup_raw, setup_scaled)}
    for name, want in (("op", False), ("traced_op", True)):
        raw, sc, _ = scaled([m["ops"][k][1:] for k in keys if m["ops"][k][0] == want])
        out[name] = (raw, sc)
    out["calls"] = {config: (ns / n, ns / n / sampler.slowdowns(starts, ends), n)
                     for config, (ns, n, starts, ends) in workload.call_times().items()}
    return out


def end_to_end(m: dict, t: dict) -> dict:
    import numpy as np

    calls = t["calls"].values()
    sightings = sum(n.sum() for _, _, n in calls)
    return {
        "setup_s": (statistics.median(t["setup"][1]), "s"),
        "pipeline_s": (statistics.median(t["op"][1]), "s"),
        "infer_obs_per_s": (1e9 * sightings / sum((sc * n).sum() for _, sc, n in calls), "1/s"),
        "call_p50_us": (statistics.median(np.median(sc) for _, sc, _ in calls) / 1e3, "us"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "fused_accuracy": (m["accuracy"], "ratio"),
        "ok_op_ratio": (1 - m["failed"] / m["attempted"], "ratio"),
    }


def per_layer(workload, m: dict, t: dict) -> dict:
    from tracing import layer_metrics
    from workloads import PRIOR_SPANS

    units = (("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_s", "s"))
    metrics = {}
    layer = layer_metrics(workload.tracer, workload.train_epochs, PRIOR_SPANS, t["slowdown"])
    for name, value in layer.items():
        metrics[name] = (value, next(unit for suffix, unit in units if suffix in name))
    for name, value in m["counts"].items():
        metrics[name] = (value, "bytes" if name.endswith("bytes") else "count")
    overhead = statistics.median(t["traced_op"][1]) - statistics.median(t["op"][1])
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run_one(args) -> int:
    import_library()
    sys.path.insert(0, str(BENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    sampler = SpeedSampler()
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work, Tracer(False))
    sampler.start()
    try:
        m = measure(workload, args.seconds, bool(args.trace), sampler)
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)
    t = timings(workload, m, sampler)
    if args.trace:
        metrics = per_layer(workload, m, t)
        trace_path = BENCH / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        workload.tracer.write(trace_path)
    else:
        metrics = end_to_end(m, t)

    import numpy as np

    env = {**environment(), **sampler.record()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"ops: {m['attempted']} attempted, {m['failed']} failed, "
          f"failed_op_ratio {m['failed'] / m['attempted']:.6g}; "
          f"call timing samples {sum(len(n) for _, _, n in t['calls'].values())}")
    for name in ("setup", "op", "traced_op"):
        raw, scaled = t[name]
        if raw:
            print(f"{name} seconds, raw / scaled: "
                  + " ".join(f"{r:.4f}/{s:.4f}" for r, s in zip(raw, scaled)))
    print("reference " + ("checked" if m["reference_checked"] else "not recorded for this seed"))
    for message in workload.failures:
        print(f"FAILED: {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    if args.trace:
        print(f"spans: {len(workload.tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        for config, (raw, scaled, _) in t["calls"].items():
            print(f"{config}: median us per sighting, raw / scaled: "
                  f"{np.median(raw) / 1e3:.6g} / {np.median(scaled) / 1e3:.6g} ({len(raw)} calls)")
        # Printed but not in the JSON: its spread is past any bound on the
        # replay workloads, which time few calls.
        scaled = np.concatenate([sc for _, sc, _ in t["calls"].values()])
        print(f"call_p99_us {quantile(list(scaled / 1e3), 99):.6g} us "
              f"({len(scaled)} call timings, not gated); unscaled pipeline_s "
              f"{statistics.median(t['op'][0]):.6g}")
        print("counts " + json.dumps(m["counts"], sort_keys=True))
    result = {
        "correct": m["failed"] == 0 and not workload.failures,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another, so that
    peak RSS belongs to one workload and one core stays free."""
    import_library()
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lynx-loop", "population-replay", "online-stream", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
