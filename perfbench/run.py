"""pianocover benchmark: seeded inputs, three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 0 --seconds 26 --trace 0

``--workload all`` (the default) runs build, train and cover in turn,
each in a process of its own so that each reports its own peak memory.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it measures half the time untraced and half with every
layer's entry points wrapped, and reports the per-layer metrics plus the
tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object. The exit code is 0 when every output
check passed, 1 when any failed, and 2 when the package cannot be
imported from ``src/``.
"""

import os

# BLAS threading alone moves these small matmuls by 1.3-3x, so every pool
# is pinned to one thread here, before any import that can load numpy:
# OpenBLAS reads its thread count once, when the library loads.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from speed import SpeedGauge  # noqa: E402

WORKLOAD_NAMES = ("build", "train", "cover")
ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least this many times and for at least this long; the
# median is reported, so a cheap set-up is repeated until it is steady.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.5


def import_package():
    """Import pianocover from this checkout's src/, never from elsewhere."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    try:
        import pianocover
    except ImportError as exc:
        print(f"error: cannot import pianocover from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(pianocover.__file__).startswith(src + os.sep):
        print(f"error: pianocover imported from {pianocover.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def environment():
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ[var] for var in PINNED_THREADS},
        # Threads the process runs with numpy loaded: 1 when the pin held.
        "os_threads": os_threads(),
    }


def os_threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def measure(workload, seconds, gauge, tracer=None):
    """Run operations until the next one would end past ``seconds``; each
    sample's wall time leaves out the gauge's readings and the tracer's
    probes, and its scale comes from the readings taken while it ran."""
    samples, spans = [], []
    start = time.perf_counter()
    while True:
        probe_before = tracer.probe_s if tracer else 0.0
        span = tracer.begin("op." + workload.name) if tracer else None
        workload.failed = set()
        sample = workload.op()
        sample.failed = len(workload.failed)
        if tracer:
            tracer.end(span)
        spans.append((sample.start, sample.start + sample.wall))
        sample.wall = gauge.net(*spans[-1])
        if tracer:
            sample.wall -= tracer.probe_s - probe_before
        samples.append(sample)
        now = time.perf_counter()
        if now - start + sample.wall > seconds:
            for sample, span in zip(samples, spans):
                sample.scale = gauge.scale(*span, (start, now))
            return samples


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name, seed, seconds, trace):
    """Returns (metrics {name: (value, unit, samples)}, attempted, failed,
    failure messages)."""
    import workloads  # imports the package, so only after import_package()

    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workload = workloads.WORKLOADS[name]()
    gauge = SpeedGauge()
    try:
        gauge.start()
        setups = []  # (start, end) of each set-up
        while len(setups) < SETUP_REPEATS or setups[-1][1] - setups[0][0] < SETUP_SECONDS:
            shutil.rmtree(work, ignore_errors=True)
            start = time.perf_counter()
            workload.setup(work, seed)
            setups.append((start, time.perf_counter()))
        setup_phase = (setups[0][0], setups[-1][1])
        setup_wall = [gauge.net(*s) for s in setups]
        setup_s = [gauge.net(*s) * gauge.scale(*s, setup_phase) for s in setups]

        samples = measure(workload, seconds / 2 if trace else seconds, gauge)
        traced = []
        if trace:
            tracer = Tracer()
            workloads.instrument(tracer)
            try:
                traced = measure(workload, seconds / 2, gauge, tracer)
            finally:
                tracer.restore()
        gauge.stop()
        if trace:
            probes = workload.probe()
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl")
        workload.failed = set()
        final_attempted = workload.final_checks()
        final_failed = len(workload.failed)
    finally:
        gauge.stop()
        shutil.rmtree(work, ignore_errors=True)

    def per_audio_min(batch, scaled=True):
        return statistics.median(s.wall * (s.scale if scaled else 1.0) / (s.audio_s / 60.0)
                                 for s in batch)

    n = len(samples)
    if trace:
        steps = len(traced) * workload.steps_per_op
        metrics = {key: (value, "", len(traced))
                   for key, value in workloads.layer_metrics(tracer, steps, workload,
                                                             probes).items()}
        overhead = 100.0 * (per_audio_min(traced) / per_audio_min(samples) - 1.0)
        metrics["trace.overhead_pct"] = (overhead, "%", len(traced))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
            "s_per_audio_min": (per_audio_min(samples), "s", n),
            "examples_per_s": (statistics.median(s.examples / (s.wall * s.scale)
                                                 for s in samples), "1/s", n),
            "tokens_per_s": (statistics.median(s.tokens / (s.wall * s.scale)
                                               for s in samples), "1/s", n),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", 1),
            # The same operations on the wall clock, and the host's speed.
            "wall.setup_s": (statistics.median(setup_wall), "s", len(setup_wall)),
            "wall.s_per_audio_min": (per_audio_min(samples, scaled=False), "s", n),
            "speed_vs_nominal": (statistics.median(s.scale for s in samples), "x", n),
            "gauge_readings": (len(gauge.readings), "count", 1),
        }
    if name == "train":
        step_ms = [1e3 * s.wall * s.scale / workload.steps_per_op for s in samples]
        metrics["train_step_ms_p50"] = (quantile(step_ms, 50), "ms", n)
        metrics["train_step_ms_p90"] = (quantile(step_ms, 90), "ms", n)
        metrics["train_loss_final"] = (statistics.median(workload.final_losses), "nats",
                                       len(workload.final_losses))
    attempted = final_attempted + sum(s.outcomes for s in samples + traced)
    failed = final_failed + sum(s.failed for s in samples + traced)
    return metrics, attempted, failed, workload.failures


def run_all(args):
    """Each workload in a child process, one after the other; the metric
    names in the merged result carry the workload as a prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("\n".join(lines), flush=True)
            return child.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{key}": value
                                  for key, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["failed"] == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    import_package()
    # Warnings about capped windows and dropped tokens are expected here;
    # the benchmark measures the work, not writing them to a terminal.
    logging.getLogger("pianocover").setLevel(logging.ERROR)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    name = args.workload
    metrics, attempted, failed, failures = run_workload(name, args.seed, args.seconds,
                                                        args.trace)
    for key, (value, unit, count) in metrics.items():
        print(f"{name} {key} = {value:.6g} {units.get(key, unit)} (n={count})")
    for message in failures:
        print(f"{name} check failed: {message}", file=sys.stderr)
    print(f"{name} error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} outcomes failed)", flush=True)
    result_metrics = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                      for m in reported}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
