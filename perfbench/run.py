"""permofdm benchmark: end-to-end throughput and an outside-in layer trace.

Run one workload (the form BENCHMARK.json describes):

    python3 perfbench/run.py --workload ber-transpose --seed 1 --seconds 20 --trace 0

or every workload, untraced then traced, each in its own process:

    python3 perfbench/run.py --seconds 20

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics.  The
lines before it report the environment, the output digest, the
user-facing throughput and the failure ratio.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench_work"
VECTORS = ROOT / "vectors" / "permutation_vectors.txt"
GOLDEN = HERE / "golden.json"

SETUP_PROBES = 5     # fresh processes timed per run; setup_s is their median
MIN_ROUNDS = 3       # timed rounds per run, however short --seconds is
CAL_PASSES = 3       # calibration passes before and after each timed unit
# Each half of a calibration pass takes this long at the reference speed,
# about the median on a 2-vCPU 2.1 GHz Xeon VM.
CAL_REF_S = 0.0025
SETUP_PYTHON_SHARE = 0.8  # importing is mostly interpreter work
MB = 1e6


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Tally:
    """Attempted and failed operations and checks, with failure labels."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)
        return ok

    def attempt(self, label, fn, expect=None):
        """Run one operation; count it failed if it raises, is implausible,
        or its digest differs from `expect`.  Returns the OpResult or None."""
        try:
            res = fn()
        except Exception as e:  # a failed operation is counted, the run goes on
            self.check(f"{label}: {type(e).__name__}: {e}", False)
            return None
        ok = res.valid and (expect is None or res.digest == expect)
        return res if self.check(f"{label}: wrong output", ok) else None


def summary(values):
    """Median, quartiles and count of a sample; quartiles as
    statistics.quantiles(n=4) gives them, collapsed to the median below 2."""
    values = list(values)
    if not values:
        raise ValueError("summary of an empty sample")
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _import_program():
    """Import permofdm from this checkout's src/, never from elsewhere."""
    if not (SRC / "permofdm" / "__init__.py").is_file():
        raise BenchError(f"no permofdm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import permofdm
    if Path(permofdm.__file__).resolve().parent != SRC / "permofdm":
        raise BenchError(f"imported permofdm from {permofdm.__file__}, not {SRC}")
    return permofdm


def environment(permofdm):
    import cryptography
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip()
                for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{read(index / 'level')} {read(index / 'type')}"] = read(index / "size")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cryptography": cryptography.__version__,
        "jit_enabled": permofdm.JIT_ENABLED, "commit": commit,
    }


def check_vectors(permofdm, tally):
    """Re-derive the frozen keyed-permutation vectors (interop contract)."""
    for line in VECTORS.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        size, key_hex, counter, *perm = line.split(",")
        label = f"vector size={size} counter={counter}"
        try:
            got = permofdm.derive_permutation(
                permofdm.SecretKey.from_hex(key_hex), int(counter), int(size))
            ok = got.map.tolist() == [int(v) for v in perm]
        except Exception as e:  # counted as a failed check
            label, ok = f"{label}: {type(e).__name__}: {e}", False
        tally.check(label, ok)


def probe_setup(name, seed, workdir, cal):
    """Time one fresh process from launch until the workload is ready."""
    def launch():
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--probe-setup", repr(t0), "--workdir", str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()[-2000:]}")
        return float(out.stdout.strip().splitlines()[-1])

    return cal.time(launch)[0]


def calibration_s():
    """Wall times of the two halves of a fixed calibration kernel: a Python
    integer loop, and numpy normal draws, FFTs and a convolution on 256 KiB
    arrays."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15000):
        acc = (acc + i * 2654435761) & 0xFFFF
    t1 = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 256)) + 1j * rng.standard_normal((64, 256))
    for _ in range(4):
        x = np.fft.fft(x, axis=-1, norm="ortho")
    np.convolve(x.reshape(-1), np.ones(12, dtype=np.complex128))
    return t1 - t0, time.perf_counter() - t1


class Calibration:
    """Calibration passes timed around a run's timed calls.

    The machine's slowdown over the run is the median time of each half of
    the kernel relative to CAL_REF_S, weighted by the share of interpreter
    work in what is timed.  Wall seconds times `scale` are reference
    seconds, the time at the reference speed.  One scale per run cancels
    the slow drift in speed of a shared host without adding per-call noise.
    """

    def __init__(self, python_share):
        self.python_share = python_share
        self.passes = []

    def time(self, fn):
        """Run fn() between calibration passes; return (result, wall seconds)."""
        self.passes += [calibration_s() for _ in range(CAL_PASSES)]
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        self.passes += [calibration_s() for _ in range(CAL_PASSES)]
        return out, wall

    @property
    def scale(self):
        py, vec = (statistics.median(half) for half in zip(*self.passes))
        share = self.python_share
        return CAL_REF_S / (share * py + (1 - share) * vec)


def _timed(tally, label, fn, expect):
    t0 = time.perf_counter()
    res = tally.attempt(label, fn, expect)
    return res, time.perf_counter() - t0


def _warm_up(tally, ops):
    """First round, untimed: its digests are the run's reference outputs."""
    ref = {}
    for label, fn in ops:
        res = tally.attempt(f"{label} (warm-up)", fn)
        ref[label] = res.digest if res else None
    return ref


def measure(work, ctx, seconds, tally, ref, cal):
    """Untraced rounds for at least `seconds`; returns each round's
    throughput, its work over its wall time, for rounds without failures."""
    ops = work.ops(ctx, work.workers)
    rates = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        done, secs = 0, 0.0
        for label, fn in ops:
            res, wall = cal.time(lambda: tally.attempt(label, fn, ref[label]))
            if res is None:
                break
            done, secs = done + res.work, secs + wall
        else:
            rates.append(done / secs)
        rounds += 1
    return rates


def trace_layers(work, ctx, seconds, tally, ref):
    """Alternate untraced and traced rounds; return the per-layer metrics.

    Traced rounds run at 1 worker, since spans cannot come back from pool
    children.  A workload with more workers also runs untraced 1-worker
    rounds, which give the 2-worker speed-up and the tracing overhead.
    """
    base_ops = work.ops(ctx, work.workers)
    solo_ops = work.ops(ctx, 1)
    rec = tracer.Tracer()
    walls = {"base": [], "solo": [], "traced": []}
    rates = {"base": [], "solo": []}
    counted = {"base": 0, "traced": 0}
    pool_tasks = [0]
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        with tracer.counting_pool_tasks(pool_tasks):
            for label, fn in base_ops:
                res, dt = _timed(tally, label, fn, ref[label])
                if res:
                    walls["base"].append(dt)
                    rates["base"].append(res.work / dt)
                    counted["base"] += res.blocks
        if work.workers > 1:
            for label, fn in solo_ops:
                res, dt = _timed(tally, f"{label} at 1 worker", fn, ref[label])
                if res:
                    walls["solo"].append(dt)
                    rates["solo"].append(res.work / dt)
        for label, fn in solo_ops:
            t0 = time.perf_counter()
            with tracer.patched(rec), rec.span(work.root_span):
                res = tally.attempt(f"{label} traced", fn, ref[label])
            if res:
                walls["traced"].append(time.perf_counter() - t0)
                counted["traced"] += res.blocks
        rounds += 1

    n_traced = max(1, len(walls["traced"]))
    agg = tracer.self_times(rec.spans)
    metrics = {}
    for name in tracer.span_names():
        calls, self_s = agg.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / n_traced, "count")
        metrics[f"{name}.self_s"] = (self_s / n_traced, "s")
    for root in ("harness", "cli"):
        metrics[f"{root}.self_s"] = (agg.get(root, (0, 0.0))[1] / n_traced, "s")

    calls, self_s = agg.get("permcipher.derive_permutation", (0, 0.0))
    metrics["permcipher.derive_permutation.us_per_call"] = (
        self_s / calls * 1e6 if calls else 0.0, "us")
    unpooled = walls["solo"] or walls["base"]
    speedup = 0.0
    if rates["solo"] and rates["base"]:
        speedup = statistics.median(rates["base"]) / statistics.median(rates["solo"])
    metrics["harness.speedup_2w"] = (speedup, "ratio")
    # Blocks computed at the workload's own worker count: the tasks handed
    # to the pool, or one channel draw per block when there is no pool.
    draws = agg.get("channel.draw_rayleigh_channel", (0, 0.0))[0]
    useful = 0.0
    if pool_tasks[0]:
        useful = counted["base"] / pool_tasks[0]
    elif draws:
        useful = counted["traced"] / draws
    metrics["harness.useful_block_ratio"] = (useful, "ratio")
    for fn in ("read_iq", "write_iq"):
        calls, secs = agg.get(f"fileio.{fn}", (0, 0.0))
        rate = calls * work.iq_bytes() / secs / MB if calls and secs else 0.0
        metrics[f"fileio.{fn}.mb_per_s"] = (rate, "MB/s")
    overhead = 0.0
    if walls["traced"] and unpooled:
        overhead = statistics.median(walls["traced"]) / statistics.median(unpooled)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    traced_wall = sum(walls["traced"])
    accounted = sum(s for _, s in agg.values()) / traced_wall if traced_wall else 0.0
    metrics["trace.accounted_ratio"] = (accounted, "ratio")
    return metrics


def run_workload(name, seed, seconds, trace, golden=None):
    """Run one workload in this process.

    Returns (report lines, result object for the last line of output).
    `golden` maps workload names to their output digest at DEFAULT_SEED;
    it defaults to the one stored with the benchmark.
    """
    work = workloads.WORKLOADS[name]
    permofdm = _import_program()
    if golden is None:
        golden = json.loads(GOLDEN.read_text())
    WORK_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_PARENT))
    try:
        work.prepare(workdir, seed)
        setup_cal = Calibration(SETUP_PYTHON_SHARE)
        setup = [probe_setup(name, seed, workdir, setup_cal)
                 for _ in range(0 if trace else SETUP_PROBES)]
        ctx = work.setup(workdir, seed)
        tally = Tally()
        check_vectors(permofdm, tally)

        ops = work.ops(ctx, work.workers)
        ref = _warm_up(tally, ops)
        primary = ops[0][0]
        if seed == workloads.DEFAULT_SEED:
            tally.check("golden digest", ref[primary] == golden.get(name))
        if work.workers > 1 and not trace:
            # determinism contract: same bytes at any worker count
            for label, fn in work.ops(ctx, 1):
                tally.attempt(f"{label} at 1 worker", fn, ref[label])

        lines = [f"workload {name} seed {seed} trace {int(trace)}",
                 "env " + json.dumps(environment(permofdm), sort_keys=True),
                 f"output_sha256 {ref[primary]}"]
        if trace:
            metrics = trace_layers(work, ctx, seconds, tally, ref)
        else:
            op_cal = Calibration(work.python_share)
            rates = measure(work, ctx, seconds, tally, ref, op_cal)
            stats = summary(rates) if rates else {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
            setup_wall = statistics.median(setup)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
            metrics = {"throughput": (stats["median"] / op_cal.scale, "1/s"),
                       "setup_s": (setup_wall * setup_cal.scale, "s"),
                       "peak_rss_mb": (peak, "MB")}
            head, scale, unit = work.headline
            lines += [
                f"{head} {stats['median'] * scale:.4g} {unit} over wall time "
                f"(median of {stats['n']} rounds, quartiles "
                f"{stats['q1'] * scale:.4g}..{stats['q3'] * scale:.4g}; {work.work_unit})",
                f"setup_s {setup_wall:.4g} s wall (median of {len(setup)} fresh processes)",
                f"reference seconds per wall second: {op_cal.scale:.4g} during operations, "
                f"{setup_cal.scale:.4g} during set-up",
                f"peak_rss_mb {peak:.4g} MB",
            ]
        lines.append(f"fail_ratio {tally.failed / tally.attempted:.4g} "
                     f"({tally.failed} of {tally.attempted} operations and checks)")
        lines += [f"failed: {label}" for label in tally.failures]
        for key, (value, unit) in metrics.items():
            lines.append(f"  {key} = {value:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if out.returncode != 0 or not lines:
                raise BenchError(f"{name} trace {trace} failed: {out.stderr.strip()[-2000:]}")
            results.setdefault(name, {})[f"trace{trace}"] = json.loads(lines[-1])
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.probe_setup is not None:
            _import_program()
            workloads.WORKLOADS[args.workload].setup(Path(args.workdir), args.seed)
            print(time.monotonic() - args.probe_setup)
        elif args.workload == "all":
            results = run_all(args.seed, args.seconds)
            print(json.dumps({"correct": all(r["correct"] for w in results.values()
                                             for r in w.values()),
                              "workloads": results}))
        else:
            lines, result = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
