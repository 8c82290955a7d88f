"""Tests for the benchmark's own code.

Run:  python3 -m pytest perfbench -q
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run._import_program()
from permofdm import cli, equalizer, harness, permcipher  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 3.0],
        ["b", 0, 2.0, 5.0],     # overlaps a: together they cover [1, 5]
        ["c", 1, 1.5, 2.0],
        ["a", 0, 9.0, 11.0],    # runs past its parent: clipped to [9, 10]
    ]
    got = tracer.self_times(spans)
    assert got["root"] == (1, pytest.approx(10.0 - 4.0 - 1.0))
    assert got["a"] == (2, pytest.approx((2.0 - 0.5) + 2.0))
    assert got["b"] == (1, pytest.approx(3.0))
    assert got["c"] == (1, pytest.approx(0.5))


def test_tracer_nests_spans_by_call():
    ticks = iter(range(100))
    rec = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: [inner(), inner()])
    with rec.span("root"):
        outer()
    got = tracer.self_times(rec.spans)
    # root [0, 7], outer [1, 6], inner [2, 3] and [4, 5]
    assert got == {"root": (1, 2.0), "outer": (1, 3.0), "inner": (2, 2.0)}


def _originals():
    return {(ns.__name__, name): getattr(ns, name)
            for ns in (harness, equalizer, cli)
            for name in ("derive_permutation", "fft_demodulate", "equalize", "read_iq",
                         "ProcessPoolExecutor")
            if hasattr(ns, name)}


def test_wrappers_are_restored_even_when_the_operation_raises():
    before = _originals()
    rec = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(rec):
            assert harness.derive_permutation is not permcipher.derive_permutation
            assert cli.derive_permutation is harness.derive_permutation
            raise RuntimeError("operation failed")
    with pytest.raises(RuntimeError):
        with tracer.counting_pool_tasks([0]):
            raise RuntimeError("operation failed")
    assert _originals() == before
    assert harness.derive_permutation is permcipher.derive_permutation


def test_summary_gives_median_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    s = run.summary(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.0, q1, q3, 5)
    assert run.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    assert run.summary([1.0, 2.0, 3.0, 4.0])["median"] == 2.5
    with pytest.raises(ValueError):
        run.summary([])


def test_corrupted_golden_digest_counts_as_a_failure():
    _, result = run.run_workload("cipher-file", workloads.DEFAULT_SEED, 0, False,
                                 golden={"cipher-file": "0" * 64})
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["throughput"]["value"] > 0


def test_traced_run_reports_every_layer_metric_and_accounts_for_wall_time():
    lines, result = run.run_workload("cipher-file", workloads.DEFAULT_SEED, 0, True)
    assert result["correct"], lines
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["permcipher.derive_permutation.calls"] == 64
    assert m["fileio.read_iq.calls"] == 1
    assert m["trace.accounted_ratio"] == pytest.approx(1.0, abs=0.01)
