"""Outside-in layer tracer for permofdm.

The tracer wraps the public functions that the harness, equalizer and CLI
modules call, by rebinding those names in the callers' module namespaces.
Nothing in the package itself changes.  Each call records a span
``[name, parent, start, end]`` in memory; self time is computed afterwards
as a span's duration minus the part of it that its child spans cover.
Every rebound name is restored when the ``patched`` block exits, whether
or not the traced operation raised.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "permofdm"

# Layer module -> public functions timed as their own spans.
WRAPPED = {
    "permcipher": ("derive_permutation", "encrypt_block", "decrypt_block",
                   "transpose_interleaver"),
    "modem": ("ifft_modulate", "fft_demodulate", "qam_point_indices",
              "add_cp", "remove_cp"),
    "channel": ("draw_rayleigh_channel", "freq_response",
                "apply_channel_stream", "add_awgn"),
    "equalizer": ("equalize",),
    "attack": ("averaging_attack", "recovery_rate"),
    "fileio": ("read_iq", "write_iq", "read_key_file"),
}

# Modules whose references to the functions above are rebound.
CALLERS = ("harness", "equalizer", "cli")


def span_names():
    """Every `<module>.<function>` the tracer can record, in a fixed order."""
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


class Tracer:
    """In-memory span recorder for one thread of nested calls."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    def _open(self, name):
        span = [name, self._stack[-1] if self._stack else -1, self._clock(), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        self._stack.pop()
        span[3] = self._clock()

    def wrap(self, name, fn):
        """Return `fn` recording one span per call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextmanager
    def span(self, name):
        """Record a span around a block, e.g. the benchmark's call into a layer."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)


@contextmanager
def rebind(assignments):
    """Set each (namespace, attribute, value); restore the old values on exit."""
    saved = []
    try:
        for ns, attr, value in assignments:
            saved.append((ns, attr, getattr(ns, attr)))
            setattr(ns, attr, value)
        yield
    finally:
        for ns, attr, old in reversed(saved):
            setattr(ns, attr, old)


def _module(name):
    return importlib.import_module(f"{PACKAGE}.{name}")


@contextmanager
def patched(tracer):
    """Route every wrapped function through `tracer` while the block runs."""
    assignments = []
    for mod, fns in WRAPPED.items():
        home = _module(mod)
        for fn in fns:
            original = getattr(home, fn)
            wrapper = tracer.wrap(f"{mod}.{fn}", original)
            for caller in map(_module, CALLERS):
                if vars(caller).get(fn) is original:
                    assignments.append((caller, fn, wrapper))
    with rebind(assignments):
        yield


@contextmanager
def counting_pool_tasks(counter):
    """Count the tasks the harness hands to its process pool.

    `counter` is a one-element list; each `map` call adds its task count.
    """
    harness = _module("harness")
    base = harness.ProcessPoolExecutor

    class CountingPool(base):
        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            counter[0] += len(iterables[0])
            return super().map(fn, *iterables, **kwargs)

    with rebind([(harness, "ProcessPoolExecutor", CountingPool)]):
        yield


def self_times(spans):
    """Aggregate spans into {name: (calls, self seconds)}.

    A span's self time is its duration minus the union of its direct
    children's intervals, clipped to the span itself.
    """
    children = defaultdict(list)
    for index, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for index, (name, _, start, end) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted(children.get(index, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if run_end is not None and s <= run_end:
                run_end = max(run_end, e)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        if run_end is not None:
            covered += run_end - run_start
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out
