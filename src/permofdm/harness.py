"""Monte-Carlo experiment harness.

Reproducibility contract: every random quantity is drawn from a
Generator seeded with the tuple (seed, point_index, block_index), and
early stopping looks only at cumulative counts over blocks taken in
index order.  Results are therefore byte-identical for a given seed no
matter how many worker processes execute the blocks, or how the blocks
are grouped into tasks.

Per-point stopping for BER runs: blocks accumulate until at least
min_errors bit errors AND min_blocks blocks have been seen, or until the
block or total-bit cap is hit.  SER and recovery points take a fixed
count of tasks (_SumStream), so they stop at their block cap.  The report
records which rule stopped each point, outside the CSV.

One driver (_run) computes the tasks of every run, and folds each result
into the run's stream as soon as it is taken.  A BER task is a chunk of
consecutive blocks of one point, which runs through the link chain once as
a stack, in two buffers reused from chunk to chunk (_chain_buffers).  Every
point of a run goes through one task stream (_BerStream), whatever computes
it: each chunk ends at the point's stop as predicted from its running error
rate, and the chunks the predictions say are needed come first, earliest
point first, before any past a prediction.  One worker computes the chunks
in turn, so it computes past a stop only the rest of the chunk that reaches
it; blocks over the pass budget it computes on two threads of its own.
A pool keeps more chunks in flight, and lets go of those past a stop.
"""

import concurrent.futures
import hashlib
import itertools
import math
import os
import threading
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Literal, Optional, get_args

import numpy as np

from .channel import (
    ChannelProfile,
    NoiseSpec,
    add_awgn,
    apply_channel_stream,
    awgn_draws,
    draw_rayleigh_channel,
    freq_response,
)
from .equalizer import EqualizerKind, equalize, semi_analytic_ber
from .errors import PASS_SAMPLES, ShapeError
from .modem import (
    QamConstellation,
    add_cp,
    fft_demodulate,
    ifft_modulate,
    qam_point_indices,
    qam_symbols,
    remove_cp,
)
from .permcipher import (
    Permutation,
    SecretKey,
    decrypt_block,
    derive_permutation,
    derive_permutations,
    encrypt_block,
    transpose_interleaver,
)
from .attack import averaging_attack, recovery_rate

CSV_HEADER = (
    "experiment,N,M,interleaver,equalizer,snr_db,k_mixed,"
    "trials,bit_errors,ber,symbol_errors,ser,ci95"
)

FIVE_TAP_PROFILE = ChannelProfile(
    delays=np.array([0, 1, 2, 6, 11]),
    mean_powers=np.array([0.34, 0.28, 0.23, 0.11, 0.04]),
)

Interleaver = Literal["none", "transpose", "keyed"]
ChannelModel = Literal["rayleigh", "awgn"]
IciPerm = Literal["identity", "reversal", "random", "transpose", "keyed"]

_SER_CHUNK = 32  # OFDM symbols per task; fixed so results never depend on workers


@dataclass(frozen=True)
class PointResult:
    """One CSV row: the fields, in the order declared, are the CSV_HEADER columns."""

    experiment: str
    n: int
    m: int
    interleaver: str
    equalizer: str
    snr_db: float
    k_mixed: int
    trials: int
    bit_errors: int
    ber: float
    symbol_errors: int
    ser: float
    ci95: float

    @classmethod
    def from_counts(cls, experiment: str, n: int, m: int, interleaver: str, equalizer: str,
                    snr_db: float, k_mixed: int, trials: int, bit_errors: int, bits: int,
                    symbol_errors: int, symbols: int) -> "PointResult":
        """A row from summed error counts; a rate over no trials is 0.  ci95 is
        the Wald half-width of BER for "ber" rows and of SER for every other row."""
        ci95 = (wald_halfwidth(bit_errors, bits) if experiment == "ber"
                else wald_halfwidth(symbol_errors, symbols))
        return cls(experiment, n, m, interleaver, equalizer, snr_db, k_mixed, trials,
                   bit_errors, bit_errors / bits if bits else 0.0,
                   symbol_errors, symbol_errors / symbols if symbols else 0.0, ci95)

    def csv_row(self) -> str:
        """The fields in the order declared: float fields as %.6g, the others by str."""
        cells = [(f.type, getattr(self, f.name)) for f in fields(self)]
        return ",".join(_fmt(v) if tp is float else str(v) for tp, v in cells)


StopReason = Literal["error-budget", "bit-cap", "block-cap"]


@dataclass(frozen=True)
class PointStop:
    """How one point of a Monte-Carlo run ended, kept out of the CSV: the
    rule that stopped it, the blocks handed to the workers, and how many of
    those were cancelled before they started.  A BER point of 2 or more
    blocks also carries the standard error of its BER over blocks, the
    clusters, and its design effect: that error squared over the binomial
    variance, None when the latter is 0."""

    reason: StopReason
    submitted: int
    cancelled: int
    ber_se: Optional[float] = None
    design_effect: Optional[float] = None


@dataclass(frozen=True)
class TrialReport:
    points: tuple
    stops: tuple = ()  # one PointStop per point of a Monte-Carlo run

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + [p.csv_row() for p in self.points]) + "\n"


def _fmt(v) -> str:
    return f"{float(v):.6g}"


def wald_halfwidth(errors: int, n: int) -> float:
    """95% normal-approximation half-width for a binomial rate."""
    if n <= 0:
        return 0.0
    p = errors / n
    return 1.96 * np.sqrt(p * (1.0 - p) / n)


def _check_snr_db(values) -> None:
    if not values:
        raise ShapeError("snr_db needs at least one value")
    for v in values:
        # Past about +-3082 dB the noise power or the SNR leaves the float
        # range: 10.0 ** 400 raises, 10.0 ** -400 is 0.
        try:
            sigma_z2 = NoiseSpec.from_snr_db(v).sigma_z2
        except OverflowError:
            sigma_z2 = math.inf
        if not (0 < sigma_z2 < math.inf and 1 / sigma_z2 < math.inf):
            raise ShapeError(f"snr_db must be finite, within about +-3082 dB, got {values}")


def _check_seed(seed: int) -> int:
    """Key derivations hash the seed as 8 big-endian bytes."""
    if not 0 <= seed < 2 ** 64:
        raise ShapeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _check_channel_order(profile: ChannelProfile, n: int) -> None:
    if profile.max_delay >= n:
        raise ShapeError(f"channel order {profile.max_delay} must be < n = {n}")


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ShapeError(f"workers must be >= 1, got {workers}")


# Run-size bounds, checked when a config is built (README "Config files"):
# one array of a task holds at most _MAX_SAMPLES values, 1 GiB as
# complex128, and one run passes at most _MAX_WORK samples through its chain.
_MAX_SAMPLES = 2 ** 26
_MAX_WORK = 2 ** 40


def _check_size(what: str, amount: int, bound: int) -> None:
    if amount > bound:
        raise ShapeError(f"{what} must be at most {bound}, got {amount}")


def _run(stream, entry, workers: int, threads: bool = False) -> TrialReport:
    """Compute a stream's tasks through entry, fold each result into the
    stream as soon as it is taken, in task order, and return stream.report().

    stream.tasks() picks each task only when asked, from the results folded by
    then.  One worker computes each task in this thread, and folds it before it
    asks for the next.  More workers are processes or, given threads, threads of
    this process, at most one per CPU (fork starts them all at once), each in
    its own chain buffers; they keep 2 * workers tasks in flight.  After each
    result, those whose point has stopped(task) are let go: one not yet started
    is cancelled and folded as None, and one already running is not waited for.
    When the run ends or raises, the tasks not yet started are cancelled.
    """
    _check_workers(workers)
    try:
        if workers == 1:
            for task in stream.tasks():
                stream.fold(task, entry(task))
        else:
            # The thread module of concurrent.futures loads here, not on import.
            pool = concurrent.futures.ThreadPoolExecutor if threads else ProcessPoolExecutor
            executor = pool(max_workers=min(workers, os.cpu_count() or 1))
            try:
                tasks, pending = stream.tasks(), deque()
                while True:
                    for task, future in [item for item in pending if stream.stopped(item[0])]:
                        if future.cancel():
                            stream.fold(task, None)
                    pending = deque(item for item in pending if not stream.stopped(item[0]))
                    pending.extend((task, executor.submit(entry, task))
                                   for task in itertools.islice(tasks, 2 * workers - len(pending)))
                    if not pending:
                        break
                    task, future = pending.popleft()
                    stream.fold(task, future.result())
            finally:
                executor.shutdown(cancel_futures=True)
    finally:
        # the calling thread's chain buffers; an executor's end with its threads or processes
        vars(_chain_cache).pop("buffers", None)
    return stream.report()


class _SumStream:
    """A fixed count of tasks per point, none cut short.  Each task returns
    its (bit errors, bits, symbol errors, symbols), summed into its point,
    task[1]; rows[point](*sums) is the point's CSV row."""

    def __init__(self, tasks, rows, trials: int):
        self.tasks, self.rows, self.sums = (lambda: tasks), rows, [(0, 0, 0, 0)] * len(rows)
        self.stops = (PointStop("block-cap", submitted=trials, cancelled=0),) * len(rows)

    def stopped(self, task) -> bool:
        return False

    def fold(self, task, counts) -> None:
        self.sums[task[1]] = tuple(map(sum, zip(self.sums[task[1]], counts)))

    def report(self) -> TrialReport:
        return TrialReport(tuple(row(*s) for row, s in zip(self.rows, self.sums)), self.stops)


def _error_counts(tx_idx: np.ndarray, rx_idx: np.ndarray) -> np.ndarray:
    """(rows, 2) int64 bit and symbol errors in each row (first axis) of tx_idx.

    rx_idx holds the decided QAM indices in the same order, in any shape.
    """
    diff = (tx_idx ^ rx_idx.reshape(tx_idx.shape)).reshape(len(tx_idx), -1)
    bit_errors = np.bitwise_count(diff).sum(axis=1, dtype=np.int64)
    return np.stack([bit_errors, np.count_nonzero(diff, axis=1)], axis=1)


def _derive_key_from_seed(seed: int) -> SecretKey:
    raw = hashlib.sha256(b"permofdm simulation key" + int(seed).to_bytes(8, "big")).digest()
    return SecretKey(raw)


# ---------------------------------------------------------------------------
# BER over the full encrypt -> fade -> equalize -> decrypt chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BerExperimentConfig:
    seed: int
    n: int = 256
    m: int = 4
    n_cp: int = 16
    interleaver: Interleaver = "transpose"
    l_depth: int = 1                # symbols per keyed interleaving block
    equalizer: EqualizerKind = field(default_factory=EqualizerKind)
    snr_db: tuple[float, ...] = (10.0,)
    blocks: int = 200
    min_blocks: Optional[int] = None
    min_errors: int = 200
    max_bits: float = 1e8
    channel: ChannelModel = "rayleigh"
    profile: ChannelProfile = FIVE_TAP_PROFILE
    key: Optional[SecretKey] = None

    def __post_init__(self):
        _check_seed(self.seed)
        if self.n < 4 or self.n & (self.n - 1):
            raise ShapeError("n must be a power of two >= 4")
        if self.interleaver not in get_args(Interleaver):
            raise ShapeError(f"unknown interleaver {self.interleaver!r}")
        if self.channel not in get_args(ChannelModel):
            raise ShapeError(f"unknown channel model {self.channel!r}")
        if self.l_depth < 1:
            raise ShapeError("l_depth must be >= 1")
        if self.blocks < 1:
            raise ShapeError("blocks must be >= 1")
        QamConstellation.square(self.m)
        if not 0 <= self.n_cp <= self.n:
            raise ShapeError(f"n_cp={self.n_cp} outside [0, {self.n}]")
        framed = self.n + self.n_cp
        block = self.symbols_per_block * framed
        _check_size("samples per block, (n, or l_depth if keyed) * (n + n_cp),", block,
                    _MAX_SAMPLES)
        _check_size("l_depth * (n + n_cp)", self.l_depth * framed, _MAX_SAMPLES)
        _check_size("samples per run, blocks * len(snr_db) * samples per block,",
                    self.blocks * len(self.snr_db) * block, _MAX_WORK)
        if self.channel == "rayleigh":
            _check_channel_order(self.profile, self.n)
        if self.min_errors < 0:
            raise ShapeError("min_errors must be >= 0")
        if self.min_blocks is not None and self.min_blocks < 0:
            raise ShapeError("min_blocks must be >= 0 when set")
        if not (math.isfinite(self.max_bits) and self.max_bits > 0):
            raise ShapeError(f"max_bits must be positive and finite, got {self.max_bits}")
        _check_snr_db(self.snr_db)

    @property
    def symbols_per_block(self) -> int:
        return self.n if self.interleaver in ("none", "transpose") else self.l_depth

    def resolve_key(self) -> SecretKey:
        return self.key if self.key is not None else _derive_key_from_seed(self.seed)


def _chunk_permutation(cfg: BerExperimentConfig, point_index: int, b0: int, b1: int):
    """The permutation of blocks [b0, b1) of one point, or None when not interleaved."""
    if cfg.interleaver == "transpose":
        return transpose_interleaver(cfg.n)
    if cfg.interleaver == "none":
        return None
    key, base = cfg.resolve_key(), point_index * cfg.blocks
    size = cfg.symbols_per_block * cfg.n
    return derive_permutations(key, range(base + b0, base + b1), size)


# Per thread, the two buffers of the last chunk geometry; see _chain_buffers.
_chain_cache = threading.local()


def _chain_buffers(task):
    """The two (count, l_eff, framed) complex128 buffers that the signal
    stages of a chunk task write in turn.  They are kept per thread and
    reused while l_eff and the framed length stay and count fits, so stages
    take no fresh pages.  _run drops the calling thread's."""
    cfg, count = task[0], task[4] - task[3]
    shape = (cfg.symbols_per_block, cfg.n + cfg.n_cp)
    cached = getattr(_chain_cache, "buffers", None)
    if cached is None or cached[0].shape[1:] != shape or len(cached[0]) < count:
        cached = _chain_cache.buffers = [np.empty((count, *shape), dtype=np.complex128)
                                         for _ in range(2)]
    return [buf[:count] for buf in cached]


def _ber_chunk_entry(task):
    """Blocks [b0, b1) of one point: (b1 - b0, 2) bit and symbol errors per block.

    Block b draws its channel taps, bits and noise, in that order, from
    default_rng((seed, point_index, b)); every stage then runs once on the
    blocks stacked along a leading axis, writing into whichever of this
    thread's two chain buffers its input is not in.  The noise is drawn into
    the buffer the convolution left free and then added.  So a chunk
    allocates only the bits and the narrow point indices at full size.
    """
    cfg, point_index, snr_db, b0, b1 = task
    rngs = [np.random.default_rng((cfg.seed, point_index, b)) for b in range(b0, b1)]
    count, n, n_cp, l_eff = b1 - b0, cfg.n, cfg.n_cp, cfg.symbols_per_block
    const = QamConstellation.square(cfg.m)
    k = const.bits_per_symbol
    perm = _chunk_permutation(cfg, point_index, b0, b1)  # built before the buffers fill
    a, b = _chain_buffers(task)

    def spare(x, framed=False):
        """The chain buffer x is not in: framed, or its head as (count, l_eff, n)."""
        s = a if np.may_share_memory(x, b) else b
        return s if framed else s.reshape(-1)[:count * l_eff * n].reshape(count, l_eff, n)

    if cfg.channel == "awgn":
        taps = np.ones((count, 1), dtype=np.complex128)
    else:
        taps = np.stack([draw_rayleigh_channel(cfg.profile, rng) for rng in rngs])
    h = freq_response(taps, n)

    bits = np.stack([rng.integers(0, 2, size=(l_eff, n, k), dtype=np.uint8) for rng in rngs])
    noise = NoiseSpec.from_snr_db(snr_db)
    tx_idx, x = qam_symbols(bits, const, out=spare(b))
    x = ifft_modulate(x, out=spare(x))
    if perm is not None:
        x = encrypt_block(x, perm, out=spare(x))
    x = add_cp(x, n_cp, out=spare(x, framed=True)).reshape(count, -1)
    x = apply_channel_stream(x, taps, out=spare(x, framed=True).reshape(count, -1))
    z = awgn_draws(noise, rngs, spare(x, framed=True).view(np.float64).reshape(count, 2, -1))
    x.real += z[:, 0]
    x.imag += z[:, 1]

    x = remove_cp(x.reshape(count, l_eff, n + n_cp), n, n_cp)
    x = equalize(x, h[:, None, :], cfg.equalizer, snr=noise.snr, out=spare(x))
    if perm is not None:
        x = decrypt_block(x, perm, out=spare(x))
    rx_idx = qam_point_indices(fft_demodulate(x, out=x), const)
    return _error_counts(tx_idx, rx_idx)


@dataclass
class _PointTally:
    """One BER point's folded counts; blocks [0, next_block) are submitted."""

    index: int
    snr_db: float
    taken: int = 0
    bit_errors: int = 0
    squared_bit_errors: int = 0  # summed over blocks, for the spread between them
    symbol_errors: int = 0
    next_block: int = 0
    cancelled: int = 0
    reason: Optional[StopReason] = None


class _BerStream:
    """Every point of one BER run, as one stream of chunk tasks.

    fold() takes each point's blocks in index order until the stopping rule
    holds; tasks() picks the next chunk only when asked, from what has been
    folded by then, so the chunks submitted depend only on the results.
    """

    def __init__(self, cfg: BerExperimentConfig):
        self.cfg = cfg
        self.min_blocks = cfg.min_blocks if cfg.min_blocks is not None else min(200, cfg.blocks)
        self.syms = cfg.symbols_per_block * cfg.n
        self.bits = self.syms * QamConstellation.square(cfg.m).bits_per_symbol
        self.most = max(1, PASS_SAMPLES // (cfg.symbols_per_block * (cfg.n + cfg.n_cp)))
        # The fewest blocks that reach a cap; exact, as the size bounds keep blocks * bits < 2**53.
        self.cap = min(cfg.blocks, math.ceil(cfg.max_bits / self.bits))
        self.points = [_PointTally(pi, float(snr_db)) for pi, snr_db in enumerate(cfg.snr_db)]

    def _predicted_stop(self, p: _PointTally) -> int:
        """The block count p is predicted to stop at, above its blocks taken:
        the point's running error rate extrapolated to the error budget, and
        with no error yet the cap."""
        need = self.cfg.min_errors - p.bit_errors
        more = 0 if need <= 0 else -(-need * p.taken // p.bit_errors) if p.bit_errors else self.cap
        return max(min(max(self.min_blocks, p.taken + more), self.cap), p.taken + 1)

    def _next_chunk(self):
        live = [p for p in self.points if p.reason is None]
        # Chunks the predictions say are needed, earliest point first.  A
        # point with no block folded yet needs only its first chunk.
        for p in live:
            if p.taken or not p.next_block:
                stop = self._predicted_stop(p)
                if p.next_block < stop:
                    return p, min(stop, p.next_block + self.most)
        # Past every prediction, which one worker never is, as it folds each
        # chunk before it asks, speculate on the earliest open point, up to
        # its cap: no point takes a block past it.
        for p in live:
            if p.next_block < self.cap:
                return p, min(self.cap, p.next_block + self.most)
        return None

    def tasks(self):
        """The chunk tasks, each picked when asked; they end when every point
        has stopped or none is left to speculate on."""
        while (chunk := self._next_chunk()) is not None:
            p, b1 = chunk
            b0, p.next_block = p.next_block, b1
            yield self.cfg, p.index, p.snr_db, b0, b1

    def stopped(self, task) -> bool:
        return self.points[task[1]].reason is not None

    def fold(self, task, counts) -> None:
        """Take a chunk's blocks in order up to the stop, by the error budget or
        at self.cap; counts is None for a chunk cancelled before it started."""
        cfg, p, (b0, b1) = self.cfg, self.points[task[1]], task[3:5]
        if counts is None:
            p.cancelled += b1 - b0
            return
        for block_be, block_se in counts.tolist():
            p.taken += 1
            p.bit_errors += block_be
            p.squared_bit_errors += block_be * block_be
            p.symbol_errors += block_se
            if p.taken >= self.min_blocks and p.bit_errors >= cfg.min_errors:
                p.reason = "error-budget"
            elif p.taken == self.cap:
                p.reason = "bit-cap" if p.taken * self.bits >= cfg.max_bits else "block-cap"
            if p.reason is not None:
                return

    def report(self) -> TrialReport:
        cfg = self.cfg
        rows = tuple(PointResult.from_counts(
            "ber", cfg.n, cfg.m, cfg.interleaver, cfg.equalizer.variant, p.snr_db, 0,
            trials=p.taken, bit_errors=p.bit_errors, bits=p.taken * self.bits,
            symbol_errors=p.symbol_errors, symbols=p.taken * self.syms) for p in self.points)
        stops = tuple(PointStop(p.reason, p.next_block, p.cancelled, *self._spread(p))
                      for p in self.points)
        return TrialReport(points=rows, stops=stops)

    def _spread(self, p: _PointTally) -> tuple:
        """p's (ber_se, design_effect), from its b blocks of self.bits bits
        each, its e errors in n bits, and the sum of its squared block errors."""
        b, n, e = p.taken, p.taken * self.bits, p.bit_errors
        if b < 2:
            return None, None
        spread = b * p.squared_bit_errors - e * e  # (b - 1) n^2 SE^2, exact
        deff = spread * n / ((b - 1) * e * (n - e)) if 0 < e < n else None
        return math.sqrt(spread / ((b - 1) * n * n)), deff


def run_ber_experiment(cfg: BerExperimentConfig, workers: int = 1) -> TrialReport:
    _check_workers(workers)  # a bad worker count is refused before any warning
    if cfg.channel == "rayleigh" and cfg.profile.max_delay > cfg.n_cp:
        warnings.warn(f"channel memory {cfg.profile.max_delay} exceeds cyclic prefix "
                      f"{cfg.n_cp}; inter-block interference will leak", stacklevel=2)
    # One worker computes blocks over the pass budget on two threads.
    threads = workers == 1 and cfg.symbols_per_block * (cfg.n + cfg.n_cp) > PASS_SAMPLES
    return _run(_BerStream(cfg), _ber_chunk_entry, 2 if threads else workers, threads=threads)


# ---------------------------------------------------------------------------
# symbol error rate of an eavesdropper who knows only part of the ordering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SerAttackConfig:
    """Receiver-side disorder sweep: k_mixed of the N time samples land in
    an unknown (uniformly random) order while the rest keep their relative
    positions, then the block is demodulated as if it were in order."""

    seed: int
    n: int = 256
    m_values: tuple[int, ...] = (4, 16, 64)
    k_values: tuple[int, ...] = (0, 8, 16, 32, 56, 128, 256)
    snr_db: float = 30.0
    trials: int = 400  # OFDM symbols per (M, k) point

    def __post_init__(self):
        _check_seed(self.seed)
        if self.n < 4 or self.n & (self.n - 1):
            raise ShapeError("n must be a power of two >= 4")
        if not self.m_values or not self.k_values:
            raise ShapeError("m_values and k_values need at least one value each")
        for m in self.m_values:
            QamConstellation.square(m)
        if any(k < 0 or k > self.n for k in self.k_values):
            raise ShapeError("k values must lie in [0, n]")
        if self.trials < 1:
            raise ShapeError("trials must be >= 1")
        _check_size(f"samples per task, {_SER_CHUNK} * n,", _SER_CHUNK * self.n, _MAX_SAMPLES)
        grid = len(self.m_values) * len(self.k_values)
        _check_size("samples per run, len(m_values) * len(k_values) * trials * n,",
                    grid * self.trials * self.n, _MAX_WORK)
        _check_snr_db((self.snr_db,))


def mixing_map(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """The disorder of one n-sample symbol as a map for encrypt_block: a
    uniform k-subset of positions is removed, the survivors close the gap in
    their relative order, and the removed ones follow in uniformly random
    order.  k == 0 is the identity and draws nothing."""
    if k == 0:
        return np.arange(n)
    pos = rng.choice(n, size=k, replace=False)
    kept = np.ones(n, dtype=bool)
    kept[pos] = False
    return np.concatenate([np.flatnonzero(kept), pos[rng.permutation(k)]])


def _ser_chunk_entry(task):
    cfg, point_index, m, k_mixed, chunk_index, count = task
    rng = np.random.default_rng((cfg.seed, point_index, chunk_index))
    const = QamConstellation.square(m)
    noise = NoiseSpec.from_snr_db(cfg.snr_db)

    k = const.bits_per_symbol
    tx_idx, d = qam_symbols(rng.integers(0, 2, size=(count, cfg.n, k), dtype=np.uint8), const)
    maps = Permutation(map=np.stack([mixing_map(cfg.n, k_mixed, rng) for _ in range(count)]))
    y = add_awgn(encrypt_block(ifft_modulate(d), maps), noise, rng)
    rx_idx = qam_point_indices(fft_demodulate(y), const)
    bit_errors, symbol_errors = _error_counts(tx_idx, rx_idx).sum(axis=0).tolist()
    return bit_errors, tx_idx.size * k, symbol_errors, tx_idx.size


def run_ser_attack_experiment(cfg: SerAttackConfig, workers: int = 1) -> TrialReport:
    points = [(m, k) for m in cfg.m_values for k in cfg.k_values]
    tasks = ((cfg, pi, m, k, ci, min(_SER_CHUNK, cfg.trials - start))
             for pi, (m, k) in enumerate(points)
             for ci, start in enumerate(range(0, cfg.trials, _SER_CHUNK)))
    rows = [partial(PointResult.from_counts, "attack-ser", cfg.n, m, "sample-mix", "none",
                    float(cfg.snr_db), int(k), cfg.trials) for m, k in points]
    return _run(_SumStream(tasks, rows, cfg.trials), _ser_chunk_entry, workers)


# ---------------------------------------------------------------------------
# noise-averaging permutation recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackRecoveryConfig:
    """Averaging attack on a known probe block observed `repeats` times at
    snr_db, repeated over `trials` independent experiments.  With
    fresh_perm_per_block the legitimate side re-keys every observation."""

    seed: int
    size: int = 64
    snr_db: float = 0.0
    repeats: int = 10000
    trials: int = 20
    fresh_perm_per_block: bool = False
    key: Optional[SecretKey] = None

    def __post_init__(self):
        _check_seed(self.seed)
        if self.size < 2:
            raise ShapeError("size must be >= 2")
        if self.repeats < 1 or self.trials < 1:
            raise ShapeError("repeats and trials must be >= 1")
        _check_size("samples per trial, repeats * size,", self.repeats * self.size, _MAX_SAMPLES)
        _check_size("samples per run, trials * repeats * size,",
                    self.trials * self.repeats * self.size, _MAX_WORK)
        _check_snr_db((self.snr_db,))

    def resolve_key(self) -> SecretKey:
        return self.key if self.key is not None else _derive_key_from_seed(self.seed)


def _recovery_trial_entry(task):
    cfg, _, trial_index = task
    rng = np.random.default_rng((cfg.seed, 0, trial_index))
    size = cfg.size
    key = cfg.resolve_key()
    noise = NoiseSpec.from_snr_db(cfg.snr_db)
    x = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)

    # A fixed map serves every observation; fresh maps give one each.
    base = trial_index * cfg.repeats
    perm = derive_permutations(
        key, range(base, base + (cfg.repeats if cfg.fresh_perm_per_block else 1)), size)
    obs = np.broadcast_to(encrypt_block(x, perm), (cfg.repeats, size))
    est = averaging_attack(x, add_awgn(obs, noise, rng))
    hits = int(round(recovery_rate(est, perm[0]) * size))
    return 0, 0, size - hits, size  # a missed position is a symbol error


def run_attack_recovery_experiment(cfg: AttackRecoveryConfig, workers: int = 1) -> TrialReport:
    row = partial(PointResult.from_counts, "attack-recovery", cfg.size, 0,
                  "fresh" if cfg.fresh_perm_per_block else "fixed", "none", float(cfg.snr_db),
                  int(cfg.repeats), cfg.trials * cfg.size)
    tasks = ((cfg, 0, t) for t in range(cfg.trials))
    return _run(_SumStream(tasks, [row], cfg.trials), _recovery_trial_entry, workers)


# ---------------------------------------------------------------------------
# semi-analytic BER (ensemble average of the AWGN closed form)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnrAnalysisConfig:
    seed: int
    n: int = 256
    m: int = 4
    snr_db: tuple[float, ...] = (10.0,)
    blocks: int = 200
    profile: ChannelProfile = FIVE_TAP_PROFILE
    zf_floor: float = 1e-12

    def __post_init__(self):
        _check_seed(self.seed)
        _check_channel_order(self.profile, self.n)
        QamConstellation.square(self.m)
        if self.blocks < 1:
            raise ShapeError("blocks must be >= 1")
        _check_size("samples per point, blocks * n,", self.blocks * self.n, _MAX_SAMPLES)
        _check_size("samples per run, len(snr_db) * blocks * n,",
                    len(self.snr_db) * self.blocks * self.n, _MAX_WORK)
        if not 0 < self.zf_floor < math.inf:
            raise ShapeError("zf_floor must be positive and finite")
        _check_snr_db(self.snr_db)


def analyze_snr(cfg: SnrAnalysisConfig) -> TrialReport:
    """Semi-analytic scrambled-ZF BER: the channel ensemble is seeded the
    same way as run_ber_experiment blocks, so a Monte-Carlo run with the
    same seed sees the same realizations.  Each row is from_counts of zero
    counts, with the closed-form BER in place of the counted one."""
    rows = []
    for pi, snr_db in enumerate(cfg.snr_db):
        snr = NoiseSpec.from_snr_db(snr_db).snr
        rngs = (np.random.default_rng((cfg.seed, pi, bi)) for bi in range(cfg.blocks))
        ensemble = [freq_response(draw_rayleigh_channel(cfg.profile, rng), cfg.n) for rng in rngs]
        ber = semi_analytic_ber(ensemble, snr, cfg.m, zf_floor=cfg.zf_floor)
        rows.append(replace(PointResult.from_counts(
            "snr-analytic", cfg.n, cfg.m, "transpose", "zf", float(snr_db), 0, cfg.blocks,
            0, 0, 0, 0), ber=ber))
    return TrialReport(points=tuple(rows))


# ---------------------------------------------------------------------------
# per-subcarrier mixing measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IciReport:
    """Measured per-subcarrier decomposition Y_k = alpha_k d_k + beta_k.

    alpha and beta_power have shape (L, N): entry (l, j) refers to
    subcarrier j of symbol l within the interleaving block.  The identity
    |alpha|^2 sigma_d^2 + E|beta|^2 = sigma_d^2 holds per subcarrier.
    """

    alpha: np.ndarray = field(repr=False)
    beta_power: np.ndarray = field(repr=False)
    trials: int = 0

    def to_csv(self) -> str:
        lines = ["l,k,alpha_re,alpha_im,alpha_abs2,beta_power"]
        for (l, k), a in np.ndenumerate(self.alpha):
            cells = (a.real, a.imag, abs(a) ** 2, self.beta_power[l, k])
            lines.append(",".join([str(l), str(k), *map(_fmt, cells)]))
        return "\n".join(lines) + "\n"


def measure_ici(perm: Permutation, trials: int, n: int, m: int = 4,
                seed: int = 0) -> IciReport:
    """Estimate alpha_k = E[Y_k d_k*]/sigma_d^2 and the residual power when
    sending QAM data through permute -> FFT with no channel or noise."""
    if n < 1:
        raise ShapeError(f"n must be >= 1, got {n}")
    if perm.map.ndim != 1 or perm.size % n:
        raise ShapeError(f"need one map whose size is a multiple of n={n}, got {perm.map.shape}")
    if trials < 1:
        raise ShapeError("trials must be >= 1")
    l_eff = perm.size // n
    const = QamConstellation.square(m)
    acc_yd = np.zeros((l_eff, n), dtype=np.complex128)
    acc_yy = np.zeros((l_eff, n), dtype=np.float64)
    acc_dd = np.zeros((l_eff, n), dtype=np.float64)

    # Each chunk of up to 4096 symbols draws from its own generator, and runs
    # in slices of at most PASS_SAMPLES samples, or one map.  A chunk's sums
    # carry across its slices: an axis-0 sum adds rows in order, so they equal
    # the sums over the whole chunk bit for bit.  So does each product: numpy
    # evaluates yf * conj(d) over 256 KiB or more in place in its temporary,
    # as conj(d) * yf, and the two orders round the imaginary part apart, so
    # every slice takes the order of its whole chunk's product.
    chunk = max(1, 4096 // l_eff)
    step = max(1, PASS_SAMPLES // perm.size)
    for ci, done in enumerate(range(0, trials, chunk)):
        count = min(chunk, trials - done)
        swap = count * perm.size * 16 >= 256 * 1024
        rng = np.random.default_rng((seed, ci))
        sums = None
        for start in range(0, count, step):
            d = const.points[rng.integers(0, const.M, size=(min(step, count - start), l_eff, n))]
            yf = fft_demodulate(encrypt_block(ifft_modulate(d), perm))
            pair = (np.conj(d), yf) if swap else (yf, np.conj(d))
            terms = (np.multiply(*pair), np.abs(yf) ** 2, np.abs(d) ** 2)
            if sums is not None:  # the earlier slices' sums as a first row
                terms = [np.concatenate([s[None], t]) for s, t in zip(sums, terms)]
            sums = [t.sum(axis=0) for t in terms]
        for acc, chunk_sum in zip((acc_yd, acc_yy, acc_dd), sums):
            acc += chunk_sum

    alpha = acc_yd / trials  # sigma_d^2 = 1
    beta_power = (
        acc_yy / trials
        - 2.0 * np.real(np.conj(alpha) * acc_yd / trials)
        + np.abs(alpha) ** 2 * acc_dd / trials
    )
    return IciReport(alpha=alpha, beta_power=beta_power, trials=trials)


@dataclass(frozen=True)
class IciConfig:
    """The map measured: a fixed one, one drawn from the seed, the n x n
    transpose interleaver (n^2 samples), or the keyed map of counter ell."""

    seed: int
    n: int = 256
    m: int = 4
    trials: int = 20000
    perm: IciPerm = "random"
    key: Optional[SecretKey] = None  # needed by, and only by, perm "keyed"
    ell: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.perm not in get_args(IciPerm):
            raise ShapeError(f"unknown perm {self.perm!r}")
        if self.n < 1 or self.trials < 1:
            raise ShapeError(f"n and trials must be >= 1, got {self.n} and {self.trials}")
        size = self.n * self.n if self.perm == "transpose" else self.n  # of the map
        # measure_ici runs up to PASS_SAMPLES samples, or one map, at a time
        _check_size("samples per map", size, _MAX_SAMPLES)
        _check_size("samples per run, trials * map size,", self.trials * size, _MAX_WORK)
        QamConstellation.square(self.m)
        if self.perm == "keyed" and self.key is None:
            raise ShapeError("perm 'keyed' needs a key")
        if not 0 <= self.ell < 2 ** 64:
            raise ShapeError(f"ell must fit in an unsigned 64-bit counter, got {self.ell}")


def run_ici_experiment(cfg: IciConfig) -> IciReport:
    if cfg.perm == "identity":
        perm = Permutation.identity(cfg.n)
    elif cfg.perm == "reversal":
        perm = Permutation(map=np.arange(cfg.n, dtype=np.int64)[::-1])
    elif cfg.perm == "random":
        perm = Permutation(map=np.random.default_rng((cfg.seed, 0xFACE)).permutation(cfg.n))
    elif cfg.perm == "transpose":
        perm = transpose_interleaver(cfg.n)
    else:
        perm = derive_permutation(cfg.key, cfg.ell, cfg.n)
    return measure_ici(perm, cfg.trials, cfg.n, m=cfg.m, seed=cfg.seed)
