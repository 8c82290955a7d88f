"""Monte-Carlo experiment harness.

Reproducibility contract: every random quantity is drawn from a
Generator seeded with the tuple (seed, point_index, block_index), and
early stopping looks only at cumulative counts over blocks taken in
index order.  Results are therefore byte-identical for a given seed no
matter how many worker processes execute the blocks, or how the blocks
are grouped into tasks.

Per-point stopping for BER runs: blocks accumulate until at least
min_errors bit errors AND min_blocks blocks have been seen, or until the
block or total-bit cap is hit.

A BER task is a chunk of consecutive blocks of one point, which runs
through the link chain once as a stack (see _ber_point for the chunk sizes).
"""

import hashlib
import math
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Literal, Optional, get_args

import numpy as np

from .channel import (
    ChannelProfile,
    NoiseSpec,
    add_awgn,
    apply_channel_stream,
    draw_rayleigh_channel,
    freq_response,
)
from .equalizer import EqualizerKind, equalize, semi_analytic_ber
from .errors import ShapeError
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

_SER_CHUNK = 32  # OFDM symbols per task; fixed so results never depend on workers
# Framed samples per BER task at most: many small blocks share a task, and a
# large block (a transpose block at n=256 is 69,632 samples) runs alone.
_CHUNK_SAMPLES = 8192


@dataclass(frozen=True)
class PointResult:
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
        cells = [
            self.experiment, str(self.n), str(self.m), self.interleaver,
            self.equalizer, _fmt(self.snr_db), str(self.k_mixed),
            str(self.trials), str(self.bit_errors), _fmt(self.ber),
            str(self.symbol_errors), _fmt(self.ser), _fmt(self.ci95),
        ]
        return ",".join(cells)


@dataclass(frozen=True)
class TrialReport:
    points: tuple

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + [p.csv_row() for p in self.points]) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            f.write(self.to_csv())


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


@contextmanager
def _task_map(workers: int):
    """Yield imap(entry, tasks), a lazy map whose results come in task order.

    With one worker a task is computed only when its result is taken, so a
    caller that stops early computes nothing past the stop.  A pool keeps
    2 * workers tasks in flight, submitting the next as each result is
    taken; when the caller stops, the tasks not yet started are cancelled.
    """
    _check_workers(workers)
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as executor:
        def imap(entry, tasks):
            pending = deque()
            try:
                for task in tasks:
                    pending.append(executor.submit(entry, task))
                    if len(pending) == 2 * workers:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            finally:
                for future in pending:
                    future.cancel()
        yield imap


def _error_counts(tx_idx: np.ndarray, rx_idx: np.ndarray, k: int) -> np.ndarray:
    """(rows, 2) int64 bit and symbol errors in each row (first axis) of tx_idx.

    rx_idx holds the decided k-bit QAM indices in the same order, in any shape.
    """
    diff = (tx_idx ^ rx_idx.reshape(tx_idx.shape)).reshape(len(tx_idx), -1)
    popcount = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).sum(axis=1, dtype=np.uint8)
    bit_errors = popcount[diff].sum(axis=1, dtype=np.int64)
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


def _ber_chunk_entry(task):
    """Blocks [b0, b1) of one point: (b1 - b0, 2) bit and symbol errors per block.

    Block b draws its channel taps, bits and noise, in that order, from
    default_rng((seed, point_index, b)); every stage then runs once on the
    blocks stacked along a leading axis.
    """
    cfg, point_index, snr_db, b0, b1 = task
    rngs = [np.random.default_rng((cfg.seed, point_index, b)) for b in range(b0, b1)]
    count, n, n_cp, l_eff = b1 - b0, cfg.n, cfg.n_cp, cfg.symbols_per_block
    const = QamConstellation.square(cfg.m)
    k = const.bits_per_symbol

    if cfg.channel == "awgn":
        taps = np.ones((count, 1), dtype=np.complex128)
    else:
        taps = np.stack([draw_rayleigh_channel(cfg.profile, rng) for rng in rngs])
    h = freq_response(taps, n)

    # rebinding x frees each stage's input, so a chunk holds few full-size arrays
    tx_idx, x = qam_symbols(
        np.stack([rng.integers(0, 2, size=(l_eff, n, k), dtype=np.uint8) for rng in rngs]), const)
    x = ifft_modulate(x)
    perm = _chunk_permutation(cfg, point_index, b0, b1)
    x = x if perm is None else encrypt_block(x, perm)

    noise = NoiseSpec.from_snr_db(snr_db)
    x = add_cp(x, n_cp).reshape(count, -1)
    x = add_awgn(apply_channel_stream(x, taps), noise, rngs)

    x = remove_cp(x.reshape(count, l_eff, n + n_cp), n, n_cp)
    x = equalize(x, h[:, None, :], cfg.equalizer, snr=noise.snr)
    x = x if perm is None else decrypt_block(x, perm)
    rx_idx = qam_point_indices(fft_demodulate(x), const)
    return _error_counts(tx_idx, rx_idx, k)


def _ber_point(imap, cfg: BerExperimentConfig, workers: int, point_index: int,
               snr_db: float) -> PointResult:
    """Take one point's blocks in index order until the stopping rule holds.

    One worker computes the next chunk only after folding the last, so it
    ends each chunk at the first block where the rule could stop: the error
    budget needs min_blocks in all and at least ceil(remaining errors / bits
    per block) more, and the bit cap stops at a block known in advance.  A
    pool runs chunks of the most blocks a task may hold.
    """
    min_blocks = cfg.min_blocks if cfg.min_blocks is not None else min(200, cfg.blocks)
    syms = cfg.symbols_per_block * cfg.n
    bits = syms * QamConstellation.square(cfg.m).bits_per_symbol
    most = max(1, _CHUNK_SAMPLES // (cfg.symbols_per_block * (cfg.n + cfg.n_cp)))
    cap = min(cfg.blocks, math.ceil(cfg.max_bits / bits))
    taken = be = se = 0

    def tasks():
        # read when the next task is asked for: at one worker, after the
        # fold below has taken every block of the last chunk
        b0 = 0
        while b0 < cfg.blocks:
            b1 = cfg.blocks
            if workers == 1:
                b1 = min(max(min_blocks, taken - (be - cfg.min_errors) // bits), cap)
            b1 = min(max(b1, b0 + 1), b0 + most)
            yield cfg, point_index, snr_db, b0, b1
            b0 = b1

    blocks = (counts for chunk in imap(_ber_chunk_entry, tasks()) for counts in chunk.tolist())
    for block_be, block_se in blocks:
        taken += 1
        be += block_be
        se += block_se
        if (taken >= min_blocks and be >= cfg.min_errors) or taken * bits >= cfg.max_bits:
            break
    return PointResult.from_counts(
        "ber", cfg.n, cfg.m, cfg.interleaver, cfg.equalizer.variant, snr_db, 0,
        trials=taken, bit_errors=be, bits=taken * bits, symbol_errors=se, symbols=taken * syms)


def run_ber_experiment(cfg: BerExperimentConfig, workers: int = 1) -> TrialReport:
    with _task_map(workers) as imap:
        if cfg.channel == "rayleigh" and cfg.profile.max_delay > cfg.n_cp:
            warnings.warn(f"channel memory {cfg.profile.max_delay} exceeds cyclic prefix "
                          f"{cfg.n_cp}; inter-block interference will leak", stacklevel=2)
        rows = [_ber_point(imap, cfg, workers, pi, float(snr_db))
                for pi, snr_db in enumerate(cfg.snr_db)]
    return TrialReport(points=tuple(rows))


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
        _check_snr_db((self.snr_db,))


def mix_samples(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Displace k samples of x: remove a uniform k-subset, close the gap
    keeping the survivors' relative order, and append the removed samples
    in uniformly random order."""
    n = x.size
    if k == 0:
        return x
    pos = rng.choice(n, size=k, replace=False)
    keep = np.setdiff1d(np.arange(n), pos)
    tail = x[pos][rng.permutation(k)]
    return np.concatenate([x[keep], tail])


def _ser_chunk_entry(task):
    cfg, point_index, m, k_mixed, chunk_index, count = task
    rng = np.random.default_rng((cfg.seed, point_index, chunk_index))
    const = QamConstellation.square(m)
    noise = NoiseSpec.from_snr_db(cfg.snr_db)

    k = const.bits_per_symbol
    tx_idx, d = qam_symbols(rng.integers(0, 2, size=(count, cfg.n, k), dtype=np.uint8), const)
    x = ifft_modulate(d)
    mixed = np.empty_like(x)
    for t in range(count):
        mixed[t] = mix_samples(x[t], k_mixed, rng)
    y = add_awgn(mixed, noise, rng)
    rx_idx = qam_point_indices(fft_demodulate(y), const)
    bit_errors, symbol_errors = _error_counts(tx_idx, rx_idx, k).sum(axis=0).tolist()
    return bit_errors, tx_idx.size * k, symbol_errors, tx_idx.size


def run_ser_attack_experiment(cfg: SerAttackConfig, workers: int = 1) -> TrialReport:
    points = [(m, k) for m in cfg.m_values for k in cfg.k_values]
    rows = []
    with _task_map(workers) as imap:
        for pi, (m, k) in enumerate(points):
            tasks = [(cfg, pi, m, k, ci, min(_SER_CHUNK, cfg.trials - start))
                     for ci, start in enumerate(range(0, cfg.trials, _SER_CHUNK))]
            be, nbits, se, nsyms = map(sum, zip(*imap(_ser_chunk_entry, tasks)))
            rows.append(PointResult.from_counts(
                "attack-ser", cfg.n, m, "sample-mix", "none", float(cfg.snr_db), int(k),
                trials=cfg.trials, bit_errors=be, bits=nbits, symbol_errors=se, symbols=nsyms))
    return TrialReport(points=tuple(rows))


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
        _check_snr_db((self.snr_db,))

    def resolve_key(self) -> SecretKey:
        return self.key if self.key is not None else _derive_key_from_seed(self.seed)


def _recovery_trial_entry(task):
    cfg, trial_index = task
    rng = np.random.default_rng((cfg.seed, 0, trial_index))
    size = cfg.size
    key = cfg.resolve_key()
    noise = NoiseSpec.from_snr_db(cfg.snr_db)
    x = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)

    base = trial_index * cfg.repeats
    if cfg.fresh_perm_per_block:
        perm = derive_permutations(key, range(base, base + cfg.repeats), size)
        truth = perm[0]
        obs = encrypt_block(np.broadcast_to(x, perm.map.shape), perm)
    else:
        truth = derive_permutation(key, base, size)
        obs = np.broadcast_to(encrypt_block(x, truth), (cfg.repeats, size))
    obs = add_awgn(obs, noise, rng)
    est = averaging_attack(x, obs)
    hits = int(round(recovery_rate(est, truth) * size))
    return hits, size


def run_attack_recovery_experiment(cfg: AttackRecoveryConfig, workers: int = 1) -> TrialReport:
    with _task_map(workers) as imap:
        tasks = ((cfg, t) for t in range(cfg.trials))
        hits, total = map(sum, zip(*imap(_recovery_trial_entry, tasks)))
    row = PointResult.from_counts(
        "attack-recovery", cfg.size, 0, "fresh" if cfg.fresh_perm_per_block else "fixed",
        "none", float(cfg.snr_db), int(cfg.repeats),
        trials=total, bit_errors=0, bits=0, symbol_errors=total - hits, symbols=total)
    return TrialReport(points=(row,))


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
        if not 0 < self.zf_floor < math.inf:
            raise ShapeError("zf_floor must be positive and finite")
        _check_snr_db(self.snr_db)


def analyze_snr(cfg: SnrAnalysisConfig) -> TrialReport:
    """Semi-analytic scrambled-ZF BER: the channel ensemble is seeded the
    same way as run_ber_experiment blocks, so a Monte-Carlo run with the
    same seed sees the same realizations."""
    rows = []
    for pi, snr_db in enumerate(cfg.snr_db):
        snr = NoiseSpec.from_snr_db(snr_db).snr
        ensemble = []
        for bi in range(cfg.blocks):
            rng = np.random.default_rng((cfg.seed, pi, bi))
            ensemble.append(freq_response(draw_rayleigh_channel(cfg.profile, rng), cfg.n))
        ber = semi_analytic_ber(ensemble, snr, cfg.m, zf_floor=cfg.zf_floor)
        rows.append(PointResult(
            experiment="snr-analytic",
            n=cfg.n, m=cfg.m,
            interleaver="transpose", equalizer="zf",
            snr_db=float(snr_db), k_mixed=0,
            trials=cfg.blocks,
            bit_errors=0, ber=ber,
            symbol_errors=0, ser=0.0, ci95=0.0,
        ))
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

    @property
    def n(self) -> int:
        return int(self.alpha.shape[-1])


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

    chunk = max(1, 4096 // max(1, l_eff))
    done = 0
    ci = 0
    while done < trials:
        count = min(chunk, trials - done)
        rng = np.random.default_rng((seed, ci))
        idx = rng.integers(0, const.M, size=(count, l_eff, n))
        d = const.points[idx]
        x = ifft_modulate(d)
        yf = fft_demodulate(encrypt_block(x, perm))
        acc_yd += (yf * np.conj(d)).sum(axis=0)
        acc_yy += (np.abs(yf) ** 2).sum(axis=0)
        acc_dd += (np.abs(d) ** 2).sum(axis=0)
        done += count
        ci += 1

    alpha = acc_yd / trials  # sigma_d^2 = 1
    beta_power = (
        acc_yy / trials
        - 2.0 * np.real(np.conj(alpha) * acc_yd / trials)
        + np.abs(alpha) ** 2 * acc_dd / trials
    )
    return IciReport(alpha=alpha, beta_power=beta_power, trials=trials)


def ici_alpha_exact(perm: Permutation, n: int) -> np.ndarray:
    """Closed form of the same coefficient for a single-symbol permutation:
    alpha_k = (1/N) sum_n exp(2j pi k (pi[n] - n) / N)."""
    if perm.map.shape != (n,):
        raise ShapeError("closed form applies to single-symbol permutations")
    k = np.arange(n)[:, None]
    shift = (perm.map - np.arange(n))[None, :]
    return np.exp(2j * np.pi * k * shift / n).mean(axis=1)
