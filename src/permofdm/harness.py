"""Monte-Carlo experiment harness.

Reproducibility contract: every random quantity is drawn from a
Generator seeded with the tuple (seed, point_index, block_index), and
early stopping looks only at cumulative counts over blocks taken in
index order.  Results are therefore byte-identical for a given seed no
matter how many worker processes execute the blocks.

Per-point stopping for BER runs: blocks accumulate until at least
min_errors bit errors AND min_blocks blocks have been seen, or until the
block or total-bit cap is hit.
"""

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

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

_SER_CHUNK = 32  # OFDM symbols per task; fixed so results never depend on workers


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
    if not all(math.isfinite(v) for v in values):
        raise ShapeError(f"snr_db must be finite, got {values}")


def _check_seed(seed: int) -> int:
    """Key derivations hash the seed as 8 big-endian bytes."""
    if not 0 <= seed < 2 ** 64:
        raise ShapeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ShapeError(f"workers must be >= 1, got {workers}")


@contextmanager
def _task_map(workers: int):
    """Yield imap(entry, tasks), a lazy map whose results come in task order.

    With one worker a task is computed only when its result is taken, so a
    caller that stops early computes nothing past the stop.  A pool takes
    the tasks in waves of 4 * workers; the unread rest of a wave is discarded.
    """
    _check_workers(workers)
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as executor:
        def imap(entry, tasks):
            tasks = iter(tasks)
            while wave := list(islice(tasks, 4 * workers)):
                yield from executor.map(entry, wave)
        yield imap


def _draw_symbols(rng: np.random.Generator, const: QamConstellation, shape):
    """Uniform bits packed MSB first into QAM indices of `shape`: (indices, points)."""
    k = const.bits_per_symbol
    bits = rng.integers(0, 2, size=(*shape, k), dtype=np.uint8)
    idx = bits.astype(np.int64) @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))
    return idx, const.points[idx]


def _error_counts(tx_idx: np.ndarray, rx_idx: np.ndarray, k: int):
    """(bit errors, bits, symbol errors, symbols) of k-bit QAM indices."""
    diff = tx_idx.reshape(-1) ^ rx_idx.reshape(-1)
    bit_errors = int((diff[:, None] >> np.arange(k, dtype=np.int64) & 1).sum())
    return bit_errors, diff.size * k, int(np.count_nonzero(diff)), diff.size


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
    interleaver: str = "transpose"  # none | transpose | keyed
    l_depth: int = 1                # symbols per keyed interleaving block
    equalizer: EqualizerKind = field(default_factory=EqualizerKind)
    snr_db: tuple[float, ...] = (10.0,)
    blocks: int = 200
    min_blocks: Optional[int] = None
    min_errors: int = 200
    max_bits: float = 1e8
    channel: str = "rayleigh"       # rayleigh | awgn
    profile: ChannelProfile = FIVE_TAP_PROFILE
    key: Optional[SecretKey] = None

    def __post_init__(self):
        _check_seed(self.seed)
        if self.n < 4 or self.n & (self.n - 1):
            raise ShapeError("n must be a power of two >= 4")
        if self.interleaver not in ("none", "transpose", "keyed"):
            raise ShapeError(f"unknown interleaver {self.interleaver!r}")
        if self.channel not in ("rayleigh", "awgn"):
            raise ShapeError(f"unknown channel model {self.channel!r}")
        if self.l_depth < 1:
            raise ShapeError("l_depth must be >= 1")
        if self.blocks < 1:
            raise ShapeError("blocks must be >= 1")
        QamConstellation.square(self.m)
        if not 0 <= self.n_cp <= self.n:
            raise ShapeError(f"n_cp={self.n_cp} outside [0, {self.n}]")
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


def _block_permutation(cfg: BerExperimentConfig, point_index: int, block_index: int):
    if cfg.interleaver == "transpose":
        return transpose_interleaver(cfg.n)
    if cfg.interleaver == "keyed":
        ell = point_index * cfg.blocks + block_index
        return derive_permutation(cfg.resolve_key(), ell, cfg.l_depth * cfg.n)
    return None


def _ber_block_entry(task):
    """One channel block: returns (bit_errors, bits, symbol_errors, symbols)."""
    cfg, point_index, snr_db, block_index = task
    rng = np.random.default_rng((cfg.seed, point_index, block_index))
    n, n_cp = cfg.n, cfg.n_cp
    const = QamConstellation.square(cfg.m)
    l_eff = cfg.symbols_per_block

    if cfg.channel == "awgn":
        taps = np.ones(1, dtype=np.complex128)
    else:
        taps = draw_rayleigh_channel(cfg.profile, rng).taps
    h = freq_response(taps, n)

    tx_idx, d = _draw_symbols(rng, const, (l_eff, n))
    x = ifft_modulate(d)
    perm = _block_permutation(cfg, point_index, block_index)
    tx = encrypt_block(x, perm) if perm is not None else x

    noise = NoiseSpec.from_snr_db(snr_db)
    stream = add_cp(tx, n_cp).reshape(-1)
    rx = apply_channel_stream(stream, taps)
    rx = add_awgn(rx, noise, rng)

    un = remove_cp(rx.reshape(l_eff, n + n_cp), n, n_cp)
    eq = equalize(un, h, cfg.equalizer, snr=noise.snr)
    s = decrypt_block(eq, perm) if perm is not None else eq
    rx_idx = qam_point_indices(fft_demodulate(s), const)
    return _error_counts(tx_idx, rx_idx, const.bits_per_symbol)


def run_ber_experiment(cfg: BerExperimentConfig, workers: int = 1) -> TrialReport:
    min_blocks = cfg.min_blocks if cfg.min_blocks is not None else min(200, cfg.blocks)
    rows = []
    with _task_map(workers) as imap:
        if cfg.channel == "rayleigh":
            # surface CP violations once, up front
            apply_channel_stream(np.zeros(cfg.n, dtype=complex),
                                 np.zeros(cfg.profile.max_delay + 1, dtype=complex),
                                 n_cp=cfg.n_cp)
        for pi, snr_db in enumerate(cfg.snr_db):
            be = nbits = se = nsyms = 0
            tasks = ((cfg, pi, float(snr_db), bi) for bi in range(cfg.blocks))
            for taken, r in enumerate(imap(_ber_block_entry, tasks), 1):
                be += r[0]; nbits += r[1]; se += r[2]; nsyms += r[3]
                if (taken >= min_blocks and be >= cfg.min_errors) or nbits >= cfg.max_bits:
                    break
            rows.append(PointResult(
                experiment="ber",
                n=cfg.n, m=cfg.m,
                interleaver=cfg.interleaver,
                equalizer=cfg.equalizer.variant,
                snr_db=float(snr_db), k_mixed=0,
                trials=taken,
                bit_errors=be, ber=be / nbits if nbits else 0.0,
                symbol_errors=se, ser=se / nsyms if nsyms else 0.0,
                ci95=wald_halfwidth(be, nbits),
            ))
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

    tx_idx, d = _draw_symbols(rng, const, (count, cfg.n))
    x = ifft_modulate(d)
    mixed = np.empty_like(x)
    for t in range(count):
        mixed[t] = mix_samples(x[t], k_mixed, rng)
    y = add_awgn(mixed, noise, rng)
    rx_idx = qam_point_indices(fft_demodulate(y), const)
    return _error_counts(tx_idx, rx_idx, const.bits_per_symbol)


def run_ser_attack_experiment(cfg: SerAttackConfig, workers: int = 1) -> TrialReport:
    points = [(m, k) for m in cfg.m_values for k in cfg.k_values]
    rows = []
    with _task_map(workers) as imap:
        for pi, (m, k) in enumerate(points):
            tasks = [(cfg, pi, m, k, ci, min(_SER_CHUNK, cfg.trials - start))
                     for ci, start in enumerate(range(0, cfg.trials, _SER_CHUNK))]
            be, nbits, se, nsyms = map(sum, zip(*imap(_ser_chunk_entry, tasks)))
            rows.append(PointResult(
                experiment="attack-ser",
                n=cfg.n, m=m,
                interleaver="sample-mix", equalizer="none",
                snr_db=float(cfg.snr_db), k_mixed=int(k),
                trials=cfg.trials,
                bit_errors=be, ber=be / nbits if nbits else 0.0,
                symbol_errors=se, ser=se / nsyms if nsyms else 0.0,
                ci95=wald_halfwidth(se, nsyms),
            ))
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
        maps = derive_permutations(key, range(base, base + cfg.repeats), size)
        truth = Permutation(map=maps[0], block_index=base)
        obs = x[maps]
    else:
        truth = derive_permutation(key, base, size)
        obs = np.broadcast_to(encrypt_block(x, truth), (cfg.repeats, size)).copy()
    obs = add_awgn(obs, noise, rng)
    est = averaging_attack(x, obs)
    hits = int(round(recovery_rate(est, truth) * size))
    return hits, size


def run_attack_recovery_experiment(cfg: AttackRecoveryConfig, workers: int = 1) -> TrialReport:
    with _task_map(workers) as imap:
        tasks = ((cfg, t) for t in range(cfg.trials))
        hits, total = map(sum, zip(*imap(_recovery_trial_entry, tasks)))
    misses = total - hits
    row = PointResult(
        experiment="attack-recovery",
        n=cfg.size, m=0,
        interleaver="fresh" if cfg.fresh_perm_per_block else "fixed",
        equalizer="none",
        snr_db=float(cfg.snr_db), k_mixed=int(cfg.repeats),
        trials=total,
        bit_errors=0, ber=0.0,
        symbol_errors=misses, ser=misses / total,
        ci95=wald_halfwidth(misses, total),
    )
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
        QamConstellation.square(self.m)
        if self.blocks < 1:
            raise ShapeError("blocks must be >= 1")
        if self.zf_floor <= 0:
            raise ShapeError("zf_floor must be positive")
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
            taps = draw_rayleigh_channel(cfg.profile, rng).taps
            ensemble.append(freq_response(taps, cfg.n))
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
    if perm.size % n:
        raise ShapeError(f"permutation size {perm.size} is not a multiple of n={n}")
    if trials < 1:
        raise ShapeError("trials must be >= 1")
    l_eff = perm.size // n
    const = QamConstellation.square(m)
    kbits = const.bits_per_symbol
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
        y = x.reshape(count, -1)[:, perm.map].reshape(count, l_eff, n)
        yf = fft_demodulate(y)
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
    if perm.size != n:
        raise ShapeError("closed form applies to single-symbol permutations")
    k = np.arange(n)[:, None]
    shift = (perm.map - np.arange(n))[None, :]
    return np.exp(2j * np.pi * k * shift / n).mean(axis=1)
