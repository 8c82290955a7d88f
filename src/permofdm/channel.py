"""Multipath Rayleigh channel, AWGN, and the power-delay profile format.

Profiles are text files of `delay power` pairs (integer sample delays,
linear mean powers), one tap per line, `#` comments allowed.  The five-tap
reference profile used by the stock experiments ships as
profiles/paper_sec6.txt.
"""

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True, eq=False)
class ChannelProfile:
    delays: np.ndarray = field(repr=False)
    mean_powers: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=np.int64)
        p = np.asarray(self.mean_powers, dtype=np.float64)
        if d.ndim != 1 or p.shape != d.shape or d.size == 0:
            raise ShapeError("delays and mean_powers must be equal-length 1-D")
        if d[0] != 0 or np.any(np.diff(d) <= 0):
            raise ShapeError("delays must start at 0 and increase strictly")
        if np.any(p < 0) or p.sum() <= 0:
            raise ShapeError("mean powers must be non-negative with positive sum")
        d.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "mean_powers", p)

    @property
    def n_taps(self) -> int:
        return int(self.delays.size)

    @property
    def max_delay(self) -> int:
        return int(self.delays[-1])

    @classmethod
    def from_file(cls, path) -> "ChannelProfile":
        delays, powers = [], []
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ShapeError(f"profile line not 'delay power': {raw!r}")
            delays.append(int(parts[0]))
            powers.append(float(parts[1]))
        return cls(delays=np.array(delays), mean_powers=np.array(powers))


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Dense complex tap vector h[0..max_delay]; zero-power delays are 0."""

    taps: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.taps, dtype=np.complex128)
        if t.ndim != 1 or t.size == 0:
            raise ShapeError("taps must be a non-empty 1-D complex vector")
        t.setflags(write=False)
        object.__setattr__(self, "taps", t)

    @property
    def order(self) -> int:
        return int(self.taps.size - 1)

    def freq_response(self, n: int) -> np.ndarray:
        return freq_response(self.taps, n)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample complex noise power and the matching SNR for unit signal power."""

    sigma_z2: float

    @property
    def snr(self) -> float:
        return 1.0 / self.sigma_z2

    @property
    def snr_db(self) -> float:
        return 10.0 * np.log10(self.snr)

    @classmethod
    def from_snr_db(cls, snr_db: float) -> "NoiseSpec":
        return cls(sigma_z2=10.0 ** (-snr_db / 10.0))


def draw_rayleigh_channel(profile: ChannelProfile, rng: np.random.Generator) -> ChannelRealization:
    """Independent CN(0, p_m) taps at the profile delays (Rayleigh magnitudes)."""
    k = profile.n_taps
    g = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    taps = np.zeros(profile.max_delay + 1, dtype=np.complex128)
    taps[profile.delays] = np.sqrt(profile.mean_powers) * g
    return ChannelRealization(taps=taps)


def freq_response(taps: np.ndarray, n: int) -> np.ndarray:
    """H_k = sum_m h_m exp(-2j pi m k / n) for k = 0..n-1.

    taps is one tap vector or a (B, taps) stack, one channel per row;
    row b of the result is the response of row b.
    """
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.ndim not in (1, 2) or taps.shape[-1] == 0:
        raise ShapeError("taps must be a non-empty 1-D vector or a 2-D stack of them")
    if taps.shape[-1] > n:
        raise ShapeError(f"channel order {taps.shape[-1] - 1} must be < n = {n}")
    return np.fft.fft(taps, n=n, axis=-1)


def apply_channel_stream(stream: np.ndarray, taps: np.ndarray, n_cp: int | None = None) -> np.ndarray:
    """Linear convolution with the taps, truncated to the input length.

    stream and taps are one vector each, or (B, samples) and (B, taps)
    stacks in which row b of the stream passes through row b of the taps.
    When n_cp is given, warns if the channel memory exceeds the cyclic
    prefix (residual inter-block interference would survive CP removal).
    """
    stream = np.asarray(stream, dtype=np.complex128)
    taps = np.asarray(taps, dtype=np.complex128)
    if stream.ndim != taps.ndim or stream.shape[:-1] != taps.shape[:-1] or stream.ndim > 2:
        raise ShapeError(f"stream {stream.shape} and taps {taps.shape} do not pair up row by row")
    if n_cp is not None and taps.shape[-1] - 1 > n_cp:
        warnings.warn(
            f"channel memory {taps.shape[-1] - 1} exceeds cyclic prefix {n_cp}; "
            "inter-block interference will leak",
            stacklevel=2,
        )
    size = stream.shape[-1]
    out = np.empty_like(stream)
    for row, h, o in zip(stream.reshape(-1, size), taps.reshape(-1, taps.shape[-1]),
                         out.reshape(-1, size)):
        o[:] = np.convolve(row, h)[:size]
    return out


def add_awgn(x: np.ndarray, noise: NoiseSpec | float, rng) -> np.ndarray:
    """Add circularly symmetric complex Gaussian noise of total power sigma_z2.

    rng is one Generator for all of x, or a sequence of Generators, one per
    row of x along its first axis; each draws its row's real parts, then
    its imaginary parts, as a single Generator would for that row alone.
    """
    sigma_z2 = noise.sigma_z2 if isinstance(noise, NoiseSpec) else float(noise)
    if sigma_z2 < 0:
        raise ShapeError("noise power must be non-negative")
    out = np.array(x, dtype=np.complex128)
    if isinstance(rng, np.random.Generator):
        draws = rng.standard_normal((2,) + out.shape)  # real parts, then imaginary
    else:
        if len(rng) != len(out):
            raise ShapeError(f"{len(rng)} generators for {len(out)} rows")
        rows = np.empty((len(out), 2) + out.shape[1:])
        for g, row in zip(rng, rows):
            g.standard_normal(out=row)
        draws = rows.swapaxes(0, 1)
    draws *= np.sqrt(sigma_z2 / 2.0)
    out.real += draws[0]
    out.imag += draws[1]
    return out


def rms_delay_spread(profile: ChannelProfile) -> float:
    """Mean-squared delay spread: the power-weighted second central moment
    of the tap delays, in squared sample units."""
    w = profile.mean_powers / profile.mean_powers.sum()
    d = profile.delays.astype(np.float64)
    mean = float(w @ d)
    return float(w @ (d - mean) ** 2)
