"""Multipath Rayleigh channel, AWGN, and the power-delay profile format.

Profiles are text files of `delay power` pairs (integer sample delays,
linear mean powers), one tap per line, `#` comments allowed.  The five-tap
reference profile used by the stock experiments ships as
profiles/paper_sec6.txt.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import PASS_SAMPLES, ShapeError, out_array
from .fileio import read_text


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
        with np.errstate(over="ignore"):  # a sum that overflows is inf; a NaN power fails too
            if np.any(p < 0) or not 0 < p.sum() < np.inf:
                raise ShapeError("mean powers must be non-negative with a positive, finite sum")
        d.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "mean_powers", p)

    @property
    def max_delay(self) -> int:
        return int(self.delays[-1])

    @classmethod
    def from_file(cls, path) -> "ChannelProfile":
        delays, powers = [], []
        for lineno, raw in enumerate(read_text(path).splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                delay, power = line.split()
                delays.append(int(delay))
                powers.append(float(power))
            except ValueError:
                raise ShapeError(
                    f"{path}:{lineno}: profile line not 'delay power': {raw!r}") from None
        return cls(delays=np.array(delays), mean_powers=np.array(powers))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample complex noise power and the matching SNR for unit signal power."""

    sigma_z2: float

    @property
    def snr(self) -> float:
        """1 / sigma_z2; infinite for a zero noise power."""
        return 1.0 / self.sigma_z2 if self.sigma_z2 else np.inf

    @classmethod
    def from_snr_db(cls, snr_db: float) -> "NoiseSpec":
        return cls(sigma_z2=10.0 ** (-snr_db / 10.0))


def draw_rayleigh_channel(profile: ChannelProfile, rng: np.random.Generator) -> np.ndarray:
    """Independent CN(0, p_m) taps at the profile delays (Rayleigh magnitudes),
    as a read-only complex128 vector h[0..max_delay] that is 0 at other delays."""
    k = profile.delays.size
    g = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    taps = np.zeros(profile.max_delay + 1, dtype=np.complex128)
    taps[profile.delays] = np.sqrt(profile.mean_powers) * g
    taps.setflags(write=False)
    return taps


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


def apply_channel_stream(stream: np.ndarray, taps: np.ndarray, out=None) -> np.ndarray:
    """Linear convolution with the taps, truncated to the input length.

    stream and taps are one vector each, or (B, samples) and (B, taps)
    stacks in which row b of the stream passes through row b of the taps.
    out, when given, receives the result and must not overlap stream.

    Each row is convolved in segments of PASS_SAMPLES outputs, or of the
    taps if longer: the first in np.convolve's full mode, the rest in its
    valid mode over the segment and the taps - 1 samples before it.  Every
    output sample is then the same dot product, term for term, as in one
    full-mode call on the whole row.
    """
    stream = np.asarray(stream, dtype=np.complex128)
    taps = np.asarray(taps, dtype=np.complex128)
    if stream.ndim != taps.ndim or stream.shape[:-1] != taps.shape[:-1] or stream.ndim > 2:
        raise ShapeError(f"stream {stream.shape} and taps {taps.shape} do not pair up row by row")
    out = out_array(out, stream.shape, np.complex128)
    if np.may_share_memory(stream, out):
        raise ShapeError("out must not overlap stream")
    size, t = stream.shape[-1], taps.shape[-1]
    seg = max(PASS_SAMPLES, t)
    first = min(seg, size)
    for row, h, o in zip(stream.reshape(-1, size), taps.reshape(-1, t), out.reshape(-1, size)):
        o[:first] = np.convolve(row[:first], h)[:first]
        for s in range(seg, size, seg):
            o[s:s + seg] = np.convolve(row[s - t + 1:s + seg], h, mode="valid")
    return out


def awgn_draws(noise: NoiseSpec | float, gens, out: np.ndarray) -> np.ndarray:
    """The scaled normal draws of the noise, into out, a float64 array with one
    row per Generator in gens: row i is filled, in C order, by one
    standard_normal call of gens[i].  The BER chunk's (rows, 2, r) out takes,
    in row i, the real parts, then the imaginary parts, of block i's noise on
    r samples; add_awgn passes one (1, w) window at a time."""
    sigma_z2 = noise.sigma_z2 if isinstance(noise, NoiseSpec) else float(noise)
    if not 0 <= sigma_z2 < np.inf:
        raise ShapeError(f"noise power must be finite and non-negative, got {sigma_z2}")
    if len(gens) != len(out):
        raise ShapeError(f"{len(gens)} generators for {len(out)} rows")
    for g, row in zip(gens, out):
        g.standard_normal(out=row)
    out *= np.sqrt(sigma_z2 / 2.0)
    return out


def add_awgn(x: np.ndarray, noise: NoiseSpec | float, rng: np.random.Generator) -> np.ndarray:
    """x plus circularly symmetric complex Gaussian noise of total power sigma_z2,
    as a new C-ordered complex128 array.

    rng draws the real parts of every sample in C order, then the imaginary
    parts, through awgn_draws PASS_SAMPLES draws at a time; the values are those
    of one standard_normal call of 2 * x.size draws.
    """
    out = np.array(x, dtype=np.complex128, order="C")  # so flat below is a view
    flat = out.reshape(-1)
    window = np.empty((1, min(flat.size, PASS_SAMPLES)))
    for part in (flat.real, flat.imag):
        for s in range(0, max(flat.size, 1), PASS_SAMPLES):  # an empty x is checked too
            part[s:s + PASS_SAMPLES] += awgn_draws(noise, [rng], window[:, :flat.size - s])[0]
    return out

