"""Per-subcarrier equalization and post-equalization noise analysis.

equalize() works on time-domain sample blocks (CP already removed):
FFT -> per-bin weight -> IFFT, so the output is again a time-domain
block ready for de-permutation.  Analysis helpers quantify what ZF
equalization does to the noise once samples are scrambled across the
whole block: the de-permuted noise has per-sample variance
sigma_z^2 * mean(|H_k|^-2), identical on every subcarrier, which is the
basis of the semi-analytic BER route.
"""

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import ShapeError, SingularChannelError
from .modem import QamConstellation, fft_demodulate, ifft_modulate


Variant = Literal["zf", "mmse"]


@dataclass(frozen=True)
class EqualizerKind:
    variant: Variant = "zf"
    zf_floor: float = 1e-12
    discard_below: float | None = None
    fade_bias: float | None = None

    def __post_init__(self):
        if self.variant not in get_args(Variant):
            raise ShapeError(f"unknown equalizer variant {self.variant!r}")
        if not 0 < self.zf_floor < math.inf:
            raise ShapeError("zf_floor must be positive and finite")
        for name in ("discard_below", "fade_bias"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ShapeError(f"{name} must be positive and finite when set")


def _floor_response(h: np.ndarray, eps: float, lift=None) -> np.ndarray:
    """Give each H_k with |H_k| < eps the magnitude lift(|H_k|), keeping its
    phase; an exact zero becomes lift(0).  lift defaults to the constant eps."""
    mag = np.abs(h)
    weak = mag < eps
    if not np.any(weak):
        return h
    lift = lift or (lambda m: eps)
    out = h.copy()
    zero = mag == 0
    fix = weak & ~zero
    out[fix] = h[fix] * lift(mag[fix]) / mag[fix]
    out[zero] = lift(0.0)
    return out


def equalizer_weights(h: np.ndarray, kind: EqualizerKind, snr: float | None = None) -> np.ndarray:
    h = np.asarray(h, dtype=np.complex128)
    if kind.variant == "mmse":
        if snr is None or snr <= 0:
            raise ShapeError("mmse weights need a positive snr")
        w = np.conj(h) / (np.abs(h) ** 2 + 1.0 / snr)
    else:
        bias = kind.fade_bias
        heff = h if bias is None else _floor_response(h, bias, lambda m: m + bias)
        w = 1.0 / _floor_response(heff, kind.zf_floor)
    if kind.discard_below is not None:
        w = w.copy()
        w[np.abs(h) < kind.discard_below] = 0.0
    return w


def equalize(y: np.ndarray, h: np.ndarray, kind: EqualizerKind, snr: float | None = None,
             out=None) -> np.ndarray:
    """Equalize rows of time-domain samples in the frequency domain.

    h broadcasts against y: an (N,) response serves every row of y, and a
    (B, 1, N) stack gives each (L, N) block of a (B, L, N) y its own channel.
    out, when given, receives the equalized samples; it may be y itself.
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if y.shape[-1] != h.shape[-1] or h.ndim > y.ndim:
        raise ShapeError(f"blocks of shape {y.shape} do not match responses of shape {h.shape}")
    w = equalizer_weights(h, kind, snr)
    z = fft_demodulate(y, out=out)
    z *= w
    return ifft_modulate(z, out=z)


def conditional_snr_zf(h: np.ndarray, snr: float, zf_floor: float = 0.0) -> float:
    """Post-ZF symbol SNR for a scrambled block: snr / mean(|H_k|^-2)."""
    h = np.asarray(h, dtype=np.complex128)
    if snr <= 0:
        raise ShapeError("snr must be positive")
    if zf_floor > 0:
        h = _floor_response(h, zf_floor)
    elif np.any(h == 0):
        raise SingularChannelError("response has a zero bin and no floor was given")
    return float(snr / np.mean(np.abs(h) ** -2.0))


_erfc = np.frompyfunc(math.erfc, 1, 1)


def qfunc(x):
    """Gaussian tail probability Q(x) = erfc(x / sqrt 2) / 2, elementwise."""
    z = np.asarray(x, dtype=np.float64) / np.sqrt(2.0)
    return 0.5 * np.asarray(_erfc(z), dtype=np.float64)[()]


def ber_awgn_qam(M: int, snr) -> np.ndarray | float:
    """Gray-coded square-QAM bit error rate on AWGN at the given symbol SNR:
    the exact sum of Cho & Yoon (IEEE Trans. Commun. 50(7), 2002), in which
    bit b of an axis's k/2 weights the terms Q((2i + 1) a), a = sqrt(3 snr /
    (M - 1)), with i < (1 - 2^-b) sqrt(M).  At M = 4 it is Q(a)."""
    k = QamConstellation.square(M).bits_per_symbol  # rejects M that are not square QAM
    side, b = math.isqrt(M), np.arange(1, k // 2 + 1)[:, None]
    i = np.arange(side - 1)
    t = i * 2 ** (b - 1)
    weights = np.where(i < side - side // 2 ** b,
                       (-1) ** (t // side) * (2 ** (b - 1) - (t + side // 2) // side), 0)
    a = np.sqrt(3.0 * np.asarray(snr, dtype=np.float64) / (M - 1))
    ber = qfunc(a[..., None] * (2 * i + 1)) @ (weights.sum(axis=0) / (side * k / 4))
    return float(ber) if ber.ndim == 0 else ber


def semi_analytic_ber(h_ensemble, snr: float, M: int, zf_floor: float = 1e-12) -> float:
    """Average the AWGN closed form over per-realization post-ZF SNRs."""
    vals = [
        ber_awgn_qam(M, conditional_snr_zf(h, snr, zf_floor=zf_floor))
        for h in h_ensemble
    ]
    if not vals:
        raise ShapeError("empty channel ensemble")
    return float(np.mean(vals))
