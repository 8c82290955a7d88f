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


def _floor_response(h: np.ndarray, eps: float) -> np.ndarray:
    """Replace |H_k| < eps by eps * H_k/|H_k| (eps itself where H_k == 0)."""
    mag = np.abs(h)
    weak = mag < eps
    if not np.any(weak):
        return h
    out = h.copy()
    zero = mag == 0
    fix = weak & ~zero
    out[fix] = eps * h[fix] / mag[fix]
    out[zero] = eps
    return out


def equalizer_weights(h: np.ndarray, kind: EqualizerKind, snr: float | None = None) -> np.ndarray:
    h = np.asarray(h, dtype=np.complex128)
    if kind.variant == "mmse":
        if snr is None or snr <= 0:
            raise ShapeError("mmse weights need a positive snr")
        w = np.conj(h) / (np.abs(h) ** 2 + 1.0 / snr)
    else:
        heff = h
        if kind.fade_bias is not None:
            mag = np.abs(h)
            weak = mag < kind.fade_bias
            heff = h.copy()
            nz = weak & (mag > 0)
            heff[nz] = h[nz] * (mag[nz] + kind.fade_bias) / mag[nz]
            heff[weak & (mag == 0)] = kind.fade_bias
        w = 1.0 / _floor_response(heff, kind.zf_floor)
    if kind.discard_below is not None:
        w = w.copy()
        w[np.abs(h) < kind.discard_below] = 0.0
    return w


def equalize(y: np.ndarray, h: np.ndarray, kind: EqualizerKind, snr: float | None = None) -> np.ndarray:
    """Equalize rows of time-domain samples in the frequency domain.

    h broadcasts against y: an (N,) response serves every row of y, and a
    (B, 1, N) stack gives each (L, N) block of a (B, L, N) y its own channel.
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if y.shape[-1] != h.shape[-1] or h.ndim > y.ndim:
        raise ShapeError(f"blocks of shape {y.shape} do not match responses of shape {h.shape}")
    w = equalizer_weights(h, kind, snr)
    return ifft_modulate(fft_demodulate(y) * w)


def noise_mixing_row(h: np.ndarray) -> np.ndarray:
    """Row 0 of the circulant V = F^H diag(1/H) F that maps pre-FFT noise to
    de-permuted noise: entry m is (1/N) sum_k eps^{-mk} / H_k."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1 or h.size == 0:
        raise ShapeError("response must be a non-empty 1-D vector")
    if np.any(h == 0):
        raise SingularChannelError("response has a zero bin; apply a floor first")
    return np.fft.fft(1.0 / h) / h.size


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
    """Gray-coded square-QAM bit error rate on AWGN at the given symbol SNR.

    Exact for M = 4; the standard nearest-neighbor expression
    (4/log2 M)(1 - 1/sqrt(M)) Q(sqrt(3 snr/(M-1))) otherwise.
    """
    k = QamConstellation.square(M).bits_per_symbol  # rejects M that are not square QAM
    snr = np.asarray(snr, dtype=np.float64)
    ber = (4.0 / k) * (1.0 - 1.0 / np.sqrt(M)) * qfunc(np.sqrt(3.0 * snr / (M - 1)))
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
