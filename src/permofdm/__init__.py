"""permofdm: link-level simulation of permutation-secured OFDM.

The physical layer scrambles time-domain OFDM samples with a keyed
permutation before transmission; the receiver equalizes per subcarrier
and inverts the permutation.  This package provides the modem, the
keyed cipher, multipath/AWGN channel models, equalizers with noise
analysis, chosen-plaintext attack estimators, and a reproducible
Monte-Carlo harness with a CSV-reporting CLI.
"""

import types

from .channel import (
    ChannelProfile,
    NoiseSpec,
    add_awgn,
    apply_channel_stream,
    draw_rayleigh_channel,
    freq_response,
    rms_delay_spread,
)
from .equalizer import (
    EqualizerKind,
    ber_awgn_qam,
    conditional_snr_zf,
    equalize,
    equalizer_weights,
    noise_mixing_row,
    qfunc,
    semi_analytic_ber,
)
from .errors import (
    AmbiguousMatchWarning,
    BruteForceCostError,
    FramingError,
    IqFormatError,
    KeyFormatError,
    ShapeError,
    SingularChannelError,
)
from .attack import (
    averaging_attack,
    brute_force_attack,
    match_noiseless,
    recovery_rate,
)
from .harness import (
    AttackRecoveryConfig,
    BerExperimentConfig,
    CSV_HEADER,
    FIVE_TAP_PROFILE,
    IciReport,
    PointResult,
    SerAttackConfig,
    SnrAnalysisConfig,
    TrialReport,
    analyze_snr,
    ici_alpha_exact,
    measure_ici,
    mix_samples,
    run_attack_recovery_experiment,
    run_ber_experiment,
    run_ser_attack_experiment,
    wald_halfwidth,
)
from .modem import (
    QamConstellation,
    add_cp,
    fft_demodulate,
    gray_to_binary,
    ifft_modulate,
    qam_demodulate,
    qam_modulate,
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
    keyspace_bits,
    transpose_interleaver,
)

__version__ = "0.1.0"

# Run records report it; the package compiles nothing.
JIT_ENABLED = False

# Every public name bound above; the submodules are not exported.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
