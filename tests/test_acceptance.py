"""Acceptance suite: one test per release criterion.

Each test prints a single `ACCEPTANCE <n>: PASS/FAIL (...)` line — run
with `pytest -s tests/test_acceptance.py` to watch them — and asserts
the stated tolerance and runtime budget.
"""

import itertools
import subprocess
import sys
import time

import numpy as np

from permofdm import (
    FIVE_TAP_PROFILE,
    AttackRecoveryConfig,
    BerExperimentConfig,
    EqualizerKind,
    NoiseSpec,
    QamConstellation,
    SecretKey,
    SerAttackConfig,
    SnrAnalysisConfig,
    add_cp,
    analyze_snr,
    apply_channel_stream,
    brute_force_attack,
    conditional_snr_zf,
    decrypt_block,
    derive_permutation,
    draw_rayleigh_channel,
    encrypt_block,
    equalize,
    fft_demodulate,
    freq_response,
    ifft_modulate,
    keyspace_bits,
    qam_point_indices,
    qfunc,
    remove_cp,
    run_attack_recovery_experiment,
    run_ber_experiment,
    run_ser_attack_experiment,
)


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num}: {detail}"


def _crossing_db(snrs, bers, target):
    """SNR (dB) where the log-linear interpolated curve meets target."""
    s = np.asarray(snrs, dtype=float)
    lb = np.log10(np.asarray(bers, dtype=float))
    lt = np.log10(target)
    for i in range(len(s) - 1):
        if (lb[i] - lt) * (lb[i + 1] - lt) <= 0:
            return s[i] + (s[i + 1] - s[i]) * (lb[i] - lt) / (lb[i] - lb[i + 1])
    return None


def test_criterion_1_modem_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (4, 64, 256, 1024):
        d = rng.normal(size=(8, n)) + 1j * rng.normal(size=(8, n))
        x = ifft_modulate(d)
        worst = max(worst, float(np.max(np.abs(fft_demodulate(x) - d))))
        norms = abs(np.linalg.norm(x) - np.linalg.norm(d)) / np.linalg.norm(d)
        worst = max(worst, float(norms))

    # zero-noise multipath chain: bits must come back identically
    n, n_cp = 256, 16
    const = QamConstellation.square(4)
    taps = draw_rayleigh_channel(FIVE_TAP_PROFILE, rng)
    h = freq_response(taps, n)
    key = SecretKey(bytes(range(32)))
    bits = rng.integers(0, 2, size=8 * n * 2, dtype=np.uint8)
    tx_idx = bits.reshape(-1, 2) @ np.array([2, 1])
    errors = 0
    for l in range(8):
        d = const.points[tx_idx[l * n:(l + 1) * n]]
        perm = derive_permutation(key, l, n)
        tx = encrypt_block(ifft_modulate(d), perm)
        rx = apply_channel_stream(add_cp(tx, n_cp), taps)
        eq = equalize(remove_cp(rx, n, n_cp), h, EqualizerKind())
        rx_idx = qam_point_indices(fft_demodulate(decrypt_block(eq, perm)), const)
        errors += int(np.count_nonzero(rx_idx != tx_idx[l * n:(l + 1) * n]))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and errors == 0 and dt < 10
    _verdict(1, ok, f"transform error {worst:.2e} <= 1e-10, "
                    f"{errors} bit errors end-to-end, {dt:.1f}s")


def test_criterion_2_distortionless_cipher():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    key = SecretKey.generate()  # must hold for every key
    n, n_cp = 256, 16
    const = QamConstellation.square(4)
    taps = np.ones(1, dtype=np.complex128)  # identity channel
    h = freq_response(taps, n)
    weights = np.array([2, 1], dtype=np.int64)
    total_bits = 0
    errors = 0
    for l_depth, grids, ell0 in ((1, 1024, 0), (4, 256, 10 ** 6)):
        size = l_depth * n
        for g in range(grids):
            bits = rng.integers(0, 2, size=2 * size, dtype=np.uint8)
            tx_idx = bits.reshape(-1, 2).astype(np.int64) @ weights
            d = const.points[tx_idx].reshape(l_depth, n)
            perm = derive_permutation(key, ell0 + g, size)
            tx = encrypt_block(ifft_modulate(d), perm)
            rx = apply_channel_stream(add_cp(tx, n_cp).reshape(-1), taps)
            un = remove_cp(rx.reshape(l_depth, n + n_cp), n, n_cp)
            s = decrypt_block(equalize(un, h, EqualizerKind()), perm)
            rx_idx = qam_point_indices(fft_demodulate(s), const)
            diff = (rx_idx ^ tx_idx)[:, None] >> np.array([1, 0]) & 1
            errors += int(diff.sum())
            total_bits += bits.size
    dt = time.perf_counter() - t0
    ok = errors == 0 and total_bits >= 10 ** 6 and dt < 60
    _verdict(2, ok, f"BER {errors}/{total_bits} with L in (1, 4), "
                    f"random key, {dt:.1f}s")


def test_criterion_3_awgn_baseline():
    t0 = time.perf_counter()
    cfg = BerExperimentConfig(seed=33, n=256, m=4, interleaver="none",
                              channel="awgn", snr_db=(0.0, 4.0, 8.0, 10.0),
                              blocks=8, min_blocks=8)
    rep = run_ber_experiment(cfg)
    nbits = 8 * 256 * 256 * 2
    devs = []
    for pt in rep.points:
        p = qfunc(np.sqrt(NoiseSpec.from_snr_db(pt.snr_db).snr))
        sigma = np.sqrt(p * (1 - p) / nbits)
        devs.append(abs(pt.ber - p) / sigma)
    dt = time.perf_counter() - t0
    ok = nbits >= 10 ** 6 and max(devs) < 3.0 and dt < 120
    _verdict(3, ok, f"max deviation {max(devs):.2f} sigma over "
                    f"{[p.snr_db for p in rep.points]} dB, "
                    f"{nbits} bits/point, {dt:.1f}s")


def test_criterion_4_noise_variance_prediction():
    t0 = time.perf_counter()
    n = 64
    blocks_total, chunk_blocks = 18000, 1000
    snr = NoiseSpec.from_snr_db(10.0).snr
    sigma_z2 = 1.0 / snr
    kind = EqualizerKind()
    worst_mean = worst_bin = 0.0
    samples = 0
    for r in range(20):
        rng = np.random.default_rng((44, 0, r))
        taps = draw_rayleigh_channel(FIVE_TAP_PROFILE, rng)
        h = freq_response(taps, n)
        pred = 1.0 / conditional_snr_zf(h, snr, zf_floor=1e-12)
        acc = np.zeros(n)
        rows = 0
        left = blocks_total
        while left:
            b = min(chunk_blocks, left)
            z = np.sqrt(sigma_z2 / 2) * (
                rng.standard_normal((b * n, n))
                + 1j * rng.standard_normal((b * n, n)))
            eq = equalize(z, h, kind)
            # buffered interleaving: output symbol l collects sample l of
            # every input symbol, so decryption transposes each n-x-n grid
            dec = np.transpose(eq.reshape(b, n, n), (0, 2, 1)).reshape(b * n, n)
            acc += np.sum(np.abs(fft_demodulate(dec)) ** 2, axis=0)
            rows += b * n
            left -= b
        var_k = acc / rows
        worst_mean = max(worst_mean, abs(float(var_k.mean()) - pred) / pred)
        worst_bin = max(worst_bin, float(np.max(np.abs(var_k - pred))) / pred)
        samples = rows * n
    dt = time.perf_counter() - t0
    ok = (samples >= 10 ** 6 and worst_mean < 0.02 and worst_bin < 0.03
          and dt < 300)
    _verdict(4, ok, f"20 realizations, {samples} noise samples each: "
                    f"variance within {worst_mean:.2%} of prediction, "
                    f"subcarrier spread {worst_bin:.2%}, {dt:.0f}s")


def test_criterion_5_cross_subcarrier_orthogonality():
    t0 = time.perf_counter()
    n = 16
    i = np.arange(n)
    # honest partial sums of the subcarrier cross terms
    s = np.array([np.sum(np.exp(-2j * np.pi * i * d / n)) for d in range(n)])
    worst = 0.0
    for r in range(100):
        rng = np.random.default_rng((55, r))
        h = freq_response(draw_rayleigh_channel(FIVE_TAP_PROFILE, rng), n)
        cross = s[(i[:, None] - i[None, :]) % n] / (h[:, None] * np.conj(h)[None, :])
        off = np.abs(cross[~np.eye(n, dtype=bool)])
        worst = max(worst, float(off.max()))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 10
    _verdict(5, ok, f"max |cross term| {worst:.2e} over 100 channels, "
                    f"all k != gamma, N=16, {dt:.1f}s")


def test_criterion_6_disorder_ser_bands():
    t0 = time.perf_counter()
    cfg = SerAttackConfig(seed=66, n=256, m_values=(4, 16, 64),
                          k_values=(0, 56, 128, 256), snr_db=30.0, trials=80)
    rep = run_ser_attack_experiment(cfg)
    by = {(pt.m, pt.k_mixed): pt for pt in rep.points}
    band_dev = max(abs(by[(m, k)].ser - (1 - 1 / m))
                   for m in (16, 64) for k in (56, 128, 256))
    floor_ok = all(by[(m, 56)].ser > 0.9 for m in (16, 64))
    clean = max(by[(m, 0)].ser for m in (4, 16, 64))
    ceiling_ok = all(pt.ser <= 1 - 1 / pt.m + 2 * pt.ci95 + 1e-9
                     for pt in rep.points)
    symbols = cfg.trials * cfg.n
    dt = time.perf_counter() - t0
    ok = (band_dev <= 0.02 and floor_ok and clean < 1e-3 and ceiling_ok
          and symbols >= 10 ** 4 and dt < 300)
    _verdict(6, ok, f"guessing-ceiling deviation {band_dev:.4f} <= 0.02, "
                    f"SER>0.9 at K=56: {floor_ok}, clean SER {clean:.1e}, "
                    f"{symbols} symbols/point, {dt:.0f}s")


def test_criterion_7_fading_ber_curves():
    t0 = time.perf_counter()
    # (a) scrambled ZF: Monte Carlo against the semi-analytic curve
    grid_a = (14.0, 16.0, 18.0, 20.0)
    mc = run_ber_experiment(BerExperimentConfig(
        seed=77, n=256, m=4, interleaver="transpose", snr_db=grid_a,
        blocks=120, min_blocks=120))
    sa = analyze_snr(SnrAnalysisConfig(seed=77, n=256, m=4, snr_db=grid_a,
                                       blocks=120))
    x_mc = _crossing_db(grid_a, [p.ber for p in mc.points], 1e-2)
    x_sa = _crossing_db(grid_a, [p.ber for p in sa.points], 1e-2)
    delta = None if x_mc is None or x_sa is None else abs(x_mc - x_sa)

    # (b) MMSE-secured vs standard OFDM at BER 1e-3
    grid_std = (24.0, 26.0, 28.0, 30.0)
    grid_mmse = (14.0, 16.0, 18.0, 20.0)
    std = run_ber_experiment(BerExperimentConfig(
        seed=78, n=256, m=4, interleaver="none", snr_db=grid_std,
        blocks=400, min_blocks=400))
    mmse = run_ber_experiment(BerExperimentConfig(
        seed=79, n=256, m=4, interleaver="transpose",
        equalizer=EqualizerKind(variant="mmse"), snr_db=grid_mmse,
        blocks=200, min_blocks=200))
    x_std = _crossing_db(grid_std, [p.ber for p in std.points], 1e-3)
    x_mmse = _crossing_db(grid_mmse, [p.ber for p in mmse.points], 1e-3)
    gap = None if x_std is None or x_mmse is None else x_std - x_mmse
    dt = time.perf_counter() - t0
    ok = (delta is not None and delta <= 0.5
          and gap is not None and gap >= 10.0 and dt < 900)
    show = lambda v, u: "not bracketed" if v is None else f"{v:.3f} {u}"
    _verdict(7, ok, f"(a) ZF MC vs semi-analytic at 1e-2: {show(delta, 'dB')}; "
                    f"(b) MMSE advantage at 1e-3: {show(gap, 'dB')} "
                    f"over >=200 blocks; {dt:.0f}s")


def test_criterion_7c_extended_advantage():
    t0 = time.perf_counter()
    grid_std = (34.0, 36.0, 38.0, 40.0)
    grid_mmse = (16.0, 18.0, 20.0, 22.0)
    std = run_ber_experiment(BerExperimentConfig(
        seed=78, n=256, m=4, interleaver="none", snr_db=grid_std,
        blocks=200, min_blocks=200))
    mmse = run_ber_experiment(BerExperimentConfig(
        seed=79, n=256, m=4, interleaver="transpose",
        equalizer=EqualizerKind(variant="mmse"), snr_db=grid_mmse,
        blocks=200, min_blocks=200))
    x_std = _crossing_db(grid_std, [p.ber for p in std.points], 1e-4)
    x_mmse = _crossing_db(grid_mmse, [p.ber for p in mmse.points], 1e-4)
    gap = None if x_std is None or x_mmse is None else x_std - x_mmse
    dt = time.perf_counter() - t0
    ok = gap is not None and gap >= 15.0
    shown = "not bracketed" if gap is None else f"{gap:.2f} dB"
    _verdict("7c", ok, f"MMSE advantage at BER 1e-4: {shown}, {dt:.0f}s")


def test_criterion_8_attack_suite():
    t0 = time.perf_counter()
    x = np.array([1.0, 2.0, 3.5, -1.0], dtype=complex)
    exact = all(
        brute_force_attack(x, x[list(p)]).map.tolist() == list(p)
        for p in itertools.permutations(range(4))
    )

    fixed = run_attack_recovery_experiment(AttackRecoveryConfig(
        seed=88, size=64, snr_db=0.0, repeats=10 ** 4, trials=20))
    fresh = run_attack_recovery_experiment(AttackRecoveryConfig(
        seed=88, size=64, snr_db=0.0, repeats=10 ** 4, trials=20,
        fresh_perm_per_block=True))
    hit_fixed = 1.0 - fixed.points[0].ser
    hit_fresh = 1.0 - fresh.points[0].ser
    chance = 1.0 / 64
    sigma = np.sqrt(chance * (1 - chance) / fresh.points[0].trials)
    fresh_dev = abs(hit_fresh - chance) / sigma

    bits = keyspace_bits(256)
    dt = time.perf_counter() - t0
    ok = (exact and hit_fixed >= 0.99 and fresh_dev < 3.0 and bits > 1683.0
          and dt < 300)
    _verdict(8, ok, f"brute force exact at size 4: {exact}; averaging attack "
                    f"fixed-P {hit_fixed:.2%}, fresh-P within {fresh_dev:.2f} "
                    f"sigma of chance; keyspace(256) = {bits:.1f} bits; {dt:.0f}s")


def test_criterion_9_csv_determinism(tmp_path):
    t0 = time.perf_counter()
    base = [sys.executable, "-m", "permofdm.cli"]
    runs = {
        "ber": ["simulate-ber", "--seed", "5", "--n", "16", "--blocks", "4",
                "--snr-db", "8,12"],
        "ser": ["simulate-attack-ser", "--seed", "6", "--n", "16",
                "--m-values", "4,16", "--k-values", "0,8", "--trials", "70"],
        "rec": ["simulate-attack-recovery", "--seed", "7", "--size", "8",
                "--repeats", "64", "--trials", "6"],
        "snr": ["analyze-snr", "--seed", "8", "--n", "16", "--blocks", "4",
                "--snr-db", "10,20"],
        "ici": ["measure-ici", "--seed", "9", "--n", "16", "--perm", "random",
                "--trials", "200"],
    }
    workers = {"ber": ("1", "3"), "ser": ("1", "2"), "rec": ("1", "2")}
    mismatches = []
    for tag, argv in runs.items():
        outs = []
        for run_idx, w in enumerate(workers.get(tag, (None, None))):
            out = tmp_path / f"{tag}_{run_idx}.csv"
            cmd = base + argv + ["--out", str(out)]
            if w is not None:
                cmd += ["--workers", w]
            res = subprocess.run(cmd, capture_output=True, text=True)
            assert res.returncode == 0, f"{tag}: {res.stderr}"
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatches.append(tag)
    dt = time.perf_counter() - t0
    ok = not mismatches
    _verdict(9, ok, f"byte-identical CSV across reruns/worker counts for "
                    f"{', '.join(runs)} ({dt:.0f}s)"
                    + (f"; MISMATCH: {mismatches}" if mismatches else ""))
