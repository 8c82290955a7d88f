"""File formats and the command-line front end."""

import argparse
import dataclasses
import hashlib
import inspect
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from permofdm import (
    AttackRecoveryConfig,
    BerExperimentConfig,
    ChannelProfile,
    EqualizerKind,
    IciConfig,
    IqFormatError,
    KeyFormatError,
    SecretKey,
    SerAttackConfig,
    SnrAnalysisConfig,
    analyze_snr,
    run_attack_recovery_experiment,
    run_ber_experiment,
    run_ici_experiment,
    run_ser_attack_experiment,
)
import permofdm
from permofdm import cli, permcipher
from permofdm.cli import main
from permofdm.fileio import (
    parse_bool,
    parse_float_list,
    parse_int_list,
    read_config,
    read_iq,
    read_key_file,
    write_iq,
    write_key_file,
)


def _rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


class TestIqFiles:
    def test_exact_roundtrip_of_float32_values(self, tmp_path):
        p = tmp_path / "a.iq"
        x = np.array([0.5 - 0.25j, -1.75 + 3.0j, 0.0 + 0.125j])
        write_iq(p, x)
        assert p.stat().st_size == 8 * x.size
        assert np.array_equal(read_iq(p), x)

    def test_roundtrip_quantizes_to_float32(self, tmp_path):
        p = tmp_path / "b.iq"
        rng = np.random.default_rng(0)
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        write_iq(p, x)
        y = read_iq(p)
        assert np.allclose(y, x, atol=1e-6)
        assert np.array_equal(y, x.astype(np.complex64).astype(np.complex128))

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "c.iq"
        p.write_bytes(b"\x00" * 12)
        with pytest.raises(IqFormatError, match="I,Q pairs"):
            read_iq(p)

    def test_empty_file_is_empty_stream(self, tmp_path):
        p = tmp_path / "d.iq"
        p.write_bytes(b"")
        assert read_iq(p).size == 0

    def test_non_finite_q_leaves_i_alone(self, tmp_path):
        p = tmp_path / "e.iq"
        p.write_bytes(np.array([1.0, np.inf, 3.0, np.nan], dtype="<f4").tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = read_iq(p)
        assert y.dtype == np.complex64
        assert y.real.tolist() == [1.0, 3.0]
        assert y.imag[0] == np.inf and np.isnan(y.imag[1])

    def test_infinite_q_round_trips(self, tmp_path):
        p, q = tmp_path / "f.iq", tmp_path / "g.iq"
        p.write_bytes(np.array([1.0, np.inf], dtype="<f4").tobytes())
        write_iq(q, read_iq(p))
        assert q.read_bytes() == p.read_bytes()

    def test_read_iq_is_a_writable_copy_of_the_stored_samples(self, tmp_path):
        p = tmp_path / "h.iq"
        words = np.array([0x7F800001, 0xFFC12345, 0x80000000, 0x00000001], dtype="<u4")
        p.write_bytes(words.tobytes())
        y = read_iq(p)
        assert y.dtype == np.complex64 and y.flags.writeable
        assert y.tobytes() == p.read_bytes()

    def test_read_iq_holds_one_copy_of_the_file(self, tmp_path):
        p = tmp_path / "big.iq"
        write_iq(p, np.ones(1 << 17, dtype=np.complex64))
        tracemalloc.start()
        try:
            y = read_iq(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.nbytes == p.stat().st_size and peak < 1.5 * y.nbytes

    def test_complex128_input_matches_a_split_float32_cast(self, tmp_path):
        rng = np.random.default_rng(5)
        parts = rng.standard_normal(4000) * 10.0 ** rng.uniform(-50, 50, 4000)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 3.4e38, 3.5e38, -1e39, 1e-40, -1e-46,
                 np.finfo(np.float32).max, np.finfo(np.float32).tiny / 3]
        nans = [0x7FF0000000000001, 0x7FF4000020000000, 0xFFF8000000000123, 0xFFFFFFFFFFFFFFFF]
        bits = np.concatenate([rng.integers(0, 2 ** 64, 1000, dtype=np.uint64),
                               np.array(nans, dtype=np.uint64)])
        parts = np.concatenate([parts, edges, bits.view(np.float64)])
        x = parts.view(np.complex128)  # real, imaginary pairs, no arithmetic
        # The writer before complex64 was kept end to end: real and
        # imaginary parts cast to float32 on their own and interleaved.
        split = np.empty(2 * x.size, dtype="<f4")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow, NaN casts
            split[0::2] = x.real.astype(np.float32)
            split[1::2] = x.imag.astype(np.float32)
            write_iq(tmp_path / "x.iq", x)
        assert (tmp_path / "x.iq").read_bytes() == split.tobytes()


class TestKeyFiles:
    def test_hex_roundtrip(self, tmp_path):
        p = tmp_path / "k.hex"
        key = SecretKey(bytes(range(32)))
        write_key_file(p, key)
        assert p.read_text().strip() == key.hex()
        assert read_key_file(p).key_bytes == key.key_bytes

    def test_uppercase_hex_accepted(self, tmp_path):
        p = tmp_path / "k2.hex"
        p.write_text(bytes(range(16)).hex().upper() + "\n")
        assert read_key_file(p).key_bytes == bytes(range(16))

    def test_raw_roundtrip(self, tmp_path):
        p = tmp_path / "k.bin"
        key = SecretKey(bytes([0xFF, 0x00] * 8 + [0x80] * 16))
        write_key_file(p, key, hex_text=False)
        assert read_key_file(p).key_bytes == key.key_bytes

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "k.empty"
        p.write_bytes(b"")
        with pytest.raises(KeyFormatError):
            read_key_file(p)

    @pytest.mark.parametrize("raw", [b"0123456789abcdef" * 2, b"a" * 17,
                                     b"\t" + b"00ff" * 8 + b"\n"])
    def test_raw_key_that_reads_as_hex_refused(self, tmp_path, raw):
        p = tmp_path / "k.bin"
        with pytest.raises(KeyFormatError, match="reads as hex"):
            write_key_file(p, SecretKey(raw), hex_text=False)
        assert not p.exists()
        write_key_file(p, SecretKey(raw))
        assert read_key_file(p).key_bytes == raw


@settings(max_examples=200, deadline=None)
@given(raw=st.one_of(st.binary(min_size=16, max_size=48),
                     st.text("0123456789abcdefABCDEF \t\n", min_size=16, max_size=48)
                     .map(str.encode)),
       hex_text=st.booleans())
def test_key_file_reads_back_or_is_refused_at_write(raw, hex_text):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "k"
        try:
            write_key_file(p, SecretKey(raw), hex_text=hex_text)
        except KeyFormatError:
            assert not hex_text and not p.exists()
            return
        assert read_key_file(p).key_bytes == raw


class TestConfigFiles:
    def test_parse(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text(
            "# scenario\n"
            "\n"
            "Seed = 7\n"
            "snr-db = 0, 4, 8   # swept points\n"
            "fresh_perm_per_block = true\n"
        )
        conf = read_config(p)
        assert conf == {"seed": "7", "snr_db": "0, 4, 8",
                        "fresh_perm_per_block": "true"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("just words\n")
        with pytest.raises(ValueError, match="key = value"):
            read_config(p)

    def test_binary_file_names_the_file(self, tmp_path):
        p = tmp_path / "bin.conf"
        p.write_bytes(bytes(range(128, 256)))
        with pytest.raises(ValueError) as exc:
            read_config(p)
        assert str(exc.value).startswith(f"{p}: not a text file")

    def test_value_lists_and_bools(self):
        assert parse_float_list("0, 4.5 ,8") == (0.0, 4.5, 8.0)
        assert parse_int_list("4 16,64") == (4, 16, 64)
        assert parse_bool("Yes") and parse_bool("1") and parse_bool("ON")
        assert not parse_bool("off") and not parse_bool("False")
        with pytest.raises(ValueError):
            parse_bool("maybe")


class TestKeygenCommand:
    def test_deterministic_with_seed(self, tmp_path):
        a, b = tmp_path / "a.key", tmp_path / "b.key"
        assert main(["keygen", "--out", str(a), "--seed", "5"]) == 0
        assert main(["keygen", "--out", str(b), "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(read_key_file(a).key_bytes) == 32

    def test_random_keys_differ(self, tmp_path):
        a, b = tmp_path / "a.key", tmp_path / "b.key"
        main(["keygen", "--out", str(a)])
        main(["keygen", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_raw_and_length(self, tmp_path):
        p = tmp_path / "k.bin"
        main(["keygen", "--out", str(p), "--bytes", "48", "--raw", "--seed", "1"])
        assert p.stat().st_size == 48

    def test_raw_key_that_reads_as_hex_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(SecretKey, "generate",
                            classmethod(lambda cls, n: cls(b"0123456789abcdef" * 2)))
        key = tmp_path / "k.bin"
        assert main(["keygen", "--out", str(key), "--raw"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "reads as hex" in err[0]
        assert not key.exists()

    def test_short_key_refused(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["keygen", "--out", str(tmp_path / "k"), "--bytes", "8"])

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_refused(self, tmp_path, capsys, seed):
        key = tmp_path / "k"
        with pytest.raises(SystemExit) as exc:
            main(["keygen", "--out", str(key), "--seed", str(seed)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"permofdm keygen: error: argument --seed: seed must be in [0, 2**64), got {seed}"]
        assert not key.exists()
        assert main(["keygen", "--out", str(key), "--seed", str(2 ** 64 - 1)]) == 0


class TestCipherCommands:
    def _setup(self, tmp_path, n_samples=64):
        rng = np.random.default_rng(42)
        plain = tmp_path / "plain.iq"
        x = (rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)) / 4
        x = x.astype(np.complex64).astype(np.complex128)  # float32-exact
        write_iq(plain, x)
        key = tmp_path / "k.key"
        main(["keygen", "--out", str(key), "--seed", "9"])
        return plain, key, x

    def test_roundtrip_bit_exact(self, tmp_path):
        plain, key, x = self._setup(tmp_path)
        enc = tmp_path / "enc.iq"
        dec = tmp_path / "dec.iq"
        assert main(["encrypt", str(plain), "--out", str(enc), "--key", str(key),
                     "--n", "16", "--l", "2"]) == 0
        assert main(["decrypt", str(enc), "--out", str(dec), "--key", str(key),
                     "--n", "16", "--l", "2"]) == 0
        assert dec.read_bytes() == plain.read_bytes()
        # ciphertext actually moved most samples
        y = read_iq(enc)
        assert np.count_nonzero(y != x) > 0.9 * x.size

    @pytest.mark.parametrize("cmd", ("encrypt", "decrypt"))
    def test_output_may_overwrite_the_input(self, tmp_path, cmd):
        plain, key, _ = self._setup(tmp_path)
        flags = ["--key", str(key), "--n", "16", "--l", "2"]
        apart = tmp_path / "apart.iq"
        assert main([cmd, str(plain), "--out", str(apart), *flags]) == 0
        assert main([cmd, str(plain), "--out", str(plain), *flags]) == 0
        assert plain.read_bytes() == apart.read_bytes()

    def test_block_counter_advances_per_block(self, tmp_path):
        plain, key, x = self._setup(tmp_path, n_samples=32)
        whole = tmp_path / "whole.iq"
        main(["encrypt", str(plain), "--out", str(whole), "--key", str(key),
              "--n", "16"])
        # encrypting the halves separately with --ell 0 and 1 must agree
        h1, h2 = tmp_path / "h1.iq", tmp_path / "h2.iq"
        e1, e2 = tmp_path / "e1.iq", tmp_path / "e2.iq"
        write_iq(h1, x[:16])
        write_iq(h2, x[16:])
        main(["encrypt", str(h1), "--out", str(e1), "--key", str(key), "--n", "16"])
        main(["encrypt", str(h2), "--out", str(e2), "--key", str(key), "--n", "16",
              "--ell", "1"])
        assert whole.read_bytes() == e1.read_bytes() + e2.read_bytes()

    def test_wrong_key_does_not_decrypt(self, tmp_path):
        plain, key, x = self._setup(tmp_path)
        other = tmp_path / "other.key"
        main(["keygen", "--out", str(other), "--seed", "10"])
        enc = tmp_path / "enc.iq"
        bad = tmp_path / "bad.iq"
        main(["encrypt", str(plain), "--out", str(enc), "--key", str(key),
              "--n", "64"])
        main(["decrypt", str(enc), "--out", str(bad), "--key", str(other),
              "--n", "64"])
        assert np.count_nonzero(read_iq(bad) != x) > 0.95 * x.size

    def test_size_over_the_stream_limit_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        plain, key, _ = self._setup(tmp_path)
        out = tmp_path / "e.iq"
        capsys.readouterr()
        # the limit stands in for AES-GCM's 2**31 - 1 bytes per call
        monkeypatch.setattr(permcipher, "_MAX_STREAM", 4 * permcipher._stream_bytes(64) + 63)
        rc = main(["encrypt", str(plain), "--out", str(out), "--key", str(key), "--n", "16",
                   "--l", "4"])
        (line,) = capsys.readouterr().err.splitlines()
        assert rc == 2 and line.startswith("error: size 64 needs a keystream")
        assert not out.exists()

    def test_partial_block_rejected(self, tmp_path):
        plain, key, _ = self._setup(tmp_path, n_samples=60)
        rc = main(["encrypt", str(plain), "--out", str(tmp_path / "e.iq"),
                   "--key", str(key), "--n", "16"])
        assert rc == 2

    def test_missing_input_reports_error(self, tmp_path):
        key = tmp_path / "k.key"
        main(["keygen", "--out", str(key), "--seed", "9"])
        rc = main(["encrypt", str(tmp_path / "nope.iq"), "--out",
                   str(tmp_path / "e.iq"), "--key", str(key), "--n", "16"])
        assert rc == 2


# float32 words: signalling NaN, negative quiet NaN with a payload, -0.0,
# +inf, -inf and 1.0, so each sample pairs two of them.
SPECIAL_WORDS = np.array([0x7F800001, 0xFFC12345, 0x80000000, 0x7F800000, 0xFF800000,
                          0x3F800000], dtype="<u4")


@st.composite
def _iq_files(draw):
    """(n, l, ell, payload): any bytes that make whole blocks of n*l samples."""
    n, l_depth, blocks = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    nbytes = 8 * n * l_depth * blocks
    return (n, l_depth, draw(st.integers(0, 2 ** 64 - blocks)),
            draw(st.binary(min_size=nbytes, max_size=nbytes)))


def _samples(raw):
    return sorted(raw[i:i + 8] for i in range(0, len(raw), 8))


@settings(max_examples=60, deadline=None)
@given(case=_iq_files())
@example(case=(3, 1, 0, SPECIAL_WORDS.tobytes()))
@example(case=(1, 3, 2 ** 64 - 2, np.tile(SPECIAL_WORDS[::-1], 2).tobytes()))
def test_cipher_round_trip_is_the_byte_identity(case):
    n, l_depth, ell, payload = case
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("error")
        d = Path(d)
        write_key_file(d / "k.key", SecretKey(bytes(range(32))))
        (d / "p.iq").write_bytes(payload)
        flags = ["--key", str(d / "k.key"), "--n", str(n), "--l", str(l_depth),
                 "--ell", str(ell)]
        assert main(["encrypt", str(d / "p.iq"), "--out", str(d / "e.iq"), *flags]) == 0
        assert main(["decrypt", str(d / "e.iq"), "--out", str(d / "d.iq"), *flags]) == 0
        # The ciphertext holds the same 8-byte samples, only moved.
        assert _samples((d / "e.iq").read_bytes()) == _samples(payload)
        assert (d / "d.iq").read_bytes() == payload


class TestSimulationCommands:
    def test_seed_is_mandatory(self, tmp_path):
        for cmd in ("simulate-ber", "simulate-attack-ser",
                    "simulate-attack-recovery", "analyze-snr", "measure-ici"):
            with pytest.raises(SystemExit) as exc:
                main([cmd])
            assert exc.value.code == 2

    def test_ber_command_writes_report(self, tmp_path):
        out = tmp_path / "ber.csv"
        rc = main(["simulate-ber", "--seed", "2", "--n", "16", "--blocks", "2",
                   "--snr-db", "10", "--channel", "awgn", "--interleaver",
                   "none", "--out", str(out)])
        assert rc == 0
        header, rows = _rows(out)
        assert header.startswith("experiment,N,M,")
        assert rows[0][0] == "ber" and rows[0][1] == "16"

    def test_stdout_when_no_out(self, capsys):
        rc = main(["analyze-snr", "--seed", "1", "--n", "16", "--blocks", "3",
                   "--snr-db", "10,20"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "snr-analytic"

    def test_config_provides_seed_and_flags_override(self, tmp_path):
        conf = tmp_path / "scenario.conf"
        conf.write_text("seed = 5\nn = 16\nm-values = 4\nk-values = 0 8\n"
                        "trials = 8\n")
        out1 = tmp_path / "a.csv"
        assert main(["simulate-attack-ser", "--config", str(conf),
                     "--out", str(out1)]) == 0
        _, rows = _rows(out1)
        assert [r[1] for r in rows] == ["16", "16"]
        out2 = tmp_path / "b.csv"
        assert main(["simulate-attack-ser", "--config", str(conf), "--n", "32",
                     "--out", str(out2)]) == 0
        _, rows = _rows(out2)
        assert [r[1] for r in rows] == ["32", "32"]

    def test_recovery_scenario_file_aliases(self, tmp_path):
        conf = tmp_path / "attack.conf"
        conf.write_text("size = 8\nsnr_db = 0\nk = 32\n"
                        "fresh_perm_per_block = true\nseed = 3\ntrials = 2\n")
        out = tmp_path / "rec.csv"
        assert main(["simulate-attack-recovery", "--config", str(conf),
                     "--out", str(out)]) == 0
        _, rows = _rows(out)
        (row,) = rows
        assert row[0] == "attack-recovery"
        assert row[3] == "fresh"
        assert row[6] == "32"  # k_mixed column carries the repeat count

    @pytest.mark.parametrize("cmd", ["simulate-ber", "simulate-attack-ser",
                                     "simulate-attack-recovery", "analyze-snr",
                                     "measure-ici"])
    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys, cmd):
        conf = tmp_path / "typo.conf"
        conf.write_text("seed = 1\nblocsk = 5\n")
        out = tmp_path / "x.csv"
        assert main([cmd, "--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:") and "blocsk" in err[0]
        assert not out.exists()

    def test_measure_ici_identity_output(self, tmp_path):
        out = tmp_path / "ici.csv"
        rc = main(["measure-ici", "--seed", "0", "--n", "8", "--trials", "64",
                   "--perm", "identity", "--out", str(out)])
        assert rc == 0
        header, rows = _rows(out)
        assert header == "l,k,alpha_re,alpha_im,alpha_abs2,beta_power"
        assert len(rows) == 8
        for row in rows:
            assert float(row[4]) == pytest.approx(1.0, abs=1e-9)
            assert float(row[5]) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("cmd,key,message", [
        ("simulate-ber", "interleaver", "unknown interleaver 'bogus'"),
        ("simulate-ber", "channel", "unknown channel model 'bogus'"),
        ("simulate-ber", "equalizer", "unknown equalizer variant 'bogus'"),
        ("measure-ici", "perm", "unknown perm 'bogus'"),
    ])
    def test_config_value_outside_choices_fails_cleanly(self, tmp_path, capsys, cmd, key,
                                                        message):
        conf = tmp_path / "c.conf"
        conf.write_text(f"seed = 1\nn = 8\n{key} = bogus\n")
        out = tmp_path / "x.csv"
        assert main([cmd, "--config", str(conf), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_measure_ici_keyed_without_key_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "ici.csv"
        rc = main(["measure-ici", "--seed", "0", "--n", "8", "--perm", "keyed",
                   "--out", str(out)])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "key" in line
        assert not out.exists()

    def test_measure_ici_reads_the_key_whatever_the_perm(self, tmp_path, capsys):
        key = tmp_path / "k.key"
        key.write_bytes(b"")
        out = tmp_path / "ici.csv"
        rc = main(["measure-ici", "--seed", "0", "--n", "8", "--perm", "random",
                   "--key", str(key), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {key}: empty key file"]
        assert not out.exists()

    @pytest.mark.parametrize("ell", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("perm", ["random", "keyed"])
    def test_measure_ici_ell_out_of_range_is_one_error_line(self, tmp_path, capsys, perm, ell):
        key, out = str(tmp_path / "k.key"), tmp_path / "ici.csv"
        assert main(["keygen", "--out", key, "--seed", "11"]) == 0
        capsys.readouterr()
        rc = main(["measure-ici", "--seed", "1", "--n", "8", "--trials", "2", "--perm", perm,
                   "--key", key, "--ell", ell, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: ell must fit in an unsigned 64-bit counter, got {ell}"]
        assert not out.exists()

    @pytest.mark.parametrize("perm, digest", [
        ("identity", "838a81e0be90dd22"), ("reversal", "e5f3373a373bbbf8"),
        ("random", "59696e3f9a64bf30"), ("transpose", "08c94ea33a647349"),
        ("keyed", "44c048a27bff676d"),
    ])
    def test_measure_ici_csv_bytes_are_pinned(self, tmp_path, perm, digest):
        key, out = str(tmp_path / "k.key"), tmp_path / "ici.csv"
        assert main(["keygen", "--out", key, "--seed", "11"]) == 0
        assert main(["measure-ici", "--seed", "5", "--n", "16", "--m", "16", "--trials", "64",
                     "--ell", "3", "--key", key, "--perm", perm, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest

    def test_usage_error_after_parsing_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate-ber", "--n", "16"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: permofdm simulate-ber ")
        assert err.splitlines()[-1].startswith("permofdm simulate-ber: error: --seed is required")

    def test_invalid_flag_value(self):
        with pytest.raises(SystemExit):
            main(["simulate-ber", "--seed", "1", "--equalizer", "dfe"])

    def test_negative_seed_refused(self):
        with pytest.raises(SystemExit):
            main(["simulate-ber", "--seed", "-3", "--n", "16", "--blocks", "1"])

    # At +-4000 dB the noise power 10**(-snr_db/10) is 0 or overflows.
    @pytest.mark.parametrize("snr", ["inf", "nan", "4000", "-4000"])
    @pytest.mark.parametrize("cmd", ["simulate-ber", "simulate-attack-ser",
                                     "simulate-attack-recovery", "analyze-snr"])
    def test_non_finite_snr_fails_cleanly(self, tmp_path, capsys, cmd, snr):
        out = tmp_path / "x.csv"
        rc = main([cmd, "--seed", "1", "--snr-db", snr, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate-ber", "--zf-floor", "inf"],
        ["simulate-ber", "--discard-below", "nan"],
        ["simulate-ber", "--fade-bias", "nan"],
        ["analyze-snr", "--zf-floor", "nan"],
    ])
    def test_non_finite_equalizer_setting_fails_cleanly(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert not out.exists()

    def test_warning_is_one_line(self, tmp_path, capsys):
        shown = warnings.showwarning
        with warnings.catch_warnings():
            warnings.simplefilter("default", UserWarning)
            rc = main(["simulate-ber", "--seed", "1", "--n", "16", "--n-cp", "2", "--blocks", "1",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        assert capsys.readouterr().err == ("warning: channel memory 11 exceeds cyclic prefix 2; "
                                           "inter-block interference will leak\n")
        assert warnings.showwarning is shown

    def test_bad_n_cp_fails_before_any_warning(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate-ber", "--seed", "1", "--n", "16", "--n-cp", "-1",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: n_cp=-1")

    @pytest.mark.parametrize("argv", [
        ["simulate-ber", "--n", "8", "--n-cp", "8"],
        ["analyze-snr", "--n", "0"],
    ], ids=["ber", "snr"])
    def test_channel_longer_than_symbol_fails_before_any_warning(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["--seed", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: channel order 11 must be < n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate-ber", "--interleaver", "keyed", "--n", "16", "--blocks", "1"],
        ["simulate-attack-recovery", "--size", "8", "--repeats", "2", "--trials", "1"],
        ["measure-ici", "--n", "8", "--trials", "1", "--perm", "identity"],
    ], ids=["ber-keyed", "attack-recovery", "measure-ici"])
    def test_seed_outside_64_bits_fails_cleanly(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", str(2 ** 64), "--out", str(out)])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        conf = tmp_path / "c.conf"
        conf.write_text(f"seed = {2 ** 64}\n")
        assert main(argv + ["--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: seed must be in [0, 2**64), got {2 ** 64}"]
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("cmd", ["simulate-ber", "simulate-attack-ser",
                                     "simulate-attack-recovery",
                                     # a cyclic prefix shorter than the channel warns
                                     "simulate-ber --n 16 --n-cp 8 --blocks 1"])
    def test_workers_below_one_fail_cleanly(self, tmp_path, capsys, cmd, workers):
        out = tmp_path / "x.csv"
        rc = main([*cmd.split(), "--seed", "1", "--workers", workers, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: workers must be >= 1, got {workers}"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["simulate-ber", "--l-depth", "0", "--interleaver", "keyed"], "l_depth must be >= 1"),
        (["simulate-attack-recovery", "--size", "1"], "size must be >= 2"),
        (["simulate-attack-recovery", "--repeats", "0"], "repeats and trials must be >= 1"),
    ], ids=["l-depth", "size", "repeats"])
    def test_run_size_below_its_minimum_is_one_error_line(self, tmp_path, capsys, argv,
                                                          message):
        out = tmp_path / "x.csv"
        assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_measure_ici_zero_n_fails_cleanly(self, tmp_path, capsys):
        rc = main(["measure-ici", "--seed", "0", "--n", "0", "--perm", "identity",
                   "--out", str(tmp_path / "ici.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_profile_file(self, tmp_path):
        prof = tmp_path / "p.txt"
        prof.write_text("0 0.5\n1 oops\n")
        rc = main(["simulate-ber", "--seed", "1", "--n", "16", "--blocks", "1",
                   "--profile", str(prof), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        rc = main(["simulate-ber", "--seed", "1", "--n", "16", "--blocks", "1",
                   "--profile", str(tmp_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2


PROFILE_FILE = Path(__file__).resolve().parents[1] / "profiles" / "paper_sec6.txt"

# Fields whose flag is not the field name; every other field `a_b` is `--a-b`.
RENAMED_FLAGS = {"variant": "--equalizer", "fresh_perm_per_block": "--fresh-perm"}

# command -> (config class, runner, argv setting every field away from its
# default, the same config built directly); `key` is a key file path.
DERIVED = {
    "simulate-ber": (
        BerExperimentConfig, run_ber_experiment,
        lambda key: ["--seed", "3", "--n", "16", "--m", "16", "--n-cp", "12",
                     "--interleaver", "keyed", "--l-depth", "2", "--equalizer", "mmse",
                     "--zf-floor", "1e-6", "--discard-below", "0.01", "--fade-bias", "0.1",
                     "--snr-db", "5,15", "--blocks", "3", "--min-blocks", "1",
                     "--min-errors", "5", "--max-bits", "1e5", "--channel", "rayleigh",
                     "--profile", str(PROFILE_FILE), "--key", key],
        lambda key: BerExperimentConfig(
            seed=3, n=16, m=16, n_cp=12, interleaver="keyed", l_depth=2,
            equalizer=EqualizerKind("mmse", 1e-6, 0.01, 0.1), snr_db=(5.0, 15.0),
            blocks=3, min_blocks=1, min_errors=5, max_bits=1e5, channel="rayleigh",
            profile=ChannelProfile.from_file(PROFILE_FILE), key=read_key_file(key)),
    ),
    "simulate-attack-ser": (
        SerAttackConfig, run_ser_attack_experiment,
        lambda key: ["--seed", "6", "--n", "16", "--m-values", "4,16",
                     "--k-values", "0,8", "--snr-db", "20", "--trials", "40"],
        lambda key: SerAttackConfig(seed=6, n=16, m_values=(4, 16), k_values=(0, 8),
                                    snr_db=20.0, trials=40),
    ),
    "simulate-attack-recovery": (
        AttackRecoveryConfig, run_attack_recovery_experiment,
        lambda key: ["--seed", "7", "--size", "8", "--snr-db", "5", "--repeats", "16",
                     "--trials", "3", "--fresh-perm", "--key", key],
        lambda key: AttackRecoveryConfig(seed=7, size=8, snr_db=5.0, repeats=16, trials=3,
                                         fresh_perm_per_block=True, key=read_key_file(key)),
    ),
    "analyze-snr": (
        SnrAnalysisConfig, analyze_snr,
        lambda key: ["--seed", "8", "--n", "16", "--m", "16", "--snr-db", "0,10",
                     "--blocks", "3", "--profile", str(PROFILE_FILE), "--zf-floor", "1e-3"],
        lambda key: SnrAnalysisConfig(seed=8, n=16, m=16, snr_db=(0.0, 10.0), blocks=3,
                                      profile=ChannelProfile.from_file(PROFILE_FILE),
                                      zf_floor=1e-3),
    ),
    "measure-ici": (
        IciConfig, run_ici_experiment,
        lambda key: ["--seed", "9", "--n", "16", "--m", "16", "--trials", "64",
                     "--perm", "keyed", "--key", key, "--ell", "3"],
        lambda key: IciConfig(seed=9, n=16, m=16, trials=64, perm="keyed",
                              key=read_key_file(key), ell=3),
    ),
}


def _field_flags(cls):
    for f in dataclasses.fields(cls):
        if f.type is EqualizerKind:
            yield from _field_flags(EqualizerKind)
        else:
            yield RENAMED_FLAGS.get(f.name, "--" + f.name.replace("_", "-"))


def _subparser(cmd):
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return sub.choices[cmd]


@pytest.mark.parametrize("cmd", sorted(DERIVED))
class TestDerivedCommands:
    def test_one_flag_per_config_field(self, cmd):
        cls, runner, _, _ = DERIVED[cmd]
        flags = [opt for a in _subparser(cmd)._actions for opt in a.option_strings]
        expected = ["-h", "--help", "--config", *_field_flags(cls), "--out"]
        if "workers" in inspect.signature(runner).parameters:
            expected.insert(-1, "--workers")
        assert sorted(flags) == sorted(expected)

    def test_cli_matches_runner_on_direct_config(self, tmp_path, cmd):
        _, runner, argv, direct = DERIVED[cmd]
        key = str(tmp_path / "k.key")
        assert main(["keygen", "--out", key, "--seed", "11"]) == 0
        out = tmp_path / "cli.csv"
        assert main([cmd, *argv(key), "--out", str(out)]) == 0
        assert out.read_text() == runner(direct(key)).to_csv()


def _resolved_config(argv):
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    cls = DERIVED[argv[0]][0]
    return cli._build(parser, cls, cli._resolve(args, cli._options(cls)))


# (command, config-file key, flag, the option read back from the built config)
PRECEDENCE_CASES = [
    ("simulate-ber", "blocks", "--blocks", lambda c: c.blocks),
    ("simulate-ber", "zf-floor", "--zf-floor", lambda c: c.equalizer.zf_floor),
    ("simulate-attack-ser", "trials", "--trials", lambda c: c.trials),
    ("simulate-attack-recovery", "k", "--repeats", lambda c: c.repeats),
    ("analyze-snr", "seed", "--seed", lambda c: c.seed),
    ("measure-ici", "ell", "--ell", lambda c: c.ell),
]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(PRECEDENCE_CASES),
       file_value=st.integers(1, 10 ** 6), flag_value=st.integers(1, 10 ** 6))
def test_flag_beats_config_file(case, file_value, flag_value):
    cmd, key, flag, read = case
    with tempfile.TemporaryDirectory() as d:
        conf = Path(d) / "c.conf"
        conf.write_text(f"seed = 1\n{key} = {file_value}\n")
        argv = [cmd, "--config", str(conf)]
        assert read(_resolved_config(argv)) == file_value
        assert read(_resolved_config(argv + [flag, str(flag_value)])) == flag_value


# ---------------------------------------------------------------------------
# every subcommand, fuzzed over its flag grammar
# ---------------------------------------------------------------------------

# Malformed or out-of-range values; none is so large that a run would be long.
_JUNK = st.sampled_from(["", "x", "1.5", "-1", "0", "nan", "inf", "-inf", "1e400"])


def _or_junk(values):
    """values, and about one draw in ten a malformed or out-of-range one."""
    return st.integers(0, 9).flatmap(lambda r: _JUNK if r == 9 else values)


def _ints(lo, hi):
    return _or_junk(st.integers(lo, hi).map(str))


def _reals(lo=-1e3, hi=1e3):
    return _or_junk(st.floats(lo, hi).map(str))


def _path(name):
    """The input file `name`, or now and then another file, a missing one or a directory."""
    return _or_junk(st.integers(0, 4).flatmap(
        lambda r: st.sampled_from(["key", "in.iq", "profile", "conf", "missing", "."])
        if r == 4 else st.just(name)))


def _list(values):
    return _or_junk(st.lists(values, min_size=1, max_size=3).map(", ".join))


_N = _or_junk(st.sampled_from(["4", "8", "16", "32", "64"]))
_M = _or_junk(st.sampled_from(["4", "16", "64"]))
_SEED = {"--seed": _ints(0, 2 ** 64)}  # 2**64 is out of range
_SIMULATE = {"--config": _path("conf"), "--out": _path("out"),
             "--workers": _or_junk(st.sampled_from(["1", "2"]))}
_ANALYZE = {k: v for k, v in _SIMULATE.items() if k != "--workers"}  # these run in-process
# command -> (flags always given, so that sizes stay bounded; optional flags,
# None for a switch).  The flag "" is the positional input file.
_GRAMMAR = {
    "keygen": ({"--out": _path("out")}, {"--bytes": _ints(16, 64), **_SEED, "--raw": None}),
    "encrypt": ({"": _path("in.iq"), "--n": _N, "--l": _ints(1, 4), "--out": _path("out"),
                 "--key": _path("key")}, {"--ell": _ints(0, 2 ** 64)}),
    "simulate-ber": ({**_SEED, "--n": _N, "--blocks": _ints(1, 4), "--l-depth": _ints(1, 4)},
                     {**_SIMULATE, "--m": _M, "--n-cp": _ints(0, 64),
                      "--interleaver": _or_junk(st.sampled_from(["none", "transpose", "keyed"])),
                      "--equalizer": _or_junk(st.sampled_from(["zf", "mmse"])),
                      "--zf-floor": _reals(1e-300, 1e3), "--discard-below": _reals(1e-300, 1e3),
                      "--fade-bias": _reals(1e-300, 1e3), "--snr-db": _list(_reals()),
                      "--min-blocks": _ints(0, 4), "--min-errors": _ints(0, 300),
                      "--max-bits": _reals(1e-300, 1e300),
                      "--channel": _or_junk(st.sampled_from(["rayleigh", "awgn"])),
                      "--profile": _path("profile"), "--key": _path("key")}),
    "simulate-attack-ser": ({**_SEED, "--n": _N, "--trials": _ints(1, 4),
                             "--k-values": _list(_ints(0, 4))},
                            {**_SIMULATE, "--m-values": _list(_M), "--snr-db": _reals()}),
    "simulate-attack-recovery": ({**_SEED, "--size": _ints(2, 64), "--repeats": _ints(1, 4),
                                  "--trials": _ints(1, 4)},
                                 {**_SIMULATE, "--snr-db": _reals(), "--fresh-perm": None,
                                  "--key": _path("key")}),
    "analyze-snr": ({**_SEED, "--n": _ints(1, 64), "--blocks": _ints(1, 4)},
                    {**_ANALYZE, "--m": _M, "--snr-db": _list(_reals()),
                     "--profile": _path("profile"), "--zf-floor": _reals(1e-300, 1e3)}),
    "measure-ici": ({**_SEED, "--n": _ints(1, 64), "--trials": _ints(1, 4)},
                    {**_ANALYZE, "--m": _M, "--key": _path("key"), "--ell": _ints(0, 2 ** 64),
                     "--perm": _or_junk(st.sampled_from(
                         ["identity", "reversal", "random", "transpose", "keyed"]))}),
}
_GRAMMAR["decrypt"] = _GRAMMAR["encrypt"]


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_GRAMMAR)))
    always, optional = _GRAMMAR[cmd]
    argv = [cmd]
    for flag in [*always, *draw(st.lists(st.sampled_from(sorted(optional)), unique=True))]:
        values = always.get(flag, optional.get(flag))
        if values is None:
            argv.append(flag)
        else:
            argv += [flag, draw(values)] if flag else [draw(values)]
    return argv


_FILES = st.fixed_dictionaries({
    "key": st.one_of(st.binary(min_size=16, max_size=64),
                     st.binary(min_size=16, max_size=64).map(lambda raw: raw.hex().encode()),
                     st.binary(max_size=64)),
    "in.iq": st.one_of(st.sampled_from([4, 16, 64, 256]).flatmap(
        lambda k: st.binary(min_size=8 * k, max_size=8 * k)), st.binary(max_size=20)),
    "profile": st.sampled_from([
        PROFILE_FILE.read_text(), "0 1.0", "0 0.5\n3 0.5", "0 0.5\n40 0.5", "0 nan", "0 inf",
        "0 1e308\n1 1e308", "0 0", "1 1", "0 1\n1 -1", "0 1 2", "x y", ""]).map(str.encode),
    "conf": st.lists(st.sampled_from([
        "seed = 3", "n-cp = 2", "snr_db = 5, 10", "l_depth = 2", "k = 3", "fresh_perm = yes",
        "perm = keyed", "interleaver = keyed", "m = 16", "workers = 2", "# comment",
        "blocsk = 5", "fresh_perm = maybe", "snr_db = nan", "no equals sign"]),
        max_size=3).map(lambda lines: "\n".join(lines).encode()),
})


_BLANK = {"key": b"", "in.iq": b"", "profile": b"", "conf": b""}
_BER = ["simulate-ber", "--seed", "0", "--n", "16", "--blocks", "1", "--l-depth", "1"]


@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv(), files=_FILES)
# finds: --bytes past the C size type raised OverflowError, and a profile
# with a NaN power (or a sum that overflows) ran a NaN channel
@example(argv=["keygen", "--out", "out", "--bytes", str(2 ** 64)], files=_BLANK)
@example(argv=[*_BER, "--profile", "profile"], files={**_BLANK, "profile": b"0 nan"})
@example(argv=[*_BER, "--profile", "profile"], files={**_BLANK, "profile": b"0 1e308\n1 1e308"})
# finds: a config or profile file that is not text gave an error line without its path
@example(argv=[*_BER, "--config", "conf"], files={**_BLANK, "conf": bytes(range(128, 256))})
@example(argv=[*_BER, "--profile", "profile"], files={**_BLANK, "profile": bytes(range(128, 256))})
def test_every_command_exits_cleanly(tmp_path, monkeypatch, capsys, argv, files):
    """Exit 0, or exit 2 with an `error:` last line; never a traceback."""
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    with warnings.catch_warnings():
        # a UserWarning is printed as a line; a RuntimeWarning still fails the run
        warnings.simplefilter("default", UserWarning)
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 0 or (code == 2 and "error:" in err.strip().split("\n")[-1]), (code, err)


# Under an address-space limit 128 MiB above what the imported CLI maps, each
# run, within the run-size bounds, asks numpy for a 512 MiB or 1 GiB array at once.
_LIMITED_MAIN = ("import resource, sys; from permofdm.cli import main; "
                 "pages = int(open('/proc/self/statm').read().split()[0]); "
                 "mapped = pages * resource.getpagesize(); "
                 "resource.setrlimit(resource.RLIMIT_AS, (mapped + 2 ** 27,) * 2); "
                 "sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("argv", [
    ["simulate-attack-recovery", "--seed", "1", "--size", "64", "--repeats", str(2 ** 20),
     "--trials", "1"],
    ["measure-ici", "--seed", "0", "--n", "8192", "--perm", "transpose", "--trials", "1"],
], ids=["attack-recovery", "measure-ici"])
def test_allocation_failure_is_one_error_line(tmp_path, argv):
    src = str(Path(permofdm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = tmp_path / "x.csv"
    res = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv, "--out", str(out)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 2, res.stderr
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: Unable to allocate")
    assert not out.exists()


_SIZE_FLAGS = [(command, flag) for command, flags in {
    "simulate-ber": ("--blocks", "--n", "--l-depth", "--m"),
    "simulate-attack-ser": ("--trials", "--n", "--m-values"),
    "simulate-attack-recovery": ("--repeats", "--trials", "--size"),
    "analyze-snr": ("--blocks", "--n", "--m"),
    "measure-ici": ("--n", "--trials", "--m"),
}.items() for flag in flags]


@pytest.mark.parametrize("command, flag", _SIZE_FLAGS, ids=[" ".join(c) for c in _SIZE_FLAGS])
def test_size_flag_at_2_64_is_refused_when_the_config_is_built(tmp_path, capsys, command, flag):
    """Each run-size flag at 2**64 is one `error:` line and exit code 2, at
    once: the config refuses it before any array of that size exists."""
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main([command, "--seed", "1", flag, str(2 ** 64), "--out", str(out)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (line,) = capsys.readouterr().err.splitlines()
    assert code == 2 and line.startswith("error: ")
    assert elapsed < 1.0 and peak < 2 ** 20, (elapsed, peak)
    assert not out.exists()
