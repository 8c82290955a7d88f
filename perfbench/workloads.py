"""The benchmark's workloads: generated inputs, set-up, operations, checks.

Each workload turns the seed into input files (`prepare`), loads them
through the program the way a user's script would (`setup`, which is what
`setup_s` times), and then repeats one round of operations (`ops`).  An
operation returns an `OpResult`: a digest of its output bytes, the work it
did in the workload's throughput unit, and whether the output passed the
workload's own plausibility check.
"""

import hashlib
import importlib
from collections import namedtuple
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1

# The five-tap profile that ships with permofdm, written out afresh so the
# benchmark loads it through ChannelProfile.from_file like a user would.
FIVE_TAP_PROFILE = "0 0.34\n1 0.28\n2 0.23\n6 0.11\n11 0.04\n"

OpResult = namedtuple("OpResult", "digest work blocks valid")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def write_key(path: Path, seed: int) -> None:
    raw = hashlib.sha256(b"perfbench key" + int(seed).to_bytes(8, "big")).digest()
    path.write_text(raw.hex() + "\n")


class Workload:
    name = ""
    why = ""
    root_span = "harness"   # the layer the benchmark calls into
    work_unit = ""          # what `work` counts, for the report
    headline = ("", 1.0, "")  # user-facing throughput: name, scale, unit
    python_share = None       # share of interpreter work, for calibration
    workers = 1

    def prepare(self, workdir: Path, seed: int) -> None:
        raise NotImplementedError

    def setup(self, workdir: Path, seed: int):
        raise NotImplementedError

    def ops(self, ctx, workers: int):
        """One round: a list of (label, callable returning OpResult)."""
        raise NotImplementedError


class BerWorkload(Workload):
    """`run_ber_experiment` over the five-tap Rayleigh chain with ZF."""

    work_unit = "simulated payload bits"
    headline = ("sim_mbit_per_s", 1e-6, "Mbit/s")

    def __init__(self, name, why, interleaver, workers, python_share, **stopping):
        self.name, self.why = name, why
        self.interleaver = interleaver
        self.workers = workers
        self.python_share = python_share
        self.stopping = stopping  # blocks, min_errors, max_bits

    @property
    def keyed(self):
        return self.interleaver == "keyed"

    def prepare(self, workdir, seed):
        (workdir / "profile.txt").write_text(FIVE_TAP_PROFILE)
        if self.keyed:
            write_key(workdir / "secret.key", seed)

    def setup(self, workdir, seed):
        permofdm = importlib.import_module("permofdm")
        harness = importlib.import_module("permofdm.harness")
        profile = permofdm.ChannelProfile.from_file(workdir / "profile.txt")
        fileio = importlib.import_module("permofdm.fileio")
        key = fileio.read_key_file(workdir / "secret.key") if self.keyed else None
        cfg = harness.BerExperimentConfig(
            seed=seed, n=256, m=4, n_cp=16, interleaver=self.interleaver,
            l_depth=1, snr_db=(6.0, 12.0, 18.0, 24.0), min_blocks=2,
            profile=profile, key=key, **self.stopping,
        )
        return harness, cfg

    def ops(self, ctx, workers):
        harness, cfg = ctx
        bits_per_block = cfg.symbols_per_block * cfg.n * (cfg.m.bit_length() - 1)

        def run():
            report = harness.run_ber_experiment(cfg, workers=workers)
            blocks = sum(p.trials for p in report.points)
            bers = [p.ber for p in report.points]
            valid = len(bers) == len(cfg.snr_db) and bers[0] > bers[-1] and all(
                1 <= p.trials <= cfg.blocks and 0.0 <= p.ber <= 0.5 for p in report.points)
            return OpResult(sha256_hex(report.to_csv().encode()),
                            blocks * bits_per_block, blocks, valid)

        return [("simulate-ber", run)]


class AttackWorkload(Workload):
    """`run_attack_recovery_experiment` with a fresh permutation per observation."""

    name = "attack-fresh"
    why = ("many size-64 key-schedule calls, where per-call overhead dominates; "
           "the only workload that drives attack")
    work_unit = "attack observations"
    headline = ("attack_obs_per_s", 1.0, "obs/s")
    python_share = 0.9

    def prepare(self, workdir, seed):
        write_key(workdir / "secret.key", seed)

    def setup(self, workdir, seed):
        fileio = importlib.import_module("permofdm.fileio")
        harness = importlib.import_module("permofdm.harness")
        key = fileio.read_key_file(workdir / "secret.key")
        cfg = harness.AttackRecoveryConfig(
            seed=seed, size=64, snr_db=0.0, repeats=1000, trials=3,
            fresh_perm_per_block=True, key=key,
        )
        return harness, cfg

    def ops(self, ctx, workers):
        harness, cfg = ctx

        def run():
            report = harness.run_attack_recovery_experiment(cfg, workers=workers)
            (point,) = report.points
            # A fresh permutation per observation leaves the attacker at
            # chance, about one position in `size` recovered.
            valid = point.trials == cfg.trials * cfg.size and point.ser > 0.8
            return OpResult(sha256_hex(report.to_csv().encode()),
                            cfg.repeats * cfg.trials, cfg.trials, valid)

        return [("simulate-attack-recovery", run)]


class CipherFileWorkload(Workload):
    """CLI `encrypt` then `decrypt` of a float32 IQ file, in process."""

    name = "cipher-file"
    why = ("CLI encrypt and decrypt of a 2 MiB IQ file with 4096-sample blocks; "
           "the only workload that drives fileio and the CLI")
    root_span = "cli"
    work_unit = "IQ bytes through encrypt plus decrypt"
    headline = ("cipher_mb_per_s", 1e-6, "MB/s")
    python_share = 0.95
    n, l_depth, blocks = 64, 64, 64

    def prepare(self, workdir, seed):
        write_key(workdir / "secret.key", seed)
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(2 * self.n * self.l_depth * self.blocks)
        (workdir / "tx.iq").write_bytes(samples.astype("<f4").tobytes())

    def setup(self, workdir, seed):
        return importlib.import_module("permofdm.cli"), workdir

    def ops(self, ctx, workers):
        cli, workdir = ctx
        plain_digest = file_sha256(workdir / "tx.iq")

        def command(verb, src, dst):
            def run():
                argv = [verb, str(workdir / src), "--out", str(workdir / dst),
                        "--key", str(workdir / "secret.key"), "--n", str(self.n),
                        "--l", str(self.l_depth)]
                rc = cli.main(argv)
                if rc != 0:
                    raise RuntimeError(f"permofdm {verb} exited with {rc}")
                digest = file_sha256(workdir / dst)
                valid = digest != plain_digest if verb == "encrypt" else digest == plain_digest
                return OpResult(digest, self.iq_bytes(), self.blocks, valid)
            return run

        return [("encrypt", command("encrypt", "tx.iq", "scrambled.iq")),
                ("decrypt", command("decrypt", "scrambled.iq", "recovered.iq"))]

    def iq_bytes(self):
        """Size of the IQ file: float32 I and Q per sample."""
        return 2 * 4 * self.n * self.l_depth * self.blocks


WORKLOADS = {
    w.name: w for w in (
        BerWorkload(
            "ber-transpose",
            "per-sample chain (modem, channel, equalizer) with the transpose "
            "interleaver; never calls the key schedule",
            # Every point stops at the bit cap after 6 blocks of 131072 bits,
            # whatever the seed, while the harness computes blocks in waves
            # of 4; so each operation does the same work and wastes 2 of 8.
            interleaver="transpose", workers=1, python_share=0.2, blocks=16, min_errors=10**6,
            max_bits=6 * 256 * 256 * 2),
        BerWorkload(
            "ber-keyed-2w",
            "keyed interleaver, one size-256 key-schedule call per block, "
            "on the harness's 2-worker process pool",
            interleaver="keyed", workers=2, python_share=0.6, blocks=600, min_errors=3000, max_bits=1e8),
        AttackWorkload(),
        CipherFileWorkload(),
    )
}
