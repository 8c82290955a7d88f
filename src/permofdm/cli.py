"""Command-line front end.

Simulation subcommands demand an explicit seed (no silent
nondeterminism) and accept a config file of `key = value` lines whose
entries any command-line flag overrides.  Their flags and config-file
keys are derived from the fields of the config dataclasses, which hold
every default and, as `Literal` types, every choice list.  Reports are
CSV, written to --out or stdout.
"""

import argparse
import dataclasses
import functools
import hashlib
import inspect
import sys
import types
import typing
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .channel import ChannelProfile
from .errors import IqFormatError, ShapeError
from .fileio import (
    parse_bool,
    parse_float_list,
    parse_int_list,
    read_config,
    read_iq,
    read_key_file,
    write_iq,
    write_key_file,
)
from .harness import (
    AttackRecoveryConfig,
    BerExperimentConfig,
    SerAttackConfig,
    SnrAnalysisConfig,
    _check_seed,
    analyze_snr,
    measure_ici,
    run_attack_recovery_experiment,
    run_ber_experiment,
    run_ser_attack_experiment,
)
from .permcipher import (
    Permutation,
    SecretKey,
    decrypt_block,
    derive_permutation,
    encrypt_block,
    transpose_interleaver,
)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _seed(text: str) -> int:
    """argparse type of every --seed flag."""
    try:
        return _check_seed(int(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _cmd_keygen(args, parser):
    n = args.n_bytes
    if n < 16:
        parser.error("--bytes must be >= 16")
    if args.seed is not None:
        prefix = b"permofdm keygen" + args.seed.to_bytes(8, "big")
        digests = [hashlib.sha256(prefix + counter.to_bytes(4, "big")).digest()
                   for counter in range((n + 31) // 32)]
        key = SecretKey(b"".join(digests)[:n])
    else:
        key = SecretKey.generate(n)
    write_key_file(args.out, key, hex_text=not args.raw)
    return 0


def _run_cipher(args, parser, direction):
    key = read_key_file(args.key)
    n, l_depth = args.n, args.l
    if n < 1 or l_depth < 1:
        parser.error("--n and --l must be >= 1")
    size = n * l_depth
    samples = read_iq(args.input)
    if samples.size == 0 or samples.size % size:
        raise IqFormatError(
            f"{args.input}: {samples.size} samples is not a whole number of "
            f"blocks of L*N = {size}"
        )
    # Block b is permuted in place by its own map, counter --ell + b; the
    # gather or scatter moves whole 8-byte samples, so no bit of a sample
    # changes.
    permute = encrypt_block if direction == "enc" else decrypt_block
    for b, block in enumerate(samples.reshape(-1, size)):
        block[:] = permute(block, derive_permutation(key, args.ell + b, size))
    write_iq(args.out, samples)
    return 0


# What the config dataclasses cannot say about their command-line form.
_RENAMES = {"variant": "equalizer", "fresh_perm_per_block": "fresh_perm"}  # field -> flag
_ALIASES = {"k": "repeats", "fresh_perm_per_block": "fresh_perm"}  # config-file key -> flag
_PARSERS = {tuple[float, ...]: parse_float_list, tuple[int, ...]: parse_int_list, bool: parse_bool}
_LOADERS = {ChannelProfile: ChannelProfile.from_file, SecretKey: read_key_file}  # from a path


def _unwrap(tp):
    """A field type without its `None` alternative."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
    return tp


def _nested(tp) -> bool:
    return dataclasses.is_dataclass(tp) and tp not in _LOADERS


def _choices(tp):
    """The values a `Literal` field type allows, else None."""
    return typing.get_args(tp) if typing.get_origin(tp) is Literal else None


def _parser(tp):
    """Text -> value for a config-file entry or flag of field type `tp`."""
    return str if tp in _LOADERS or _choices(tp) else _PARSERS.get(tp, tp)


# Cached because main() builds the parser on every call.
@functools.cache
def _options(cls) -> tuple:
    """(flag dest, type) of each field of a config dataclass, nested ones flattened."""
    out = ()
    for f in dataclasses.fields(cls):
        tp = _unwrap(f.type)
        out += _options(tp) if _nested(tp) else ((_RENAMES.get(f.name, f.name), tp),)
    return out


@functools.cache
def _runner_options(runner) -> tuple:
    """(name, type) of each keyword argument a runner takes after its config."""
    return tuple((p.name, p.annotation)
                 for p in list(inspect.signature(runner).parameters.values())[1:])


def _add_options(p, options) -> None:
    p.add_argument("--config")
    for dest, tp in options:
        flag = "--" + dest.replace("_", "-")
        if tp is bool:
            p.add_argument(flag, action="store_const", const=True)
        else:
            p.add_argument(flag, type=_seed if dest == "seed" else _parser(tp),
                           choices=_choices(tp))
    p.add_argument("--out")


def _resolve(args, options) -> dict:
    """Each option's value from its flag, else from the config file; options
    set in neither are left out so that the dataclass default applies."""
    conf = read_config(args.config) if args.config else {}
    dests = {dest for dest, _ in options}
    for alias, dest in _ALIASES.items():
        if alias in conf and dest in dests and dest not in conf:
            conf[dest] = conf.pop(alias)
    unknown = sorted(conf.keys() - dests)
    if unknown:
        raise ValueError(f"{args.config}: unknown config key {', '.join(unknown)}")
    values = {}
    for dest, tp in options:
        if getattr(args, dest) is not None:
            values[dest] = getattr(args, dest)
        elif dest in conf:
            values[dest] = _parser(tp)(conf[dest])
    return values


def _build(parser, cls, values):
    """cls from resolved option values; a field missing from them keeps its
    dataclass default, or is a usage error if it has none."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        tp = _unwrap(f.type)
        dest = _RENAMES.get(f.name, f.name)
        if _nested(tp):
            kwargs[f.name] = _build(parser, tp, values)
        elif dest in values:
            kwargs[f.name] = _LOADERS[tp](values[dest]) if tp in _LOADERS else values[dest]
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            parser.error(f"--{dest.replace('_', '-')} is required "
                         "(set it on the command line or in the config file)")
    return cls(**kwargs)


def _run_experiment(args, parser, cls, runner):
    extra = _runner_options(runner)
    values = _resolve(args, _options(cls) + extra)
    cfg = _build(parser, cls, values)
    report = runner(cfg, **{name: values[name] for name, _ in extra if name in values})
    _emit(report.to_csv(), args.out)
    return 0


_EXPERIMENTS = (
    ("simulate-ber", "Monte-Carlo BER over the fading chain",
     BerExperimentConfig, run_ber_experiment),
    ("simulate-attack-ser", "eavesdropper SER vs number of displaced samples",
     SerAttackConfig, run_ser_attack_experiment),
    ("simulate-attack-recovery", "noise-averaging permutation recovery attack",
     AttackRecoveryConfig, run_attack_recovery_experiment),
    ("analyze-snr", "semi-analytic scrambled-ZF BER", SnrAnalysisConfig, analyze_snr),
)


_IciPerm = Literal["identity", "reversal", "random", "transpose", "keyed"]


@dataclass(frozen=True)
class _IciOptions:
    seed: int
    n: int = 256
    m: int = 4
    trials: int = 20000
    perm: _IciPerm = "random"
    key: Optional[str] = None  # key file path, read only for perm == "keyed"
    ell: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.perm not in typing.get_args(_IciPerm):
            raise ShapeError(f"unknown perm {self.perm!r}")


def _cmd_measure_ici(args, parser):
    o = _build(parser, _IciOptions, _resolve(args, _options(_IciOptions)))
    if o.perm == "identity":
        perm = Permutation.identity(o.n)
    elif o.perm == "reversal":
        perm = Permutation(map=np.arange(o.n, dtype=np.int64)[::-1])
    elif o.perm == "random":
        perm = Permutation(map=np.random.default_rng((o.seed, 0xFACE)).permutation(o.n))
    elif o.perm == "transpose":
        perm = transpose_interleaver(o.n)
    else:  # keyed
        if o.key is None:
            parser.error("--perm keyed needs --key")
        perm = derive_permutation(read_key_file(o.key), o.ell, o.n)
    report = measure_ici(perm, o.trials, o.n, m=o.m, seed=o.seed)
    lines = ["l,k,alpha_re,alpha_im,alpha_abs2,beta_power"]
    a = report.alpha
    b = report.beta_power
    for l in range(a.shape[0]):
        for k in range(a.shape[1]):
            lines.append(
                f"{l},{k},{a[l, k].real:.6g},{a[l, k].imag:.6g},"
                f"{abs(a[l, k]) ** 2:.6g},{b[l, k]:.6g}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permofdm",
        description="Permutation-secured OFDM link simulator and attack bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key file")
    p.add_argument("--out", required=True)
    p.add_argument("--bytes", dest="n_bytes", type=int, default=32)
    p.add_argument("--seed", type=_seed, default=None,
                   help="deterministic key derivation (testing only)")
    p.add_argument("--raw", action="store_true", help="write raw bytes, not hex")
    p.set_defaults(handler=_cmd_keygen)

    for name, direction in (("encrypt", "enc"), ("decrypt", "dec")):
        p = sub.add_parser(name, help=f"{name} a binary IQ sample file")
        p.add_argument("input")
        p.add_argument("--out", required=True)
        p.add_argument("--key", required=True)
        p.add_argument("--n", type=int, required=True, help="samples per OFDM symbol")
        p.add_argument("--l", type=int, default=1, help="symbols per interleaving block")
        p.add_argument("--ell", type=int, default=0, help="starting block counter")
        p.set_defaults(handler=lambda a, pr, d=direction: _run_cipher(a, pr, d))

    for name, help_, cls, runner in _EXPERIMENTS:
        p = sub.add_parser(name, help=help_)
        _add_options(p, _options(cls) + _runner_options(runner))
        p.set_defaults(handler=lambda a, pr, c=cls, r=runner: _run_experiment(a, pr, c, r))

    p = sub.add_parser("measure-ici",
                       help="per-subcarrier attenuation/self-interference of a permutation")
    _add_options(p, _options(_IciOptions))
    p.set_defaults(handler=_cmd_measure_ici)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (OSError, ValueError) as e:  # the package's errors are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
