"""File formats: binary IQ streams, key files, and key=value configs.

IQ files are headerless little-endian float32, interleaved I,Q per
complex sample, which is one little-endian complex64 per sample.  read_iq
returns those samples as they are stored and write_iq casts once to that
type, so a complex64 array passes through both bit for bit, NaN payloads
included.  Key files hold hex text (default) or raw bytes; raw bytes that
would read as hex are refused at write time.  Config files are `key =
value` lines with `#` comments; values stay strings until the CLI parses
them by the type of the config field they set.
"""

import os
import string
from pathlib import Path

import numpy as np

from .errors import IqFormatError, KeyFormatError
from .permcipher import SecretKey


def write_iq(path, samples: np.ndarray) -> None:
    np.asarray(samples, dtype="<c8").tofile(path)


def read_iq(path) -> np.ndarray:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size % 8:
            raise IqFormatError(
                f"{path}: {size} bytes is not a whole number of float32 I,Q pairs")
        # Read once into a writable array; I and Q stay independent, so a NaN
        # or an infinity in one leaves the other intact.
        return np.fromfile(f, dtype="<c8", count=size // 8).astype(np.complex64, copy=False)


def _reads_as_hex(raw: bytes) -> bool:
    """Whether key-file bytes are hex text, with whitespace around it allowed."""
    try:
        text = raw.decode("ascii").strip()
    except UnicodeDecodeError:
        return False
    return bool(text) and all(c in string.hexdigits for c in text)


def write_key_file(path, key: SecretKey, hex_text: bool = True) -> None:
    if hex_text:
        Path(path).write_text(key.hex() + "\n")
    elif _reads_as_hex(key.key_bytes):
        raise KeyFormatError(f"{path}: this raw key reads as hex text; write it as hex")
    else:
        Path(path).write_bytes(key.key_bytes)


def read_key_file(path) -> SecretKey:
    raw = Path(path).read_bytes()
    if not raw:
        raise KeyFormatError(f"{path}: empty key file")
    return SecretKey.from_hex(raw.decode("ascii")) if _reads_as_hex(raw) else SecretKey(raw)


def read_text(path) -> str:
    """A text file's contents; bytes that do not decode are an error that names the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not a text file: {e}") from None


def read_config(path) -> dict:
    """Parse `key = value` lines; keys, each set once, are lowercased, values raw strings."""
    out = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key in out:
            raise ValueError(f"{path}:{lineno}: config key {key} is set twice")
        out[key] = value.strip()
    return out


def parse_float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


def parse_int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.replace(",", " ").split())


def parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")
