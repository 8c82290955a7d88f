"""Exception types shared across the package, the out= check that raises one,
and the pass budget of the kernels that work through an array in slices."""

import numpy as np

# Samples a kernel handles per pass (QAM mapping and decisions, noise draws,
# convolution segments, measure_ici slices), so its temporaries stay small.
# It also bounds a BER task's framed samples: many small blocks share a task,
# and a larger block (a transpose block at n=256 is 69,632 samples) runs alone.
PASS_SAMPLES = 8192


class ShapeError(ValueError):
    """Input array has a length or shape the operation cannot accept."""


class FramingError(ValueError):
    """Sample block is in the wrong framing state (cyclic prefix present/absent)."""


class SingularChannelError(ValueError):
    """Channel frequency response has an exactly-zero bin and no floor was requested."""


class KeyFormatError(ValueError):
    """Key material is missing, too short, or not decodable."""


class IqFormatError(ValueError):
    """Binary IQ file is truncated or not a whole number of complex samples."""


class BruteForceCostError(ValueError):
    """Exhaustive permutation search refused; carries the keyspace size in bits."""

    def __init__(self, size: int, bits: float):
        self.size = size
        self.bits = bits
        super().__init__(
            f"exhaustive search over {size}! permutations refused: "
            f"keyspace is {bits:.1f} bits (limit is size <= 8)"
        )


class AmbiguousMatchWarning(UserWarning):
    """Two candidate matches were closer than the tolerance; assignment is arbitrary."""


def out_array(out, shape, dtype) -> np.ndarray:
    """A kernel's result array: out, checked, or a new array when out is None.

    A given out must be C-contiguous with the result's shape and dtype, so
    that kernels can view it as rows.
    """
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != tuple(shape) or out.dtype != dtype or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-contiguous {np.dtype(dtype)} array of shape "
                         f"{tuple(shape)}, got {out.dtype} {out.shape}")
    return out
