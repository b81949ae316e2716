"""Bit-exact codec for the unsigned 7-bit hardware floating-point formats.

Two formats share the 7-bit code width: E2M5 (2 exponent bits, 5 mantissa
bits) and E3M4.  A code is its bit pattern, an integer in [0, 128) with the
exponent in the high bits: ``(e << M) | m``, e.g. E2M5 exponent 2 /
mantissa 30 is ``0b1011110``.  It decodes to ``(1 + m / 2^M) * 2^e`` with
an implicit leading one and zero exponent bias, so the non-zero range is
[1 + 2^-M, (2 - 2^-M) * 2^(2^E - 1)].  The all-zeros code is reserved for an
exact 0 (flush-to-zero; the format has no subnormals).  Signs are carried
out of band as a separate bit array; the 7-bit code itself is unsigned.

A pattern carries no format: the same bits read 7.75 in E2M5 and 60.0 in
E3M4, so every function that makes or reads codes takes the ``FpFormat``,
none defaults it, and each rejects anything else, a format's name
included, with ``ContractError`` (``check_format``).  ``decode`` is the
scalar closed-form reference and the source of the value table that
``decode_bits`` reads arrays of patterns through; ``quantize_tensor`` is
the one encoder, and at ``scale=1.0`` it encodes values already in range.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, is_int, is_real

__all__ = [
    "FpFormat",
    "E2M5",
    "E3M4",
    "decode",
    "decode_bits",
    "all_values",
    "check_format",
    "quantize_tensor",
]

CODE_BITS = 7

# Elements per block (128 KiB of float64) of ``quantize_tensor`` and of the
# conversion chain in ``cimmacro.macro_mac``: their temporaries stay
# cache-sized instead of spanning the whole batch.
_BLOCK = 16384


@dataclass(frozen=True)
class FpFormat:
    """Descriptor of one 7-bit exponent/mantissa split."""

    exponent_bits: int
    mantissa_bits: int

    def __post_init__(self):
        if not (is_int(self.exponent_bits) and is_int(self.mantissa_bits)):
            raise ContractError(f"bit widths must be integers, got {self!r}")
        if self.exponent_bits + self.mantissa_bits != CODE_BITS:
            raise ContractError("exponent and mantissa bits must total 7")
        if self.exponent_bits not in (2, 3):
            raise ContractError("exponent width must be 2 or 3 bits")

    @property
    def name(self) -> str:
        return f"E{self.exponent_bits}M{self.mantissa_bits}"

    @property
    def exp_max(self) -> int:
        return (1 << self.exponent_bits) - 1

    @property
    def mant_levels(self) -> int:
        return 1 << self.mantissa_bits

    @property
    def max_value(self) -> float:
        """Largest decodable value, (2 - 2^-M) * 2^exp_max."""
        return (2.0 - 1.0 / self.mant_levels) * 2.0**self.exp_max

    @property
    def min_nonzero(self) -> float:
        """Smallest non-zero decodable value, 1 + 2^-M."""
        return 1.0 + 1.0 / self.mant_levels


E2M5 = FpFormat(2, 5)
E3M4 = FpFormat(3, 4)


def check_format(fmt) -> FpFormat:
    """``fmt`` itself if it is an ``FpFormat``: a name such as ``"E2M5"`` raises."""
    if not isinstance(fmt, FpFormat):
        raise ContractError(f"fmt must be an FpFormat, got {fmt!r}")
    return fmt


def decode(bits: int, fmt: FpFormat) -> float:
    """Decoded value of one 7-bit code: 0 for the all-zeros code, else (1+m/2^M)*2^e."""
    check_format(fmt)
    if not (is_int(bits) and 0 <= bits < (1 << CODE_BITS)):
        raise ContractError(f"code bits {bits!r} are not a 7-bit integer")
    if bits == 0:
        return 0.0
    e, m = divmod(int(bits), fmt.mant_levels)
    return (1.0 + m / fmt.mant_levels) * 2.0**e


def all_values(fmt: FpFormat) -> np.ndarray:
    """All 128 decoded values in code-bit order (index = bit pattern); read-only."""
    return _values_table(check_format(fmt))


@functools.cache
def _values_table(fmt: FpFormat) -> np.ndarray:
    vals = np.array([decode(b, fmt) for b in range(1 << CODE_BITS)])
    vals.flags.writeable = False
    return vals


def _encode_codes(x: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Unchecked uint8 codes of finite non-negative float64s, rounded as ``quantize_tensor`` says.

    Works on the float64 bit pattern ``u`` (as int64): with ``d = 52 - M``
    dropped mantissa bits, a value in [1, max_value] has the code
    ``((u + r) >> d) - (1023 << M)``, where the rounding constant ``r`` is
    ``2^(d-1) - 1 + lsb`` (half to even, ``lsb`` the last kept bit); a
    mantissa that rounds over carries into the exponent through the add.
    Values above ``max_value`` are clamped to it first.  Values below 1
    (and +-0) get no positive code from that.  Those values, and the ones
    that round down onto the zero slot, get code 1 when ``min_nonzero``
    is the closer of 0 and ``min_nonzero``: when ``x > min_nonzero / 2``.
    That equals the comparison ``min_nonzero - x < x``, because the
    subtraction is exact for x in [min_nonzero / 2, 2 * min_nonzero]
    (Sterbenz) and both sides are false below it.
    """
    # out= keeps a 0-d input an array, so the in-place steps below apply
    u = np.minimum(x, fmt.max_value, out=np.empty(x.shape)).view(np.int64)
    d = 52 - fmt.mantissa_bits
    r = u >> d
    r &= 1
    r += (1 << (d - 1)) - 1
    u += r
    u >>= d
    u -= 1023 << fmt.mantissa_bits
    # The (0,0) slot decodes to 0, not 1: anything at or below it is 1 or 0.
    np.maximum(u, x > fmt.min_nonzero / 2, out=u)
    return u.astype(np.uint8)


def decode_bits(bits: np.ndarray, fmt: FpFormat, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized decode of 7-bit code patterns through the ``all_values`` table.

    The codes must have an integer dtype; they index the table as they are.
    The values go into ``out``, a C-contiguous float64 array of the codes'
    shape, if given, else into one fresh array, which is returned.  The
    table is read in flat slices of ``_BLOCK`` codes: ``take`` first
    converts its indices to intp, 8 bytes per code, and on a whole uint8
    batch that copy is 8x the codes, fresh pages every call.
    """
    table = all_values(fmt)
    b = np.asarray(bits)
    if not np.issubdtype(b.dtype, np.integer):
        raise ContractError(f"codes must have an integer dtype, not {b.dtype}")
    if b.size and (b.min() < 0 or b.max() >= (1 << CODE_BITS)):
        raise ContractError("code bits out of 7-bit range")
    if out is None:
        out = np.empty(b.shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == b.shape and out.flags.c_contiguous and out.flags.writeable):
        raise ContractError(f"out must be a writeable C-contiguous float64 array of shape {b.shape}")
    flat, flat_out = b.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _BLOCK):
        # "raise" would buffer out; the range is checked above, so "clip" moves no index
        table.take(flat[lo : lo + _BLOCK], out=flat_out[lo : lo + _BLOCK], mode="clip")
    return out


class QuantResult(NamedTuple):
    codes: np.ndarray  # uint8 bit patterns
    signs: np.ndarray  # bool, True where the source value was negative
    scale: float  # multiplier mapping real values into the decodable range


def quantize_tensor(values: np.ndarray, fmt: FpFormat, scale: float | None = None) -> QuantResult:
    """Max-abs post-training quantization of a real tensor.

    The scale maps the largest magnitude onto the top decodable value.
    Each scaled magnitude then gets the decodable value (0 included) at
    minimum distance, ties to the even mantissa (as ``np.rint``): a
    mantissa that rounds over carries into the exponent, a value above
    ``max_value`` clamps to it and one at or below ``min_nonzero / 2``
    flushes to 0.  (The FP-ADC's ceiling readout is ``adc``'s own: it
    clamps at the top mantissa instead of carrying.)  Signs are stored out
    of band.  An all-zero tensor gets scale 1 and all-zero codes;
    ``scale=1.0`` encodes the values as they are.

    The tensor is checked once: its values must be finite, the scale
    finite and positive, and the scaled max-abs finite.  It is then
    encoded in flat blocks of ``_BLOCK`` elements into one code array by
    the codes-only encoder, with no per-block checks and no flags;
    encoding is elementwise, so the codes do not depend on the block size.
    """
    check_format(fmt)
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ContractError("cannot quantize an empty tensor")
    max_abs = float(max(np.max(x), -np.min(x)))  # NaN and inf propagate
    if not max_abs < np.inf:
        raise ContractError(f"quantize requires finite values, max-abs is {max_abs}")
    if scale is None:
        scale = fmt.max_value / max_abs if max_abs > 0 else 1.0
    if not (is_real(scale) and 0 < scale < np.inf):
        raise ContractError(f"quantization scale must be finite and positive, got {scale}")
    if not scale * max_abs < np.inf:
        raise ContractError(f"quantization scale {scale} takes max-abs {max_abs} beyond float64")
    flat = x.reshape(-1)
    codes = np.empty(flat.size, dtype=np.uint8)
    for lo in range(0, flat.size, _BLOCK):
        chunk = np.abs(flat[lo : lo + _BLOCK])
        chunk *= scale
        codes[lo : lo + _BLOCK] = _encode_codes(chunk, fmt)
    return QuantResult(codes.reshape(x.shape), x < 0, float(scale))
