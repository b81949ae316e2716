"""One compute-in-memory macro: row DACs, differential crossbar, column ADCs.

A macro MAC takes a (rows, n) batch of 7-bit input codes, one column per
input vector, drives one row voltage per row of the programmed
``ConductancePair`` from each vector and collects the differential
currents of its column pairs: the pair's shape, at most ``xbar.MAX_ROWS``
x ``xbar.MAX_COLS`` (576x256), is the tile's geometry, and ``MacroConfig``
holds only what the tiles of a bank share.  Both columns of a pair go
through the same converter, the adaptive FP-ADC (``readout="adc"``) or the
fixed-range INT8 baseline (``"int8"``).  ``converter(readout, fmt)`` is
the one place that reads a readout's name: it gives the converter's
``perfmodel`` key, its full scale (the smallest x that saturates) and its
conversion, which returns ``(codes, underflow, saturated, x)``, with x the
value each code reads as.  The two x values are subtracted digitally in
double precision, so the converter never sees a signed value.
``"identity"`` bypasses the analog chain and returns the exact dot
product; it has no converter.

The digital result is reported in dimensionless dot-product units
``sum_i decode(input_i) * level_i`` (``level`` the signed integer
conductance level of the cell).  ``scale_chain`` is the factor mapping
one dot-product unit to the ADC's internal x value; weights must be
pre-scaled so results land inside the convertible range.  The DAC's
volts per decoded 1.0, ``v_unit``, is the format's ``dac.V_UNIT``.

``macro_mac`` computes the column currents of the whole tile and batch,
then runs the per-column chain after them (conversion of both columns,
read-back, subtraction, scaling, flags) over blocks of about
``fpcodec._BLOCK`` column results, so its temporaries stay cache-sized.

A noiseless tile holds integer levels ``k`` (``xbar.ConductancePair``),
and ``q = mant_levels * decode(code)`` is an integer too, so its currents
are computed exactly: ``i = V_UNIT * (g_min * S + (g_lsb / mant_levels) *
D)``, with ``S`` each vector's sum of decoded inputs and ``D = sum q * k``
from one matmul of the ``[kp | kn]`` levels per input phase (signed
inputs add the reverse phase's product with its halves swapped).  ``D``
is at most ``max_value * mant_levels * (levels - 1) * MAX_ROWS``; below
2^24 (E2M5 at 16 levels: 4,354,560) every partial sum is an integer
float32 holds exactly, above it (E3M4: 34,283,520) the operands are
float64 integers (``D`` stays far below 2^53 with at most 2^24 levels),
so ``D`` is the same bits in any summation order, blocking and row split
alike.  A noisy tile's currents are float64 ``volts.T @ g`` matmuls of
its planes, not blocked: splitting their vector dimension changes how
BLAS sums, and so the currents' last bits.

The tile-sized temporaries that never leave a call, the decoded inputs or
voltages, the integer operands and sums, the two current planes and the
noisy signed path's matmul product, live in one grow-only set of scratch
buffers per thread (``_scratch``): a freed and retaken tile-sized array
costs its pages' faults on every call (about 1,000 per cnn bench batch),
a reused one none.  Every array a function of this module returns is
fresh, or the caller's own ``out``, and none is a view of the scratch.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import fpcodec
from .adc import (INT8_FULL_SCALE, V_MID, AdcConfig, convert_analytic_array,
                  int8_baseline_convert, x_sat)
from .dac import V_UNIT, dac_convert_bits
from .errors import ContractError
from .fpcodec import E2M5, FpFormat, check_format
from .perfmodel import LATENCY_NS
from .xbar import MAX_ROWS, ConductancePair, DeviceModel

__all__ = [
    "MacroConfig",
    "MacroResult",
    "converter",
    "scale_chain",
    "macro_mac",
    "ideal_reference",
    "batch_inputs",
]


@dataclass(frozen=True)
class MacroConfig:
    fmt: FpFormat = E2M5
    adc: AdcConfig = field(default_factory=AdcConfig)
    device: DeviceModel = field(default_factory=DeviceModel)

    def __post_init__(self):
        for name, kind in (("fmt", FpFormat), ("adc", AdcConfig), ("device", DeviceModel)):
            v = getattr(self, name)
            if not isinstance(v, kind):
                raise ContractError(f"{name} must be a {kind.__name__}, got {v!r}")
        # the FP window is the shorter of the two readouts': a t_int inside it fits both
        if LATENCY_NS[self.fmt.name] / 1e9 <= self.adc.t_int:
            raise ContractError("macro latency must exceed the ADC integration window")

    @classmethod
    def for_format(cls, fmt: FpFormat, device: DeviceModel | None = None) -> "MacroConfig":
        return cls(fmt, device=device if device is not None else DeviceModel())


@dataclass
class MacroResult:
    """Per-column conversion results of one macro cycle.

    ``digital_values`` has shape (n, cols), one row per input vector, and
    so do the flag arrays; a column counts as underflowed only when both
    differential conversions underflowed.
    """

    pos_bits: np.ndarray | None
    neg_bits: np.ndarray | None
    digital_values: np.ndarray
    underflow: np.ndarray
    saturated: np.ndarray


class Converter(NamedTuple):
    """One column converter, as ``converter`` names it."""

    label: str  # its ``LATENCY_NS`` and ``perfmodel.DEFAULT_PARAMS`` key
    full_scale: float  # the smallest x that saturates
    convert: Callable  # (currents, AdcConfig) -> (codes, underflow, saturated, x)


def converter(readout: str, fmt: FpFormat) -> Converter:
    """The column converter of ``readout``, ``"adc"`` or ``"int8"``.

    ``"adc"`` is the adaptive FP-ADC of ``fmt``, ``"int8"`` the fixed-range
    baseline, which reads every format the same.  The FP conversion looks
    ``convert_analytic_array`` up in this module at call time, so a
    wrapper installed here sees every conversion.
    """
    check_format(fmt)
    if readout == "adc":
        return Converter(fmt.name, x_sat(fmt),
                         lambda currents, adc: convert_analytic_array(currents, adc, fmt))
    if readout == "int8":
        return Converter("INT8", INT8_FULL_SCALE, int8_baseline_convert)
    raise ContractError(f"unknown readout {readout!r} for a converter: 'adc' or 'int8'")


def scale_chain(config: MacroConfig) -> float:
    """x value of one dot-product unit: V_UNIT[fmt] * g_lsb * t_int / (c_int * V_MID)."""
    return V_UNIT[config.fmt] * config.device.g_lsb * config.adc.t_int / (config.adc.c_int * V_MID)


def _signed_levels(weights: ConductancePair, device: DeviceModel) -> np.ndarray:
    """Signed levels of a tile: a noiseless tile's own, else read back from its pair."""
    if weights.levels is not None:
        cols = weights.shape[1]
        return np.subtract(weights.levels[:, :cols], weights.levels[:, cols:], dtype=float)
    return np.rint((weights.g_pos - weights.g_neg) / device.g_lsb)


def batch_inputs(input_bits, signs=None):
    """(codes, signs or None): a (rows, n) integer code batch and, if given,
    bool signs of the same shape."""
    bits = np.asarray(input_bits)
    if not np.issubdtype(bits.dtype, np.integer):
        raise ContractError(f"input codes must have an integer dtype, not {bits.dtype}")
    if bits.ndim != 2:
        raise ContractError(f"input codes must be a (rows, n) batch, not {bits.shape}")
    if signs is not None:
        signs = np.asarray(signs, dtype=bool)
        if signs.shape != bits.shape:
            raise ContractError(f"signs {signs.shape} do not match input codes {bits.shape}")
    return bits, signs


def macro_mac(input_bits: np.ndarray, weights: ConductancePair, config: MacroConfig,
              signs: np.ndarray | None = None, readout: str = "adc") -> MacroResult:
    """One macro MAC: codes in, per-column converted differential results out.

    ``input_bits`` is a (rows, n) batch of integer 7-bit patterns, one row
    per row of ``weights`` and one column per input vector, and ``signs``,
    if given, a boolean array of the same shape.  Rows with a set sign bit
    contribute through the complementary column of each differential pair
    (two-phase input scheme).  ``readout`` selects the column converter
    (``converter``): the adaptive FP ADC, the fixed-range INT8 baseline,
    or an identity bypass that returns the digital dot product directly.
    Every array of the result is fresh.

    The currents (``_column_currents``) cover the whole batch; the
    per-column-result chain after them runs over slices of ``max(1,
    fpcodec._BLOCK // cols)`` input vectors, so no bit depends on the
    block.
    """
    if not isinstance(weights, ConductancePair):
        raise ContractError(f"weights must be a ConductancePair, got {weights!r}")
    if not isinstance(config, MacroConfig):
        raise ContractError(f"config must be a MacroConfig, got {config!r}")
    bits, signs = batch_inputs(input_bits, signs)
    if bits.shape[0] != weights.shape[0]:
        raise ContractError(f"{bits.shape[0]} input rows for a {weights.shape[0]}-row macro")

    if readout == "identity":
        dec = fpcodec.decode_bits(bits, config.fmt)
        if signs is not None:
            dec = np.where(signs, -dec, dec)
        digital = ideal_reference(dec, _signed_levels(weights, config.device))
        return MacroResult(None, None, digital, np.zeros(digital.shape, dtype=bool),
                           np.zeros(digital.shape, dtype=bool))

    convert = converter(readout, config.fmt).convert
    n, cols = bits.shape[1], weights.shape[1]
    i_pos, i_neg = _column_currents(bits, signs, weights, config,
                                    out=_scratch("currents", (2, n, cols)))
    out = MacroResult(np.empty((n, cols), np.uint8), np.empty((n, cols), np.uint8),
                      np.empty((n, cols)), np.empty((n, cols), bool), np.empty((n, cols), bool))
    gain = 1.0 / scale_chain(config)
    step = max(1, fpcodec._BLOCK // cols)
    for lo in range(0, n, step):
        vecs = slice(lo, lo + step)
        out.pos_bits[vecs], under_p, sat_p, x_pos = convert(i_pos[vecs], config.adc)
        out.neg_bits[vecs], under_n, sat_n, x_neg = convert(i_neg[vecs], config.adc)
        digital = np.subtract(x_pos, x_neg, out=out.digital_values[vecs])
        digital *= gain
        np.logical_and(under_p, under_n, out=out.underflow[vecs])
        np.logical_or(sat_p, sat_n, out=out.saturated[vecs])
    return out


def _column_currents(bits, signs, weights: ConductancePair, config: MacroConfig, out=None):
    """(i_pos, i_neg), each (n, cols): the currents of both columns of every pair.

    The currents are the two planes of ``out``, a C-contiguous (2, n, cols)
    float64 array, if given, else of one fresh array.  A noiseless tile's
    are ``V_UNIT * (g_min * S + (g_lsb / mant_levels) * D)`` from its exact
    sums (``_level_sums``, which writes ``D`` into ``out``) in float64, in
    that order of operations, with its own device's ``g_min`` and
    ``g_lsb``.  A noisy tile's are the DAC's voltages times its planes, 2
    (unsigned) or 4 (signed) whole-tile float64 matmuls, each writing a
    C-contiguous (n, cols) array, as it would a fresh one.  Every
    temporary lives in this thread's scratch (``_scratch``), so a repeated
    call of one shape allocates nothing else.
    """
    rows, n = bits.shape
    if out is None:
        out = np.empty((2, n, weights.shape[1]))
    i_pos, i_neg = out
    if weights.levels is not None:
        device = weights.device
        s = _level_sums(bits, signs, weights, config.fmt, out)
        g_min_s = np.multiply(s, device.g_min, out=s)[:, None]
        for i in out:
            i *= device.g_lsb / config.fmt.mant_levels
            i += g_min_s
            i *= V_UNIT[config.fmt]
        return i_pos, i_neg
    volts = dac_convert_bits(bits, config.fmt, out=_scratch("inputs", (rows, n)))
    if signs is None:
        np.matmul(volts.T, weights.g_pos, out=i_pos)
        np.matmul(volts.T, weights.g_neg, out=i_neg)
        return i_pos, i_neg
    # +0.0 where the sign is clear: volts are finite, >= 0
    v_rev = np.multiply(volts, signs, out=_scratch("v_rev", (rows, n)))
    volts -= v_rev  # exactly 0 where the sign is set: the forward phase
    product = _scratch("product", i_pos.shape)
    np.matmul(volts.T, weights.g_pos, out=i_pos)
    i_pos += np.matmul(v_rev.T, weights.g_neg, out=product)
    np.matmul(volts.T, weights.g_neg, out=i_neg)
    i_neg += np.matmul(v_rev.T, weights.g_pos, out=product)
    return i_pos, i_neg


def _exact_dtype(fmt: FpFormat, device: DeviceModel):
    """float32 when every level sum ``D`` of a tile is an integer below 2^24, else float64."""
    bound = fmt.max_value * fmt.mant_levels * (device.levels - 1) * MAX_ROWS
    return np.float32 if bound < 2**24 else np.float64


def _level_sums(bits, signs, weights: ConductancePair, fmt: FpFormat, out):
    """``S`` of a noiseless tile, a fresh (n,) array; its ``D`` goes into ``out``.

    ``S`` is each vector's sum of decoded inputs over every row.  With ``q
    = mant_levels * decode(code)``, ``D_pos = q_f . kp + q_r . kn`` and
    ``D_neg = q_f . kn + q_r . kp`` are written into the two (n, cols)
    float64 planes of ``out``, ``q_f`` and ``q_r`` the forward (sign clear)
    and reverse (sign set) phases' inputs, ``q_r`` zero without signs.
    Each phase is one matmul of its half of the ``[q_f | q_r]`` operand
    with the ``[kp | kn]`` levels into one (n, 2 * cols) product, the
    reverse phase's halves added swapped.  Every term is a non-negative
    integer and every sum is below 2^24 in float32 (``_exact_dtype``), or
    in float64, so each is exact.
    """
    rows, n = bits.shape
    cols = weights.shape[1]
    dtype = _exact_dtype(fmt, weights.device)
    dec = fpcodec.decode_bits(bits, fmt, out=_scratch("inputs", (rows, n)))
    s = dec.sum(axis=0)  # multiples of 2^-M far below 2^53: exact in any order
    q = _scratch("q", (rows, n if signs is None else 2 * n), dtype)
    np.multiply(dec, fmt.mant_levels, out=q[:, :n])
    k = weights.levels
    if k.dtype != dtype:  # float64 integer operands
        k = _scratch("levels", k.shape, dtype)
        np.copyto(k, weights.levels)
    d = _scratch("sums", (n, 2 * cols), dtype)
    d_pos, d_neg = out
    if signs is not None:
        rev = np.multiply(q[:, :n], signs, out=q[:, n:])
        q[:, :n] -= rev
        np.matmul(rev.T, k, out=d)
        np.copyto(d_pos, d[:, cols:])
        np.copyto(d_neg, d[:, :cols])
    np.matmul(q[:, :n].T, k, out=d)
    if signs is None:
        np.copyto(d_pos, d[:, :cols])
        np.copyto(d_neg, d[:, cols:])
    else:
        d_pos += d[:, :cols]
        d_neg += d[:, cols:]
    return s


_local = threading.local()


def _scratch(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """A C-contiguous ``dtype`` ``shape`` view of this thread's buffer ``name``.

    Each thread's buffers start empty; one is allocated on first use and
    replaced only by a larger one, so a call no larger than an earlier one
    faults in no fresh pages.  A view holds whatever its last user left
    and is overwritten by the next call of this thread: it must never
    leave the call that took it.
    """
    size = math.prod(shape)
    buffers = _local.__dict__.setdefault("buffers", {})
    key = (name, np.dtype(dtype))
    buf = buffers.get(key)
    if buf is None or buf.size < size:
        buf = buffers[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def ideal_reference(decoded_inputs: np.ndarray, weight_levels: np.ndarray) -> np.ndarray:
    """Golden model: exact double-precision differential dot products.

    ``decoded_inputs`` is a (rows, n) batch, one column per input vector,
    and ``weight_levels`` (rows, cols) signed; returns the (n, cols) dot
    products in the same units as ``MacroResult.digital_values``.
    """
    d = np.asarray(decoded_inputs, dtype=float)
    w = np.asarray(weight_levels, dtype=float)
    if d.ndim != 2:
        raise ContractError(f"decoded inputs must be a (rows, n) batch, not {d.shape}")
    if d.shape[0] != w.shape[0]:
        raise ContractError("input length must match weight rows")
    return d.T @ w
