"""One compute-in-memory macro: row DACs, differential crossbar, column ADCs.

A macro MAC drives one row voltage per row of the programmed
``ConductancePair`` from 7-bit input codes and collects the differential
currents of its column pairs: the pair's shape, at most ``xbar.MAX_ROWS``
x ``xbar.MAX_COLS`` (576x256), is the tile's geometry, and ``MacroConfig``
holds only what the tiles of a bank share.  Both columns of a pair go
through the same converter, the adaptive FP-ADC (``readout="adc"``) or the
fixed-range INT8 baseline (``"int8"``).  The FP-ADC returns each code's x
value with the code; an INT8 code is scaled by ``INT8_LSB``.  The two x
values are subtracted digitally in double precision, so the converter
never sees a signed value.  ``"identity"`` bypasses the analog chain and
returns the exact dot product.

The digital result is reported in dimensionless dot-product units
``sum_i decode(input_i) * level_i`` (``level`` the signed integer
conductance level of the cell, or the normalized weight for a continuous
device).  ``scale_chain`` is the factor mapping one dot-product unit to
the ADC's internal x value; weights must be pre-scaled so results land
inside the convertible range.  The DAC's volts per decoded 1.0, ``v_unit``,
is the format's ``dac.V_UNIT``.

``macro_mac`` runs the DAC and the crossbar matmuls on the whole tile and
batch, then the per-column chain after them (conversion of both columns,
read-back, subtraction, scaling, flags) over blocks of about
``fpcodec._BLOCK`` column results, so its temporaries stay cache-sized.
The matmuls are not blocked: splitting their vector dimension changes how
BLAS sums, and so the currents' last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fpcodec
from .adc import (INT8_LSB, LATENCY_NS, V_MID, AdcConfig, convert_analytic_array,
                  int8_baseline_convert)
from .dac import V_UNIT, dac_convert_bits
from .errors import ContractError
from .fpcodec import E2M5, FpFormat
from .xbar import ConductancePair, DeviceModel

__all__ = [
    "MacroConfig",
    "MacroResult",
    "scale_chain",
    "macro_mac",
    "ideal_reference",
    "batch_inputs",
    "READOUTS",
]

READOUTS = ("adc", "identity", "int8")


@dataclass(frozen=True)
class MacroConfig:
    fmt: FpFormat = E2M5
    adc: AdcConfig = field(default_factory=AdcConfig)
    device: DeviceModel = field(default_factory=DeviceModel)

    def __post_init__(self):
        if self.latency <= self.adc.t_int:
            raise ContractError("macro latency must exceed the ADC integration window")

    @property
    def latency(self) -> float:
        """Seconds per macro cycle: the format's conversion time."""
        return LATENCY_NS[self.fmt.name] / 1e9

    @classmethod
    def for_format(cls, fmt: FpFormat, device: DeviceModel | None = None) -> "MacroConfig":
        return cls(fmt, device=device if device is not None else DeviceModel())


@dataclass
class MacroResult:
    """Per-column conversion results of one macro cycle.

    ``digital_values`` has shape (cols,) for a single input vector or
    (n, cols) for a batch.  Flag arrays match that shape; a column counts
    as underflowed only when both differential conversions underflowed.
    """

    pos_bits: np.ndarray | None
    neg_bits: np.ndarray | None
    digital_values: np.ndarray
    underflow: np.ndarray
    saturated: np.ndarray


def scale_chain(config: MacroConfig) -> float:
    """x value produced by one dot-product unit: V_UNIT[fmt] * g_lsb * t_int / c_int."""
    return V_UNIT[config.fmt] * config.device.g_lsb * config.adc.t_int / config.adc.c_int


def _levels_from_pair(weights: ConductancePair, device: DeviceModel) -> np.ndarray:
    """Signed levels read back from a differential pair (noiseless device)."""
    raw = (weights.g_pos - weights.g_neg) / device.g_lsb
    if device.levels is None:
        return raw
    return np.rint(raw)


def batch_inputs(input_bits, signs=None):
    """(codes, signs or None, single): integer codes and bool signs of the
    same shape as (rows, n) batches, and whether the input was one vector.

    The codes must be one vector (rows,) or a batch (rows, n).
    """
    bits = np.asarray(input_bits)
    if not np.issubdtype(bits.dtype, np.integer):
        raise ContractError(f"input codes must have an integer dtype, not {bits.dtype}")
    if bits.ndim not in (1, 2):
        raise ContractError(f"input codes must be (rows,) or (rows, n), not {bits.shape}")
    if signs is not None:
        signs = np.asarray(signs, dtype=bool)
        if signs.shape != bits.shape:
            raise ContractError(f"signs {signs.shape} do not match input codes {bits.shape}")
        signs = signs.reshape(bits.shape[0], -1)
    return bits.reshape(bits.shape[0], -1), signs, bits.ndim == 1


def macro_mac(input_bits: np.ndarray, weights: ConductancePair, config: MacroConfig,
              signs: np.ndarray | None = None, readout: str = "adc") -> MacroResult:
    """One macro MAC: codes in, per-column converted differential results out.

    ``input_bits`` is (rows,) or (rows, n) of integer 7-bit patterns, one
    row per row of ``weights``, and ``signs``, if given, a boolean array of
    the same shape.  Rows with a set sign bit contribute through the
    complementary column of each differential pair (two-phase input
    scheme).  ``readout`` selects the column converter: the adaptive FP
    ADC, the fixed-range INT8 baseline, or an identity bypass that returns
    the digital dot product directly.

    The DAC and the 2 (unsigned) or 4 (signed) matmuls cover the whole
    batch; the per-column-result chain after them runs over slices of
    ``max(1, fpcodec._BLOCK // cols)`` input vectors, so no bit depends on
    the block.
    """
    if readout not in READOUTS:
        raise ContractError(f"unknown readout {readout!r}")
    bits, signs, single = batch_inputs(input_bits, signs)
    if bits.shape[0] != weights.shape[0]:
        raise ContractError(f"{bits.shape[0]} input rows for a {weights.shape[0]}-row macro")

    if readout == "identity":
        dec = fpcodec.decode_bits(bits, config.fmt)
        if signs is not None:
            dec = np.where(signs, -dec, dec)
        digital = ideal_reference(dec, _levels_from_pair(weights, config.device))
        zeros = np.zeros(digital.shape, dtype=bool)
        out = MacroResult(None, None, digital, zeros, zeros)
        return _squeeze_result(out, single)

    i_pos, i_neg = _column_currents(bits, signs, weights, config)
    n, cols = i_pos.shape
    out = MacroResult(np.empty((n, cols), np.uint8), np.empty((n, cols), np.uint8),
                      np.empty((n, cols)), np.empty((n, cols), bool), np.empty((n, cols), bool))
    gain = V_MID / scale_chain(config)
    step = max(1, fpcodec._BLOCK // cols)
    for lo in range(0, n, step):
        vecs = slice(lo, lo + step)
        out.pos_bits[vecs], x_pos, under_p, sat_p = _convert(readout, i_pos[vecs], config)
        out.neg_bits[vecs], x_neg, under_n, sat_n = _convert(readout, i_neg[vecs], config)
        digital = np.subtract(x_pos, x_neg, out=out.digital_values[vecs])
        digital *= gain
        np.logical_and(under_p, under_n, out=out.underflow[vecs])
        np.logical_or(sat_p, sat_n, out=out.saturated[vecs])
    return _squeeze_result(out, single)


def _column_currents(bits, signs, weights: ConductancePair, config: MacroConfig):
    """(i_pos, i_neg), each (n, cols): the DAC and the whole-tile matmuls.

    The (rows, n) voltage arrays are freed on return, before the
    conversion chain allocates.
    """
    volts = dac_convert_bits(bits, config.fmt)
    if signs is None:
        return volts.T @ weights.g_pos, volts.T @ weights.g_neg
    v_rev = volts * signs  # +0.0 where the sign is clear: volts are finite, >= 0
    volts -= v_rev  # exactly 0 where the sign is set: the forward phase
    i_pos = volts.T @ weights.g_pos
    i_pos += v_rev.T @ weights.g_neg
    i_neg = volts.T @ weights.g_neg
    i_neg += v_rev.T @ weights.g_pos
    return i_pos, i_neg


def _convert(readout: str, currents: np.ndarray, config: MacroConfig):
    """Convert one column of each pair: (codes, their x values, underflow, saturated)."""
    if readout == "adc":
        codes, underflow, saturated, x = convert_analytic_array(currents, config.adc, config.fmt)
        return codes, x, underflow, saturated
    codes, underflow, saturated = int8_baseline_convert(currents, config.adc)
    return codes, codes * INT8_LSB, underflow, saturated


def _squeeze_result(r: MacroResult, single: bool) -> MacroResult:
    if not single:
        return r
    sq = lambda a: None if a is None else a.reshape(a.shape[-1])
    return MacroResult(
        sq(r.pos_bits), sq(r.neg_bits),
        r.digital_values.reshape(-1), r.underflow.reshape(-1), r.saturated.reshape(-1),
    )


def ideal_reference(decoded_inputs: np.ndarray, weight_levels: np.ndarray) -> np.ndarray:
    """Golden model: exact double-precision differential dot products.

    ``decoded_inputs`` (rows,) or (rows, n), ``weight_levels`` (rows, cols)
    signed; returns the per-column dot products in the same units as
    ``MacroResult.digital_values``.
    """
    d = np.asarray(decoded_inputs, dtype=float)
    w = np.asarray(weight_levels, dtype=float)
    if d.shape[0] != w.shape[0]:
        raise ContractError("input length must match weight rows")
    return d.T @ w
