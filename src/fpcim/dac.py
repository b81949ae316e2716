"""Behavioral FP-DAC: 7-bit code in, wordline voltage out.

A resistor-ladder reference provides ``2^M`` mantissa voltages
``v_unit * (1 + m / 2^M)`` shared across rows; a programmable-gain stage
driven by the decoded exponent multiplies the selected level by ``2^e``.
The zero code produces 0 V and the closed-loop gain stage is ideal.
``v_unit``, the voltage of a decoded 1.0, is a constant of the format
(``V_UNIT``): it keeps the format's top code under the ``V_SUPPLY``
analog supply (E2M5 1.575 V, E3M4 2.48 V), so no output can reach it.
"""

from __future__ import annotations

import numpy as np

from . import fpcodec
from .fpcodec import E2M5, E3M4, FpCode, FpFormat

__all__ = [
    "V_UNIT",
    "ladder_levels",
    "dac_convert",
    "dac_convert_bits",
    "V_SUPPLY",
]

# Analog supply rail (volts); a DAC output at or above it would saturate.
V_SUPPLY = 2.5

# Volts per decoded 1.0, per format.
V_UNIT = {E2M5: 0.1, E3M4: 0.01}


def ladder_levels(fmt: FpFormat) -> np.ndarray:
    """The 2^M reference-ladder voltages, uniform step v_unit / 2^M."""
    m = np.arange(fmt.mant_levels)
    return V_UNIT[fmt] * (1.0 + m / fmt.mant_levels)


def dac_convert(code: FpCode) -> float:
    """Output voltage for one code: v_unit * decode(code), 0 V for zero."""
    return V_UNIT[code.format] * fpcodec.decode(code)


def dac_convert_bits(bits: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Vectorized conversion of 7-bit code patterns to voltages."""
    v = fpcodec.decode_bits(bits, fmt)  # a fresh array, scaled in place
    v *= V_UNIT[fmt]
    return v
