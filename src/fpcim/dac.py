"""Behavioral FP-DAC: 7-bit code in, wordline voltage out.

A resistor-ladder reference provides ``2^M`` mantissa voltages
``v_unit * (1 + m / 2^M)`` shared across rows; a programmable-gain stage
driven by the decoded exponent multiplies the selected level by ``2^e``.
The zero code produces 0 V.  The closed-loop gain stage is ideal, and
every output must stay below the ``V_SUPPLY`` analog supply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fpcodec
from .errors import ContractError, DacSaturationError
from .fpcodec import E2M5, FpCode, FpFormat

__all__ = [
    "DacConfig",
    "ladder_levels",
    "dac_convert",
    "dac_convert_bits",
    "check_headroom",
    "V_SUPPLY",
]

# Analog supply rail (volts); a DAC output at or above it saturates.
V_SUPPLY = 2.5


@dataclass(frozen=True)
class DacConfig:
    """Full-scale parameter of the input DAC.

    ``v_unit`` is the voltage representing a decoded value of 1.0; the
    default 0.1 V keeps the largest E2M5 output (1.575 V) under the 2.5 V
    analog supply with headroom.
    """

    v_unit: float = 0.1

    def __post_init__(self):
        if not 0 < self.v_unit < math.inf:
            raise ContractError(f"v_unit must be finite and positive, got {self.v_unit!r}")


def check_headroom(config: DacConfig, fmt: FpFormat) -> None:
    """Raise if the top code would drive the output beyond the supply."""
    v_max = config.v_unit * fmt.max_value
    if v_max >= V_SUPPLY:
        raise DacSaturationError(f"max DAC output {v_max:.3f} V reaches the {V_SUPPLY} V supply")


def ladder_levels(config: DacConfig, fmt: FpFormat = E2M5) -> np.ndarray:
    """The 2^M reference-ladder voltages, uniform step v_unit / 2^M."""
    m = np.arange(fmt.mant_levels)
    return config.v_unit * (1.0 + m / fmt.mant_levels)


def dac_convert(code: FpCode, config: DacConfig) -> float:
    """Output voltage for one code: v_unit * decode(code), 0 V for zero."""
    v = config.v_unit * fpcodec.decode(code)
    if v >= V_SUPPLY:
        raise DacSaturationError(f"DAC output {v:.3f} V exceeds the {V_SUPPLY} V supply")
    return v


def dac_convert_bits(bits: np.ndarray, fmt: FpFormat, config: DacConfig) -> np.ndarray:
    """Vectorized conversion of 7-bit code patterns to voltages."""
    v = fpcodec.decode_bits(bits, fmt)  # a fresh array, scaled in place
    v *= config.v_unit
    if v.size and float(np.max(v)) >= V_SUPPLY:
        raise DacSaturationError("DAC output exceeds the analog supply")
    return v
