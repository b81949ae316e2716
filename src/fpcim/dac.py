"""Behavioral FP-DAC: 7-bit code in, wordline voltage out.

A resistor-ladder reference provides ``2^M`` mantissa voltages
``v_unit * (1 + m / 2^M)`` shared across rows; a programmable-gain stage
driven by the decoded exponent multiplies the selected level by ``2^e``.
The zero code produces 0 V.  The
closed-loop gain stage is ideal by default; ``gain_error`` applies a
single relative error to the output for mismatch studies.
"""

from __future__ import annotations

import csv
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
    "linearity_sweep",
    "sweep_to_csv",
]


@dataclass(frozen=True)
class DacConfig:
    """Full-scale and supply parameters of the input DAC.

    ``v_unit`` is the voltage representing a decoded value of 1.0; the
    default 0.1 V keeps the largest E2M5 output (1.575 V) under the 2.5 V
    analog supply with headroom.
    """

    v_unit: float = 0.1
    v_supply: float = 2.5
    gain_error: float = 0.0

    def __post_init__(self):
        if self.v_unit <= 0:
            raise ContractError("v_unit must be positive")
        if self.v_supply <= 0:
            raise ContractError("v_supply must be positive")


def check_headroom(config: DacConfig, fmt: FpFormat) -> None:
    """Raise if the top code would drive the output beyond the supply."""
    v_max = config.v_unit * fmt.max_value * (1.0 + config.gain_error)
    if v_max >= config.v_supply:
        raise DacSaturationError(
            f"max DAC output {v_max:.3f} V reaches the {config.v_supply} V supply"
        )


def ladder_levels(config: DacConfig, fmt: FpFormat = E2M5) -> np.ndarray:
    """The 2^M reference-ladder voltages, uniform step v_unit / 2^M."""
    m = np.arange(fmt.mant_levels)
    return config.v_unit * (1.0 + m / fmt.mant_levels)


def dac_convert(code: FpCode, config: DacConfig) -> float:
    """Output voltage for one code: v_unit * decode(code), 0 V for zero."""
    v = config.v_unit * fpcodec.decode(code) * (1.0 + config.gain_error)
    if v >= config.v_supply:
        raise DacSaturationError(f"DAC output {v:.3f} V exceeds the {config.v_supply} V supply")
    return v


def dac_convert_bits(bits: np.ndarray, fmt: FpFormat, config: DacConfig) -> np.ndarray:
    """Vectorized conversion of 7-bit code patterns to voltages."""
    v = fpcodec.decode_bits(bits, fmt)  # a fresh array, scaled in place
    v *= config.v_unit
    v *= 1.0 + config.gain_error
    if v.size and float(np.max(v)) >= config.v_supply:
        raise DacSaturationError("DAC output exceeds the analog supply")
    return v


def linearity_sweep(g_values, config: DacConfig, fmt: FpFormat = E2M5) -> list[dict]:
    """Cell current for every code against each conductance.

    Sweeps all 128 input patterns per conductance; within one exponent
    group the current is an exact affine function of the mantissa code in
    the ideal model.  Returns one row per (conductance, code).
    """
    rows = []
    for g in g_values:
        for bits in range(fmt.code_count):
            code = FpCode.from_bits(bits, fmt)
            current = dac_convert(code, config) * g
            rows.append(
                {
                    "code_bits": code.bit_string(),
                    "exponent": code.exponent,
                    "mantissa": code.mantissa,
                    "conductance_uS": g * 1e6,
                    "current_uA": current * 1e6,
                }
            )
    return rows


def sweep_to_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["code_bits", "exponent", "mantissa", "conductance_uS", "current_uA"]
        )
        writer.writeheader()
        writer.writerows(rows)
