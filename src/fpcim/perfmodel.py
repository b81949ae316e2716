"""Analytic latency / throughput / power / efficiency model.

This is a calibrated model, not a circuit power estimator: the per-block
powers of each macro (``DEFAULT_PARAMS``) are back-solved so that the
comparison table, ``total_comparison`` with one row per macro (E2M5, E3M4
and the INT8 baseline), reproduces the macro's published figures (1474.56 GOPS
at 19.89 TOPS/W for E2M5, 1966.08 GOPS at 14.12 TOPS/W for E3M4, the
56.4% ADC power saving and 46.5% total saving against the INT8 baseline,
and the 2.5x conversion-time penalty of the fixed-range INT8 ADC).
One MAC counts as 2 ops (multiply + add), the only convention that
reproduces those throughput numbers exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .adc import LATENCY_NS
from .errors import ContractError, is_real
from .xbar import MAX_COLS, MAX_ROWS

__all__ = [
    "BlockPowers",
    "EnergyParams",
    "PerfReport",
    "throughput_from",
    "adc_comparison",
    "total_comparison",
    "DEFAULT_PARAMS",
    "LATENCY_NS",
]

OPS_PER_MAC = 2

# Calibration anchors.
_E2M5_EFFICIENCY = 19.89e12  # ops/J at the E2M5 design point
_E3M4_EFFICIENCY = 14.12e12
ADC_POWER_REDUCTION = 0.564  # adaptive-range ADC vs fixed-range INT8 ADC
TOTAL_POWER_REDUCTION = 0.465  # E2M5 macro vs INT8 macro


@dataclass(frozen=True)
class BlockPowers:
    """Per-block macro power in watts; every block finite and non-negative."""

    dac: float
    array: float
    adc: float
    digital: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (is_real(v) and 0 <= v < math.inf):
                raise ContractError(f"{f.name} power must be finite and non-negative, got {v!r}")

    @property
    def total(self) -> float:
        return self.dac + self.array + self.adc + self.digital


def throughput_from(rows: int, cols: int, latency: float) -> float:
    """Ops per second: 2 * rows * cols per macro cycle."""
    if not (is_real(latency) and 0 < latency < math.inf):  # NaN fails too
        raise ContractError(f"latency must be finite and positive, got {latency!r}")
    return OPS_PER_MAC * rows * cols / latency


def _default_blocks() -> dict[str, BlockPowers]:
    """Back-solve block powers from the calibration anchors.

    Totals come from throughput / efficiency; the ADC splits follow the
    published reduction, the remaining blocks are plausible fills with the
    digital share taking the residue.
    """
    e2m5_total = throughput_from(MAX_ROWS, MAX_COLS, LATENCY_NS["E2M5"] * 1e-9) / _E2M5_EFFICIENCY
    e3m4_total = throughput_from(MAX_ROWS, MAX_COLS, LATENCY_NS["E3M4"] * 1e-9) / _E3M4_EFFICIENCY
    int8_total = e2m5_total / (1.0 - TOTAL_POWER_REDUCTION)
    int8_adc = 88e-3
    e2m5_adc = int8_adc * (1.0 - ADC_POWER_REDUCTION)
    return {
        "E2M5": BlockPowers(dac=14e-3, array=13e-3, adc=e2m5_adc,
                            digital=e2m5_total - 27e-3 - e2m5_adc),
        "E3M4": BlockPowers(dac=15e-3, array=14e-3, adc=96e-3,
                            digital=e3m4_total - 29e-3 - 96e-3),
        "INT8": BlockPowers(dac=15e-3, array=20e-3, adc=int8_adc,
                            digital=int8_total - 35e-3 - int8_adc),
    }


@dataclass(frozen=True)
class EnergyParams:
    """Per-format block powers; defaults reproduce the calibrated table."""

    blocks: dict

    def __post_init__(self):
        if not isinstance(self.blocks, dict):
            raise ContractError(f"blocks must be a dict of BlockPowers, got {self.blocks!r}")
        for label, b in self.blocks.items():
            if not isinstance(b, BlockPowers):
                raise ContractError(f"block powers for {label} must be BlockPowers")

    def total(self, label: str) -> float:
        if label not in self.blocks:
            raise ContractError(f"no block powers for format {label!r}")
        return self.blocks[label].total


DEFAULT_PARAMS = EnergyParams(_default_blocks())


@dataclass
class PerfReport:
    format: str
    latency: float
    throughput: float
    total_power: float
    efficiency: float
    blocks: BlockPowers


def adc_comparison() -> dict:
    """Conversion-time and ADC-power ratios of the E2M5 macro against the INT8 baseline.

    The fixed-range converter needs a 2^2 = 4x longer ramp on its 100 ns
    readout to add two bits at the same LSB, stretching the conversion
    from 200 ns to 500 ns; the ADC power saving is a calibrated parameter.
    """
    power_ratio = DEFAULT_PARAMS.blocks["E2M5"].adc / DEFAULT_PARAMS.blocks["INT8"].adc
    return {
        "fp_conversion_ns": LATENCY_NS["E2M5"],
        "int8_conversion_ns": LATENCY_NS["INT8"],
        "time_ratio": float(Fraction(LATENCY_NS["INT8"], LATENCY_NS["E2M5"])),
        "int8_ramp_factor": 4,
        "adc_power_ratio": power_ratio,
        "adc_power_reduction": 1.0 - power_ratio,
    }


def total_comparison() -> list[PerfReport]:
    """Three-macro comparison table (E2M5, E3M4, INT8) at the calibrated powers."""
    out = []
    for label in ("E2M5", "E3M4", "INT8"):
        latency = LATENCY_NS[label] * 1e-9
        tp = throughput_from(MAX_ROWS, MAX_COLS, latency)
        total = DEFAULT_PARAMS.total(label)
        out.append(PerfReport(label, latency, tp, total, tp / total, DEFAULT_PARAMS.blocks[label]))
    return out
