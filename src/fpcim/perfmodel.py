"""Analytic latency / throughput / power / efficiency model.

This is a calibrated model, not a circuit power estimator: per-block
powers are inputs.  The defaults are back-solved so that the design-point
comparison table reproduces the macro's published figures (1474.56 GOPS
at 19.89 TOPS/W for E2M5, 1966.08 GOPS at 14.12 TOPS/W for E3M4, the
56.4% ADC power saving and 46.5% total saving against the INT8 baseline,
and the 2.5x conversion-time penalty of the fixed-range INT8 ADC).
One MAC counts as 2 ops (multiply + add), the only convention that
reproduces those throughput numbers exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .adc import LATENCY_NS
from .cimmacro import MacroConfig
from .errors import ContractError
from .xbar import MAX_COLS, MAX_ROWS

__all__ = [
    "BlockPowers",
    "EnergyParams",
    "PerfReport",
    "throughput",
    "throughput_from",
    "efficiency",
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
    """Per-block macro power in watts."""

    dac: float
    array: float
    adc: float
    digital: float

    def __post_init__(self):
        for name in ("dac", "array", "adc", "digital"):
            if getattr(self, name) < 0:
                raise ContractError(f"negative {name} power")

    @property
    def total(self) -> float:
        return self.dac + self.array + self.adc + self.digital


def throughput_from(rows: int, cols: int, latency: float) -> float:
    """Ops per second: 2 * rows * cols per macro cycle."""
    if latency <= 0:
        raise ContractError("latency must be positive")
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
        for label, b in self.blocks.items():
            if not isinstance(b, BlockPowers):
                raise ContractError(f"block powers for {label} must be BlockPowers")

    def total(self, label: str) -> float:
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


def throughput(config: MacroConfig) -> float:
    """Ops per second of a full ``MAX_ROWS`` x ``MAX_COLS`` macro at the config's latency."""
    return throughput_from(MAX_ROWS, MAX_COLS, config.latency)


def efficiency(config: MacroConfig, params: EnergyParams = DEFAULT_PARAMS) -> float:
    """Ops per joule: throughput over the total power of the config's format."""
    total = params.total(config.fmt.name)
    if total <= 0:
        raise ContractError("total power must be positive")
    return throughput(config) / total


def adc_comparison(params: EnergyParams = DEFAULT_PARAMS, label: str = "E2M5") -> dict:
    """Conversion-time and ADC-power ratios against the INT8 baseline.

    The fixed-range converter needs a 2^2 = 4x longer ramp on its 100 ns
    readout to add two bits at the same LSB, stretching the conversion
    from 200 ns to 500 ns; the ADC power saving is a calibrated parameter.
    """
    time_ratio = Fraction(LATENCY_NS["INT8"], LATENCY_NS[label])
    return {
        "fp_conversion_ns": LATENCY_NS[label],
        "int8_conversion_ns": LATENCY_NS["INT8"],
        "time_ratio": float(time_ratio),
        "int8_ramp_factor": 4,
        "adc_power_ratio": params.blocks[label].adc / params.blocks["INT8"].adc,
        "adc_power_reduction": 1.0 - params.blocks[label].adc / params.blocks["INT8"].adc,
    }


def total_comparison(params: EnergyParams = DEFAULT_PARAMS) -> list[PerfReport]:
    """Three-format macro comparison table (E2M5, E3M4, INT8)."""
    out = []
    for label in ("E2M5", "E3M4", "INT8"):
        latency = LATENCY_NS[label] * 1e-9
        tp = throughput_from(MAX_ROWS, MAX_COLS, latency)
        total = params.total(label)
        out.append(PerfReport(label, latency, tp, total, tp / total, params.blocks[label]))
    return out
