"""Analytic latency / throughput / power / efficiency model.

A calibrated model, not a circuit power estimator.  Inputs: the conversion
windows ``LATENCY_NS`` (INT8 takes 2.5x E2M5's) and four published figures
that the per-block powers of each macro (``DEFAULT_PARAMS``) are solved
from, 19.89 TOPS/W (E2M5), 14.12 TOPS/W (E3M4) and E2M5's 56.4% ADC and
46.5% total power savings against the INT8 baseline; reproducing them
checks the calibration.  Outputs: the throughput of a 576x256 macro (1474.56
GOPS E2M5 and 1966.08 GOPS E3M4, as published) and the ratios between the
rows of ``total_comparison``.  E2M5 against INT8 reads 4.67x in efficiency
(2.5x the time times 1 / (1 - 0.465) the power), against the abstract's
2.841x over an analog INT8-CIM.  One MAC counts as 2 ops (multiply + add),
the only convention that reproduces the throughput figures exactly.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from types import MappingProxyType

from .errors import ContractError, is_real
from .xbar import MAX_COLS, MAX_ROWS

__all__ = [
    "BlockPowers",
    "EnergyParams",
    "PerfReport",
    "throughput_from",
    "total_comparison",
    "DEFAULT_PARAMS",
    "LATENCY_NS",
]

# Full conversion windows in integer nanoseconds, so published ratios are
# exact: 100 ns integrate + 100 ns ramp for the adaptive E2M5 path; the
# fixed-range INT8 baseline needs a 4x longer ramp to keep its LSB,
# 100 ns + 400 ns.  Keyed by ``cimmacro.converter(...).label``; read-only.
LATENCY_NS = MappingProxyType({"E2M5": 200, "E3M4": 150, "INT8": 500})

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


def throughput_from(latency: float) -> float:
    """Ops per second of the 576x256 macro: 2 * rows * cols per cycle of ``latency`` s."""
    if not (is_real(latency) and 0 < latency < math.inf):  # NaN fails too
        raise ContractError(f"latency must be finite and positive, got {latency!r}")
    return OPS_PER_MAC * MAX_ROWS * MAX_COLS / latency


def _default_blocks() -> dict[str, BlockPowers]:
    """Back-solve block powers from the calibration anchors.

    Totals come from throughput / efficiency; the ADC splits follow the
    published reduction, the remaining blocks are plausible fills with the
    digital share taking the residue.
    """
    e2m5_total = throughput_from(LATENCY_NS["E2M5"] * 1e-9) / _E2M5_EFFICIENCY
    e3m4_total = throughput_from(LATENCY_NS["E3M4"] * 1e-9) / _E3M4_EFFICIENCY
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
    """Per-format block powers; defaults reproduce the calibrated table.

    ``blocks`` is a mapping of labels to ``BlockPowers``; the params keep a
    read-only copy of it, so no later write to the given mapping, or
    through ``blocks``, changes them.
    """

    blocks: Mapping

    def __post_init__(self):
        if not isinstance(self.blocks, Mapping):
            raise ContractError(f"blocks must be a mapping of BlockPowers, got {self.blocks!r}")
        for label, b in self.blocks.items():
            if not isinstance(b, BlockPowers):
                raise ContractError(f"block powers for {label} must be BlockPowers")
        object.__setattr__(self, "blocks", MappingProxyType(dict(self.blocks)))

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


def total_comparison() -> list[PerfReport]:
    """Three-macro comparison table (E2M5, E3M4, INT8) at the calibrated powers."""
    out = []
    for label in ("E2M5", "E3M4", "INT8"):
        latency = LATENCY_NS[label] * 1e-9
        tp = throughput_from(latency)
        total = DEFAULT_PARAMS.total(label)
        out.append(PerfReport(label, latency, tp, total, tp / total, DEFAULT_PARAMS.blocks[label]))
    return out
