"""Behavioral simulator of an analog floating-point compute-in-memory macro.

The package models the full mixed-signal MAC pipeline: 7-bit hardware
floating-point codes (E2M5 / E3M4) through an FP-DAC into an RRAM
crossbar, and the column currents back out through a dynamic-range
adaptive FP-ADC.  On top of the macro sit a conv/FC layer mapper with
partial-sum planning and a calibrated performance model.
"""

from .adc import AdcConfig, AdcResult, convert_analytic, simulate_transient
from .cimmacro import MacroConfig, MacroResult, macro_mac, scale_chain
from .dac import dac_convert, ladder_levels
from .errors import ContractError
from .fpcodec import E2M5, E3M4, FpCode, FpFormat, decode, encode, quantize_tensor
from .mapper import LayerSpec, MacroBank, TilePlan, execute_plan, im2col, map_conv, map_fc
from .perfmodel import EnergyParams, efficiency, throughput, total_comparison
from .xbar import ConductancePair, DeviceModel, program_weights

__version__ = "0.1.0"

__all__ = [
    "AdcConfig",
    "AdcResult",
    "ConductancePair",
    "ContractError",
    "DeviceModel",
    "E2M5",
    "E3M4",
    "EnergyParams",
    "FpCode",
    "FpFormat",
    "LayerSpec",
    "MacroBank",
    "MacroConfig",
    "MacroResult",
    "TilePlan",
    "convert_analytic",
    "dac_convert",
    "decode",
    "efficiency",
    "encode",
    "execute_plan",
    "im2col",
    "ladder_levels",
    "macro_mac",
    "map_conv",
    "map_fc",
    "program_weights",
    "quantize_tensor",
    "scale_chain",
    "simulate_transient",
    "throughput",
    "total_comparison",
]
