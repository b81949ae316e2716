"""Dynamic-range-adaptive FP-ADC model.

The converter integrates the column current onto a reconfigurable
capacitor bank.  Each time the integrator output reaches ``V_TH`` (2 V) an
extra capacitor is switched in and the charge redistributes, dropping the
output to exactly ``V_MID = V_TH / 2`` thanks to the doubling bank
``[C, C, 2C, 4C, ...]`` and the 0 V reset level ``V_RESET``.  The number of
charge-share events is the exponent; the residue voltage sampled at
``t_int`` is digitized by a single-slope ramp into the mantissa.  The two
counts are the bits of the 7-bit code: each FP converter returns the
integer pattern ``(e << M) | m`` (see ``fpcodec``).  A result that never
reaches ``V_MID`` by the sample moment is not read out (code 0, underflow
flag); running out of bank capacitors saturates to the top code,
``TOP_CODE`` = 127 in either format.  The format read out defines the
converter: one bank capacitor per exponent step and one ramp step per
mantissa code (E2M5: 4 capacitors, 32 steps; E3M4: 8 and 16), so every FP
converter takes the ``FpFormat``, with no default: a bare pattern does not
say which format it is.  The levels are constants of the circuit, and
``AdcConfig`` holds only ``c_int`` and ``t_int``: the threshold reaches a
code only through ``c_int * V_MID``, so ``c_int`` sets every scale the
threshold could.

Two conversion paths are provided: ``simulate_transient`` is the
event-driven simulation of one constant current with a full trace,
``convert_analytic`` the closed-form converter used as its oracle.  A
column current is constant over a conversion: the macro applies signed
inputs by swapping columns within one cycle, not in a second phase.  The
mantissa readout has ceiling semantics (the counter stops on the first
ramp step at or above the sampled voltage, a +1/2 LSB bias), clamped at
the top step.
``simulate_transient`` ramps against its simulated voltage
(``single_slope``); ``convert_analytic`` takes the ceiling of the exact
residue ``x / 2^e - 1`` in ramp steps.  ``V_TH`` and ``V_MID`` are powers
of two, so the ramp steps are exact in binary and an exactly integrated x
on a step reads that step in both; within an ulp or so of a step the
transient's rounded integration can still read one step apart.
``convert_analytic_array``, the vectorized converter, reads the same
code from the float64 bit pattern of x: exponent and kept mantissa bits,
plus one step if a dropped bit is set, clamped at the top step instead of
carrying.
``int8_baseline_convert`` is the fixed-range INT8 converter the adaptive
one is compared against; all converters read the same normalized input
``x`` (``adc_x``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractError, is_real
from .fpcodec import CODE_BITS, E2M5, FpFormat, all_values, check_format

__all__ = [
    "AdcConfig",
    "AdcEvent",
    "AdcResult",
    "adc_x",
    "charge_share",
    "single_slope",
    "convert_analytic",
    "convert_analytic_array",
    "simulate_transient",
    "int8_baseline_convert",
    "INT8_LSB",
    "V_TH",
    "V_MID",
    "V_RESET",
    "TOP_CODE",
    "x_sat",
]

# Integrator levels (volts): the comparator threshold, the 0 V reset the
# exponent segmentation needs, and the level every charge share lands on,
# (V_TH + V_RESET) / 2.
V_TH = 2.0
V_RESET = 0.0
V_MID = (V_TH + V_RESET) / 2

# A saturated conversion reads all seven bits set: the top code of either format.
TOP_CODE = (1 << CODE_BITS) - 1


def x_sat(fmt: FpFormat) -> float:
    """Smallest saturating x, 2^(exp_max+1): ``floor(log2 x) > exp_max`` for finite x."""
    return 2.0 ** (check_format(fmt).exp_max + 1)


# The INT8 baseline quantizes x uniformly over [0, 16), the whole E2M5
# adaptive input range, in 256 steps.
INT8_FULL_SCALE = x_sat(E2M5)
INT8_LSB = INT8_FULL_SCALE / 256.0


@dataclass(frozen=True)
class AdcConfig:
    """Unit capacitor and integration window of one column converter.

    The bank size and the ramp length come from the format converted
    (``cap_bank``, ``FpFormat.mant_levels``) and the levels are the module
    constants.  Every field must be finite and positive.
    """

    c_int: float = 100e-15
    t_int: float = 95e-9

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (is_real(v) and 0 < v < math.inf):
                raise ContractError(f"{f.name} must be finite and positive, got {v!r}")

    def cap_bank(self, fmt: FpFormat) -> tuple[float, ...]:
        """[C, C, 2C, 4C, ...]: one doubling capacitor per exponent step of ``fmt``."""
        return (self.c_int,) + tuple(self.c_int * 2.0**k for k in range(check_format(fmt).exp_max))


def adc_x(i_mac, config: AdcConfig) -> np.ndarray:
    """Converter input ``x = i * t_int / (c_int * V_MID)``; x = 1 integrates to V_MID.

    NaN or negative currents raise; +inf gives x = inf, which saturates.
    x is one fresh array (a scalar for a scalar current): the product,
    then the division in place, the operations of the formula in its order.
    """
    if not isinstance(config, AdcConfig):
        raise ContractError(f"config must be an AdcConfig, got {config!r}")
    i = np.asarray(i_mac, dtype=float)
    if i.size and not np.min(i) >= 0:  # np.min propagates NaN
        raise ContractError("MAC currents must be non-negative and not NaN")
    x = np.multiply(i, config.t_int)
    x /= config.c_int * V_MID
    return x


@dataclass
class AdcEvent:
    """One timestamped point of the transient: reset, crossing, share, sample."""

    time: float
    kind: str  # reset | threshold-crossing | charge-share | sample | ramp-compare
    v_o: float
    switch_state: tuple[int, ...] = ()


@dataclass
class AdcResult:
    code: int  # the 7-bit pattern (e << M) | m: 0 on underflow, 127 on saturation
    v_m: float
    underflow: bool = False
    saturated: bool = False
    trace: list[AdcEvent] = field(default_factory=list)


def charge_share(v_o: float, c_active: float, c_next: float, v_reset: float = 0.0) -> float:
    """Voltage after the active bank shares charge with the next capacitor.

    Exact charge conservation:
    ``(c_active * v_o + c_next * v_reset) / (c_active + c_next)``.
    """
    return (c_active * v_o + c_next * v_reset) / (c_active + c_next)


def single_slope(v_m: float, fmt: FpFormat) -> int:
    """Mantissa code for a sampled voltage in [V_MID, V_TH).

    Counter semantics: the ramp of ``fmt.mant_levels`` steps starts one
    step above V_MID and the count is read when it meets or exceeds v_m,
    i.e. ceiling rounding clamped to the top step.
    """
    check_format(fmt)
    if not (V_MID <= v_m < V_TH):
        raise ContractError(f"sampled voltage {v_m} outside [{V_MID}, {V_TH})")
    step = (V_TH - V_MID) / fmt.mant_levels
    k = math.ceil((v_m - V_MID) / step)
    return min(max(k, 0), fmt.mant_levels - 1)


def convert_analytic(i_mac: float, config: AdcConfig, fmt: FpFormat) -> AdcResult:
    """Closed-form conversion of a constant current (no trace).

    With ``x = i_mac * t_int / (c_int * V_MID)``: x < 1 underflows to the
    zero code, ``floor(log2 x)`` beyond the bank (+inf included) saturates
    to the top code, otherwise the exponent is ``floor(log2 x)`` and the
    mantissa the ramp's ceiling of the residue, clamped at the top step.
    The residue is taken in ramp steps as ``(x / 2^e - 1) * mant_levels``,
    exact in floating point (a power-of-two division, a Sterbenz
    subtraction and a power-of-two product), not from the sampled voltage
    ``v_m = V_MID * x / 2^e``.
    """
    check_format(fmt)
    x = float(adc_x(i_mac, config))
    if x < 1.0:
        return AdcResult(0, v_m=x * V_MID, underflow=True)
    if x >= x_sat(fmt):
        return AdcResult(TOP_CODE, v_m=V_TH, saturated=True)
    e = math.frexp(x)[1] - 1  # exact binade, no log rounding at the edges
    r = x / 2.0**e  # in [1, 2)
    mant = min(math.ceil((r - 1.0) * fmt.mant_levels), fmt.mant_levels - 1)
    return AdcResult((e << fmt.mantissa_bits) | mant, v_m=V_MID * r)


def convert_analytic_array(i_mac: np.ndarray, config: AdcConfig, fmt: FpFormat):
    """Vectorized analytic conversion, read from the float64 bit pattern of x.

    x is clipped to [1, x_sat) and viewed as int64 ``u``.  With ``d = 52 - M``
    dropped mantissa bits the code is ``(u >> d) - (1023 << M)``, plus one
    step when a dropped bit is set (the ramp's ceiling), clamped at the
    binade's top step instead of carrying into the next exponent.
    Underflow lands on code 0 and saturation (+inf included) on the top
    code.  This is ``convert_analytic``'s exact-residue ceiling.

    Returns (code_bits uint8, underflow, saturated, x value of each code).
    """
    x = np.asarray(adc_x(i_mac, config))  # a fresh array, clipped in place
    full = x_sat(fmt)
    underflow = x < 1.0
    saturated = x >= full
    np.clip(x, 1.0, np.nextafter(full, 0.0), out=x)
    u = x.view(np.int64)
    d = 52 - fmt.mantissa_bits
    values = np.empty(x.shape)  # first holds ``top``, then the codes' x
    top = np.right_shift(u, d, out=values.view(np.int64))
    top |= fmt.mant_levels - 1  # the binade's top step
    u += (1 << d) - 1
    u >>= d
    np.minimum(u, top, out=u)
    u -= 1023 << fmt.mantissa_bits
    # the table is read with the int64 codes: uint8 ones would first be
    # copied to intp by take
    all_values(fmt).take(u, out=values, mode="clip")
    return u.astype(np.uint8), underflow, saturated, values


def simulate_transient(i_mac, config: AdcConfig, fmt: FpFormat) -> AdcResult:
    """Event-driven transient of one constant-current conversion with a full trace.

    ``i_mac`` is one scalar current in amperes, held over ``[0, t_int]``;
    an array or a list, NaN or a negative current raises, +inf saturates.
    The integrator is advanced analytically between events; threshold
    crossings trigger charge-share events computed by exact charge
    conservation.  The bank has one capacitor per exponent step of ``fmt``
    and the ramp one step per mantissa code.

    This is ``convert_analytic``'s oracle.  The mantissa is
    ``single_slope``'s ceiling of ``v_m`` over a ramp step that is a power
    of two, so an exactly integrated ``v_m`` on a step reads that step.
    """
    if np.ndim(i_mac) != 0:
        raise ContractError(f"the transient takes one scalar current, not shape {np.shape(i_mac)}")
    i = float(i_mac)
    if not i >= 0:
        raise ContractError("MAC currents must be non-negative and not NaN")

    bank = config.cap_bank(fmt)
    v = V_RESET
    c_active = bank[0]
    shares = 0
    saturated = False
    sw_bits = lambda: tuple(1 if k < shares else 0 for k in range(fmt.exp_max))

    trace = [AdcEvent(0.0, "reset", v, sw_bits())]
    t = 0.0
    while i > 0.0 and t < config.t_int:
        t_hit = t + (V_TH - v) * c_active / i
        if t_hit > config.t_int:
            v += i * (config.t_int - t) / c_active
            break
        trace.append(AdcEvent(t_hit, "threshold-crossing", V_TH, sw_bits()))
        if shares >= fmt.exp_max:
            # Bank exhausted: integration halts at the full bank.
            saturated = True
            v = V_TH
            break
        c_next = bank[shares + 1]
        v = charge_share(V_TH, c_active, c_next, V_RESET)
        c_active += c_next
        shares += 1
        trace.append(AdcEvent(t_hit, "charge-share", v, sw_bits()))
        t = t_hit

    v_m = v
    trace.append(AdcEvent(config.t_int, "sample", v_m, sw_bits()))

    if saturated:
        return AdcResult(TOP_CODE, v_m=V_TH, saturated=True, trace=trace)
    if shares == 0 and v_m < V_MID:
        return AdcResult(0, v_m=v_m, underflow=True, trace=trace)
    mant = single_slope(v_m, fmt)
    step = (V_TH - V_MID) / fmt.mant_levels
    trace.append(AdcEvent(config.t_int, "ramp-compare", V_MID + mant * step, sw_bits()))
    return AdcResult((shares << fmt.mantissa_bits) | mant, v_m=v_m, trace=trace)


def int8_baseline_convert(i_mac, config: AdcConfig):
    """Fixed-range INT8 single-slope reference conversion.

    Uniform 256-step quantization of x over [0, 16) with the same ceiling
    counter semantics; the fixed range costs a 4x longer ramp on the
    100 ns readout (``perfmodel.LATENCY_NS``).  Returns (codes uint8, underflow,
    saturated, x value of each code) arrays shaped like ``i_mac``, in
    ``convert_analytic_array``'s order: the zero code underflows, x at or
    beyond the full scale (+inf included) saturates, and a code's x value
    is ``code * INT8_LSB``.
    """
    x = adc_x(i_mac, config)
    codes = np.clip(np.ceil(x / INT8_LSB), 0, 255)
    return codes.astype(np.uint8), codes == 0, x >= INT8_FULL_SCALE, codes * INT8_LSB
