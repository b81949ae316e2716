import numpy as np
import pytest

from fpcim.cimmacro import MacroConfig, _column_currents
from fpcim.dac import V_SUPPLY, V_UNIT, dac_convert_bits
from fpcim.fpcodec import E2M5, E3M4, decode
from fpcim.xbar import ConductancePair


def dac_volts(bits: int, fmt) -> float:
    """One code through the vectorized DAC."""
    return float(dac_convert_bits(np.array([bits]), fmt)[0])


def test_convert_known_code():
    assert dac_volts(0b1011110, E2M5) == pytest.approx(0.775, rel=1e-15)
    assert dac_volts(0b1011110, E3M4) == pytest.approx(0.6, rel=1e-15)


def test_convert_zero_code():
    for fmt in (E2M5, E3M4):
        assert dac_volts(0, fmt) == 0.0


def test_convert_top_code():
    assert dac_volts(0b1111111, E2M5) == pytest.approx(1.575, rel=1e-15)
    assert dac_volts(0b1111111, E3M4) == pytest.approx(2.48, rel=1e-15)


def test_convert_equals_vunit_times_decode():
    for fmt in (E2M5, E3M4):
        for bits in range(128):
            assert dac_volts(bits, fmt) == V_UNIT[fmt] * decode(bits, fmt)


def test_exponent_doubles_output():
    for m in range(32):
        v = [dac_volts((e << 5) | m, E2M5) for e in range(4)]
        start = 1 if m == 0 else 0  # (0, 0) is the zero code
        for e in range(start, 3):
            assert v[e + 1] == pytest.approx(2 * v[e], rel=1e-12)


@pytest.mark.parametrize("fmt", [E2M5, E3M4], ids=lambda f: f.name)
def test_top_code_below_supply(fmt):
    # the format's full scale keeps its largest output under the supply
    top = dac_convert_bits(np.array([0b1111111]), fmt)[0]
    assert top == V_UNIT[fmt] * fmt.max_value < V_SUPPLY


def test_vectorized_matches_scalar():
    # a whole sweep converts each code as it converts alone
    bits = np.arange(128)
    for fmt in (E2M5, E3M4):
        v = dac_convert_bits(bits, fmt)
        for b in bits:
            assert v[b] == dac_volts(b, fmt)


# ---------------------------------------------------------------- sweep
# Every code through the vectorized DAC and, for the conductance ratios,
# through the macro's crossbar (``cimmacro._column_currents``).

G_VALUES = [20e-6, 18e-6, 15e-6, 12e-6]
SWEEP = dac_convert_bits(np.arange(128), E2M5)


def test_sweep_shape_and_zero_code():
    assert SWEEP.shape == (128,)
    assert SWEEP[0] == 0.0


def test_sweep_known_point():
    assert SWEEP[0b1011110] == pytest.approx(0.775, rel=1e-15)


def test_sweep_four_affine_groups():
    m = np.arange(32)
    for e in range(4):
        start = 1 if e == 0 else 0  # (0, 0) is the zero code
        # exactly the line v_unit * 2^e * (1 + m / 32), slope v_unit * 2^e / 32
        line = V_UNIT[E2M5] * 2.0**e * (1.0 + m / 32)
        np.testing.assert_array_equal(SWEEP[e * 32 : (e + 1) * 32][start:], line[start:])


def test_sweep_group_slope_ratios_match_conductances():
    g = np.array([G_VALUES])
    pair = ConductancePair(g, np.zeros_like(g))
    currents = _column_currents(np.arange(128)[None, :], None, pair, MacroConfig())[0]
    m = np.arange(1, 32)
    for e in range(4):
        slopes = [np.polyfit(m, currents[e * 32 + 1 : (e + 1) * 32, j], 1)[0] for j in range(4)]
        np.testing.assert_allclose(np.divide(slopes, slopes[0]), g[0] / g[0, 0], rtol=1e-9)
