import dataclasses
import math

import numpy as np
import pytest

from fpcim import fpcodec
from fpcim.adc import (
    INT8_FULL_SCALE,
    INT8_LSB,
    V_MID,
    AdcConfig,
    convert_analytic,
    convert_analytic_array,
    int8_baseline_convert,
    x_sat,
)
from fpcim.cimmacro import MacroConfig, ideal_reference, macro_mac, scale_chain
from fpcim.dac import V_UNIT, dac_convert, dac_convert_bits
from fpcim.errors import ContractError
from fpcim.fpcodec import E2M5, E3M4, FpCode, decode, decode_bits
from fpcim.xbar import DeviceModel, program_weights, weight_levels


def small_config(g_min=0.5e-6):
    return MacroConfig(
        device=DeviceModel(g_min=g_min, g_max=20e-6, levels=16, sigma_rel=0.0),
    )


def test_scale_chain_reference_value():
    cfg = small_config()
    # v_unit * g_lsb * t_int / c_int with g_lsb = (20 - 0.5) uS / 15
    assert cfg.device.g_lsb == pytest.approx(1.3e-6, rel=1e-12)
    assert scale_chain(cfg) == pytest.approx(0.1235, rel=1e-12)


def test_scale_chain_linear_in_v_unit():
    # the format sets v_unit: 0.1 V for E2M5, 0.01 V for E3M4
    a = MacroConfig(fmt=E3M4)
    b = MacroConfig(fmt=E2M5)
    assert scale_chain(b) == pytest.approx(10 * scale_chain(a), rel=1e-12)


def test_scale_chain_inverse_in_c_int():
    a = MacroConfig(adc=AdcConfig(c_int=100e-15))
    b = MacroConfig(adc=AdcConfig(c_int=50e-15))
    assert scale_chain(b) == pytest.approx(2 * scale_chain(a), rel=1e-12)


def test_all_zero_inputs_underflow_everywhere():
    cfg = small_config()
    weights = program_weights(np.full((8, 4), 0.5), cfg.device)
    res = macro_mac(np.zeros(8, dtype=np.uint8), weights, cfg)
    assert np.all(res.underflow)
    np.testing.assert_array_equal(res.digital_values, np.zeros(4))


def test_single_active_row_matches_explicit_chain():
    # brute force one path by hand: decode -> voltage -> current -> ADC
    cfg = small_config(g_min=0.0)
    w = np.array([[0.0], [1.0], [0.0], [0.0]])
    weights = program_weights(w, cfg.device)
    code = FpCode.from_bit_string("1011110")  # 7.75
    bits = np.zeros(4, dtype=np.uint8)
    bits[1] = code.to_bits()

    volts = dac_convert(code)
    current = (np.array([0.0, volts, 0.0, 0.0]).T @ weights.g_pos)[0]
    oracle = convert_analytic(float(current), cfg.adc, cfg.fmt)
    expected_dot = decode(oracle.code) * V_MID / scale_chain(cfg)

    res = macro_mac(bits, weights, cfg)
    assert res.pos_bits[0] == oracle.code.to_bits()
    assert res.digital_values[0] == pytest.approx(expected_dot, rel=1e-12)
    # the re-quantized value is within one mantissa step of the raw product
    raw_dot = 7.75 * 15  # decode * level
    assert abs(res.digital_values[0] - raw_dot) / raw_dot < 2.0**-5


def test_random_macro_against_analytic_oracle():
    # moderately sized random cases, zero noise: codes must match the
    # double-precision dot product pushed through the analytic converter
    rng = np.random.default_rng(99)
    for trial in range(20):
        rows, cols = int(rng.integers(2, 48)), int(rng.integers(1, 16))
        cfg = small_config()
        w = rng.uniform(-1, 1, (rows, cols))
        # scale weights down so the largest column stays convertible
        w *= 0.9 / max(1.0, np.max(np.abs(w)))
        weights = program_weights(w, cfg.device, seed=trial)
        bits = rng.integers(0, 128, rows).astype(np.uint8)

        res = macro_mac(bits, weights, cfg)

        volts = decode_bits(bits, cfg.fmt) * V_UNIT[cfg.fmt]
        for j in range(cols):
            i_pos = float(volts @ weights.g_pos[:, j])
            i_neg = float(volts @ weights.g_neg[:, j])
            op = convert_analytic(i_pos, cfg.adc, cfg.fmt)
            on = convert_analytic(i_neg, cfg.adc, cfg.fmt)
            assert res.pos_bits[j] == op.code.to_bits()
            assert res.neg_bits[j] == on.code.to_bits()
            assert res.saturated[j] == (op.saturated or on.saturated)
            assert res.underflow[j] == (op.underflow and on.underflow)


def test_identity_readout_equals_ideal_reference():
    rng = np.random.default_rng(3)
    cfg = small_config()
    w = rng.uniform(-1, 1, (16, 6))
    weights = program_weights(w, cfg.device)
    bits = rng.integers(0, 128, 16).astype(np.uint8)
    res = macro_mac(bits, weights, cfg, readout="identity")
    dec = decode_bits(bits, cfg.fmt)
    levels = weight_levels(w, cfg.device)
    np.testing.assert_array_equal(res.digital_values, ideal_reference(dec, levels))


def test_ideal_reference_matches_triple_loop():
    rng = np.random.default_rng(4)
    dec = rng.uniform(0, 15.75, 8)
    levels = rng.integers(-15, 16, (8, 8)).astype(float)
    naive = np.zeros(8)
    for j in range(8):
        for i in range(8):
            naive[j] += dec[i] * levels[i, j]
    np.testing.assert_allclose(ideal_reference(dec, levels), naive, rtol=1e-12)


def test_ideal_reference_linear():
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
    levels = rng.integers(-15, 16, (6, 3)).astype(float)
    lhs = ideal_reference(a + 2 * b, levels)
    rhs = ideal_reference(a, levels) + 2 * ideal_reference(b, levels)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_column_permutation_permutes_results():
    rng = np.random.default_rng(6)
    cfg = small_config()
    w = rng.uniform(-0.9, 0.9, (8, 5))
    bits = rng.integers(0, 128, 8).astype(np.uint8)
    perm = rng.permutation(5)
    res = macro_mac(bits, program_weights(w, cfg.device), cfg)
    res_p = macro_mac(bits, program_weights(w[:, perm], cfg.device), cfg)
    np.testing.assert_array_equal(res_p.digital_values, res.digital_values[perm])
    np.testing.assert_array_equal(res_p.pos_bits, res.pos_bits[perm])


def test_signed_inputs_flip_contribution():
    cfg = small_config(g_min=0.0)
    w = np.array([[1.0], [1.0]])
    weights = program_weights(w, cfg.device)
    bits = np.array([0b0100000, 0b0100000], dtype=np.uint8)  # 2.0 each
    plain = macro_mac(bits, weights, cfg, readout="identity")
    signed = macro_mac(bits, weights, cfg, signs=np.array([False, True]), readout="identity")
    assert plain.digital_values[0] == pytest.approx(2 * 2.0 * 15)
    assert signed.digital_values[0] == pytest.approx(0.0)


def test_batched_inputs_match_single():
    rng = np.random.default_rng(7)
    cfg = small_config()
    weights = program_weights(rng.uniform(-0.8, 0.8, (6, 3)), cfg.device)
    batch = rng.integers(0, 128, (6, 5)).astype(np.uint8)
    res = macro_mac(batch, weights, cfg)
    assert res.digital_values.shape == (5, 3)
    for k in range(5):
        one = macro_mac(batch[:, k], weights, cfg)
        np.testing.assert_array_equal(res.digital_values[k], one.digital_values)
        np.testing.assert_array_equal(res.pos_bits[k], one.pos_bits)


def test_shape_contracts():
    cfg = small_config()
    weights = program_weights(np.zeros((4, 2)), cfg.device)
    with pytest.raises(ContractError):
        macro_mac(np.zeros(3, dtype=np.uint8), weights, cfg)
    with pytest.raises(ContractError):
        macro_mac(np.zeros(4, dtype=np.uint8), weights, cfg, readout="bogus")
    # codes are one vector or a (rows, n) batch: a scalar or a 3-D array is no batch
    with pytest.raises(ContractError):
        macro_mac(np.uint8(3), weights, cfg)
    with pytest.raises(ContractError):
        macro_mac(np.zeros((4, 2, 2), dtype=np.uint8), weights, cfg)


def test_e3m4_macro_config():
    cfg = MacroConfig.for_format(E3M4)
    assert cfg.latency == pytest.approx(150e-9)
    assert cfg.adc == AdcConfig()
    weights = program_weights(np.full((4, 2), 0.5), cfg.device)
    bits = np.full(4, (3 << 4) | 2, dtype=np.uint8)
    res = macro_mac(bits, weights, cfg)
    assert res.digital_values.shape == (2,)


def test_int8_readout_matches_baseline_converter():
    # every code against every level, on both columns of a pair: the INT8
    # readout is the baseline converter applied to the column currents
    cfg = small_config(g_min=0.0)
    levels = np.arange(1, 16) / 15
    weights = program_weights(np.concatenate([levels, -levels])[None, :], cfg.device)
    bits = np.arange(128, dtype=np.uint8)[None, :]
    res = macro_mac(bits, weights, cfg, readout="int8")

    volts = dac_convert_bits(bits, cfg.fmt)
    pos, under_p, sat_p = int8_baseline_convert(volts.T @ weights.g_pos, cfg.adc)
    neg, under_n, sat_n = int8_baseline_convert(volts.T @ weights.g_neg, cfg.adc)
    np.testing.assert_array_equal(res.pos_bits, pos)
    np.testing.assert_array_equal(res.neg_bits, neg)
    np.testing.assert_array_equal(res.underflow, under_p & under_n)
    np.testing.assert_array_equal(res.saturated, sat_p | sat_n)


def test_non_integer_codes_rejected():
    cfg = small_config()
    weights = program_weights(np.zeros((4, 2)), cfg.device)
    with pytest.raises(ContractError):
        macro_mac(np.full(4, 3.7), weights, cfg)


def test_default_adc_serves_every_format():
    # neither converter config holds a format: every format builds with the defaults
    for fmt in (E2M5, E3M4):
        assert MacroConfig(fmt=fmt) == MacroConfig.for_format(fmt)


CONFIG_FLOATS = [pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
                 for cls in (AdcConfig, DeviceModel)
                 for f in dataclasses.fields(cls) if f.type in (float, "float")]


@pytest.mark.parametrize("cls, name", CONFIG_FLOATS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_config_field_rejected(cls, name, bad):
    # every float field is checked at construction, including one added later
    with pytest.raises(ContractError, match=name):
        cls(**{name: bad})


def unblocked_macro_mac(bits, weights, cfg, signs, readout):
    """The macro chain from public stages on the whole batch, no blocks."""
    volts = dac_convert_bits(bits, cfg.fmt)
    if signs is None:
        i_pos, i_neg = volts.T @ weights.g_pos, volts.T @ weights.g_neg
    else:
        v_fwd, v_rev = np.where(signs, 0.0, volts), np.where(signs, volts, 0.0)
        i_pos = v_fwd.T @ weights.g_pos + v_rev.T @ weights.g_neg
        i_neg = v_fwd.T @ weights.g_neg + v_rev.T @ weights.g_pos
    out = []
    for currents in (i_pos, i_neg):
        if readout == "adc":
            codes, under, sat, _ = convert_analytic_array(currents, cfg.adc, cfg.fmt)
            out.append((codes, decode_bits(codes, cfg.fmt), under, sat))
        else:
            codes, under, sat = int8_baseline_convert(currents, cfg.adc)
            out.append((codes, codes * INT8_LSB, under, sat))
    (pb, xp, up, sp), (nb, xn, un, sn) = out
    digital = (xp - xn) * (V_MID / scale_chain(cfg))
    return pb, nb, digital, up & un, sp | sn


@pytest.mark.parametrize("fmt", [E2M5, E3M4], ids=lambda f: f.name)
@pytest.mark.parametrize("readout", ["adc", "int8"])
@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
def test_blocked_chain_equals_unblocked_composition(fmt, readout, signed):
    rng = np.random.default_rng(31)
    rows, cols = 40, 200
    n = 3 * max(1, fpcodec._BLOCK // cols) + 17  # three full blocks and a ragged tail
    device = DeviceModel(levels=16)
    weights = program_weights(rng.uniform(-1, 1, (rows, cols)), device, seed=5)
    bits = rng.integers(0, 128, (rows, n)).astype(np.uint8)
    signs = rng.random((rows, n)) < 0.5 if signed else None
    # integration capacitor sized so the largest column current reads 0.9 of full scale
    volts = dac_convert_bits(bits, fmt)
    i_max = max(float(np.max(volts.T @ weights.g_pos)), float(np.max(volts.T @ weights.g_neg)))
    base = AdcConfig()
    full = x_sat(fmt) if readout == "adc" else INT8_FULL_SCALE
    adc = AdcConfig(c_int=i_max * base.t_int / (V_MID * 0.9 * full))
    cfg = MacroConfig(fmt, adc, device)

    res = macro_mac(bits, weights, cfg, signs=signs, readout=readout)
    assert not res.saturated.any() and not res.underflow.all()
    want = unblocked_macro_mac(bits, weights, cfg, signs, readout)
    got = (res.pos_bits, res.neg_bits, res.digital_values, res.underflow, res.saturated)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
