import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fpcim import fpcodec
from fpcim.adc import (
    INT8_LSB,
    V_MID,
    AdcConfig,
    adc_x,
    convert_analytic,
    convert_analytic_array,
    int8_baseline_convert,
)
from fpcim.cimmacro import (MacroConfig, MacroResult, _column_currents, converter,
                            ideal_reference, macro_mac, scale_chain)
from fpcim.dac import V_UNIT, dac_convert_bits
from fpcim.errors import ContractError
from fpcim.fpcodec import E2M5, E3M4, decode, decode_bits, quantize_tensor
from fpcim.mapper import MacroBank, TilePlan, calibrate, execute_plan
from fpcim.perfmodel import LATENCY_NS
from fpcim.xbar import MAX_COLS, MAX_ROWS, DeviceModel, program_weights, weight_levels


def small_config(g_min=0.5e-6):
    return MacroConfig(
        device=DeviceModel(g_min=g_min, g_max=20e-6, levels=16, sigma_rel=0.0),
    )


def test_scale_chain_reference_value():
    cfg = small_config()
    # v_unit * g_lsb * t_int / (c_int * V_MID) with g_lsb = (20 - 0.5) uS / 15
    assert cfg.device.g_lsb == pytest.approx(1.3e-6, rel=1e-12)
    assert scale_chain(cfg) == pytest.approx(0.1235, rel=1e-12)
    # the x value of one dot-product unit: that many units' current reads x = 1
    i_unit = V_UNIT[cfg.fmt] * cfg.device.g_lsb
    assert adc_x(i_unit / scale_chain(cfg), cfg.adc) == pytest.approx(1.0, rel=1e-15)


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
    res = macro_mac(np.zeros((8, 1), dtype=np.uint8), weights, cfg)
    assert np.all(res.underflow)
    np.testing.assert_array_equal(res.digital_values, np.zeros((1, 4)))


def test_single_active_row_matches_explicit_chain():
    # brute force one path by hand: decode -> voltage -> current -> ADC
    cfg = small_config(g_min=0.0)
    w = np.array([[0.0], [1.0], [0.0], [0.0]])
    weights = program_weights(w, cfg.device)
    code = 0b1011110  # 7.75
    bits = np.zeros((4, 1), dtype=np.uint8)
    bits[1, 0] = code

    volts = V_UNIT[cfg.fmt] * decode(code, cfg.fmt)
    current = (np.array([0.0, volts, 0.0, 0.0]).T @ weights.g_pos)[0]
    oracle = convert_analytic(float(current), cfg.adc, cfg.fmt)
    expected_dot = decode(oracle.code, cfg.fmt) / scale_chain(cfg)

    res = macro_mac(bits, weights, cfg)
    assert res.pos_bits[0, 0] == oracle.code
    assert res.digital_values[0, 0] == pytest.approx(expected_dot, rel=1e-12)
    # the re-quantized value is within one mantissa step of the raw product
    raw_dot = 7.75 * 15  # decode * level
    assert abs(res.digital_values[0, 0] - raw_dot) / raw_dot < 2.0**-5


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

        res = macro_mac(bits[:, None], weights, cfg)

        volts = decode_bits(bits, cfg.fmt) * V_UNIT[cfg.fmt]
        for j in range(cols):
            i_pos = float(volts @ weights.g_pos[:, j])
            i_neg = float(volts @ weights.g_neg[:, j])
            op = convert_analytic(i_pos, cfg.adc, cfg.fmt)
            on = convert_analytic(i_neg, cfg.adc, cfg.fmt)
            assert res.pos_bits[0, j] == op.code
            assert res.neg_bits[0, j] == on.code
            assert res.saturated[0, j] == (op.saturated or on.saturated)
            assert res.underflow[0, j] == (op.underflow and on.underflow)


@pytest.mark.parametrize("fmt", [E2M5, E3M4], ids=lambda f: f.name)
def test_calibrated_full_tile_against_analytic_oracle(fmt):
    # a full 576-row tile, calibrated so that it does not saturate: every
    # code equals the per-column dot product through the scalar converter
    rng = np.random.default_rng(11)
    plan = TilePlan(MAX_ROWS, MAX_COLS)
    bank = MacroBank.build(plan, rng.uniform(-1, 1, (MAX_ROWS, MAX_COLS)), MacroConfig(fmt))
    q = quantize_tensor(rng.standard_normal((MAX_ROWS, 8)), fmt)
    cal = calibrate(plan, bank, q.codes)
    weights, cfg = cal[0].pair, cal.config

    res = macro_mac(q.codes, weights, cfg)
    assert not res.saturated.any()
    volts = decode_bits(q.codes, fmt) * V_UNIT[fmt]
    for k in range(q.codes.shape[1]):
        for j in range(MAX_COLS):
            for g, got in ((weights.g_pos, res.pos_bits), (weights.g_neg, res.neg_bits)):
                assert got[k, j] == convert_analytic(float(volts[:, k] @ g[:, j]), cfg.adc, fmt).code


def test_identity_readout_equals_ideal_reference():
    rng = np.random.default_rng(3)
    cfg = small_config()
    w = rng.uniform(-1, 1, (16, 6))
    weights = program_weights(w, cfg.device)
    bits = rng.integers(0, 128, 16).astype(np.uint8)[:, None]
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
    np.testing.assert_allclose(ideal_reference(dec[:, None], levels), naive[None, :], rtol=1e-12)


def test_ideal_reference_takes_a_batch():
    # one input form, as macro_mac: a single vector is no (rows, n) batch
    levels = np.ones((8, 2))
    for bad in (np.ones(8), np.float64(1.0), np.ones((8, 1, 1))):
        with pytest.raises(ContractError, match=r"\(rows, n\) batch"):
            ideal_reference(bad, levels)


def test_ideal_reference_linear():
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0, 1, (6, 1)), rng.uniform(0, 1, (6, 1))
    levels = rng.integers(-15, 16, (6, 3)).astype(float)
    lhs = ideal_reference(a + 2 * b, levels)
    rhs = ideal_reference(a, levels) + 2 * ideal_reference(b, levels)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_column_permutation_permutes_results():
    rng = np.random.default_rng(6)
    cfg = small_config()
    w = rng.uniform(-0.9, 0.9, (8, 5))
    bits = rng.integers(0, 128, 8).astype(np.uint8)[:, None]
    perm = rng.permutation(5)
    res = macro_mac(bits, program_weights(w, cfg.device), cfg)
    res_p = macro_mac(bits, program_weights(w[:, perm], cfg.device), cfg)
    np.testing.assert_array_equal(res_p.digital_values, res.digital_values[:, perm])
    np.testing.assert_array_equal(res_p.pos_bits, res.pos_bits[:, perm])


def test_signed_inputs_flip_contribution():
    cfg = small_config(g_min=0.0)
    w = np.array([[1.0], [1.0]])
    weights = program_weights(w, cfg.device)
    bits = np.array([[0b0100000], [0b0100000]], dtype=np.uint8)  # 2.0 each
    plain = macro_mac(bits, weights, cfg, readout="identity")
    signed = macro_mac(bits, weights, cfg, signs=np.array([[False], [True]]), readout="identity")
    assert plain.digital_values[0, 0] == pytest.approx(2 * 2.0 * 15)
    assert signed.digital_values[0, 0] == pytest.approx(0.0)


def test_batched_inputs_match_single():
    rng = np.random.default_rng(7)
    cfg = small_config()
    weights = program_weights(rng.uniform(-0.8, 0.8, (6, 3)), cfg.device)
    batch = rng.integers(0, 128, (6, 5)).astype(np.uint8)
    res = macro_mac(batch, weights, cfg)
    assert res.digital_values.shape == (5, 3)
    # the batch equals its (rows, 1) column slices
    for k in range(5):
        one = macro_mac(batch[:, k : k + 1], weights, cfg)
        np.testing.assert_array_equal(res.digital_values[k : k + 1], one.digital_values)
        np.testing.assert_array_equal(res.pos_bits[k : k + 1], one.pos_bits)


def test_shape_contracts():
    cfg = small_config()
    weights = program_weights(np.zeros((4, 2)), cfg.device)
    with pytest.raises(ContractError, match="3 input rows for a 4-row macro"):
        macro_mac(np.zeros((3, 1), dtype=np.uint8), weights, cfg)
    with pytest.raises(ContractError, match="unknown readout"):
        macro_mac(np.zeros((4, 1), dtype=np.uint8), weights, cfg, readout="bogus")
    # codes are a (rows, n) batch: a scalar, one vector or a 3-D array is no batch
    for bad in (np.uint8(3), np.zeros(4, dtype=np.uint8), np.zeros((4, 2, 2), dtype=np.uint8)):
        with pytest.raises(ContractError, match=r"must be a \(rows, n\) batch"):
            macro_mac(bad, weights, cfg)


def test_e3m4_macro_config():
    cfg = MacroConfig.for_format(E3M4)
    # the conversion time is the readout's: the INT8 baseline's in either format
    assert LATENCY_NS[converter("adc", cfg.fmt).label] == 150
    assert LATENCY_NS[converter("int8", E3M4).label] == LATENCY_NS[converter("int8", E2M5).label] == 500
    assert cfg.adc == AdcConfig()
    weights = program_weights(np.full((4, 2), 0.5), cfg.device)
    bits = np.full((4, 1), (3 << 4) | 2, dtype=np.uint8)
    res = macro_mac(bits, weights, cfg)
    assert res.digital_values.shape == (1, 2)


def test_int8_readout_matches_baseline_converter():
    # every code against every level, on both columns of a pair: the INT8
    # readout is the baseline converter applied to the column currents,
    # the float64 products of a noisy tile's planes and the exact-integer
    # currents of a noiseless tile
    w = np.concatenate([np.arange(1, 16) / 15, -np.arange(1, 16) / 15])[None, :]
    bits = np.arange(128, dtype=np.uint8)[None, :]
    for sigma in (0.05, 0.0):
        cfg = MacroConfig(device=DeviceModel(g_min=0.0, g_max=20e-6, levels=16, sigma_rel=sigma))
        weights = program_weights(w, cfg.device, seed=2)
        res = macro_mac(bits, weights, cfg, readout="int8")

        if sigma:
            volts = dac_convert_bits(bits, cfg.fmt)
            i_pos, i_neg = volts.T @ weights.g_pos, volts.T @ weights.g_neg
        else:
            # one row: S is the code's value, D its q times the cell's level
            dec = decode_bits(bits, cfg.fmt)[0]
            k = weight_levels(w, cfg.device)[0]
            step = cfg.device.g_lsb / cfg.fmt.mant_levels
            i_pos, i_neg = (V_UNIT[cfg.fmt] * (cfg.device.g_min * dec[:, None]
                                               + step * np.outer(dec * cfg.fmt.mant_levels, lv))
                            for lv in (np.maximum(k, 0.0), np.maximum(-k, 0.0)))
        pos, under_p, sat_p, _ = int8_baseline_convert(i_pos, cfg.adc)
        neg, under_n, sat_n, _ = int8_baseline_convert(i_neg, cfg.adc)
        np.testing.assert_array_equal(res.pos_bits, pos)
        np.testing.assert_array_equal(res.neg_bits, neg)
        np.testing.assert_array_equal(res.underflow, under_p & under_n)
        np.testing.assert_array_equal(res.saturated, sat_p | sat_n)


def test_non_integer_codes_rejected():
    cfg = small_config()
    weights = program_weights(np.zeros((4, 2)), cfg.device)
    with pytest.raises(ContractError, match="integer dtype"):
        macro_mac(np.full((4, 1), 3.7), weights, cfg)


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


@pytest.mark.parametrize("cls, name", CONFIG_FLOATS)
@pytest.mark.parametrize("bad", [None, "x", True], ids=repr)
def test_config_field_of_wrong_type_rejected(cls, name, bad):
    # a non-number fails the field's own check, not a comparison with a
    # TypeError; a bool is no physical quantity
    with pytest.raises(ContractError, match=name):
        cls(**{name: bad})


@pytest.mark.parametrize("name, bad", [
    ("fmt", "E2M5"), ("fmt", None), ("adc", None), ("adc", DeviceModel()),
    ("device", None), ("device", AdcConfig()),
], ids=repr)
def test_macro_config_parts_must_have_their_types(name, bad):
    # at construction, not later in programming or in a conversion
    with pytest.raises(ContractError, match=f"{name} must be a"):
        MacroConfig(**{name: bad})


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
            codes, under, sat, _ = int8_baseline_convert(currents, cfg.adc)
            out.append((codes, codes * INT8_LSB, under, sat))
    (pb, xp, up, sp), (nb, xn, un, sn) = out
    digital = (xp - xn) * (1.0 / scale_chain(cfg))
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
    full = converter(readout, fmt).full_scale
    adc = AdcConfig(c_int=i_max * base.t_int / (V_MID * 0.9 * full))
    cfg = MacroConfig(fmt, adc, device)

    res = macro_mac(bits, weights, cfg, signs=signs, readout=readout)
    assert not res.saturated.any() and not res.underflow.all()
    want = unblocked_macro_mac(bits, weights, cfg, signs, readout)
    got = (res.pos_bits, res.neg_bits, res.digital_values, res.underflow, res.saturated)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


# ------------------------------------------------- scratch buffers and results

def conv0_batch(seed):
    """The cnn bench's first layer: a signed 144x64 tile (the same for every
    seed) and a 1024-vector batch."""
    rng = np.random.default_rng(seed)
    w = np.random.default_rng(40).uniform(-1, 1, (144, 64))
    bits = rng.integers(0, 128, (144, 1024)).astype(np.uint8)
    signs = rng.random((144, 1024)) < 0.5
    return w, bits, signs


def result_arrays(res):
    if isinstance(res, np.ndarray):
        return [res]
    if isinstance(res, MacroResult):
        res = [getattr(res, f.name) for f in dataclasses.fields(res)]
    return [a for a in res if a is not None]


def test_repeated_macro_mac_peak_memory_stays_near_its_result():
    # the voltages, currents and matmul product live in this thread's
    # scratch: a warm call allocates its result and the conversion chain's
    # block temporaries, at most eight float64 blocks; without the scratch
    # a signed conv0 tile peaks near 3.8 MiB over a 768 KiB result
    w, bits, signs = conv0_batch(41)
    cfg = MacroConfig()
    pair = program_weights(w, cfg.device)
    macro_mac(bits, pair, cfg, signs=signs)  # fills the scratch
    tracemalloc.start()
    try:
        res = macro_mac(bits, pair, cfg, signs=signs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = sum(a.nbytes for a in result_arrays(res))
    assert result == 768 * 1024
    assert peak <= result + 8 * 8 * fpcodec._BLOCK


def test_returned_arrays_share_no_memory_between_calls():
    # a second call on another batch of the same shapes must neither reuse
    # nor overwrite the first call's arrays
    w, bits_a, signs_a = conv0_batch(42)
    _, bits_b, signs_b = conv0_batch(43)
    plan = TilePlan(*w.shape)
    # calibrated, so that the two batches read different codes
    bank = calibrate(plan, MacroBank.build(plan, w, MacroConfig()), bits_a, signs_a)
    cfg, pair = bank.config, bank[0].pair
    calls = {
        "macro_mac": lambda b, s: macro_mac(b, pair, cfg, signs=s),
        "macro_mac int8": lambda b, s: macro_mac(b, pair, cfg, signs=s, readout="int8"),
        "macro_mac identity": lambda b, s: macro_mac(b, pair, cfg, signs=s, readout="identity"),
        "execute_plan": lambda b, s: execute_plan(plan, b, bank, signs=s),
        "_column_currents": lambda b, s: _column_currents(b, s, pair, cfg),
        "decode_bits": lambda b, s: decode_bits(b, cfg.fmt),
    }
    for name, call in calls.items():
        first = result_arrays(call(bits_a, signs_a))
        kept = [a.copy() for a in first]
        second = result_arrays(call(bits_b, signs_b))
        assert not any(np.shares_memory(a, b) for a in first for b in second), name
        # nor do two arrays of one result: writing one flag must not change the other
        assert not any(np.shares_memory(a, b) for i, a in enumerate(first) for b in first[i + 1:]), name
        for a, k in zip(first, kept):
            np.testing.assert_array_equal(a, k, err_msg=name)
        assert any(not np.array_equal(a, b) for a, b in zip(first, second)), name


def test_batches_on_threads_at_once_equal_one_thread():
    # each thread has its own scratch: batches run at once, on more threads
    # than cores and with frequent switches, give the results each gives alone
    w, _, _ = conv0_batch(44)
    batches = [conv0_batch(seed)[1:] for seed in (45, 46, 47)]
    plan = TilePlan(*w.shape)
    bank = calibrate(plan, MacroBank.build(plan, w, MacroConfig()), *batches[0])
    alone = [execute_plan(plan, b, bank, signs=s) for b, s in batches]
    together = [[] for _ in batches]
    start = threading.Barrier(len(batches), timeout=60)

    def run(k):
        start.wait()
        for _ in range(4):
            together[k].append(execute_plan(plan, batches[k][0], bank, signs=batches[k][1]))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, runs in zip(alone, together):
        assert len(runs) == 4
        for got in runs:
            for g, e in zip(got, want):
                np.testing.assert_array_equal(g, e)


PAIR = program_weights(np.zeros((4, 2)), DeviceModel())
WRONG_TYPES = {
    "weights=None": (None, MacroConfig()),
    "weights=array": (np.zeros((4, 2)), MacroConfig()),
    "config=None": (PAIR, None),
    "config=adc": (PAIR, AdcConfig()),
    "config=device": (PAIR, DeviceModel()),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPES))
def test_macro_mac_rejects_wrong_types(name):
    # at the boundary, not as an AttributeError inside
    weights, config = WRONG_TYPES[name]
    with pytest.raises(ContractError, match="must be a"):
        macro_mac(np.zeros((4, 1), dtype=np.uint8), weights, config)
