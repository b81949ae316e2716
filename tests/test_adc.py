import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpcim.adc import (
    INT8_LSB,
    V_MID,
    V_RESET,
    V_TH,
    AdcConfig,
    adc_x,
    charge_share,
    convert_analytic,
    convert_analytic_array,
    int8_baseline_convert,
    simulate_transient,
    single_slope,
    x_sat,
)
from fpcim.errors import ContractError
from fpcim.fpcodec import E2M5, E3M4, all_values, decode
from fpcim.perfmodel import LATENCY_NS

CFG = AdcConfig()  # 100 fF, 2 V threshold, 95 ns window; E2M5 bank [C, C, 2C, 4C]


def share_events(result):
    return [e for e in result.trace if e.kind == "charge-share"]


# ---------------------------------------------------------------- charge sharing

def test_share_two_unit_caps():
    assert charge_share(2.0, 100e-15, 100e-15, 0.0) == 1.0


def test_share_next_doubling_cap():
    assert charge_share(2.0, 200e-15, 200e-15, 0.0) == 1.0


def test_share_conserves_charge():
    rng = np.random.default_rng(1)
    for _ in range(200):
        c1, c2 = rng.uniform(10e-15, 500e-15, 2)
        v0, vr = rng.uniform(0, 3), rng.uniform(0, 1)
        v1 = charge_share(v0, c1, c2, vr)
        before = c1 * v0 + c2 * vr
        after = (c1 + c2) * v1
        assert after == pytest.approx(before, rel=1e-12)


def test_share_lands_at_v_mid_for_every_bank_stage():
    c = CFG.c_int
    active = c
    for nxt in CFG.cap_bank(E2M5)[1:]:
        assert charge_share(V_TH, active, nxt, V_RESET) == V_MID
        active += nxt


# ---------------------------------------------------------------- single slope

def test_single_slope_paper_value():
    assert single_slope(1.271, E2M5) == 9


def test_single_slope_bottom():
    assert single_slope(1.0, E2M5) == 0


def test_single_slope_top_clamps():
    assert single_slope(1.999, E2M5) == 31


def test_single_slope_exact_step_is_ceiling():
    # 1.28125 sits exactly on step 9; ceiling keeps it there
    assert single_slope(1.28125, E2M5) == 9


def test_single_slope_range_contract():
    with pytest.raises(ContractError):
        single_slope(0.9, E2M5)
    with pytest.raises(ContractError):
        single_slope(2.0, E2M5)


# ---------------------------------------------------------------- analytic

def test_analytic_transient_scenario():
    r = convert_analytic(5.38e-6, CFG, E2M5)
    assert r.code == 0b1001001
    assert divmod(r.code, E2M5.mant_levels) == (2, 9)
    assert r.v_m == pytest.approx(1.27775, abs=1e-12)
    # within 1% of the circuit-level 1.271 V measurement
    assert abs(r.v_m - 1.271) / 1.271 < 0.01
    assert not r.underflow and not r.saturated


def test_analytic_zero_current_underflows():
    r = convert_analytic(0.0, CFG, E2M5)
    assert r.code == 0 and r.underflow


def test_analytic_saturation():
    # x = 16 exceeds the e=3 segment; nudge past the float round trip
    i_sat = 16.0000001 * CFG.c_int / CFG.t_int
    assert i_sat == pytest.approx(16.84e-6, rel=1e-3)
    r = convert_analytic(i_sat, CFG, E2M5)
    assert r.saturated
    assert r.code == 0b1111111


def test_analytic_underflow_boundary():
    i_edge = V_MID * CFG.c_int / CFG.t_int  # ~1.0526 uA
    assert i_edge == pytest.approx(1.0526e-6, rel=1e-3)
    assert convert_analytic(i_edge * 0.999, CFG, E2M5).underflow
    assert not convert_analytic(i_edge * 1.001, CFG, E2M5).underflow


def test_analytic_negative_current_contract():
    with pytest.raises(ContractError):
        convert_analytic(-1e-6, CFG, E2M5)


def test_analytic_array_matches_scalar():
    currents = np.linspace(0, 20e-6, 777)
    bits, under, sat, values = convert_analytic_array(currents, CFG, E2M5)
    for k, i in enumerate(currents):
        r = convert_analytic(float(i), CFG, E2M5)
        assert bits[k] == r.code
        assert under[k] == r.underflow and sat[k] == r.saturated
        assert values[k] == decode(r.code, E2M5)


def _ramp_sweep(fmt):
    """(config, ramp steps, currents) for an exact sweep of x.

    The config makes ``adc_x`` an exact scaling by 2^20, so the currents
    land on every ramp step (the code values, 2^e included), every ramp
    midpoint and x_sat, and on +-1 and +-2 ulp around each, plus 0 and +inf.
    """
    cfg = AdcConfig(c_int=2.0**-43 / V_MID, t_int=2.0**-23)
    assert cfg.c_int * V_MID == 2.0**-43
    half = np.arange(2 * fmt.mant_levels) / (2 * fmt.mant_levels)
    grid = np.concatenate([np.ldexp(1.0 + half, e) for e in range(fmt.exp_max + 1)]
                          + [[x_sat(fmt)]])
    below, above = np.nextafter(grid, 0.0), np.nextafter(grid, np.inf)
    x = np.concatenate([grid, below, above, np.nextafter(below, 0.0),
                        np.nextafter(above, np.inf), [0.0, np.inf]])
    currents = np.ldexp(x, -20)
    np.testing.assert_array_equal(adc_x(currents, cfg), x)
    return cfg, grid[::2], currents  # the odd grid entries are the midpoints


@pytest.mark.parametrize("fmt", [E2M5, E3M4], ids=lambda f: f.name)
def test_analytic_array_matches_scalar_at_ramp_steps(fmt):
    # both converters take the ceiling of the exact residue, so they agree
    # on every step and its ulp neighbours
    cfg, steps, currents = _ramp_sweep(fmt)
    codes, under, sat, values = convert_analytic_array(currents, cfg, fmt)
    np.testing.assert_array_equal(values, all_values(fmt)[codes])
    x = adc_x(currents, cfg)
    for k, i in enumerate(currents):
        r = convert_analytic(float(i), cfg, fmt)
        assert under[k] == r.underflow and sat[k] == r.saturated
        assert codes[k] == r.code, f"x = {x[k]!r}"
    # an x on a ramp step reads that step, in the transient too: it
    # integrates these currents exactly and the ramp steps are powers of two
    on_step = np.isin(x, steps[1:-1])
    np.testing.assert_array_equal(values[on_step], x[on_step])
    for i, code in zip(currents[on_step], codes[on_step]):
        assert simulate_transient(float(i), cfg, fmt).code == code


# ---------------------------------------------------------------- transient

def test_transient_scenario_full_story():
    r = simulate_transient(5.38e-6, CFG, E2M5)
    shares = share_events(r)
    assert len(shares) == 2
    assert r.code == 0b1001001
    assert r.v_m == pytest.approx(1.27775, abs=1e-12)
    # share moments: t_k = V_TH * C_active / i
    assert shares[0].time == pytest.approx(2.0 * 100e-15 / 5.38e-6, rel=1e-12)
    assert shares[1].time == pytest.approx(2 * 2.0 * 100e-15 / 5.38e-6, rel=1e-12)
    # every share lands exactly at V_MID
    assert all(e.v_o == V_MID for e in shares)
    times = [e.time for e in r.trace]
    assert times == sorted(times)


def test_transient_underflow():
    r = simulate_transient(1.0e-6, CFG, E2M5)  # below the 1.0526 uA boundary
    assert r.underflow and r.code == 0
    assert not share_events(r)
    assert r.v_m < V_MID


def test_transient_saturation_halts_at_full_bank():
    r = simulate_transient(19e-6, CFG, E2M5)
    assert r.saturated
    assert r.code == 0b1111111
    assert r.v_m == V_TH


def test_transient_share_count_is_exponent():
    rng = np.random.default_rng(5)
    for i in rng.uniform(1.2e-6, 16e-6, 100):
        r = simulate_transient(float(i), CFG, E2M5)
        if r.saturated or r.underflow:
            continue
        x = i * CFG.t_int / (CFG.c_int * V_MID)
        assert len(share_events(r)) == int(math.floor(math.log2(x)))
        assert r.code >> E2M5.mantissa_bits == len(share_events(r))


def test_transient_vm_normalized_range():
    rng = np.random.default_rng(6)
    for i in rng.uniform(0, 20e-6, 300):
        r = simulate_transient(float(i), CFG, E2M5)
        if not r.underflow and not r.saturated:
            assert V_MID <= r.v_m < V_TH


def test_transient_charge_conservation_and_continuity():
    # the Eq-style segment current evaluated just before and after each
    # share event must agree, and total bank charge must be conserved
    rng = np.random.default_rng(7)
    bank = CFG.cap_bank(E2M5)
    for i in rng.uniform(1.2e-6, 16.8e-6, 200):
        r = simulate_transient(float(i), CFG, E2M5)
        c_active = bank[0]
        for ev in r.trace:
            if ev.kind != "charge-share":
                continue
            c_next = bank[sum(ev.switch_state)]
            q_before = c_active * V_TH + c_next * V_RESET
            q_after = (c_active + c_next) * ev.v_o
            assert q_after == pytest.approx(q_before, rel=1e-12)
            i_before = (V_TH - V_RESET) / ev.time * c_active
            c_active += c_next
            i_after = (ev.v_o - V_RESET) / ev.time * c_active
            assert i_before == pytest.approx(i_after, rel=1e-12)


def test_transient_takes_one_scalar_current():
    # any array, a size-1 one included, is no current: it fails at the boundary
    for bad in (np.array([5e-6]), [5e-6], np.full((2, 2), 5e-6), [(0.0, 2e-6), (40e-9, 8e-6)]):
        with pytest.raises(ContractError, match="one scalar current"):
            simulate_transient(bad, CFG, E2M5)
    for i in (-1e-6, -math.inf):
        with pytest.raises(ContractError, match="non-negative"):
            simulate_transient(i, CFG, E2M5)
    # a 0-D array or a numpy scalar is one current
    want = simulate_transient(5e-6, CFG, E2M5)
    for i in (np.array(5e-6), np.float64(5e-6)):
        got = simulate_transient(i, CFG, E2M5)
        assert (got.code, got.v_m, got.trace) == (want.code, want.v_m, want.trace)


def test_transient_zero_current():
    r = simulate_transient(0.0, CFG, E2M5)
    assert r.underflow and r.v_m == 0.0


# ---------------------------------------------------------------- oracle duality

def test_oracle_equivalence_sampled():
    rng = np.random.default_rng(2024)
    for i in rng.uniform(0, 20e-6, 2000):
        a = convert_analytic(float(i), CFG, E2M5)
        t = simulate_transient(float(i), CFG, E2M5)
        assert a.code == t.code, i
        assert a.underflow == t.underflow and a.saturated == t.saturated, i


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.floats(0, 20e-6))
def test_oracle_equivalence_property(i):
    # The two routes compute different float expressions, so inputs whose
    # residue lands exactly on a ramp step or segment boundary can flip by
    # one ulp; agreement is over the open complement of that lattice.
    x = i * CFG.t_int / (CFG.c_int * V_MID)
    frac = (x / 2.0 ** (math.frexp(x)[1] - 1)) * E2M5.mant_levels if x > 0 else 0.5
    on_lattice = (
        abs(x - round(x)) < 1e-9 or abs(frac - round(frac)) < 1e-9
    )
    assume(not on_lattice)
    a = convert_analytic(i, CFG, E2M5)
    t = simulate_transient(i, CFG, E2M5)
    assert a.code == t.code
    assert (a.underflow, a.saturated) == (t.underflow, t.saturated)


def test_e3m4_bank_and_conversion():
    cfg = AdcConfig()
    assert len(cfg.cap_bank(E3M4)) == 8
    assert cfg.cap_bank(E3M4)[-1] == 64 * cfg.c_int
    assert E3M4.mant_levels == 16
    i = 100e-6  # x ~ 95 -> exponent 6
    a = convert_analytic(i, cfg, E3M4)
    t = simulate_transient(i, cfg, E3M4)
    assert a.code == t.code
    assert a.code >> E3M4.mantissa_bits == 6


def test_one_config_converts_every_format():
    # the bank and the ramp come from the format: the default config reads E3M4
    r = convert_analytic(100e-6, AdcConfig(), E3M4)
    assert r.code >> E3M4.mantissa_bits == 6
    assert x_sat(E2M5) == 16.0 and x_sat(E3M4) == 256.0


# ---------------------------------------------------------------- int8 baseline

def test_int8_conversion_time_ratio():
    assert LATENCY_NS["INT8"] / LATENCY_NS["E2M5"] == 2.5
    assert LATENCY_NS["INT8"] / 1e9 == 500e-9


def test_int8_zero_current():
    code, underflow, saturated, x = int8_baseline_convert(0.0, CFG)
    assert code == 0 and x == 0.0 and underflow and not saturated


def _scalar_converter(convert):
    def run(i):
        r = convert(i, CFG, E2M5)
        return r.code, r.saturated
    return run


def _array_converter(convert, *fmt):
    def run(i):
        out = convert(np.array([i]), CFG, *fmt)
        return int(out[0][0]), bool(out[2][0])
    return run


@pytest.mark.parametrize("convert, top", [
    (_scalar_converter(convert_analytic), 0b1111111),
    (_scalar_converter(simulate_transient), 0b1111111),
    (_array_converter(convert_analytic_array, E2M5), 0b1111111),
    (_array_converter(int8_baseline_convert), 255),
], ids=["analytic", "transient", "analytic_array", "int8"])
def test_non_finite_currents(convert, top):
    # NaN is rejected at the converter boundary; +inf saturates to the top code
    with pytest.raises(ContractError):
        convert(math.nan)
    assert convert(math.inf) == (top, True)


def test_int8_monotone_over_sweep():
    rng = np.random.default_rng(11)
    currents = np.sort(rng.uniform(0, 20e-6, 10_000))
    codes, _, _, x = int8_baseline_convert(currents, CFG)
    assert np.all(np.diff(codes.astype(int)) >= 0)
    # the x value of a code is the code times the LSB, as the macro subtracts it
    np.testing.assert_array_equal(x, codes * INT8_LSB)


# ---------------------------------------------------------------- trace

def test_trace_kinds():
    kinds = [ev.kind for ev in simulate_transient(5.38e-6, CFG, E2M5).trace]
    assert kinds[0] == "reset"
    assert "charge-share" in kinds and "sample" in kinds and "ramp-compare" in kinds


def test_config_validation():
    # the levels are fixed and the doubling bank is derived, not set
    assert (V_TH, V_MID, V_RESET) == (2.0, 1.0, 0.0)
    assert AdcConfig().cap_bank(E2M5) == (100e-15, 100e-15, 200e-15, 400e-15)
    with pytest.raises(ContractError):
        AdcConfig(c_int=-1e-15)
    with pytest.raises(ContractError):
        AdcConfig(t_int=0.0)


@pytest.mark.parametrize("convert", [
    lambda c: adc_x(1e-6, c), lambda c: convert_analytic(1e-6, c, E2M5),
    lambda c: convert_analytic_array(np.full(3, 1e-6), c, E2M5),
    lambda c: int8_baseline_convert(1e-6, c),
], ids=["adc_x", "convert_analytic", "convert_analytic_array", "int8_baseline_convert"])
@pytest.mark.parametrize("config", [None, "AdcConfig", 100e-15], ids=repr)
def test_converters_reject_a_non_config(convert, config):
    # each reads its x through adc_x, which checks the config's type
    with pytest.raises(ContractError, match="config must be an AdcConfig"):
        convert(config)


def test_conversion_block_peak_memory():
    # adc_x's x is its one fresh array (the product, divided in place), and
    # the converter reads the codes' values into the memory that held the
    # clamp ``top``: 304 KiB for a 16,384-current block, 432 KiB before
    # (x twice in adc_x, then x, top and the values at once)
    i = np.random.default_rng(16).uniform(0, 2e-4, 16384)
    cfg = AdcConfig()
    for call, allowed in ((lambda: adc_x(i, cfg), i.nbytes + 4096),
                          (lambda: convert_analytic_array(i, cfg, E2M5), 2.5 * i.nbytes)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < allowed
    np.testing.assert_array_equal(adc_x(i, cfg), i * cfg.t_int / (cfg.c_int * V_MID))
