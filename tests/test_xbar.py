import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcim.cimmacro import MacroConfig, _column_currents, macro_mac
from fpcim.dac import dac_convert_bits
from fpcim.errors import ContractError
from fpcim.fpcodec import _BLOCK
from fpcim.xbar import (
    ConductancePair,
    DeviceModel,
    program_weights,
    weight_levels,
)

NOISELESS = DeviceModel(g_min=0.5e-6, g_max=20e-6, levels=16, sigma_rel=0.0)


def test_zero_weight_both_sides_leak():
    pair = program_weights(np.zeros((2, 2)), NOISELESS)
    np.testing.assert_array_equal(pair.g_pos, NOISELESS.g_min)
    np.testing.assert_array_equal(pair.g_neg, NOISELESS.g_min)


def test_full_weight_hits_g_max():
    pair = program_weights(np.array([[1.0]]), NOISELESS)
    assert pair.g_pos[0, 0] == 20e-6
    assert pair.g_neg[0, 0] == NOISELESS.g_min


def test_half_weight_rounds_to_16_levels():
    # nearest of 16 uniform levels to 0.5 is 8/15
    pair = program_weights(np.array([[0.5]]), NOISELESS)
    expected = NOISELESS.g_min + (8 / 15) * (NOISELESS.g_max - NOISELESS.g_min)
    assert pair.g_pos[0, 0] == pytest.approx(expected, rel=1e-15)


def test_negative_weights_program_neg_column():
    pair = program_weights(np.array([[-1.0]]), NOISELESS)
    assert pair.g_neg[0, 0] == 20e-6
    assert pair.g_pos[0, 0] == NOISELESS.g_min


def test_weight_magnitude_contract():
    with pytest.raises(ContractError):
        program_weights(np.array([[1.2]]), NOISELESS)


def test_weight_levels_integers():
    w = np.array([[0.5, -1.0, 0.0]])
    lv = weight_levels(w, NOISELESS)
    np.testing.assert_array_equal(lv, [[8, -15, 0]])


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("seed", [-1, 1.5, None, "3", np.float64(2.0)], ids=repr)
def test_program_seed_must_be_a_non_negative_integer(seed, sigma):
    # at every sigma_rel, not only where a draw would reject the seed itself
    model = DeviceModel(sigma_rel=sigma)
    with pytest.raises(ContractError, match="seed"):
        program_weights(np.zeros((2, 2)), model, seed=seed)
    for ok in (0, 7, np.int64(7)):
        program_weights(np.zeros((2, 2)), model, seed=ok)


def test_programming_noise_seeded_and_clamped():
    model = DeviceModel(g_min=0.5e-6, g_max=20e-6, levels=16, sigma_rel=0.3)
    w = np.full((8, 8), 0.9)
    a = program_weights(w, model, seed=3)
    b = program_weights(w, model, seed=3)
    c = program_weights(w, model, seed=4)
    np.testing.assert_array_equal(a.g_pos, b.g_pos)
    assert not np.array_equal(a.g_pos, c.g_pos)
    assert np.all(a.g_pos >= model.g_min) and np.all(a.g_pos <= model.g_max)


# ---------------------------------------------------------------- currents
# The macro's crossbar currents (``cimmacro._column_currents``): codes
# through the default E2M5 DAC (0.1 V per unit), Ohm's law per cell and
# Kirchhoff's current law per column.

def column_currents(bits, g):
    """(n, cols) currents of a (rows, cols) conductance plane for (rows, n) codes."""
    g = np.asarray(g, dtype=float)
    bits = np.asarray(bits, dtype=np.uint8).reshape(g.shape[0], -1)
    return _column_currents(bits, None, ConductancePair(g, np.zeros_like(g)), MacroConfig())[0]


def test_single_cell_ohms_law():
    i = column_currents([0b0101000], [[20e-6]])  # code 2.5: 0.25 V
    assert i[0, 0] == pytest.approx(5e-6, rel=1e-15)


def test_zero_voltages_zero_currents():
    i = column_currents(np.zeros(4), np.full((4, 3), 10e-6))
    np.testing.assert_array_equal(i, np.zeros((1, 3)))


def test_four_row_column_sum():
    # codes 1.5, 2, 3, 4 drive 0.15, 0.2, 0.3, 0.4 V: 3.0 + 3.6 + 4.5 + 4.8 uA
    v = np.array([0.15, 0.2, 0.3, 0.4])
    g = np.array([[20e-6], [18e-6], [15e-6], [12e-6]])
    oracle = math.fsum(vi * gi for vi, gi in zip(v, g[:, 0]))
    assert oracle == pytest.approx(15.9e-6, rel=1e-12)
    i = column_currents([0b0010000, 0b0100000, 0b0110000, 0b1000000], g)
    assert i[0, 0] == pytest.approx(oracle, rel=1e-12)


def test_dimension_mismatch():
    pair = ConductancePair(np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(ContractError):
        macro_mac(np.zeros(3, dtype=np.uint8), pair, MacroConfig())


def test_batched_currents_match_loop():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 128, (5, 7))  # 5 rows, 7 input vectors
    g = rng.uniform(1e-6, 20e-6, (5, 4))
    batched = column_currents(bits, g)
    for k in range(7):
        np.testing.assert_allclose(batched[k], column_currents(bits[:, k], g)[0], rtol=1e-15)


@settings(max_examples=100, derandomize=True)
@given(
    st.lists(st.integers(0, 127), min_size=3, max_size=3),
    st.lists(st.integers(0, 127), min_size=3, max_size=3),
    st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_linearity_superposition(c1, c2, mask):
    # rows driven apart add up to the rows driven together
    g = np.array([[20e-6, 5e-6], [18e-6, 7e-6], [12e-6, 9e-6]])
    a = np.where(mask, c1, 0)
    b = np.where(mask, 0, c2)
    lhs = column_currents(a + b, g)
    rhs = column_currents(a, g) + column_currents(b, g)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-18)


def test_differential_cancellation():
    # programming w and -w with no noise mirrors the pair
    w = np.array([[0.4, -0.8], [0.1, 0.6]])
    fwd = program_weights(w, NOISELESS)
    rev = program_weights(-w, NOISELESS)
    np.testing.assert_array_equal(fwd.g_pos, rev.g_neg)
    np.testing.assert_array_equal(fwd.g_neg, rev.g_pos)


def test_zero_g_min_sparsity():
    # a zero weight on a g_min = 0 device is no conductance at all
    model = DeviceModel(g_min=0.0, g_max=20e-6, levels=16)
    pair = program_weights(np.array([[0.0], [1.0]]), model)
    assert pair.g_pos[0, 0] == 0.0 and pair.g_neg[0, 0] == 0.0
    assert pair.g_pos[1, 0] == 20e-6


def test_device_model_validation():
    with pytest.raises(ContractError):
        DeviceModel(g_min=5e-6, g_max=1e-6)
    with pytest.raises(ContractError):
        DeviceModel(levels=1)
    for levels in (None, 2.5, 16.0, "16", True):  # a level count is an integer
        with pytest.raises(ContractError, match="levels"):
            DeviceModel(levels=levels)
    assert DeviceModel(levels=np.int64(16)).level_scale == 15.0
    with pytest.raises(ContractError):
        DeviceModel(sigma_rel=-0.1)


def test_oversize_tile_rejected():
    with pytest.raises(ContractError):
        program_weights(np.zeros((577, 1)), NOISELESS)


def test_empty_tile_rejected():
    for shape in ((0, 3), (3, 0)):
        with pytest.raises(ContractError):
            program_weights(np.zeros(shape), NOISELESS)


def test_non_finite_weights_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        w = np.zeros((2, 2))
        w[0, 1] = bad
        with pytest.raises(ContractError):
            program_weights(w, NOISELESS)


def two_draw_program(w, model, seed):
    """The two-draw programming formula: separate where/draw/clip per matrix."""
    span = model.g_max - model.g_min
    q = np.rint(np.abs(w) * (model.levels - 1)) / (model.levels - 1)
    g_on = model.g_min + q * span
    g_pos = np.where(w >= 0, g_on, model.g_min)
    g_neg = np.where(w < 0, g_on, model.g_min)
    if model.sigma_rel > 0:
        rng = np.random.default_rng(seed)
        g_pos = g_pos * (1.0 + model.sigma_rel * rng.standard_normal(w.shape))
        g_neg = g_neg * (1.0 + model.sigma_rel * rng.standard_normal(w.shape))
        g_pos = np.clip(g_pos, model.g_min, model.g_max)
        g_neg = np.clip(g_neg, model.g_min, model.g_max)
    return g_pos, g_neg


@pytest.mark.parametrize("levels", [16], ids=["mlc"])
@pytest.mark.parametrize("g_min", [0.5e-6, 0.0])
@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2])
def test_one_buffer_program_equals_two_draw_formula(levels, g_min, sigma):
    model = DeviceModel(g_min=g_min, g_max=20e-6, levels=levels, sigma_rel=sigma)
    rng = np.random.default_rng(17)
    # (300, 200) is programmed in 81-row blocks with a ragged 57-row tail
    for shape in [(1, 1), (2, 3), (37, 5), (300, 200), (576, 256)]:
        w = rng.uniform(-1, 1, shape)
        w.flat[:4] = [0.0, -0.0, 1.0, -1.0][: w.size]
        pair = program_weights(w, model, seed=9)
        want_pos, want_neg = two_draw_program(w, model, seed=9)
        np.testing.assert_array_equal(int_bits(pair.g_pos), int_bits(want_pos))
        np.testing.assert_array_equal(int_bits(pair.g_neg), int_bits(want_neg))
        for g in (pair.g_pos, pair.g_neg):
            assert g.flags.c_contiguous and not g.flags.writeable


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_program_peak_memory(sigma):
    # the noisy path works through one block-sized scratch array; the
    # noiseless one through one tile-sized level array
    w = np.random.default_rng(3).uniform(-1, 1, (576, 256))
    buffer = 2 * w.nbytes
    tracemalloc.start()
    try:
        program_weights(w, DeviceModel(sigma_rel=sigma), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    allowed = buffer + 4 * _BLOCK * 8 if sigma else 1.5 * buffer + 4 * _BLOCK * 8
    assert buffer <= peak < allowed


def exact_half_level_ties(levels):
    """Weights w in [-1, 1] with w * (levels - 1) == k + 0.5 exactly."""
    steps = levels - 1
    found = []
    for k in range(-steps, steps):
        w = (k + 0.5) / steps
        found += [x for x in (np.nextafter(w, -2.0), w, np.nextafter(w, 2.0))
                  if x * steps == k + 0.5]
    return np.array(found)


EXTREMES = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, -5e-324]


def int_bits(a):
    """The int64 bit patterns of a float64 array."""
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("levels", [2, 3, 5, 16])
@pytest.mark.parametrize("g_min", [0.5e-6, 0.0])
@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_program_bits_equal_two_draw_formula_at_ties_and_extremes(levels, g_min, sigma):
    model = DeviceModel(g_min=g_min, g_max=20e-6, levels=levels, sigma_rel=sigma)
    ties = exact_half_level_ties(levels)
    assert (ties > 0).any() and (ties < 0).any()
    w = np.concatenate([EXTREMES, ties])
    for tile in (w[:, None], np.tile(w, (3, 1))):
        pair = program_weights(tile, model, seed=5)
        want_pos, want_neg = two_draw_program(tile, model, seed=5)
        np.testing.assert_array_equal(int_bits(pair.g_pos), int_bits(want_pos))
        np.testing.assert_array_equal(int_bits(pair.g_neg), int_bits(want_neg))


@pytest.mark.parametrize("levels", [2, 3, 5, 16])
def test_weight_levels_is_the_signed_magnitude_formula(levels):
    # rint(w * (levels-1)) equals sign(w) * rint(|w| * (levels-1)) in value,
    # and bit for bit except for the sign of the zero at w = -0.0
    rng = np.random.default_rng(levels)
    w = np.concatenate([EXTREMES, exact_half_level_ties(levels), rng.uniform(-1, 1, 500)])
    model = DeviceModel(levels=levels)
    got = weight_levels(w, model)
    want = np.sign(w) * np.rint(np.abs(w) * (levels - 1))
    np.testing.assert_array_equal(got, want)
    neg_zero = (w == 0) & np.signbit(w)
    np.testing.assert_array_equal(int_bits(got[~neg_zero]), int_bits(want[~neg_zero]))
    assert np.signbit(got[neg_zero]).all() and not np.signbit(want[neg_zero]).any()


def test_weight_levels_returns_a_fresh_array():
    w = np.array([[0.25, -0.5]])
    lv = weight_levels(w, NOISELESS)
    assert not np.shares_memory(lv, w)
    lv *= 2.0
    np.testing.assert_array_equal(w, [[0.25, -0.5]])


def where_form_currents(bits, signs, weights, config):
    """The sign split as ``np.where(signs, volts, 0.0)``, matmuls as in the macro."""
    volts = dac_convert_bits(bits, config.fmt)
    v_rev = np.where(signs, volts, 0.0)
    volts -= v_rev
    i_pos = volts.T @ weights.g_pos
    i_pos += v_rev.T @ weights.g_neg
    i_neg = volts.T @ weights.g_neg
    i_neg += v_rev.T @ weights.g_pos
    return i_pos, i_neg


@pytest.mark.parametrize("case", ["random", "all_set", "none_set", "zero_codes_set"])
def test_sign_split_by_product_equals_where_form(case):
    rng = np.random.default_rng(11)
    cfg = MacroConfig()
    pair = program_weights(rng.uniform(-1, 1, (144, 32)), cfg.device)
    codes = rng.integers(0, 128, (144, 40))
    signs = rng.random((144, 40)) < 0.5
    if case == "all_set":
        signs[:] = True
    elif case == "none_set":
        signs[:] = False
    elif case == "zero_codes_set":
        codes[::3] = 0
        signs[::3] = True
    got = _column_currents(codes, signs, pair, cfg)
    want = where_form_currents(codes, signs, pair, cfg)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(int_bits(g), int_bits(w))


def test_out_of_range_weight_messages():
    with pytest.raises(ContractError, match="finite"):
        program_weights(np.array([[0.5, np.nan]]), NOISELESS)
    with pytest.raises(ContractError, match="finite"):
        program_weights(np.array([[-np.inf]]), NOISELESS)
    with pytest.raises(ContractError, match="pre-scaled"):
        program_weights(np.array([[-1.0 - 1e-12]]), NOISELESS)


def test_nan_conductances_rejected():
    ok = np.full((2, 2), 1e-6)
    with pytest.raises(ContractError):
        ConductancePair(np.full((2, 2), math.nan), ok)
    with pytest.raises(ContractError):
        ConductancePair(ok, np.where(np.eye(2, dtype=bool), math.nan, 1e-6))
    with pytest.raises(ContractError):
        ConductancePair(ok, -ok)
