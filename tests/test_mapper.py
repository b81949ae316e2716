import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcim.cimmacro import MacroConfig
from fpcim.errors import ContractError
from fpcim.fpcodec import E2M5, decode_bits
from fpcim.mapper import (
    LayerSpec,
    MacroBank,
    conv_output_shape,
    execute_plan,
    im2col,
    map_conv,
    map_fc,
    map_matrix,
)
from fpcim.xbar import MAX_ROWS, DeviceModel, weight_levels


def ideal_device():
    return DeviceModel(g_min=0.0, g_max=20e-6, levels=16, sigma_rel=0.0)


def direct_conv(x, w, stride=1, padding=0):
    """Brute-force convolution oracle, plain loops."""
    c2, c1, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h, wd = x.shape[1:]
    oh = (h - k) // stride + 1
    ow = (wd - k) // stride + 1
    out = np.zeros((c2, oh, ow))
    for co in range(c2):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(c1):
                    for ki in range(k):
                        for kj in range(k):
                            acc += w[co, ci, ki, kj] * x[ci, i * stride + ki, j * stride + kj]
                out[co, i, j] = acc
    return out


# ---------------------------------------------------------------- tiling

def row_split_ids(plan):
    """Tile ids of every column block split over more than one row block."""
    return [[t.id for t in b] for b in plan.col_blocks() if len(b) > 1]


def test_map_conv_single_tile_fills_array():
    plan = map_conv(LayerSpec.conv(64, 3, 128))
    assert (plan.rows, plan.cols) == (576, 128)
    assert len(plan.tiles) == 1
    assert row_split_ids(plan) == []


def test_map_conv_row_split():
    plan = map_conv(LayerSpec.conv(128, 3, 128))
    assert plan.rows == 1152
    assert len(plan.tiles) == 2
    assert row_split_ids(plan) == [[0, 1]]


def test_map_conv_small():
    plan = map_conv(LayerSpec.conv(3, 3, 16))
    assert (plan.rows, plan.cols) == (27, 16)
    assert len(plan.tiles) == 1


def test_map_fc_mirrors_conv():
    assert len(map_fc(LayerSpec.fc(576, 128)).tiles) == 1
    plan = map_fc(LayerSpec.fc(1152, 128))
    assert len(plan.tiles) == 2 and row_split_ids(plan) == [[0, 1]]
    assert len(map_fc(LayerSpec.fc(27, 16)).tiles) == 1


def test_map_column_split():
    plan = map_matrix(100, 600)
    assert len(plan.tiles) == 3  # ceil(600/256)
    assert row_split_ids(plan) == []
    spans = sorted((t.col_start, t.col_stop) for t in plan.tiles)
    assert spans == [(0, 256), (256, 512), (512, 600)]


@settings(max_examples=60, derandomize=True)
@given(st.integers(1, 1500), st.integers(1, 700))
def test_tiles_cover_matrix_exactly_once(rows, cols):
    plan = map_matrix(rows, cols)
    cover = np.zeros((rows, cols), dtype=int)
    for t in plan.tiles:
        assert t.rows <= 576 and t.cols <= 256
        cover[t.row_start : t.row_stop, t.col_start : t.col_stop] += 1
    assert np.all(cover == 1)
    # every row-split tile belongs to exactly one partial-sum group
    grouped = [tid for g in row_split_ids(plan) for tid in g]
    assert len(grouped) == len(set(grouped))
    n_row_blocks = int(np.ceil(rows / 576))
    if n_row_blocks > 1:
        assert len(grouped) == len(plan.tiles)


# ---------------------------------------------------------------- im2col

def test_im2col_1x1_identity():
    layer = LayerSpec.conv(3, 1, 5)
    x = np.arange(3 * 4 * 4, dtype=float).reshape(3, 4, 4)
    cols = im2col(x, layer)
    assert cols.shape == (3, 16)
    np.testing.assert_array_equal(cols, x.reshape(3, -1))


def test_im2col_3x3_no_pad():
    layer = LayerSpec.conv(1, 3, 1)
    x = np.arange(16, dtype=float).reshape(1, 4, 4)
    cols = im2col(x, layer)
    assert cols.shape == (9, 4)
    np.testing.assert_array_equal(cols[:, 0], x[0, :3, :3].reshape(-1))


def test_im2col_matmul_equals_direct_conv():
    rng = np.random.default_rng(12)
    for stride, padding in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        layer = LayerSpec.conv(3, 3, 4, stride=stride, padding=padding)
        x = rng.standard_normal((3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        w_mat = w.reshape(4, -1).T  # rows ordered (c, ki, kj)
        cols = im2col(x, layer)
        oh, ow = conv_output_shape(layer, 7, 7)
        got = (cols.T @ w_mat).T.reshape(4, oh, ow)
        np.testing.assert_allclose(
            got, direct_conv(x, w, stride, padding), rtol=1e-10, atol=1e-12
        )


def test_im2col_batch_stride_pad_equals_index_formula():
    rng = np.random.default_rng(12)
    n, c, h, w, k, s, p = 3, 2, 7, 6, 3, 2, 1
    layer = LayerSpec.conv(c, k, 4, stride=s, padding=p)
    x = rng.standard_normal((n, c, h, w))
    oh, ow = conv_output_shape(layer, h, w)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    want = np.empty((c * k * k, n * oh * ow))
    for ci, ki, kj, b, i, j in np.ndindex(c, k, k, n, oh, ow):
        want[(ci * k + ki) * k + kj, (b * oh + i) * ow + j] = xp[b, ci, s * i + ki, s * j + kj]
    np.testing.assert_array_equal(im2col(x, layer), want)


def test_im2col_channel_mismatch():
    with pytest.raises(ContractError):
        im2col(np.zeros((2, 4, 4)), LayerSpec.conv(3, 3, 1))


def test_conv_output_shape_contract():
    with pytest.raises(ContractError):
        conv_output_shape(LayerSpec.conv(1, 9, 1), 4, 4)


# ---------------------------------------------------------------- execution

def test_single_tile_plan_equals_macro_mac():
    from fpcim.cimmacro import macro_mac
    from fpcim.xbar import program_weights

    rng = np.random.default_rng(21)
    cfg = MacroConfig(device=ideal_device())
    w = rng.uniform(-1, 1, (8, 4))
    plan = map_matrix(8, 4)
    bank = MacroBank.build(plan, w, cfg, weight_scale=1.0)
    bits = rng.integers(0, 128, 8).astype(np.uint8)

    res = execute_plan(plan, bits, bank)
    direct = macro_mac(bits, program_weights(w, cfg.device, seed=0), cfg)
    np.testing.assert_allclose(
        res.values, direct.digital_values / cfg.device.level_scale, rtol=1e-12
    )


def test_row_split_identity_readout_is_lossless():
    rng = np.random.default_rng(22)
    rows, cols = 700, 5  # two row tiles
    cfg = MacroConfig(device=ideal_device())
    w = rng.uniform(-1, 1, (rows, cols))
    plan = map_matrix(rows, cols)
    levels = weight_levels(w, cfg.device)
    # treat the signed levels as the weight matrix; dividing by the level
    # range normalizes them back to [-1, 1] and the group scale cancels
    bank = MacroBank.build(plan, levels, cfg, weight_scale=cfg.device.level_scale)
    bits = rng.integers(0, 128, rows).astype(np.uint8)
    res = execute_plan(plan, bits, bank, readout="identity")
    dense = decode_bits(bits, E2M5) @ levels
    np.testing.assert_array_equal(res.values, dense)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(577, 1300), st.integers(257, 600), st.integers(0, 2**32 - 1))
def test_row_and_column_split_identity_readout_is_lossless(rows, cols, seed):
    # every decoded code times an integer level is a multiple of 2^-5 well
    # inside float64's exact range, so any summation order gives the dense product
    rng = np.random.default_rng(seed)
    cfg = MacroConfig(device=ideal_device())
    levels = rng.integers(-15, 16, (rows, cols)).astype(float)
    plan = map_matrix(rows, cols)
    bank = MacroBank.build(plan, levels, cfg, weight_scale=cfg.device.level_scale)
    bits = rng.integers(0, 128, (rows, 3)).astype(np.uint8)
    signs = rng.random((rows, 3)) < 0.5
    res = execute_plan(plan, bits, bank, signs=signs, readout="identity")
    decoded = decode_bits(bits, E2M5)
    dense = np.where(signs, -decoded, decoded).T @ levels
    np.testing.assert_array_equal(res.values, dense)


@pytest.mark.parametrize("rows", [40, MAX_ROWS + 40])
@pytest.mark.parametrize("readout", ["adc", "int8", "identity"])
def test_blocks_from_first_tile_equal_zeros_plus_add(readout, rows):
    # two column blocks of one tile or two row tiles each, summed from their
    # first tile's result, against the sum from zero; compared bit for bit,
    # so a -0.0 written where the sum from +0.0 gives +0.0 would fail
    from fpcim.adc import V_MID, AdcConfig
    from fpcim.cimmacro import macro_mac
    from fpcim.dac import dac_convert_bits

    rng = np.random.default_rng(29)
    cols, n = 300, 60
    w = rng.uniform(-1, 1, (rows, cols))
    w[:, 7] = np.abs(w[:, 7])  # a column whose products with -0.0 inputs are all -0.0
    bits = rng.integers(0, 128, (rows, n)).astype(np.uint8)
    bits[rng.random((rows, n)) < 0.3] = 0
    bits[:, :3] = 0  # vectors of signed zeros only
    signs = rng.random((rows, n)) < 0.5
    signs[:, :3] = True
    plan = map_matrix(rows, cols)
    assert [len(b) for b in plan.col_blocks()] == [len(plan.tiles) // 2] * 2
    # integration capacitor sized so the largest column current reads 0.9 of full scale
    device = ideal_device()
    volts = dac_convert_bits(bits, E2M5)
    i_max = float(np.max(volts.T @ np.abs(w))) * device.g_max
    base = AdcConfig()
    cfg = MacroConfig(E2M5, AdcConfig(c_int=i_max * base.t_int / (V_MID * 0.9 * 16)), device)
    bank = MacroBank.build(plan, w, cfg)

    res = execute_plan(plan, bits, bank, signs=signs, readout=readout)
    for block in plan.col_blocks():
        lo, hi = block[0].col_start, block[0].col_stop
        raw = np.zeros((n, hi - lo))
        under = np.ones((n, hi - lo), dtype=bool)
        sat = np.zeros((n, hi - lo), dtype=bool)
        for t in block:
            rs = slice(t.row_start, t.row_stop)
            one = macro_mac(bits[rs], bank[t.id].pair, cfg, signs=signs[rs], readout=readout)
            raw += one.digital_values
            under &= one.underflow
            sat |= one.saturated
        want = raw * (bank[block[0].id].weight_scale / device.level_scale)
        got = res.values[:, lo:hi]
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(res.underflow[:, lo:hi], under)
        np.testing.assert_array_equal(res.saturated[:, lo:hi], sat)
    assert not res.saturated.all() and not res.underflow.all()
    assert np.any(res.values == 0.0)


def test_execute_plan_batched():
    rng = np.random.default_rng(23)
    cfg = MacroConfig(device=ideal_device())
    w = rng.uniform(-1, 1, (10, 3))
    plan = map_matrix(10, 3)
    bank = MacroBank.build(plan, w, cfg)
    batch = rng.integers(0, 128, (10, 6)).astype(np.uint8)
    res = execute_plan(plan, batch, bank, readout="identity")
    assert res.values.shape == (6, 3)
    for k in range(6):
        one = execute_plan(plan, batch[:, k], bank, readout="identity")
        np.testing.assert_array_equal(res.values[k], one.values)


def test_missing_macro_raises():
    cfg = MacroConfig(device=ideal_device())
    plan = map_matrix(4, 2)
    bank = MacroBank(plan, cfg)  # nothing programmed
    with pytest.raises(ContractError):
        execute_plan(plan, np.zeros(4, dtype=np.uint8), bank)


def test_bank_built_for_another_plan_rejected():
    cfg = MacroConfig(device=ideal_device())
    bank = MacroBank.build(map_matrix(4, 1), np.ones((4, 1)), cfg)
    bits = np.ones((4, 3), dtype=np.uint8)
    # one tile of the same id but 5 columns: column 0 used to fill all five
    with pytest.raises(ContractError, match="another plan"):
        execute_plan(map_matrix(4, 5), bits, bank)
    # an equal plan that is another object is accepted
    res = execute_plan(map_matrix(4, 1), bits, bank, readout="identity")
    assert res.values.shape == (3, 1)


def test_weight_scale_normalizes_block():
    cfg = MacroConfig(device=ideal_device())
    plan = map_matrix(4, 2)
    w = np.array([[2.0, -4.0]] * 4)
    bank = MacroBank.build(plan, w, cfg)  # per-column-block max-abs
    assert bank[0].weight_scale == 4.0


@pytest.mark.parametrize("case", ["negative_peak", "all_negative_zero", "row_split"])
def test_block_scale_is_max_abs_without_a_copy(case):
    cfg = MacroConfig(device=ideal_device())
    rng = np.random.default_rng(8)
    rows = 2 * MAX_ROWS + 9 if case == "row_split" else 6
    w = rng.uniform(-0.5, 0.5, (rows, 300))
    if case == "negative_peak":
        w[3, 1] = -0.9  # the largest magnitude in block 0 is negative
        w[4, 280] = -0.7
    elif case == "all_negative_zero":
        w[:, :256] = -0.0  # block 0 reads the all-zero scale
    else:
        w[-1, 290] = -0.8  # the peak of block 1 is in its last row tile
    plan = map_matrix(*w.shape)
    bank = MacroBank.build(plan, w, cfg)
    for block in plan.col_blocks():
        lo, hi = block[0].col_start, block[0].col_stop
        want = float(np.max(np.abs(w[:, lo:hi]), initial=0.0)) or 1.0
        for t in block:
            assert bank[t.id].weight_scale == want
    if case == "all_negative_zero":
        assert bank[0].weight_scale == 1.0
    elif case == "negative_peak":
        assert (bank[0].weight_scale, bank[1].weight_scale) == (0.9, 0.7)
    else:
        assert len(plan.col_blocks()[1]) == 3 and bank[5].weight_scale == 0.8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_rejects_non_finite_weights(bad):
    cfg = MacroConfig(device=ideal_device())
    w = np.full((MAX_ROWS + 4, 3), -0.25)
    w[MAX_ROWS + 1, 2] = bad
    with pytest.raises(ContractError):
        MacroBank.build(map_matrix(*w.shape), w, cfg)


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
def test_build_rejects_bad_weight_scale(scale):
    cfg = MacroConfig(device=ideal_device())
    plan = map_matrix(4, 2)
    with pytest.raises(ContractError, match="weight_scale"):
        MacroBank.build(plan, np.ones((4, 2)), cfg, weight_scale=scale)


def test_layer_spec_validation():
    with pytest.raises(ContractError):
        LayerSpec.conv(0, 3, 4)
    with pytest.raises(ContractError):
        LayerSpec.fc(0, 4)
    with pytest.raises(ContractError):
        LayerSpec("pool")
    with pytest.raises(ContractError):
        map_conv(LayerSpec.fc(4, 4))


def test_execute_plan_accepts_array_like_signs():
    cfg = MacroConfig(device=ideal_device())
    plan = map_matrix(4, 2)
    bank = MacroBank.build(plan, np.ones((4, 2)), cfg)
    bits = np.full(4, 0b0100000, dtype=np.uint8)  # 2.0 each
    signs = [False, True, False, True]
    res = execute_plan(plan, bits, bank, signs=signs, readout="identity")
    np.testing.assert_array_equal(res.values, [0.0, 0.0])
    ref = execute_plan(plan, bits, bank, signs=np.array(signs), readout="identity")
    np.testing.assert_array_equal(res.values, ref.values)


def test_signs_shape_must_match_codes():
    from fpcim.cimmacro import macro_mac

    cfg = MacroConfig(device=ideal_device())
    plan = map_matrix(4, 2)
    bank = MacroBank.build(plan, np.ones((4, 2)), cfg)
    bits = np.zeros((4, 3), dtype=np.uint8)
    signs = np.zeros(4, dtype=bool)  # one sign per row, not per code
    with pytest.raises(ContractError):
        execute_plan(plan, bits, bank, signs=signs)
    with pytest.raises(ContractError):
        macro_mac(bits, bank[0].pair, bank.config, signs=signs)
    # a (4, 2, 2) batch used to run as 4 flattened vectors
    for bad in (np.uint8(3), np.zeros((4, 2, 2), dtype=np.uint8)):
        with pytest.raises(ContractError):
            execute_plan(plan, bad, bank)
