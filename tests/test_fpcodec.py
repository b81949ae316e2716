import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcim import fpcodec
from fpcim.dac import dac_convert_bits
from fpcim.errors import ContractError
from fpcim.fpcodec import (
    E2M5,
    E3M4,
    all_values,
    decode,
    decode_bits,
    quantize_tensor,
)

FORMATS = [E2M5, E3M4]


def enumerate_table(fmt):
    """Independent oracle: decoded value of every bit pattern, first principles."""
    table = []
    for bits in range(128):
        e = bits >> fmt.mantissa_bits
        m = bits & (fmt.mant_levels - 1)
        table.append(0.0 if bits == 0 else (1 + m / fmt.mant_levels) * 2**e)
    return np.array(table)


def nearest_oracle(x, fmt):
    """Brute force over all 128 decodable values."""
    table = enumerate_table(fmt)
    return int(np.argmin(np.abs(table - x)))


def encode(values, fmt):
    """Codes of non-negative values through the one encoder, at scale 1."""
    return quantize_tensor(np.asarray(values, dtype=float), fmt, scale=1.0).codes


# ---------------------------------------------------------------- decode

def test_decode_known_pattern():
    # exponent 2, mantissa 30 in E2M5; exponent 5, mantissa 14 in E3M4
    assert decode(0b1011110, E2M5) == 7.75
    assert decode(0b1011110, E3M4) == 60.0


def test_decode_zero_code():
    for fmt in FORMATS:
        assert decode(0, fmt) == 0.0


def test_decode_top_code():
    assert decode(0b1111111, E2M5) == 15.75
    assert decode(0b1111111, E3M4) == 248.0


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_decode_matches_enumeration(fmt):
    got = decode_bits(np.arange(128), fmt)
    np.testing.assert_array_equal(got, enumerate_table(fmt))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_all_128_codes_distinct_and_increasing(fmt):
    vals = all_values(fmt)
    assert len(vals) == 128
    nonzero = vals[1:]
    assert len(np.unique(nonzero)) == 127
    # code-bit order == (exponent, mantissa) order == value order
    assert np.all(np.diff(nonzero) > 0)


@pytest.mark.parametrize("decoder", [
    lambda b: decode_bits(b, E2M5),
    lambda b: dac_convert_bits(b, E2M5),
], ids=["decode_bits", "dac_convert_bits"])
def test_non_integer_codes_rejected(decoder):
    # float codes must not be truncated to the integer below them
    with pytest.raises(ContractError):
        decoder(np.array([3.7, 33.9]))
    with pytest.raises(ContractError):
        decoder(np.array([3.0, 33.0]))


BLOCK_SIZES = [0, 1, fpcodec._BLOCK - 1, fpcodec._BLOCK, fpcodec._BLOCK + 1,
               3 * fpcodec._BLOCK + 5]


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64])
def test_decode_bits_blocks_match_table_index(fmt, dtype):
    rng = np.random.default_rng(7)
    table = all_values(fmt)
    for size in BLOCK_SIZES:
        b = rng.integers(0, 128, size).astype(dtype)
        got = decode_bits(b, fmt)
        assert got.dtype == np.float64 and got.shape == b.shape
        np.testing.assert_array_equal(got, table[b])
    scalar = np.array(93, dtype=dtype)
    assert decode_bits(scalar, fmt).shape == ()
    assert decode_bits(scalar, fmt) == table[93]
    # a non-contiguous 2-D view spanning several blocks
    grid = rng.integers(0, 128, (400, 401)).astype(dtype)
    view = grid[::2, 1::2]
    assert not view.flags.c_contiguous and view.size > 2 * fpcodec._BLOCK
    np.testing.assert_array_equal(decode_bits(view, fmt), table[view])


def test_decode_bits_peak_memory_stays_near_its_output():
    # a whole-batch take on uint8 codes first copies them to intp (8 bytes
    # a code): a peak of 2x the float64 output on a 144x1024 cnn tile
    b = np.random.default_rng(3).integers(0, 128, (144, 1024)).astype(np.uint8)
    decode_bits(b, E2M5)  # builds the cached table outside the traced call
    tracemalloc.start()
    try:
        out = decode_bits(b, E2M5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * out.nbytes


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_decode_bits_into_out(fmt):
    # the values of a fresh decode, written into the given array, which is returned
    b = np.random.default_rng(5).integers(0, 128, (40, 700)).astype(np.uint8)
    out = np.full(b.shape, np.nan)
    got = decode_bits(b, fmt, out=out)
    assert got is out
    np.testing.assert_array_equal(out, decode_bits(b, fmt))
    volts = np.full(b.shape, np.nan)
    assert dac_convert_bits(b, fmt, out=volts) is volts
    np.testing.assert_array_equal(volts, dac_convert_bits(b, fmt))


@pytest.mark.parametrize("bad", [
    np.empty((3, 4), dtype=np.float32),
    np.empty((4, 3)),
    np.empty((3, 8))[:, ::2],
    np.empty(12),
    [[0.0] * 4] * 3,
], ids=["float32", "shape", "strided", "flat", "list"])
def test_decode_bits_rejects_an_unfit_out(bad):
    # a strided out would be written through a reshaped copy and lose the values
    with pytest.raises(ContractError, match="out must be"):
        decode_bits(np.zeros((3, 4), dtype=np.uint8), E2M5, out=bad)
    with pytest.raises(ContractError, match="out must be"):
        dac_convert_bits(np.zeros((3, 4), dtype=np.uint8), E2M5, out=bad)


def test_all_values_table_is_read_only():
    with pytest.raises(ValueError):
        all_values(E2M5)[1] = 0.0


# ---------------------------------------------------------------- encode

@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_round_trip_exhaustive(fmt):
    bits = encode([decode(b, fmt) for b in range(128)], fmt)
    assert bits.tolist() == list(range(128))


def test_encode_exact_value():
    assert encode([7.75], E2M5).tolist() == [0b1011110]


def test_encode_adc_scenario_value():
    # 5.111 is the analytic converter input of the transient scenario;
    # nearest representable is 5.125 = (1 + 9/32) * 4.
    assert nearest_oracle(5.111, E2M5) == (2 << 5) | 9
    bits = encode([5.111], E2M5)
    assert bits.tolist() == [(2 << 5) | 9]
    assert decode(bits[0], E2M5) == 5.125


def test_encode_overflow_clamps():
    assert encode([16.2], E2M5).tolist() == [0b1111111]


def test_encode_small_values_flush_to_zero():
    # above the zero/min-code midpoint (0.515625) the nearest code is non-zero
    assert encode([1e-6, 0.1, 0.499, 0.6], E2M5).tolist() == [0, 0, 0, 1]


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_exact_midpoints_round_to_even_mantissa(fmt):
    # a tie between adjacent codes goes to the one with the even mantissa
    # (the code's low bit); at a binade edge that is the carry into the
    # next exponent with mantissa 0, and the 0 / min_nonzero tie keeps 0
    vals = all_values(fmt)
    mids = (vals[:-1] + vals[1:]) / 2  # exact in float64
    bits = encode(mids, fmt)
    lower = np.arange(127)
    np.testing.assert_array_equal(bits, np.where(lower % 2 == 0, lower, lower + 1))
    edges = [(e << fmt.mantissa_bits) - 1 for e in range(1, fmt.exp_max + 1)]
    for b in edges:
        assert bits[b] == b + 1 and (bits[b] & (fmt.mant_levels - 1)) == 0


def test_encode_tie_goes_to_even_mantissa():
    # 1 + 1.5/32 lies halfway between mantissas 1 and 2, 1 + 2.5/32 between 2 and 3
    assert encode([1 + 1.5 / 32, 1 + 2.5 / 32], E2M5).tolist() == [2, 2]


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_encode_matches_bruteforce_on_grid(fmt):
    xs = np.linspace(0.0, fmt.max_value * 1.05, 4001)
    bits = encode(xs, fmt)
    table = enumerate_table(fmt)
    for x, b in zip(xs, bits):
        want = table[nearest_oracle(x, fmt)]
        got = table[b]
        # equal distance to the oracle's pick (ties allowed either way)
        assert abs(x - got) <= abs(x - want) + 1e-15


def test_encode_monotone_on_grid():
    xs = np.linspace(0.0, 17.0, 100_000)
    vals = decode_bits(encode(xs, E2M5), E2M5)
    assert np.all(np.diff(vals) >= 0)


def test_relative_error_half_ulp():
    # over the decodable range: the zero code sacrifices 1.0, so the
    # half-ULP bound starts at the smallest non-zero code value
    xs = np.linspace(E2M5.min_nonzero, 15.96875, 100_000)
    vals = decode_bits(encode(xs, E2M5), E2M5)
    rel = np.abs(xs - vals) / xs
    assert np.max(rel) <= 2.0**-6 + 1e-15


def test_sacrificed_unit_value():
    # 1.0 itself is not representable: nearest code is 1 + 2^-5, one full
    # mantissa step away (the price of the reserved zero code)
    bits = encode([1.0], E2M5)
    assert decode(bits[0], E2M5) == 1.03125
    assert abs(1.0 - decode(bits[0], E2M5)) == 0.03125


@settings(max_examples=200, derandomize=True)
@given(st.integers(0, 127), st.sampled_from(FORMATS))
def test_round_trip_property(bits, fmt):
    assert encode([decode(bits, fmt)], fmt).tolist() == [bits]


@settings(max_examples=200, derandomize=True)
@given(st.floats(0, 20), st.floats(0, 20))
def test_encode_monotone_property(a, b):
    lo, hi = decode_bits(encode(sorted((a, b)), E2M5), E2M5)
    assert lo <= hi


def zero_slot_reference(x, fmt):
    """Round-to-nearest codes and flags with the zero slot judged as before
    the one-pass rule: clamp at code 0, then move each value on the zero
    code to code 1 where ``min_nonzero - x < x``."""
    d = 52 - fmt.mantissa_bits
    u = np.minimum(x, fmt.max_value).view(np.int64)
    u = ((u + ((u >> d) & 1) + (1 << (d - 1)) - 1) >> d) - (1023 << fmt.mantissa_bits)
    bits = np.maximum(u, 0).astype(np.uint8)
    bits[(bits == 0) & (fmt.min_nonzero - x < x)] = 1
    return bits, (bits == 0) & (x > 0), x > fmt.max_value


def ulp_neighbours(points, k):
    """Each point and its k nearest float64 neighbours on both sides."""
    out = [np.asarray(points, dtype=float)]
    for direction in (-np.inf, np.inf):
        p = out[0]
        for _ in range(k):
            p = np.nextafter(p, direction)
            out.append(p)
    return np.concatenate(out)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_codes_only_encoder_matches_zero_slot_formula(fmt):
    table = all_values(fmt)
    midpoints = (table[:-1] + table[1:]) / 2  # exact: one more bit than the codes
    assert midpoints[0] == fmt.min_nonzero / 2
    x = np.concatenate([
        [0.0, 1.0],
        ulp_neighbours([fmt.min_nonzero / 2], 2),
        ulp_neighbours([1.0 + 2.0 ** -(fmt.mantissa_bits + 1)], 1),
        ulp_neighbours(midpoints, 1),
        ulp_neighbours(table, 1),
        [fmt.max_value * 2, 1e300],
    ])
    x = x[x >= 0]  # drops the one float below 0
    want_bits, _, _ = zero_slot_reference(x, fmt)
    np.testing.assert_array_equal(fpcodec._encode_codes(x, fmt), want_bits)
    np.testing.assert_array_equal(encode(x, fmt), want_bits)
    # the midpoint of 0 and min_nonzero ties to 0, one ulp above it is code 1
    half = fmt.min_nonzero / 2
    assert fpcodec._encode_codes(np.array([half, np.nextafter(half, 2.0)]), fmt).tolist() == [0, 1]


# ---------------------------------------------------------------- tensors

def test_quantize_forced_scale():
    q = quantize_tensor(np.array([0.0, 7.75, 15.75]), E2M5, scale=1.0)
    assert [format(b, "07b") for b in q.codes] == ["0000000", "1011110", "1111111"]


def test_quantize_max_abs_scale():
    q = quantize_tensor(np.array([31.5]), E2M5)
    assert q.scale == 0.5
    assert q.codes[0] == 0b1111111


def test_quantize_all_zero_tensor():
    q = quantize_tensor(np.zeros(5), E2M5)
    assert q.scale == 1.0
    assert np.all(q.codes == 0)


def test_quantize_empty_rejected():
    with pytest.raises(ContractError):
        quantize_tensor(np.array([]), E2M5)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_quantize_blocks_match_whole_tensor_encode(fmt):
    # several encode blocks plus a ragged tail, in a non-contiguous 2-D view
    rng = np.random.default_rng(11)
    x = rng.laplace(0.0, 2.0, (3 * fpcodec._BLOCK + 1234, 2))[:, 1]
    x[::997] = 0.0
    q = quantize_tensor(x, fmt)
    scale = fmt.max_value / np.max(np.abs(x))
    assert q.scale == scale
    want = fpcodec._encode_codes(np.abs(x) * scale, fmt)  # the whole tensor in one call
    np.testing.assert_array_equal(q.codes, want)
    np.testing.assert_array_equal(q.signs, x < 0)
    grid = x[: x.size - x.size % 7].reshape(-1, 7)
    np.testing.assert_array_equal(quantize_tensor(grid, fmt, scale=scale).codes,
                                  want[: grid.size].reshape(grid.shape))


@pytest.mark.parametrize("values, scale", [
    ([0.5, -2.0, 3.0], -1.0),
    ([0.5, -2.0, 3.0], 0.0),
    ([0.5, -2.0, 3.0], np.nan),
    ([0.5, -2.0, 3.0], np.inf),
    ([0.5, -2.0, 3.0], 1e308),  # finite, but 3 * 1e308 is not
    ([5e-324, 0.0], None),  # the derived scale 15.75 / 5e-324 is inf
    ([0.5, -2.0, 3.0], "1"),
    ([0.5, -2.0, 3.0], True),
])
def test_quantize_bad_scale_names_the_scale(values, scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="scale"):
            quantize_tensor(np.array(values), E2M5, scale=scale)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scale", [None, 1.0])
def test_quantize_non_finite_values_raise_without_warning(bad, scale):
    x = np.array([0.5, -2.0, 3.0, bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="finite values"):
            quantize_tensor(x, E2M5, scale=scale)


def test_dequantize_round_trip_representable():
    x = np.array([0.0, 1.03125, 2.0, -7.75, 15.75])
    q = quantize_tensor(x, E2M5, scale=1.0)
    vals = decode_bits(q.codes, E2M5) / q.scale
    np.testing.assert_array_equal(np.where(q.signs, -vals, vals), x)


def test_quantizer_mse_against_bruteforce_oracle():
    # Brute-force nearest-value quantizer, independent of the codec's encoder.
    rng = np.random.default_rng(42)
    x = rng.laplace(0.0, 1.0, 4096)
    table = enumerate_table(E2M5)
    order = np.argsort(table)
    scale = E2M5.max_value / np.max(np.abs(x))
    xs = np.abs(x) * scale
    pos = np.searchsorted(table[order], xs).clip(1, 127)
    lo, hi = table[order][pos - 1], table[order][np.minimum(pos, 127)]
    oracle_vals = np.where(xs - lo <= hi - xs, lo, hi) / scale * np.sign(x)
    oracle_mse = float(np.mean((x - oracle_vals) ** 2))

    q = quantize_tensor(x, E2M5)
    vals = decode_bits(q.codes, E2M5) / q.scale
    mse = float(np.mean((x - np.where(q.signs, -vals, vals)) ** 2))
    assert mse == pytest.approx(oracle_mse, rel=1e-12)

    # frozen oracle value for this seed: the hardware format's
    # flush-to-zero region dominates on zero-centered data
    assert oracle_mse == pytest.approx(8.0976e-3, rel=1e-3)


# ---------------------------------------------------------------- codes

def test_code_bit_layout():
    # a code is the pattern (e << M) | m: exponent in the high bits of the 7
    assert decode((2 << 5) | 30, E2M5) == (1 + 30 / 32) * 2**2
    assert decode((5 << 4) | 9, E3M4) == (1 + 9 / 16) * 2**5
    for fmt in FORMATS:
        for bits in range(128):
            e, m = bits >> fmt.mantissa_bits, bits & (fmt.mant_levels - 1)
            assert decode(bits, fmt) == (0.0 if bits == 0 else (1 + m / fmt.mant_levels) * 2**e)


def test_code_validation():
    for bits in (0b10111100, 128, -1):
        with pytest.raises(ContractError, match="7-bit"):
            decode(bits, E2M5)
    assert decode(np.int64(0b1011110), E2M5) == 7.75
    assert decode(np.uint8(0b1011110), E2M5) == 7.75


@pytest.mark.parametrize("bits", [1.5, 3.0, np.float64(1.0), "1", None, True, np.bool_(True)],
                         ids=repr)
def test_decode_code_must_be_an_integer(bits):
    with pytest.raises(ContractError, match="7-bit integer"):
        decode(bits, E2M5)
