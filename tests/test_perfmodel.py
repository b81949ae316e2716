import math

import pytest

from fpcim.errors import ContractError
from fpcim.perfmodel import (
    DEFAULT_PARAMS,
    BlockPowers,
    EnergyParams,
    adc_comparison,
    throughput_from,
    total_comparison,
)


def test_throughput_e2m5_design_point():
    tp = throughput_from(576, 256, 200e-9)
    assert tp / 1e9 == pytest.approx(1474.56, rel=1e-5)  # 5 significant figures
    assert tp == pytest.approx(2 * 576 * 256 / 200e-9, rel=1e-15)


def test_throughput_e3m4_design_point():
    assert throughput_from(576, 256, 150e-9) / 1e9 == pytest.approx(1966.08, rel=1e-5)


def test_throughput_halves_with_columns():
    assert throughput_from(576, 128, 200e-9) == pytest.approx(
        throughput_from(576, 256, 200e-9) / 2, rel=1e-15
    )


def test_efficiency_reproduces_design_points():
    rows = {r.format: r for r in total_comparison()}
    assert round(rows["E2M5"].efficiency / 1e12, 2) == 19.89
    assert round(rows["E3M4"].efficiency / 1e12, 2) == 14.12


def test_calibrated_total_powers():
    assert DEFAULT_PARAMS.total("E2M5") * 1e3 == pytest.approx(74.136, abs=0.01)
    assert DEFAULT_PARAMS.total("E3M4") * 1e3 == pytest.approx(139.241, abs=0.01)
    # E2M5 total is the published fraction of the INT8 macro
    ratio = DEFAULT_PARAMS.total("E2M5") / DEFAULT_PARAMS.total("INT8")
    assert ratio == pytest.approx(0.535, abs=1e-12)


def test_efficiency_power_identity():
    for r in total_comparison():
        assert r.efficiency * r.total_power == pytest.approx(r.throughput, rel=1e-12)


def test_adc_comparison_ratios():
    cmp = adc_comparison()
    assert cmp["time_ratio"] == 2.5
    assert cmp["int8_ramp_factor"] == 4
    assert cmp["fp_conversion_ns"] == 200 and cmp["int8_conversion_ns"] == 500
    assert cmp["adc_power_reduction"] == pytest.approx(0.564, abs=1e-12)


def test_total_comparison_rows_and_ranking():
    rows = total_comparison()
    assert [r.format for r in rows] == ["E2M5", "E3M4", "INT8"]
    assert rows[0].throughput == pytest.approx(1474.56e9, rel=1e-12)
    assert rows[0].efficiency == pytest.approx(19.89e12, rel=1e-12)
    eff = {r.format: r.efficiency for r in rows}
    assert eff["E2M5"] > eff["E3M4"] > eff["INT8"]
    for r in rows:
        assert r.blocks.total == pytest.approx(r.total_power, rel=1e-15)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf, None, "1", True])
@pytest.mark.parametrize("block", ["dac", "array", "adc", "digital"])
def test_block_power_must_be_finite_and_non_negative(block, bad):
    powers = dict(dac=0.0, array=0.0, adc=0.0, digital=0.0)
    assert BlockPowers(**powers).total == 0.0
    with pytest.raises(ContractError, match=f"{block} power"):
        BlockPowers(**{**powers, block: bad})


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, None, "2e-7", True], ids=repr)
def test_throughput_needs_finite_positive_latency(bad):
    with pytest.raises(ContractError, match="latency"):
        throughput_from(576, 256, bad)


@pytest.mark.parametrize("bad", [None, [], {"E2M5": None}], ids=repr)
def test_energy_params_need_a_dict_of_block_powers(bad):
    with pytest.raises(ContractError, match="blocks must be|BlockPowers"):
        EnergyParams(bad)


def test_total_power_of_unknown_format_names_it():
    with pytest.raises(ContractError, match="E9M9"):
        DEFAULT_PARAMS.total("E9M9")
