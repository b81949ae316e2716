import numpy as np
import pytest

from fpcim.cimmacro import MacroConfig
from fpcim.errors import ContractError
from fpcim.fpcodec import E3M4
from fpcim.perfmodel import (
    DEFAULT_PARAMS,
    BlockPowers,
    EnergyParams,
    adc_comparison,
    efficiency,
    throughput,
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


def test_throughput_from_config():
    cfg = MacroConfig()  # 576x256 at 200 ns
    assert throughput(cfg) / 1e9 == pytest.approx(1474.56, rel=1e-5)


def test_efficiency_reproduces_design_points():
    e2 = efficiency(MacroConfig(), DEFAULT_PARAMS)
    assert float(f"{e2 / 1e12:.3g}") == 19.9 or round(e2 / 1e12, 2) == 19.89
    assert round(e2 / 1e12, 2) == 19.89
    e3 = efficiency(MacroConfig.for_format(E3M4), DEFAULT_PARAMS)
    assert round(e3 / 1e12, 2) == 14.12


def test_calibrated_total_powers():
    assert DEFAULT_PARAMS.total("E2M5") * 1e3 == pytest.approx(74.136, abs=0.01)
    assert DEFAULT_PARAMS.total("E3M4") * 1e3 == pytest.approx(139.241, abs=0.01)
    # E2M5 total is the published fraction of the INT8 macro
    ratio = DEFAULT_PARAMS.total("E2M5") / DEFAULT_PARAMS.total("INT8")
    assert ratio == pytest.approx(0.535, abs=1e-12)


def test_doubling_power_halves_efficiency():
    doubled = EnergyParams(
        {
            k: BlockPowers(b.dac * 2, b.array * 2, b.adc * 2, b.digital * 2)
            for k, b in DEFAULT_PARAMS.blocks.items()
        }
    )
    cfg = MacroConfig()
    assert efficiency(cfg, doubled) == pytest.approx(
        efficiency(cfg, DEFAULT_PARAMS) / 2, rel=1e-12
    )


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


def test_ratios_scale_invariant():
    scaled = EnergyParams(
        {
            k: BlockPowers(b.dac * 3, b.array * 3, b.adc * 3, b.digital * 3)
            for k, b in DEFAULT_PARAMS.blocks.items()
        }
    )
    base = total_comparison(DEFAULT_PARAMS)
    up = total_comparison(scaled)
    for a, b in zip(base, up):
        assert b.total_power / a.total_power == pytest.approx(3.0, rel=1e-12)
    r0 = base[0].total_power / base[2].total_power
    r1 = up[0].total_power / up[2].total_power
    assert r0 == pytest.approx(r1, rel=1e-12)
    cmp_a, cmp_b = adc_comparison(DEFAULT_PARAMS), adc_comparison(scaled)
    assert cmp_a["adc_power_ratio"] == pytest.approx(cmp_b["adc_power_ratio"], rel=1e-12)


def test_zero_power_rejected():
    with pytest.raises(ContractError):
        BlockPowers(-1.0, 0, 0, 0)
    zero = EnergyParams({"E2M5": BlockPowers(0, 0, 0, 0)})
    with pytest.raises(ContractError):
        efficiency(MacroConfig(), zero)
