"""The benchmark in ``bench/`` drives the simulator through its public API.

These tests run each workload's reference pass on one pool item and one
traced batch, so that a rename the benchmark depends on fails here first,
and check the traced macro, ADC and programming counts against the plans.
The benchmark's own static scan of its sources runs here too, so that a
name the bench spells outside a traced batch (its modelled cost) is checked.
The benchmark's modules are imported as they are, without changes.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_traced_and_passes_reference(name):
    wl = workloads.generate(name, 1)
    wl = dataclasses.replace(wl, items=wl.items[:1])
    with spans.Tracer() as tracer:
        with tracer.root("setup"):
            m = harness.set_up(wl)
        with tracer.root("batch"):
            batch = harness.run_batch(m, wl.items[0], wl.readout)
    assert tracer.missing == set()
    assert tracer.uncounted == set()
    assert harness.reference_pass(m).passed == [True]

    # the wrappers saw every call: a converter bound at import time would
    # leave its counts at 0 and still be neither missing nor uncounted
    def count(scope, span, field):
        return tracer.counts.get((scope, span), {}).get(field, 0)

    assert count("batch", "cimmacro.macro_mac", "calls") == sum(len(p.tiles) for p in m.plans)
    conversions = sum(2 * q.codes.shape[1] * t.cols
                      for p, q in zip(m.plans, batch.quantized) for t in p.tiles)
    assert count("batch", "adc.convert_analytic_array", "conversions") == (
        conversions if wl.readout == "adc" else 0)
    assert count("setup", "xbar.program_weights", "cells") == sum(p.rows * p.cols for p in m.plans)


def test_bench_spells_only_public_fpcim_names_that_exist():
    # harness.modelled_cost and harness.cost_label read perfmodel names that
    # the traced batch above never calls
    selftest.test_workload_generation_imports_no_fpcim_and_bench_uses_public_names_only()
