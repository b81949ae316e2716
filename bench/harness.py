"""Runs a generated workload through fpcim's public API and checks its outputs.

Every fpcim function is looked up on its module at call time
(``mapper.execute_plan``, not a name imported once), so the traced run's
wrappers see the calls this module makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import spans
import workloads
from fpcim import cimmacro, fpcodec, mapper, perfmodel, xbar
from workloads import Item, Workload


@dataclass
class Mapped:
    """A workload's layers tiled onto macros and programmed."""

    workload: Workload
    config: cimmacro.MacroConfig
    specs: list
    plans: list
    banks: list


def set_up(wl: Workload) -> Mapped:
    """``map_*`` and ``MacroBank.build`` for every layer: the timed set-up."""
    fmt = getattr(fpcodec, wl.fmt)
    config = cimmacro.MacroConfig.for_format(fmt, device=xbar.DeviceModel(sigma_rel=wl.sigma_rel))
    specs, plans = [], []
    for layer in wl.layers:
        if layer.conv is None:
            spec = mapper.LayerSpec.fc(*layer.weights.shape)
            plans.append(mapper.map_fc(spec))
        else:
            spec = mapper.LayerSpec.conv(*layer.conv)
            plans.append(mapper.map_conv(spec))
        specs.append(spec)
    m = Mapped(wl, config, specs, plans, [])
    m.banks = program(m, wl.items[0].bank_seed)
    return m


def program(m: Mapped, seed: int) -> list:
    return [mapper.MacroBank.build(plan, layer.weights, m.config, seed=seed)
            for plan, layer in zip(m.plans, m.workload.layers)]


@dataclass
class Batch:
    results: list  # mapper.PlanResult per layer
    quantized: list  # fpcodec QuantResult of each layer's input
    banks: list


def run_batch(m: Mapped, item: Item, readout: str) -> Batch:
    wl = m.workload
    fmt = m.config.fmt
    banks = program(m, item.bank_seed) if wl.rebuild_per_batch else m.banks
    results, quantized = [], []
    for layer, spec, plan, bank, x in zip(wl.layers, m.specs, m.plans, banks, item.inputs):
        cols = mapper.im2col(x, spec) if layer.conv is not None else x
        q = fpcodec.quantize_tensor(cols, fmt)
        results.append(mapper.execute_plan(plan, q.codes, bank,
                                           signs=q.signs if layer.signed else None,
                                           readout=readout))
        quantized.append(q)
    return Batch(results, quantized, banks)


def dense_reference(plan, bank, weights: np.ndarray, q, signed: bool) -> np.ndarray:
    """Float64 product the identity readout must equal, from public functions.

    Inputs are the decoded codes with their signs applied; weights are the
    signed levels of each normalized block, scaled back by the block scale
    over ``level_scale``.  Under programming variation the levels are the
    ones actually programmed, read back from the conductance pair.
    """
    fmt = bank.config.fmt
    device = bank.config.device
    d = fpcodec.decode_bits(q.codes, fmt)
    if signed:
        d = np.where(q.signs, -d, d)
    w = np.zeros((plan.rows, plan.cols))
    for t in plan.tiles:
        pt = bank[t.id]
        rows, cols = slice(t.row_start, t.row_stop), slice(t.col_start, t.col_stop)
        if device.sigma_rel == 0:
            levels = xbar.weight_levels(weights[rows, cols] / pt.weight_scale, device)
        else:
            levels = np.rint((pt.pair.g_pos - pt.pair.g_neg) / device.g_lsb)
        w[rows, cols] = levels * (pt.weight_scale / device.level_scale)
    return d.T @ w


@dataclass
class LayerStats:
    signal: float = 0.0  # sum of squared identity outputs
    error: float = 0.0  # sum of squared (readout - identity)
    saturated: int = 0
    underflow: int = 0
    entries: int = 0

    def add(self, other: "LayerStats") -> None:
        self.signal += other.signal
        self.error += other.error
        self.saturated += other.saturated
        self.underflow += other.underflow
        self.entries += other.entries

    @property
    def rel_err(self) -> float:
        """RMS readout error over RMS identity output."""
        return math.sqrt(self.error / self.signal)

    @property
    def sqnr_db(self) -> float:
        return 10.0 * math.log10(self.signal / self.error)


@dataclass
class Reference:
    """Outputs and accuracy of the pool, computed outside the timed region."""

    outputs: list  # per item: the readout Batch results, to compare timed batches with
    passed: list  # per item: identity readout equals the dense product
    layers: list  # LayerStats per layer, pooled over items
    sha256: str  # over every readout value and flag, items and layers in order
    executed: list  # (plan, vectors) per layer of one batch

    @property
    def total(self) -> LayerStats:
        s = LayerStats()
        for layer in self.layers:
            s.add(layer)
        return s


def reference_pass(m: Mapped) -> Reference:
    """Run every pool item once, check its identity readout against the
    dense product, and measure the readout against the identity readout of
    the same codes."""
    wl = m.workload
    digest = hashlib.sha256()
    stats = [LayerStats() for _ in wl.layers]
    outputs, passed = [], []
    for item in wl.items:
        b = run_batch(m, item, wl.readout)
        ok = True
        for k, (layer, plan, bank, q, res) in enumerate(
                zip(wl.layers, m.plans, b.banks, b.quantized, b.results)):
            ident = mapper.execute_plan(plan, q.codes, bank,
                                        signs=q.signs if layer.signed else None,
                                        readout="identity")
            dense = dense_reference(plan, bank, layer.weights, q, layer.signed)
            scale = float(np.max(np.abs(dense), initial=0.0)) or 1.0
            ok &= (ident.values.shape == dense.shape
                   and bool(np.allclose(ident.values, dense, rtol=1e-9, atol=1e-9 * scale))
                   and not ident.saturated.any() and not ident.underflow.any()
                   and res.values.shape == dense.shape and bool(np.all(np.isfinite(res.values))))
            stats[k].add(LayerStats(
                signal=float(np.sum(ident.values ** 2)),
                error=float(np.sum((res.values - ident.values) ** 2)),
                saturated=int(res.saturated.sum()),
                underflow=int(res.underflow.sum()),
                entries=res.values.size,
            ))
            for a in (res.values, res.underflow, res.saturated):
                digest.update(np.ascontiguousarray(a).tobytes())
        outputs.append(b.results)
        passed.append(ok)
    executed = [(plan, q.codes.shape[-1]) for plan, q in zip(m.plans, b.quantized)]
    return Reference(outputs, passed, stats, digest.hexdigest(), executed)


def same_outputs(results: list, expected: list) -> bool:
    """Bitwise equality of values and flags, layer by layer."""
    return all(
        np.array_equal(r.values, e.values) and np.array_equal(r.underflow, e.underflow)
        and np.array_equal(r.saturated, e.saturated)
        for r, e in zip(results, expected, strict=True)
    )


def macs_per_batch(executed: list) -> int:
    return sum(plan.rows * plan.cols * n for plan, n in executed)


@dataclass(frozen=True)
class ModelledCost:
    latency_us: float
    energy_uj: float


def modelled_cost(executed: list, label: str) -> ModelledCost:
    """Modelled hardware cost of one batch from the executed plans.

    Each tile runs on its own macro and sees every input vector once, so a
    layer takes ``vectors`` cycles of the format's conversion latency and
    ``tiles * vectors`` macro cycles of energy at the macro's calibrated
    total power.  ``label`` is E2M5, E3M4 or INT8.
    """
    cycle_s = perfmodel.LATENCY_NS[label] * 1e-9
    cycles = sum(len(plan.tiles) * n for plan, n in executed)
    latency_s = sum(n * cycle_s for _, n in executed)
    energy_j = cycles * cycle_s * perfmodel.DEFAULT_PARAMS.total(label)
    return ModelledCost(latency_s * 1e6, energy_j * 1e6)


def cost_label(wl: Workload) -> str:
    return "INT8" if wl.readout == "int8" else wl.fmt


MIN_BATCHES = 100  # so that at least 10 batch times lie beyond p90
LOOP_LIMIT_S = 60.0  # one timed loop never runs longer, whatever --seconds asks
SETUP_S = 2.0  # set-up is repeated for this long, at least SETUP_REPEATS times;
SETUP_REPEATS = 5  # its median is reported


@dataclass
class Loop:
    times: list  # host seconds per batch
    failed: int  # batches that raised or did not match their reference


def timed_loop(m: Mapped, ref: Reference, seconds: float, tracer=None) -> Loop:
    """Closed loop: one caller runs batches back to back, cycling the pool.

    Untraced, it runs for ``seconds`` and at least MIN_BATCHES batches.
    Traced, it runs whole pool cycles, so per-batch counts are means over
    the same batches on every run.  Each batch's outputs are compared with
    its reference after its time is taken.
    """
    wl = m.workload
    pool = len(wl.items)
    least, cycle = (pool, pool) if tracer else (MIN_BATCHES, 1)
    times, failed = [], 0
    start = time.perf_counter()
    while True:
        k = len(times) % pool
        t0 = time.perf_counter()
        try:
            with tracer.root("batch") if tracer else contextlib.nullcontext():
                results = run_batch(m, wl.items[k], wl.readout).results
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results = None
        times.append(time.perf_counter() - t0)
        if results is None or not (ref.passed[k] and same_outputs(results, ref.outputs[k])):
            failed += 1
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_LIMIT_S or (
                elapsed >= seconds and len(times) >= least and len(times) % cycle == 0):
            return Loop(times, failed)


@dataclass
class Run:
    workload: Workload
    ref: Reference
    loop: Loop  # untraced
    setup_s: list  # host seconds of each timed set-up; empty when traced
    tracer: spans.Tracer | None = None
    traced: Loop | None = None


def measure(name: str, seed: int, seconds: float, trace: bool) -> Run:
    """Generate, set up, check, and time one workload; trace it if asked.

    The traced run splits ``seconds`` in two: an untraced loop first, for
    the overhead comparison, then the wrappers are installed around one
    set-up and a traced loop and removed again.
    """
    wl = workloads.generate(name, seed)
    setup_s = []
    repeats, least_s = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_S)
    start = time.perf_counter()
    while len(setup_s) < repeats or time.perf_counter() - start < least_s:
        t0 = time.perf_counter()
        m = set_up(wl)
        setup_s.append(time.perf_counter() - t0)
    ref = reference_pass(m)
    loop_s = seconds / 2 if trace else seconds
    run = Run(wl, ref, timed_loop(m, ref, loop_s), [] if trace else setup_s)
    if trace:
        with spans.Tracer() as tracer:
            with tracer.root("setup"):
                m = set_up(wl)
            run.traced = timed_loop(m, ref, loop_s, tracer)
        run.tracer = tracer
    return run
