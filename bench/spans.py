"""In-memory span tracing of fpcim's public functions for the traced run.

A `Tracer` replaces module attributes with timing wrappers while it is
entered and restores them on exit, so the simulator's sources stay as they
are and the untraced run pays nothing.  Spans (name, start, end, parent)
stay in memory; counts are read from each call's arguments and result after
its batch has finished, outside the batch's time.  A target that no longer
exists, or whose arguments no longer fit its counter, is reported missing
instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Span name -> (module, attribute path) of the function to wrap.  Names that
# a module imports from another are wrapped where the caller looks them up.
TARGETS = {
    "mapper.im2col": ("fpcim.mapper", "im2col"),
    "fpcodec.quantize_tensor": ("fpcim.fpcodec", "quantize_tensor"),
    "fpcodec.decode_bits": ("fpcim.fpcodec", "decode_bits"),
    "dac.dac_convert_bits": ("fpcim.cimmacro", "dac_convert_bits"),
    "cimmacro.macro_mac": ("fpcim.mapper", "macro_mac"),
    "adc.convert_analytic_array": ("fpcim.cimmacro", "convert_analytic_array"),
    "mapper.execute_plan": ("fpcim.mapper", "execute_plan"),
    "mapper.MacroBank.build": ("fpcim.mapper", "MacroBank.build"),
    "xbar.program_weights": ("fpcim.mapper", "program_weights"),
}

ROOT = "bench"  # the benchmark's own glue: the root span of a set-up or a batch
BINADES = 8  # E3M4 has exponents 0..7; E2M5 fills only e0..e3


def _count_decode(a, result):
    return {"elements": np.size(a["bits"])}


def _count_macro_mac(a, result):
    return {"calls": 1, "signed_calls": int(a["signs"] is not None)}


def _count_adc(a, result):
    bits, underflow, saturated, _ = result
    counts = {"conversions": bits.size, "saturated": int(saturated.sum()),
              "underflow": int(underflow.sum())}
    occupancy = np.bincount((bits >> a["fmt"].mantissa_bits).ravel(), minlength=BINADES)
    counts.update({f"binade.e{e}": int(c) for e, c in enumerate(occupancy)})
    return counts


def _count_execute_plan(a, result):
    plan = a["plan"]
    n = np.asarray(a["input_bits"]).reshape(plan.rows, -1).shape[1]
    adds = sum((len(block) - 1) * n * block[0].cols for block in plan.col_blocks())
    return {"tiles": len(plan.tiles), "macro_cycles": len(plan.tiles) * n,
            "partial_sum_adds": adds}


def _count_program(a, result):
    return {"cells": np.size(a["weights"])}


COUNTERS = {
    "fpcodec.decode_bits": _count_decode,
    "cimmacro.macro_mac": _count_macro_mac,
    "adc.convert_analytic_array": _count_adc,
    "mapper.execute_plan": _count_execute_plan,
    "xbar.program_weights": _count_program,
}

# Per-layer metric -> (unit, span, field).  Field "s" is the span's duration,
# "self_s" its duration minus its children's; any other field is a count.
PER_LAYER = {
    "mapper.im2col.s": ("s", "mapper.im2col", "s"),
    "fpcodec.quantize_tensor.s": ("s", "fpcodec.quantize_tensor", "s"),
    "fpcodec.decode_bits.s": ("s", "fpcodec.decode_bits", "s"),
    "fpcodec.decode_bits.elements": ("count", "fpcodec.decode_bits", "elements"),
    "dac.dac_convert_bits.self_s": ("s", "dac.dac_convert_bits", "self_s"),
    "cimmacro.macro_mac.self_s": ("s", "cimmacro.macro_mac", "self_s"),
    "cimmacro.macro_mac.calls": ("count", "cimmacro.macro_mac", "calls"),
    "cimmacro.macro_mac.signed_calls": ("count", "cimmacro.macro_mac", "signed_calls"),
    "adc.convert_analytic_array.s": ("s", "adc.convert_analytic_array", "s"),
    "adc.conversions": ("count", "adc.convert_analytic_array", "conversions"),
    "adc.saturated": ("count", "adc.convert_analytic_array", "saturated"),
    "adc.underflow": ("count", "adc.convert_analytic_array", "underflow"),
    **{f"adc.binade.e{e}": ("count", "adc.convert_analytic_array", f"binade.e{e}")
       for e in range(BINADES)},
    "mapper.execute_plan.self_s": ("s", "mapper.execute_plan", "self_s"),
    "mapper.tiles": ("count", "mapper.execute_plan", "tiles"),
    "mapper.partial_sum_adds": ("count", "mapper.execute_plan", "partial_sum_adds"),
    "perfmodel.macro_cycles": ("count", "mapper.execute_plan", "macro_cycles"),
    "mapper.MacroBank.build.self_s": ("s", "mapper.MacroBank.build", "self_s"),
    "xbar.program_weights.s": ("s", "xbar.program_weights", "s"),
    "xbar.program_weights.cells": ("count", "xbar.program_weights", "cells"),
    "bench.glue.self_s": ("s", ROOT, "self_s"),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    root: int  # id of the set-up or batch span this one belongs to
    start: float = 0.0
    end: float = 0.0
    call: tuple | None = None  # (signature, args, kwargs, result) until counted


class Tracer:
    """Context manager that installs the wrappers for its lifetime."""

    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.scopes: dict[int, str] = {}  # root span id -> "setup" or "batch"
        self.missing: set[str] = set()  # targets that do not exist
        self.uncounted: set[str] = set()  # targets whose calls no longer fit their counter
        self.counts: dict[tuple[str, str], defaultdict] = {}  # (scope, span) -> field -> total
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for name, (module, path) in self.targets.items():
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for p in parents:
                    owner = getattr(owner, p)
                raw = inspect.getattr_static(owner, attr)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, fn)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent,
                    self.spans[parent].root if parent is not None else len(self.spans))
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counted = name in COUNTERS

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counted:
                span.call = (signature, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def root(self, scope: str):
        """A set-up or a batch: the root span whose self time is the glue."""
        span = self._open(ROOT)
        self.scopes[span.id] = scope
        try:
            yield span
        finally:
            self._close(span)
            self._settle(span.id)

    def _settle(self, root: int) -> None:
        """Read the counts of a finished root's calls and drop their references."""
        scope = self.scopes[root]
        for span in reversed(self.spans):
            if span.root != root:
                break
            if span.call is None:
                continue
            signature, args, kwargs, result = span.call
            span.call = None
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = COUNTERS[span.name](bound.arguments, result)
            except (TypeError, KeyError, AttributeError, ValueError):
                self.uncounted.add(span.name)
                continue
            totals = self.counts.setdefault((scope, span.name), defaultdict(float))
            for key, value in counts.items():
                totals[key] += value

    def _times(self) -> dict[tuple[str, str], dict[str, float]]:
        """(scope, span name) -> total duration "s" and self time "self_s"."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict = {}
        for span in self.spans:
            t = out.setdefault((self.scopes[span.root], span.name), {"s": 0.0, "self_s": 0.0})
            t["s"] += span.end - span.start
            t["self_s"] += span.end - span.start - child[span.id]
        return out

    def root_times(self, scope: str) -> list[float]:
        return [s.end - s.start for s in self.spans
                if s.parent is None and self.scopes[s.id] == scope]

    def per_layer(self) -> dict[str, float | None]:
        """Per-layer values: the mean per batch plus the traced set-up once.

        A metric whose span is missing, or whose count could not be read,
        reads None.
        """
        times = self._times()
        batches = len(self.root_times("batch"))
        out = {}
        for metric, (_, span, field) in PER_LAYER.items():
            timed = field in ("s", "self_s")
            if span in self.missing or (not timed and span in self.uncounted):
                out[metric] = None
                continue
            source = times if timed else self.counts
            setup = source.get(("setup", span), {}).get(field, 0.0)
            batch = source.get(("batch", span), {}).get(field, 0.0)
            out[metric] = setup + batch / batches
        return out

    def write(self, path) -> None:
        """One JSON object per span; spans of one set-up or batch share ``root``."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "root": s.root, "scope": self.scopes[s.root],
                                     "start": s.start, "end": s.end}) + "\n")
