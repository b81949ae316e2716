"""Seeded synthetic workloads for the fpcim benchmark, generated with numpy only.

Every layer's input comes from a float64 teacher network (teacher forcing):
the codes a layer sees, and so its work, do not depend on how accurately the
simulator read out the layer before it.  Nothing here imports fpcim, so the
inputs are the same on every commit of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Distinct input batches per workload; the timed loop cycles through them.
POOL = 8


@dataclass(frozen=True)
class Layer:
    """One weight-bearing layer.

    ``weights`` is the (rows, cols) matrix view; conv rows are ordered
    (channel, ki, kj).  ``conv`` is (in_channels, kernel, out_channels,
    stride, padding) for a conv layer and None for a fully-connected one.
    ``signed`` marks inputs that carry signs; post-ReLU inputs do not.
    """

    weights: np.ndarray
    conv: tuple[int, int, int, int, int] | None
    signed: bool


@dataclass(frozen=True)
class Item:
    """One batch: the teacher input of every layer, plus the seed the
    macros are programmed with when the workload reprograms per batch.

    Conv inputs are (n, c, h, w) images; fc inputs are (features, n).
    """

    inputs: tuple[np.ndarray, ...]
    bank_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # "E2M5" or "E3M4"
    readout: str  # "adc" or "int8"
    sigma_rel: float  # relative programming variation of the devices
    rebuild_per_batch: bool  # every batch reprograms the macros (Monte Carlo trial)
    layers: tuple[Layer, ...]
    items: tuple[Item, ...]


def _he(rng, fan_in: int, shape) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _conv(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Direct float64 convolution of (n, c, h, w) by (o, c, k, k)."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    k = w.shape[-1]
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("nchwij,ocij->nohw", win, w, optimize=True)


def cnn_e2m5_adc(seed: int) -> Workload:
    """conv 16->64 3x3 p1 on 16x16, conv 64->64 3x3 s2 p1, fc 4096->10; 4 images."""
    rng = np.random.default_rng(seed)
    w0 = _he(rng, 16 * 9, (64, 16, 3, 3))
    w1 = _he(rng, 64 * 9, (64, 64, 3, 3))
    w2 = _he(rng, 4096, (4096, 10))
    layers = (
        Layer(w0.reshape(64, -1).T.copy(), (16, 3, 64, 1, 1), signed=True),
        Layer(w1.reshape(64, -1).T.copy(), (64, 3, 64, 2, 1), signed=False),
        Layer(w2, None, signed=False),
    )
    items = []
    for _ in range(POOL):
        x0 = rng.standard_normal((4, 16, 16, 16))
        x1 = _relu(_conv(x0, w0, 1, 1))
        x2 = _relu(_conv(x1, w1, 2, 1))
        items.append(Item((x0, x1, x2.reshape(4, -1).T.copy()), bank_seed=0))
    return Workload("cnn-e2m5-adc", "E2M5", "adc", 0.0, False, layers, tuple(items))


def mlp_e2m5_int8(seed: int) -> Workload:
    """fc 2304->1024->1024->256 on 64 non-negative vectors, INT8 readout."""
    rng = np.random.default_rng(seed)
    dims = (2304, 1024, 1024, 256)
    ws = [_he(rng, a, (a, b)) for a, b in zip(dims[:-1], dims[1:])]
    layers = tuple(Layer(w, None, signed=False) for w in ws)
    items = []
    for _ in range(POOL):
        xs = [np.abs(rng.standard_normal((dims[0], 64)))]
        for w in ws[:-1]:
            xs.append(_relu(w.T @ xs[-1]))
        items.append(Item(tuple(xs), bank_seed=0))
    return Workload("mlp-e2m5-int8", "E2M5", "int8", 0.0, False, layers, tuple(items))


def mc_e3m4_adc(seed: int) -> Workload:
    """One fc 1152->256 layer under 5% device variation; each batch is a
    trial that reprograms the macros with its own seed, then runs 64
    signed vectors."""
    rng = np.random.default_rng(seed)
    layers = (Layer(_he(rng, 1152, (1152, 256)), None, signed=True),)
    items = tuple(
        Item((rng.standard_normal((1152, 64)),), bank_seed=int(rng.integers(2**31)))
        for _ in range(POOL)
    )
    return Workload("mc-e3m4-adc", "E3M4", "adc", 0.05, True, layers, items)


WORKLOADS = {f.__name__.replace("_", "-"): f for f in (cnn_e2m5_adc, mlp_e2m5_int8, mc_e3m4_adc)}


def generate(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
