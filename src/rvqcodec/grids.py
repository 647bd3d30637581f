"""Latent grids, quadtree phase grouping, and synthetic sources.

A latent is a dense ``(C, h, w)`` float64 array.  The codec never touches
pixels: synthetic latents stand in for analysis-transform output, and the
spatial downsampling factor of the notional transform (16 for the latent,
times ``HYPER_BLOCK`` for the hyper latent) only enters rate accounting and
header geometry.

Grouping splits the latent into four half-resolution subgrids by spatial
phase, in the fixed order (0,0), (0,1), (1,0), (1,1) of (row mod 2,
col mod 2).  Group 1 is coded first and conditions the rest.  Each group
is handed out as ``(n, C)`` rows, positions row-major, the layout every
coding loop works in; ``merge_groups`` puts the rows back onto the grid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatentGrid",
    "SourceConfig",
    "GROUP_PHASES",
    "HYPER_BLOCK",
    "LATENT_DOWNSAMPLE",
    "rng_for",
    "partition_quadtree",
    "merge_groups",
    "gauss_markov_sample",
    "block_means",
    "extract_hyper_context",
    "write_latent_file",
    "read_latent_file",
]

# Phase order is normative: it fixes coding order and bitstream layout.
GROUP_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))

# Hyper context is a non-overlapping block mean over the latent grid.
HYPER_BLOCK = 4

# Notional downsampling factor of the (identity) analysis transform, used
# for header geometry and bits-per-pixel accounting.
LATENT_DOWNSAMPLE = 16

_LATENT_MAGIC = b"EFLT"
_LATENT_VERSION = 1


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream); the only RNG entry point.

    Philox is used everywhere so that a single 64-bit seed pins every sampled
    value, independent of platform and call interleaving.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class LatentGrid:
    """Dense latent tensor with channel-major float64 storage."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 3:
            raise ValueError(f"latent must be (C, h, w), got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("latent must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("latent entries must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class SourceConfig:
    """Separable first-order Gauss-Markov field specification."""

    channels: int
    height: int
    width: int
    rho: float = 0.0
    variance: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.channels, self.height, self.width) < 1:
            raise ValueError("source dimensions must be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie strictly inside (-1, 1), got {self.rho}")
        if not self.variance > 0.0:
            raise ValueError("variance must be positive")


def partition_quadtree(latent: LatentGrid) -> tuple[np.ndarray, ...]:
    """Split a latent into its four spatial phase groups, each as ``(n, C)``
    rows with positions row-major.

    Requires even height and width so every group has identical shape.
    """
    c, h, w = latent.shape
    if h % 2 or w % 2:
        raise ValueError(f"latent spatial dims must be even, got {h}x{w}")
    hwc = latent.data.transpose(1, 2, 0)
    return tuple(hwc[pi::2, pj::2].copy().reshape(-1, c) for pi, pj in GROUP_PHASES)


def merge_groups(rows, shape: tuple[int, int, int]) -> LatentGrid:
    """Inverse of :func:`partition_quadtree` for a latent of ``shape``;
    exact by construction."""
    c, h, w = shape
    n = (h // 2) * (w // 2)
    if len(rows) != len(GROUP_PHASES) or any(r.shape != (n, c) for r in rows):
        raise ValueError(f"need four ({n}, {c}) group row arrays for a {shape} latent")
    if h % 2 or w % 2:
        raise ValueError(f"latent spatial dims must be even, got {h}x{w}")
    out = np.empty((c, h, w), dtype=np.float64)
    for (pi, pj), r in zip(GROUP_PHASES, rows):
        out[:, pi::2, pj::2] = r.T.reshape(c, h // 2, w // 2)
    return LatentGrid(out)


def gauss_markov_sample(config: SourceConfig, index: int = 0) -> LatentGrid:
    """Draw one latent from a separable AR(1) x AR(1) Gaussian field.

    Interior recursion per channel:

        x[i, j] = rho*x[i, j-1] + rho*x[i-1, j] - rho^2*x[i-1, j-1] + e[i, j]

    Boundary rows/columns are started from the stationary marginal, so the
    whole field is stationary with the configured marginal variance and the
    per-axis lag-1 correlation equals rho.  Channels are independent.  The
    recursions are run as explicit loops along one axis at a time, which
    fixes the floating-point summation order.

    ``index`` selects an independent draw from the same configuration, so a
    corpus is (config, index=0..n-1) with every member reproducible alone.
    """
    c, h, w = config.channels, config.height, config.width
    rho = float(config.rho)
    scale = 1.0 - rho * rho
    rng = rng_for(config.seed, stream=index)
    eps = rng.standard_normal((c, h, w)) * (np.sqrt(config.variance) * scale)

    # Row-wise AR(1): stationary start in column 0, then recurse rightwards.
    u = np.empty_like(eps)
    u[:, :, 0] = eps[:, :, 0] / np.sqrt(scale)
    for j in range(1, w):
        u[:, :, j] = rho * u[:, :, j - 1] + eps[:, :, j]

    # Column-wise AR(1) over the row-filtered field.
    x = np.empty_like(u)
    x[:, 0, :] = u[:, 0, :] / np.sqrt(scale)
    for i in range(1, h):
        x[:, i, :] = rho * x[:, i - 1, :] + u[:, i, :]
    return LatentGrid(x)


def block_means(latent: LatentGrid, block: int = HYPER_BLOCK) -> LatentGrid:
    """Non-overlapping per-channel block means; spatial dims must divide."""
    c, h, w = latent.shape
    if h % block or w % block:
        raise ValueError(f"spatial dims {h}x{w} not divisible by block {block}")
    r = latent.data.reshape(c, h // block, block, w // block, block)
    return LatentGrid(r.mean(axis=(2, 4)))


def extract_hyper_context(latent: LatentGrid, quantizer, m: int | None = None):
    """Quantize the hyper context (4x4 block means) with ``quantizer``.

    The block-mean vectors are coded per position, row-major, with the
    first ``m`` residual stages (all by default); returns the transmitted
    ``IndexStack``.
    """
    from .quantizers import rvq_quantize  # deferred to avoid an import cycle

    z = block_means(latent, HYPER_BLOCK)
    rows = z.data.reshape(z.channels, -1).T
    return rvq_quantize(quantizer, rows, m=quantizer.stages if m is None else m)[0]


def write_latent_file(path, latent: LatentGrid) -> None:
    """Serialize a latent: magic, version, dims, float32 row-major payload."""
    with open(path, "wb") as f:
        f.write(_LATENT_MAGIC)
        f.write(struct.pack("<B", _LATENT_VERSION))
        f.write(struct.pack("<III", *latent.shape))
        f.write(latent.data.astype("<f4").tobytes(order="C"))


def read_latent_file(path) -> LatentGrid:
    """Load a latent file; raises ValueError on any malformed field."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 17:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than a latent header")
    if raw[:4] != _LATENT_MAGIC:
        raise ValueError(f"{path}: not a latent file (bad magic)")
    version = raw[4]
    if version != _LATENT_VERSION:
        raise ValueError(f"{path}: unsupported latent version {version}")
    c, h, w = struct.unpack("<III", raw[5:17])
    expected = 17 + 4 * c * h * w
    if len(raw) != expected:
        raise ValueError(
            f"{path}: payload length {len(raw) - 17} != expected {expected - 17}"
        )
    data = np.frombuffer(raw[17:], dtype="<f4").reshape(c, h, w)
    return LatentGrid(data.astype(np.float64))
