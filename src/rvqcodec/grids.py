"""Latent grids, quadtree phase grouping, and synthetic sources.

A latent is a dense ``(C, h, w)`` float64 array.  The codec never touches
pixels: synthetic latents stand in for analysis-transform output, and the
spatial downsampling factors of the notional transform (16 for the latent,
64 for the hyper latent) only enter rate accounting and header geometry.

Grouping splits the latent into four half-resolution subgrids by spatial
phase, in the fixed order (0,0), (0,1), (1,0), (1,1) of (row mod 2,
col mod 2).  Group 1 is coded first and conditions the rest.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LatentGrid",
    "GroupedLatent",
    "HyperContext",
    "SourceConfig",
    "GROUP_PHASES",
    "HYPER_BLOCK",
    "LATENT_DOWNSAMPLE",
    "HYPER_DOWNSAMPLE",
    "rng_for",
    "partition_quadtree",
    "merge_groups",
    "gauss_markov_sample",
    "block_means",
    "extract_hyper_context",
    "replicate_pad",
    "crop",
    "write_latent_file",
    "read_latent_file",
]

# Phase order is normative: it fixes coding order and bitstream layout.
GROUP_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))

# Hyper context is a non-overlapping block mean over the latent grid.
HYPER_BLOCK = 4

# Notional downsampling factors of the (identity) transforms, used for
# header geometry and bits-per-pixel accounting.
LATENT_DOWNSAMPLE = 16
HYPER_DOWNSAMPLE = 64

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
class GroupedLatent:
    """The four phase subgrids of a latent, in coding order."""

    groups: tuple[LatentGrid, LatentGrid, LatentGrid, LatentGrid]
    source_shape: tuple[int, int, int]

    def __post_init__(self):
        if len(self.groups) != len(GROUP_PHASES):
            raise ValueError("exactly four phase groups expected")
        c, h, w = self.source_shape
        for g in self.groups:
            if g.shape != (c, h // 2, w // 2):
                raise ValueError(
                    f"group shape {g.shape} inconsistent with source {self.source_shape}"
                )


@dataclass(frozen=True)
class HyperContext:
    """Side information grid shared by every group's predictor.

    ``phi`` lives at one quarter of the latent resolution (half the group
    resolution) and is the decoded grid; ``indices`` holds the transmitted
    per-stage index arrays.
    """

    phi: LatentGrid
    indices: object  # IndexStack


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


def partition_quadtree(latent: LatentGrid) -> GroupedLatent:
    """Split a latent into its four spatial phase groups.

    Requires even height and width so every group has identical shape.
    """
    c, h, w = latent.shape
    if h % 2 or w % 2:
        raise ValueError(f"latent spatial dims must be even, got {h}x{w}")
    groups = tuple(
        LatentGrid(latent.data[:, pi::2, pj::2].copy()) for pi, pj in GROUP_PHASES
    )
    return GroupedLatent(groups=groups, source_shape=latent.shape)


def merge_groups(grouped: GroupedLatent) -> LatentGrid:
    """Inverse of :func:`partition_quadtree`; exact by construction."""
    c, h, w = grouped.source_shape
    out = np.empty((c, h, w), dtype=np.float64)
    for (pi, pj), g in zip(GROUP_PHASES, grouped.groups):
        out[:, pi::2, pj::2] = g.data
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


def extract_hyper_context(latent: LatentGrid, quantizer, m: int | None = None) -> HyperContext:
    """Quantize the hyper context (4x4 block means) with ``quantizer``.

    The block-mean vectors are coded per position with its residual stages
    and phi is the decoded value: the exact grid the decoder reconstructs
    from the transmitted indices.
    """
    phi = block_means(latent, HYPER_BLOCK)
    from .quantizers import rvq_quantize  # deferred to avoid an import cycle

    c, hh, hw = phi.shape
    vectors = phi.data.reshape(c, hh * hw).T.copy()
    stack, recon = rvq_quantize(quantizer, vectors, m=quantizer.stages if m is None else m)
    decoded = LatentGrid(recon.T.reshape(c, hh, hw))
    return HyperContext(phi=decoded, indices=stack)


def replicate_pad(latent: LatentGrid, multiple: int) -> LatentGrid:
    """Edge-replicate so both spatial dims are multiples of ``multiple``."""
    c, h, w = latent.shape
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return latent
    padded = np.pad(latent.data, ((0, 0), (0, ph), (0, pw)), mode="edge")
    return LatentGrid(padded)


def crop(latent: LatentGrid, height: int, width: int) -> LatentGrid:
    """Drop padding back off; dims must not exceed the stored grid."""
    c, h, w = latent.shape
    if height > h or width > w:
        raise ValueError(f"cannot crop {h}x{w} to {height}x{width}")
    return LatentGrid(latent.data[:, :height, :width].copy())


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
    if len(raw) < 17 or raw[:4] != _LATENT_MAGIC:
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
