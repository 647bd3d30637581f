"""Fixed-length serialization of index stacks, and the rate it implies.

The wire format carries a 32-bit header (14-bit height, 14-bit width, 4-bit
rate parameter q, MSB-first) followed by the indices of every quantizer in
a fixed order: hyper first, then the four groups in coding order.  Within a
quantizer, stages are written in codebook order, positions row-major, and
each index occupies exactly log2 K bits MSB-first.  A single zero-pad to a
byte boundary closes the stream.  ``_layout`` is the one statement of that
order and of each quantizer's position count; ``pack``, ``unpack`` and the
rate ``fixed_length_bits`` all read it, so the payload length equals the
rate to within 7 bits.  No probability tables, no entropy coder: the stream
length is known before the first index is coded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .grids import HYPER_BLOCK, LATENT_DOWNSAMPLE
from .quantizers import IndexStack, QuantizerSet, ResidualVQ

__all__ = [
    "StreamHeader",
    "PackedBitstream",
    "fixed_length_bits",
    "pack",
    "unpack",
    "write_bitstream_file",
    "read_bitstream_file",
]

_BITSTREAM_MAGIC = b"EFBS"
_BITSTREAM_VERSION = 1
_HEADER_BITS = 32


@dataclass(frozen=True)
class StreamHeader:
    """32-bit stream header: height and width of the coded image in pixels
    (the latent grid times the downsampling factor) and the rate parameter
    q, which is the decoded stage count m."""

    height: int
    width: int
    q: int

    def __post_init__(self):
        if not 1 <= self.height <= 16383:
            raise ValueError(f"header height {self.height} outside [1, 16383]")
        if not 1 <= self.width <= 16383:
            raise ValueError(f"header width {self.width} outside [1, 16383]")
        if not 0 <= self.q <= 15:
            raise ValueError(f"header q {self.q} outside [0, 15]")

    def to_bytes(self) -> bytes:
        word = (self.height << 18) | (self.width << 4) | self.q
        return word.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "StreamHeader":
        if len(raw) < 4:
            raise ValueError(f"header needs 4 bytes, got {len(raw)}")
        word = int.from_bytes(raw[:4], "big")
        return cls(height=(word >> 18) & 0x3FFF, width=(word >> 4) & 0x3FFF, q=word & 0xF)


@dataclass(frozen=True)
class PackedBitstream:
    header: StreamHeader
    payload: bytes

    @property
    def bits(self) -> int:
        return _HEADER_BITS + 8 * len(self.payload)


# Widest index field: ``_bits_to_fields`` assembles fields in float64,
# whose integers are exact up to 2**53.
_MAX_INDEX_BITS = 53


def _index_bits(k: int) -> int:
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError(f"codebook size {k} is not a power of two")
    width = k.bit_length() - 1
    if width > _MAX_INDEX_BITS:
        raise ValueError(f"codebook size 2**{width} exceeds 2**{_MAX_INDEX_BITS}")
    return width


def _fields_to_bits(indices: np.ndarray, width: int) -> np.ndarray:
    """MSB-first bits of a batch of fixed-width fields, flattened.

    Each field, shifted to the top of the narrowest big-endian 1, 2, 4 or
    8-byte unsigned integer, is its bits MSB-first in memory, and
    ``np.unpackbits`` with ``count=width`` keeps each row's leading
    ``width`` bits, a byte at a time.  Shifting each field by every bit
    position runs in int64 along an axis only ``width`` long instead, about
    2 ns a bit on one Xeon core.  A shift into bit 63 turns the int64
    negative; the cast to unsigned keeps its bits.
    """
    size = 1 << max(0, (width - 1).bit_length() - 3)
    fields = (indices << (8 * size - width)).astype(f">u{size}")
    return np.unpackbits(fields.view(np.uint8).reshape(-1, size), axis=1, count=width).ravel()


def _bits_to_fields(bits: np.ndarray, width: int) -> np.ndarray:
    """Fixed-width MSB-first fields from their flattened bit planes.

    One float GEMV against the weights ``2**(width-1) .. 1``: float32 up to
    24 bits, float64 up to 53 (``_index_bits`` rejects wider fields).  It
    is exact in any summation order, FMA included: every product is 0 or a
    power of two, and every partial sum is an integer below ``2**width``,
    which the dtype holds exactly, so no sum is ever rounded.  That is why
    BLAS is safe here and not in prediction, whose products and sums round
    and so depend on the order BLAS picks.
    """
    dtype = np.float32 if width <= 24 else np.float64
    weights = np.ldexp(dtype(1), np.arange(width - 1, -1, -1))
    return (bits.reshape(-1, width).astype(dtype) @ weights).astype(np.int64)


def _geometry(header: StreamHeader, channels: int) -> tuple[int, int, int]:
    """The ``(C, h, w)`` latent shape behind a header."""
    f = LATENT_DOWNSAMPLE
    if header.height % (2 * f) or header.width % (2 * f):
        raise ValueError(
            f"header {header.height}x{header.width} is not a multiple of {2 * f};"
            f" the latent grid must split into four phase groups"
        )
    return channels, header.height // f, header.width // f


def _layout(qset: QuantizerSet, shape: tuple[int, int, int]) -> list[tuple[ResidualVQ, int]]:
    """Each quantizer with its position count, in wire order: the hyper grid
    first if the set has one, then the four phase groups."""
    _, h, w = shape
    runs = [(rvq, (h // 2) * (w // 2)) for rvq in qset.groups]
    if qset.hyper is not None:
        if h % HYPER_BLOCK or w % HYPER_BLOCK:
            raise ValueError(
                f"latent {h}x{w} is not a multiple of {HYPER_BLOCK};"
                f" hyper positions would not form a whole grid"
            )
        runs.insert(0, (qset.hyper, (h // HYPER_BLOCK) * (w // HYPER_BLOCK)))
    return runs


def fixed_length_bits(qset: QuantizerSet, m: int, shape: tuple[int, int, int]) -> float:
    """Fixed-length rate in bits of the first m stages on a ``shape`` latent:
    every index costs log2 of its stage size."""
    bits = 0.0
    for rvq, n in _layout(qset, shape):
        for cb in rvq.stage_codebooks[:m]:
            bits += n * np.log2(cb.size)
    return float(bits)


def pack(
    header: StreamHeader,
    hyper_stack: IndexStack | None,
    group_stacks: tuple[IndexStack, ...],
    qset: QuantizerSet,
) -> PackedBitstream:
    """Serialize index stacks in the order of ``_layout``; every index costs
    exactly log2 K bits."""
    m = header.q
    if not 1 <= m <= qset.stages:
        raise ValueError(f"header q={m} outside the set's stages [1, {qset.stages}]")
    if len(group_stacks) != 4:
        raise ValueError(f"need exactly 4 group stacks, got {len(group_stacks)}")
    if (qset.hyper is None) != (hyper_stack is None):
        raise ValueError(
            "hyper quantizer and hyper stack must be given together or not at all"
        )
    stacks = ([] if hyper_stack is None else [hyper_stack]) + list(group_stacks)
    layout = _layout(qset, _geometry(header, qset.groups[0].dim))

    runs = []
    for stack, (rvq, n) in zip(stacks, layout):
        if stack.stages != m:
            raise ValueError(f"stack has {stack.stages} stages, header q={m}")
        if stack.count != n:
            raise ValueError(
                f"stack holds {stack.count} positions, header geometry implies {n}"
            )
        for idx, cb in zip(stack.indices, rvq.stage_codebooks[:m]):
            width = _index_bits(cb.size)
            if idx.size and int(idx.max()) >= cb.size:
                raise ValueError(
                    f"index {int(idx.max())} out of range for codebook size {cb.size}"
                )
            if width:
                runs.append(_fields_to_bits(idx, width))
    bits = np.concatenate(runs) if runs else np.zeros(0, dtype=np.uint8)
    # np.packbits zero-fills the trailing partial byte: the terminal padding.
    return PackedBitstream(header=header, payload=np.packbits(bits).tobytes())


def unpack(
    stream: PackedBitstream, qset: QuantizerSet
) -> tuple[StreamHeader, IndexStack | None, tuple[IndexStack, ...]]:
    """Exact inverse of pack; geometry is derived from the header alone.

    The payload must be exactly ``ceil(bits / 8)`` bytes with zero padding
    bits, the only form ``pack`` writes; anything else is a ``ValueError``.
    """
    header = stream.header
    m = header.q
    shape = _geometry(header, qset.groups[0].dim)
    if m < 1 or m > qset.stages:
        raise ValueError(f"header q={m} outside [1, {qset.stages}]")
    runs = [
        (n, [_index_bits(cb.size) for cb in rvq.stage_codebooks[:m]])
        for rvq, n in _layout(qset, shape)
    ]
    need_bits = int(fixed_length_bits(qset, m, shape))
    have_bits = 8 * len(stream.payload)
    if have_bits < need_bits:
        raise ValueError(
            f"payload holds {have_bits} bits, geometry requires {need_bits}"
            f" ({need_bits - have_bits} missing)"
        )
    need_bytes = -(-need_bits // 8)
    if len(stream.payload) != need_bytes:
        raise ValueError(
            f"payload holds {len(stream.payload)} bytes, geometry requires {need_bytes}"
            f" ({len(stream.payload) - need_bytes} trailing)"
        )

    bits = np.unpackbits(np.frombuffer(stream.payload, dtype=np.uint8))
    if bits[need_bits:].any():
        raise ValueError("non-zero padding bits after the last index")
    cursor = 0
    stacks = []
    for n, widths in runs:
        stage_rows = []
        for width in widths:
            if width == 0:
                stage_rows.append(np.zeros(n, dtype=np.int64))
                continue
            stage_rows.append(_bits_to_fields(bits[cursor : cursor + n * width], width))
            cursor += n * width
        stacks.append(IndexStack(indices=tuple(stage_rows)))

    if qset.hyper is None:
        return header, None, tuple(stacks)
    return header, stacks[0], tuple(stacks[1:])


def write_bitstream_file(path, stream: PackedBitstream) -> None:
    with open(path, "wb") as f:
        f.write(_BITSTREAM_MAGIC)
        f.write(struct.pack("<B", _BITSTREAM_VERSION))
        f.write(stream.header.to_bytes())
        f.write(stream.payload)


def read_bitstream_file(path) -> PackedBitstream:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 9:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than a bitstream header")
    if raw[:4] != _BITSTREAM_MAGIC:
        raise ValueError(f"{path}: not a bitstream file (bad magic)")
    (version,) = struct.unpack("<B", raw[4:5])
    if version != _BITSTREAM_VERSION:
        raise ValueError(f"{path}: unsupported bitstream version {version}")
    header = StreamHeader.from_bytes(raw[5:9])
    return PackedBitstream(header=header, payload=raw[9:])
