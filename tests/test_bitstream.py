"""Fixed-length packing: header layout, payload accounting, round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rvqcodec.bitstream import (
    PackedBitstream,
    StreamHeader,
    _bits_to_fields,
    _fields_to_bits,
    _index_bits,
    fixed_length_bits,
    pack,
    read_bitstream_file,
    unpack,
    write_bitstream_file,
)
from rvqcodec.grids import rng_for
from rvqcodec.quantizers import Codebook, IndexStack, QuantizerSet, ResidualVQ


def _zero_rvq(stage_sizes, dim=1):
    return ResidualVQ(
        stage_codebooks=tuple(Codebook(np.zeros((k, dim))) for k in stage_sizes)
    )


def _qset(per_group, hyper=None, dim=1):
    return QuantizerSet(
        groups=tuple(_zero_rvq(s, dim) for s in per_group),
        hyper=_zero_rvq(hyper, dim) if hyper else None,
    )


def _random_stacks(rng, qset, m, n_group, n_hyper=None):
    groups = tuple(
        IndexStack(
            indices=tuple(
                rng.integers(0, cb.size, size=n_group)
                for cb in g.stage_codebooks[:m]
            )
        )
        for g in qset.groups
    )
    hyper = None
    if n_hyper is not None:
        hyper = IndexStack(
            indices=tuple(
                rng.integers(0, cb.size, size=n_hyper)
                for cb in qset.hyper.stage_codebooks[:m]
            )
        )
    return hyper, groups


def test_header_golden_bytes():
    # 14-bit height, 14-bit width, 4-bit stage count, big-endian:
    # 512<<18 | 768<<4 | 5 = 0x08003005
    h = StreamHeader(height=512, width=768, q=5)
    assert h.to_bytes() == bytes([0x08, 0x00, 0x30, 0x05])
    assert StreamHeader.from_bytes(h.to_bytes()) == h


def test_header_round_trip_extremes():
    for height, width, q in [(1, 1, 0), (16383, 16383, 15), (32, 16352, 7)]:
        h = StreamHeader(height=height, width=width, q=q)
        assert StreamHeader.from_bytes(h.to_bytes()) == h


def test_header_validation():
    with pytest.raises(ValueError):
        StreamHeader(height=0, width=4, q=1)
    with pytest.raises(ValueError):
        StreamHeader(height=16384, width=4, q=1)
    with pytest.raises(ValueError):
        StreamHeader(height=4, width=0, q=1)
    with pytest.raises(ValueError):
        StreamHeader(height=4, width=4, q=16)
    with pytest.raises(ValueError):
        StreamHeader(height=4, width=4, q=-1)
    with pytest.raises(ValueError, match="4 bytes"):
        StreamHeader.from_bytes(b"\x00\x00\x00")


def test_single_group_payload_golden():
    # 64x64 pixels -> 4x4 latent -> 2x2 groups; group 1 has K=2 (1 bit per
    # index), groups 2-4 are zero-bit K=1 stages. Indices [1,0,1,1] pack
    # MSB-first into 1011 0000 = 0xB0.
    qset = _qset([(2,), (1,), (1,), (1,)])
    header = StreamHeader(height=64, width=64, q=1)
    groups = (
        IndexStack(indices=(np.array([1, 0, 1, 1]),)),
        IndexStack(indices=(np.zeros(4, dtype=np.int64),)),
        IndexStack(indices=(np.zeros(4, dtype=np.int64),)),
        IndexStack(indices=(np.zeros(4, dtype=np.int64),)),
    )
    stream = pack(header, None, groups, qset)
    assert stream.header.to_bytes() == bytes([0x01, 0x00, 0x04, 0x01])
    assert stream.payload == b"\xb0"
    assert stream.bits == 32 + 8

    back_header, back_hyper, back_groups = unpack(stream, qset)
    assert back_header == header
    assert back_hyper is None
    for orig, got in zip(groups, back_groups):
        for a, b in zip(orig.indices, got.indices):
            assert np.array_equal(a, b)


def test_header_is_independent_of_payload():
    qset = _qset([(4,), (4,), (4,), (4,)])
    header = StreamHeader(height=64, width=64, q=1)
    rng = rng_for(60)
    _, ga = _random_stacks(rng, qset, 1, 4)
    _, gb = _random_stacks(rng, qset, 1, 4)
    sa = pack(header, None, ga, qset)
    sb = pack(header, None, gb, qset)
    assert sa.header.to_bytes() == sb.header.to_bytes()
    assert sa.payload != sb.payload  # 32 random bits collide with prob 2^-32


def test_pack_is_deterministic():
    qset = _qset([(8, 4), (8, 4), (8, 4), (8, 4)])
    header = StreamHeader(height=96, width=64, q=2)
    rng = rng_for(61)
    hyper, groups = _random_stacks(rng, qset, 2, 6)
    a = pack(header, None, groups, qset)
    b = pack(header, None, groups, qset)
    assert a.header == b.header and a.payload == b.payload


@pytest.mark.parametrize("width", range(1, 54))
def test_bits_to_fields_is_the_integer_sum_at_every_width(width):
    """The float GEMV equals the int64 weighted sum of the bit planes at
    every width ``_index_bits`` accepts, across the float32/float64 switch
    at 24/25 bits, on all-zero, all-one and random fields."""
    rng = rng_for(width)
    top = (1 << width) - 1
    fields = np.concatenate([
        np.zeros(5, dtype=np.int64),
        np.full(5, top, dtype=np.int64),
        rng.integers(0, top, size=200, dtype=np.int64, endpoint=True),
    ])
    bits = _fields_to_bits(fields, width)
    weights = np.left_shift(np.int64(1), np.arange(width - 1, -1, -1, dtype=np.int64))
    reference = bits.reshape(-1, width).astype(np.int64) @ weights
    assert np.array_equal(reference, fields)
    got = _bits_to_fields(bits, width)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference)


def test_index_width_is_capped_at_53_bits():
    assert _index_bits(1 << 53) == 53
    with pytest.raises(ValueError, match="exceeds"):
        _index_bits(1 << 54)


@given(data=st.data())
def test_pack_unpack_inverse_property(data):
    sizes = st.sampled_from([1, 2, 4, 8, 16, 64, 256, 4096])
    per_group = [
        [data.draw(sizes) for _ in range(data.draw(st.integers(1, 3)))]
        for _ in range(4)
    ]
    m = len(per_group[0])
    for g in per_group:
        del g[m:]
        g.extend(data.draw(sizes) for _ in range(m - len(g)))
    use_hyper = data.draw(st.booleans())
    step = 64 if use_hyper else 32
    height = step * data.draw(st.integers(1, 2))
    width = step * data.draw(st.integers(1, 2))
    hyper_sizes = [data.draw(sizes) for _ in range(m)] if use_hyper else None
    qset = _qset(per_group, hyper=hyper_sizes)
    header = StreamHeader(height=height, width=width, q=m)
    rng = rng_for(data.draw(st.integers(0, 2**31)))
    n_group = (height // 32) * (width // 32)
    n_hyper = (height // 64) * (width // 64) if use_hyper else None
    hyper, groups = _random_stacks(rng, qset, m, n_group, n_hyper)

    stream = pack(header, hyper, groups, qset)
    back_header, back_hyper, back_groups = unpack(stream, qset)
    assert back_header == header
    if use_hyper:
        for a, b in zip(hyper.indices, back_hyper.indices):
            assert np.array_equal(a, b)
    else:
        assert back_hyper is None
    for orig, got in zip(groups, back_groups):
        for a, b in zip(orig.indices, got.indices):
            assert np.array_equal(a, b)
    # payload bits equal the fixed-length rate, up to the final byte's padding
    exact = fixed_length_bits(qset, m, (1, height // 16, width // 16))
    assert 0 <= 8 * len(stream.payload) - exact < 8


def test_pack_validates_inputs():
    qset = _qset([(4,), (4,), (4,), (4,)])
    header = StreamHeader(height=64, width=64, q=1)
    rng = rng_for(62)
    _, groups = _random_stacks(rng, qset, 1, 4)

    with pytest.raises(ValueError, match="4 group stacks"):
        pack(header, None, groups[:3], qset)
    bad_count = (groups[0],) * 3 + (
        IndexStack(indices=(np.zeros(5, dtype=np.int64),)),
    )
    with pytest.raises(ValueError, match="positions"):
        pack(header, None, bad_count, qset)
    bad_range = (
        IndexStack(indices=(np.array([0, 1, 2, 4]),)),
    ) + groups[1:]
    with pytest.raises(ValueError, match="index"):
        pack(header, None, bad_range, qset)
    with pytest.raises(ValueError, match="stage"):
        pack(
            StreamHeader(height=64, width=64, q=2), None, groups, qset
        )  # q exceeds the quantizer's stage count
    two_stage = tuple(IndexStack(indices=g.indices * 2) for g in groups)
    with pytest.raises(ValueError, match=r"q=2 outside the set's stages \[1, 1\]"):
        pack(StreamHeader(height=64, width=64, q=2), None, two_stage, qset)
    with pytest.raises(ValueError, match="hyper"):
        hyper = IndexStack(indices=(np.zeros(1, dtype=np.int64),))
        pack(header, hyper, groups, qset)  # qset has no hyper quantizer


def test_pack_rejects_non_power_of_two_sizes():
    qset = _qset([(3,), (4,), (4,), (4,)])
    header = StreamHeader(height=64, width=64, q=1)
    groups = tuple(
        IndexStack(indices=(np.zeros(4, dtype=np.int64),)) for _ in range(4)
    )
    with pytest.raises(ValueError, match="power of two"):
        pack(header, None, groups, qset)


def test_pack_rejects_unaligned_geometry():
    qset = _qset([(4,), (4,), (4,), (4,)])
    header = StreamHeader(height=48, width=64, q=1)
    groups = tuple(
        IndexStack(indices=(np.zeros(4, dtype=np.int64),)) for _ in range(4)
    )
    with pytest.raises(ValueError, match="multiple"):
        pack(header, None, groups, qset)
    hyper_qset = _qset([(4,)] * 4, hyper=(4,))
    header96 = StreamHeader(height=96, width=64, q=1)
    with pytest.raises(ValueError, match="multiple"):
        pack(
            header96,
            IndexStack(indices=(np.zeros(1, dtype=np.int64),)),
            tuple(
                IndexStack(indices=(np.zeros(6, dtype=np.int64),)) for _ in range(4)
            ),
            hyper_qset,
        )


def test_unpack_reports_truncation():
    qset = _qset([(16,), (16,), (16,), (16,)])
    header = StreamHeader(height=64, width=64, q=1)
    rng = rng_for(63)
    _, groups = _random_stacks(rng, qset, 1, 4)
    stream = pack(header, None, groups, qset)
    cut = PackedBitstream(header=stream.header, payload=stream.payload[:-1])
    with pytest.raises(ValueError, match="missing"):
        unpack(cut, qset)


def test_unpack_rejects_trailing_bytes_and_padding_bits():
    # 4 positions x (3 + 3 + 3 + 2) bits = 44 bits: 6 bytes, 4 of them pad bits
    qset = _qset([(8,), (8,), (8,), (4,)])
    header = StreamHeader(height=64, width=64, q=1)
    _, groups = _random_stacks(rng_for(64), qset, 1, 4)
    stream = pack(header, None, groups, qset)
    assert len(stream.payload) == 6
    unpack(stream, qset)
    padded = PackedBitstream(header=stream.header, payload=stream.payload + b"\xff" * 100)
    with pytest.raises(ValueError, match="100 trailing"):
        unpack(padded, qset)
    zero_padded = PackedBitstream(header=stream.header, payload=stream.payload + b"\x00")
    with pytest.raises(ValueError, match="1 trailing"):
        unpack(zero_padded, qset)
    dirty = stream.payload[:-1] + bytes([stream.payload[-1] | 0x01])
    with pytest.raises(ValueError, match="padding bits"):
        unpack(PackedBitstream(header=stream.header, payload=dirty), qset)


def test_bitstream_file_round_trip(tmp_path):
    qset = _qset([(8,), (8,), (8,), (8,)])
    header = StreamHeader(height=64, width=96, q=1)
    rng = rng_for(64)
    _, groups = _random_stacks(rng, qset, 1, 6)
    stream = pack(header, None, groups, qset)
    path = tmp_path / "x.efbs"
    write_bitstream_file(path, stream)
    back = read_bitstream_file(path)
    assert back.header == stream.header
    assert back.payload == stream.payload

    raw = path.read_bytes()
    bad = tmp_path / "bad.efbs"
    bad.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        read_bitstream_file(bad)
    bad.write_bytes(raw[:4] + b"\x05" + raw[5:])
    with pytest.raises(ValueError, match="version"):
        read_bitstream_file(bad)
    bad.write_bytes(raw[:8])
    with pytest.raises(ValueError, match="8 bytes, shorter than a bitstream header"):
        read_bitstream_file(bad)


def _rate_qset(group_sizes, hyper_size, stages):
    return _qset([(k,) * stages for k in group_sizes],
                 hyper=(hyper_size,) * stages if hyper_size else None)


def test_fixed_length_rate_hand_values():
    # 1024x1024 pixels: 64x64 latent, 32x32 per group, 16x16 hyper grid
    qset = _rate_qset((1024, 512, 256, 128), 1024, stages=5)
    one = fixed_length_bits(qset, 1, (1, 64, 64)) / 1024**2
    five = fixed_length_bits(qset, 5, (1, 64, 64)) / 1024**2
    assert one == pytest.approx(0.035645, abs=1e-6)
    assert five == pytest.approx(0.178223, abs=1e-6)
    # exact binary values, not just within tolerance
    assert one == 0.03564453125
    assert five == 0.17822265625


def test_fixed_length_rate_degenerate_cases():
    # one-codeword stages cost nothing, with or without a hyper grid
    shape = (1, 64, 64)  # 1024 positions per group, 256 hyper positions
    assert fixed_length_bits(_rate_qset((1, 1, 1, 1), None, 3), 3, shape) == 0.0
    assert fixed_length_bits(_rate_qset((1, 1, 1, 1), 1, 3), 3, shape) == 0.0
    sizes = (1024, 512, 256, 128)
    no_hyper = fixed_length_bits(_rate_qset(sizes, None, 2), 2, shape)
    assert no_hyper == fixed_length_bits(_rate_qset(sizes, 1, 2), 2, shape)
    # the set's own hyper quantizer decides whether hyper positions pay
    assert fixed_length_bits(_rate_qset(sizes, 4, 2), 2, shape) == no_hyper + 256 * 2 * 2
    with pytest.raises(ValueError, match="multiple of 4"):
        fixed_length_bits(_rate_qset(sizes, 4, 2), 2, (1, 6, 8))
