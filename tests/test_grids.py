"""Grid containers, quadtree grouping as group rows, the hyper grid, the
Gauss-Markov source, and latent files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqcodec.grids import (
    GROUP_PHASES,
    LatentGrid,
    SourceConfig,
    block_means,
    extract_hyper_context,
    gauss_markov_sample,
    merge_groups,
    partition_quadtree,
    read_latent_file,
    rng_for,
    write_latent_file,
)
from rvqcodec.quantizers import Codebook, IndexStack, ResidualVQ, rvq_quantize, train_rvq


def test_rng_for_is_deterministic_per_seed_and_stream():
    a = rng_for(42, 0).standard_normal(8)
    b = rng_for(42, 0).standard_normal(8)
    c = rng_for(42, 1).standard_normal(8)
    d = rng_for(43, 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_for_pins_the_bit_generator():
    # The counter-based generator is part of the reproducibility contract:
    # a fixed (seed, stream) must yield the same raw draws everywhere.
    gen = rng_for(123, 0)
    assert type(gen.bit_generator).__name__ == "Philox"
    assert int(rng_for(123, 0).integers(0, 2**63)) == int(
        rng_for(123, 0).integers(0, 2**63)
    )


def test_latent_grid_validation():
    with pytest.raises(ValueError, match="C, h, w"):
        LatentGrid(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="non-empty"):
        LatentGrid(np.zeros((1, 0, 4)))
    with pytest.raises(ValueError, match="finite"):
        LatentGrid(np.full((1, 2, 2), np.nan))
    g = LatentGrid(np.arange(8, dtype=np.float32).reshape(1, 2, 4))
    assert g.data.dtype == np.float64
    assert (g.channels, g.height, g.width) == (1, 2, 4)


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("h", [2, 4, 6, 8])
@pytest.mark.parametrize("w", [2, 4, 6, 8])
def test_partition_merge_inverse_exhaustive(c, h, w):
    # every position gets a unique value, so equality checks the bijection
    data = np.arange(c * h * w, dtype=np.float64).reshape(c, h, w)
    latent = LatentGrid(data)
    rows = partition_quadtree(latent)
    assert len(rows) == 4
    for r, (dr, dc) in zip(rows, GROUP_PHASES):
        assert r.dtype == np.float64 and r.flags.c_contiguous
        assert np.array_equal(r, data[:, dr::2, dc::2].reshape(c, -1).T)
        assert not np.shares_memory(r, latent.data)
    back = merge_groups(rows, (c, h, w))
    assert np.array_equal(back.data, data)


def test_partition_requires_even_dims():
    with pytest.raises(ValueError):
        partition_quadtree(LatentGrid(np.zeros((1, 3, 4))))
    with pytest.raises(ValueError):
        partition_quadtree(LatentGrid(np.zeros((1, 4, 5))))


def test_merge_rejects_rows_that_do_not_fit_the_shape():
    rows = partition_quadtree(LatentGrid(np.zeros((2, 4, 6))))
    with pytest.raises(ValueError, match=r"\(4, 2\)"):
        merge_groups(rows, (2, 4, 5))
    with pytest.raises(ValueError, match="four"):
        merge_groups(rows[:3], (2, 4, 6))
    with pytest.raises(ValueError, match=r"\(6, 2\)"):
        merge_groups(rows[:3] + (rows[3][:1],), (2, 4, 6))
    with pytest.raises(ValueError, match=r"\(6, 1\)"):
        merge_groups(rows, (1, 4, 6))


def test_group_phase_order_on_2x2():
    latent = LatentGrid(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    rows = partition_quadtree(latent)
    assert [r.shape for r in rows] == [(1, 1)] * 4
    assert [float(r[0, 0]) for r in rows] == [1.0, 2.0, 3.0, 4.0]


def test_source_config_validation():
    with pytest.raises(ValueError, match=r"inside \(-1, 1\)"):
        SourceConfig(1, 4, 4, rho=1.0)
    with pytest.raises(ValueError, match=r"inside \(-1, 1\)"):
        SourceConfig(1, 4, 4, rho=-1.0)
    with pytest.raises(ValueError, match="positive"):
        SourceConfig(0, 4, 4)
    with pytest.raises(ValueError, match="variance"):
        SourceConfig(1, 4, 4, variance=0.0)


def test_gauss_markov_determinism_and_index_streams():
    cfg = SourceConfig(2, 16, 16, rho=0.5, variance=2.0, seed=9)
    a = gauss_markov_sample(cfg, index=0)
    b = gauss_markov_sample(cfg, index=0)
    c = gauss_markov_sample(cfg, index=1)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.shape == (2, 16, 16)


def test_gauss_markov_iid_case_matches_variance():
    cfg = SourceConfig(1, 256, 256, rho=0.0, variance=2.0, seed=3)
    x = gauss_markov_sample(cfg).data
    assert abs(x.var() - 2.0) < 0.1
    assert abs(x.mean()) < 0.05
    # rho = 0 means no spatial memory at all
    r = np.corrcoef(x[0, :, :-1].ravel(), x[0, :, 1:].ravel())[0, 1]
    assert abs(r) < 0.02


def test_gauss_markov_correlation_structure():
    cfg = SourceConfig(1, 512, 512, rho=0.9, variance=1.0, seed=7)
    fields = [gauss_markov_sample(cfg, index=i).data[0] for i in range(4)]
    var = float(np.mean([f.var() for f in fields]))
    assert abs(var - 1.0) < 0.1

    def lag_corr(f, dr, dc):
        h, w = f.shape
        a = f[: h - dr, : w - dc].ravel()
        b = f[dr:, dc:].ravel()
        return np.corrcoef(a, b)[0, 1]

    rh = np.mean([lag_corr(f, 0, 1) for f in fields])
    rv = np.mean([lag_corr(f, 1, 0) for f in fields])
    rd = np.mean([lag_corr(f, 1, 1) for f in fields])
    assert abs(rh - 0.9) < 0.05
    assert abs(rv - 0.9) < 0.05
    # separable product: diagonal neighbor decorrelates as rho**2
    assert abs(rd - 0.81) < 0.05


def test_block_means_hand_case():
    data = np.array(
        [[[1.0, 2.0, 10.0, 20.0], [3.0, 4.0, 30.0, 40.0]]]
    )  # one channel, 2x4
    out = block_means(LatentGrid(data), block=2)
    assert np.array_equal(out.data, np.array([[[2.5, 25.0]]]))
    with pytest.raises(ValueError, match="divisible"):
        block_means(LatentGrid(np.zeros((1, 6, 4))), block=4)


def test_extract_hyper_context_downsamples_by_four():
    rng = rng_for(11)
    latent = LatentGrid(rng.standard_normal((2, 16, 24)))
    phi = block_means(latent)
    manual = latent.data.reshape(2, 4, 4, 6, 4).mean(axis=(2, 4))
    assert np.array_equal(phi.data, manual)
    # a one-codeword quantizer codes every one of the 4x6 positions as 0
    rvq = ResidualVQ(stage_codebooks=(Codebook(codewords=np.array([[0.5, -1.0]])),))
    stack = extract_hyper_context(latent, rvq)
    assert isinstance(stack, IndexStack)
    assert (stack.stages, stack.count) == (1, 24)
    assert not stack.indices[0].any()


def test_extract_hyper_context_quantized_path():
    rng = rng_for(12)
    latent = LatentGrid(rng.standard_normal((1, 16, 16)))
    phi = block_means(latent, 4)
    vectors = phi.data.reshape(1, -1).T.copy()
    rvq = train_rvq(vectors, (4, 4), iterations=10, seed=0)
    stack = extract_hyper_context(latent, rvq, m=1)
    assert stack.stages == 1
    assert stack.count == 16
    # the indices are those of the block-mean rows, positions row-major
    assert np.array_equal(stack.indices[0], rvq_quantize(rvq, vectors, 1)[0].indices[0])
    assert extract_hyper_context(latent, rvq).stages == 2


def test_latent_file_round_trip(tmp_path):
    rng = rng_for(5)
    latent = LatentGrid(rng.standard_normal((3, 6, 4)))
    path = tmp_path / "x.eflt"
    write_latent_file(path, latent)
    back = read_latent_file(path)
    # format stores 32-bit floats; the round trip is exact at that width
    assert np.array_equal(back.data, latent.data.astype(np.float32).astype(np.float64))
    assert back.shape == latent.shape


def test_latent_file_rejects_corruption(tmp_path):
    latent = LatentGrid(np.ones((1, 2, 2)))
    path = tmp_path / "x.eflt"
    write_latent_file(path, latent)
    raw = path.read_bytes()

    bad_magic = tmp_path / "m.eflt"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        read_latent_file(bad_magic)

    cut = tmp_path / "cut.eflt"
    cut.write_bytes(raw[:16])
    with pytest.raises(ValueError, match=f"^{cut}: 16 bytes, shorter than a latent header$"):
        read_latent_file(cut)

    bad_version = tmp_path / "v.eflt"
    bad_version.write_bytes(raw[:4] + b"\x09" + raw[5:])
    with pytest.raises(ValueError, match="version"):
        read_latent_file(bad_version)

    short = tmp_path / "s.eflt"
    short.write_bytes(raw[:-3])
    with pytest.raises(ValueError, match="payload length"):
        read_latent_file(short)


@settings(max_examples=200)
@given(data=st.data())
def test_latent_file_mutations_raise_only_value_error(tmp_dir, mutate, data):
    shape = data.draw(st.tuples(st.integers(1, 2), st.integers(1, 4), st.integers(1, 4)))
    path = tmp_dir / "x.eflt"
    latent = LatentGrid(rng_for(data.draw(st.integers(0, 9))).standard_normal(shape))
    write_latent_file(path, latent)
    mutated, must_fail = mutate(data, path.read_bytes())
    path.write_bytes(mutated)
    try:
        read_latent_file(path)
    except ValueError:
        return
    assert not must_fail
