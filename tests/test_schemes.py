"""The three coding schemes: context construction, closed-loop determinism,
ablation equivalences, and the model file format."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqcodec import schemes
from rvqcodec.bitstream import fixed_length_bits
from rvqcodec.grids import (
    LatentGrid,
    SourceConfig,
    block_means,
    extract_hyper_context,
    gauss_markov_sample,
    rng_for,
)
from rvqcodec.quantizers import (
    Codebook,
    IndexStack,
    QuantizerSet,
    ResidualVQ,
    rvq_quantize,
    train_rvq,
)
from rvqcodec.rans import RansStream, gaussian_table_batch
from rvqcodec.schemes import (
    CM_SUPPORT_RADIUS,
    SIGMA_FLOOR,
    CodedLatent,
    ContextPredictor,
    SchemeConfig,
    cm_decode,
    cm_encode,
    iq_decode,
    iq_encode,
    rd_decode,
    rd_encode,
    read_model_file,
    train_cm_model,
    train_iq_model,
    train_rd_model,
    write_model_file,
)
from rvqcodec.schemes import _CM_BOUNDS, _CM_LEVELS, _cm_rows, _cm_tables
from rvqcodec.timing import PhaseTimer

_SOURCE = SourceConfig(channels=1, height=32, width=32, rho=0.9, variance=1.0, seed=40)


def _corpus(count, offset=0, config=_SOURCE):
    return [gauss_markov_sample(config, index=offset + i) for i in range(count)]


@pytest.fixture(scope="module")
def rd_model():
    predictor, qset = train_rd_model(_corpus(12), (16, 16), iterations=8, seed=3)
    return predictor, qset


@pytest.fixture(scope="module")
def holdout():
    return gauss_markov_sample(_SOURCE, index=500)


def _identity_predictor(channels=1):
    # mu = 0, log sigma = 0: standardization becomes a no-op
    weights = tuple(
        np.zeros((channels * i, 2 * channels)) for i in range(4)
    )
    biases = tuple(np.zeros(2 * channels) for _ in range(4))
    return ContextPredictor(weights=weights, biases=biases)


def test_predictor_derives_channels_and_hyper_from_its_shapes():
    """C is half a bias length and the hyper flag says group 1 has C weight
    rows, not 0; every other set of shapes is rejected, and ``replace``
    derives both again from the new maps."""
    for c in range(1, 5):
        for uses_hyper in (False, True):
            dims = [c * (i + uses_hyper) for i in range(4)]
            pred = ContextPredictor(
                weights=tuple(np.zeros((d, 2 * c)) for d in dims),
                biases=tuple(np.zeros(2 * c) for _ in dims),
            )
            assert (pred.channels, pred.uses_hyper) == (c, uses_hyper)
    p = _identity_predictor(channels=2)
    for biases, message in (
        ((np.zeros(3),) + p.biases[1:], r"group 1 weight shape \(0, 4\) != \(0, 2\)"),
        ((np.zeros(1),) + p.biases[1:], "group 1 bias shape"),
        ((np.zeros((2, 2)),) + p.biases[1:], r"group 1 bias shape \(2, 2\) != \(4,\)"),
        (p.biases[:3] + (np.zeros(2),), r"group 4 bias shape \(2,\) != \(4,\)"),
    ):
        with pytest.raises(ValueError, match=message):
            ContextPredictor(weights=p.weights, biases=biases)
    for weights, message in (
        ((np.zeros((1, 4)),) + p.weights[1:], r"group 1 weight shape \(1, 4\) != \(2, 4\)"),
        (p.weights[:2] + (np.zeros((3, 4)), p.weights[3]),
         r"group 3 weight shape \(3, 4\) != \(4, 4\)"),
        (tuple(np.zeros((5, 4)) for _ in range(4)), r"group 1 weight shape \(5, 4\)"),
        (p.weights[:1], "four groups"),
    ):
        with pytest.raises(ValueError, match=message):
            ContextPredictor(weights=weights, biases=p.biases)
    hyper = replace(p, weights=tuple(np.zeros((2 * (i + 1), 4)) for i in range(4)))
    assert (hyper.channels, hyper.uses_hyper) == (2, True)
    one = replace(hyper, weights=_identity_predictor().weights, biases=_identity_predictor().biases)
    assert (one.channels, one.uses_hyper) == (1, False)
    for bad in (float("nan"), float("inf")):
        for field in ("weights", "biases"):
            arrays = [a.copy() for a in getattr(p, field)]
            arrays[3].flat[0] = bad
            with pytest.raises(ValueError, match="group 4 weights and bias must be finite"):
                replace(p, **{field: tuple(arrays)})


def test_predict_applies_affine_map_and_floors_sigma():
    w = tuple(
        np.full((1 * i, 2), 0.5) if i else np.zeros((0, 2)) for i in range(4)
    )
    b = tuple(np.array([1.0, -50.0]) for _ in range(4))
    pred = ContextPredictor(weights=w, biases=b)
    ctx = np.array([[2.0], [4.0]])
    mu, sigma = pred.predict(1, ctx)
    assert np.allclose(mu[:, 0], [2.0, 3.0])
    # log sigma of -49 is far below the floor, which is cm's lowest scale level
    assert np.array_equal(sigma, np.full((2, 1), SIGMA_FLOOR))
    assert _CM_LEVELS[0] == SIGMA_FLOOR


@pytest.mark.parametrize(
    "c,n",
    [(1, 40_000), (4, 9_000), (16, 2_500), (1, 140_000), (16, 9_000), (16, 1_024)],
)
def test_predict_is_the_per_dimension_loop_across_blocks(c, n, monkeypatch):
    """Blocked channel-major prediction gives the bytes of one row-major
    loop over context dimensions on the whole array: at the default block
    size (several blocks at C = 1 on 140,000 rows and C = 16 on 9,000; one
    block of vector-hyper's 1,024-row group shape) and at a small patched
    one, where every shape spans many blocks and the last is ragged; with
    a hyper grid and without, where group 1 is bias-only (d = 0); and with
    each context also passed as a column slice."""
    small_block = 1_234
    assert n % max(1, small_block // (2 * c))
    rng = rng_for(61)
    for uses_hyper in (True, False):
        dims = [c * (i + (1 if uses_hyper else 0)) for i in range(4)]
        pred = ContextPredictor(
            weights=tuple(rng.standard_normal((d, 2 * c)) for d in dims),
            biases=tuple(rng.standard_normal(2 * c) for _ in dims),
        )
        for group, d in enumerate(dims):
            wide = rng.standard_normal((n, d + 1))
            context = np.ascontiguousarray(wide[:, 1:])
            w, b = pred.weights[group], pred.biases[group]
            out = np.tile(b, (n, 1))
            for j in range(d):
                out += context[:, j : j + 1] * w[j : j + 1, :]
            for block in (schemes._PREDICT_BLOCK, small_block):
                monkeypatch.setattr(schemes, "_PREDICT_BLOCK", block)
                for ctx in (context, wide[:, 1:]):
                    mu, sigma = pred.predict(group, ctx)
                    assert mu.tobytes() == out[:, :c].tobytes()
                    assert (
                        sigma.tobytes()
                        == np.maximum(np.exp(out[:, c:]), SIGMA_FLOOR).tobytes()
                    )


def test_predict_scopes_the_ufunc_buffer_size():
    """``_predict_with`` scopes numpy's ufunc buffer size to its own loop:
    the bytes under a caller's ``np.setbufsize(2**16)`` equal those under
    the default, and the caller's size is back after a return and after
    an exception raised inside the loop."""
    rng = rng_for(62)
    c, n, d = 16, 1_024, 64
    pred = ContextPredictor(
        weights=tuple(rng.standard_normal((c * (i + 1), 2 * c)) for i in range(4)),
        biases=tuple(rng.standard_normal(2 * c) for _ in range(4)),
    )
    context = rng.standard_normal((n, d))
    before = np.getbufsize()
    mu, sigma = pred.predict(3, context)
    assert np.getbufsize() == before
    old = np.setbufsize(2**16)
    try:
        mu16, sigma16 = pred.predict(3, context)
        assert np.getbufsize() == 2**16
    finally:
        np.setbufsize(old)
    assert mu16.tobytes() == mu.tobytes()
    assert sigma16.tobytes() == sigma.tobytes()

    class Exploding(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, int) and key == 5:
                assert np.getbufsize() == schemes._PREDICT_BUFSIZE
                raise RuntimeError("inside the loop")
            return super().__getitem__(key)

    with pytest.raises(RuntimeError, match="inside the loop"):
        schemes._predict_with(
            pred.weights[3].view(Exploding), pred.biases[3], c, context
        )
    assert np.getbufsize() == before


def test_scheme_config_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        SchemeConfig(scheme="xx")
    for delta in (None, 0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="cm requires a finite delta > 0"):
            SchemeConfig(scheme="cm", delta=delta)
    with pytest.raises(ValueError, match="m must be"):
        SchemeConfig(scheme="rd", m=0)
    SchemeConfig(scheme="cm", delta=0.5)


def test_rd_with_identity_predictor_equals_iq(holdout):
    qset = train_iq_model(_corpus(12), (16, 16), iterations=8, seed=3)
    ident = _identity_predictor()
    for m in (1, 2):
        rd = rd_encode(holdout, ident, qset, m=m)
        iq = iq_encode(holdout, qset, m=m)
        for a, b in zip(rd.group_stacks, iq.group_stacks):
            for sa, sb in zip(a.indices, b.indices):
                assert np.array_equal(sa, sb)
        assert np.array_equal(rd.reconstruction.data, iq.reconstruction.data)
        assert rd.rate_bits == iq.rate_bits


def test_rd_decode_is_bit_identical_to_encoder_reconstruction(rd_model, holdout):
    predictor, qset = rd_model
    coded = rd_encode(holdout, predictor, qset, m=2)
    stripped = replace(coded, reconstruction=None)
    recon = rd_decode(stripped, predictor, qset)
    assert np.array_equal(recon.data, coded.reconstruction.data)


def test_rd_encode_is_deterministic(rd_model, holdout):
    predictor, qset = rd_model
    a = rd_encode(holdout, predictor, qset, m=1)
    b = rd_encode(holdout, predictor, qset, m=1)
    for sa, sb in zip(a.group_stacks, b.group_stacks):
        assert all(np.array_equal(x, y) for x, y in zip(sa.indices, sb.indices))
    assert np.array_equal(a.reconstruction.data, b.reconstruction.data)


def test_rd_beats_iq_on_correlated_source(rd_model, holdout):
    predictor, qset = rd_model
    iq_qset = train_iq_model(_corpus(12), (16, 16), iterations=8, seed=3)
    rd = rd_encode(holdout, predictor, qset, m=1)
    iq = iq_encode(holdout, iq_qset, m=1)
    mse_rd = float(np.mean((rd.reconstruction.data - holdout.data) ** 2))
    mse_iq = float(np.mean((iq.reconstruction.data - holdout.data) ** 2))
    assert mse_rd < mse_iq


def test_iq_decode_round_trip(holdout):
    qset = train_iq_model(_corpus(12), (16,), iterations=8, seed=3)
    coded = iq_encode(holdout, qset, m=1)
    recon = iq_decode(replace(coded, reconstruction=None), qset)
    assert np.array_equal(recon.data, coded.reconstruction.data)


@pytest.fixture(scope="module")
def iq_qset():
    return train_iq_model(_corpus(12), (16, 16), iterations=8, seed=3)


@pytest.fixture(scope="module")
def rd_hyper_model():
    return train_rd_model(_corpus(12), (16, 16), hyper_stage_sizes=(4, 4), iterations=8, seed=3)


def _fixed_codec(scheme, rd_model, iq_qset):
    """(quantizers, encode(latent, m), decode(coded)) of iq, or of rd with
    ``rd_model``."""
    if scheme == "iq":
        return (iq_qset, lambda x, m: iq_encode(x, iq_qset, m),
                lambda coded: iq_decode(coded, iq_qset))
    predictor, qset = rd_model
    return (qset, lambda x, m: rd_encode(x, predictor, qset, m),
            lambda coded: rd_decode(coded, predictor, qset))


@pytest.mark.parametrize(
    "scheme, shape, message",
    [
        pytest.param("rd", (1, 33, 33), "latent 33x33 must be a multiple of 2", id="rd"),
        pytest.param("iq", (1, 33, 33), "latent 33x33 must be a multiple of 2", id="iq"),
        pytest.param(
            "rd-hyper", (1, 34, 34), "latent 34x34 must be a multiple of 4", id="rd-hyper"
        ),
    ],
)
def test_fixed_decode_rejects_odd_spatial_dims(
    scheme, shape, message, rd_model, rd_hyper_model, iq_qset, holdout, monkeypatch
):
    """A 33x33 shape has the 16x16 groups of the 32x32 holdout, so its
    stack counts pass, and a 34x34 one has its 8x8 hyper grid; the decoder
    rejects either shape before reconstructing anything."""
    model = rd_hyper_model if scheme == "rd-hyper" else rd_model
    _, encode, decode = _fixed_codec(scheme, model, iq_qset)
    received = replace(encode(holdout, 1), reconstruction=None, shape=shape)
    calls = []
    monkeypatch.setattr(schemes, "_rvq_reconstruct", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        decode(received)
    assert calls == []


@pytest.mark.parametrize("scheme", ["rd", "iq", "rd-hyper"])
def test_fixed_decode_rejects_malformed_stacks(
    scheme, rd_model, rd_hyper_model, iq_qset, holdout
):
    model = rd_hyper_model if scheme == "rd-hyper" else rd_model
    qset, encode, decode = _fixed_codec(scheme, model, iq_qset)
    coded = replace(encode(holdout, 2), reconstruction=None)
    first = coded.group_stacks[0].indices
    k = qset.groups[0].stage_codebooks[0].size
    out_of_range = first[0].copy()
    out_of_range[5] = k

    def with_first_stack(*indices):
        return replace(coded, group_stacks=(IndexStack(indices),) + coded.group_stacks[1:])

    bad = [
        (with_first_stack(first[0]), "1 stages, coded m=2"),
        (with_first_stack(*(a[:-1] for a in first)), "entries, expected"),
        (replace(coded, m=0), "outside"),
        (replace(coded, m=3), "outside"),
        (replace(coded, m=None), "outside"),
        (with_first_stack(out_of_range, first[1]), f"out of range for K={k}"),
        (replace(coded, group_stacks=coded.group_stacks[:3]), "3 index stacks, expected 4"),
        (replace(coded, group_stacks=coded.group_stacks + coded.group_stacks[:1]),
         "5 index stacks, expected 4"),
    ]
    if scheme == "rd-hyper":
        hyper = coded.hyper_stack.indices
        # an m = 1 latent still carrying the 2-stage hyper stack of m = 2
        one_stage = tuple(IndexStack(s.indices[:1]) for s in coded.group_stacks)
        bad += [
            (replace(coded, m=1, group_stacks=one_stage), "hyper stack has 2 stages, coded m=1"),
            (replace(coded, hyper_stack=IndexStack(tuple(a[:-1] for a in hyper))),
             "hyper stack has 63 entries, expected 64"),
            (replace(coded, hyper_stack=None), "no hyper indices"),
        ]
    assert np.array_equal(decode(coded).data, encode(holdout, 2).reconstruction.data)
    for received, message in bad:
        with pytest.raises(ValueError, match=message):
            decode(received)


def test_iq_never_predicts(rd_model, iq_qset, holdout, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("iq must not predict")

    monkeypatch.setattr(schemes, "_predict_with", boom)
    monkeypatch.setattr(schemes.ContextPredictor, "predict", boom)
    for m in (1, 2):
        coded = iq_encode(holdout, iq_qset, m)
        recon = iq_decode(replace(coded, reconstruction=None), iq_qset)
        assert recon.data.tobytes() == coded.reconstruction.data.tobytes()
    predictor, qset = rd_model
    with pytest.raises(AssertionError, match="must not predict"):
        rd_encode(holdout, predictor, qset, 1)


def test_fixed_length_rate_accounting(rd_model, holdout):
    predictor, qset = rd_model
    coded = rd_encode(holdout, predictor, qset, m=2)
    # 32x32 latent -> four 16x16 groups of 256 positions each; two K=16 stages
    assert holdout.shape == (1, 32, 32)
    expected = fixed_length_bits(qset, 2, holdout.shape)
    assert expected == 4 * 256 * 2 * np.log2(16)
    assert coded.rate_bits == expected


def test_encode_rejects_hyper_quantizer_the_loop_would_not_code(rd_model, iq_qset, holdout):
    # iq, and rd with a plain predictor, code no hyper grid, so a set that
    # carries a hyper quantizer describes a stream they cannot write
    predictor, qset = rd_model
    with pytest.raises(ValueError, match="the predictor takes no hyper grid"):
        rd_encode(holdout, predictor, replace(qset, hyper=qset.groups[0]), 1)
    coded = iq_encode(holdout, iq_qset, 1)
    with_hyper = replace(iq_qset, hyper=iq_qset.groups[0])
    with pytest.raises(ValueError, match="iq takes no hyper grid"):
        iq_encode(holdout, with_hyper, 1)
    with pytest.raises(ValueError, match="iq takes no hyper grid"):
        iq_decode(coded, with_hyper)


def test_encode_rejects_bad_m(rd_model, holdout):
    predictor, qset = rd_model
    with pytest.raises(ValueError):
        rd_encode(holdout, predictor, qset, m=0)
    with pytest.raises(ValueError):
        rd_encode(holdout, predictor, qset, m=3)


def test_encode_rejects_odd_geometry(rd_model):
    predictor, qset = rd_model
    odd = LatentGrid(np.zeros((1, 6, 7)))
    with pytest.raises(ValueError, match="multiple"):
        rd_encode(odd, predictor, qset, m=1)


def test_train_cm_model_rejects_a_non_finite_delta():
    for delta in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="cm requires a finite delta > 0"):
            train_cm_model(_corpus(2), delta=delta)


def test_cm_training_draws_no_random_numbers():
    """cm's heads are closed-form fits: the seed changes no byte of the model."""
    a, b = (train_cm_model(_corpus(12), delta=0.5, seed=seed) for seed in (0, 9))
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("a", [0.5, 0.0, -1.0])
def test_log_sigma_head_recovers_a_linear_log_scale(a):
    """y = 0.3 psi_0 + exp(a psi_0 + 0.2) z with z ~ N(0, 1): the fitted
    log-sigma head reads slope a and intercept 0.2 on psi_0."""
    rng = rng_for(0)
    psi = rng.standard_normal((20_000, 2))
    z = rng.standard_normal((20_000, 1))
    y = 0.3 * psi[:, :1] + np.exp(a * psi[:, :1] + 0.2) * z
    w, b = schemes._fit_group_heads(psi, y)
    assert abs(w[0, 1] - a) < 0.05
    assert abs(b[1] - 0.2) < 0.05


def test_train_rd_model_rejects_thin_corpora():
    tiny = SourceConfig(channels=1, height=4, width=4, rho=0.5, seed=1)
    with pytest.raises(ValueError, match="training"):
        train_rd_model([gauss_markov_sample(tiny)], (2,), iterations=2, seed=0)
    with pytest.raises(ValueError):
        train_rd_model([], (16,), iterations=2, seed=0)


def test_train_rd_model_validates_m():
    for m in (0, 3):
        with pytest.raises(ValueError, match="m must be in"):
            train_rd_model(_corpus(12), (16, 16), m=m, iterations=2, seed=0)


def test_hyper_path_round_trip():
    cfg = SourceConfig(channels=1, height=64, width=64, rho=0.9, variance=1.0, seed=41)
    latents = [gauss_markov_sample(cfg, index=i) for i in range(12)]
    held = gauss_markov_sample(cfg, index=600)
    bufsize = np.getbufsize()
    predictor, qset = train_rd_model(
        latents, (16,), hyper_stage_sizes=(16,), iterations=8, seed=3
    )
    assert predictor.uses_hyper
    assert qset.hyper is not None
    coded = rd_encode(held, predictor, qset, m=1)
    assert coded.hyper_stack is not None
    recon = rd_decode(replace(coded, reconstruction=None), predictor, qset)
    assert np.array_equal(recon.data, coded.reconstruction.data)
    # prediction scopes numpy's ufunc buffer size to itself
    assert np.getbufsize() == bufsize
    # hyper grid positions pay rate too: 4 x 1024 group and 256 hyper
    # positions of one K=16 stage
    assert coded.rate_bits == fixed_length_bits(qset, 1, held.shape) == (4 * 1024 + 256) * 4


def _grid_of_rows(rows, c, h, w):
    """(n, C) rows, positions row-major, as a (C, h, w) grid."""
    return rows.T.reshape(c, h, w)


def test_phi_rows_is_the_decoded_hyper_grid():
    rng = rng_for(12)
    latent = LatentGrid(rng.standard_normal((1, 16, 16)))
    vectors = block_means(latent).data.reshape(1, -1).T.copy()
    rvq = train_rvq(vectors, (4, 4), iterations=10, seed=0)
    for m in (1, 2):
        stack, recon = rvq_quantize(rvq, vectors, m)
        # phi is the encoder's decoded grid, bit for bit, each hyper position
        # covering 2x2 positions of the 8x8 group grid
        up = _grid_of_rows(schemes._phi_rows(rvq, stack, latent.shape), 1, 8, 8)
        assert up[:, ::2, ::2].reshape(1, -1).T.tobytes() == recon.tobytes()
        for dr, dc in ((0, 1), (1, 0), (1, 1)):
            assert np.array_equal(up[:, dr::2, dc::2], up[:, ::2, ::2])
    with pytest.raises(ValueError, match="15 entries, expected 16"):
        schemes._phi_rows(rvq, IndexStack((stack.indices[0][:-1],)), latent.shape)


def test_phi_rows_broadcasts_a_one_codeword_hyper_grid():
    latent = LatentGrid(rng_for(11).standard_normal((2, 16, 24)))
    rvq = ResidualVQ(stage_codebooks=(Codebook(codewords=np.array([[0.5, -1.0]])),))
    rows = schemes._phi_rows(rvq, extract_hyper_context(latent, rvq), latent.shape)
    up = _grid_of_rows(rows, 2, 8, 12)
    assert np.array_equal(up, np.broadcast_to([[[0.5]], [[-1.0]]], (2, 8, 12)))


def test_hyper_geometry_must_divide_by_four(rd_model):
    cfg = SourceConfig(channels=1, height=64, width=64, rho=0.5, seed=42)
    latents = [gauss_markov_sample(cfg, index=i) for i in range(12)]
    predictor, qset = train_rd_model(
        latents, (4,), hyper_stage_sizes=(4,), iterations=4, seed=1
    )
    bad = LatentGrid(np.zeros((1, 6, 6)))
    with pytest.raises(ValueError, match="multiple of 4"):
        rd_encode(bad, predictor, qset, m=1)


def _random_model(c, scheme, hyper=False, seed=0):
    """A two-stage model of standard normal codewords and maps, so every
    mantissa bit is live; stage sizes differ per group and stage."""
    rng = rng_for(seed)

    def rvq(sizes):
        return ResidualVQ(tuple(Codebook(rng.standard_normal((k, c))) for k in sizes))

    qset = QuantizerSet(
        groups=tuple(rvq((2 + i, 3)) for i in range(4)), hyper=rvq((4, 1)) if hyper else None
    )
    if scheme == "iq":
        return None, qset
    dims = schemes._context_dims(c, hyper)
    return ContextPredictor(
        weights=tuple(rng.standard_normal((d, 2 * c)) for d in dims),
        biases=tuple(rng.standard_normal(2 * c) for _ in dims),
    ), qset


def _model_arrays(predictor, qset) -> list[np.ndarray]:
    """Every array of a model in EFMD order: codewords, hyper first, then maps."""
    rvqs = ((qset.hyper,) if qset.hyper is not None else ()) + qset.groups
    arrays = [cb.codewords for rvq in rvqs for cb in rvq.stage_codebooks]
    if predictor is not None:
        arrays += [a for pair in zip(predictor.weights, predictor.biases) for a in pair]
    return arrays


_KINDS = [("iq", False), ("rd", False), ("rd", True)]
_MODEL_KINDS = pytest.mark.parametrize("scheme,hyper", _KINDS)


@_MODEL_KINDS
@pytest.mark.parametrize("c", [1, 2])
def test_model_file_round_trip(tmp_path, scheme, hyper, c):
    """read(write(model)) is bit-identical to the model, write -> read ->
    write gives the same bytes, and the layout is the header, the u32 stage
    sizes and every array as ``<f8``."""
    predictor, qset = _random_model(c, scheme, hyper)
    path = tmp_path / "m.efmd"
    write_model_file(path, qset, predictor)
    back_predictor, back = read_model_file(path)
    assert (back_predictor is None) == (scheme == "iq")
    assert (back.hyper is None) == (not hyper)
    assert [(a.dtype, a.shape, a.tobytes()) for a in _model_arrays(back_predictor, back)] == [
        (a.dtype, a.shape, a.tobytes()) for a in _model_arrays(predictor, qset)
    ]
    again = tmp_path / "again.efmd"
    write_model_file(again, back, back_predictor)
    raw = path.read_bytes()
    assert again.read_bytes() == raw
    books = _model_arrays(None, qset)
    head = b"EFMD" + bytes([1, scheme == "rd"]) + c.to_bytes(4, "little") + bytes([hyper, 2])
    sizes = b"".join(cw.shape[0].to_bytes(4, "little") for cw in books)
    body = b"".join(a.astype("<f8").tobytes() for a in _model_arrays(predictor, qset))
    assert raw == head + sizes + body


def test_write_model_file_rejects_parts_that_disagree(tmp_path):
    """Hyper presence and channel count are one field each in the file, so
    the writer refuses a model whose parts disagree on them, and the stage
    count is a byte."""
    path = tmp_path / "m.efmd"
    predictor, qset = _random_model(1, "rd")
    _, hyper_qset = _random_model(1, "iq", hyper=True)
    hyper_predictor, _ = _random_model(1, "rd", hyper=True)
    wide_predictor, _ = _random_model(2, "rd")
    cases = [
        (hyper_qset, None, "iq takes no hyper grid"),
        (hyper_qset, predictor, "the predictor takes no hyper grid"),
        (qset, hyper_predictor, "predictor uses a hyper grid but quantizer set has none"),
        (qset, wide_predictor, "predictor has 2 channels, codebooks 1"),
    ]
    deep = ResidualVQ(tuple(Codebook(np.zeros((1, 1))) for _ in range(256)))
    cases.append((QuantizerSet(groups=(deep,) * 4), None, "256 stages; a model file holds"))
    for q, p, match in cases:
        with pytest.raises(ValueError, match=match):
            write_model_file(path, q, p)
    assert not path.exists()


@_MODEL_KINDS
@pytest.mark.parametrize("c", [1, 2])
def test_model_file_rejects_corruption(tmp_path, scheme, hyper, c):
    """Every malformed file is a ValueError: a bad header, a stage size of
    0 or a length other than the header and stage sizes imply is caught
    before any array is built, and a non-finite codeword or weight by the
    codebook's or predictor's own check."""
    predictor, qset = _random_model(c, scheme, hyper)
    path = tmp_path / "m.efmd"
    write_model_file(path, qset, predictor)
    raw = path.read_bytes()
    bad = tmp_path / "bad.efmd"

    def rejects(data, match):
        bad.write_bytes(data)
        with mock.patch.object(np, "frombuffer", wraps=np.frombuffer) as spy:
            with pytest.raises(ValueError, match=match):
                read_model_file(bad)
        return spy.call_count

    needs = "bytes where its header needs"
    for n in range(len(raw)):
        assert rejects(raw[:n], f"{n} bytes") == 0
    assert rejects(raw + b"\x00", f"{len(raw) + 1} {needs} {len(raw)}") == 0
    assert rejects(b"ZZZZ" + raw[4:], "magic") == 0
    for version in (0, 2):
        assert rejects(raw[:4] + bytes([version]) + raw[5:], f"model version {version}") == 0
    assert rejects(raw[:5] + b"\x02" + raw[6:], "bad header: scheme 2,") == 0
    assert rejects(raw[:10] + b"\x02" + raw[11:], "hyper flag 2,") == 0
    iq_with_flag = raw[:5] + b"\x00" + raw[6:10] + b"\x01" + raw[11:]
    assert rejects(iq_with_flag, r"bad header: scheme 0, C=\d+, hyper flag 1,") == 0
    for value, match in ((0, "C=0,"), (2**32 - 1, needs)):
        assert rejects(raw[:6] + value.to_bytes(4, "little") + raw[10:], match) == 0
    assert rejects(raw[:11] + b"\x00" + raw[12:], "S=0") == 0
    for value, match in ((0, "a stage size is 0"), (2**32 - 1, needs)):
        assert rejects(raw[:12] + value.to_bytes(4, "little") + raw[16:], match) == 0

    table = 12 + 4 * 2 * (4 + hyper)
    sites = [(table, "codewords must be finite")]
    if predictor is not None:  # group 2's first weight
        books = sum(cw.size for cw in _model_arrays(None, qset))
        sites.append((table + 8 * (books + 2 * c * (c * hyper + 1)),
                      "group 2 weights and bias must be finite"))
    for at, match in sites:
        for value in (float("nan"), float("inf")):
            rejects(raw[:at] + np.array(value, dtype="<f8").tobytes() + raw[at + 8:], match)


@settings(max_examples=200)
@given(data=st.data())
def test_model_file_mutations_raise_only_value_error(tmp_dir, mutate, data):
    scheme, hyper = data.draw(st.sampled_from(_KINDS))
    predictor, qset = _random_model(data.draw(st.integers(1, 2)), scheme, hyper)
    path = tmp_dir / "m.efmd"
    write_model_file(path, qset, predictor)
    mutated, must_fail = mutate(data, path.read_bytes())
    path.write_bytes(mutated)
    try:
        read_model_file(path)
    except ValueError:
        return
    assert not must_fail


@pytest.fixture(scope="module")
def cm_model():
    return train_cm_model(_corpus(12), delta=0.5, seed=3)


def test_cm_round_trip_is_bit_exact(cm_model, holdout):
    config = SchemeConfig(scheme="cm", delta=0.5)
    coded = cm_encode(holdout, cm_model, config)
    assert coded.scheme == "cm"
    assert coded.group_streams is not None and len(coded.group_streams) == 4
    recon = cm_decode(replace(coded, reconstruction=None), cm_model, config)
    assert np.array_equal(recon.data, coded.reconstruction.data)


def test_cm_rate_is_the_measured_stream_size(cm_model, holdout):
    config = SchemeConfig(scheme="cm", delta=0.5)
    coded = cm_encode(holdout, cm_model, config)
    assert coded.rate_bits == sum(s.bits for s in coded.group_streams)
    assert coded.self_information_bits is not None
    # measured payload tracks the model's own code-length estimate
    assert coded.rate_bits <= coded.self_information_bits * 1.01 + 4 * 32 + 64


def test_cm_finer_delta_costs_more_and_distorts_less(cm_model, holdout):
    fine = cm_encode(holdout, cm_model, SchemeConfig(scheme="cm", delta=0.125))
    coarse = cm_encode(holdout, cm_model, SchemeConfig(scheme="cm", delta=1.0))
    mse_f = float(np.mean((fine.reconstruction.data - holdout.data) ** 2))
    mse_c = float(np.mean((coarse.reconstruction.data - holdout.data) ** 2))
    assert fine.rate_bits > coarse.rate_bits
    assert mse_f < mse_c


def test_cm_clamps_out_of_support_symbols(cm_model):
    data = np.zeros((1, 8, 8))
    data[0, 3, 3] = 500.0  # far outside the [-255, 255] integer support at this delta
    spike = LatentGrid(data)
    config = SchemeConfig(scheme="cm", delta=0.125)
    coded = cm_encode(spike, cm_model, config)
    assert coded.clamp_count > 0
    recon = cm_decode(replace(coded, reconstruction=None), cm_model, config)
    assert np.array_equal(recon.data, coded.reconstruction.data)


def test_cm_rejects_hyper_predictors(cm_model, holdout):
    hyper = ContextPredictor(
        weights=tuple(np.zeros((i + 1, 2)) for i in range(4)),
        biases=tuple(np.zeros(2) for _ in range(4)),
    )
    config = SchemeConfig(scheme="cm", delta=0.5)
    with pytest.raises(ValueError, match="hyper"):
        cm_encode(holdout, hyper, config)
    coded = replace(cm_encode(holdout, cm_model, config), reconstruction=None)
    with pytest.raises(ValueError, match="hyper"):
        cm_decode(coded, hyper, config)


def test_cm_scale_table_is_geometric_with_log_midpoint_bounds():
    assert _CM_LEVELS.size == 64 and _CM_LEVELS[0] == schemes.SIGMA_FLOOR
    assert np.allclose(_CM_LEVELS[1:] / _CM_LEVELS[:-1], 1.19, rtol=1e-14, atol=0.0)
    assert 57.0 < _CM_LEVELS[-1] < 58.0
    assert np.all((_CM_LEVELS[:-1] < _CM_BOUNDS) & (_CM_BOUNDS < _CM_LEVELS[1:]))
    mid = 0.5 * (np.log(_CM_LEVELS[:-1]) + np.log(_CM_LEVELS[1:]))
    assert np.allclose(np.log(_CM_BOUNDS), mid, rtol=0.0, atol=1e-12)


def test_cm_tables_are_built_once_per_delta_and_read_only():
    freq, cum, (freq_rows, cum_rows, start_rows) = _cm_tables(0.5)
    assert _cm_tables(0.5)[0] is freq
    assert freq.shape == (64, 2 * CM_SUPPORT_RADIUS + 1) and cum.shape == (64, freq.shape[1] + 1)
    assert list(map(list, freq_rows)) == freq.tolist()
    assert list(map(list, cum_rows)) == cum.tolist()
    # Entry b of every level's start row is the symbol holding slot b << 8.
    assert len(start_rows) == 64
    for row, start in zip(cum.tolist(), start_rows):
        assert len(start) == 256
        for b, s in enumerate(start):
            assert row[s] <= b << 8 < row[s + 1]
    with pytest.raises(ValueError):
        freq[0, 0] = 2
    with pytest.raises(ValueError):
        cum[0, 0] = 2


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    channels=st.integers(1, 3),
    log_sigma=st.floats(-9.0, 5.0),
    spread=st.floats(0.0, 2.0),
    delta=st.sampled_from([0.125, 0.5, 1.0, 2.0]),
)
def test_cm_encoder_codes_each_symbol_under_its_nearest_scale_level(
    seed, channels, log_sigma, spread, delta
):
    """Every position's row is the level nearest its predicted sigma on a log
    scale, ``bounds[r-1] < sigma <= bounds[r]``, and the (freq, cum) the
    encoder codes it with are that level's ``gaussian_table_batch`` row."""
    rng = rng_for(seed)
    c = channels
    predictor = ContextPredictor(
        weights=tuple(np.hstack([rng.normal(0, 0.3, (c * i, c)), rng.normal(0, spread, (c * i, c))])
                      for i in range(4)),
        biases=tuple(np.concatenate([rng.normal(0, 1, c), log_sigma + rng.normal(0, spread, c)])
                     for _ in range(4)),
    )
    latent = LatentGrid(rng.normal(0, 2.0, (c, 8, 8)))
    encode_core = schemes._encode_core
    with mock.patch.object(schemes, "_encode_core", wraps=encode_core) as spy:
        coded = cm_encode(latent, predictor, SchemeConfig(scheme="cm", delta=delta))
    ref_freq, ref_cum = gaussian_table_batch(_CM_LEVELS, delta)
    decoded = schemes.partition_quadtree(coded.reconstruction)
    n = decoded[0].shape[0]
    for i, call in enumerate(spy.call_args_list):
        freqs, cums, precision = call.args
        assert precision == schemes.CM_PRECISION
        mu, sigma = predictor.predict(i, schemes._context_for(i, decoded[:i], None, n))
        sigma = sigma.ravel()
        level = np.count_nonzero(_CM_BOUNDS[None, :] < sigma[:, None], axis=1)
        assert np.array_equal(_cm_rows(sigma), level)
        syms = (np.rint((decoded[i] - mu) / delta).astype(np.int64) + CM_SUPPORT_RADIUS).ravel()
        assert freqs == ref_freq[level, syms].tolist()
        assert cums == ref_cum[level, syms].tolist()


@pytest.fixture(scope="module")
def cm_blobs(cm_model, holdout):
    config = SchemeConfig(scheme="cm", delta=0.5)
    coded = cm_encode(holdout, cm_model, config)
    return coded, [s.to_bytes() for s in coded.group_streams]


@settings(max_examples=150, deadline=None)
@given(
    group=st.integers(0, 3),
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
    cut=st.one_of(st.none(), st.integers(0, 10**6)),
    tail=st.binary(max_size=8),
)
def test_cm_decode_rejects_mutated_streams_with_value_error(
    cm_model, cm_blobs, group, flips, cut, tail
):
    coded, blobs = cm_blobs
    raw = bytearray(blobs[group])
    for pos, mask in flips:
        raw[pos % len(raw)] ^= mask
    if cut is not None:
        raw = raw[: cut % (len(raw) + 1)]
    raw += tail
    streams = list(coded.group_streams)
    try:
        streams[group] = RansStream.from_bytes(bytes(raw))
        received = replace(coded, reconstruction=None, group_streams=tuple(streams))
        recon = cm_decode(received, cm_model, SchemeConfig(scheme="cm", delta=0.5))
    except ValueError:
        return
    assert recon.shape == coded.shape


def test_cm_decode_rejects_a_wrong_stream_count(cm_model, cm_blobs):
    coded, _ = cm_blobs
    config = SchemeConfig(scheme="cm", delta=0.5)
    streams = coded.group_streams
    for received, count in ((streams[:3], 3), (streams + streams[:1], 5)):
        with pytest.raises(ValueError, match=f"{count} byte streams, expected 4"):
            cm_decode(replace(coded, reconstruction=None, group_streams=received), cm_model, config)


def test_cm_decode_rejects_odd_spatial_dims(cm_model, cm_blobs, monkeypatch):
    """A 33x33 shape has the 16x16 groups of the 32x32 holdout, so its
    stream counts pass; the decoder rejects it before decoding any stream."""
    coded, _ = cm_blobs
    received = replace(coded, reconstruction=None, shape=(1, 33, 33))
    calls = []
    monkeypatch.setattr(schemes, "_decode_core", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="latent 33x33 must be a multiple of 2"):
        cm_decode(received, cm_model, SchemeConfig(scheme="cm", delta=0.5))
    assert calls == []


def test_cm_is_deterministic(cm_model, holdout):
    config = SchemeConfig(scheme="cm", delta=0.25)
    a = cm_encode(holdout, cm_model, config)
    b = cm_encode(holdout, cm_model, config)
    assert a.rate_bits == b.rate_bits
    for sa, sb in zip(a.group_streams, b.group_streams):
        assert sa.payload == sb.payload and sa.state == sb.state


def test_phase_timers_expose_the_entropy_coding_gap(rd_model, cm_model, holdout):
    predictor, qset = rd_model
    rd_timer = PhaseTimer()
    rd_encode(holdout, predictor, qset, m=1, timer=rd_timer)
    cm_timer = PhaseTimer()
    cm_encode(holdout, cm_model, SchemeConfig(scheme="cm", delta=0.25), timer=cm_timer)
    rd_ms = rd_timer.as_dict()
    cm_ms = cm_timer.as_dict()
    for phases in (rd_ms, cm_ms):
        assert set(phases) == {"quantize", "autoregressive", "pack", "entropy_code", "tables"}
    assert rd_ms["entropy_code"] == rd_ms["tables"] == 0.0
    assert cm_ms["entropy_code"] > 0.0
    assert cm_ms["tables"] > 0.0
    assert rd_ms["quantize"] > 0.0


def test_coded_latent_carries_shape_and_m(rd_model, holdout):
    predictor, qset = rd_model
    coded = rd_encode(holdout, predictor, qset, m=1)
    assert isinstance(coded, CodedLatent)
    assert coded.shape == holdout.shape
    assert coded.m == 1
    assert coded.delta is None
