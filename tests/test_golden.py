"""Golden digests: tiny fixed-seed models must train and code to known bytes.

Training, nearest-neighbour search, packing, table building and the range
coder are all promised to be deterministic.  These constants pin that
promise: any change to the numerics of a C=1 rd/iq/cm round trip, or of a
C=4 model with a hyper grid (its trained codebooks and predictors as well as
its streams), changes a digest: a reordered sum, a different tie break, a
changed table or seeding.  A deliberate change of format or numerics must
update them in the same commit and say why.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from rvqcodec import schemes
from rvqcodec.bitstream import StreamHeader, pack, unpack
from rvqcodec.grids import LATENT_DOWNSAMPLE, LatentGrid, SourceConfig, gauss_markov_sample
from rvqcodec.rans import RansStream
from rvqcodec.schemes import (
    CM_SUPPORT_RADIUS,
    CodedLatent,
    SchemeConfig,
    cm_decode,
    cm_encode,
    iq_decode,
    iq_encode,
    rd_decode,
    rd_encode,
    train_cm_model,
    train_iq_model,
    train_rd_model,
    write_predictor_file,
)

SIZE = 32
STAGES = (16, 16)
DELTAS = (1.0, 0.25)

GOLDEN = {
    "rd-m1-stream": "18b7bf4e7016006f5412ea82d5a6e3c68219cbe2bc4e9bea050a500aaa4b27cf",
    "rd-m1-latent": "9cb794bab4edfd25b183c59a762e7fd86622326af629833e61a6887f5a581856",
    "rd-m2-stream": "72fbfafee06a13a525898701ab13bd50270ec26a6cc872849870a4d6750ac472",
    "rd-m2-latent": "e913ea0c0b127f34f73fd5f81f5fc087786abfc631dfaf4146385e985d874a01",
    "iq-m1-stream": "5883baff12c447849ac3801e36c299212fc2539ddbaa7cf9afc4f8177f97ae9c",
    "iq-m1-latent": "3859ed890a1f6b8d42d84211a78e94533f0a132fef04381270cabeb2e7b82879",
    "iq-m2-stream": "146c20f2503e00c9aaaf83877d333139440662dd75a402bee25e9682d3ae9996",
    "iq-m2-latent": "f1c097841580a6c608f146c9565cac8119d1dc947538e053df3a8d6648d277c1",
    "cm-d1.0-stream": "4c781026fcfd25a3f78aaf3495f4c3150fc734cdc3f0ba5b3ac99024e2ad3baa",
    "cm-d1.0-latent": "55107b01434005444c4762020425faaf5c8e150fade1dc254d1b6d64298da865",
    "cm-d0.25-stream": "0983bf5ca5de6639adf8add2eacc1a331d9d35e14b8a8243784e144456261c8f",
    "cm-d0.25-latent": "e50f46751c1a52d1d0968c005dd6a79db4e287b2cc83aca2658ad2ab5c94014e",
    "cm-outliers-stream": "120fcd2a2b05c9a5db37ac17d57dd116965862d18464be30bd260388a9a244fd",
    "cm-outliers-latent": "82c4346d22a2bf53891159d0ad41b1107ed6bc6765fd6e6ce7171b7157ac25f9",
}


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _latent_bytes(latent) -> bytes:
    return np.ascontiguousarray(latent.data, dtype="<f8").tobytes()


def _fixed_round_trip(scheme, latent, model, m):
    predictor, qset = model if scheme == "rd" else (None, model)
    header = StreamHeader(
        height=latent.height * LATENT_DOWNSAMPLE, width=latent.width * LATENT_DOWNSAMPLE, q=m
    )
    if scheme == "rd":
        coded = rd_encode(latent, predictor, qset, m)
    else:
        coded = iq_encode(latent, qset, m)
    stream = pack(header, coded.hyper_stack, coded.group_stacks, qset)
    _, hyper_stack, group_stacks = unpack(stream, qset)
    received = CodedLatent(
        scheme=scheme, shape=coded.shape, reconstruction=None, rate_bits=0.0, m=m,
        group_stacks=group_stacks, hyper_stack=hyper_stack,
    )
    if scheme == "rd":
        decoded = rd_decode(received, predictor, qset)
    else:
        decoded = iq_decode(received, qset)
    assert _latent_bytes(decoded) == _latent_bytes(coded.reconstruction)
    return stream.header.to_bytes() + stream.payload, decoded


def _cm_round_trip(latent, predictor, delta):
    config = SchemeConfig(scheme="cm", delta=delta)
    coded = cm_encode(latent, predictor, config)
    blobs = [s.to_bytes() for s in coded.group_streams]
    received = CodedLatent(
        scheme="cm", shape=coded.shape, reconstruction=None, rate_bits=0.0, delta=delta,
        group_streams=tuple(RansStream.from_bytes(b) for b in blobs),
    )
    decoded = cm_decode(received, predictor, config)
    assert _latent_bytes(decoded) == _latent_bytes(coded.reconstruction)
    return b"".join(blobs), decoded


def _training_set():
    return [
        gauss_markov_sample(SourceConfig(1, SIZE, SIZE, rho=0.9, seed=5), index=i)
        for i in range(6)
    ]


def _golden_latent():
    return gauss_markov_sample(SourceConfig(1, SIZE, SIZE, rho=0.9, seed=6), index=0)


def _outlier_latent():
    """The golden latent with spikes of both signs: +-1000 is clamped to the
    support edge, +-60 and +-40 are coded but lie far outside the table
    window of a unit-delta group.  The first four sit in group 1, whose sigma
    field is constant (its context is the bias alone)."""
    data = _golden_latent().data.copy()
    data[0, 0, 0], data[0, 0, 2] = 1000.0, -1000.0
    data[0, 2, 0], data[0, 2, 2] = 60.0, -60.0
    data[0, 31, 31], data[0, 31, 29] = 40.0, -40.0
    return LatentGrid(data)


def _compute_digests():
    train = _training_set()
    latent = _golden_latent()
    rd_model = train_rd_model(train, STAGES, iterations=10, seed=3)
    iq_qset = train_iq_model(train, STAGES, iterations=10, seed=3)
    out = {}
    for scheme, model in (("rd", rd_model), ("iq", iq_qset)):
        for m in (1, 2):
            raw, decoded = _fixed_round_trip(scheme, latent, model, m)
            out[f"{scheme}-m{m}-stream"] = _sha(raw)
            out[f"{scheme}-m{m}-latent"] = _sha(_latent_bytes(decoded))
    for delta in DELTAS:
        predictor = train_cm_model(train, delta=delta, seed=3)
        raw, decoded = _cm_round_trip(latent, predictor, delta)
        out[f"cm-d{delta}-stream"] = _sha(raw)
        out[f"cm-d{delta}-latent"] = _sha(_latent_bytes(decoded))
        if delta == 1.0:
            raw, decoded = _cm_round_trip(_outlier_latent(), predictor, delta)
            out["cm-outliers-stream"] = _sha(raw)
            out["cm-outliers-latent"] = _sha(_latent_bytes(decoded))
    return out


@pytest.fixture(scope="module")
def digests():
    return _compute_digests()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]


# C = 4 with a hyper grid: the vector (cdist) search, k-means++ seeding over
# 4-D rows, the hyper path of rd and the multi-channel predictor heads.
VEC_CHANNELS = 4
VEC_STAGES = (16, 16)
VEC_DELTA = 0.5

GOLDEN_VECTOR = {
    "cm-d0.5-latent": "5784f6d31f4bd32a29a006afb2f9df29ef4923aedfc978f0b08d4839fb242cd9",
    "cm-d0.5-predictor": "1dd7f132c643e2b3131382ff356a1f72ce4c52d589bb57ed902f6e7a28402208",
    "cm-d0.5-stream": "5a84eebf6def9e5686b2b303958bfddd9b329c6ee972e35d863840d92b4f80e1",
    "iq-codebooks": "d764b098c0cb6695b100b7674392002c13455542c3bd62d607f804ae7d020ba0",
    "iq-m1-latent": "6d8145c80fa8862bb84a485a9199cf70cddcf575a767453f91152a2d22a27bd7",
    "iq-m1-stream": "38516743974e51405d2f443931ee600c8faf396d8f75c6b148242b27392f109e",
    "iq-m2-latent": "63089a5fe9e5174078b7b72dc0fc161f369764d16bf7f8d67598752a0f6bbf91",
    "iq-m2-stream": "97366d4748215a9335262adb745d9bcd41da89a7a45d89d19d6bf664f752bdff",
    "rd-closed-m1-codebooks": "2856cd67891b4f54839d9ebb616b416ee48aa41b1df2cee8e5bd965d51d4f450",
    "rd-closed-m1-predictor": "c94b3e7aef45ca7c5eae67b721349908298f2000cd7610eac598e9346dfe5196",
    "rd-codebooks": "2cf2b0da27e7c26af138671547fdc303f60a1b3b2aa24d8529400c0832703bd0",
    "rd-m1-latent": "d4ccac498aa37d1c63fc661bdeef8384860bb77ec197866862879c04e9df1fb9",
    "rd-m1-stream": "87a86b9de96b1cec0b38525ff5c8f91b34996c1da31c5b528bff617c19fde8a1",
    "rd-m2-latent": "f4edcb4d26510016e784b30031f38d6cb506168c69366a4b7bba9db567cce906",
    "rd-m2-stream": "5c1a79933dfa2f6f30ad408e8637f5f646f04ae646fb54471f1f478b8d8b9dcf",
    "rd-predictor": "9fc250441730157fe4b93b2847b24872c3a0ed00c1754e3c01b0378215729df7",
}


def _vector_training_set():
    return [
        gauss_markov_sample(SourceConfig(VEC_CHANNELS, SIZE, SIZE, rho=0.9, seed=7), index=i)
        for i in range(6)
    ]


def _codebook_bytes(qset) -> bytes:
    rvqs = qset.groups + ((qset.hyper,) if qset.hyper is not None else ())
    return b"".join(
        np.ascontiguousarray(cb.codewords, dtype="<f8").tobytes()
        for rvq in rvqs
        for cb in rvq.stage_codebooks
    )


def _predictor_bytes(predictor, path) -> bytes:
    write_predictor_file(path, predictor)
    return path.read_bytes()


def _compute_vector_digests(tmp):
    train = _vector_training_set()
    latent = gauss_markov_sample(SourceConfig(VEC_CHANNELS, SIZE, SIZE, rho=0.9, seed=8), index=0)
    rd_model = train_rd_model(
        train, VEC_STAGES, hyper_stage_sizes=VEC_STAGES, iterations=10, seed=3
    )
    # Closed loop through the first stage only: the predictor of groups 2-4
    # sees context decoded at m = 1.
    rd_m1_model = train_rd_model(
        train, VEC_STAGES, hyper_stage_sizes=VEC_STAGES, m=1, iterations=10, seed=3
    )
    iq_qset = train_iq_model(train, VEC_STAGES, iterations=10, seed=3)
    cm_predictor = train_cm_model(train, delta=VEC_DELTA, seed=3)
    out = {
        "rd-codebooks": _sha(_codebook_bytes(rd_model[1])),
        "rd-predictor": _sha(_predictor_bytes(rd_model[0], tmp / "rd.efpr")),
        "rd-closed-m1-codebooks": _sha(_codebook_bytes(rd_m1_model[1])),
        "rd-closed-m1-predictor": _sha(_predictor_bytes(rd_m1_model[0], tmp / "rd1.efpr")),
        "iq-codebooks": _sha(_codebook_bytes(iq_qset)),
        f"cm-d{VEC_DELTA}-predictor": _sha(_predictor_bytes(cm_predictor, tmp / "cm.efpr")),
    }
    for scheme, model in (("rd", rd_model), ("iq", iq_qset)):
        for m in (1, 2):
            raw, decoded = _fixed_round_trip(scheme, latent, model, m)
            out[f"{scheme}-m{m}-stream"] = _sha(raw)
            out[f"{scheme}-m{m}-latent"] = _sha(_latent_bytes(decoded))
    raw, decoded = _cm_round_trip(latent, cm_predictor, VEC_DELTA)
    out[f"cm-d{VEC_DELTA}-stream"] = _sha(raw)
    out[f"cm-d{VEC_DELTA}-latent"] = _sha(_latent_bytes(decoded))
    return out


@pytest.fixture(scope="module")
def vector_digests(tmp_path_factory):
    return _compute_vector_digests(tmp_path_factory.mktemp("golden-vector"))


@pytest.mark.parametrize("name", sorted(GOLDEN_VECTOR))
def test_golden_vector_digest(vector_digests, name):
    assert vector_digests[name] == GOLDEN_VECTOR[name]


def test_cm_outliers_are_clamped_and_decode_outside_the_window(monkeypatch):
    """The outlier stream reaches both out-of-window decoder branches."""
    decode_core = schemes._decode_core
    seen = []

    def spy(stream, freq_rows, cum_rows, row_of, lo, precision):
        syms = decode_core(stream, freq_rows, cum_rows, row_of, lo, precision)
        seen.append((lo, lo + len(freq_rows[0]), syms))
        return syms

    monkeypatch.setattr(schemes, "_decode_core", spy)
    predictor = train_cm_model(_training_set(), delta=1.0, seed=3)
    config = SchemeConfig(scheme="cm", delta=1.0)
    coded = cm_encode(_outlier_latent(), predictor, config)
    assert coded.clamp_count > 0
    decoded = cm_decode(replace(coded, reconstruction=None), predictor, config)
    assert _latent_bytes(decoded) == _latent_bytes(coded.reconstruction)
    lo, hi, syms = seen[0]
    assert min(syms) < lo and max(syms) >= hi
    assert {0, 2 * CM_SUPPORT_RADIUS} <= set(syms)  # the clamped spikes


# C = 4 with 128-codeword stages, group and hyper: every search of training
# and encoding takes the screened search of ``quantizers._nearest``
# (K >= 64, K * C >= 512).  Recorded with the plain cdist search, so the
# screen is pinned to its bytes.  The 1,792 training rows of a group make
# 1.75 screened blocks.
SCREEN_STAGES = (128, 128)

GOLDEN_SCREEN = {
    "iq-codebooks": "af25adfc2a9a08618819b9a331d0498b857ec588972b53df031a881a8276d9ec",
    "iq-m1-latent": "187d7fa9ac20d0692ec60044f14af28c3cf0a9a65a9ee4430612aae4d0f596a6",
    "iq-m1-stream": "1800acd8445eb2432a12804df1766e9093b6134f4c8e8bd92a8c444cc9dc6d08",
    "iq-m2-latent": "62fa96b91013df0072784e57ffb1e8ba9189d5f2cb652802db1783abfe6bf384",
    "iq-m2-stream": "cedbaf570ab215613bf49baea83d37a952abd7865c76149b2b60f63a3f757887",
    "rd-codebooks": "75b9ce00e0ea8df1897ae2a2f2964205ac2975f6e72a87493643fa06b2d5f732",
    "rd-m1-latent": "5f9b3a359e2ae816f233852c0be33b6883497e74a74479ad04bbf3462917b305",
    "rd-m1-stream": "db20977bcb7244aea7b3c7cfdaffd10d739313d7f4afb01ccfc80a64859caeff",
    "rd-m2-latent": "5c9f8a4dd5aa6382d57c785bca3d72207e1d6e9c5fe5f8ab422d2abc4f465d53",
    "rd-m2-stream": "f4388ef76f7b625257134fac969b784dfeb75cfed1734392bd9388d194c49140",
    "rd-predictor": "e23fe798cddb45fc3ed5f9a4a1cfec6b99612a760a91fbe291b161c615aa001c",
}


def _compute_screen_digests(tmp):
    train = [
        gauss_markov_sample(SourceConfig(VEC_CHANNELS, SIZE, SIZE, rho=0.9, seed=9), index=i)
        for i in range(7)
    ]
    latent = gauss_markov_sample(SourceConfig(VEC_CHANNELS, SIZE, SIZE, rho=0.9, seed=10), index=0)
    rd_model = train_rd_model(
        train, SCREEN_STAGES, hyper_stage_sizes=SCREEN_STAGES, iterations=10, seed=4
    )
    iq_qset = train_iq_model(train, SCREEN_STAGES, iterations=10, seed=4)
    out = {
        "rd-codebooks": _sha(_codebook_bytes(rd_model[1])),
        "rd-predictor": _sha(_predictor_bytes(rd_model[0], tmp / "rd.efpr")),
        "iq-codebooks": _sha(_codebook_bytes(iq_qset)),
    }
    for scheme, model in (("rd", rd_model), ("iq", iq_qset)):
        for m in (1, 2):
            raw, decoded = _fixed_round_trip(scheme, latent, model, m)
            out[f"{scheme}-m{m}-stream"] = _sha(raw)
            out[f"{scheme}-m{m}-latent"] = _sha(_latent_bytes(decoded))
    return out


@pytest.fixture(scope="module")
def screen_digests(tmp_path_factory):
    return _compute_screen_digests(tmp_path_factory.mktemp("golden-screen"))


@pytest.mark.parametrize("name", sorted(GOLDEN_SCREEN))
def test_golden_screen_digest(screen_digests, name):
    assert screen_digests[name] == GOLDEN_SCREEN[name]
