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
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rvqcodec
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
from rvqcodec.schemes import _cm_tables

SIZE = 32
STAGES = (16, 16)
DELTAS = (1.0, 0.25)

GOLDEN = {
    "rd-m1-stream": "250c38f76633a2085dda7540ad07a633950b5e9534bfff724ec4bd7b062b53c8",
    "rd-m1-latent": "4179a60706493e7a78f3b0094f08767400c487883853cf9a857fd8e72b1ab742",
    "rd-m2-stream": "f4c93797bfbaf17772548f9714bfa3bd7e9c98c6c7287cc1de1eb13eb73cb047",
    "rd-m2-latent": "d66818fa277e133cc5263fd09569693f3e1fafbc7959ce3d683c53b83da85888",
    "iq-m1-stream": "65d7105628464c423468a9737bd2522c9094ccd48fc0a8b77e636791981c252c",
    "iq-m1-latent": "480d0eea24082a05b41de4419646ed76d7815e3214c271473141531753f67d5f",
    "iq-m2-stream": "214454b84e1e484712a150c18e7cef728ef9a746096596b200cb36d38d009e5a",
    "iq-m2-latent": "b2ad077332180b2348e8afedc6aee53c127a27ddc5d09e84d6d871d16f3c2958",
    "cm-d1.0-stream": "ac40ee3e9f10cd6491ba98857775e53a34abc6ddfbe495ca854903fc69228c0a",
    "cm-d1.0-latent": "55107b01434005444c4762020425faaf5c8e150fade1dc254d1b6d64298da865",
    "cm-d0.25-stream": "dec19603e6261b6eae550ac39882675e86aebae41c6e076529b1989a6096f455",
    "cm-d0.25-latent": "e50f46751c1a52d1d0968c005dd6a79db4e287b2cc83aca2658ad2ab5c94014e",
    "cm-outliers-stream": "bf6acccb3f05a4f153f50efca85ee92855cd34dbcd7792667e120435de7b8ff8",
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
    support edges, +-60 and +-40 are coded in bins at the floor mass of 1.
    The first four sit in group 1, whose sigma field is constant (its
    context is the bias alone)."""
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
    "cm-d0.5-predictor": "c5bea7f35354119df5cab8839c61445665f784dbbe87deaf66215ac8d91458f7",
    "cm-d0.5-stream": "70b35ff46d7ba33fa69db49abd43a5d246a74bdeccd9aa27d7d311448cc4dadd",
    "iq-codebooks": "0030a61d6b23d8b777b3950fa128144d30c3a349c082e681cd893d26cf4e10a8",
    "iq-m1-latent": "b49cefe2b61fe293f82883792ddb8c990b41a8f735f81c7d99c3647789c2f90c",
    "iq-m1-stream": "f58ceabda039fe1305a06d871e4d7837dedf6b4ca96d0f456108f5f8a450d069",
    "iq-m2-latent": "27a1d1a12c04daf8a176115d3e8b79832a599fbf647415641bfdaccb9a27e126",
    "iq-m2-stream": "ef4540a2cee2d661d2c118b1a29f3898831ed6d7a2e8bd77c237b65f58d5faab",
    "rd-closed-m1-codebooks": "ca0b496c951863cc543e68d542418b952c5f92e846a153b014714b181173bee0",
    "rd-closed-m1-predictor": "c97b3652da1dbef0c8b4f2c5e9ddf3f0650ec1083fbc08a78e2b1ae711d8f763",
    "rd-codebooks": "c69280d4d56aa4e191b30863fffd5e4df8d6e371a237032dc9838d9cc1a1ecee",
    "rd-m1-latent": "380c9b6909bc4c5f0fecc706da2555becbeff2b372e4af754d0f79168897a970",
    "rd-m1-stream": "c13cffd8a285dc8b40205d01dfb33acaa08323b7028db854c3a886962bf084af",
    "rd-m2-latent": "d79c606a5f6d8583fb63f7f42706d0e0c409d543072596cfdbaa7a1439082b5a",
    "rd-m2-stream": "baeb4bf46dcfb3ba3073cfb426c024fa3d5119d74a6f3189c0aa810a53a591e2",
    "rd-predictor": "5476ad599d45fde118f42174ec6859a51c516b07d3197824b8d0a4c972e48303",
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


def test_cm_outliers_are_clamped_and_decode_as_the_support_edges(monkeypatch):
    """The clamped +-1000 spikes of group 1 decode as symbols 0 and 510."""
    decode_core = schemes._decode_core
    seen = []

    def spy(*args):
        syms = decode_core(*args)
        seen.append(syms)
        return syms

    monkeypatch.setattr(schemes, "_decode_core", spy)
    predictor = train_cm_model(_training_set(), delta=1.0, seed=3)
    config = SchemeConfig(scheme="cm", delta=1.0)
    coded = cm_encode(_outlier_latent(), predictor, config)
    assert coded.clamp_count == 2
    decoded = cm_decode(replace(coded, reconstruction=None), predictor, config)
    assert _latent_bytes(decoded) == _latent_bytes(coded.reconstruction)
    assert seen[0][:2] == [2 * CM_SUPPORT_RADIUS, 0]


# cm's scale tables: the integer rows of all 64 levels at each delta.
GOLDEN_TABLES = {
    "d0.25-cum": "9412527ce5b0038cf9b92b3ac7c934913feab1b31eb202d4877460c13cbcb14b",
    "d0.25-freq": "b3a7946c8a75c1e338ce670ea14cb2a1cd6009ffaf39861b7690db5eb6acd8e3",
    "d0.5-cum": "6f5d118bf9dff2d779166f40137f045157a6d3dea7fa073e42a1bed5b4fdf40a",
    "d0.5-freq": "87d17a55bebb42bd9ac28b1893bfff96191af3cd2486b48c078b9c10beef0d1d",
    "d1.0-cum": "4eec31611951718a0506e8d065980e3aca109c0a0cb2332c3d1a44e0a6f460e5",
    "d1.0-freq": "4075d0c104ed4c736a70349cf740282b4a044d68c25c801fafb6918dc4d33585",
}


def _compute_table_digests():
    out = {}
    for delta in (1.0, 0.5, 0.25):
        freq, cum, _ = _cm_tables(delta)
        out[f"d{delta}-freq"] = _sha(np.ascontiguousarray(freq, dtype="<i8").tobytes())
        out[f"d{delta}-cum"] = _sha(np.ascontiguousarray(cum, dtype="<i8").tobytes())
    return out


@pytest.fixture(scope="module")
def table_digests():
    return _compute_table_digests()


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_golden_table_digest(table_digests, name):
    assert table_digests[name] == GOLDEN_TABLES[name]


_DISPATCH_DECODE = """
import hashlib, json, sys
import numpy as np
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
from rvqcodec.rans import RansStream
from rvqcodec.schemes import CodedLatent, SchemeConfig, cm_decode, read_predictor_file

cases, targets = json.loads(sys.stdin.read())
out = {"enabled": [t for t in targets if umath.__cpu_features__.get(t)], "latents": {}}
for name, case in cases.items():
    predictor = read_predictor_file(case["predictor"])
    received = CodedLatent(
        scheme="cm", shape=tuple(case["shape"]), reconstruction=None, rate_bits=0.0,
        delta=case["delta"],
        group_streams=tuple(RansStream.from_bytes(bytes.fromhex(b)) for b in case["streams"]),
    )
    try:
        decoded = cm_decode(received, predictor, SchemeConfig(scheme="cm", delta=case["delta"]))
    except ValueError as e:
        out["latents"][name] = f"ValueError: {e}"
        continue
    raw = np.ascontiguousarray(decoded.data, dtype="<f8").tobytes()
    out["latents"][name] = hashlib.sha256(raw).hexdigest()
print(json.dumps(out))
"""


def _dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets above its baseline that this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def test_cm_streams_decode_exactly_with_every_dispatch_target_disabled(tmp_path):
    """The golden C=1 cm streams, encoded here, decode to the encoder's exact
    reconstruction in a process that runs numpy at its baseline SIMD target,
    as on a CPU without the dispatched extensions."""
    targets = _dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches no target above its baseline on this CPU")
    train = _training_set()
    cases, expected = {}, {}
    for delta in DELTAS:
        predictor = train_cm_model(train, delta=delta, seed=3)
        path = tmp_path / f"cm-d{delta}.efpr"
        write_predictor_file(path, predictor)
        latents = {f"cm-d{delta}": _golden_latent()}
        if delta == 1.0:
            latents["cm-outliers"] = _outlier_latent()
        for name, latent in latents.items():
            coded = cm_encode(latent, predictor, SchemeConfig(scheme="cm", delta=delta))
            cases[name] = {
                "predictor": str(path), "delta": delta, "shape": list(coded.shape),
                "streams": [st.to_bytes().hex() for st in coded.group_streams],
            }
            expected[name] = _sha(_latent_bytes(coded.reconstruction))
    src = str(Path(rvqcodec.__file__).resolve().parent.parent)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _DISPATCH_DECODE], input=json.dumps([cases, targets]),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["enabled"] == []
    assert result["latents"] == expected


# C = 4 with 128-codeword stages, group and hyper: every search of training
# and encoding takes the screened search of ``quantizers._nearest``
# (K >= 64, K * C >= 512).  Recorded with the plain cdist search, so the
# screen is pinned to its bytes.  The 1,792 training rows of a group make
# 1.75 screened blocks.
SCREEN_STAGES = (128, 128)

GOLDEN_SCREEN = {
    "iq-codebooks": "d6035676c670ae4d7fd8f0c5d6bcee20e544fe387d45fc0bcdb68dca2119f306",
    "iq-m1-latent": "bfe5b53bc30f9f7ff2e2b84cd165be927e139f21b03b4dc9e90fc0d8853ff044",
    "iq-m1-stream": "aa67300a22e1e3c88ee487cffb509b700e4c90936c80c16594493af1e7f06772",
    "iq-m2-latent": "82a2548ec563375b19cc0e4f11b38e79fbea076cdbd84fa30dfb4f09b4eda9d1",
    "iq-m2-stream": "fea66e37a95f721c880858a9482efe4d5faa2a972401a814bb3f7488fccc94b6",
    "rd-codebooks": "55a10c1400826bf0ba0aaac339d42c109ebe22b35d45332db17683078d905517",
    "rd-m1-latent": "0cfd4d299570e8f754fe7d349b047de587789e5c5932372fdf5f6a6e5286dc08",
    "rd-m1-stream": "687db64395df679db03dafbe551bf60397956fd34a8e2149303e783762155658",
    "rd-m2-latent": "1b82335ebd6f24d5959c1a342c3091ecc6074ad95ad70ef631232efffca32b06",
    "rd-m2-stream": "8f58d566b382cd7a77dc673617c5210eb2ac2a17823fb7d41a75d59332b6fae1",
    "rd-predictor": "7715979cf62bddb391d7d2d58725f6c63f76063ccc24bd8288ddd199b194399e",
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
