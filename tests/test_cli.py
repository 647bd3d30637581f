"""Command-line front end: exit codes, manifests, golden artifacts."""

import hashlib
import json
import struct
import time
from dataclasses import replace

import numpy as np
import pytest

import rvqcodec.cli as cli
from rvqcodec.analysis import CodebookEntropyRow, EntropyReport
from rvqcodec.bitstream import StreamHeader, fixed_length_bits, pack, read_bitstream_file
from rvqcodec.cli import IO_ERROR, USAGE_ERROR, VERIFY_ERROR, main
from rvqcodec.grids import LATENT_DOWNSAMPLE, read_latent_file, write_latent_file
from rvqcodec.quantizers import Codebook, QuantizerSet, ResidualVQ
from rvqcodec.schemes import (
    iq_decode,
    iq_encode,
    rd_decode,
    rd_encode,
    read_model_file,
    train_iq_model,
    train_rd_model,
    write_model_file,
)

# Frozen fixture: the pipeline below (fixed seeds, fixed model) must keep
# producing this exact bitstream.
_GOLDEN_STREAM_SHA256 = "0268d1e8130e4cdd630350d523b36faba4117996746fa40c903c7242677663ca"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _synth(out_dir, name, index, shape="1,32,32", rho="0.9", seed="3"):
    rc = main(
        [
            "synth", "--shape", shape, "--rho", rho, "--seed", seed,
            "--index", str(index), "--out", name, "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    return out_dir / name


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth corpus -> train rd -> encode holdout, shared by several tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    data.mkdir()
    paths = [_synth(data, f"lat{i}.eflt", i) for i in range(10)]
    hold = _synth(data, "hold.eflt", 1000)

    model = root / "model"
    rc = main(
        [
            "train", "--scheme", "rd",
            "--data", ",".join(str(p) for p in paths[:5]),
            "--data", ",".join(str(p) for p in paths[5:]),
            "--stages", "1", "--Ks", "8,8,8,8", "--iters", "4", "--seed", "0",
            "--out-dir", str(model),
        ]
    )
    assert rc == 0

    enc = root / "enc"
    rc = main(
        [
            "encode", "--latent", str(hold),
            "--model-dir", str(model), "--m", "1",
            "--out", "stream.efbs", "--recon", "recon.eflt",
            "--out-dir", str(enc),
        ]
    )
    assert rc == 0
    return {"root": root, "data": data, "hold": hold, "model": model, "enc": enc}


def test_synth_is_deterministic_and_writes_manifest(tmp_path):
    a = _synth(tmp_path / "a", "x.eflt", 0)
    b = _synth(tmp_path / "b", "x.eflt", 0)
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["rho"] == 0.9
    assert set(manifest) == {"command", "version", "config", "artifacts", "timings_ms"}


def test_synth_usage_errors(tmp_path, capsys):
    rc = main(
        ["synth", "--shape", "1,8,8", "--rho", "1.5",
         "--out", "x.eflt", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    assert "(-1, 1)" in capsys.readouterr().err  # names the bound
    rc = main(
        ["synth", "--shape", "1,8", "--out", "x.eflt", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--shape", "1,8,8"])  # missing required --out
    assert exc.value.code == USAGE_ERROR


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--shape", "1,8,8", "--out", "x", "--bogus"])
    assert exc.value.code == USAGE_ERROR


@pytest.mark.parametrize("command", [
    ["synth", "--shape", "1,8,8", "--out", "a.eflt", "--seed", "-1"],
    ["synth", "--shape", "1,8,8", "--out", "a.eflt", "--index", "-1"],
    ["train", "--data", "a.eflt", "--seed", "-1"],
    ["verify-props", "--seed", "-1"],
    ["sweep", "--seed", "-1"],
    ["sweep", "--source-seed", "-1"],
])
def test_negative_seed_or_index_is_a_usage_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out-dir", str(tmp_path)])
    assert exc.value.code == USAGE_ERROR
    assert "expected a non-negative integer, got '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("command,value", [
    (["train", "--data", "a.eflt", "--iters"], "0"),
    (["train", "--data", "a.eflt", "--stages"], "0"),
    (["train", "--data", "a.eflt", "--Kz"], "0"),
    (["sweep", "--train-count"], "0"),
    (["sweep", "--holdout-count"], "-3"),
    (["sweep", "--iters"], "0"),
    (["sweep", "--stages"], "0"),
    (["encode", "--latent", "a.eflt", "--model-dir", "m", "--m"], "0"),
])
def test_non_positive_count_is_a_usage_error(tmp_path, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([*command, value, "--out-dir", str(tmp_path)])
    assert exc.value.code == USAGE_ERROR
    assert f"expected a positive integer, got {value!r}" in capsys.readouterr().err


def test_train_writes_model_files_and_manifest(pipeline):
    model = pipeline["model"]
    assert sorted(p.name for p in model.iterdir()) == ["manifest.json", "model.efmd"]
    predictor, qset = read_model_file(model / "model.efmd")
    assert predictor is not None and not predictor.uses_hyper and qset.hyper is None
    manifest = json.loads((model / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["Ks"] == [8, 8, 8, 8]
    assert manifest["artifacts"] == {"model": str(model / "model.efmd")}


def test_train_iq_writes_no_predictor(pipeline, tmp_path):
    data = pipeline["data"]
    rc = main(
        [
            "train", "--scheme", "iq",
            "--data", ",".join(str(data / f"lat{i}.eflt") for i in range(10)),
            "--stages", "1", "--Ks", "4,4,4,4", "--iters", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    predictor, qset = read_model_file(tmp_path / "model.efmd")
    assert predictor is None and qset.groups[0].stage_sizes == (4,)


def test_train_toy_corpus_is_fast(pipeline, tmp_path):
    data = pipeline["data"]
    start = time.perf_counter()
    rc = main(
        [
            "train", "--scheme", "rd",
            "--data", ",".join(str(data / f"lat{i}.eflt") for i in range(10)),
            "--stages", "1", "--Ks", "4,4,4,4", "--iters", "4",
            "--out-dir", str(tmp_path),
        ]
    )
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert elapsed < 5.0


def test_train_usage_errors(pipeline, tmp_path, capsys):
    data = str(pipeline["data"] / "lat0.eflt")
    rc = main(["train", "--data", data, "--Ks", "8,8", "--out-dir", str(tmp_path)])
    assert rc == USAGE_ERROR
    rc = main(
        ["train", "--scheme", "iq", "--data", data, "--hyper", "on",
         "--Ks", "4,4,4,4", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    rc = main(["train", "--Ks", "4,4,4,4", "--out-dir", str(tmp_path)])
    assert rc == USAGE_ERROR  # no --data
    capsys.readouterr()
    rc = main(["train", "--data", data, "--Ks", "1,1,1,1", "--stages", "256",
               "--out-dir", str(tmp_path / "deep")])
    assert rc == USAGE_ERROR
    assert "256 stages; a model file holds at most 255" in capsys.readouterr().err
    assert not (tmp_path / "deep" / "model.efmd").exists()


@pytest.mark.parametrize("scheme", ["rd", "iq"])
def test_train_on_unusable_latents_is_a_usage_error(tmp_path, capsys, scheme):
    one = _synth(tmp_path, "c1.eflt", 0, shape="1,16,16")
    two = _synth(tmp_path, "c2.eflt", 1, shape="2,16,16")
    rc = main(["train", "--scheme", scheme, "--data", f"{one},{two}",
               "--Ks", "4,4,4,4", "--iters", "2", "--out-dir", str(tmp_path / "mixed")])
    assert rc == USAGE_ERROR
    assert "share a channel count, got 1 and 2" in capsys.readouterr().err
    # 64 positions per group cannot train the default K=1024 codebooks
    rc = main(["train", "--scheme", scheme, "--data", str(one),
               "--out-dir", str(tmp_path / "few")])
    assert rc == USAGE_ERROR
    assert "need at least K=1024 samples, got 64" in capsys.readouterr().err


def test_train_default_ladder_matches_contract():
    _, subparsers = cli.build_parser()
    assert subparsers["train"].get_default("Ks") == "1024,512,256,128"
    assert subparsers["train"].get_default("Kz") == 1024


def test_encode_golden_bitstream(pipeline):
    enc = pipeline["enc"]
    assert _sha256(enc / "stream.efbs") == _GOLDEN_STREAM_SHA256


def test_encode_reports_formula_bpp(pipeline, capsys):
    enc2 = pipeline["root"] / "enc2"
    rc = main(
        [
            "encode", "--latent", str(pipeline["hold"]),
            "--model-dir", str(pipeline["model"]), "--m", "1",
            "--out-dir", str(enc2),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # a 1x32x32 latent is 512x512 pixels with 16x16 positions per group
    _, qset = cli._load_model(str(pipeline["model"]))
    expected = fixed_length_bits(qset, 1, (1, 32, 32)) / 512**2
    assert f"bpp={expected:.6f}" in out
    manifest = json.loads((enc2 / "manifest.json").read_text())
    timings = manifest["timings_ms"]
    assert set(timings) == {"quantize", "autoregressive", "pack", "entropy_code", "tables"}
    # no entropy-coding phase exists, so no tables are built
    assert timings["entropy_code"] == timings["tables"] == 0.0
    assert timings["quantize"] > 0.0


def test_encode_is_deterministic(pipeline):
    enc3 = pipeline["root"] / "enc3"
    rc = main(
        [
            "encode", "--latent", str(pipeline["hold"]),
            "--model-dir", str(pipeline["model"]), "--m", "1",
            "--out-dir", str(enc3),
        ]
    )
    assert rc == 0
    assert (enc3 / "stream.efbs").read_bytes() == (
        pipeline["enc"] / "stream.efbs"
    ).read_bytes()


def test_decode_round_trip_matches_encoder_reconstruction(pipeline, capsys):
    dec = pipeline["root"] / "dec"
    rc = main(
        [
            "decode", "--stream", str(pipeline["enc"] / "stream.efbs"),
            "--model-dir", str(pipeline["model"]), "--out", "dec.eflt",
            "--ref", str(pipeline["hold"]), "--out-dir", str(dec),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mse=" in out
    assert (dec / "dec.eflt").read_bytes() == (
        pipeline["enc"] / "recon.eflt"
    ).read_bytes()


def test_encode_rejects_cm(pipeline, tmp_path, capsys):
    # cm writes entropy-coded streams, not fixed-length bitstream files, and
    # encode and decode take their scheme from the model file alone
    for argv in (
        ["encode", "--scheme", "cm", "--latent", str(pipeline["hold"]),
         "--model-dir", str(pipeline["model"]), "--m", "1"],
        ["decode", "--scheme", "cm", "--stream", str(pipeline["enc"] / "stream.efbs"),
         "--model-dir", str(pipeline["model"])],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(tmp_path)])
        assert exc.value.code == USAGE_ERROR
        assert "unrecognized arguments: --scheme cm" in capsys.readouterr().err


def test_encode_m_beyond_model_stages_fails_verification(pipeline, tmp_path):
    rc = main(
        [
            "encode", "--latent", str(pipeline["hold"]),
            "--model-dir", str(pipeline["model"]), "--m", "3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == VERIFY_ERROR


def test_missing_inputs_are_io_errors(pipeline, tmp_path):
    rc = main(
        [
            "encode", "--latent", "no-such-file.eflt",
            "--model-dir", str(pipeline["model"]), "--m", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == IO_ERROR
    rc = main(
        [
            "decode", "--stream", "no-such-file.efbs",
            "--model-dir", str(pipeline["model"]), "--out-dir", str(tmp_path),
        ]
    )
    assert rc == IO_ERROR


def test_decode_truncated_stream_fails(pipeline, tmp_path, capsys):
    stream = (pipeline["enc"] / "stream.efbs").read_bytes()
    cut = tmp_path / "cut.efbs"
    cut.write_bytes(stream[:-5])
    rc = main(
        [
            "decode", "--stream", str(cut),
            "--model-dir", str(pipeline["model"]), "--out-dir", str(tmp_path),
        ]
    )
    assert rc == IO_ERROR
    assert "missing" in capsys.readouterr().err


def test_decode_padded_stream_is_an_io_error(pipeline, tmp_path, capsys):
    stream = (pipeline["enc"] / "stream.efbs").read_bytes()
    padded = tmp_path / "padded.efbs"
    padded.write_bytes(stream + b"\xff" * 100)
    rc = main(
        [
            "decode", "--stream", str(padded),
            "--model-dir", str(pipeline["model"]), "--out-dir", str(tmp_path),
        ]
    )
    assert rc == IO_ERROR
    assert "100 trailing" in capsys.readouterr().err


def test_decode_shape_mismatch_is_a_verification_error(pipeline, tmp_path):
    other = _synth(tmp_path, "other.eflt", 0, shape="1,16,16")
    rc = main(
        [
            "decode", "--stream", str(pipeline["enc"] / "stream.efbs"),
            "--model-dir", str(pipeline["model"]), "--ref", str(other),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == VERIFY_ERROR


def _encode_and_decode_exit_codes(pipeline, model, out):
    """Exit codes of encode and decode of the pipeline's holdout with ``model``."""
    encode = main(
        [
            "encode", "--latent", str(pipeline["hold"]),
            "--model-dir", str(model), "--m", "1", "--out-dir", str(out / "enc"),
        ]
    )
    decode = main(
        [
            "decode", "--stream", str(pipeline["enc"] / "stream.efbs"),
            "--model-dir", str(model), "--out-dir", str(out / "dec"),
        ]
    )
    return encode, decode


def _train(pipeline, out, *flags):
    data = ",".join(str(pipeline["data"] / f"lat{i}.eflt") for i in range(10))
    rc = main(
        ["train", "--data", data, "--stages", "1", "--Ks", "8,8,8,8", "--iters", "4",
         "--seed", "0", "--out-dir", str(out), *flags]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def hyper_and_iq_models(pipeline, tmp_path_factory):
    """An rd model with a Kz=4 hyper grid and an iq model, each with the
    pipeline model's stage sizes."""
    root = tmp_path_factory.mktemp("models")
    hyper = _train(pipeline, root / "hyper", "--scheme", "rd", "--hyper", "on", "--Kz", "4")
    iq = _train(pipeline, root / "iq", "--scheme", "iq")
    return hyper, iq


def _patch(raw, at, fmt, value):
    """``raw`` with ``struct.pack(fmt, value)`` written over it at ``at``."""
    return raw[:at] + struct.pack(fmt, value) + raw[at + struct.calcsize(fmt):]


def _assert_model_file_io_errors(pipeline, tmp_path, capsys, cases):
    """Each (name, model.efmd bytes, message) exits 3 on both encode and
    decode, and both print the reader's reason and the file's path once."""
    for name, data, message in cases:
        model = tmp_path / name
        model.mkdir()
        (model / "model.efmd").write_bytes(data)
        codes = _encode_and_decode_exit_codes(pipeline, model, tmp_path / name)
        assert codes == (IO_ERROR, IO_ERROR), name
        err = capsys.readouterr().err
        assert err.count("error: model file") == 2 and err.count(message) == 2, (name, err)
        assert err.count(str(model / "model.efmd")) == 2, (name, err)


def test_latent_cut_inside_its_header_is_an_io_error(pipeline, tmp_path, capsys):
    """A latent file cut to 16 bytes, one short of its header, exits 3 with
    its byte count, and the path is printed once."""
    cut = tmp_path / "cut.eflt"
    cut.write_bytes(pipeline["hold"].read_bytes()[:16])
    rc = main(["encode", "--latent", str(cut), "--model-dir", str(pipeline["model"]),
               "--m", "1", "--out-dir", str(tmp_path / "enc")])
    err = capsys.readouterr().err
    assert rc == IO_ERROR
    assert err == f"error: latent file {cut}: 16 bytes, shorter than a latent header\n"


def _efmd(model_dir):
    return (model_dir / "model.efmd").read_bytes()


def test_model_files_that_disagree_are_an_io_error(
    pipeline, hyper_and_iq_models, tmp_path, capsys
):
    """A model is one file, so its parts can only disagree with its header:
    a scheme byte or hyper flag that does not match what follows exits 3."""
    rd, (hyper, iq) = _efmd(pipeline["model"]), map(_efmd, hyper_and_iq_models)
    # Cleared, the flag leaves the hyper grid's K=4 and groups 1-3's K=8 as
    # the four group sizes, and four (C=1) groups' maps without phi rows.
    sizes = struct.unpack_from("<4I", hyper, 12)
    unflagged = 12 + 16 + 8 * (sum(sizes) + 2 * (1 + 2 + 3 + 4))
    cases = [
        ("rd-read-as-iq", _patch(rd, 5, "<B", 0),
         f"{len(rd)} bytes where its header needs {len(iq)}"),
        ("iq-read-as-rd", _patch(iq, 5, "<B", 1),
         f"{len(iq)} bytes where its header needs {len(rd)}"),
        ("iq-with-hyper", _patch(iq, 10, "<B", 1), "bad header: scheme 0, C=1, hyper flag 1, S=1"),
        ("hyper-unflagged", _patch(hyper, 10, "<B", 0),
         f"{len(hyper)} bytes where its header needs {unflagged}"),
    ]
    _assert_model_file_io_errors(pipeline, tmp_path, capsys, cases)


def test_non_finite_predictor_fields_are_an_io_error(pipeline, tmp_path, capsys):
    """A truncated model file and an inf or NaN in the maps exit 3."""
    raw = _efmd(pipeline["model"])
    c, sizes = raw[6], struct.unpack_from("<4I", raw, 12)
    bias = 12 + 16 + 8 * c * sum(sizes)  # group 1's bias: it has no weight rows
    cases = [
        ("truncated", raw[:-1], f"{len(raw) - 1} bytes where its header needs {len(raw)}"),
        ("inf-bias", _patch(raw, bias, "<d", float("inf")),
         "group 1 weights and bias must be finite"),
        ("nan-weight", _patch(raw, bias + 8 * 2 * c, "<d", float("nan")),
         "group 2 weights and bias must be finite"),
    ]
    _assert_model_file_io_errors(pipeline, tmp_path, capsys, cases)


def test_codebooks_of_mixed_dimension_are_an_io_error(pipeline, tmp_path, capsys):
    """One C field sizes every codebook: a C that does not match the
    codewords exits 3, and quantizers of mixed dimension cannot be built to
    be written."""
    raw = _efmd(pipeline["model"])
    sizes = struct.unpack_from("<4I", raw, 12)
    # C=2: K x 2 codewords, and groups 1-4 with 0, 2, 4, 6 weight rows of 4.
    wide = 12 + 16 + 8 * 2 * (sum(sizes) + 2 * (1 + 3 + 5 + 7))
    cases = [
        ("c2", _patch(raw, 6, "<I", 2), f"{len(raw)} bytes where its header needs {wide}"),
        ("c0", _patch(raw, 6, "<I", 0), "bad header: scheme 1, C=0, hyper flag 0, S=1"),
    ]
    _assert_model_file_io_errors(pipeline, tmp_path, capsys, cases)
    _, qset = read_model_file(pipeline["model"] / "model.efmd")
    two = ResidualVQ(stage_codebooks=(Codebook(codewords=np.zeros((8, 2))),))
    with pytest.raises(ValueError, match=r"vector dimension, got \[1, 2, 1, 1\]"):
        QuantizerSet(groups=(qset.groups[0], two) + qset.groups[2:])


def test_malformed_hyper_codebook_is_an_io_error(
    pipeline, hyper_and_iq_models, tmp_path, capsys
):
    """A hyper codebook of size 0, cut out, or holding a NaN exits 3, as
    does a file that ends inside its header."""
    raw = _efmd(hyper_and_iq_models[0])
    table = 12 + 4 * 5  # the hyper grid's and groups 1-4's one stage size each
    kz = struct.unpack_from("<I", raw, 12)[0]
    cases = [
        ("kz0", _patch(raw, 12, "<I", 0), "a stage size is 0"),
        ("cut", raw[:table] + raw[table + 8 * kz:],
         f"{len(raw) - 8 * kz} bytes where its header needs {len(raw)}"),
        ("nan", _patch(raw, table, "<d", float("nan")), "codewords must be finite"),
        ("junk", b"EFMDjunk", "8 bytes, shorter than a model header"),
        ("header-cut", raw[:11], "11 bytes, shorter than a model header"),
    ]
    _assert_model_file_io_errors(pipeline, tmp_path, capsys, cases)


def test_stage_count_mismatched_model_is_an_io_error(pipeline, tmp_path, capsys):
    """One S field holds every quantizer's stage count: S=0, or a two-stage
    model read as one stage, exits 3, and quantizers of mixed stage count
    cannot be built to be written."""
    raw = _efmd(pipeline["model"])
    predictor, qset = read_model_file(pipeline["model"] / "model.efmd")
    doubled = QuantizerSet(groups=tuple(
        ResidualVQ(stage_codebooks=rvq.stage_codebooks * 2) for rvq in qset.groups
    ))
    write_model_file(tmp_path / "two.efmd", doubled, predictor)
    two = (tmp_path / "two.efmd").read_bytes()
    cases = [
        ("s0", _patch(raw, 11, "<B", 0), "bad header: scheme 1, C=1, hyper flag 0, S=0"),
        # With S=1 the first four of the eight sizes are the groups' sizes.
        ("s1", _patch(two, 11, "<B", 1), f"{len(two)} bytes where its header needs {len(raw)}"),
    ]
    _assert_model_file_io_errors(pipeline, tmp_path, capsys, cases)
    with pytest.raises(ValueError, match=r"share a stage count, got \[1, 2\]"):
        QuantizerSet(groups=qset.groups[:3] + doubled.groups[3:])


@pytest.mark.parametrize("scheme,hyper", [("rd", "off"), ("rd", "on"), ("iq", "off")])
def test_shipped_model_is_the_measured_model(pipeline, tmp_path, scheme, hyper):
    """The model ``train`` writes is, bit for bit, the model the same call
    trains in memory on the same latent files, and ``encode``/``decode``
    with it write what the in-memory model packs and decodes."""
    model = _train(pipeline, tmp_path / "model", "--scheme", scheme, "--hyper", hyper,
                   "--Kz", "4")
    shipped = read_model_file(model / "model.efmd")
    latents = [read_latent_file(pipeline["data"] / f"lat{i}.eflt") for i in range(10)]
    sizes = ((8,),) * 4
    if scheme == "rd":
        measured = train_rd_model(
            latents, (), hyper_stage_sizes=(4,) if hyper == "on" else None, m=None,
            iterations=4, seed=0, group_stage_sizes=sizes,
        )
    else:
        measured = None, train_iq_model(
            latents, (), iterations=4, seed=0, group_stage_sizes=sizes
        )
    assert _model_arrays(*shipped) == _model_arrays(*measured)

    enc, dec = tmp_path / "enc", tmp_path / "dec"
    assert main(["encode", "--latent", str(pipeline["hold"]), "--model-dir", str(model),
                 "--m", "1", "--out-dir", str(enc)]) == 0
    assert main(["decode", "--stream", str(enc / "stream.efbs"), "--model-dir", str(model),
                 "--out-dir", str(dec)]) == 0
    assert json.loads((enc / "manifest.json").read_text())["config"]["scheme"] == scheme
    predictor, qset = measured
    hold = read_latent_file(pipeline["hold"])
    if predictor is not None:
        coded = rd_encode(hold, predictor, qset, 1)
        decoded = rd_decode(replace(coded, reconstruction=None), predictor, qset)
    else:
        coded = iq_encode(hold, qset, 1)
        decoded = iq_decode(replace(coded, reconstruction=None), qset)
    f = LATENT_DOWNSAMPLE
    header = StreamHeader(height=hold.height * f, width=hold.width * f, q=1)
    stream = pack(header, coded.hyper_stack, coded.group_stacks, qset)
    assert read_bitstream_file(enc / "stream.efbs") == stream
    write_latent_file(tmp_path / "measured.eflt", decoded)
    assert (dec / "recon.eflt").read_bytes() == (tmp_path / "measured.eflt").read_bytes()


def _model_arrays(predictor, qset):
    """(dtype, shape, bytes) of every codeword array, hyper first, then of
    every map."""
    rvqs = ((qset.hyper,) if qset.hyper is not None else ()) + qset.groups
    arrays = [cb.codewords for rvq in rvqs for cb in rvq.stage_codebooks]
    if predictor is not None:
        arrays += [a for pair in zip(predictor.weights, predictor.biases) for a in pair]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def test_config_file_overrides_defaults_but_not_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho=0.5  # source memory\nseed=11\n")
    rc = main(
        ["--config", str(cfg), "synth", "--shape", "1,8,8",
         "--out", "a.eflt", "--out-dir", str(tmp_path / "a")]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"]["rho"] == 0.5
    assert manifest["config"]["seed"] == 11

    rc = main(
        ["--config", str(cfg), "synth", "--shape", "1,8,8", "--rho", "0.2",
         "--out", "a.eflt", "--out-dir", str(tmp_path / "b")]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["config"]["rho"] == 0.2  # explicit flag wins

    # a given flag wins even when its value equals the builtin default
    rc = main(
        ["--config", str(cfg), "synth", "--shape", "1,8,8", "--rho", "0.0",
         "--out", "a.eflt", "--out-dir", str(tmp_path / "c")]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["config"]["rho"] == 0.0
    assert manifest["config"]["seed"] == 11
    capsys.readouterr()


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_flag=1\n")
    rc = main(
        ["--config", str(bad), "synth", "--shape", "1,8,8",
         "--out", "a.eflt", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    rc = main(
        ["--config", str(tmp_path / "missing.cfg"), "synth", "--shape", "1,8,8",
         "--out", "a.eflt", "--out-dir", str(tmp_path)]
    )
    assert rc == IO_ERROR
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just a line\n")
    rc = main(
        ["--config", str(malformed), "synth", "--shape", "1,8,8",
         "--out", "a.eflt", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    capsys.readouterr()


def test_config_values_are_parsed_by_the_flags_own_type(monkeypatch, tmp_path, capsys):
    """A config value reaches the command as the flag's parser would have
    made it, also where the flag's default is None or a list."""
    _fake_experiments(monkeypatch)
    seeds = []

    def entropy(seed):
        seeds.append(seed)
        return {"gap": 0.0, "threshold": 0.05, "sparse_warning": False,
                "report": EntropyReport(gap=0.0, rows=(), sparse_warning=False),
                "passed": True}

    monkeypatch.setattr(cli, "pipeline_entropy_experiment", entropy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\n")
    rc = main(["--config", str(cfg), "verify-props", "--only", "entropy",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert seeds == [7] and type(seeds[0]) is int

    seen = {}
    monkeypatch.setattr(cli, "cmd_train", lambda args: seen.update(vars(args)) or 0)
    cfg.write_text("data=a.eflt,b.eflt\nstages=3\nscheme=iq\n")
    rc = main(["--config", str(cfg), "train", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert seen["data"] == ["a.eflt,b.eflt"]  # a repeatable flag given once
    assert seen["stages"] == 3 and seen["scheme"] == "iq"
    capsys.readouterr()


@pytest.mark.parametrize("command,line", [
    (["verify-props", "--only", "entropy"], "seed=seven"),
    (["synth", "--shape", "1,8,8", "--out", "a.eflt"], "rho=high"),
    (["train"], "scheme=cm"),  # not one of the flag's choices
    (["synth", "--shape", "1,8,8", "--out", "a.eflt"], "seed=-1"),
    (["train"], "iters=0"),
    (["sweep"], "holdout_count=0"),
])
def test_config_value_the_flag_would_reject_is_a_usage_error(
    monkeypatch, tmp_path, capsys, command, line
):
    _fake_experiments(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc = main(["--config", str(cfg), *command, "--out-dir", str(tmp_path)])
    assert rc == USAGE_ERROR
    assert f"config key {line.split('=')[0]!r}" in capsys.readouterr().err


def _fake_experiments(monkeypatch, fail=()):
    sentinel = object()

    def shaping(seed):
        return {
            "initial_gap": 0.5, "final_gap": 0.01, "threshold": 0.05,
            "passed": "shaping" not in fail, "codebook": sentinel,
        }

    def density(codebook, seed):
        assert codebook is sentinel  # the trained codebook flows through
        return {"tv_distance": 0.05, "tolerance": 0.1, "passed": True}

    calls = []

    def decorrelation(seed):
        calls.append("decorrelation")
        return {"rows": [], "passed": "decorrelation" not in fail}

    def dominance(seed):
        calls.append("dominance")
        row = {"delta": 1.0, "cm_rate": 1.2, "cm_mse": 0.08, "rate_cap": 1.3333,
               "sizes": (8, 3, 3, 1), "rd_rate": 1.3329, "rd_mse": 0.083, "slack": 0.0004,
               "passed": True}
        return {"rows": [row], "passed": "dominance" not in fail}

    def entropy(seed):
        calls.append("entropy")
        row = CodebookEntropyRow("group1", 1, 256, 0.98, 0.01, 7.9, False)
        return {
            "gap": 0.02, "threshold": 0.05, "sparse_warning": False,
            "report": EntropyReport(gap=0.02, rows=(row,), sparse_warning=False),
            "passed": "entropy" not in fail,
        }

    monkeypatch.setattr(cli, "index_shaping_experiment", shaping)
    monkeypatch.setattr(cli, "density_law_experiment", density)
    monkeypatch.setattr(cli, "decorrelation_gain_experiment", decorrelation)
    monkeypatch.setattr(cli, "rate_dominance_experiment", dominance)
    monkeypatch.setattr(cli, "pipeline_entropy_experiment", entropy)
    return calls


def test_verify_props_all_pass(monkeypatch, tmp_path, capsys):
    _fake_experiments(monkeypatch)
    rc = main(["verify-props", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    for claim in ("shaping", "decorrelation", "dominance", "entropy"):
        assert f"{claim}: PASS" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert set(report["claims"]) == {"shaping", "decorrelation", "dominance", "entropy"}
    # the codebook object is consumed by the density check, not serialized
    assert "codebook" not in report["claims"]["shaping"]["training"]
    # the entropy report's rows are serialized as plain records
    entropy = report["claims"]["entropy"]
    assert "report" not in entropy
    assert entropy["rows"][0]["quantizer"] == "group1"
    assert entropy["gap"] <= entropy["threshold"]
    # criterion 4's rows carry their slack under the rate cap
    assert report["claims"]["dominance"]["rows"][0]["slack"] == 0.0004


def test_verify_props_failure_exits_nonzero(monkeypatch, tmp_path, capsys):
    _fake_experiments(monkeypatch, fail={"dominance"})
    rc = main(["verify-props", "--out-dir", str(tmp_path)])
    assert rc == VERIFY_ERROR
    assert "dominance: FAIL" in capsys.readouterr().out


def test_verify_props_entropy_gap_failure_exits_nonzero(monkeypatch, tmp_path, capsys):
    _fake_experiments(monkeypatch, fail={"entropy"})
    rc = main(["verify-props", "--out-dir", str(tmp_path)])
    assert rc == VERIFY_ERROR
    out = capsys.readouterr().out
    assert "entropy: FAIL" in out and "dominance: PASS" in out


def test_verify_props_only_filters_claims(monkeypatch, tmp_path, capsys):
    calls = _fake_experiments(monkeypatch)
    rc = main(["verify-props", "--only", "decorrelation", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert calls == ["decorrelation"]
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert set(report["claims"]) == {"decorrelation"}
    rc = main(["verify-props", "--only", "entropy", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert calls == ["decorrelation", "entropy"]
    rc = main(["verify-props", "--only", "nonsense", "--out-dir", str(tmp_path)])
    assert rc == USAGE_ERROR
    capsys.readouterr()


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    rc = main(
        [
            "sweep", "--shape", "1,32,32", "--rho", "0.9", "--source-seed", "44",
            "--schemes", "rd,iq,cm", "--ms", "1,2", "--deltas", "1.0,0.5",
            "--Ks", "4,4,4,4", "--stages", "2", "--train-count", "6",
            "--holdout-count", "2", "--iters", "3", "--seed", "3",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    return out


def test_sweep_writes_curves_and_manifest(sweep_dir):
    csv_path = sweep_dir / "rd_curves.csv"
    assert csv_path.is_file()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scheme,m_or_delta,rate_bits,bpp,mse"
    assert len(lines) == 1 + 6  # three schemes x two points
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    points = manifest["config"]["points"]
    assert len(points) == 6
    assert all({"scheme", "operating_point", "seed"} <= set(p) for p in points)


def test_sweep_rejects_m_beyond_stages(tmp_path):
    rc = main(
        ["sweep", "--shape", "1,32,32", "--ms", "1,2,3", "--stages", "2",
         "--schemes", "rd", "--Ks", "4,4,4,4", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR


@pytest.mark.parametrize("flag,value", [
    ("--ms", "0"), ("--deltas", "0"), ("--deltas", "nan"), ("--schemes", "rd,bogus"),
])
def test_sweep_rejects_invalid_operating_points(tmp_path, capsys, flag, value):
    points = {"--schemes": "rd,cm", "--ms": "1", "--deltas": "1.0", flag: value}
    rc = main(
        ["sweep", "--shape", "1,32,32", "--stages", "2", "--Ks", "4,4,4,4",
         *(a for item in points.items() for a in item), "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_bdrate_identical_curves_prints_zero(sweep_dir, tmp_path, capsys):
    csv_path = sweep_dir / "rd_curves.csv"
    out = tmp_path / "bd"
    rc = main(
        ["bdrate", "--anchor", str(csv_path), "--test", str(csv_path),
         "--anchor-scheme", "rd", "--test-scheme", "rd", "--out-dir", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "0.00%"
    assert (out / "bdrate.txt").read_text().strip() == "0.00%"


def test_bdrate_half_rate_curve(sweep_dir, tmp_path, capsys):
    csv_path = sweep_dir / "rd_curves.csv"
    halved = tmp_path / "half.csv"
    lines = csv_path.read_text().splitlines()
    out_lines = [lines[0]]
    for line in lines[1:]:
        scheme, op, rate, bpp, mse = line.split(",")
        if scheme == "rd":
            rate = repr(float(rate) / 2.0)
            bpp = repr(float(bpp) / 2.0)
            out_lines.append(",".join([scheme, op, rate, bpp, mse]))
    halved.write_text("\n".join(out_lines) + "\n")
    rc = main(
        ["bdrate", "--anchor", str(csv_path), "--test", str(halved),
         "--anchor-scheme", "rd", "--out-dir", str(tmp_path / "bd")]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "-50.00%"


def test_bdrate_unknown_scheme_is_usage_error(sweep_dir, tmp_path):
    csv_path = sweep_dir / "rd_curves.csv"
    rc = main(
        ["bdrate", "--anchor", str(csv_path), "--test", str(csv_path),
         "--anchor-scheme", "vq", "--out-dir", str(tmp_path)]
    )
    assert rc == USAGE_ERROR


def test_default_sweep_ladder_gives_bdrate_against_cm(tmp_path, capsys):
    # the default codebook ladder and delta ladder overlap in distortion,
    # so the README's sweep -> bdrate recipe yields a number
    rc = main(["sweep", "--schemes", "rd,iq,cm", "--shape", "1,32,32", "--train-count", "4",
               "--holdout-count", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    csv_path = str(tmp_path / "rd_curves.csv")
    rc = main(["bdrate", "--anchor", csv_path, "--test", csv_path, "--anchor-scheme", "cm",
               "--test-scheme", "rd", "--out-dir", str(tmp_path / "bd")])
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].endswith("%")
