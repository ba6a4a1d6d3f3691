import contextlib
import csv
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import wave
import weakref
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvmer import cli
from dvmer import config as cfgmod
from dvmer import data as dk
from dvmer import features as F
from dvmer import ioutil
from dvmer import training as tr
from dvmer.cli import main
from dvmer.errors import BadFeatureCache, BadSampleRate, CheckpointMismatch, ConfigError, TrackTooShort
from dvmer.model import DualViewModel, ModelConfig

SR = 44100
SRC = Path(__file__).resolve().parents[1] / "src"

RUN_CFG = """\
epochs = 3
batch_size = 8
seed = 2
embed_dim = 16
fusion_dim = 32
heads = 2
layers = 1
queue_size = 16
dimension = arousal
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic manifest + feature caches shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cache = root / "cache"
    cache.mkdir()
    samples = dk.synth_dataset(n=24, separation=6.0, noise=0.05, seed=1)
    lines = []
    cfg = F.FeatureConfig()
    for i, s in enumerate(samples):
        F.write_feature_cache(cache / f"{s.track_id}.dmrf", s.pair, s.track_id, cfg)
        value = 0.5 if s.label == 1 else -0.5
        # every other line has a fourth column, which parse_manifest ignores
        lines.append(f"{s.track_id}\t{value!r}\t{value!r}" + (f"\t/audio/{s.track_id}.wav" if i % 2 else ""))
    manifest = root / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    config = root / "run.cfg"
    config.write_text(RUN_CFG)
    return {"root": root, "cache": cache, "manifest": manifest, "config": config}


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace["root"] / "out"
    rc = main([
        "train", "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]), "--out", str(out),
    ])
    assert rc == 0
    return out


def test_train_writes_expected_artifacts(workspace, trained):
    assert (trained / "checkpoint.dmrc").exists()
    assert (trained / "split.json").exists()
    assert (trained / "result.json").exists()
    log_lines = (trained / "epochs.log").read_text().strip().splitlines()
    assert len(log_lines) == 3
    result = json.loads((trained / "result.json").read_text())
    assert set(result["test"]) == {"acc", "f1", "auc"}
    # atomic writes leave no temp files behind
    assert not [p for p in os.listdir(trained) if p.startswith(".tmp-")]


def test_split_json_lists_dimension_seed_then_the_ids(workspace, trained):
    split = dk.stratified_split(dk.parse_manifest(workspace["manifest"]), "arousal", seed=2)
    ids = {name: ",\n".join(f'  "{i}"' for i in getattr(split, name)) for name in ("train_ids", "test_ids")}
    assert (trained / "split.json").read_bytes().decode() == (
        '{\n "dimension": "arousal",\n "seed": 2,\n'
        f' "train_ids": [\n{ids["train_ids"]}\n ],\n "test_ids": [\n{ids["test_ids"]}\n ]\n}}\n')


def test_train_idempotent_given_seed(workspace, trained, tmp_path):
    out2 = tmp_path / "out2"
    rc = main([
        "train", "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]), "--out", str(out2),
    ])
    assert rc == 0
    assert (out2 / "checkpoint.dmrc").read_bytes() == (trained / "checkpoint.dmrc").read_bytes()
    assert (out2 / "epochs.log").read_text() == (trained / "epochs.log").read_text()


def test_semi_train_writes_the_checkpoint_of_a_library_run(workspace, tmp_path):
    # run_training alone picks the labeled rows, from the config, so a library
    # call on the split's train samples trains the same model as the command
    config = tmp_path / "semi.cfg"
    config.write_text(RUN_CFG + "mode = semi\nlabeled_fraction = 0.5\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--manifest", str(workspace["manifest"]),
                 "--features", str(workspace["cache"]), "--out", str(out)]) == 0
    train_cfg, model_cfg = cfgmod.load_train_configs(config)
    labels = {r.track_id: r.label(train_cfg.dimension) for r in dk.parse_manifest(workspace["manifest"])}
    samples = [dk.Sample(i, labels[i], F.read_feature_cache(workspace["cache"] / f"{i}.dmrf"))
               for i in json.loads((out / "split.json").read_text())["train_ids"]]
    result = tr.run_training(samples, train_cfg, model_cfg)
    assert any(r.loss_pl > 0 for r in result.records)  # PCL pseudo-labels the unlabeled half
    tr.save_checkpoint(tmp_path / "library.dmrc", result, cfgmod.run_config_hash(train_cfg, result.model_config))
    assert (tmp_path / "library.dmrc").read_bytes() == (out / "checkpoint.dmrc").read_bytes()


def test_eval_json_reports_metric_names(workspace, trained, capsys):
    rc = main([
        "eval", "--checkpoint", str(trained / "checkpoint.dmrc"), "--config", str(workspace["config"]),
        "--manifest", str(workspace["manifest"]), "--features", str(workspace["cache"]),
        "--split", "train", "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert {"acc", "f1", "auc"} <= set(payload)
    assert payload["split"] == "train"
    assert payload["dimension"] == "arousal"


def test_eval_rejects_mismatched_config(workspace, trained, capsys):
    rc = main([
        "eval", "--checkpoint", str(trained / "checkpoint.dmrc"), "--config", str(workspace["config"]),
        "--manifest", str(workspace["manifest"]), "--features", str(workspace["cache"]),
        "--seed", "777",
    ])
    assert rc == 5
    assert "mismatch" in capsys.readouterr().out


def test_missing_config_key_names_it(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("batch_size = 8\n")
    rc = main([
        "train", "--config", str(bad), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]), "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "epochs" in capsys.readouterr().out


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    bad = tmp_path / "bad2.cfg"
    bad.write_text("epochs = 2\nbatch_size = 8\nlerning_rate = 0.1\n")
    rc = main([
        "train", "--config", str(bad), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]), "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "lerning_rate" in capsys.readouterr().out


def test_missing_cache_is_data_error(workspace, tmp_path, capsys):
    rc = main([
        "train", "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
        "--features", str(tmp_path), "--out", str(tmp_path / "o"),
    ])
    assert rc == 3


DIAGNOSE_HEADER = (
    "epoch,lr,tau,theta,loss_total,loss_cls,loss_pl,loss_cons,loss_cont,mask_ratio,"
    "mean_reliability,mean_confidence,queue_entropy,coverage_0,coverage_1,train_acc"
)


def _diagnose_csv(log, out_csv):
    """The CSV that `diagnose` writes for log, as dicts keyed by column, after its header."""
    assert main(["diagnose", "--log", str(log), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    return lines[0], list(csv.DictReader(lines))


def _cells(record):
    """An epoch record's values by CSV column."""
    coverage = {f"coverage_{c}": v for c, v in enumerate(record["queue_coverage"])}
    return {**{k: v for k, v in record.items() if k != "queue_coverage"}, **coverage}


def test_diagnose_csv_layout(workspace, trained, tmp_path):
    header, rows = _diagnose_csv(trained / "epochs.log", tmp_path / "diag.csv")
    assert header == DIAGNOSE_HEADER
    assert len(rows) == 3
    taus = [float(row["tau"]) for row in rows]
    thetas = [float(row["theta"]) for row in rows]
    assert taus[0] == 1.5 and taus[-1] == 0.7
    assert thetas[0] == 0.65 and thetas[-1] == 0.35
    records = [json.loads(line) for line in (trained / "epochs.log").read_text().splitlines()]
    for row, record in zip(rows, records):
        assert {k: float(v) for k, v in row.items()} == _cells(record)


def test_diagnose_spreads_every_class_of_a_three_class_run(tmp_path):
    from dvmer.model import ModelConfig
    samples = dk.synth_dataset(n=16, separation=6.0, noise=0.05, seed=3)
    model_cfg = ModelConfig(embed_dim=16, fusion_dim=32, heads=2, layers=1, n_classes=3)
    result = tr.run_training(samples, tr.TrainConfig(epochs=2, batch_size=8, seed=3, queue_size=16), model_cfg)
    log = tmp_path / "epochs.log"
    log.write_text("\n".join(json.dumps(asdict(r)) for r in result.records) + "\n")
    header, rows = _diagnose_csv(log, tmp_path / "diag.csv")
    assert header == DIAGNOSE_HEADER.replace("coverage_1,", "coverage_1,coverage_2,")
    assert [{k: float(v) for k, v in row.items()} for row in rows] == [_cells(asdict(r)) for r in result.records]


def test_diagnose_bad_log_is_data_error(tmp_path):
    bad = tmp_path / "bad.log"
    bad.write_text("{not json\n")
    rc = main(["diagnose", "--log", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 3


GOOD_RECORD = asdict(tr.EpochRecord(
    epoch=0, lr=1e-3, tau=1.5, theta=0.65, loss_total=1.0, loss_cls=0.5, loss_pl=0.25, loss_cons=0.125,
    loss_cont=0.0625, mask_ratio=0.0, mean_reliability=0.5, mean_confidence=0.5, queue_entropy=0.0,
    queue_coverage=[0.5, 0.5], train_acc=0.5,
))


def test_diagnose_writes_standard_csv_with_each_float_as_its_repr(tmp_path):
    log = tmp_path / "epochs.log"
    second = {**GOOD_RECORD, "epoch": 1, "lr": 1e-05, "loss_total": 0.1, "queue_coverage": [0.1, 0.9]}
    log.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(second) + "\n")
    assert main(["diagnose", "--log", str(log), "--out", str(tmp_path / "d.csv")]) == 0
    assert (tmp_path / "d.csv").read_bytes().decode() == (
        DIAGNOSE_HEADER + "\n"
        "0,0.001,1.5,0.65,1.0,0.5,0.25,0.125,0.0625,0.0,0.5,0.5,0.0,0.5,0.5,0.5\n"
        "1,1e-05,1.5,0.65,0.1,0.5,0.25,0.125,0.0625,0.0,0.5,0.5,0.0,0.1,0.9,0.5\n")


@pytest.mark.parametrize("record,reason", (
    ('{"epoch": 0}', "missing key(s) lr, tau, theta"),
    ("[1, 2]", "expected a JSON object"),
    (json.dumps({**GOOD_RECORD, "queue_coverage": 5}), "queue_coverage must be a list"),
    (json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "lr"}), "missing key(s) lr\n"),
    (json.dumps({**GOOD_RECORD, "queue_coverage": [0.5, 0.25, 0.25]}),
     "queue_coverage has 3 entries, the first record's 2"),
), ids=("missing_key", "not_an_object", "coverage_not_a_list", "missing_lr", "ragged_coverage"))
def test_diagnose_malformed_record_is_a_data_error(tmp_path, capsys, record, reason):
    log = tmp_path / "epochs.log"
    log.write_text(json.dumps(GOOD_RECORD) + "\n" + record + "\n")
    rc = main(["diagnose", "--log", str(log), "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    out = capsys.readouterr().out
    assert f"{log}:2: bad record: {reason}" in out
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("text", ("", "\n\n"), ids=("empty", "blank_lines"))
def test_diagnose_log_without_records_is_a_data_error(tmp_path, capsys, text):
    log = tmp_path / "epochs.log"
    log.write_text(text)
    rc = main(["diagnose", "--log", str(log), "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert f"{log}: no epoch records" in capsys.readouterr().out
    assert not (tmp_path / "x.csv").exists()


def test_export_embeddings_shape_and_training_effect(workspace, trained, tmp_path):
    emb = tmp_path / "emb.csv"
    rc = main([
        "export-embeddings", "--checkpoint", str(trained / "checkpoint.dmrc"),
        "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]), "--out", str(emb),
    ])
    assert rc == 0
    lines = emb.read_text().strip().splitlines()
    assert len(lines) == 1 + 24
    assert len(lines[0].split(",")) == 32 + 2

    # an untrained checkpoint must export different embeddings
    from dvmer import training as tr
    train_cfg, model_cfg = cfgmod.load_train_configs(workspace["config"])
    fresh = tr.run_training(
        dk.synth_dataset(n=8, separation=6.0, noise=0.05, seed=1)[:8],
        tr.TrainConfig(epochs=1, batch_size=8, seed=99, queue_size=16),
        model_cfg,
    )
    other_ckpt = tmp_path / "other.dmrc"
    tr.save_checkpoint(other_ckpt, fresh, cfgmod.run_config_hash(train_cfg, model_cfg))
    emb2 = tmp_path / "emb2.csv"
    rc = main([
        "export-embeddings", "--checkpoint", str(other_ckpt),
        "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]), "--out", str(emb2),
    ])
    assert rc == 0
    assert emb.read_bytes() != emb2.read_bytes()


def test_write_csv_streams_its_rows_and_peaks_below_the_csv_size(tmp_path):
    """_write_csv writes each row as it comes, so at 2,000 embedding rows
    its traced peak stays below the CSV it writes; the bytes are those of
    the csv module's text, encoded as UTF-8."""
    vectors = np.random.default_rng(4).normal(size=(2000, 64))
    header = ["track_id", "label"] + [f"f_{i}" for i in range(vectors.shape[1])]

    def rows():
        return ([f"t,{i}", str(i % 2)] + [repr(float(v)) for v in vec] for i, vec in enumerate(vectors))

    path = tmp_path / "emb.csv"
    tracemalloc.start()
    try:
        cli._write_csv(path, header, rows())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size, f"peak {peak / 1e6:.2f} MB, CSV {size / 1e6:.2f} MB"
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows()])
    assert path.read_bytes() == text.getvalue().encode("utf-8")


def test_exported_rows_match_a_graph_building_forward(workspace, trained, tmp_path):
    # track ids that hold a comma or a double quote, as WAV names may, come back whole through csv
    cache, manifest = tmp_path / "cache", tmp_path / "manifest.tsv"
    shutil.copytree(workspace["cache"], cache)
    lines = workspace["manifest"].read_text().splitlines()
    for i, track_id in enumerate(("Artist, Title", 'The "Song"')):
        old_id, rest = lines[i].split("\t", 1)
        (cache / f"{old_id}.dmrf").rename(cache / f"{track_id}.dmrf")
        lines[i] = f"{track_id}\t{rest}"
    manifest.write_text("\n".join(lines) + "\n")
    emb = tmp_path / "emb.csv"
    rc = main([
        "export-embeddings", "--checkpoint", str(trained / "checkpoint.dmrc"),
        "--config", str(workspace["config"]), "--manifest", str(manifest),
        "--features", str(cache), "--out", str(emb),
    ])
    assert rc == 0
    with open(emb, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(r) == len(header) for r in rows)

    _, model_cfg = cfgmod.load_train_configs(workspace["config"])
    model, _ = tr.load_model_from_checkpoint(trained / "checkpoint.dmrc", model_cfg)
    records = dk.parse_manifest(manifest)
    pairs = [F.read_feature_cache(cache / f"{r.track_id}.dmrf") for r in records]
    out = model.forward(np.stack([p.mel for p in pairs]), np.stack([p.coch for p in pairs]))
    assert out.z_fuse._backward is not None  # the reference builds a graph
    assert [r[0] for r in rows] == [r.track_id for r in records]
    assert rows[0][0] == "Artist, Title" and rows[1][0] == 'The "Song"'
    exported = np.array([[float(v) for v in r[2:]] for r in rows], dtype=np.float32)
    assert np.array_equal(exported, out.z_fuse.data)


@pytest.mark.parametrize("command", ("eval", "export-embeddings"))
@pytest.mark.parametrize("cut", (6, 20, 200, "half"))
def test_truncated_checkpoint_exits_5(workspace, trained, tmp_path, capsys, command, cut):
    data = (trained / "checkpoint.dmrc").read_bytes()
    bad = tmp_path / "cut.dmrc"
    bad.write_bytes(data[:len(data) // 2 if cut == "half" else cut])
    argv = [
        command, "--checkpoint", str(bad), "--config", str(workspace["config"]),
        "--manifest", str(workspace["manifest"]), "--features", str(workspace["cache"]),
    ]
    if command == "export-embeddings":
        argv += ["--out", str(tmp_path / "emb.csv")]
    assert main(argv) == 5
    assert "truncated" in capsys.readouterr().out


@pytest.mark.parametrize("defect", ("cut", "tag", "stray"))
def test_malformed_cache_exits_3(workspace, trained, tmp_path, capsys, defect):
    cache = tmp_path / "cache"
    shutil.copytree(workspace["cache"], cache)
    victim = sorted(cache.glob("*.dmrf"))[0]
    data = bytearray(victim.read_bytes())
    if defect == "cut":
        data = data[:12]  # inside the Mel gram's dims
    elif defect == "tag":
        data[8] = 9
    else:
        data += b"\0\0"
    victim.write_bytes(bytes(data))
    rc = main([
        "eval", "--checkpoint", str(trained / "checkpoint.dmrc"), "--config", str(workspace["config"]),
        "--manifest", str(workspace["manifest"]), "--features", str(cache),
    ])
    assert rc == 3
    assert f"data error: {victim}" in capsys.readouterr().out


def test_duplicate_track_id_is_a_config_error(workspace, trained, tmp_path, capsys):
    lines = workspace["manifest"].read_text().splitlines()
    manifest = tmp_path / "dup.tsv"
    manifest.write_text("\n".join(lines + [lines[0]]) + "\n")
    rc = main([
        "eval", "--checkpoint", str(trained / "checkpoint.dmrc"), "--config", str(workspace["config"]),
        "--manifest", str(manifest), "--features", str(workspace["cache"]),
    ])
    assert rc == 2
    assert f"{manifest}:{len(lines) + 1}: duplicate track_id" in capsys.readouterr().out


def test_ablation_flags_reach_the_log(workspace, tmp_path):
    out = tmp_path / "ablate"
    rc = main([
        "train", "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]), "--out", str(out), "--no-saml", "--no-pcl",
    ])
    assert rc == 0
    lines = (out / "epochs.log").read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert rec["loss_cont"] == 0.0
        assert rec["loss_pl"] == 0.0
        # the empty curriculum and queue summaries, read as text: -0.0 == 0.0 would pass
        for field in ('"mask_ratio": 0.0,', '"mean_reliability": 0.0,', '"mean_confidence": 0.0,',
                      '"queue_entropy": 0.0,', '"queue_coverage": [0.0, 0.0],'):
            assert field in line
        assert "-0.0" not in line


@pytest.mark.parametrize("line", ("epochs = none", "batch_size = none", "seed = none", "cross_attention = false",
                                  "mel_bands = 128", "coch_channels = 84", "frame_count = 87", "n_classes = 1"))
def test_bad_run_config_value_exits_2_naming_the_key(workspace, tmp_path, capsys, line):
    key = line.split(" = ")[0]
    kept = [row for row in RUN_CFG.splitlines() if not row.startswith(key + " ")]
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(kept + [line]) + "\n")
    rc = main([
        "train", "--config", str(bad), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]), "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert key in capsys.readouterr().out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", (
    "embed_dim = 0", "dropout = 1.5", "heads = 3", "learning_rate = nan", "queue_size = 0",
    "contrast_temperature = 0", "tau_min = 0", "queue_size = 4", "weight_decay = nan",
    "weight_decay = -0.1", "theta_start = nan", "theta_start = 1.5", "theta_min = -0.1", "theta_min = 0.9",
    "tau_min = 2.0", "learning_rate = inf", "grad_clip = inf", "lambda_pl = inf", "tau_max = inf", "seed = -1",
))
def test_out_of_range_run_config_value_exits_2_naming_the_key(workspace, tmp_path, capsys, line):
    test_bad_run_config_value_exits_2_naming_the_key(workspace, tmp_path, capsys, line)


def test_an_out_of_range_flag_exits_2_naming_the_key_and_not_the_run_config(workspace, tmp_path, capsys):
    # the second file fails alone too (queue_size below batch_size), for a reason of its own
    for name, text in (("run.cfg", RUN_CFG), ("bad.cfg", RUN_CFG.replace("queue_size = 16", "queue_size = 4"))):
        config = tmp_path / name
        config.write_text(text)
        rc = main(["train", "--config", str(config), "--manifest", str(workspace["manifest"]),
                   "--features", str(workspace["cache"]), "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().out == "config error: seed must not be negative, got -1\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("features", ("cache", "empty"))
def test_unknown_dimension_exits_2_naming_the_run_config(workspace, tmp_path, capsys, features):
    bad = tmp_path / "bad.cfg"
    bad.write_text(RUN_CFG.replace("dimension = arousal", "dimension = foo"))
    (tmp_path / "empty").mkdir()
    feature_dir = workspace["cache"] if features == "cache" else tmp_path / "empty"
    rc = main(["train", "--config", str(bad), "--manifest", str(workspace["manifest"]),
               "--features", str(feature_dir), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 2
    assert str(bad) in out and "dimension" in out
    assert not (tmp_path / "o").exists()


def test_ablated_checkpoint_needs_the_same_flags_at_eval(workspace, tmp_path, capsys):
    ablate = ["--no-dsaf", "--no-pcl", "--no-saml"]
    out = tmp_path / "ablate"
    common = [
        "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]),
    ]
    assert main(["train", *common, "--out", str(out), *ablate]) == 0
    evaluate = ["eval", "--checkpoint", str(out / "checkpoint.dmrc"), *common]
    assert main(evaluate + ablate) == 0
    capsys.readouterr()
    assert main(evaluate) == 5
    assert "mismatch" in capsys.readouterr().out


@pytest.fixture(scope="module")
def small_grams(workspace):
    """The workspace's tracks as 12 x 10 Mel and 9 x 10 cochleagram grams."""
    samples = dk.synth_dataset(n=24, separation=6.0, noise=0.05, seed=1, mel_shape=(12, 10), coch_shape=(9, 10))
    cache = workspace["root"] / "small"
    cache.mkdir()
    for s in samples:
        F.write_feature_cache(cache / f"{s.track_id}.dmrf", s.pair, s.track_id, F.FeatureConfig())
    return ["--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]), "--features", str(cache)]


def test_caches_of_another_shape_need_no_config_keys(small_grams, tmp_path):
    out = tmp_path / "run"
    assert main(["train", *small_grams, "--out", str(out)]) == 0
    ckpt = ["--checkpoint", str(out / "checkpoint.dmrc")]
    assert main(["eval", *ckpt, *small_grams]) == 0
    assert main(["export-embeddings", *ckpt, *small_grams, "--out", str(tmp_path / "emb.csv")]) == 0
    assert len((tmp_path / "emb.csv").read_text().splitlines()) == 1 + 24
    params = tr.read_checkpoint(out / "checkpoint.dmrc")["sections"]["PARM"]
    assert params["pos.mel"].shape[0] == params["pos.coch"].shape[0] == 10
    assert (params["mel_proj.w"].shape, params["coch_proj.w"].shape) == ((16, 12), (16, 9))


@pytest.mark.parametrize("command", ("eval", "export-embeddings"))
def test_checkpoint_of_another_input_shape_exits_5(trained, small_grams, tmp_path, capsys, command):
    argv = [command, "--checkpoint", str(trained / "checkpoint.dmrc"), *small_grams]
    if command == "export-embeddings":
        argv += ["--out", str(tmp_path / "emb.csv")]
    assert main(argv) == 5
    assert "mismatch" in capsys.readouterr().out


@pytest.mark.parametrize("command", ("train", "eval", "export-embeddings"))
@pytest.mark.parametrize("row, shapes", (
    (5, ((12, 10), (9, 10))),
    (0, ((128, 87), (84, 86))),
    (0, ((128, 0), (84, 0))),
), ids=("other_shape", "first_frames_differ", "first_empty"))
def test_manifest_of_two_gram_shapes_exits_3_naming_the_track(workspace, trained, tmp_path, capsys, command, row,
                                                                shapes):
    cache = tmp_path / "cache"
    shutil.copytree(workspace["cache"], cache)
    victim = dk.parse_manifest(workspace["manifest"])[row].track_id
    pair = F.FeaturePair(*(np.zeros(shape) for shape in shapes))
    F.write_feature_cache(cache / f"{victim}.dmrf", pair, victim, F.FeatureConfig())
    argv = [command, "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
            "--features", str(cache)]
    argv += ["--checkpoint", str(trained / "checkpoint.dmrc")] if command != "train" else []
    argv += ["--out", str(tmp_path / "o")] if command != "eval" else []
    assert main(argv) == 3
    assert f"data error: track {victim}:" in capsys.readouterr().out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ("train", "eval", "export-embeddings"))
@pytest.mark.parametrize("where", ("manifest", "cache"))
def test_a_directory_in_place_of_an_input_file_exits_3_naming_it(workspace, trained, tmp_path, capsys, command,
                                                                  where):
    manifest, cache = workspace["manifest"], tmp_path / "cache"
    shutil.copytree(workspace["cache"], cache)
    if where == "manifest":
        manifest = tmp_path / "manifest.tsv"
        manifest.mkdir()
        victim = manifest
    else:
        victim = cache / f"{dk.parse_manifest(manifest)[0].track_id}.dmrf"
        victim.unlink()
        victim.mkdir()
    argv = [command, "--config", str(workspace["config"]), "--manifest", str(manifest), "--features", str(cache)]
    argv += ["--checkpoint", str(trained / "checkpoint.dmrc")] if command != "train" else []
    argv += ["--out", str(tmp_path / "o")] if command != "eval" else []
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert out.startswith("data error: ") and str(victim) in out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ("diagnose", "export-embeddings"))
@pytest.mark.parametrize("where", ("missing-directory", "directory"))
def test_an_output_that_cannot_be_written_exits_3_naming_it_and_leaves_no_temp_file(workspace, trained, tmp_path,
                                                                                     capsys, command, where):
    # the output's directory does not exist, or the output is a directory
    target = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path / "dir"
    if where == "directory":
        target.mkdir()
    if command == "diagnose":
        argv = [command, "--log", str(trained / "epochs.log")]
    else:
        argv = [command, "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
                "--features", str(workspace["cache"]), "--checkpoint", str(trained / "checkpoint.dmrc")]
    assert main(argv + ["--out", str(target)]) == 3
    out = capsys.readouterr().out
    assert out.startswith("data error: ") and f"'{target}'" in out and ".tmp-" not in out
    assert not list(tmp_path.rglob(".tmp-*"))


def test_an_atomic_write_replaces_the_output_so_a_reader_of_the_old_file_reads_it_whole(tmp_path):
    """Temp file + rename: a reader that opened the output before a write
    still reads the old bytes, the path then holds the new ones, and a write
    that fails halfway leaves the last file as it was and no temp file."""
    path = tmp_path / "out.json"
    path.write_bytes(b"old bytes\n")
    with open(path, "rb") as reader:
        ioutil.atomic_write_bytes(path, b"new\n")
        assert reader.read() == b"old bytes\n"
    assert path.read_bytes() == b"new\n"
    with pytest.raises(TypeError):
        ioutil.atomic_write_bytes(path, "text, not bytes")
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("command", ("train", "eval"))
def test_empty_manifest_exits_3(workspace, trained, tmp_path, capsys, command):
    manifest = tmp_path / "empty.tsv"
    manifest.write_text("# no tracks\n")
    argv = [command, "--config", str(workspace["config"]), "--manifest", str(manifest),
            "--features", str(workspace["cache"])]
    argv += ["--out", str(tmp_path / "o")] if command == "train" else ["--checkpoint", str(trained / "checkpoint.dmrc")]
    assert main(argv) == 3
    assert "no tracks" in capsys.readouterr().out


def _write_wav(path, seconds, freq, rng):
    t = np.arange(int(seconds * SR)) / SR
    x = 0.4 * np.sin(2 * np.pi * freq * t) + 0.02 * rng.normal(size=t.shape)
    pcm = np.clip(x * 32767, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        wf.writeframes(pcm.tobytes())


def test_extract_features_from_wavs(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    rng = np.random.default_rng(0)
    _write_wav(wav_dir / "low.wav", 36, 220.0, rng)
    _write_wav(wav_dir / "high.wav", 36, 2000.0, rng)
    cache = tmp_path / "cache"
    rc = main(["extract-features", "--in", str(wav_dir), "--out", str(cache), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert sorted(payload["extracted"]) == ["high", "low"]
    pair = F.read_feature_cache(cache / "low.dmrf")
    assert pair.mel.shape == (128, 87)
    assert pair.coch.shape == (84, 87)
    assert os.path.exists(cache / "low.dmrf.json")


def test_two_wavs_that_give_one_track_id_fail_the_second(tmp_path, capsys):
    wav_dir, cache = tmp_path / "wavs", tmp_path / "cache"
    wav_dir.mkdir()
    _write_wav(wav_dir / "Song.wav", 36, 440.0, np.random.default_rng(5))
    if (wav_dir / "Song.WAV").exists():
        pytest.skip("the file system folds case: it cannot hold both Song.wav and Song.WAV")
    _write_wav(wav_dir / "Song.WAV", 36, 880.0, np.random.default_rng(6))
    rc = main(["extract-features", "--in", str(wav_dir), "--out", str(cache), "--json"])
    captured = capsys.readouterr()
    assert rc == 3
    payload = json.loads(captured.out)
    assert (payload["extracted"], payload["failed"]) == (["Song"], ["Song"])
    assert "skipped Song: Song.WAV and Song.wav give the same track id" in captured.err
    cfg = F.FeatureConfig()  # the cache is the first WAV's, in sorted order
    first = F.extract_pair(F.read_segment(wav_dir / "Song.WAV", cfg), cfg)
    assert np.array_equal(F.read_feature_cache(cache / "Song.dmrf").mel, first.mel)


def test_extract_features_reports_bad_tracks(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    rng = np.random.default_rng(1)
    _write_wav(wav_dir / "ok.wav", 36, 440.0, rng)
    _write_wav(wav_dir / "short.wav", 5, 440.0, rng)
    rc = main(["extract-features", "--in", str(wav_dir), "--out", str(tmp_path / "cache")])
    assert rc == 3
    assert (tmp_path / "cache" / "ok.dmrf").exists()
    assert not (tmp_path / "cache" / "short.dmrf").exists()


def test_extract_features_skips_malformed_wavs_like_short_tracks(tmp_path, capsys):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    rng = np.random.default_rng(3)
    _write_wav(wav_dir / "ok.wav", 36, 440.0, rng)
    _write_wav(wav_dir / "tiny.wav", 0.01, 440.0, rng)
    whole = (wav_dir / "tiny.wav").read_bytes()
    (wav_dir / "text.wav").write_bytes(b"this is not a RIFF/WAVE file\n")
    (wav_dir / "header.wav").write_bytes(whole[:20])
    (wav_dir / "frame.wav").write_bytes(whole[:-1])
    (wav_dir / "tiny.wav").unlink()
    (wav_dir / "folder.wav").mkdir()
    # wave reads no further than the RIFF chunk's size: 37 bytes short of
    # the file ends the data inside a frame of the analysis window
    _write_wav(wav_dir / "cut_riff.wav", 36, 440.0, rng)
    riff = bytearray((wav_dir / "cut_riff.wav").read_bytes())
    riff[4:8] = struct.pack("<I", len(riff) - 8 - 37)
    (wav_dir / "cut_riff.wav").write_bytes(bytes(riff))
    rc = main(["extract-features", "--in", str(wav_dir), "--out", str(tmp_path / "cache"), "--json"])
    assert rc == 3
    out, err = capsys.readouterr()
    payload = json.loads(out.strip())
    assert payload["extracted"] == ["ok"]
    assert sorted(payload["failed"]) == ["cut_riff", "folder", "frame", "header", "text"]
    assert f"skipped cut_riff: {wav_dir / 'cut_riff'}.wav: malformed WAV: audio data ends inside a 2-byte" in err
    for name in ("frame", "header", "text"):
        assert f"skipped {name}: {wav_dir / name}.wav: malformed WAV" in err
    assert f"skipped folder: {wav_dir / 'folder'}.wav: cannot read" in err


def test_extract_features_builds_no_dense_mel_bank(tmp_path, monkeypatch):
    def dense_bank(cfg):
        raise AssertionError("extract-features built the dense Mel bank")

    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    _write_wav(wav_dir / "ok.wav", 36, 440.0, np.random.default_rng(4))
    monkeypatch.setattr(F, "mel_filterbank", dense_bank)
    F._banks.cache_clear()  # so this run builds its banks
    assert main(["extract-features", "--in", str(wav_dir), "--out", str(tmp_path / "cache")]) == 0
    assert F.read_feature_cache(tmp_path / "cache" / "ok.dmrf").mel.shape == (128, 87)


@pytest.mark.parametrize("channels", (2, 1), ids=("stereo", "mono"))
def test_extract_features_reads_only_the_window_of_a_long_wav(tmp_path, monkeypatch, channels):
    """The traced peak up to the feature views stays near one and a half
    float64 segments (21 MB each): the segment and the window's int32
    channel sum. The whole 300 s track is 106 MB in float64."""
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    rng = np.random.default_rng(5)
    with wave.open(str(wav_dir / "long.wav"), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        for _ in range(10):
            wf.writeframes(rng.integers(-32768, 32768, size=(30 * SR, channels), dtype="<i2").tobytes())
    peaks = []

    def views(seg, cfg):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return F.FeaturePair(mel=np.zeros((128, 87)), coch=np.zeros((84, 87)))

    monkeypatch.setattr(F, "extract_pair", views)
    segment_bytes = F.FeatureConfig().segment_len * 8
    tracemalloc.start()
    try:
        assert main(["extract-features", "--in", str(wav_dir), "--out", str(tmp_path / "cache")]) == 0
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] < 1.75 * segment_bytes, f"peak {peaks[0] / 1e6:.1f} MB"


def test_non_numeric_manifest_value_is_a_config_error(workspace, trained, tmp_path, capsys):
    lines = workspace["manifest"].read_text().splitlines()
    manifest = tmp_path / "text.tsv"
    manifest.write_text("\n".join(lines + ["t-extra\tabc\t0.5"]) + "\n")
    rc = main([
        "eval", "--checkpoint", str(trained / "checkpoint.dmrc"), "--config", str(workspace["config"]),
        "--manifest", str(manifest), "--features", str(workspace["cache"]),
    ])
    assert rc == 2
    assert f"{manifest}:{len(lines) + 1}: valence and arousal must be numbers" in capsys.readouterr().out


@pytest.mark.parametrize("track_id", ("", "../t0"), ids=("empty", "parent-dir"))
def test_a_manifest_track_id_that_is_not_one_file_name_is_a_config_error(workspace, trained, tmp_path, capsys, track_id):
    lines = workspace["manifest"].read_text().splitlines()
    manifest = tmp_path / "ids.tsv"
    manifest.write_text("\n".join(lines + [f"{track_id}\t0.5\t0.5"]) + "\n")
    rc = main([
        "eval", "--checkpoint", str(trained / "checkpoint.dmrc"), "--config", str(workspace["config"]),
        "--manifest", str(manifest), "--features", str(workspace["cache"]),
    ])
    assert rc == 2
    assert f"{manifest}:{len(lines) + 1}: track_id {track_id!r} must name one file" in capsys.readouterr().out


def _text_input_argv(workspace, root, kind, path):
    """cli.main arguments that read path as a text input of the given kind.
    The feature directory and the WAV directory are empty, so no run gets past
    reading its inputs."""
    empty = root / "empty"
    empty.mkdir(exist_ok=True)
    if kind == "log":
        return ["diagnose", "--log", str(path), "--out", str(root / "diag.csv")]
    if kind == "feature_config":
        return ["extract-features", "--in", str(empty), "--out", str(root / "cache"), "--config", str(path)]
    config, manifest = (path, workspace["manifest"]) if kind == "run_config" else (workspace["config"], path)
    return ["train", "--config", str(config), "--manifest", str(manifest), "--features", str(empty),
            "--out", str(root / "o")]


@pytest.mark.parametrize("kind,code", (("run_config", 2), ("feature_config", 2), ("manifest", 2), ("log", 3)))
def test_undecodable_text_input_names_its_file_and_line(workspace, tmp_path, capsys, kind, code):
    good = {"run_config": RUN_CFG.encode(), "feature_config": b"hop = 30414\n",
            "manifest": workspace["manifest"].read_bytes(), "log": json.dumps(GOOD_RECORD).encode() + b"\n"}[kind]
    path = tmp_path / "input.txt"
    path.write_bytes(good.splitlines()[0] + b"\r\n# caf\xe9\n")
    assert main(_text_input_argv(workspace, tmp_path, kind, path)) == code
    assert f"{path}:2: not UTF-8 text: unexpected end of data at byte 5" in capsys.readouterr().out


def _fuzz_bytes(valid_lines: list[bytes]):
    """Arbitrary bytes, or lines mixing valid ones with arbitrary bytes and text."""
    line = st.one_of(st.sampled_from(valid_lines), st.binary(max_size=24), st.text(max_size=24).map(str.encode))
    return st.one_of(st.binary(max_size=200), st.lists(line, max_size=8).map(b"\n".join))


FUZZ_LINES = {
    "run_config": [row.encode() for row in RUN_CFG.splitlines()] + [b"heads = 3", b"dimension = none",
                                                                     b"dimension = foo"],
    "feature_config": [b"frame_len = 1001", b"hop = 1", b"frame_count = 1", b"segment_duration = inf", b"# note"],
    "manifest": [b"t0\t0.5\t0.5", b"t0\t0.5\t-0.5\tx.wav", b"t1\tnan\t0", b"# comment"],
    "log": [json.dumps(GOOD_RECORD).encode(), b"{}", b"[]"],
}


@pytest.mark.parametrize("kind", FUZZ_LINES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_arbitrary_text_input_gives_a_documented_exit_naming_the_file(workspace, tmp_path_factory, kind, data):
    root = tmp_path_factory.mktemp(kind)
    path = root / "input.txt"
    path.write_bytes(data.draw(_fuzz_bytes(FUZZ_LINES[kind]), label="content"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(_text_input_argv(workspace, root, kind, path))
    if kind == "log":
        assert rc == 0 or rc == 3 and str(path) in out.getvalue()
    elif rc == 3:  # the input loaded; the empty directory stopped the run
        {"run_config": cfgmod.load_train_configs, "feature_config": cfgmod.load_feature_config,
         "manifest": dk.parse_manifest}[kind](path)
    else:
        assert rc == 2 and str(path) in out.getvalue()


# the tiny checkpoint's model: 16 parameters, 56 floats
TINY_CHECKPOINT_MODEL = ModelConfig(embed_dim=2, fusion_dim=2, heads=1, layers=0, mel_bands=3, coch_channels=2,
                                    frame_count=2, ffn_expand=1)


@pytest.fixture(scope="module")
def tiny_files(workspace):
    """A tiny valid feature cache and checkpoint, each ending in a float32
    0.5, and a copy of the cache directory whose first manifest track a
    test may overwrite."""
    root = workspace["root"] / "tiny"
    root.mkdir()
    pair = F.FeaturePair(mel=np.ones((3, 2), np.float32), coch=np.full((2, 2), 0.5, np.float32))
    F.write_feature_cache(root / "tiny.dmrf", pair, "tiny", F.FeatureConfig())
    model = DualViewModel(TINY_CHECKPOINT_MODEL, np.random.default_rng(0))
    for p in model.parameters().values():
        p.data = np.full_like(p.data, 0.5)
    tr.save_checkpoint(root / "tiny.dmrc", SimpleNamespace(model=model), "cafe")
    cache = root / "cache"
    shutil.copytree(workspace["cache"], cache)
    first = dk.parse_manifest(workspace["manifest"])[0].track_id
    return {"dmrf": (root / "tiny.dmrf").read_bytes(), "dmrc": (root / "tiny.dmrc").read_bytes(),
            "root": root, "cache": cache, "victim": cache / f"{first}.dmrf"}


def _damage(buf, flips, insert, cut):
    """buf with bits flipped, then bytes inserted at an offset, then cut to
    a length. A bit index is taken modulo the bit count, so -1 is the last
    bit; -2, -9 and -32 are bits 30, 23 and 0 of the last float32."""
    out = bytearray(buf)
    for bit in flips:
        bit %= 8 * len(buf)
        out[bit // 8] ^= 1 << (bit % 8)
    if insert is not None:
        at, raw = insert
        out[at:at] = raw
    return bytes(out if cut is None else out[:cut])


DAMAGE = {"flips": st.lists(st.integers(-2**12, 2**12), max_size=3),
          "insert": st.none() | st.tuples(st.integers(0, 2**10), st.binary(min_size=1, max_size=8)),
          "cut": st.none() | st.integers(0, 2**10)}
# a last float32 of 0.5 (0x3f000000) with those bits flipped: 0x7f800001, a NaN, and 0x7f800000, +inf
NAN_FLIPS, INF_FLIPS = [-32, -9, -2], [-9, -2]


@settings(max_examples=150, deadline=None)
@given(**DAMAGE)
@example(flips=NAN_FLIPS, insert=None, cut=None)
@example(flips=INF_FLIPS, insert=None, cut=None)
def test_damaged_feature_cache_parses_or_exits_3(workspace, trained, tiny_files, flips, insert, cut):
    victim = tiny_files["victim"]
    victim.write_bytes(_damage(tiny_files["dmrf"], flips, insert, cut))
    try:
        pair = F.read_feature_cache(victim)
    except BadFeatureCache:
        rc = main([
            "eval", "--checkpoint", str(trained / "checkpoint.dmrc"), "--config", str(workspace["config"]),
            "--manifest", str(workspace["manifest"]), "--features", str(tiny_files["cache"]),
        ])
        assert rc == 3
    else:
        assert np.isfinite(pair.mel).all() and np.isfinite(pair.coch).all()


@settings(max_examples=150, deadline=None)
@given(**DAMAGE)
@example(flips=NAN_FLIPS, insert=None, cut=None)
@example(flips=INF_FLIPS, insert=None, cut=None)
def test_damaged_checkpoint_parses_or_exits_5(workspace, tiny_files, flips, insert, cut):
    path = tiny_files["root"] / "damaged.dmrc"
    path.write_bytes(_damage(tiny_files["dmrc"], flips, insert, cut))
    try:
        tr.read_checkpoint(path)
    except CheckpointMismatch as exc:
        assert str(exc).startswith(f"{path}: ")
        rc = main([
            "eval", "--checkpoint", str(path), "--config", str(workspace["config"]),
            "--manifest", str(workspace["manifest"]), "--features", str(workspace["cache"]),
        ])
        assert rc == 5
        return
    try:
        model, _ = tr.load_model_from_checkpoint(path, TINY_CHECKPOINT_MODEL)
    except CheckpointMismatch:
        return  # a renamed, reshaped or non-finite parameter
    assert all(np.isfinite(p.data).all() for p in model.parameters().values())


def _small_wav(channels):
    """A valid 16-bit 44.1 kHz WAV of 1000 frames of noise."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        wf.writeframes(np.random.default_rng(channels).integers(-32768, 32768, (1000, channels), "<i2").tobytes())
    return buf.getvalue()


SMALL_WAVS = {channels: _small_wav(channels) for channels in (1, 2, 3)}
# a 882-sample window from the first sample; with a 441-sample minimum the
# damaged tracks cover the window, end inside it or are too short
WAV_FUZZ_CFG = F.FeatureConfig(segment_start=0.0, segment_duration=0.02)


def _segment_or_error(read):
    try:
        return read().signal().tobytes()
    except (ConfigError, BadSampleRate, TrackTooShort) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(channels=st.integers(1, 3), flips=st.lists(st.integers(0, 64 * 8 - 1), max_size=3),
       insert=st.none() | st.tuples(st.integers(0, 6100), st.binary(min_size=1, max_size=8)),
       cut=st.none() | st.integers(0, 6100))
@example(channels=2, flips=[32, 34], insert=None, cut=None)  # RIFF size 3 bytes short: data ends inside a frame
@example(channels=1, flips=[41, 42], insert=None, cut=None)  # RIFF size 1536 bytes short: 228 frames of 1000
def test_damaged_wav_reads_its_window_as_the_whole_track_or_is_refused_by_name(tmp_path_factory, channels, flips,
                                                                               insert, cut):
    path = tmp_path_factory.mktemp("wav") / "damaged.wav"
    path.write_bytes(_damage(SMALL_WAVS[channels], flips, insert, cut))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "MIN_TRACK_SECONDS", 0.01)
        window = _segment_or_error(lambda: F.read_segment(path, WAV_FUZZ_CFG))
        whole = _segment_or_error(lambda: F.select_segment(*F.read_wav(path), WAV_FUZZ_CFG))
        mp.setattr(F, "WAV_CHUNK_FRAMES", 7)  # a cut track ends inside a chunk
        chunked = _segment_or_error(lambda: F.read_segment(path, WAV_FUZZ_CFG))
    assert window == whole == chunked
    if isinstance(whole, tuple) and whole[0] is ConfigError:
        assert whole[1].startswith(f"{path}: ")


@pytest.mark.parametrize("dims", ((0,) * 65, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)), ids=("rank_65", "overflow"))
@pytest.mark.parametrize("kind,code", (("dmrf", 3), ("dmrc", 5)))
def test_unbuildable_array_shape_keeps_the_documented_exit(workspace, trained, tiny_files, tmp_path, capsys,
                                                           dims, kind, code):
    array = struct.pack(f"<BB{len(dims)}I", 0, len(dims), *dims)
    checkpoint, features = trained / "checkpoint.dmrc", workspace["cache"]
    if kind == "dmrf":
        tiny_files["victim"].write_bytes(b"DMRF" + struct.pack("<I", 1) + array + array)
        features = tiny_files["cache"]
    else:
        table = struct.pack("<IH", 1, 1) + b"w" + array
        checkpoint = tmp_path / "bad.dmrc"
        checkpoint.write_bytes(b"DMRC" + struct.pack("<IH", 1, 4) + b"cafe" + struct.pack("<I", 1) + b"PARM"
                               + struct.pack("<Q", len(table)) + table)
    rc = main([
        "eval", "--checkpoint", str(checkpoint), "--config", str(workspace["config"]),
        "--manifest", str(workspace["manifest"]), "--features", str(features),
    ])
    assert rc == code
    where = f"{checkpoint}: section PARM: " if kind == "dmrc" else ""
    assert f"{where}unusable rank-{len(dims)} shape" in capsys.readouterr().out


@pytest.mark.parametrize("repeat", ("section", "name"))
def test_a_checkpoint_that_repeats_a_section_or_a_name_exits_5_naming_it(workspace, trained, tmp_path, capsys,
                                                                        repeat):
    payload = tr.read_checkpoint(trained / "checkpoint.dmrc")
    params = payload["sections"]["PARM"]
    table = ioutil.pack_array_table(params)
    checkpoint = tmp_path / "repeat.dmrc"
    if repeat == "section":
        sections, want = [table, table], f"{checkpoint}: repeated section PARM"
    else:
        name = next(iter(params))
        copy = ioutil.pack_array_table({name: np.zeros_like(params[name])})[4:]
        sections = [struct.pack("<I", len(params) + 1) + table[4:] + copy]
        want = f"{checkpoint}: section PARM: repeated name '{name}'"
    config_hash = payload["config_hash"].encode("ascii")
    checkpoint.write_bytes(b"".join([b"DMRC", struct.pack("<IH", tr.CHECKPOINT_VERSION, len(config_hash)), config_hash,
                                     struct.pack("<I", len(sections)),
                                     *(b"PARM" + struct.pack("<Q", len(t)) + t for t in sections)]))
    rc = main([
        "eval", "--checkpoint", str(checkpoint), "--config", str(workspace["config"]),
        "--manifest", str(workspace["manifest"]), "--features", str(workspace["cache"]),
    ])
    assert rc == 5
    assert want in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_diverging_run_exits_4_naming_the_batch_and_writes_nothing(workspace, tmp_path, capsys):
    # at a learning rate of 1e30 the parameters stay finite and the second
    # step's forward overflows; then a run whose only step is its last, so the
    # evaluation at the end of train overflows; a learning rate of 1e100 or a
    # weight decay of 1e39 overflows float32, so the first step's update
    # leaves the parameters non-finite, which the next forward would only see
    last_step = (RUN_CFG.replace("epochs = 3", "epochs = 1").replace("batch_size = 8", "batch_size = 32")
                 .replace("queue_size = 16", "queue_size = 32"))
    batch1 = "non-finite value in the step at epoch 0, batch 1: non-finite value produced by op"
    update0 = "non-finite value in the step at epoch 0, batch 0: the update left parameter"
    for name, text, line, want in (
        ("batch1", RUN_CFG, "learning_rate = 1e30", batch1),
        ("last-step", last_step, "learning_rate = 1e30", "non-finite value produced by op"),
        ("lr-update", RUN_CFG, "learning_rate = 1e100", update0),
        ("decay-update", RUN_CFG, "weight_decay = 1e39", update0),
    ):
        config = tmp_path / f"{name}.cfg"
        config.write_text(text + line + "\n")
        out = tmp_path / name
        rc = main([
            "train", "--config", str(config), "--manifest", str(workspace["manifest"]),
            "--features", str(workspace["cache"]), "--out", str(out),
        ])
        assert rc == 4, name
        assert want in capsys.readouterr().out
        assert list(out.iterdir()) == [], name


@pytest.mark.parametrize("split", ("train", "test"))
def test_a_cache_holding_nan_exits_3_naming_it_before_train_writes(workspace, tmp_path, capsys, split):
    # RUN_CFG's dimension and seed
    ids = dk.stratified_split(dk.parse_manifest(workspace["manifest"]), "arousal", seed=2)
    victim = (ids.train_ids if split == "train" else ids.test_ids)[0]
    cache = tmp_path / "cache"
    shutil.copytree(workspace["cache"], cache)
    pair = F.read_feature_cache(cache / f"{victim}.dmrf")
    pair.coch[3, 5] = np.nan
    F.write_feature_cache(cache / f"{victim}.dmrf", pair, victim, F.FeatureConfig())
    out = tmp_path / "out"
    rc = main([
        "train", "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
        "--features", str(cache), "--out", str(out),
    ])
    assert rc == 3
    assert f"{cache / victim}.dmrf: the coch gram holds a non-finite value" in capsys.readouterr().out
    assert not out.exists()


@pytest.fixture(scope="module")
def forty(workspace):
    """40 tracks of 12 x 10 Mel and 9 x 10 cochleagram grams: their cache directory, the
    run flags but --features, their split and a checkpoint trained on them."""
    root = workspace["root"] / "forty"
    cache = root / "cache"
    cache.mkdir(parents=True)
    samples = dk.synth_dataset(n=40, separation=6.0, noise=0.05, seed=3, mel_shape=(12, 10), coch_shape=(9, 10))
    for s in samples:
        F.write_feature_cache(cache / f"{s.track_id}.dmrf", s.pair, s.track_id, F.FeatureConfig())
    manifest = root / "manifest.tsv"
    manifest.write_text("".join(f"{s.track_id}\t{s.label - 0.5}\t{s.label - 0.5}\n" for s in samples))
    run = ["--config", str(workspace["config"]), "--manifest", str(manifest)]
    assert main(["train", *run, "--features", str(cache), "--out", str(root / "run")]) == 0
    split = dk.stratified_split(dk.parse_manifest(manifest), "arousal", seed=2)  # RUN_CFG's dimension and seed
    return {"run": run, "cache": cache, "checkpoint": str(root / "run" / "checkpoint.dmrc"), "split": split,
            "n": len(samples)}


def _argv(command, forty, out, cache=None):
    argv = [command, *forty["run"], "--features", str(cache or forty["cache"])]
    argv += ["--checkpoint", forty["checkpoint"]] if command != "train" else []
    return argv + (["--out", str(out)] if command != "eval" else [])


def test_a_command_holds_one_batch_of_grams_and_reads_a_cache_once_per_use(forty, tmp_path, monkeypatch):
    # every FeaturePair a cache read returns is counted while it lives
    counts = {"live": 0, "peak": 0, "reads": 0}

    def dead():
        counts["live"] -= 1

    def counted_read(path, real=F.read_feature_cache):
        pair = real(path)
        counts["live"] += 1
        counts["reads"] += 1
        counts["peak"] = max(counts["peak"], counts["live"])
        weakref.finalize(pair, dead)
        return pair

    monkeypatch.setattr(F, "read_feature_cache", counted_read)
    n, n_train, n_test = forty["n"], len(forty["split"].train_ids), len(forty["split"].test_ids)
    epochs = 3  # RUN_CFG's, at batch_size 8 below INFER_BATCH
    # the up-front check reads every cache once; then each use reads it once,
    # for both views; train also resolves its model from its first sample
    reads = {"train": n + 1 + epochs * n_train + n_train + n_test, "eval": n + n_test, "export-embeddings": 2 * n}
    for command, want in reads.items():
        counts.update(live=0, peak=0, reads=0)
        assert main(_argv(command, forty, tmp_path / command)) == 0
        assert counts["peak"] <= tr.INFER_BATCH + 1, command  # one batch plus the first track
        assert (counts["reads"], counts["live"]) == (want, 0), command


@pytest.mark.parametrize("command", ("train", "eval", "export-embeddings"))
def test_a_cache_that_changes_after_the_check_exits_3_naming_the_track(forty, tmp_path, capsys, monkeypatch,
                                                                         command):
    cache = tmp_path / "cache"
    shutil.copytree(forty["cache"], cache)
    split = forty["split"]
    victim = split.train_ids[-1] if command == "train" else split.test_ids[-1]
    path = cache / f"{victim}.dmrf"
    pair = F.read_feature_cache(path)

    def delete():
        path.unlink()

    def cut():
        path.write_bytes(path.read_bytes()[:12])

    def nan():  # a new array: the reshape case below must cut finite grams
        F.write_feature_cache(path, F.FeaturePair(np.full_like(pair.mel, np.nan), pair.coch), victim, F.FeatureConfig())

    def reshape():
        F.write_feature_cache(path, F.FeaturePair(pair.mel[:, :9], pair.coch[:, :9]), victim, F.FeatureConfig())

    real_load = cli._load_run
    for change in (delete, cut, nan, reshape):
        shutil.copy(forty["cache"] / path.name, path)

        def load_then_change(args):
            loaded = real_load(args)
            change()
            return loaded

        monkeypatch.setattr(cli, "_load_run", load_then_change)
        out = tmp_path / f"{command}-{change.__name__}"
        assert main(_argv(command, forty, out, cache)) == 3, change.__name__
        text = capsys.readouterr().out
        assert text.startswith("data error: ") and victim in text, change.__name__
        if command == "train":
            assert list(out.iterdir()) == [], change.__name__
        assert not out.is_file() and not list(tmp_path.glob(".tmp-*")), change.__name__


@pytest.mark.parametrize("command", ("eval", "export-embeddings"))
def test_a_checkpoint_parameter_holding_nan_exits_5_naming_it(workspace, trained, tmp_path, capsys, command):
    payload = tr.read_checkpoint(trained / "checkpoint.dmrc")
    params = payload["sections"]["PARM"]
    name = sorted(params)[0]
    params[name].flat[-1] = np.nan
    checkpoint = tmp_path / "nan.dmrc"
    model = SimpleNamespace(parameters=lambda: {n: SimpleNamespace(data=a) for n, a in params.items()})
    tr.save_checkpoint(checkpoint, SimpleNamespace(model=model), payload["config_hash"])
    out = ["--out", str(tmp_path / "emb.csv")] if command == "export-embeddings" else []
    rc = main([
        command, "--checkpoint", str(checkpoint), "--config", str(workspace["config"]),
        "--manifest", str(workspace["manifest"]), "--features", str(workspace["cache"]), *out,
    ])
    assert rc == 5
    assert f"{checkpoint}: parameter {name} holds a non-finite value" in capsys.readouterr().out
    assert not (tmp_path / "emb.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ("eval", "export-embeddings"))
def test_a_checkpoint_whose_forward_overflows_exits_4_naming_the_op(workspace, trained, tmp_path, capsys, command):
    payload = tr.read_checkpoint(trained / "checkpoint.dmrc")
    params = {n: a * np.float32(1e30) for n, a in payload["sections"]["PARM"].items()}
    assert all(np.isfinite(a).all() for a in params.values())
    checkpoint = tmp_path / "huge.dmrc"
    model = SimpleNamespace(parameters=lambda: {n: SimpleNamespace(data=a) for n, a in params.items()})
    tr.save_checkpoint(checkpoint, SimpleNamespace(model=model), payload["config_hash"])
    out = ["--out", str(tmp_path / "emb.csv")] if command == "export-embeddings" else []
    rc = main([
        command, "--checkpoint", str(checkpoint), "--config", str(workspace["config"]),
        "--manifest", str(workspace["manifest"]), "--features", str(workspace["cache"]), *out,
    ])
    assert rc == 4
    assert "numeric error: non-finite value produced by op 'linear'" in capsys.readouterr().out
    assert not (tmp_path / "emb.csv").exists()


@pytest.mark.parametrize("damage", ("renamed", "reshaped", "hash"))
def test_a_checkpoint_that_does_not_fit_exits_5_naming_it(workspace, trained, tmp_path, capsys, damage):
    payload = tr.read_checkpoint(trained / "checkpoint.dmrc")
    params = payload["sections"]["PARM"]
    name = sorted(params)[0]
    config_hash = payload["config_hash"]
    if damage == "renamed":
        params[name + "_renamed"] = params.pop(name)
        want = "parameter table mismatch"
    elif damage == "reshaped":
        params[name] = params[name].reshape(-1)[:-1]
        want = f"shape mismatch for {name}"
    else:
        config_hash, want = "0" * len(config_hash), "checkpoint hash"
    checkpoint = tmp_path / f"{damage}.dmrc"
    model = SimpleNamespace(parameters=lambda: {n: SimpleNamespace(data=a) for n, a in params.items()})
    tr.save_checkpoint(checkpoint, SimpleNamespace(model=model), config_hash)
    rc = main([
        "eval", "--checkpoint", str(checkpoint), "--config", str(workspace["config"]),
        "--manifest", str(workspace["manifest"]), "--features", str(workspace["cache"]), "--json",
    ])
    assert rc == 5
    assert json.loads(capsys.readouterr().out)["summary"].startswith(f"checkpoint mismatch: {checkpoint}: {want}")


@pytest.mark.parametrize("line", (
    "sample_rate = 48000", "mel_bands = 0", "segment_duration = nan", "segment_start = -1",
    "frame_count = 0", "coch_channels = 0", "gammatone_order = 0", "compression = 0", "log_floor = nan",
    "mel_fmin = 22050", "mel_fmax = 30000", "gt_fmin = 0", "gt_fmax = nan", "preemphasis = 1",
    "frame_len = 0", "hop = 0", "frame_len = 1001", "frame_count = 1", "frame_len = 100000\nsegment_duration = 0.01",
    "segment_start = inf", "segment_start = 1e305", "log_floor = inf", "compression = inf",
))
def test_bad_feature_config_value_exits_2_naming_the_key(tmp_path, capsys, line):
    wav_dir = tmp_path / "wavs"
    wav_dir.mkdir()
    _write_wav(wav_dir / "ok.wav", 36, 440.0, np.random.default_rng(2))
    bad = tmp_path / "features.cfg"
    bad.write_text(line + "\n")
    rc = main(["extract-features", "--in", str(wav_dir), "--out", str(tmp_path / "cache"), "--config", str(bad)])
    assert rc == 2
    assert line.split(" = ")[0] in capsys.readouterr().out
    assert not (tmp_path / "cache").exists()


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, dvmer.cli; dvmer.cli.build_parser(); print(sorted(m for m in sys.modules if 'scipy' in m))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_train_is_byte_identical_across_processes_at_one_blas_thread(workspace, tmp_path):
    # the BLAS thread count changes the bits, so both children pin it
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        subprocess.run(
            [sys.executable, "-m", "dvmer.cli", "train", "--config", str(workspace["config"]),
             "--manifest", str(workspace["manifest"]), "--features", str(workspace["cache"]), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
    for name in ("checkpoint.dmrc", "epochs.log"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
