import json
import os
import shutil
import wave

import numpy as np
import pytest

from dvmer import data as dk
from dvmer import features as F
from dvmer.cli import main

SR = 44100

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
    records = []
    cfg = F.FeatureConfig()
    for s in samples:
        F.write_feature_cache(cache / f"{s.track_id}.dmrf", s.pair, s.track_id, cfg)
        value = 0.5 if s.label == 1 else -0.5
        records.append(dk.TrackRecord(s.track_id, valence=value, arousal=value))
    manifest = root / "manifest.tsv"
    dk.write_manifest(manifest, records)
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


def test_train_idempotent_given_seed(workspace, trained, tmp_path):
    out2 = tmp_path / "out2"
    rc = main([
        "train", "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]), "--out", str(out2),
    ])
    assert rc == 0
    assert (out2 / "checkpoint.dmrc").read_bytes() == (trained / "checkpoint.dmrc").read_bytes()
    assert (out2 / "epochs.log").read_text() == (trained / "epochs.log").read_text()


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


def test_diagnose_csv_layout(workspace, trained, tmp_path):
    out_csv = tmp_path / "diag.csv"
    rc = main(["diagnose", "--log", str(trained / "epochs.log"), "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["epoch", "tau", "theta", "mask_ratio", "mean_confidence",
                      "mean_reliability", "queue_entropy", "coverage_0", "coverage_1"]
    assert len(lines) == 1 + 3
    taus = [float(line.split(",")[1]) for line in lines[1:]]
    thetas = [float(line.split(",")[2]) for line in lines[1:]]
    assert taus[0] == 1.5 and taus[-1] == 0.7
    assert thetas[0] == 0.65 and thetas[-1] == 0.35


def test_diagnose_bad_log_is_data_error(tmp_path):
    bad = tmp_path / "bad.log"
    bad.write_text("{not json\n")
    rc = main(["diagnose", "--log", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 3


GOOD_RECORD = {"epoch": 0, "tau": 1.5, "theta": 0.65, "mask_ratio": 0.0, "mean_confidence": 0.5,
               "mean_reliability": 0.5, "queue_entropy": 0.0, "queue_coverage": [0.5, 0.5]}


@pytest.mark.parametrize("record,reason", (
    ('{"epoch": 0}', "missing key(s) tau, theta"),
    ("[1, 2]", "expected a JSON object"),
    (json.dumps({**GOOD_RECORD, "queue_coverage": 5}), "queue_coverage must be a list"),
), ids=("missing_key", "not_an_object", "coverage_not_a_list"))
def test_diagnose_malformed_record_is_a_data_error(tmp_path, capsys, record, reason):
    log = tmp_path / "epochs.log"
    log.write_text(json.dumps(GOOD_RECORD) + "\n" + record + "\n")
    rc = main(["diagnose", "--log", str(log), "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    out = capsys.readouterr().out
    assert f"{log}:2: bad record: {reason}" in out
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
    from dvmer import config as cfgmod
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


def test_exported_rows_match_a_graph_building_forward(workspace, trained, tmp_path):
    from dvmer import config as cfgmod
    from dvmer import training as tr
    emb = tmp_path / "emb.csv"
    rc = main([
        "export-embeddings", "--checkpoint", str(trained / "checkpoint.dmrc"),
        "--config", str(workspace["config"]), "--manifest", str(workspace["manifest"]),
        "--features", str(workspace["cache"]), "--out", str(emb),
    ])
    assert rc == 0
    rows = [line.split(",") for line in emb.read_text().strip().splitlines()[1:]]

    _, model_cfg = cfgmod.load_train_configs(workspace["config"])
    model, _ = tr.load_model_from_checkpoint(trained / "checkpoint.dmrc", model_cfg)
    records = dk.parse_manifest(workspace["manifest"])
    pairs = [F.read_feature_cache(workspace["cache"] / f"{r.track_id}.dmrf") for r in records]
    out = model.forward(np.stack([p.mel for p in pairs]), np.stack([p.coch for p in pairs]))
    assert out.z_fuse._backward is not None  # the reference builds a graph
    assert [r[0] for r in rows] == [r.track_id for r in records]
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
    for line in (out / "epochs.log").read_text().strip().splitlines():
        rec = json.loads(line)
        assert rec["loss_cont"] == 0.0
        assert rec["loss_pl"] == 0.0
        assert rec["mask_ratio"] == 0.0


@pytest.mark.parametrize("line", ("epochs = none", "batch_size = none", "seed = none", "cross_attention = false"))
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
    "contrast_temperature = 0", "tau_min = 0",
))
def test_out_of_range_run_config_value_exits_2_naming_the_key(workspace, tmp_path, capsys, line):
    test_bad_run_config_value_exits_2_naming_the_key(workspace, tmp_path, capsys, line)


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
