"""Seeded inputs and per-round command lines for the three workloads.

A workload is a fixed set of generated files plus one *round*: the list of
`dvmer` command lines that the workload process runs in-process through
`dvmer.cli.main`. Every round of a workload does the same amount of work, so
per-round times and per-round layer totals are comparable across runs.

  extract  `extract-features` over EXTRACT_TRACKS synthetic WAVs
  train    `train` with the default model and trainer configs
  infer    `eval` on both splits, then `export-embeddings`

Inputs depend only on the seed. `prepare` also records how many items and
operations one round has, counted from the generated inputs with dvmer's
own stratified split. Nothing here imports dvmer at module level;
the generators that need it import it when called.
"""

from __future__ import annotations

import json
import math
import os
import wave

import numpy as np

WORKLOADS = ("extract", "train", "infer")

SAMPLE_RATE = 44100
# one round of `extract`: mono/stereo x (covers the whole 15-75 s window /
# ends inside it and is zero-padded)
EXTRACT_TRACKS = (
    {"channels": 1, "seconds": (84.0, 90.0)},
    {"channels": 2, "seconds": (84.0, 90.0)},
    {"channels": 1, "seconds": (50.0, 62.0)},
    {"channels": 2, "seconds": (50.0, 62.0)},
)
# the track the float64 reference check recomputes: stereo and zero-padded
REFERENCE_TRACK = 3

# manifest size per workload. For infer the eval train split (140 tracks)
# spans two full batches of predict_scores' 64 and export spans three.
SYNTH_TRACKS = {"train": 64, "infer": 200}
TRAIN_EPOCHS = 3      # epochs per `train` round; batch size is the default 16
BATCH_SIZE = 16


def run_config_text(seed: int) -> str:
    """Run config: epochs and batch size stated, everything else default."""
    return f"epochs = {TRAIN_EPOCHS}\nbatch_size = {BATCH_SIZE}\nseed = {seed}\ndimension = arousal\n"


# -- input generation ----------------------------------------------------------


def synth_track(rng: np.random.Generator, seconds: float, channels: int) -> np.ndarray:
    """A few slowly gliding partials over amplitude-modulated noise, as int16
    samples shaped [n, channels]."""
    n = int(seconds * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    out = np.zeros((n, channels))
    for ch in range(channels):
        sig = 0.05 * rng.standard_normal(n) * (1.0 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.1, 2.0) * t))
        for _ in range(4):
            f0 = rng.uniform(60.0, 4000.0)
            glide = rng.uniform(-0.2, 0.2) * f0 / seconds
            sig += rng.uniform(0.05, 0.2) * np.sin(2 * np.pi * (f0 + 0.5 * glide * t) * t + rng.uniform(0, 2 * np.pi))
        out[:, ch] = sig
    peak = np.max(np.abs(out))
    return np.round(out / peak * 0.8 * 32767).astype("<i2")


def write_wav(path: str, samples: np.ndarray):
    with wave.open(path, "wb") as wf:
        wf.setnchannels(samples.shape[1])
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(samples.tobytes())


def make_extract_inputs(work: str, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    wav_dir = os.path.join(work, "wavs")
    os.makedirs(wav_dir)
    names = []
    for i, spec in enumerate(EXTRACT_TRACKS):
        seconds = rng.uniform(*spec["seconds"])
        name = f"track{i}"
        write_wav(os.path.join(wav_dir, name + ".wav"), synth_track(rng, seconds, spec["channels"]))
        names.append(name)
    return {"wavs": wav_dir, "tracks": names, "items": {"extract": len(names)}, "ops": len(names)}


def make_synth_inputs(work: str, seed: int, n_tracks: int) -> dict:
    """Feature caches from `data.synth_dataset`, a manifest whose arousal
    sign carries the class, and the run config."""
    from dvmer import data as datakit
    from dvmer import features as feats

    cache_dir = os.path.join(work, "caches")
    os.makedirs(cache_dir)
    cfg = feats.FeatureConfig()
    rng = np.random.default_rng([seed, 2])
    lines = []
    for s in datakit.synth_dataset(n=n_tracks, seed=seed):
        feats.write_feature_cache(os.path.join(cache_dir, f"{s.track_id}.dmrf"), s.pair, s.track_id, cfg)
        arousal = rng.uniform(0.05, 1.0) * (1 if s.label == 1 else -1)
        valence = rng.uniform(-1.0, 1.0)
        lines.append(f"{s.track_id}\t{valence!r}\t{arousal!r}\t")
    manifest = os.path.join(work, "manifest.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    config = os.path.join(work, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(run_config_text(seed))
    return {"caches": cache_dir, "manifest": manifest, "config": config}


def split_sizes(inputs: dict) -> tuple[int, int]:
    """Train/test sizes of the split `dvmer` makes of the inputs' manifest."""
    from dvmer import config as cfgmod
    from dvmer import data as datakit

    train_cfg, _ = cfgmod.load_train_configs(inputs["config"])
    split = datakit.stratified_split(datakit.parse_manifest(inputs["manifest"]), train_cfg.dimension,
                                     seed=train_cfg.seed)
    return len(split.train_ids), len(split.test_ids)


def prepare(workload: str, work: str, seed: int) -> dict:
    """Generate the workload's input files under `work`; returns their
    description with the round's work: "items" per command (tracks for
    extract, eval and export; epochs x train split for train) and "ops",
    the operations it attempts (tracks, or optimiser steps for train).
    The infer checkpoint is trained by the caller."""
    if workload == "extract":
        return make_extract_inputs(work, seed)
    inputs = make_synth_inputs(work, seed, SYNTH_TRACKS[workload])
    n_train, n_test = split_sizes(inputs)
    if workload == "train":
        inputs["items"] = {"train": TRAIN_EPOCHS * n_train}
        inputs["ops"] = TRAIN_EPOCHS * math.ceil(n_train / BATCH_SIZE)
    else:
        inputs["items"] = {"eval_train": n_train, "eval_test": n_test, "export": n_train + n_test}
        inputs["ops"] = 2 * (n_train + n_test)
    return inputs


# -- rounds --------------------------------------------------------------------


def round_commands(workload: str, inputs: dict, out: str) -> list[tuple[str, list[str]]]:
    """(label, argv) pairs making up one round; outputs go under `out`."""
    if workload == "extract":
        return [("extract", ["extract-features", "--in", inputs["wavs"], "--out", out, "--json"])]
    common = ["--config", inputs["config"], "--manifest", inputs["manifest"], "--features", inputs["caches"]]
    if workload == "train":
        return [("train", ["train", *common, "--out", out, "--json"])]
    model = ["--checkpoint", inputs["checkpoint"], *common]
    return [
        ("eval_train", ["eval", *model, "--split", "train", "--json"]),
        ("eval_test", ["eval", *model, "--split", "test", "--json"]),
        ("export", ["export-embeddings", *model, "--out", os.path.join(out, "embeddings.csv"), "--json"]),
    ]


def dump(path: str, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
