"""Dataset ingestion, label binarisation, stratified splitting, annotation
consistency checking, and synthetic dual-view data for tests.

The on-disk manifest is one tab-separated record per line:

    track_id <TAB> valence <TAB> arousal [<TAB> audio_path]

A fourth column, such as the track's audio path, is accepted and ignored.
A track id names one file of the flat feature directory: nonempty, no path separator.
Valence and arousal are continuous values in [-1, 1]; binary class labels
come from the zero threshold (positive values map to class 1, zero and
negative values to class 0).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ClassTooSmall, ConfigError, NoPairs
from .features import FeaturePair
from .ioutil import text_lines

DIMENSIONS = ("arousal", "valence")
TRAIN_FRACTION = 0.7  # of each class, in the train split


@dataclass
class TrackRecord:
    track_id: str
    valence: float
    arousal: float

    def label(self, dimension: str) -> int:
        return binarize_label(getattr(self, _check_dimension(dimension)))


@dataclass
class Sample:
    """One training/evaluation item: features plus its binary label."""

    track_id: str
    label: int
    pair: FeaturePair


@dataclass
class SplitManifest:  # fields in split.json's key order
    dimension: str
    seed: int
    train_ids: list
    test_ids: list


def _check_dimension(dimension: str) -> str:
    if dimension not in DIMENSIONS:
        raise ConfigError(f"dimension must be one of {DIMENSIONS}, got {dimension!r}")
    return dimension


def binarize_label(value: float) -> int:
    """Zero-threshold binarisation; zero goes to the negative class."""
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"label value must be finite, got {value}")
    return 1 if value > 0.0 else 0


def parse_manifest(path) -> list[TrackRecord]:
    records = []
    first_line = {}
    for lineno, line in text_lines(path, ConfigError):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise ConfigError(f"{path}:{lineno}: expected id, valence, arousal[, audio_path]")
        track_id = parts[0]
        if not track_id or "/" in track_id or os.sep in track_id:
            raise ConfigError(f"{path}:{lineno}: track_id {track_id!r} must name one file: nonempty, no path separator")
        try:
            valence, arousal = float(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: valence and arousal must be numbers, got {parts[1]!r}, {parts[2]!r}"
            ) from None
        if track_id in first_line:
            raise ConfigError(
                f"{path}:{lineno}: duplicate track_id {track_id!r}, first on line {first_line[track_id]}"
            )
        first_line[track_id] = lineno
        if not (abs(valence) <= 1.0 and abs(arousal) <= 1.0):
            raise ConfigError(
                f"{path}:{lineno}: valence/arousal magnitudes must be <= 1, "
                f"got ({valence}, {arousal})"
            )
        records.append(TrackRecord(track_id=track_id, valence=valence, arousal=arousal))
    return records


def stratified_split(records: list[TrackRecord], dimension: str, seed: int = 0) -> SplitManifest:
    """Deterministic per-class TRAIN_FRACTION split preserving class ratios
    within one sample per class. Requires at least two records in every class."""
    _check_dimension(dimension)
    by_class: dict[int, list[str]] = {0: [], 1: []}
    for r in records:
        by_class[r.label(dimension)].append(r.track_id)
    for cls, ids in by_class.items():
        if ids and len(ids) < 2:
            raise ClassTooSmall(f"class {cls} has only {len(ids)} record(s)")
    if not by_class[0] or not by_class[1]:
        raise ClassTooSmall("both classes must be present for a stratified split")

    rng = np.random.default_rng(seed)
    train_ids, test_ids = [], []
    for cls in (0, 1):
        ids = sorted(by_class[cls])
        order = rng.permutation(len(ids))
        n_train = int(np.floor(TRAIN_FRACTION * len(ids) + 0.5))
        n_train = min(max(n_train, 1), len(ids) - 1)  # keep both sides nonempty
        for i, pos in enumerate(order):
            (train_ids if i < n_train else test_ids).append(ids[pos])
    return SplitManifest(train_ids=sorted(train_ids), test_ids=sorted(test_ids), dimension=dimension, seed=seed)


def annotation_consistency(pairs) -> dict:
    """Mean Euclidean distance between duplicate coordinate pairs; passes
    when the mean does not exceed 0.25 (boundary inclusive)."""
    pairs = list(pairs)
    if not pairs:
        raise NoPairs("at least one duplicate pair is required")
    distances = []
    for (v1, a1), (v2, a2) in pairs:
        distances.append(float(np.hypot(v1 - v2, a1 - a2)))
    mean = float(np.mean(distances))
    return {"mean_distance": mean, "pass": mean <= 0.25}


def synth_dataset(
    n: int = 200,
    separation: float = 6.0,
    noise: float = 0.1,
    seed: int = 0,
    mel_shape=(128, 87),
    coch_shape=(84, 87),
    latent_dim: int = 8,
) -> list[Sample]:
    """Two Gaussian class clusters in a latent space, rendered into the two
    view shapes via fixed random linear maps plus per-view noise.

    Draw order is fixed so identical seeds give bit-identical datasets:
    maps first, then labels, latents, and view noise.
    """
    if n < 4:
        raise ConfigError(f"synth_dataset needs n >= 4, got {n}")
    if separation <= 0:
        raise ConfigError("separation must be positive")
    rng = np.random.default_rng(seed)
    mel_cells = int(np.prod(mel_shape))
    coch_cells = int(np.prod(coch_shape))
    map_mel = rng.normal(size=(mel_cells, latent_dim)) / np.sqrt(latent_dim)
    map_coch = rng.normal(size=(coch_cells, latent_dim)) / np.sqrt(latent_dim)

    direction = rng.normal(size=latent_dim)
    direction /= np.linalg.norm(direction)
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2:] = 1
    labels = labels[rng.permutation(n)]

    latents = rng.normal(size=(n, latent_dim)) + np.where(labels[:, None] == 1, 0.5, -0.5) * separation * direction[None, :]
    mel_noise = rng.normal(size=(n, mel_cells)) * noise
    coch_noise = rng.normal(size=(n, coch_cells)) * noise

    samples = []
    for i in range(n):
        mel = (map_mel @ latents[i] + mel_noise[i]).reshape(mel_shape)
        coch = (map_coch @ latents[i] + coch_noise[i]).reshape(coch_shape)
        samples.append(
            Sample(
                track_id=f"synth-{i:04d}",
                label=int(labels[i]),
                pair=FeaturePair(mel=mel, coch=coch),
            )
        )
    return samples


def labeled_mask(labels, labeled_fraction: float, seed: int) -> np.ndarray:
    """Which rows keep their label in a semi-supervised run: per class, in order of first
    appearance, one seeded permutation keeps max(1, round(labeled_fraction * n)) of its n rows."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    mask = np.zeros(labels.size, dtype=bool)
    for label in dict.fromkeys(labels.tolist()):
        idxs = np.flatnonzero(labels == label)
        n_keep = max(1, int(round(labeled_fraction * idxs.size)))
        mask[idxs[rng.permutation(idxs.size)[:n_keep]]] = True
    return mask
