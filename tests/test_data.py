import os
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dvmer import data as dk
from dvmer.errors import ClassTooSmall, ConfigError, NoPairs

import example_checks as ec

DATA_EXAMPLES = [(n, f) for n, f in ec.EXAMPLES if n.startswith("datakit.")]


@pytest.mark.parametrize("label,check", DATA_EXAMPLES, ids=[n for n, _ in DATA_EXAMPLES])
def test_examples(label, check):
    check()


def test_binarize_monotone():
    rng = np.random.default_rng(0)
    values = np.sort(rng.uniform(-1, 1, size=50))
    classes = [dk.binarize_label(v) for v in values]
    assert all(a <= b for a, b in zip(classes, classes[1:]))


def test_binarize_rejects_non_finite():
    with pytest.raises(ConfigError):
        dk.binarize_label(float("nan"))


def test_split_is_partition():
    records = [dk.TrackRecord(f"t{i}", valence=(-1) ** i * 0.4, arousal=0.2) for i in range(37)]
    split = dk.stratified_split(records, "valence", seed=5)
    train, test = set(split.train_ids), set(split.test_ids)
    assert not train & test
    assert train | test == {r.track_id for r in records}


def test_another_seed_gives_another_split():
    records = [dk.TrackRecord(f"t{i}", valence=(-1) ** i * 0.4, arousal=0.2) for i in range(37)]
    first, second = (dk.stratified_split(records, "valence", seed=seed) for seed in (5, 6))
    assert first.train_ids != second.train_ids and first.test_ids != second.test_ids


def test_split_stratification_within_one_sample():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n_pos = int(rng.integers(5, 40))
        n_neg = int(rng.integers(5, 40))
        records = (
            [dk.TrackRecord(f"p{i}", valence=0.5, arousal=0.1) for i in range(n_pos)]
            + [dk.TrackRecord(f"n{i}", valence=-0.5, arousal=0.1) for i in range(n_neg)]
        )
        split = dk.stratified_split(records, "valence", seed=trial)
        got_pos = sum(1 for t in split.train_ids if t.startswith("p"))
        got_neg = sum(1 for t in split.train_ids if t.startswith("n"))
        assert abs(got_pos - 0.7 * n_pos) <= 1.0
        assert abs(got_neg - 0.7 * n_neg) <= 1.0


def test_split_requires_two_per_class():
    records = [
        dk.TrackRecord("a", valence=0.5, arousal=0.5),
        dk.TrackRecord("b", valence=-0.5, arousal=0.5),
        dk.TrackRecord("c", valence=-0.4, arousal=0.5),
    ]
    with pytest.raises(ClassTooSmall):
        dk.stratified_split(records, "valence", seed=0)


def test_split_manifest_json_round_trip():
    split = dk.SplitManifest(train_ids=["a", "b"], test_ids=["c"], dimension="arousal", seed=9)
    assert list(asdict(split).items()) == [("dimension", "arousal"), ("seed", 9), ("train_ids", ["a", "b"]),
                                           ("test_ids", ["c"])]


def test_consistency_symmetric_in_pair_order():
    pairs = [((0.1, 0.2), (0.3, 0.4)), ((0.0, 0.0), (0.1, 0.1))]
    flipped = [(b, a) for a, b in pairs]
    assert dk.annotation_consistency(pairs) == dk.annotation_consistency(flipped)


def test_consistency_requires_pairs():
    with pytest.raises(NoPairs):
        dk.annotation_consistency([])


def test_manifest_round_trip(tmp_path):
    records = [("track-1", 0.1, -1 / 3), ("track-2", -0.125, 0.75), ("track-3", 2 / 3, -0.7)]
    path = tmp_path / "manifest.tsv"
    # a fourth column, empty or not, is ignored; a line may also stop after arousal
    path.write_text("".join(f"{tid}\t{v!r}\t{a!r}{tail}\n"
                            for (tid, v, a), tail in zip(records, ("\t/audio/track-1.wav", "\t", ""))))
    back = dk.parse_manifest(path)
    assert [(r.track_id, r.valence, r.arousal) for r in back] == records


def test_manifest_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only-an-id\n")
    with pytest.raises(ConfigError):
        dk.parse_manifest(path)


def test_manifest_rejects_out_of_range_labels(tmp_path):
    path = tmp_path / "oob.tsv"
    path.write_text("t0\t1.5\t0.0\t\n")
    with pytest.raises(ConfigError):
        dk.parse_manifest(path)
    # either magnitude above 1 is refused by line; 1 itself is in range
    for valence, arousal in ((0.0, 1.5), (-1.0000001, 0.0), (0.0, -1.0000001)):
        path.write_text(f"t0\t1.0\t-1.0\t\nt1\t{valence}\t{arousal}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: valence/arousal magnitudes must be <= 1"):
            dk.parse_manifest(path)


@pytest.mark.parametrize("line", ("t1\tabc\t0.5", "t1\t0.5\t", "t1\t0.5\t1e"))
def test_manifest_rejects_non_numeric_labels_with_its_line(tmp_path, line):
    path = tmp_path / "text.tsv"
    path.write_text(f"t0\t0.5\t0.5\t\n{line}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: valence and arousal must be numbers"):
        dk.parse_manifest(path)


def test_manifest_rejects_duplicate_track_id(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("# header\nt0\t0.5\t0.5\t\nt1\t-0.5\t0.5\t\nt0\t-0.5\t-0.5\t\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:4: duplicate track_id 't0', first on line 2$"):
        dk.parse_manifest(path)


@pytest.mark.parametrize("track_id", ("", "sub/t1", f"sub{os.sep}t1"), ids=("empty", "slash", "os-sep"))
def test_manifest_refuses_a_track_id_that_is_not_one_file_name(tmp_path, track_id):
    path = tmp_path / "ids.tsv"
    path.write_text(f"t0\t0.5\t0.5\t\n{track_id}\t0.5\t0.5\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: track_id {re.escape(repr(track_id))} must name one file"):
        dk.parse_manifest(path)


def test_synth_rejects_tiny_or_degenerate():
    with pytest.raises(ConfigError):
        dk.synth_dataset(n=3)
    with pytest.raises(ConfigError):
        dk.synth_dataset(n=8, separation=0.0)


def test_synth_labels_balanced():
    samples = dk.synth_dataset(n=50, separation=4.0, noise=0.1, seed=2)
    ones = sum(s.label for s in samples)
    assert ones == 25


def test_labeled_mask_deterministic_and_stratified():
    labels = [s.label for s in dk.synth_dataset(n=40, separation=4.0, noise=0.1, seed=3)]
    a = dk.labeled_mask(labels, 0.5, seed=4)
    assert a.dtype == bool and a.shape == (40,)
    assert np.array_equal(a, dk.labeled_mask(labels, 0.5, seed=4))
    for cls in (0, 1):
        members = [i for i, label in enumerate(labels) if label == cls]
        assert a[members].sum() == round(0.5 * len(members))


def _labeled_loop_oracle(labels, fraction, seed):
    """The draws of a semi-supervised split, one row at a time: per class in
    order of first appearance, one permutation, whose first
    max(1, round(fraction * n)) positions keep their label."""
    rng = np.random.default_rng(seed)
    by_class = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    keep = [False] * len(labels)
    for idxs in by_class.values():
        order = rng.permutation(len(idxs))
        for j, pos in enumerate(order):
            keep[idxs[pos]] = j < max(1, int(round(fraction * len(idxs))))
    return keep


@pytest.mark.parametrize("fraction", (0.01, 0.3, 0.5, 1.0))
def test_labeled_mask_matches_a_plain_loop(fraction):
    labels = [1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1]  # class 1 appears first
    mask = dk.labeled_mask(labels, fraction, seed=7)
    assert mask.tolist() == _labeled_loop_oracle(labels, fraction, seed=7)
    assert all(mask[[i for i, label in enumerate(labels) if label == cls]].any() for cls in (0, 1))
    assert mask.all() == (fraction == 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 999), st.booleans()), min_size=4, max_size=40,
             unique_by=lambda row: row[0]),
    st.integers(0, 2**32 - 1),
    st.randoms(use_true_random=False),
)
def test_split_invariants(rows, seed, shuffler):
    records = [dk.TrackRecord(f"t{i:03d}", valence=0.0, arousal=0.5 if pos else -0.5) for i, pos in rows]
    by_class = {c: {r.track_id for r in records if r.label("arousal") == c} for c in (0, 1)}
    assume(all(len(ids) >= 2 for ids in by_class.values()))
    split = dk.stratified_split(records, "arousal", seed=seed)
    train, test = set(split.train_ids), set(split.test_ids)
    assert not train & test
    assert train | test == {r.track_id for r in records}
    for ids in by_class.values():
        assert ids & train and ids & test
    assert split.train_ids == sorted(split.train_ids) and split.test_ids == sorted(split.test_ids)
    # the split depends only on the seed, not on the order of the records
    shuffled = list(records)
    shuffler.shuffle(shuffled)
    assert dk.stratified_split(shuffled, "arousal", seed=seed) == split
