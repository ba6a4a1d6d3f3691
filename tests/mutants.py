"""Mutants the test suite must kill.

Each mutant replaces one exact piece of text in one file of a temporary copy
of the tree, then runs there the one test expected to kill it, with all its
parametrisations. A mutant is killed when that test fails. Run from anywhere:

    python tests/mutants.py

First every killer runs on an unmutated copy, and the script exits 2 if one
fails there. Then it prints each mutant with the tests that failed, and exits
1 if any mutant survives; a killer that names no test fails nothing, so its
mutant survives. A mutant whose text is no longer found exactly once in its
file stops the run: the list is out of date. pytest does not collect this
file: its name does not start with `test_`. Only the standard library and
pytest are used.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # found exactly once in path
    new: str
    killer: str  # pytest node id, without parametrisation


MUTANTS = (
    Mutant("DSAF attends to its own view (self-attention)", "src/dvmer/model.py",
           "attended = self.attn(own, other, other)", "attended = self.attn(own, own, own)",
           "tests/test_model.py::test_the_mel_branch_reads_the_cochleagram_only_through_cross_attention"),
    Mutant("extract_pair reverses the cochleagram's frames", "src/dvmer/features.py",
           "coch=_coch_view(power, cfg))", "coch=_coch_view(power, cfg)[:, ::-1])",
           "tests/test_features.py::test_both_views_keep_the_segments_frame_order"),
    Mutant("_op adds a gradient without summing it over broadcast axes", "src/dvmer/nncore.py",
           "_accum(node, _reduce_to(grad(g), shape))", "_accum(node, grad(g))",
           "tests/test_nncore.py::test_two_operand_gradients_match_finite_differences_with_a_broadcast_operand"),
    Mutant("DSAF off although use_dsaf is on", "src/dvmer/training.py",
           "cross_attention=config.use_dsaf,", "cross_attention=False,",
           "tests/test_config.py::test_overrides_apply_and_sync_cross_attention"),
    Mutant("the JS consistency term is dropped from the loss", "src/dvmer/training.py",
           '"cons": nc.tmean(js)', '"cons": nc.mul(nc.tmean(js), 0.0)',
           "tests/test_training.py::test_the_consistency_term_alone_moves_the_branches"),
    Mutant("the SAML queries are not L2-normalised", "src/dvmer/training.py",
           "nc.l2_normalize(z_kept), kept_labels", "z_kept, kept_labels",
           "tests/test_training.py::test_every_memory_query_has_unit_norm"),
    Mutant("the cosine schedule is ignored", "src/dvmer/training.py",
           "lr = cosine_lr(epoch, config.epochs, config.learning_rate) if config.cosine_annealing "
           "else config.learning_rate", "lr = config.learning_rate",
           "tests/test_training.py::test_each_record_carries_its_epochs_schedule"),
    Mutant("the curriculum is frozen at its start", "src/dvmer/training.py",
           ") if config.use_pcl else (1.0, 0.0)", ") if False else (config.tau_max, config.theta_start)",
           "tests/test_training.py::test_each_record_carries_its_epochs_schedule"),
    Mutant("the semi-mode memory enqueues every row", "src/dvmer/training.py",
           "kept = np.flatnonzero(labeled | confidences.selected)", "kept = np.arange(labeled.size)",
           "tests/test_training.py::test_memory_rows_match_a_plain_loop"),
    Mutant("PCL pseudo-labels labeled rows", "src/dvmer/training.py",
           "eligible=None if labeled is None else ~labeled)", "eligible=None)",
           "tests/test_training.py::test_semi_mode_pseudo_loss_only_on_unlabeled"),
    Mutant("pseudo_label_loss drops the reliability weight", "src/dvmer/curriculum.py",
           "return nc.tmean(nc.mul(per_sample, Tensor(weights)))", "return nc.tmean(per_sample)",
           "tests/test_curriculum.py::test_pseudo_label_loss_detached_from_label_path"),
    Mutant("labeled_mask ignores its seed", "src/dvmer/data.py",
           "rng = np.random.default_rng(seed)\n    labels = np.asarray(labels)",
           "rng = np.random.default_rng(0)\n    labels = np.asarray(labels)",
           "tests/test_data.py::test_labeled_mask_matches_a_plain_loop"),
    Mutant("the two grams are swapped at cache load", "src/dvmer/features.py",
           "return FeaturePair(**grams)", 'return FeaturePair(mel=grams["coch"], coch=grams["mel"])',
           "tests/test_features.py::test_cache_round_trips_exactly"),
    Mutant("a Mel span starts one bin late", "src/dvmer/features.py",
           "spans.append((first, _triangle(", "spans.append((first + 1, _triangle(",
           "tests/test_features.py::test_mel_spans_scatter_to_the_dense_bank"),
    Mutant("_build names the run config file for every error", "src/dvmer/config.py",
           "    except ConfigError as exc:\n        try:\n",
           '    except ConfigError as exc:\n        raise ConfigError(f"{path}: {exc}") from None\n        try:\n',
           "tests/test_cli.py::test_an_out_of_range_flag_exits_2_naming_the_key_and_not_the_run_config"),
    Mutant("SplitManifest lists train_ids first", "src/dvmer/data.py",
           "    dimension: str\n    seed: int\n    train_ids: list\n    test_ids: list\n",
           "    train_ids: list\n    test_ids: list\n    dimension: str\n    seed: int\n",
           "tests/test_cli.py::test_split_json_lists_dimension_seed_then_the_ids"),
    Mutant("the config reader skips the unknown-key check", "src/dvmer/config.py",
           "unknown = set(values) - keys", "unknown = set()",
           "tests/test_config.py::test_feature_config_overrides"),
    Mutant("extract-features drops the duplicate track id check", "src/dvmer/cli.py",
           "if track_id in wav_of:", "if False:",
           "tests/test_cli.py::test_two_wavs_that_give_one_track_id_fail_the_second"),
    Mutant("a switched-off module's loss term is one, not zero", "src/dvmer/training.py",
           "off = Tensor(0.0, dtype=np.float32)", "off = Tensor(1.0, dtype=np.float32)",
           "tests/test_acceptance.py::test_c07_ablation_mechanics"),
    Mutant("the fused-head hits of unlabeled rows are scored", "src/dvmer/training.py",
           "hits = hits[labeled]", "hits = hits",
           "tests/test_training.py::test_semi_mode_never_reads_an_unlabeled_label"),
    Mutant("AdamW.step leaves a non-finite parameter unchecked", "src/dvmer/training.py",
           'check_finite(p.data, NonFiniteValue, f"the update left parameter {name} non-finite")', "pass",
           "tests/test_cli.py::test_a_diverging_run_exits_4_naming_the_batch_and_writes_nothing"),
    Mutant("a cache-backed sample memoises its grams, so every track stays resident", "src/dvmer/cli.py",
           "    @property\n    def pair(self)", '    @__import__("functools").cached_property\n    def pair(self)',
           "tests/test_cli.py::test_a_command_holds_one_batch_of_grams_and_reads_a_cache_once_per_use"),
    Mutant("each decoded WAV chunk is written at the segment's start", "src/dvmer/features.py",
           "total = sums[at:at + pcm.shape[0]]", "total = sums[:pcm.shape[0]]",
           "tests/test_features.py::test_read_wav_is_the_bytes_of_the_float_channel_mean"),
    Mutant("the last partial WAV chunk is dropped", "src/dvmer/features.py",
           "for at in range(0, n, WAV_CHUNK_FRAMES):", "for at in range(0, n - n % WAV_CHUNK_FRAMES, WAV_CHUNK_FRAMES):",
           "tests/test_features.py::test_read_wav_is_the_bytes_of_the_float_channel_mean"),
    Mutant("run_training ignores its seed", "src/dvmer/training.py",
           "np.random.SeedSequence(config.seed)", "np.random.SeedSequence(0)",
           "tests/test_training.py::test_another_seed_gives_another_checkpoint"),
    Mutant("stratified_split ignores its seed", "src/dvmer/data.py",
           "rng = np.random.default_rng(seed)\n    train_ids, test_ids = [], []",
           "rng = np.random.default_rng(0)\n    train_ids, test_ids = [], []",
           "tests/test_data.py::test_another_seed_gives_another_split"),
    Mutant("an atomic write reports its temp file's name", "src/dvmer/ioutil.py",
           "raise OSError(exc.errno, exc.strerror, path) from exc", "raise",
           "tests/test_cli.py::test_an_output_that_cannot_be_written_exits_3_naming_it_and_leaves_no_temp_file"),
    Mutant("read_feature_cache accepts a NaN gram", "src/dvmer/features.py",
           'check_finite(gram, BadFeatureCache, f"{path}: the {name} gram holds a non-finite value")', "pass",
           "tests/test_cli.py::test_a_cache_holding_nan_exits_3_naming_it_before_train_writes"),
    Mutant("load_model_from_checkpoint accepts a non-finite parameter", "src/dvmer/training.py",
           'check_finite(arr, CheckpointMismatch, f"{path}: parameter {name} holds a non-finite value")', "pass",
           "tests/test_cli.py::test_a_checkpoint_parameter_holding_nan_exits_5_naming_it"),
    Mutant("MemoryQueue.enqueue accepts a non-finite feature", "src/dvmer/memory.py",
           'check_finite(features, NonFiniteValue, "queue features must be finite")', "pass",
           "tests/test_memory.py::test_enqueue_rejects_non_finite_features"),
    Mutant("the finiteness check reads only the minimum", "src/dvmer/errors.py",
           "math.isfinite(values.min()) and math.isfinite(values.max())", "math.isfinite(values.min())",
           "tests/test_nncore.py::test_every_non_finite_entry_trips"),
    Mutant("an empty queue reports a negative-zero entropy", "src/dvmer/memory.py",
           '{"label_entropy": 0.0,', '{"label_entropy": -0.0,',
           "tests/test_cli.py::test_ablation_flags_reach_the_log"),
    Mutant("parse_manifest accepts an empty track id", "src/dvmer/data.py",
           'if not track_id or "/" in track_id', 'if "/" in track_id',
           "tests/test_data.py::test_manifest_refuses_a_track_id_that_is_not_one_file_name"),
    Mutant("AdamW.step rebinds each parameter instead of updating it in place", "src/dvmer/training.py",
           "p.data -= update", "p.data = p.data - update",
           "tests/test_training.py::test_adamw_step_keeps_every_parameter_and_moment_array"),
    Mutant("the step clears its gradients after its forward", "src/dvmer/training.py",
           "    optimizer.zero_grad()  # the last step's gradients die before this step's graph is built\n"
           "    outputs = model.forward(mel, coch, rng=rng, training=True)\n",
           "    outputs = model.forward(mel, coch, rng=rng, training=True)\n    optimizer.zero_grad()\n",
           "tests/test_training.py::test_no_parameter_holds_a_gradient_at_any_training_forward"),
    Mutant("a single-class queue reports a negative-zero entropy", "src/dvmer/memory.py",
           "entropy = float(0.0 - np.sum(", "entropy = float(-np.sum(",
           "tests/test_memory.py::test_diagnostics_of_a_single_class_queue_are_a_positive_zero_entropy"),
    Mutant("load_model_from_checkpoint skips the hash comparison", "src/dvmer/training.py",
           'if expected_hash is not None and payload["config_hash"] != expected_hash:', "if False:",
           "tests/test_cli.py::test_eval_rejects_mismatched_config"),
    Mutant("a re-read skips the shape rule", "src/dvmer/cli.py",
           "return _read_pair(self.track_id, self.path, self.shapes)",
           "return _read_pair(self.track_id, self.path, None)",
           "tests/test_cli.py::test_a_cache_that_changes_after_the_check_exits_3_naming_the_track"),
    Mutant("read_segment keeps the float64 window", "src/dvmer/features.py",
           "return _checked_segment(sums, frames, rate, cfg, scale)",
           "return _checked_segment(sums / scale, frames, rate, cfg)",
           "tests/test_features.py::test_read_segment_holds_the_window_as_int32_channel_sums"),
    Mutant("an FFT block reads its span without the window's scale", "src/dvmer/features.py",
           "pre_emphasis(seg.signal(max(lo - 1, 0), end), cfg.preemphasis)",
           "pre_emphasis(seg.samples[max(lo - 1, 0):end], cfg.preemphasis)",
           "tests/test_features.py::test_the_int32_window_gives_the_spectra_and_grams_of_the_float_window"),
    Mutant("the window holds float32 channel means", "src/dvmer/features.py",
           "return _checked_segment(sums, frames, rate, cfg, scale)",
           "return _checked_segment((sums / scale).astype(np.float32), frames, rate, cfg)",
           "tests/test_features.py::test_the_int32_window_gives_the_spectra_and_grams_of_the_float_window"),
    Mutant("train writes its checkpoint before its evaluation (README: 'train runs that evaluation before it "
           "writes any file')", "src/dvmer/cli.py",
           "    train_metrics = training.evaluate(result.model, train_samples, ensemble=train_cfg.ensemble_eval)\n"
           "    test_metrics = training.evaluate(result.model, test_samples, ensemble=train_cfg.ensemble_eval)\n\n"
           "    config_hash = cfgmod.run_config_hash(train_cfg, result.model_config)\n"
           '    training.save_checkpoint(os.path.join(args.out, "checkpoint.dmrc"), result, config_hash)\n',
           "    config_hash = cfgmod.run_config_hash(train_cfg, result.model_config)\n"
           '    training.save_checkpoint(os.path.join(args.out, "checkpoint.dmrc"), result, config_hash)\n'
           "    train_metrics = training.evaluate(result.model, train_samples, ensemble=train_cfg.ensemble_eval)\n"
           "    test_metrics = training.evaluate(result.model, test_samples, ensemble=train_cfg.ensemble_eval)\n\n",
           "tests/test_cli.py::test_a_diverging_run_exits_4_naming_the_batch_and_writes_nothing"),
    Mutant("atomic_write_bytes writes in place (README: 'All file outputs are written atomically')",
           "src/dvmer/ioutil.py", "    with atomic_open(path) as fh:\n        fh.write(data)",
           '    with open(path, "wb") as fh:\n        fh.write(data)',
           "tests/test_cli.py::test_an_atomic_write_replaces_the_output_so_a_reader_of_the_old_file_reads_it_whole"),
    Mutant("parse_manifest accepts an arousal magnitude above 1 (README: 'valence/arousal are continuous in "
           "[-1, 1]')", "src/dvmer/data.py",
           "abs(valence) <= 1.0 and abs(arousal) <= 1.0", "abs(valence) <= 1.0",
           "tests/test_data.py::test_manifest_rejects_out_of_range_labels"),
    Mutant("--json prints a second object (README: '--json makes any command emit a single machine-readable "
           "object')", "src/dvmer/cli.py",
           "        print(json.dumps(body))\n", "        print(json.dumps(body))\n        print(json.dumps(body))\n",
           "tests/test_cli.py::test_eval_json_reports_metric_names"),
)


def failed_tests(mutant: Mutant | None, tests: list[str]) -> list[str]:
    """Node ids of the given tests (pytest node ids) that fail or error on a
    temporary copy of the tree, with mutant applied unless it is None."""
    with tempfile.TemporaryDirectory(prefix="dvmer-mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):  # test_config reads the README's key list
            shutil.copy(ROOT / name, tree)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: {mutant.path} holds {text.count(mutant.old)} copies of "
                                 f"{mutant.old!r}")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
                             cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                             capture_output=True, text=True)
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, flags=re.MULTILINE)


def _same_test(test: str, node_id: str) -> bool:
    return test == node_id or test.startswith(node_id + "[")


def main() -> int:
    broken = failed_tests(None, sorted({m.killer for m in MUTANTS}))
    if broken:  # a killer that fails on the unmutated tree shows nothing
        print("expected killers that fail without a mutant:", *broken, sep="\n  ")
        return 2
    survivors = 0
    for mutant in MUTANTS:
        failed = failed_tests(mutant, [mutant.killer])
        killed = any(_same_test(t, mutant.killer) for t in failed)
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name} ({mutant.path})")
        print(f"  expected killer: {mutant.killer}")
        for test in failed:
            print(f"  failed: {test}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
