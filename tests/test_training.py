import math
import re
import struct
import tracemalloc
import weakref
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvmer import curriculum as cur
from dvmer import data as dk
from dvmer import ioutil
from dvmer import memory
from dvmer import nncore as nc
from dvmer import training as tr
from dvmer.errors import CheckpointMismatch, ConfigError, EmptySplit, NonFiniteLoss, NonFiniteValue
from dvmer.model import DualViewModel, ModelConfig
from dvmer.nncore import Tensor

import example_checks as ec

TRAIN_EXAMPLES = [(n, f) for n, f in ec.EXAMPLES if n.startswith("trainer.")]

TINY_MODEL = ModelConfig(embed_dim=16, fusion_dim=32, heads=2, layers=1)


@pytest.mark.parametrize("label,check", TRAIN_EXAMPLES, ids=[n for n, _ in TRAIN_EXAMPLES])
def test_examples(label, check):
    check()


def test_adamw_minimises_quadratic():
    p = Tensor(np.array([5.0, -3.0], dtype=np.float64), dtype=np.float64, requires_grad=True)
    opt = tr.AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    for _ in range(400):
        opt.zero_grad()
        loss = nc.tsum(nc.mul(p, p))
        loss.backward()
        opt.step()
    assert np.all(np.abs(p.data) < 1e-3)


def test_adamw_weight_decay_is_decoupled():
    # zero gradient: only the decay term moves the parameter
    p = Tensor(np.array([2.0], dtype=np.float64), dtype=np.float64, requires_grad=True)
    opt = tr.AdamW({"p": p}, lr=0.5, weight_decay=0.1)
    p.grad = np.zeros(1)
    opt.step()
    np.testing.assert_allclose(p.data, [2.0 - 0.5 * 0.1 * 2.0], rtol=1e-12)


def test_adamw_step_that_leaves_a_parameter_non_finite_names_it():
    finite = Tensor(np.array([2.0]), dtype=np.float64, requires_grad=True)
    p = Tensor(np.array([2.0, 1e300]), dtype=np.float64, requires_grad=True)
    opt = tr.AdamW({"finite": finite, "p": p}, lr=0.5, weight_decay=1e10)
    finite.grad, p.grad = np.zeros(1), np.zeros(2)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue, match="the update left parameter p non-finite"):
        opt.step()


def test_adamw_step_keeps_every_parameter_and_moment_array():
    # m, v and p.data live for the whole run: a step writes them, never rebinds them
    rng = np.random.default_rng(3)
    params = {"w": Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True),
              "b": Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)}
    opt = tr.AdamW(params, lr=0.1, weight_decay=0.01)
    before = {name: (p.data, opt.m[name], opt.v[name], p.data.copy()) for name, p in params.items()}
    for _ in range(3):
        for p in params.values():
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        opt.step()
    for name, p in params.items():
        data, m, v, start = before[name]
        assert p.data is data and opt.m[name] is m and opt.v[name] is v
        assert not np.array_equal(p.data, start)


def _adamw_out_of_place(p, g, m, v, t, lr, weight_decay):
    """The out-of-place AdamW formula, one parameter, one step: (p, m, v) after it."""
    m = tr.ADAM_BETA1 * m + (1.0 - tr.ADAM_BETA1) * g
    v = tr.ADAM_BETA2 * v + (1.0 - tr.ADAM_BETA2) * (g * g)
    m_hat = m / (1.0 - tr.ADAM_BETA1 ** t)
    v_hat = v / (1.0 - tr.ADAM_BETA2 ** t)
    update = m_hat / (np.sqrt(v_hat) + tr.ADAM_EPS)
    return p - lr * (update + weight_decay * p), m, v


@settings(max_examples=100, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       weight_decay=st.one_of(st.just(0.0), st.floats(1e-6, 0.5)),
       lrs=st.lists(st.floats(1e-5, 1.0), min_size=1, max_size=6),
       b_has_grad=st.lists(st.booleans(), min_size=6, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_adamw_in_place_steps_give_the_out_of_place_bits(dtype, weight_decay, lrs, b_has_grad, seed):
    rng = np.random.default_rng(seed)
    start = {"a": rng.normal(size=(2, 3)).astype(dtype), "b": rng.normal(size=5).astype(dtype)}
    params = {name: Tensor(arr.copy(), requires_grad=True) for name, arr in start.items()}
    opt = tr.AdamW(params, weight_decay=weight_decay)
    expected = {name: (arr, np.zeros_like(arr), np.zeros_like(arr)) for name, arr in start.items()}
    for t, (lr, b_has) in enumerate(zip(lrs, b_has_grad), start=1):
        for name, p in params.items():
            p.grad = (rng.normal(scale=10.0, size=p.shape).astype(dtype)
                      if name == "a" or b_has else None)  # "b" has no gradient in some steps
            if p.grad is not None:
                was_p, was_m, was_v = expected[name]
                expected[name] = _adamw_out_of_place(was_p, p.grad, was_m, was_v, t, lr, weight_decay)
        opt.step(lr=lr)
        for name, p in params.items():
            want_p, want_m, want_v = expected[name]
            assert p.data.dtype == want_p.dtype == dtype
            assert np.array_equal(p.data, want_p)
            assert np.array_equal(opt.m[name], want_m) and np.array_equal(opt.v[name], want_v)


def test_clip_grad_norm_contract():
    rng = np.random.default_rng(0)
    params = {f"p{i}": Tensor(np.zeros(4), dtype=np.float64, requires_grad=True) for i in range(3)}
    for p in params.values():
        p.grad = rng.normal(scale=10.0, size=4)
    direction = np.concatenate([p.grad for p in params.values()])
    pre, post = tr.clip_grad_norm(params, 5.0)
    assert pre > 5.0
    total = math.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params.values()))
    assert total <= 5.0 + 1e-6
    assert post == pytest.approx(total, rel=1e-9)
    clipped = np.concatenate([p.grad for p in params.values()])
    cos = float(direction @ clipped / (np.linalg.norm(direction) * np.linalg.norm(clipped)))
    assert cos == pytest.approx(1.0)


def test_clip_noop_when_under_limit():
    p = Tensor(np.zeros(2), dtype=np.float64, requires_grad=True)
    p.grad = np.array([0.3, 0.4])
    pre, post = tr.clip_grad_norm({"p": p}, 5.0)
    assert pre == post == pytest.approx(0.5)
    np.testing.assert_allclose(p.grad, [0.3, 0.4])


def test_metrics_against_random_oracles():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = 20
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 6, size=n) / 5.0  # coarse grid forces ties
        assert abs(tr.auc_score(labels, scores) - ec.auc_bruteforce(labels, scores)) < 1e-9
        preds = (scores >= 0.5).astype(int)
        tp = int(np.sum((preds == 1) & (labels == 1)))
        fp = int(np.sum((preds == 1) & (labels == 0)))
        fn = int(np.sum((preds == 0) & (labels == 1)))
        expected_f1 = 0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
        assert tr.f1_score(labels, preds) == pytest.approx(expected_f1)
        assert tr.accuracy_score(labels, preds) == pytest.approx(np.mean(preds == labels))


def test_auc_single_class_convention():
    assert tr.auc_score(np.ones(4, dtype=int), np.linspace(0, 1, 4)) == 0.5


def test_ensemble_eval_averages_heads():
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=20)
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=21, queue_size=8)
    result = tr.run_training(samples, cfg, TINY_MODEL)
    _, fused_scores, _ = tr.predict_scores(result.model, samples, ensemble=False)
    labels, ens_scores, _ = tr.predict_scores(result.model, samples, ensemble=True)
    assert not np.array_equal(fused_scores, ens_scores)
    # oracle: mean of the three heads' positive-class probabilities
    mel = np.stack([s.pair.mel for s in samples])
    coch = np.stack([s.pair.coch for s in samples])
    out = result.model.forward(mel, coch)
    expected = (
        nc.softmax(out.logits_mel).data[:, 1]
        + nc.softmax(out.logits_coch).data[:, 1]
        + nc.softmax(out.logits_fuse).data[:, 1]
    ) / 3.0
    np.testing.assert_allclose(ens_scores, expected, rtol=1e-6)
    metrics = tr.evaluate(result.model, samples, ensemble=True)
    assert 0.0 <= metrics.acc <= 1.0 and 0.0 <= metrics.auc <= 1.0


def test_evaluate_empty_split_rejected():
    model = DualViewModel(TINY_MODEL, np.random.default_rng(2))
    with pytest.raises(EmptySplit, match="^no samples to embed$"):  # embed's check, the only one
        tr.evaluate(model, [])


def test_run_training_emits_one_record_per_epoch():
    samples = dk.synth_dataset(n=24, separation=5.0, noise=0.1, seed=3)
    cfg = tr.TrainConfig(epochs=3, batch_size=8, seed=4, queue_size=8)
    result = tr.run_training(samples, cfg, TINY_MODEL)
    assert [r.epoch for r in result.records] == [0, 1, 2]
    for record in result.records:
        d = asdict(record)
        assert set(d) == {
            "epoch", "lr", "tau", "theta", "loss_total", "loss_cls", "loss_pl",
            "loss_cons", "loss_cont", "mask_ratio", "mean_reliability",
            "mean_confidence", "queue_entropy", "queue_coverage", "train_acc",
        }


def test_run_training_sizes_the_model_from_its_first_sample():
    samples = dk.synth_dataset(n=8, seed=3, mel_shape=(6, 4), coch_shape=(5, 4))
    result = tr.run_training(samples, tr.TrainConfig(epochs=1, batch_size=4, seed=4, queue_size=8), TINY_MODEL)
    assert result.model_config == ModelConfig(embed_dim=16, fusion_dim=32, heads=2, layers=1,
                                              mel_bands=6, coch_channels=5, frame_count=4)
    assert result.model.parameters()["pos.mel"].shape == (4, 16)


def test_run_training_clip_invariant_every_step(monkeypatch):
    samples = dk.synth_dataset(n=24, separation=5.0, noise=0.1, seed=5)
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=6, queue_size=8, grad_clip=5.0)
    norms = []
    clip = tr.clip_grad_norm

    def recording_clip(params, max_norm):
        pre, post = clip(params, max_norm)
        norms.append(post)
        return pre, post

    monkeypatch.setattr(tr, "clip_grad_norm", recording_clip)
    tr.run_training(samples, cfg, TINY_MODEL)
    assert len(norms) == 2 * 3  # epochs x batches: every step clips
    assert all(n <= 5.0 + 1e-6 for n in norms)


def test_run_training_nonfinite_abort_carries_batch_index():
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=7)
    samples[3].pair.mel[0, 0] = np.inf
    cfg = tr.TrainConfig(epochs=1, batch_size=16, seed=8, queue_size=16)
    with pytest.raises(NonFiniteLoss) as info:
        tr.run_training(samples, cfg, TINY_MODEL)
    assert info.value.epoch == 0
    assert info.value.batch_index == 0


def test_semi_mode_pseudo_loss_only_on_unlabeled():
    samples = dk.synth_dataset(n=32, separation=5.0, noise=0.1, seed=9)
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=10, queue_size=8,
                         mode="semi", labeled_fraction=0.5, theta_start=0.99, theta_min=0.99)
    assert not dk.labeled_mask([s.label for s in samples], cfg.labeled_fraction, cfg.seed).all()
    result = tr.run_training(samples, cfg, TINY_MODEL)
    # thresholds pinned near 1: nothing selected, so the pl term stays zero
    assert all(r.loss_pl == 0.0 for r in result.records)
    # thresholds at 0 select every row: only the unlabeled ones reach the pl term
    for fraction, has_unlabeled in ((1.0, False), (0.5, True)):
        every = replace(cfg, labeled_fraction=fraction, theta_start=0.0, theta_min=0.0)
        records = tr.run_training(samples, every, TINY_MODEL).records
        assert all(r.mask_ratio == 1.0 and (r.loss_pl > 0.0) == has_unlabeled for r in records)


def test_semi_mode_never_reads_an_unlabeled_label(monkeypatch):
    samples = dk.synth_dataset(n=32, separation=5.0, noise=0.1, seed=9)
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=10, queue_size=8, mode="semi", labeled_fraction=0.5,
                         theta_start=0.5, learning_rate=1e-2)
    labeled = dk.labeled_mask([s.label for s in samples], cfg.labeled_fraction, cfg.seed)
    assert labeled.any() and not labeled.all()
    # the mask's draw is stratified, so it reads every label; with the mask
    # pinned, the steps must read the labeled rows' labels only
    monkeypatch.setattr(tr, "labeled_mask", lambda labels, fraction, seed: labeled)
    flipped = [s if keep else replace(s, label=1 - s.label) for s, keep in zip(samples, labeled)]
    runs = [tr.run_training(data, cfg, TINY_MODEL) for data in (samples, flipped)]
    assert any(r.mask_ratio > 0 for r in runs[0].records)  # pseudo-labels stand in for the unlabeled rows
    assert runs[0].records[-1].train_acc > 0.5  # not a constant predictor, whose accuracy a flip keeps
    assert runs[0].records == runs[1].records
    for name, p in runs[0].model.parameters().items():
        np.testing.assert_array_equal(p.data, runs[1].model.parameters()[name].data)


def test_epoch_record_sums_each_loss_in_batch_order():
    # a compensated sum gives 1/3 here; one batch at a time, 1e16 absorbs the 1.0
    steps = [(dict.fromkeys(("total", "cls", "pl", "cons", "cont"), value), None, 1, 2)
             for value in (1e16, 1.0, -1e16)]
    queue = memory.MemoryQueue(capacity=4, dim=2)
    record = tr._epoch_record(0, 1e-3, 1.0, 0.0, steps, queue)
    assert (record.loss_total, record.loss_cls, record.loss_pl, record.loss_cons, record.loss_cont) == (0.0,) * 5
    assert record.train_acc == 0.5
    assert (record.mask_ratio, record.queue_entropy, record.queue_coverage) == (0.0, 0.0, [0.0, 0.0])


def _memory_rows_loop_oracle(labels, labeled, confidences):
    """Semi-mode rule, one row at a time: labeled rows with ground truth,
    selected unlabeled rows with their pseudo-labels."""
    kept, stored = [], []
    for i in range(labels.shape[0]):
        if labeled[i]:
            kept.append(i)
            stored.append(labels[i])
        elif confidences is not None and confidences[i].selected:
            kept.append(i)
            stored.append(confidences[i].pseudo_label)
    return kept, stored


@pytest.mark.parametrize("case", ("mixed", "nothing_kept", "all_labeled", "no_pcl"))
def test_memory_rows_match_a_plain_loop(case):
    rng = np.random.default_rng(41)
    p_mel = rng.dirichlet(np.ones(2), size=12)
    p_coch = rng.dirichlet(np.ones(2), size=12)
    labels = rng.integers(0, 2, size=12)
    labeled = rng.random(12) < 0.4
    theta = 0.6
    if case == "nothing_kept":
        labeled[:] = False
        theta = 2.0
    elif case == "all_labeled":
        labeled[:] = True
    confidences = None if case == "no_pcl" else cur.batch_confidences(p_mel, p_coch, theta)
    kept, kept_labels = tr.memory_rows(labels, labeled, confidences)
    oracle_kept, oracle_labels = _memory_rows_loop_oracle(labels, labeled, confidences)
    assert kept.tolist() == oracle_kept
    assert kept_labels.tolist() == oracle_labels
    if case == "mixed":  # the batch exercises every branch of the rule
        unlabeled_selected = confidences.selected & ~labeled
        assert labeled.any() and unlabeled_selected.any() and (~labeled & ~confidences.selected).any()
        assert (kept_labels != labels[kept]).any()


def test_memory_rows_keep_every_row_in_full_mode():
    labels = np.array([1, 0, 1])
    kept, kept_labels = tr.memory_rows(labels, None, None)  # no labeled mask: full mode
    assert kept is None and kept_labels is labels


def test_semi_batches_without_memory_rows_leave_the_memory_alone(monkeypatch):
    # a labeled_fraction above 0 keeps a row of each class, so the mask function is patched to keep none
    monkeypatch.setattr(tr, "labeled_mask", lambda labels, fraction, seed: np.zeros(len(labels), dtype=bool))
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=45)
    cfg = tr.TrainConfig(epochs=1, batch_size=8, seed=46, queue_size=8, mode="semi",
                         theta_start=0.99, theta_min=0.99)
    result = tr.run_training(samples, cfg, TINY_MODEL)
    assert result.records[0].loss_cont == 0.0
    assert len(result.queue) == 0 and result.queue.write_index == 0


@pytest.mark.parametrize("mode", ("full", "semi"))
def test_same_seed_gives_byte_identical_checkpoints(tmp_path, mode):
    samples = dk.synth_dataset(n=24, separation=5.0, noise=0.1, seed=43)
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=44, queue_size=8, mode=mode, labeled_fraction=0.5)
    blobs = []
    for run in range(2):
        path = tmp_path / f"run{run}.dmrc"
        tr.save_checkpoint(path, tr.run_training(samples, cfg, TINY_MODEL), config_hash="h")
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_another_seed_gives_another_checkpoint(tmp_path):
    """The seed reaches both the init and the loop generators: full mode
    draws from nothing else."""
    samples = dk.synth_dataset(n=24, separation=5.0, noise=0.1, seed=43)
    blobs = []
    for seed in (44, 45):
        path = tmp_path / f"seed{seed}.dmrc"
        cfg = tr.TrainConfig(epochs=1, batch_size=8, seed=seed, queue_size=8)
        tr.save_checkpoint(path, tr.run_training(samples, cfg, TINY_MODEL), config_hash="h")
        blobs.append(path.read_bytes())
    assert blobs[0] != blobs[1]


def test_cosine_disabled_keeps_constant_lr():
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=11)
    cfg = tr.TrainConfig(epochs=3, batch_size=8, seed=12, queue_size=8, cosine_annealing=False)
    result = tr.run_training(samples, cfg, TINY_MODEL)
    assert all(r.lr == cfg.learning_rate for r in result.records)


def test_each_record_carries_its_epochs_schedule():
    # cosine learning rate, and the curriculum's temperature and threshold, at that epoch of the run
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=11)
    cfg = tr.TrainConfig(epochs=4, batch_size=8, seed=12, queue_size=8)
    for record in tr.run_training(samples, cfg, TINY_MODEL).records:
        state = cur.curriculum_state(record.epoch, cfg.epochs, tau_max=cfg.tau_max, tau_min=cfg.tau_min,
                                     theta_start=cfg.theta_start, theta_min=cfg.theta_min)
        assert record.lr == tr.cosine_lr(record.epoch, cfg.epochs, cfg.learning_rate)
        assert (record.tau, record.theta) == (state.tau, state.theta)


def test_the_consistency_term_alone_moves_the_branches():
    # every other loss weight and the weight decay are 0, so a run without the
    # JS term leaves each parameter at its seeded init
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=15)
    cfg = tr.TrainConfig(epochs=1, batch_size=8, seed=16, queue_size=8, weight_decay=0.0,
                         lambda_cls=0.0, lambda_pl=0.0, lambda_cont=0.0)
    still, moved = (tr.run_training(samples, replace(cfg, lambda_cons=w), TINY_MODEL) for w in (0.0, 0.2))
    assert moved.records[0].loss_cons > 0
    before, after = still.model.parameters(), moved.model.parameters()
    for name in ("mel_proj.w", "coch_proj.w", "layer0.mel_from_coch.attn.wq", "head_mel.w", "head_coch.w"):
        assert not np.array_equal(before[name].data, after[name].data), name
    for name in ("fuse.w1", "head_fuse.w"):  # the JS of the two branch heads does not reach them
        assert np.array_equal(before[name].data, after[name].data), name


@pytest.mark.parametrize("mode", ("full", "semi"))
def test_every_memory_query_has_unit_norm(monkeypatch, mode):
    norms = []
    contrastive_loss = memory.contrastive_loss

    def recording_loss(queries, *args, **kwargs):
        norms.append(np.linalg.norm(queries.data.astype(np.float64), axis=1))
        return contrastive_loss(queries, *args, **kwargs)

    monkeypatch.setattr(memory, "contrastive_loss", recording_loss)
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=17)
    tr.run_training(samples, tr.TrainConfig(epochs=2, batch_size=8, seed=18, queue_size=8, mode=mode,
                                            labeled_fraction=0.5), TINY_MODEL)
    assert len(norms) == 4 and all(n.size for n in norms)
    np.testing.assert_allclose(np.concatenate(norms), 1.0, rtol=1e-6)


def test_checkpoint_round_trip_and_hash_guard(tmp_path):
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=13)
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=14, queue_size=8)
    result = tr.run_training(samples, cfg, TINY_MODEL)
    path = tmp_path / "model.dmrc"
    tr.save_checkpoint(path, result, config_hash="cafe0123")

    model, payload = tr.load_model_from_checkpoint(path, result.model_config, expected_hash="cafe0123")
    for name, p in result.model.parameters().items():
        assert np.array_equal(model.parameters()[name].data, p.data)
    assert payload["config_hash"] == "cafe0123"
    assert set(payload["sections"]) == {"PARM"}

    with pytest.raises(CheckpointMismatch):
        tr.load_model_from_checkpoint(path, result.model_config, expected_hash="deadbeef")


def test_loading_a_checkpoint_draws_no_random_number(tmp_path, monkeypatch):
    saved = DualViewModel(TINY_MODEL, np.random.default_rng(0))
    path = tmp_path / "model.dmrc"
    tr.save_checkpoint(path, SimpleNamespace(model=saved), config_hash="ab")

    def no_generator(*args, **kwargs):
        raise AssertionError("the load built a random generator")

    monkeypatch.setattr(tr.np.random, "default_rng", no_generator)
    model, _ = tr.load_model_from_checkpoint(path, TINY_MODEL)
    loaded = model.parameters()
    assert list(loaded) == list(saved.parameters())
    for name, p in saved.parameters().items():
        assert loaded[name].data.dtype == p.data.dtype and np.array_equal(loaded[name].data, p.data)


def test_predict_scores_and_embed_match_a_graph_building_forward():
    model = DualViewModel(TINY_MODEL, np.random.default_rng(30))
    samples = dk.synth_dataset(n=2 * tr.INFER_BATCH + 6, separation=5.0, noise=0.1, seed=31)  # two full batches and a part
    labels, scores, preds = tr.predict_scores(model, samples)
    _, ens_scores, ens_preds = tr.predict_scores(model, samples, ensemble=True)
    emb = tr.embed(model, samples)
    assert np.array_equal(labels, [s.label for s in samples])
    for start in range(0, len(samples), tr.INFER_BATCH):
        batch = samples[start:start + tr.INFER_BATCH]
        rows = slice(start, start + len(batch))
        out = model.forward(np.stack([s.pair.mel for s in batch]), np.stack([s.pair.coch for s in batch]))
        assert out.z_fuse._backward is not None  # the reference builds a graph
        for name in ("z_fuse", "logits_mel", "logits_coch", "logits_fuse"):
            assert np.array_equal(getattr(emb, name)[rows], getattr(out, name).data)
        probs = nc.softmax(out.logits_fuse).data
        assert np.array_equal(scores[rows], probs[:, 1])
        assert np.array_equal(preds[rows], np.argmax(probs, axis=1))
        ens = (nc.softmax(out.logits_mel).data + nc.softmax(out.logits_coch).data + probs) / 3.0
        assert np.array_equal(ens_scores[rows], ens[:, 1])
        assert np.array_equal(ens_preds[rows], np.argmax(ens, axis=1))


def test_embed_rejects_an_empty_sample_list():
    model = DualViewModel(TINY_MODEL, np.random.default_rng(32))
    with pytest.raises(EmptySplit):
        tr.embed(model, [])


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_scores_memory_does_not_grow_with_batches():
    """Forward-only inference keeps one batch's activations alive at a time,
    so three batches peak no higher than one."""
    model = DualViewModel(ModelConfig(embed_dim=32, fusion_dim=64, heads=2, layers=1), np.random.default_rng(33))
    samples = dk.synth_dataset(n=3 * tr.INFER_BATCH, separation=5.0, noise=0.1, seed=34)
    tr.predict_scores(model, samples[:tr.INFER_BATCH])  # warm-up outside the traced runs
    one = _traced_peak(lambda: tr.predict_scores(model, samples[:tr.INFER_BATCH]))
    three = _traced_peak(lambda: tr.predict_scores(model, samples))
    assert three <= 1.1 * one, f"peak {three / 1e6:.1f} MB over three batches vs {one / 1e6:.1f} MB over one"


@pytest.fixture(scope="module")
def checkpoint_layout(tmp_path_factory):
    """A real checkpoint's bytes plus the end offset of each header field up
    to the payload of the first parameter array."""
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=35)
    result = tr.run_training(samples, tr.TrainConfig(epochs=1, batch_size=8, seed=36, queue_size=8), TINY_MODEL)
    path = tmp_path_factory.mktemp("ckpt") / "model.dmrc"
    tr.save_checkpoint(path, result, config_hash="c0ffee42")
    buf = path.read_bytes()
    ends, offset = {}, 0

    def field(name, size):
        nonlocal offset
        offset += size
        ends[name] = offset

    field("magic", 4)
    field("version", 4)
    field("hash_len", 2)
    field("hash", len("c0ffee42"))
    field("n_sections", 4)
    field("section_tag", 4)
    field("section_length", 8)
    field("table_count", 4)
    field("name_len", 2)
    field("name", struct.unpack_from("<H", buf, offset - 2)[0])
    field("dtype_and_rank", 2)
    rank = buf[offset - 1]
    field("dims", 4 * rank)
    dims = struct.unpack_from(f"<{rank}I", buf, offset - 4 * rank)
    field("payload", 4 * math.prod(dims))  # float32 entries
    return buf, ends


CHECKPOINT_FIELDS = ("magic", "version", "hash_len", "hash", "n_sections", "section_tag",
                     "section_length", "table_count", "name_len", "name", "dtype_and_rank",
                     "dims", "payload")


@pytest.mark.parametrize("where", ("inside", "after"))
@pytest.mark.parametrize("field", CHECKPOINT_FIELDS)
def test_truncated_checkpoint_is_a_mismatch(checkpoint_layout, tmp_path, field, where):
    buf, ends = checkpoint_layout
    cut = ends[field] - (1 if where == "inside" else 0)
    path = tmp_path / "cut.dmrc"
    path.write_bytes(buf[:cut])
    with pytest.raises(CheckpointMismatch):
        tr.read_checkpoint(path)


@pytest.mark.parametrize("cut", ("half", "last_byte"))
def test_checkpoint_cut_late_is_a_mismatch(checkpoint_layout, tmp_path, cut):
    buf, _ = checkpoint_layout
    path = tmp_path / "cut.dmrc"
    path.write_bytes(buf[:len(buf) // 2 if cut == "half" else len(buf) - 1])
    with pytest.raises(CheckpointMismatch):
        tr.read_checkpoint(path)


def test_checkpoint_with_unknown_dtype_tag_is_a_mismatch(checkpoint_layout, tmp_path):
    buf, ends = checkpoint_layout
    bad = bytearray(buf)
    bad[ends["name"]] = 200
    path = tmp_path / "tag.dmrc"
    path.write_bytes(bytes(bad))
    with pytest.raises(CheckpointMismatch, match=f"^{re.escape(str(path))}: section PARM: unknown dtype tag 200"):
        tr.read_checkpoint(path)


def test_checkpoint_with_trailing_bytes_is_a_mismatch(checkpoint_layout, tmp_path):
    buf, _ = checkpoint_layout
    path = tmp_path / "long.dmrc"
    path.write_bytes(buf + b"\0")
    with pytest.raises(CheckpointMismatch, match="stray"):
        tr.read_checkpoint(path)


def _container(sections) -> bytes:
    """A checkpoint container holding the given (tag, blob) sections."""
    parts = [tr.CHECKPOINT_MAGIC, struct.pack("<I", tr.CHECKPOINT_VERSION), struct.pack("<H", 2), b"ab",
             struct.pack("<I", len(sections))]
    for tag, blob in sections:
        parts += [tag, struct.pack("<Q", len(blob)), blob]
    return b"".join(parts)


def test_checkpoint_section_with_stray_bytes_is_a_mismatch(tmp_path):
    path = tmp_path / "stray.dmrc"
    path.write_bytes(_container([(b"PARM", ioutil.pack_array_table({"w": np.zeros(2)}) + b"\0")]))
    with pytest.raises(CheckpointMismatch, match="section PARM: 1 stray byte"):
        tr.read_checkpoint(path)


def test_checkpoint_without_parameters_is_a_mismatch(tmp_path):
    path = tmp_path / "empty.dmrc"
    path.write_bytes(_container([(b"QUEU", ioutil.pack_array_table({}))]))
    assert tr.read_checkpoint(path)["config_hash"] == "ab"
    with pytest.raises(CheckpointMismatch, match="no parameter section"):
        tr.load_model_from_checkpoint(path, TINY_MODEL)


def test_checkpoint_in_the_older_layout_still_loads(tmp_path):
    """Checkpoints that also carry the optimiser (`ADAM`) and queue (`QUEU`)
    sections load into the same parameters; those sections are ignored."""
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=15)
    result = tr.run_training(samples, tr.TrainConfig(epochs=1, batch_size=8, seed=16, queue_size=8), TINY_MODEL)
    params = {n: p.data for n, p in result.model.parameters().items()}
    adam = {"step": np.array([2], dtype=np.int64)}
    adam.update({f"m.{n}": np.full_like(a, 0.5) for n, a in params.items()})
    adam.update({f"v.{n}": np.full_like(a, 0.25) for n, a in params.items()})
    queue = result.queue
    queu = {"keys": queue.keys, "labels": queue.labels, "valid": queue.valid,
            "write_index": np.array([queue.write_index], dtype=np.int64)}
    path = tmp_path / "older.dmrc"
    path.write_bytes(_container([(b"PARM", ioutil.pack_array_table(params)), (b"ADAM", ioutil.pack_array_table(adam)),
                                 (b"QUEU", ioutil.pack_array_table(queu))]))

    model, payload = tr.load_model_from_checkpoint(path, result.model_config, expected_hash="ab")
    assert set(payload["sections"]) == {"PARM", "ADAM", "QUEU"}
    loaded = model.parameters()
    assert set(loaded) == set(params)
    for name, arr in params.items():
        assert np.array_equal(loaded[name].data, arr)


def test_saved_checkpoint_is_the_header_and_one_parameter_section(tmp_path):
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=17)
    result = tr.run_training(samples, tr.TrainConfig(epochs=1, batch_size=8, seed=18, queue_size=8), TINY_MODEL)
    path = tmp_path / "model.dmrc"
    tr.save_checkpoint(path, result, config_hash="ab")
    table = ioutil.pack_array_table({n: p.data for n, p in result.model.parameters().items()})
    buf = path.read_bytes()
    assert len(buf) == (4 + 4 + 2 + len("ab") + 4) + (4 + 8 + len(table))
    assert buf == _container([(b"PARM", table)])


def test_reading_a_checkpoint_holds_the_file_and_its_arrays_but_no_section_copy(tmp_path):
    path = tmp_path / "default.dmrc"
    tr.save_checkpoint(path, SimpleNamespace(model=DualViewModel(ModelConfig(), np.random.default_rng(0))), "ab")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        tr.read_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * size, f"peaks at {peak / size:.2f} times the {size / 1e6:.2f} MB file"


@pytest.mark.parametrize("field,value", (
    ("learning_rate", 0.0), ("learning_rate", math.nan), ("grad_clip", -1.0), ("grad_clip", math.nan),
    ("contrast_temperature", 0.0), ("contrast_temperature", math.nan), ("tau_min", 0.0),
    ("tau_max", -0.5), ("tau_max", math.nan), ("queue_size", 0), ("queue_size", -3),
    ("queue_size", 15), ("weight_decay", -1e-4), ("weight_decay", math.nan), ("theta_min", -0.1),
    ("theta_min", 0.7), ("theta_min", math.nan), ("theta_start", 1.5), ("theta_start", math.nan),
    ("tau_min", 1.6), ("labeled_fraction", 0.0), ("labeled_fraction", 1.5), ("labeled_fraction", math.nan),
    ("queue_momentum", math.nan), ("queue_momentum", 1.0), ("queue_momentum", 1.5), ("queue_momentum", -1.0),
    ("lambda_cls", -0.1), ("lambda_cls", math.nan), ("lambda_pl", -1.0), ("lambda_pl", math.nan),
    ("lambda_cons", -0.2), ("lambda_cons", math.nan), ("lambda_cont", -0.1), ("lambda_cont", math.nan),
    ("learning_rate", math.inf), ("weight_decay", math.inf), ("grad_clip", math.inf),
    ("contrast_temperature", math.inf), ("tau_max", math.inf), ("lambda_cls", math.inf), ("lambda_pl", math.inf),
    ("lambda_cons", math.inf), ("lambda_cont", math.inf), ("seed", -1), ("epochs", 0), ("batch_size", -1),
    ("seed", None),
))
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=field):
        tr.TrainConfig(**{field: value})


def test_train_config_accepts_the_range_edges():
    tr.TrainConfig(queue_size=1, use_saml=False)  # no queue to fill
    tr.TrainConfig(queue_size=16, weight_decay=0.0, theta_min=0.0, theta_start=1.0)
    tr.TrainConfig(theta_min=0.5, theta_start=0.5, tau_min=1.0, tau_max=1.0)
    tr.TrainConfig(queue_momentum=0.0, lambda_cls=0.0, lambda_pl=0.0, lambda_cons=0.0, lambda_cont=0.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
                min_size=2, max_size=40))
def test_auc_matches_the_pairwise_oracle_with_ties(rows):
    labels = np.array([y for y, _ in rows])
    scores = np.array([s for _, s in rows])
    if labels.min() == labels.max():
        assert tr.auc_score(labels, scores) == 0.5
    else:
        # both sides count the same halves over n_pos * n_neg, so they agree exactly
        assert tr.auc_score(labels, scores) == ec.auc_bruteforce(labels, scores)


def test_run_training_frees_each_batch_graph_before_the_next_backward(monkeypatch):
    # a graph still alive at the next backward adds a whole graph to the peak memory
    fused = []  # weak references to each training batch's fused features
    alive = []  # at each backward, which earlier batches' features are still alive
    forward, backward = DualViewModel.forward, Tensor.backward

    def recording_forward(self, *args, **kwargs):
        outputs = forward(self, *args, **kwargs)
        fused.append(weakref.ref(outputs.z_fuse.data))
        return outputs

    def checking_backward(self, *args, **kwargs):
        alive.append([ref() is not None for ref in fused[:-1]])
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(DualViewModel, "forward", recording_forward)
    monkeypatch.setattr(Tensor, "backward", checking_backward)
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=5)
    tr.run_training(samples, tr.TrainConfig(epochs=1, batch_size=4, seed=5, queue_size=8), TINY_MODEL)
    assert alive == [[False] * k for k in range(4)]


@pytest.mark.parametrize("mode", ("full", "semi"))
def test_run_training_holds_one_batch_graph_at_each_forward(monkeypatch, mode):
    # a batch's graph must die when its step returns, not when the next step rebinds a name
    fused = []  # weak references to each training batch's fused features
    alive = []  # at each training forward, which earlier batches' features are still alive
    forward = DualViewModel.forward

    def checking_forward(self, *args, **kwargs):
        alive.append([ref() is not None for ref in fused])
        outputs = forward(self, *args, **kwargs)
        fused.append(weakref.ref(outputs.z_fuse.data))
        return outputs

    monkeypatch.setattr(DualViewModel, "forward", checking_forward)
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=5)
    cfg = tr.TrainConfig(epochs=2, batch_size=4, seed=5, queue_size=8, mode=mode, labeled_fraction=0.5)
    tr.run_training(samples, cfg, TINY_MODEL)
    assert alive == [[False] * k for k in range(8)]


@pytest.mark.parametrize("mode", ("full", "semi"))
def test_no_parameter_holds_a_gradient_at_any_training_forward(monkeypatch, mode):
    # the last step's gradients must die before the next graph is built, not under it
    held = []  # at each training forward, the parameters that hold a gradient
    forward = DualViewModel.forward

    def checking_forward(self, *args, **kwargs):
        held.append(sorted(name for name, p in self.parameters().items() if p.grad is not None))
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(DualViewModel, "forward", checking_forward)
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=5)
    cfg = tr.TrainConfig(epochs=2, batch_size=4, seed=5, queue_size=8, mode=mode, labeled_fraction=0.5)
    tr.run_training(samples, cfg, TINY_MODEL)
    assert held == [[]] * 8


def test_training_step_scores_confidences_with_its_consistency_js(monkeypatch):
    # one JS per batch: the float32 tensor behind the consistency loss, detached
    calls = []
    js_tensor, batch_confidences = cur.js_divergence_tensor, cur.batch_confidences

    def recording_js(p, q):
        out = js_tensor(p, q)
        calls.append(("js", out.data.copy()))
        return out

    def recording_confidences(*args, **kwargs):
        out = batch_confidences(*args, **kwargs)
        calls.append(("confidences", out))
        return out

    monkeypatch.setattr(cur, "js_divergence_tensor", recording_js)
    monkeypatch.setattr(cur, "batch_confidences", recording_confidences)
    monkeypatch.setattr(cur, "_js", lambda p, q: pytest.fail("a second, float64 JS in the training step"))
    samples = dk.synth_dataset(n=16, separation=5.0, noise=0.1, seed=5)
    tr.run_training(samples, tr.TrainConfig(epochs=1, batch_size=4, seed=5, queue_size=8), TINY_MODEL)
    assert [kind for kind, _ in calls] == ["js", "confidences"] * 4
    for (_, js), (_, confidences) in zip(calls[::2], calls[1::2]):
        assert js.dtype == np.float32
        assert np.array_equal(confidences.js, js.astype(np.float64))
        assert np.array_equal(confidences.r, np.exp(-js.astype(np.float64)))
