import contextlib
import tracemalloc
import weakref

import numpy as np
import pytest

from dvmer import nncore as nc
from dvmer.errors import ConfigError, ShapeMismatch
from dvmer.model import DualViewModel, FeedForward, ModelConfig, TokenSet
from dvmer.nncore import Tensor

import example_checks as ec

MODEL_EXAMPLES = [(n, f) for n, f in ec.EXAMPLES if n.startswith("model.")]


@pytest.mark.parametrize("label,check", MODEL_EXAMPLES, ids=[n for n, _ in MODEL_EXAMPLES])
def test_examples(label, check):
    check()


def test_tokenize_rejects_wrong_band_count():
    model = DualViewModel(ec.tiny_model_config(), np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        model.tokenize_views(np.zeros((1, 7, 4), dtype=np.float32), np.zeros((1, 5, 4), dtype=np.float32))


def test_positional_embeddings_require_configured_frames():
    cfg = ec.tiny_model_config(positional=True)
    model = DualViewModel(cfg, np.random.default_rng(1))
    with pytest.raises(ShapeMismatch):
        model.tokenize_views(np.zeros((1, 6, 9), dtype=np.float32), np.zeros((1, 5, 9), dtype=np.float32))
    tokens = model.tokenize_views(np.zeros((1, 6, 4), dtype=np.float32), np.zeros((1, 5, 4), dtype=np.float32))
    assert tokens.h_mel.shape == (1, 4, 8)


def test_layer_parameters_are_length_agnostic():
    from dvmer.model import CrossViewLayer
    layer = CrossViewLayer(8, 2, 4, np.random.default_rng(2), np.float64)
    rng = np.random.default_rng(3)
    for n_mel, n_coch in ((3, 4), (6, 2), (10, 10)):
        tokens = TokenSet(
            Tensor(rng.normal(size=(2, n_mel, 8)), dtype=np.float64),
            Tensor(rng.normal(size=(2, n_coch, 8)), dtype=np.float64),
        )
        out = layer(tokens, 0.0, None, False)
        assert out.h_mel.shape == (2, n_mel, 8)
        assert out.h_coch.shape == (2, n_coch, 8)


def test_mean_pool_permutation_invariant():
    rng = np.random.default_rng(4)
    tokens = rng.normal(size=(1, 9, 8))
    perm = rng.permutation(9)
    pooled = nc.tmean(Tensor(tokens, dtype=np.float64), axis=1).data
    pooled_perm = nc.tmean(Tensor(tokens[:, perm], dtype=np.float64), axis=1).data
    np.testing.assert_allclose(pooled, pooled_perm, rtol=0, atol=1e-12)


def test_dropout_only_active_in_training():
    cfg = ec.tiny_model_config(dropout=0.5)
    model = DualViewModel(cfg, np.random.default_rng(5))
    mel = np.random.default_rng(6).normal(size=(2, 6, 4)).astype(np.float32)
    coch = np.random.default_rng(7).normal(size=(2, 5, 4)).astype(np.float32)
    eval_a = model.forward(mel, coch, training=False)
    eval_b = model.forward(mel, coch, training=False)
    assert np.array_equal(eval_a.logits_fuse.data, eval_b.logits_fuse.data)
    train_a = model.forward(mel, coch, rng=np.random.default_rng(8), training=True)
    train_b = model.forward(mel, coch, rng=np.random.default_rng(9), training=True)
    assert not np.array_equal(train_a.logits_fuse.data, train_b.logits_fuse.data)


def test_parameter_names_stable_and_complete():
    cfg = ModelConfig(embed_dim=16, fusion_dim=32, heads=2, layers=2, mel_bands=6, coch_channels=5, frame_count=4)
    model = DualViewModel(cfg, np.random.default_rng(10))
    names = list(model.parameters())
    assert names == list(DualViewModel(cfg, np.random.default_rng(11)).parameters())
    assert "layer0.mel_from_coch.attn.wq" in names
    assert "layer1.coch_from_mel.ffn.w2" in names
    assert "head_fuse.w" in names


def test_one_layer_model_names_its_parameters_in_attribute_order():
    direction = ["attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv", "attn.wo", "attn.bo",
                 "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln1.g", "ln1.b", "ln2.g", "ln2.b"]
    names = ["mel_proj.w", "mel_proj.b", "coch_proj.w", "coch_proj.b", "pos.mel", "pos.coch",
             *(f"layer0.mel_from_coch.{n}" for n in direction), *(f"layer0.coch_from_mel.{n}" for n in direction),
             "fuse.w1", "fuse.b1", "fuse.w2", "fuse.b2",
             "head_mel.w", "head_mel.b", "head_coch.w", "head_coch.b", "head_fuse.w", "head_fuse.b"]
    model = DualViewModel(ec.tiny_model_config(positional=True), np.random.default_rng(0))
    assert list(model.parameters()) == names
    assert model.parameters()["fuse.w1"] is model.fuse.w1
    without_pos = DualViewModel(ec.tiny_model_config(positional=False), np.random.default_rng(0))
    assert list(without_pos.parameters()) == [n for n in names if not n.startswith("pos.")]


def test_module_names_tensors_parts_and_lists_of_parts_and_skips_the_rest():
    def tensor():
        return Tensor(np.zeros(2), requires_grad=True)

    class Part(nc.Module):
        def __init__(self):
            self.w = tensor()

    class Whole(nc.Module):
        def __init__(self):
            self.in_proj_w = tensor()
            self.unset = None
            self.size = 3
            self.block = Part()
            self.stack = [Part(), Part()]
            self.out_b = tensor()

    whole = Whole()
    params = whole.parameters()
    assert list(params) == ["in_proj.w", "block.w", "layer0.w", "layer1.w", "out.b"]
    assert params["in_proj.w"] is whole.in_proj_w
    assert params["block.w"] is whole.block.w
    assert params["layer1.w"] is whole.stack[1].w


def test_module_refuses_a_parameter_name_given_twice():
    class Part(nc.Module):
        def __init__(self):
            self.w = Tensor(np.zeros(2), requires_grad=True)

    class TwoStacks(nc.Module):
        def __init__(self):
            self.encoder = [Part()]
            self.decoder = [Part(), Part()]

    with pytest.raises(ValueError, match="TwoStacks names two parameters 'layer0.w'"):
        TwoStacks().parameters()


def test_end_to_end_gradient_check():
    """Full encode + classify pass against central differences (64-bit)."""
    cfg = ec.tiny_model_config()
    model = DualViewModel(cfg, np.random.default_rng(12), dtype=np.float64)
    rng = np.random.default_rng(13)
    mel = rng.normal(size=(2, 6, 4))
    coch = rng.normal(size=(2, 5, 4))
    proj = rng.normal(size=(2, 2))
    labels = np.array([0, 1])

    def fn():
        out = model.forward(mel, coch, training=False)
        ce = nc.tmean(nc.cross_entropy(out.logits_fuse, labels))
        probe = nc.tsum(nc.mul(out.logits_mel, Tensor(proj, dtype=np.float64)))
        return nc.add(ce, nc.mul(probe, 0.1))

    report = nc.gradient_check(fn, model.parameters(), step=1e-4, op_name="encode+classify")
    assert report.max_rel_error < 1e-4


def _training_forward(model, batch=16, seed=14):
    """One training-mode forward of random default-shaped grams, and random labels."""
    rng = np.random.default_rng(seed)
    cfg = model.cfg
    mel = rng.normal(size=(batch, cfg.mel_bands, cfg.frame_count)).astype(np.float32)
    coch = rng.normal(size=(batch, cfg.coch_channels, cfg.frame_count)).astype(np.float32)
    labels = rng.integers(0, cfg.n_classes, size=batch)
    return model.forward(mel, coch, rng=rng, training=True), labels


def _heads_loss(out, labels):
    """The three heads' mean cross-entropies, summed."""
    terms = [nc.tmean(nc.cross_entropy(logits, labels)) for logits in (out.logits_mel, out.logits_coch, out.logits_fuse)]
    return nc.add(nc.add(terms[0], terms[1]), terms[2])


def _training_loss(model, batch=16, seed=14):
    """A three-head cross-entropy over one training-mode forward of random
    default-shaped grams."""
    return _heads_loss(*_training_forward(model, batch, seed))


def _graph_nodes(root):
    """Every node of root's graph, found through the nodes' parents."""
    nodes, stack, seen = [], [root._node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def test_backward_leaves_gradients_on_leaves_only():
    model = DualViewModel(ModelConfig(embed_dim=16, fusion_dim=32, heads=2, layers=2), np.random.default_rng(15))
    loss = _training_loss(model, batch=4)
    nodes = _graph_nodes(loss)
    loss.backward()
    interior = [n for n in nodes if n.backward is not None]
    leaves = [n for n in nodes if n.backward is None and n.requires_grad]
    assert len(interior) > 100
    assert {id(n) for n in leaves} == {id(p._node) for p in model.parameters().values()}
    assert all(n.grad is None for n in interior)
    assert all(n.grad is not None for n in leaves)
    assert all(n.grad is None for n in nodes if not n.requires_grad)


def test_backward_peak_holds_no_dead_gradients():
    """The sweep frees each interior gradient once it is used, so its peak
    above the forward graph is a small share of that graph, not a second copy."""
    model = DualViewModel(ModelConfig(embed_dim=32, fusion_dim=64, heads=2, layers=2), np.random.default_rng(16))
    _training_loss(model).backward()  # warm-up outside the traced run
    for p in model.parameters().values():
        p.zero_grad()
    tracemalloc.start()
    try:
        loss = _training_loss(model)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 0.25 * held, f"backward peak {(peak - held) / 1e6:.1f} MB over a {held / 1e6:.1f} MB graph"


def test_training_forward_frees_every_dropout_output(monkeypatch):
    """No backward reads a dropout output, so its array dies inside the
    forward, while the loss's graph and the arrays the caller holds live on.
    The gradients are those of a sweep that keeps every dropout output."""
    model = DualViewModel(ModelConfig(embed_dim=16, fusion_dim=32, heads=2, layers=2), np.random.default_rng(18))
    dropout = nc.dropout

    def sweep(keep):
        """Whether each dropout output was alive when the forward returned,
        the forward's outputs and the parameter gradients; keep holds every
        dropout output until the backward has run."""
        kept, refs = [], []

        def recording_dropout(*args, **kwargs):
            out = dropout(*args, **kwargs)
            refs.append(weakref.ref(out.data))
            if keep:
                kept.append(out)
            return out

        monkeypatch.setattr(nc, "dropout", recording_dropout)
        for p in model.parameters().values():
            p.zero_grad()
        out, labels = _training_forward(model, batch=4)
        alive = [ref() is not None for ref in refs]
        _heads_loss(out, labels).backward()
        return alive, out, {name: p.grad for name, p in model.parameters().items()}

    alive, out, grads = sweep(keep=False)
    kept_alive, kept_out, kept_grads = sweep(keep=True)
    assert len(alive) == 8 and not any(alive)  # two per direction, two directions per layer
    assert all(kept_alive)
    for name in ("z_fuse", "logits_mel", "logits_coch", "logits_fuse"):
        assert np.array_equal(getattr(out, name).data, getattr(kept_out, name).data)
    assert all(g is not None for g in grads.values())
    assert all(np.array_equal(grads[name], kept_grads[name]) for name in kept_grads)


def test_default_training_forward_holds_at_most_70_mb():
    """The graph of one default-shape training forward at batch 16 keeps only
    the arrays its backward reads: 62.0 MB, where keeping every op output
    until the backward held 93.5 MB."""
    model = DualViewModel(ModelConfig(), np.random.default_rng(19))
    tracemalloc.start()
    try:
        loss = _training_loss(model)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert held <= 70e6, f"the training graph holds {held / 1e6:.1f} MB"


def _traced_feed_forward_call(grad: bool):
    """(held after the call, peak of the call, peak of its backward above
    what the call held, h.nbytes, output nbytes) for one default-sized
    FeedForward call: [16, 87, 128] -> 512 -> 128, float32."""
    rng = np.random.default_rng(17)
    ffn = FeedForward(128, 512, 128, rng, np.float32)
    x = Tensor(rng.normal(size=(16, 87, 128)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=x.shape).astype(np.float32)
    mode = contextlib.nullcontext if grad else nc.no_grad
    with mode():
        ffn(x)  # warm-up outside the traced call
        tracemalloc.start()
        try:
            out = ffn(x)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            if grad:
                out.backward(g)
            backward_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    return held, peak, backward_peak, 16 * 87 * 512 * 4, out.data.nbytes


def test_training_feed_forward_keeps_no_gelu_output():
    """A graph-building call holds the hidden pre-activation h, Phi and its
    output, not the GELU output; its backward rebuilds that output and drops
    it before dL/d(gelu output) is allocated, so it peaks near one hidden array."""
    held, _, backward_peak, hidden, out = _traced_feed_forward_call(grad=True)
    allowed = 2 * hidden + out + (1 << 16)
    assert held <= allowed, f"holds {held / 1e6:.2f} MB, allowed {allowed / 1e6:.2f} MB"
    allowed = hidden + 3 * out + (1 << 16)
    assert backward_peak <= allowed, f"backward peaks {backward_peak / 1e6:.2f} MB, allowed {allowed / 1e6:.2f} MB"


def test_forward_only_feed_forward_peaks_at_one_hidden_array():
    _, peak, _, hidden, out = _traced_feed_forward_call(grad=False)
    allowed = hidden + out + 4 * nc.GELU_BLOCK * 4 + (1 << 16)
    assert peak <= allowed, f"peak {peak / 1e6:.2f} MB, allowed {allowed / 1e6:.2f} MB"


@pytest.mark.parametrize("field,value", (
    ("embed_dim", 0), ("fusion_dim", -1), ("heads", 0), ("mel_bands", 0), ("coch_channels", 0),
    ("frame_count", 0), ("n_classes", 0), ("ffn_expand", 0), ("layers", -1),
    ("heads", 3), ("dropout", 1.0), ("dropout", 1.5), ("dropout", -0.1), ("dropout", float("nan")),
))
def test_model_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})


def test_model_config_accepts_the_range_edges():
    cfg = ModelConfig(embed_dim=3, heads=3, layers=0, dropout=0.0, n_classes=1, ffn_expand=1)
    assert DualViewModel(cfg, np.random.default_rng(0)).cross_layers == []
