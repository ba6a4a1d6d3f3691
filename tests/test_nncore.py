import contextlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from dvmer import ioutil
from dvmer import nncore as nc
from dvmer.errors import BadFeatureCache, BadTemperature, CheckpointMismatch, HeadDivisibility, NonFiniteValue, ShapeMismatch
from dvmer.nncore import Tensor

import blas_build
import example_checks as ec

NC_EXAMPLES = [(n, f) for n, f in ec.EXAMPLES if n.startswith("nncore.")]


@pytest.mark.parametrize("label,check", NC_EXAMPLES, ids=[n for n, _ in NC_EXAMPLES])
def test_examples(label, check):
    check()


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(0)
    z = Tensor(rng.normal(scale=5.0, size=(64, 7)), dtype=np.float64)
    for tau in (0.7, 1.0, 1.5):
        p = nc.softmax(z, temperature=tau).data
        assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-6)
        assert np.all(p > 0.0) and np.all(p < 1.0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(8, 5))
    p1 = nc.softmax(Tensor(z, dtype=np.float64)).data
    p2 = nc.softmax(Tensor(z + 123.456, dtype=np.float64)).data
    np.testing.assert_allclose(p1, p2, rtol=0, atol=1e-12)


def test_softmax_rejects_bad_temperature():
    with pytest.raises(BadTemperature):
        nc.softmax(Tensor(np.zeros(3)), temperature=0.0)
    with pytest.raises(BadTemperature):
        nc.softmax(Tensor(np.zeros(3)), temperature=-1.0)


def test_layer_norm_moments():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(loc=3.0, scale=4.0, size=(32, 16)), dtype=np.float64)
    g = Tensor(np.ones(16), dtype=np.float64)
    b = Tensor(np.zeros(16), dtype=np.float64)
    out = nc.layer_norm(x, g, b, eps=1e-5).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-6)
    assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-4)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(3)
    q = Tensor(rng.normal(scale=3.0, size=(2, 3, 8)), dtype=np.float64)
    k = Tensor(rng.normal(scale=3.0, size=(2, 5, 8)), dtype=np.float64)
    # each output row is P @ v; with v all ones it is the row sums of P
    out = nc.attention(q, k, Tensor(np.ones((2, 5, 8)), dtype=np.float64), heads=2).data
    assert np.all(np.abs(out - 1.0) < 1e-6)


def _composite_attention(q, k, v, heads):
    """The attention core from primitive nodes: split heads, scaled scores,
    softmax, context, merge."""
    batch, n_q, dim = q.shape
    n_k, head_dim = k.shape[1], dim // heads

    def split(t, n):
        return nc.transpose(nc.reshape(t, (batch, n, heads, head_dim)), (0, 2, 1, 3))

    scores = nc.mul(nc.matmul(split(q, n_q), nc.transpose(split(k, n_k), (0, 1, 3, 2))), 1.0 / np.sqrt(head_dim))
    context = nc.matmul(nc.softmax(scores, axis=-1), split(v, n_k))
    return nc.reshape(nc.transpose(context, (0, 2, 1, 3)), (batch, n_q, dim))


def test_attention_gradients_match_finite_differences():
    rng = np.random.default_rng(30)
    q, k, v = (Tensor(rng.normal(size=(2, n, 4)), dtype=np.float64, requires_grad=True) for n in (3, 5, 5))
    proj = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)

    def fn():
        return nc.tsum(nc.mul(nc.attention(q, k, v, heads=2), proj))

    report = nc.gradient_check(fn, {"q": q, "k": k, "v": v}, op_name="attention")
    assert report.max_rel_error < 1e-6, report.per_input


@pytest.mark.parametrize("dtype,q_shape,k_shape,heads", (
    (np.float32, (16, 87, 128), (16, 87, 128), 4),
    (np.float64, (3, 5, 6), (3, 7, 6), 3),
))
def test_attention_is_the_bytes_of_the_primitive_composite(dtype, q_shape, k_shape, heads):
    rng = np.random.default_rng(31)
    arrays = [rng.normal(size=s).astype(dtype) for s in (q_shape, k_shape, k_shape)]
    g = rng.normal(size=q_shape).astype(dtype)
    results = []
    for fn in (_composite_attention, nc.attention):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*inputs, heads)
        out.backward(g)
        results.append([out.data] + [t.grad for t in inputs])
    for want, got in zip(*results):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_attention_rejects_non_finite_scores_and_values():
    ones = np.ones((1, 2, 4), dtype=np.float32)
    big = Tensor(np.full((1, 2, 4), 1e20, dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue, match="attention"):
        nc.attention(big, big, Tensor(ones), heads=2)  # q k^T overflows float32 to inf
    # one score overflows to -inf and the other is finite: softmax gives the
    # -inf a weight of 0 and the output is finite, so only the score check sees it
    q = Tensor(np.full((1, 1, 4), 1e20, dtype=np.float32))
    k = Tensor(np.array([[[-1e20] * 4, [1e-30] * 4]], dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue, match="attention"):
        nc.attention(q, k, Tensor(ones), heads=2)
    v = ones.copy()
    v[0, 1, 3] = np.nan
    with pytest.raises(NonFiniteValue, match="attention"):
        nc.attention(Tensor(ones), Tensor(ones), Tensor(v), heads=2)


def test_training_attention_keeps_one_score_array():
    """A graph-building call holds its four projections, the merged context
    and one [B, heads, N_q, N_k] array of weights; no second score array."""
    rng = np.random.default_rng(32)
    mha = nc.MultiHeadAttention(128, 4, rng)
    x = Tensor(rng.normal(size=(16, 87, 128)).astype(np.float32), requires_grad=True)
    mha(x, x, x)  # warm-up outside the traced call
    tracemalloc.start()
    try:
        out = mha(x, x, x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    scores = 16 * 4 * 87 * 87 * 4
    allowed = scores + 5 * x.data.nbytes + (1 << 16)
    assert out.shape == x.shape
    assert held <= allowed, f"holds {held / 1e6:.2f} MB, allowed {allowed / 1e6:.2f} MB"


def _composite_feed_forward(x, w1, b1, w2, b2):
    return nc.linear(nc.gelu(nc.linear(x, w1, b1)), w2, b2)


def test_feed_forward_gradients_match_finite_differences():
    rng = np.random.default_rng(33)
    x = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64, requires_grad=True)
    w1, b1 = nc.init_linear_params(6, 4, rng, np.float64)
    w2, b2 = nc.init_linear_params(5, 6, rng, np.float64)
    proj = Tensor(rng.normal(size=(2, 3, 5)), dtype=np.float64)

    def fn():
        return nc.tsum(nc.mul(nc.feed_forward(x, w1, b1, w2, b2), proj))

    report = nc.gradient_check(fn, {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2}, op_name="feed_forward")
    assert report.max_rel_error < 1e-6, report.per_input


@pytest.mark.parametrize("dtype,x_shape,hidden", (
    (np.float32, (16, 87, 128), 512),
    (np.float64, (7, 37, 8), 300),  # 77,700 hidden elements: two full GELU blocks and a partial one
))
def test_feed_forward_is_the_bytes_of_the_primitive_composite(dtype, x_shape, hidden):
    rng = np.random.default_rng(34)
    dim = x_shape[-1]
    arrays = [rng.normal(size=x_shape)] + [a.data for a in nc.init_linear_params(hidden, dim, rng, dtype)]
    arrays += [a.data for a in nc.init_linear_params(dim, hidden, rng, dtype)]
    arrays = [a.astype(dtype) for a in arrays]
    g = rng.normal(size=x_shape).astype(dtype)
    results = []
    for fn in (_composite_feed_forward, nc.feed_forward):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*inputs)
        out.backward(g)
        results.append([out.data] + [t.grad for t in inputs])
        with nc.no_grad():
            results[-1].append(fn(*inputs).data)
    for want, got in zip(*results):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_feed_forward_rejects_non_finite_hidden_and_output():
    """The output check alone catches a bad hidden unit: GELU keeps +inf and
    turns -inf and NaN into NaN, and the second GEMM carries a non-finite
    input into its row, also through a zero weight (inf * 0 is NaN)."""
    x = Tensor(np.ones((1, 2, 4), dtype=np.float32))
    w1 = Tensor(np.ones((8, 4), dtype=np.float32), requires_grad=True)
    w2, b2 = Tensor(np.ones((4, 8), dtype=np.float32), requires_grad=True), Tensor(np.zeros(4, dtype=np.float32))
    big = Tensor(np.full((1, 2, 4), 1e38, dtype=np.float32))
    huge_w2 = Tensor(np.full((4, 8), 1e38, dtype=np.float32))
    w2_zero_column = Tensor(np.ones((4, 8), dtype=np.float32))
    w2_zero_column.data[:, 3] = 0.0
    for grad_mode in (contextlib.nullcontext, nc.no_grad):
        with grad_mode(), np.errstate(over="ignore", invalid="ignore"):  # as cli.main runs a command
            b1 = Tensor(np.zeros(8, dtype=np.float32))
            with pytest.raises(NonFiniteValue, match="feed_forward"):
                nc.feed_forward(big, w1, b1, w2, b2)  # the hidden pre-activation overflows
            with pytest.raises(NonFiniteValue, match="feed_forward"):
                nc.feed_forward(x, w1, b1, huge_w2, b2)  # the output overflows
            for bad in (np.inf, -np.inf, np.nan):
                b1.data[3] = bad  # hidden unit 3 of every row
                for w in (w2, w2_zero_column):
                    with pytest.raises(NonFiniteValue, match="feed_forward"):
                        nc.feed_forward(x, w1, b1, w, b2)
    assert np.isfinite(nc.feed_forward(x, w1, Tensor(np.zeros(8, dtype=np.float32)), w2, b2).data).all()


def test_feed_forward_shape_errors():
    rng = np.random.default_rng(35)
    w1, b1 = nc.init_linear_params(8, 4, rng)
    w2, b2 = nc.init_linear_params(4, 8, rng)
    with pytest.raises(ShapeMismatch, match="input dim"):
        nc.feed_forward(Tensor(np.zeros((2, 5))), w1, b1, w2, b2)
    with pytest.raises(ShapeMismatch, match="input dim"):
        nc.feed_forward(Tensor(np.zeros((2, 4))), w1, b1, w1, b1)
    with pytest.raises(ShapeMismatch, match="bias"):
        nc.feed_forward(Tensor(np.zeros((2, 4))), w1, b2, w2, b2)


def test_mha_shape_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(HeadDivisibility):
        nc.MultiHeadAttention(6, 4, rng)
    mha = nc.MultiHeadAttention(8, 2, rng)
    with pytest.raises(ShapeMismatch):
        mha(Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((1, 4, 6))), Tensor(np.zeros((1, 4, 6))))
    with pytest.raises(ShapeMismatch):
        mha(Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((1, 4, 8))), Tensor(np.zeros((1, 5, 8))))
    with pytest.raises(ShapeMismatch):
        mha(Tensor(np.zeros((3, 8))), Tensor(np.zeros((4, 8))), Tensor(np.zeros((4, 8))))
    with pytest.raises(ShapeMismatch):
        mha(Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((2, 4, 8))), Tensor(np.zeros((2, 4, 8))))
    with pytest.raises(HeadDivisibility):
        nc.attention(*(Tensor(np.zeros((1, 3, 8))) for _ in range(3)), heads=3)


def test_linear_shape_errors():
    with pytest.raises(ShapeMismatch):
        nc.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_non_finite_trips():
    big = Tensor(np.array([1e30], dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
        nc.mul(big, big)  # overflows float32 to inf


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("where", (0, 57, 99))
def test_every_non_finite_entry_trips(bad, where):
    a = np.ones(100, dtype=np.float32)
    a[where] = bad
    with pytest.raises(NonFiniteValue):
        nc.add(Tensor(a), 0.0)
    with pytest.raises(NonFiniteValue):
        nc.tsum(Tensor(a))  # a 0-d result
    with pytest.raises(NonFiniteValue):
        nc.transpose(Tensor(a.reshape(10, 10)), (1, 0))  # a non-contiguous view


def test_an_empty_output_is_finite():
    assert nc.add(Tensor(np.zeros((0, 3), dtype=np.float32)), 1.0).data.shape == (0, 3)


def test_gradient_accumulates_through_shared_subexpressions():
    x = Tensor(np.array([2.0, 3.0]), dtype=np.float64, requires_grad=True)
    y = nc.add(nc.mul(x, x), x)  # x^2 + x, with x reused
    nc.tsum(y).backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)


CONSTANT_RIGHT_OPERANDS = {
    "mul": (nc.mul, (1000, 500), lambda rng: rng.normal(size=(1000, 500)), lambda g, b: g * b),
    # the contrastive loss's similarities: queries @ keys.T, the queue keys a constant
    "matmul": (nc.matmul, (200, 128), lambda rng: rng.normal(size=(2000, 128)).T, lambda g, b: g @ b.T),
}


@pytest.mark.parametrize("op,a_shape,make_b,grad_a", CONSTANT_RIGHT_OPERANDS.values(), ids=CONSTANT_RIGHT_OPERANDS)
def test_mul_backward_makes_no_product_for_a_constant_operand(op, a_shape, make_b, grad_a):
    rng = np.random.default_rng(38)
    a = Tensor(rng.normal(size=a_shape), requires_grad=True)
    b = make_b(rng)
    out = op(a, Tensor(b))
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        out.backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(a.grad, grad_a(g, b))
    assert peak <= a.data.nbytes + (1 << 16), f"peak {peak / 1e6:.2f} MB for a {a.data.nbytes / 1e6:.2f} MB gradient"


# (op, a shape, b shape): layer_norm and l2_normalize already check add, sub,
# mul and div with a broadcast right operand
BROADCAST_OPERANDS = {
    "add_left": (nc.add, (4,), (3, 4)),
    "sub_left": (nc.sub, (3, 1), (3, 4)),
    "mul_left": (nc.mul, (1, 4), (3, 4)),
    "div_left": (nc.div, (4,), (3, 4)),
    "matmul_left": (nc.matmul, (3, 4), (2, 4, 5)),
    "matmul_right": (nc.matmul, (2, 3, 4), (4, 5)),
}


@pytest.mark.parametrize("op,a_shape,b_shape", BROADCAST_OPERANDS.values(), ids=BROADCAST_OPERANDS)
def test_two_operand_gradients_match_finite_differences_with_a_broadcast_operand(op, a_shape, b_shape):
    rng = np.random.default_rng(71)
    a = Tensor(rng.normal(size=a_shape), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, size=b_shape), requires_grad=True)
    proj = Tensor(rng.normal(size=op(a, b).shape))
    report = nc.gradient_check(lambda: nc.tsum(nc.mul(op(a, b), proj)), {"a": a, "b": b}, op_name=op.__name__)
    assert report.max_rel_error < 1e-5


# id -> (op applied to x, x's shape); every op here builds its node through _op from one parent
UNARY_OPS = {
    **{f"{name}_axis{axis}_keepdims{keep}": (lambda x, r=r, axis=axis, keep=keep: r(x, axis=axis, keepdims=keep), (3, 4))
       for name, r in (("tsum", nc.tsum), ("tmean", nc.tmean))
       for axis in (None, 0, -1) for keep in (True, False)},
    # a tuple axis reduces a proper subset of a 3-d input's axes
    **{f"{name}_axis{axis[0]},{axis[1]}_keepdims{keep}":
       (lambda x, r=r, axis=axis, keep=keep: r(x, axis=axis, keepdims=keep), (2, 3, 4))
       for name, r in (("tsum", nc.tsum), ("tmean", nc.tmean))
       for axis in ((0, 1), (0, -1)) for keep in (True, False)},
    "softmax_axis0": (lambda x: nc.softmax(x, temperature=0.7, axis=0), (3, 4)),
    "softmax_axis-1": (lambda x: nc.softmax(x, temperature=0.7, axis=-1), (3, 4)),
    "log_softmax": (nc.log_softmax, (3, 4)),
    "exp": (nc.exp, (3, 4)),
    "sqrt": (nc.sqrt, (3, 4)),
    "neg": (nc.neg, (3, 4)),
    "reshape": (lambda x: nc.reshape(x, (2, 6)), (3, 4)),
    "transpose": (lambda x: nc.transpose(x, (2, 0, 1)), (2, 3, 4)),
    "select_classes": (lambda x: nc.select_classes(x, [0, 3, 1]), (3, 4)),
    "gelu": (nc.gelu, (3, 4)),
    # the rng is re-seeded on every call, so every evaluation draws the same mask
    "dropout": (lambda x: nc.dropout(x, 0.3, np.random.default_rng(5), training=True), (3, 4)),
}


@pytest.mark.parametrize("op,shape", UNARY_OPS.values(), ids=UNARY_OPS)
def test_single_input_gradients_match_finite_differences(op, shape):
    rng = np.random.default_rng(72)
    x = Tensor(rng.uniform(0.5, 2.0, size=shape), requires_grad=True)  # away from sqrt's and log's kinks
    proj = Tensor(rng.normal(size=op(x).shape))
    report = nc.gradient_check(lambda: nc.tsum(nc.mul(op(x), proj)), {"x": x}, op_name="unary")
    assert report.max_rel_error < 1e-6


def test_log_clipped_gradient_is_exact_above_the_floor_and_zero_below_it():
    rng = np.random.default_rng(73)
    x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
    proj = Tensor(rng.normal(size=(3, 4)))
    report = nc.gradient_check(lambda: nc.tsum(nc.mul(nc.log_clipped(x), proj)), {"x": x}, op_name="log_clipped")
    assert report.max_rel_error < 1e-6
    # finite differences cannot cross the floor, so below it the zero gradient is checked as it is
    low = Tensor(np.array([0.0, 1e-14, 5e-13]), requires_grad=True)
    out = nc.log_clipped(low, floor=1e-12)
    assert np.array_equal(out.data, np.full(3, np.log(1e-12)))
    nc.tsum(out).backward()
    assert np.array_equal(low.grad, np.zeros(3))


def test_a_backward_seed_that_broadcasts_to_the_output_is_refused():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        nc.mul(x, 2.0).backward(np.ones((4, 3)))
    assert x.grad is None


def test_a_backward_seed_of_the_wrong_shape_for_a_scalar_is_refused():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        nc.tsum(x).backward(np.ones(5))
    assert x.grad is None


def test_a_second_backward_through_a_shared_node_gives_the_true_gradient():
    w = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    h = nc.matmul(Tensor(np.array([[2.0, 1.0]])), w)
    nc.tsum(h).backward()
    first = w.grad.copy()
    assert h.grad is None  # an interior node lets its gradient go once it has passed it on
    w.zero_grad()
    nc.tsum(nc.mul(h, 1.0)).backward()
    assert np.array_equal(w.grad, first)


def test_dropout_inverted_scaling_and_eval_identity():
    rng = np.random.default_rng(5)
    x = Tensor(np.ones((4, 1000), dtype=np.float32))
    out = nc.dropout(x, 0.25, rng, training=True)
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75, rtol=1e-6)
    assert abs(out.data.mean() - 1.0) < 0.05
    assert nc.dropout(x, 0.25, rng, training=False) is x


def test_dropout_deterministic_given_seed():
    x = Tensor(np.ones((3, 50), dtype=np.float32))
    a = nc.dropout(x, 0.5, np.random.default_rng(7), training=True).data
    b = nc.dropout(x, 0.5, np.random.default_rng(7), training=True).data
    assert np.array_equal(a, b)


def test_training_dropout_keeps_a_one_byte_mask_and_the_seeded_bytes():
    rng = np.random.default_rng(36)
    x = Tensor(rng.normal(size=(64, 1000)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=x.shape).astype(np.float32)
    tracemalloc.start()
    try:
        out = nc.dropout(x, 0.1, np.random.default_rng(37), training=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    allowed = out.data.nbytes + x.data.size + (1 << 16)
    assert held <= allowed, f"holds {held / 1e6:.2f} MB, allowed {allowed / 1e6:.2f} MB"
    out.backward(g)
    mask = (np.random.default_rng(37).random(x.shape) >= 0.1).astype(np.float32) / (1.0 - 0.1)
    assert out.data.tobytes() == (x.data * mask).tobytes()
    assert x.grad.tobytes() == (g * mask).tobytes()


def test_select_classes_and_cross_entropy():
    logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]), dtype=np.float64, requires_grad=True)
    labels = np.array([0, 1])
    ce = nc.cross_entropy(logits, labels)
    expected = -np.log(np.exp(2.0) / (np.exp(2.0) + 1.0))
    np.testing.assert_allclose(ce.data, [expected, expected], rtol=1e-12)


@pytest.mark.parametrize("shape", ((5,), (5, 3)))
def test_take_rows_gathers_and_scatter_adds_repeats(shape):
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=shape), dtype=np.float64, requires_grad=True)
    idx = np.array([3, 0, 3, 4, 3])  # row 3 three times, rows 1 and 2 never
    weights = Tensor(rng.normal(size=(5,) + shape[1:]), dtype=np.float64)
    assert np.array_equal(nc.take_rows(x, idx).data, x.data[idx])

    def fn():
        return nc.tsum(nc.mul(nc.take_rows(x, idx), weights))

    report = nc.gradient_check(fn, {"x": x}, op_name="take_rows")
    assert report.max_rel_error < 1e-6
    expected = np.zeros_like(x.data)
    np.add.at(expected, idx, weights.data)
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)
    assert not x.grad[[1, 2]].any()


def test_concat_backward_splits():
    a = Tensor(np.ones((2, 3)), dtype=np.float64, requires_grad=True)
    b = Tensor(np.ones((2, 2)), dtype=np.float64, requires_grad=True)
    out = nc.concat([a, b], axis=-1)
    nc.tsum(nc.mul(out, 2.0)).backward()
    np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
    np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))
    # along axis 0, a constant part keeps no rule: it ends without a gradient,
    # and the parameter after it gets its own rows of dL/d(out)
    rng = np.random.default_rng(47)
    c = Tensor(rng.normal(size=(3, 4)))
    p = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    proj = Tensor(rng.normal(size=(5, 4)))
    report = nc.gradient_check(lambda: nc.tsum(nc.mul(nc.concat([c, p], axis=0), proj)), {"p": p}, op_name="concat")
    assert report.max_rel_error < 1e-6
    assert c.grad is None
    assert np.array_equal(p.grad, proj.data[3:])


def test_l2_normalize_unit_norm():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(5, 8)), dtype=np.float64)
    norms = np.linalg.norm(nc.l2_normalize(x).data, axis=-1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-6)


def test_gradient_check_rejects_float32():
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError):
        nc.gradient_check(lambda: nc.tsum(x), {"x": x})


def test_gradient_check_rejects_bad_step():
    x = Tensor(np.ones(2), dtype=np.float64, requires_grad=True)
    with pytest.raises(ValueError):
        nc.gradient_check(lambda: nc.tsum(x), {"x": x}, step=1e-2)


# -- the binary array layout (dvmer.ioutil) -----------------------------------


def _read_table(blob, offset=0):
    """The table at offset in blob, and the offset just past it."""
    reader = ioutil.BinaryReader(blob, "array table", CheckpointMismatch, offset=offset)
    return reader.table(), reader.offset


def test_pack_unpack_table_round_trip():
    table = {
        "weights": np.arange(12, dtype=np.float32).reshape(3, 4),
        "labels": np.array([3, 1, 4], dtype=np.int64),
        "flags": np.array([True, False, True]),
        "scalar": np.array(7.5, dtype=np.float64),
    }
    blob = ioutil.pack_array_table(table)
    back, consumed = _read_table(blob)
    assert consumed == len(blob)
    assert np.array_equal(back["weights"], table["weights"])
    assert np.array_equal(back["labels"], table["labels"])
    assert np.array_equal(back["flags"], table["flags"].astype(np.uint8))
    assert back["scalar"] == 7.5


TABLE_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float32, np.float64, np.int64, np.uint8, np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)


@settings(max_examples=200, deadline=None)
@given(table=st.dictionaries(st.text(max_size=12), TABLE_ARRAYS, max_size=5), prefix=st.binary(max_size=8))
def test_array_table_round_trips_exactly(table, prefix):
    blob = ioutil.pack_array_table(table)
    back, consumed = _read_table(prefix + blob, offset=len(prefix))
    assert consumed == len(prefix) + len(blob)
    assert list(back) == list(table)
    for name, arr in table.items():
        stored = arr.astype(np.uint8) if arr.dtype == np.bool_ else arr
        assert back[name].dtype == stored.dtype and back[name].shape == stored.shape
        assert back[name].tobytes() == stored.tobytes()  # bit-exact, NaN payloads included


def test_unpack_table_rejects_unknown_dtype_tag():
    blob = bytearray(ioutil.pack_array_table({"w": np.zeros(3, dtype=np.float32)}))
    blob[4 + 2 + 1] = 9  # count, name length, name "w", then the dtype tag
    with pytest.raises(CheckpointMismatch, match="dtype tag 9"):
        _read_table(bytes(blob))


def test_unpack_table_rejects_every_truncation():
    blob = ioutil.pack_array_table({"w": np.arange(6, dtype=np.float32).reshape(2, 3), "n": np.array([1])})
    for cut in range(len(blob)):
        with pytest.raises(CheckpointMismatch):
            _read_table(blob[:cut])


# shapes whose byte count is zero, so every dim is read, but that numpy cannot build
UNBUILDABLE_DIMS = {
    "rank_65": (0,) * 65,
    "zero_size_overflow": (0, 2**32 - 1, 2**32 - 1, 2**32 - 1),
    "zero_last": (2**32 - 1,) * 3 + (0,),
}


@pytest.mark.parametrize("dims", UNBUILDABLE_DIMS.values(), ids=UNBUILDABLE_DIMS)
@pytest.mark.parametrize("error", (CheckpointMismatch, BadFeatureCache))
def test_reader_raises_its_own_error_for_a_shape_numpy_cannot_build(dims, error):
    buf = struct.pack(f"<BB{len(dims)}I", 0, len(dims), *dims)
    with pytest.raises(error, match=f"unusable rank-{len(dims)} shape for 'w'"):
        ioutil.BinaryReader(buf, "blob", error).array({0: np.float32}, "'w'")


def _parameter_and_input():
    w = Tensor(np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(3, 2), requires_grad=True)
    x = Tensor(np.ones((4, 2), dtype=np.float32))
    return w, x


def test_no_grad_nodes_keep_no_graph():
    w, x = _parameter_and_input()
    gamma, beta = nc.init_layer_norm_params(3)
    with nc.no_grad():
        h = nc.linear(x, w)
        nodes = [h, nc.gelu(h), nc.softmax(h), nc.layer_norm(h, gamma, beta), nc.tsum(h)]
    for node in nodes:
        assert node._node.parents == ()
        assert node._backward is None
        assert not node.requires_grad
    after = nc.linear(x, w)
    assert after._node.parents == (x._node, w._node)
    assert after._backward is not None
    # same arithmetic with and without a graph
    assert np.array_equal(after.data, h.data)


def test_no_grad_restores_the_mode_when_the_block_raises():
    w, x = _parameter_and_input()
    big = Tensor(np.array([1e30], dtype=np.float32), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
        with nc.no_grad():
            nc.mul(big, big)  # the finite check still runs without a graph
    assert nc.linear(x, w)._backward is not None


def test_no_grad_nests():
    w, x = _parameter_and_input()
    with nc.no_grad():
        with nc.no_grad():
            pass
        assert nc.linear(x, w)._backward is None
    assert nc.linear(x, w)._backward is not None


# -- linear as one GEMM, blocked GELU -------------------------------------


def _flat_linear(x, w, b, g):
    """Forward, dx, dw and db as one 2-D GEMM each over the leading axes
    flattened into rows, as linear documents."""
    d_out, d_in = w.shape
    x2, g2 = x.reshape(-1, d_in), g.reshape(-1, d_out)
    return (x2 @ w.T + b).reshape(g.shape), (g2 @ w).reshape(x.shape), g2.T @ x2, g2.sum(axis=0)


def _batched_linear(x, w, b, g):
    """Forward and dx with a batched matmul over the leading axes; dw and db
    as _flat_linear computes them."""
    return (x @ w.T + b, g @ w) + _flat_linear(x, w, b, g)[2:]


@pytest.mark.parametrize("layout", ("contiguous", "token_view"))
@pytest.mark.parametrize("d_in,d_out", ((128, 512), (512, 128), (128, 128)))
def test_linear_matches_the_batched_form_bit_for_bit(layout, d_in, d_out):
    """linear has the bytes of its flattened 2-D GEMMs under every kernel set,
    and those of the batched product under OpenBLAS's SkylakeX kernels, where
    README claims them; under the Haswell and Zen kernels a row's bits in a
    batched product depend on its place in the batch."""
    rng = np.random.default_rng(60)
    if layout == "contiguous":
        x_np = rng.normal(size=(16, 87, d_in)).astype(np.float32)
    else:  # tokenize_views passes the [B, frames, bands] view of a [B, bands, frames] batch
        x_np = np.swapaxes(rng.normal(size=(16, d_in, 87)).astype(np.float32), 1, 2)
    w_np = (rng.normal(size=(d_out, d_in)) / np.sqrt(d_in)).astype(np.float32)
    b_np = rng.normal(size=d_out).astype(np.float32)
    g = rng.normal(size=(16, 87, d_out)).astype(np.float32)
    x, w, b = (Tensor(a, requires_grad=True) for a in (x_np, w_np, b_np))
    out = nc.linear(x, w, b)
    out.backward(g)
    forms = [_flat_linear] + ([_batched_linear] if blas_build.kernel_set() == "SkylakeX" else [])
    for form in forms:
        for got, want in zip((out.data, x.grad, w.grad, b.grad), form(x_np, w_np, b_np, g)):
            assert got.shape == want.shape
            assert np.array_equal(got, want), form.__name__


def test_linear_gives_no_input_gradient_when_the_input_needs_none():
    rng = np.random.default_rng(65)
    x_np = rng.normal(size=(4, 7, 6)).astype(np.float32)
    g = rng.normal(size=(4, 7, 5)).astype(np.float32)
    grads = {}
    for x_needs in (False, True):
        x = Tensor(x_np, requires_grad=x_needs)
        w, b = nc.init_linear_params(5, 6, np.random.default_rng(66))
        nc.linear(x, w, b).backward(g)
        grads[x_needs] = (x.grad, w.grad, b.grad)
    assert grads[False][0] is None and grads[True][0] is not None
    for got, want in zip(grads[False][1:], grads[True][1:]):
        assert got.tobytes() == want.tobytes()
    # a constant weight and bias get no gradient; x gets the same one
    w, b = nc.init_linear_params(5, 6, np.random.default_rng(66))
    x = Tensor(x_np, requires_grad=True)
    w_const, b_const = Tensor(w.data), Tensor(b.data)
    nc.linear(x, w_const, b_const).backward(g)
    assert w_const.grad is None and b_const.grad is None
    assert x.grad.tobytes() == grads[True][0].tobytes()


def test_feed_forward_computes_no_input_gradient_when_the_input_needs_none():
    """With a wide input and a narrow hidden layer, dL/dx would be the largest
    array of the backward; a constant x must never have it allocated."""
    rng = np.random.default_rng(67)
    x = Tensor(rng.normal(size=(512, 256)).astype(np.float32))
    w1, b1 = nc.init_linear_params(4, 256, rng)
    w2, b2 = nc.init_linear_params(4, 4, rng)
    out = nc.feed_forward(x, w1, b1, w2, b2)
    g = np.ones_like(out.data)
    tracemalloc.start()
    try:
        out.backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is None and w1.grad is not None
    assert peak < x.data.nbytes // 2, f"backward peaks at {peak / 1e6:.2f} MB"


def _erf32(z):
    return nc._erf32(z, np.empty_like(z), np.empty_like(z), np.empty_like(z))


FLOAT32_EDGES = np.array([0.0, -0.0, 1e-45, -1e-45, 1e-39, -1e-39, 1.1754942e-38, 3.9999998, 4.0,
                          4.0000005, -4.5, 9.0, -1e30, 3.4e38], dtype=np.float32)


@settings(max_examples=300, deadline=None)
@given(z=hnp.arrays(np.float32, st.integers(1, 64), elements=st.one_of(
    st.floats(-6.0, 6.0, width=32), st.floats(width=32, allow_nan=False, allow_infinity=False))))
@example(z=FLOAT32_EDGES)
def test_erf32_is_close_to_erf_odd_and_bounded(z):
    got = _erf32(z)
    assert got.dtype == np.float32
    assert np.all(np.abs(got.astype(np.float64) - erf(z.astype(np.float64))) <= 1e-6)
    assert np.array_equal(_erf32(-z), -got)
    assert np.all(np.abs(got) <= 1.0)


GELU64_INPUTS = np.concatenate([np.random.default_rng(61).normal(scale=3.0, size=2 * nc.GELU_BLOCK + 7),
                                [0.0, -0.0, 40.0, -40.0, 1e-310]])


def test_float64_gelu_is_the_bytes_of_the_erf_formula():
    x = GELU64_INPUTS
    want = x * 0.5 * (1 + np.array([math.erf(v) for v in x / np.sqrt(2)]))
    assert nc.gelu(Tensor(x, dtype=np.float64)).data.tobytes() == want.tobytes()


def test_float64_gelu_is_within_1e_15_of_the_scipy_erf_formula():
    x = GELU64_INPUTS
    want = x * 0.5 * (1 + erf(x / np.sqrt(2)))
    assert np.max(np.abs(nc.gelu(Tensor(x, dtype=np.float64)).data - want)) <= 1e-15


def test_float32_gelu_is_close_to_the_exact_one():
    x = np.linspace(-12.0, 12.0, 3 * nc.GELU_BLOCK + 11, dtype=np.float32)
    exact = x * 0.5 * (1 + erf(x.astype(np.float64) / np.sqrt(2)))
    got = nc.gelu(Tensor(x)).data
    assert got.dtype == np.float32
    assert np.all(np.abs(got - exact) <= 1e-6 * np.maximum(1.0, np.abs(x)))


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_gelu_gives_the_same_bytes_with_and_without_a_graph(dtype):
    x = Tensor(np.random.default_rng(62).normal(scale=3.0, size=(3, nc.GELU_BLOCK // 4 + 5, 9)).astype(dtype),
               requires_grad=True)
    with_graph = nc.gelu(x)
    with nc.no_grad():
        without = nc.gelu(x)
    assert with_graph._backward is not None and without._backward is None
    assert with_graph.data.tobytes() == without.data.tobytes()


def test_gelu_of_a_transposed_input():
    x_np = np.random.default_rng(63).normal(scale=3.0, size=(300, 200)).astype(np.float32)
    x_t, x_c = Tensor(x_np.T, requires_grad=True), Tensor(np.ascontiguousarray(x_np.T), requires_grad=True)
    out_t, out_c = nc.gelu(x_t), nc.gelu(x_c)
    assert out_t.data.shape == (200, 300)
    assert np.array_equal(out_t.data, out_c.data)
    exact = x_np.T * 0.5 * (1 + erf(x_np.T.astype(np.float64) / np.sqrt(2)))
    assert np.all(np.abs(out_t.data - exact) <= 1e-6 * np.maximum(1.0, np.abs(x_np.T)))
    nc.tsum(out_t).backward()
    nc.tsum(out_c).backward()
    assert np.array_equal(x_t.grad, x_c.grad)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("layout", ("flat", "transposed"))
def test_blocked_gelu_backward_is_the_bytes_of_the_whole_array_formula(dtype, layout):
    rng = np.random.default_rng(67)
    if layout == "flat":
        x_np = rng.normal(scale=3.0, size=2 * nc.GELU_BLOCK + 7).astype(dtype)
    else:
        x_np = rng.normal(scale=3.0, size=(300, 231)).astype(dtype).T
    g = rng.normal(size=x_np.shape).astype(dtype)
    x = Tensor(x_np, requires_grad=True)
    nc.gelu(x).backward(g)
    z = x_np / nc._SQRT2
    erf_z = _erf32(z) if dtype == np.float32 else nc._ERF64(z).astype(dtype)
    phi = (erf_z + 1.0) * 0.5
    pdf = np.exp(-0.5 * x_np * x_np) * nc._INV_SQRT_2PI
    want = g * (phi + x_np * pdf)
    assert x.grad.dtype == dtype and x.grad.shape == x_np.shape
    assert x.grad.tobytes() == want.tobytes()


def test_forward_only_gelu_peaks_near_its_output():
    x = Tensor(np.random.default_rng(64).normal(size=(64, 87, 512)).astype(np.float32))
    with nc.no_grad():
        tracemalloc.start()
        try:
            out = nc.gelu(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 1.25 * out.data.nbytes, f"peak {peak / 1e6:.2f} MB for a {out.data.nbytes / 1e6:.2f} MB output"
