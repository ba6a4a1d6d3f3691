"""Minimal reverse-mode autodiff over numpy arrays.

Implements exactly the tensor operations the dual-view architecture needs:
linear maps, temperature softmax, layer norm, GELU, multi-head attention,
dropout, and the reductions that glue them together. Every op but the two
fused ones builds its node through `_op`, from one gradient rule per
parent: only the rules of parents that require a gradient are kept and run,
and each result is summed over the axes the forward broadcast. The fused
ops keep their own backward, because several parents' gradients share one
intermediate array: the attention core (scores, softmax, context) keeps one
weight array per call and derives dq and dk from one dS; the feed-forward
block (linear, GELU, linear) keeps the hidden pre-activation and Phi,
rebuilds the GELU output, and derives dx, dW1 and db1 from one dL/dh with
`linear`'s rules. Each fused op gives its primitive composite's bytes. A
training dropout node keeps a one-byte boolean mask.
Gradients are verified against central finite differences via gradient_check.

Training runs in float32; gradient checking runs in float64. GELU's float64
erf is math.erf, within 3 ulp of the exact erf; float32 uses the Abramowitz &
Stegun 7.1.26 erf, whose largest error against the float64 erf is about 6e-7.
Inside `with no_grad():` ops still compute and check their outputs but record
no graph, so forward-only passes free each intermediate as soon as it is
dead.

The graph holds nodes, not Tensors: a Tensor is its data and its `_Node`
(gradient, backward closure, parents' nodes), and a backward closure keeps
only the arrays it reads. So an op output that no backward reads, such as a
dropout output or a residual sum, is freed as soon as the caller drops its
Tensor, during the forward.

`Tensor.backward` frees each interior node's gradient as soon as that node
has passed it to its parents; only leaves keep theirs. So a sweep holds the
graph's activations plus the gradients still in flight, and a later sweep
through a shared node starts from zero rather than from a stale gradient.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadTemperature,
    HeadDivisibility,
    NonFiniteValue,
    ShapeMismatch,
    check_finite,
)

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_ERF64 = np.frompyfunc(math.erf, 1, 1)  # float64 erf, elementwise; float32 uses _erf32
# Abramowitz & Stegun 7.1.26: erf(z) ~ 1 - (a1 t + ... + a5 t^5) exp(-z^2), t = 1 / (1 + p z)
_ERF_P = 0.3275911
_ERF_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
# elements per gelu block: its float32 scratch arrays stay cache-sized
GELU_BLOCK = 1 << 15

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Ops inside the block keep no parents or backward closures. The mode is
    process-wide; the previous mode is restored on exit, also when the block
    raises."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _check_finite(data, op_name):
    check_finite(data, NonFiniteValue, f"non-finite value produced by op '{op_name}'")


class _Node:
    """One graph node: the gradient, whether one flows, the backward closure
    and the parents' nodes. The graph links nodes, never Tensors, so an op
    output's array lives only while a Tensor or a backward closure holds it."""

    __slots__ = ("grad", "requires_grad", "backward", "parents")

    def __init__(self, requires_grad, backward=None, parents=()):
        self.grad = None
        self.requires_grad = requires_grad
        self.backward = backward
        self.parents = parents


def _through_node(slot):
    """A Tensor attribute that reads and writes its node's slot."""
    return property(lambda t: getattr(t._node, slot), lambda t, value: setattr(t._node, slot, value))


class Tensor:
    """Array with its node in a dynamically built computation graph.

    data is float32 by default; pass float64 arrays for gradient checking.
    Every op validates its output for NaN/Inf.
    """

    __slots__ = ("data", "_node")
    grad = _through_node("grad")
    requires_grad = _through_node("requires_grad")
    _backward = _through_node("backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self._node = _Node(bool(requires_grad))

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Reverse-mode sweep from this node; seeds with ones by default.
        Leaves accumulate into .grad; interior nodes end with .grad None."""
        if grad is None:
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ShapeMismatch(f"backward seed shape {np.shape(grad)} vs output {self.data.shape}")
        self.grad = np.asarray(grad, dtype=self.data.dtype)

        # iterative post-order DFS; parent tuples keep traversal deterministic
        order = []
        visited = set()
        stack = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in visited:
                    stack.append((p, False))

        for node in reversed(order):
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad)
                node.grad = None  # every consumer has added its share; leaves keep theirs

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _records(parents) -> bool:
    """Whether a new node keeps a graph: grad mode is on and a parent requires a gradient."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(data, parents, backward, op_name) -> Tensor:
    """An op output whose node links the parents' nodes; backward holds no parent Tensor."""
    _check_finite(data, op_name)
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = _Node(True, backward, tuple(p._node for p in parents)) if _records(parents) else _Node(False)
    return out


def _accum(node: _Node, g):
    if node.requires_grad:
        node.grad = g if node.grad is None else node.grad + g


def _reduce_to(g, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise and structural ops -------------------------------------


def _op(parents, data, grads, op_name) -> Tensor:
    """An op output. grads holds one rule per parent, in order, each g ->
    that parent's share of dL/d(output). The backward adds each rule's
    result, summed over broadcast axes, into its parent's gradient; only the
    rules of parents that require a gradient are kept and run."""
    wanted = tuple((p._node, p.data.shape, grad) for p, grad in zip(parents, grads) if p.requires_grad)

    def backward(g):
        for node, shape, grad in wanted:
            _accum(node, _reduce_to(grad(g), shape))

    return _node(data, parents, backward, op_name)


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    return _op((a, b), a.data + b.data, (lambda g: g, lambda g: g), "add")


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    return _op((a, b), a.data - b.data, (lambda g: g, lambda g: -g), "sub")


def neg(a: Tensor) -> Tensor:
    return _op((a,), -a.data, (lambda g: -g,), "neg")


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    x, y = a.data, b.data
    return _op((a, b), x * y, (lambda g: g * y, lambda g: g * x), "mul")


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    x, y = a.data, b.data
    return _op((a, b), x / y, (lambda g: g / y, lambda g: -g * x / (y * y)), "div")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims {a.data.shape} @ {b.data.shape}")
    x, y = a.data, b.data
    return _op((a, b), x @ y, (lambda g: g @ np.swapaxes(y, -1, -2), lambda g: np.swapaxes(x, -1, -2) @ g), "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    shape_in = a.data.shape
    return _op((a,), a.data.reshape(shape), (lambda g: g.reshape(shape_in),), "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _op((a,), a.data.transpose(axes), (lambda g: g.transpose(inv),), "transpose")


def _spread(g, shape, axis, keepdims):
    """The gradient g of a reduction over axis, broadcast back to the input's shape."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    shape = a.data.shape
    return _op((a,), a.data.sum(axis=axis, keepdims=keepdims), (lambda g: _spread(g, shape, axis, keepdims),), "sum")


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    shape = a.data.shape
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = math.prod(shape[i] for i in (range(a.ndim) if axis is None else np.atleast_1d(axis)))
    return _op((a,), data, (lambda g: _spread(g, shape, axis, keepdims) / count,), "mean")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _op((a,), data, (lambda g: g * data,), "exp")


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    return _op((a,), data, (lambda g: g * (0.5 / data),), "sqrt")


def log_clipped(a: Tensor, floor: float = 1e-12) -> Tensor:
    """log(max(x, floor)); gradient is zero on the clipped region.

    Keeps 0*log(0) terms finite when hard one-hot distributions are fed
    into divergence expressions.
    """
    x = a.data
    clipped = np.maximum(x, floor)
    return _op((a,), np.log(clipped), (lambda g: np.where(x > floor, g / clipped, 0.0),), "log_clipped")


def concat(tensors, axis=-1) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    ends = np.cumsum([t.data.shape[axis] for t in tensors])

    def part(start, end):  # the rule of the part at [start, end) along axis: that slice of g
        index = (slice(None),) * (axis % data.ndim) + (slice(start, end),)
        return lambda g: g[index]

    return _op(tensors, data, [part(end - t.data.shape[axis], end) for t, end in zip(tensors, ends)], "concat")


# -- nonlinearities and normalisation ------------------------------------


def softmax(a: Tensor, temperature: float = 1.0, axis: int = -1) -> Tensor:
    """Temperature-scaled softmax with max-subtraction for stability."""
    if temperature <= 0:
        raise BadTemperature(f"temperature must be positive, got {temperature}")
    z = a.data / temperature
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=axis, keepdims=True)
    return _op((a,), data, (lambda g: (g - (g * data).sum(axis=axis, keepdims=True)) * data / temperature,), "softmax")


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    data = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    return _op((a,), data, (lambda g: g - np.exp(data) * g.sum(axis=axis, keepdims=True),), "log_softmax")


def _erf32(z: np.ndarray, out: np.ndarray, t: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """float32 erf(z) into out by Abramowitz & Stegun 7.1.26; t and poly are
    scratch arrays of z's shape. The largest error against the float64 erf
    is about 6e-7 (5 float32 ulp near 1). |z| is clipped at 4, where erf is
    1 in float32, so that exp(-z^2) never goes subnormal (which is slow)."""
    np.abs(z, out=t)
    np.minimum(t, 4.0, out=t)
    np.multiply(t, t, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    t *= _ERF_P
    t += 1.0
    np.reciprocal(t, out=t)
    np.multiply(t, _ERF_A[-1], out=poly)
    for coeff in _ERF_A[-2::-1]:
        poly += coeff
        poly *= t
    out *= poly
    np.subtract(1.0, out, out=out)
    return np.copysign(out, z, out=out)


def _gelu_into(x: np.ndarray, out: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
    """out = x * Phi(x), with Phi(x) = (1 + erf(x / sqrt 2)) / 2, in blocks of
    GELU_BLOCK elements; Phi also goes into phi when one is given. out and phi
    are C-contiguous arrays of x's shape, and out may be x itself."""
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    z, t, poly, phi_scratch = np.empty((4, min(x.size, GELU_BLOCK)), x.dtype)
    for start in range(0, x.size, GELU_BLOCK):
        xb = flat_x[start:start + GELU_BLOCK]
        n = xb.size
        p = phi_scratch[:n] if phi is None else phi.reshape(-1)[start:start + n]
        np.divide(xb, _SQRT2, out=z[:n])
        if x.dtype == np.float32:
            _erf32(z[:n], p, t[:n], poly[:n])
        else:
            p[:] = _ERF64(z[:n])
        p += 1.0
        p *= 0.5
        np.multiply(xb, p, out=flat_out[start:start + n])
    return out


def _gelu_grad_into(x: np.ndarray, phi: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = g * (phi + x * pdf(x)) in blocks of GELU_BLOCK elements, the same
    bytes as the whole-array formula. out is C-contiguous and may be g."""
    flat_x, flat_g, flat_phi, flat_out = x.reshape(-1), g.reshape(-1), phi.reshape(-1), out.reshape(-1)
    u = np.empty(min(x.size, GELU_BLOCK), x.dtype)
    for start in range(0, x.size, GELU_BLOCK):
        xb = flat_x[start:start + GELU_BLOCK]
        n = xb.size
        ub = u[:n]
        np.multiply(xb, -0.5, out=ub)
        ub *= xb
        np.exp(ub, out=ub)
        ub *= _INV_SQRT_2PI
        ub *= xb
        ub += flat_phi[start:start + n]
        np.multiply(flat_g[start:start + n], ub, out=flat_out[start:start + n])
    return out


def gelu(a: Tensor) -> Tensor:
    """GELU, x * Phi(x) with Phi(x) = (1 + erf(x / sqrt 2)) / 2, in blocks of
    GELU_BLOCK elements. float64 uses math.erf, within 3 ulp of the exact
    erf; float32 uses _erf32, whose largest error is about 6e-7. Phi is
    kept for the backward only when a gradient will flow."""
    x = a.data
    phi = np.empty(x.shape, x.dtype) if _records((a,)) else None
    data = _gelu_into(x, np.empty(x.shape, x.dtype), phi)
    return _op((a,), data, (lambda g: _gelu_grad_into(x, phi, g, np.empty(x.shape, np.result_type(g, x))),), "gelu")


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0. The node keeps
    the boolean keep-mask, one byte per element, and rebuilds the scaled
    mask for its backward."""
    if not training or p <= 0.0:
        return a
    keep = rng.random(a.data.shape) >= p
    dtype = a.dtype

    def scaled_mask():
        return keep.astype(dtype) / (1.0 - p)

    return _op((a,), a.data * scaled_mask(), (lambda g: g * scaled_mask(),), "dropout")


def _check_linear(d_in: int, w: Tensor, b: Tensor | None, op_name: str):
    if d_in != w.data.shape[-1]:
        raise ShapeMismatch(f"{op_name}: input dim {d_in} vs weight {w.data.shape}")
    if b is not None and b.data.shape != (w.data.shape[0],):
        raise ShapeMismatch(f"{op_name}: bias shape {b.data.shape} vs weight {w.data.shape}")


def _linear_rules(x: np.ndarray, w: np.ndarray):
    """The gradient rules of x W^T + b for x, W and b, each from dL/dy, whose
    last axis is W's d_out: dL/dx = dL/dy W, dL/dW = dL/dy^T x and dL/db is
    the column sum of dL/dy, with any leading axes flattened into rows."""
    def rows(g):
        return g.reshape(-1, w.shape[0])

    return (lambda g: (rows(g) @ w).reshape(x.shape),
            lambda g: rows(g).T @ x.reshape(-1, w.shape[1]),
            lambda g: rows(g).sum(axis=0))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x W^T + b over the last axis; w is [d_out, d_in]. Any leading axes
    are flattened into one 2-D GEMM."""
    _check_linear(x.data.shape[-1], w, b, "linear")
    d_out, d_in = w.data.shape
    data = (x.data.reshape(-1, d_in) @ w.data.T).reshape(x.data.shape[:-1] + (d_out,))
    if b is not None:
        data += b.data
    parents = (x, w) if b is None else (x, w, b)
    return _op(parents, data, _linear_rules(x.data, w.data)[:len(parents)], "linear")


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(gelu(linear(x, w1, b1)), w2, b2) as one node, with the
    composite's bytes. The node keeps x, the hidden pre-activation h and Phi;
    its backward rebuilds the GELU output h * Phi for dW2 and drops it
    before dL/d(gelu output) is allocated. h, the GELU output and the output
    are each checked for non-finite values, as the composite checks them.
    Without a graph the GELU output overwrites h."""
    _check_linear(x.data.shape[-1], w1, b1, "feed_forward")
    _check_linear(w1.data.shape[0], w2, b2, "feed_forward")
    d_in, d_out = w1.data.shape[1], w2.data.shape[0]
    h = x.data.reshape(-1, d_in) @ w1.data.T
    h += b1.data
    _check_finite(h, "feed_forward")
    params = (x, w1, b1, w2, b2)
    if _records(params):
        phi = np.empty_like(h)
        act = _gelu_into(h, np.empty_like(h), phi)
    else:
        phi = None
        act = _gelu_into(h, h)
    _check_finite(act, "feed_forward")
    data = act @ w2.data.T
    data += b2.data
    w2_data, w2_node, b2_node = w2.data, w2._node, b2._node
    first = [(t._node, rule) for t, rule in zip(params, _linear_rules(x.data, w1.data)) if t.requires_grad]

    def backward(g):
        g = g.reshape(-1, d_out)
        _accum(w2_node, g.T @ (h * phi))  # the GELU output, rebuilt and dropped before dL/d(gelu output)
        _accum(b2_node, g.sum(axis=0))
        g = g @ w2_data
        _gelu_grad_into(h, phi, g, g)  # dL/dh, in place
        for node, rule in first:
            _accum(node, rule(g))

    return _node(data.reshape(x.data.shape[:-1] + (d_out,)), params, backward, "feed_forward")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-token normalisation over the last axis, then affine (gamma, beta)."""
    mu = tmean(x, axis=-1, keepdims=True)
    centred = sub(x, mu)
    var = tmean(mul(centred, centred), axis=-1, keepdims=True)
    inv_std = div(_as_tensor(1.0, x.dtype), sqrt(add(var, eps)))
    normed = mul(centred, inv_std)
    return add(mul(normed, gamma), beta)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(d_h)) v as one node, over [B, N_q, D]
    queries and [B, N_k, D] keys and values; returns the merged [B, N_q, D]
    context. The scores are checked once, after the q k^T GEMM, then scaled
    and softmaxed in place; the node keeps its inputs and the weights P. The
    backward, dS = (dP - rowsum(dP * P)) * P * scale, runs the primitive
    composite's operations in its order, so it gives that composite's bytes."""
    if not (q.ndim == k.ndim == v.ndim == 3 and k.shape == v.shape and q.shape[::2] == k.shape[::2]):
        raise ShapeMismatch(f"attention expects [B, N_q, D], [B, N_k, D], [B, N_k, D]: {q.shape}, {k.shape}, {v.shape}")
    batch, n_q, dim = q.shape
    n_k = k.shape[1]
    if dim % heads != 0:
        raise HeadDivisibility(f"dim {dim} not divisible by heads {heads}")
    head_dim = dim // heads
    qh, kh, vh = (t.data.reshape(batch, n, heads, head_dim).transpose(0, 2, 1, 3)
                  for t, n in ((q, n_q), (k, n_k), (v, n_k)))
    scale = q.dtype.type(1.0 / np.sqrt(head_dim))
    p = qh @ np.swapaxes(kh, -1, -2)
    _check_finite(p, "attention")
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    data = (p @ vh).transpose(0, 2, 1, 3).reshape(batch, n_q, dim)
    q_node, k_node, v_node = q._node, k._node, v._node

    def merge(g, n):
        return g.transpose(0, 2, 1, 3).reshape(batch, n, dim)

    def backward(g):
        gc = g.reshape(batch, n_q, heads, head_dim).transpose(0, 2, 1, 3)
        gs = gc @ np.swapaxes(vh, -1, -2)  # dP, turned into dS in place
        _accum(v_node, merge(np.swapaxes(p, -1, -2) @ gc, n_k))
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        _accum(q_node, merge(gs @ kh, n_q))
        _accum(k_node, merge(np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2), n_k))

    return _node(data, (q, k, v), backward, "attention")


def _scatter_add(shape, dtype, index, g):
    """The gradient g of a gather at index, added into zeros of the gathered array's shape and dtype."""
    full = np.zeros(shape, dtype)
    np.add.at(full, index, g)
    return full


def select_classes(t: Tensor, idx) -> Tensor:
    """Pick one entry per row of a [B, C] tensor; used for cross-entropy."""
    idx = np.asarray(idx, dtype=np.int64)
    if t.data.ndim != 2 or idx.shape != (t.data.shape[0],):
        raise ShapeMismatch(f"select_classes: {t.data.shape} with index {idx.shape}")
    rows = np.arange(t.data.shape[0])
    shape, dtype = t.data.shape, t.dtype
    return _op((t,), t.data[rows, idx], (lambda g: _scatter_add(shape, dtype, (rows, idx), g),), "select_classes")


def take_rows(t: Tensor, idx) -> Tensor:
    """Gather t[idx] along the first axis; repeated indices sum their
    gradients."""
    idx = np.asarray(idx, dtype=np.int64)
    shape, dtype = t.data.shape, t.dtype
    return _op((t,), t.data[idx], (lambda g: _scatter_add(shape, dtype, idx, g),), "take_rows")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Per-sample negative log likelihood at temperature 1; returns shape [B]."""
    return neg(select_classes(log_softmax(logits), labels))


def l2_normalize(t: Tensor, eps: float = 1e-12) -> Tensor:
    norm = sqrt(add(tsum(mul(t, t), axis=-1, keepdims=True), eps))
    return div(t, norm)


# -- parameter initialisation --------------------------------------------


def init_linear_params(d_out: int, d_in: int, rng: np.random.Generator, dtype=np.float32):
    """Uniform fan-in scaling for weight and bias."""
    bound = 1.0 / np.sqrt(d_in)
    w = Tensor(rng.uniform(-bound, bound, size=(d_out, d_in)).astype(dtype), requires_grad=True)
    b = Tensor(rng.uniform(-bound, bound, size=(d_out,)).astype(dtype), requires_grad=True)
    return w, b


def init_layer_norm_params(dim: int, dtype=np.float32):
    gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
    beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
    return gamma, beta


class Module:
    """A model part whose parameters are named by one rule, in the order its
    attributes were set: a Tensor attribute `head_fuse_w` is `head_fuse.w`
    (the last underscore becomes a dot), a part `attn` prefixes its own
    names with `attn.`, and the parts of a list are `layer0.`, `layer1.`, ...
    Any other attribute, None included, is skipped. A name given twice, such
    as by a second list of parts, raises ValueError rather than dropping a
    parameter."""

    def parameters(self) -> dict[str, Tensor]:
        named = []
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                named.append((".".join(attr.rsplit("_", 1)), value))
            elif isinstance(value, Module):
                named += [(f"{attr}.{k}", v) for k, v in value.parameters().items()]
            elif isinstance(value, list) and all(isinstance(part, Module) for part in value):
                for i, part in enumerate(value):
                    named += [(f"layer{i}.{k}", v) for k, v in part.parameters().items()]
        params = {}
        for name, value in named:
            if name in params:
                raise ValueError(f"{type(self).__name__} names two parameters {name!r}")
            params[name] = value
        return params


class MultiHeadAttention(Module):
    """Learned Q/K/V projections, the `attention` op, then the output
    projection: five graph nodes per call."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dtype=np.float32):
        if dim % heads != 0:
            raise HeadDivisibility(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.wq, self.bq = init_linear_params(dim, dim, rng, dtype)
        self.wk, self.bk = init_linear_params(dim, dim, rng, dtype)
        self.wv, self.bv = init_linear_params(dim, dim, rng, dtype)
        self.wo, self.bo = init_linear_params(dim, dim, rng, dtype)

    def __call__(self, query: Tensor, key: Tensor, value: Tensor) -> Tensor:
        q = linear(query, self.wq, self.bq)
        k = linear(key, self.wk, self.bk)
        v = linear(value, self.wv, self.bv)
        return linear(attention(q, k, v, self.heads), self.wo, self.bo)


# -- gradient verification ------------------------------------------------


@dataclass
class GradReport:
    op_name: str
    max_rel_error: float
    per_input: dict

    def __post_init__(self):
        assert self.max_rel_error >= 0.0


def _rel_error(a: float, b: float, denom_floor: float) -> float:
    denom = max(abs(a), abs(b))
    if denom == 0.0:
        return 0.0
    return abs(a - b) / max(denom, denom_floor)


def gradient_check(
    fn,
    inputs: dict,
    step: float = 1e-4,
    op_name: str = "op",
    denom_floor: float = 1e-6,
) -> GradReport:
    """Compare reverse-mode gradients of a scalar-valued fn against central
    finite differences.

    fn must rebuild its graph from the given Tensors on every call and
    return a scalar Tensor; the finite-difference calls run under
    no_grad(). All inputs must be float64 and step must lie in
    [1e-5, 1e-3]. Relative error uses max(|a|, |b|) as denominator with
    the 0/0 := 0 convention; denom_floor keeps structurally-zero gradients
    (both sides pure roundoff noise below the floor) from inflating the
    ratio, comparing them on an absolute scale instead.
    """
    if not (1e-5 <= step <= 1e-3):
        raise ValueError(f"step {step} outside [1e-5, 1e-3]")
    for name, t in inputs.items():
        if t.data.dtype != np.float64:
            raise ValueError(f"gradient_check requires float64 inputs; '{name}' is {t.data.dtype}")
        if not t.requires_grad:
            raise ValueError(f"gradient_check input '{name}' must require gradients")

    for t in inputs.values():
        t.zero_grad()
    out = fn()
    if out.data.size != 1:
        raise ShapeMismatch("gradient_check expects a scalar output")
    out.backward()
    analytic = {
        name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
        for name, t in inputs.items()
    }

    per_input = {}
    with no_grad():  # a forward gives the same values without a graph
        for name, t in inputs.items():
            flat = t.data.reshape(-1)
            worst = 0.0
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = float(fn().data)
                flat[i] = orig - step
                f_minus = float(fn().data)
                flat[i] = orig
                fd = (f_plus - f_minus) / (2.0 * step)
                worst = max(worst, _rel_error(float(analytic[name].reshape(-1)[i]), fd, denom_floor))
            per_input[name] = worst

    max_err = max(per_input.values()) if per_input else 0.0
    return GradReport(op_name=op_name, max_rel_error=max_err, per_input=per_input)

