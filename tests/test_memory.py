import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvmer import memory as mem
from dvmer import nncore as nc
from dvmer.errors import BadTemperature, BatchTooLarge
from dvmer.nncore import Tensor

import example_checks as ec

MEM_EXAMPLES = [(n, f) for n, f in ec.EXAMPLES if n.startswith("memory.")]


@pytest.mark.parametrize("label,check", MEM_EXAMPLES, ids=[n for n, _ in MEM_EXAMPLES])
def test_examples(label, check):
    check()


def ring_oracle(capacity, batches):
    """Naive list-based circular buffer tracking (value, label) per slot."""
    slots = [None] * capacity
    pointer = 0
    for feats, labels in batches:
        for row in range(len(feats)):
            slots[(pointer + row) % capacity] = (feats[row], labels[row])
        pointer = (pointer + len(feats)) % capacity
    return slots, pointer


def test_wraparound_exhaustive_small():
    rng = np.random.default_rng(0)
    for capacity in range(1, 6):
        sizes = range(1, min(capacity, 5) + 1)
        for s1 in sizes:
            for s2 in sizes:
                for s3 in sizes:
                    batches = []
                    for size in (s1, s2, s3):
                        feats = rng.normal(size=(size, 3))
                        labels = rng.integers(0, 2, size=size)
                        batches.append((feats, labels))
                    queue = mem.MemoryQueue(capacity=capacity, dim=3, dtype=np.float64)
                    for feats, labels in batches:
                        queue.enqueue(feats, labels)
                    slots, pointer = ring_oracle(capacity, batches)
                    assert queue.write_index == pointer
                    for pos, slot in enumerate(slots):
                        if slot is None:
                            assert not queue.valid[pos]
                            continue
                        feat, label = slot
                        np.testing.assert_allclose(queue.keys[pos], feat / np.linalg.norm(feat), rtol=1e-12)
                        assert queue.labels[pos] == label


def queue_oracle(capacity, dim, momentum, batches):
    """The queue's write rule one row at a time over plain lists:
    (keys, labels, valid, write pointer). Norms are taken per batch as the
    queue takes them, so the comparison can be exact."""
    keys = [np.zeros(dim, dtype=np.float32) for _ in range(capacity)]
    labels, valid, pointer = [0] * capacity, [False] * capacity, 0
    for feats, labs in batches:
        norms = np.linalg.norm(feats, axis=1)
        for row in range(len(feats)):
            pos = (pointer + row) % capacity
            labels[pos] = int(labs[row])
            if norms[row] == 0.0:
                keys[pos], valid[pos] = np.zeros(dim, dtype=np.float32), False
                continue
            key = feats[row] / norms[row]
            if momentum is not None and valid[pos]:
                blended = momentum * keys[pos] + (1.0 - momentum) * key
                if np.linalg.norm(blended) > 0:
                    key = blended / np.linalg.norm(blended)
            keys[pos], valid[pos] = key, True
        pointer = (pointer + len(feats)) % capacity
    return np.array(keys), labels, valid, pointer


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 7),
    dim=st.integers(1, 5),
    momentum=st.sampled_from([None, 0.5, 0.9]),
    sizes=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_enqueue_matches_a_plain_list_oracle(capacity, dim, momentum, sizes, seed):
    rng = np.random.default_rng(seed)
    batches = []
    for size in sizes:
        feats = rng.normal(size=(min(size, capacity), dim)).astype(np.float32)
        feats[rng.random(feats.shape[0]) < 0.25] = 0.0  # zero rows are stored but invalid
        batches.append((feats, rng.integers(0, 3, size=feats.shape[0])))
    queue = mem.MemoryQueue(capacity=capacity, dim=dim, n_classes=3, momentum=momentum)
    for feats, labels in batches:
        queue.enqueue(feats, labels)
    keys, labels, valid, pointer = queue_oracle(capacity, dim, momentum, batches)
    assert np.array_equal(queue.keys, keys)
    assert queue.labels.tolist() == labels
    assert queue.valid.tolist() == valid
    assert queue.write_index == pointer


def test_momentum_keeps_the_new_key_when_the_blend_cancels():
    queue = mem.MemoryQueue(capacity=2, dim=2, momentum=0.5, dtype=np.float64)
    queue.enqueue(np.array([[3.0, 0.0], [0.0, 2.0]]), np.array([0, 1]))
    queue.enqueue(np.array([[-1.0, 0.0], [0.0, 0.0]]), np.array([1, 0]))
    assert queue.keys.tolist() == [[-1.0, 0.0], [0.0, 0.0]]
    assert queue.valid.tolist() == [True, False]
    assert queue.labels.tolist() == [1, 0]


def test_full_queue_holds_most_recent_items():
    queue = mem.MemoryQueue(capacity=4, dim=2, dtype=np.float64)
    history = []
    rng = np.random.default_rng(1)
    for step in range(7):
        feat = rng.normal(size=(1, 2))
        history.append(feat[0])
        queue.enqueue(feat, np.array([step % 2]))
    assert len(queue) == 4
    recent = history[-4:]
    for offset, feat in enumerate(recent):
        pos = (7 - 4 + offset) % 4
        np.testing.assert_allclose(queue.keys[pos], feat / np.linalg.norm(feat), rtol=1e-12)


def test_enqueue_rejects_oversized_batch():
    queue = mem.MemoryQueue(capacity=2, dim=2)
    with pytest.raises(BatchTooLarge):
        queue.enqueue(np.ones((3, 2)), np.zeros(3, dtype=np.int64))


def test_enqueue_rejects_non_finite_features():
    from dvmer.errors import NonFiniteValue
    queue = mem.MemoryQueue(capacity=2, dim=2)
    with pytest.raises(NonFiniteValue):
        queue.enqueue(np.array([[np.inf, 0.0]]), np.array([0]))


def test_contrastive_rejects_bad_temperature():
    queue = mem.MemoryQueue(capacity=2, dim=2)
    queue.enqueue(np.array([[1.0, 0.0]]), np.array([0]))
    with pytest.raises(BadTemperature):
        mem.contrastive_loss(Tensor(np.ones((1, 2))), np.array([0]), queue, tau_cont=0.0)


def test_contrastive_empty_queue_is_zero():
    queue = mem.MemoryQueue(capacity=4, dim=2)
    loss = mem.contrastive_loss(Tensor(np.ones((2, 2))), np.array([0, 1]), queue)
    assert float(loss.data) == 0.0


def test_contrastive_random_instances_match_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(100):
        capacity = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 5))
        queue = mem.MemoryQueue(capacity=capacity, dim=dim, dtype=np.float64)
        n_items = int(rng.integers(1, capacity + 1))
        feats = rng.normal(size=(n_items, dim))
        feats[np.linalg.norm(feats, axis=1) == 0] = 1.0
        queue.enqueue(feats, rng.integers(0, 2, size=n_items))
        n_q = int(rng.integers(1, 5))
        queries = rng.normal(size=(n_q, dim))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        q_labels = rng.integers(0, 2, size=n_q)
        got = float(mem.contrastive_loss(Tensor(queries, dtype=np.float64), q_labels, queue).data)
        valid = queue.valid
        expected = ec.contrastive_bruteforce(queries, q_labels, queue.keys[valid], queue.labels[valid], 0.07)
        assert abs(got - expected) <= 1e-6 * max(1.0, abs(expected))


def test_identical_keys_make_loss_temperature_free():
    queue = mem.MemoryQueue(capacity=5, dim=3, dtype=np.float64)
    key = np.array([0.0, 1.0, 0.0])
    queue.enqueue(np.tile(key, (5, 1)), np.array([0, 0, 1, 0, 1]))
    query = Tensor(key[None, :], dtype=np.float64)
    losses = [float(mem.contrastive_loss(query, np.array([0]), queue, tau_cont=t).data)
              for t in (0.05, 0.07, 0.5, 2.0)]
    # all similarities equal: each key gets softmax mass 1/5, three positives
    expected = -3.0 * math.log(1.0 / 5.0)
    for loss in losses:
        assert abs(loss - expected) < 1e-9


def test_normalized_variant_divides_by_positive_count():
    queue = mem.MemoryQueue(capacity=4, dim=2, dtype=np.float64)
    queue.enqueue(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]),
                  np.array([0, 0, 0, 1]))
    query = Tensor(np.array([[1.0, 0.0]]), dtype=np.float64)
    plain = float(mem.contrastive_loss(query, np.array([0]), queue).data)
    normed = float(mem.contrastive_loss(query, np.array([0]), queue, normalized=True).data)
    assert normed == pytest.approx(plain / 3.0)


def test_queue_receives_no_gradients():
    """Enqueued features are detached; the producing tensor stays grad-free
    and parameters see gradients only through the live queries."""
    w = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), dtype=np.float64, requires_grad=True)
    x = Tensor(np.array([[0.5, 0.5]]), dtype=np.float64)
    produced = nc.matmul(x, w)
    queue = mem.MemoryQueue(capacity=2, dim=2, dtype=np.float64)
    queue.enqueue(produced.data, np.array([0]))  # stored as plain arrays
    queue.enqueue(np.array([[0.0, 1.0]]), np.array([1]))  # a negative, so the loss has a gradient

    def build_query():
        return nc.l2_normalize(nc.matmul(Tensor(np.array([[1.0, 2.0]]), dtype=np.float64), w))

    query = build_query()
    loss = mem.contrastive_loss(query, np.array([0]), queue)
    loss.backward()
    grad_with_original_queue = w.grad.copy()
    assert produced.grad is None
    assert np.any(grad_with_original_queue != 0)

    # perturbing the stored keys changes the loss value but gradients still
    # flow only through the query path, which the second loss shares with the first
    queue.keys *= 0.9
    w.zero_grad()
    loss2 = mem.contrastive_loss(query, np.array([0]), queue)
    loss2.backward()
    assert grad_with_original_queue.shape == w.grad.shape
    shared = w.grad.copy()
    w.zero_grad()
    mem.contrastive_loss(build_query(), np.array([0]), queue).backward()
    assert np.array_equal(shared, w.grad)


def test_momentum_mode_blends_overwrites():
    queue = mem.MemoryQueue(capacity=1, dim=2, momentum=0.95, dtype=np.float64)
    queue.enqueue(np.array([[1.0, 0.0]]), np.array([0]))
    queue.enqueue(np.array([[0.0, 1.0]]), np.array([1]))
    blended = 0.95 * np.array([1.0, 0.0]) + 0.05 * np.array([0.0, 1.0])
    blended /= np.linalg.norm(blended)
    np.testing.assert_allclose(queue.keys[0], blended, rtol=1e-12)
    assert queue.labels[0] == 1


def test_diagnostics_of_an_empty_queue_are_zero():
    diag = mem.queue_diagnostics(mem.MemoryQueue(capacity=3, dim=2, n_classes=3))
    assert diag == {"label_entropy": 0.0, "class_coverage": (0.0, 0.0, 0.0)}
    assert math.copysign(1.0, diag["label_entropy"]) == 1.0  # 0.0, not -0.0


def test_diagnostics_of_a_single_class_queue_are_a_positive_zero_entropy():
    queue = mem.MemoryQueue(capacity=4, dim=2)
    queue.enqueue(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]))
    diag = mem.queue_diagnostics(queue)
    assert diag == {"label_entropy": 0.0, "class_coverage": (1.0, 0.0)}
    assert math.copysign(1.0, diag["label_entropy"]) == 1.0  # 0.0, not -0.0: epochs.log would write -0.0


def test_diagnostics_report_entropy_and_coverage_only():
    queue = mem.MemoryQueue(capacity=4, dim=2, n_classes=3, dtype=np.float64)
    queue.enqueue(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([0, 0, 2]))
    diag = mem.queue_diagnostics(queue)
    assert list(diag) == ["label_entropy", "class_coverage"]
    assert diag["class_coverage"] == (2 / 3, 0.0, 1 / 3)
    assert diag["label_entropy"] == pytest.approx(-(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3))
