import math

import numpy as np
import pytest

from dvmer import curriculum as cur
from dvmer import nncore as nc
from dvmer.errors import BadEpoch, NotADistribution
from dvmer.nncore import Tensor

import example_checks as ec

CUR_EXAMPLES = [(n, f) for n, f in ec.EXAMPLES if n.startswith("curriculum.")]


@pytest.mark.parametrize("label,check", CUR_EXAMPLES, ids=[n for n, _ in CUR_EXAMPLES])
def test_examples(label, check):
    check()


def test_schedules_affine():
    taus = np.array([cur.temperature_at(t, 80) for t in range(81)])
    thetas = np.array([cur.threshold_at(t, 80) for t in range(81)])
    assert np.all(np.abs(np.diff(taus, n=2)) < 1e-12)
    assert np.all(np.abs(np.diff(thetas, n=2)) < 1e-12)
    assert np.all(np.diff(taus) < 0) and np.all(np.diff(thetas) < 0)


def test_schedule_rejects_out_of_range():
    with pytest.raises(BadEpoch):
        cur.temperature_at(81, 80)
    with pytest.raises(BadEpoch):
        cur.threshold_at(-1, 80)
    with pytest.raises(BadEpoch):
        cur.temperature_at(0, 0)


def test_curriculum_state_hits_endpoints():
    first = cur.curriculum_state(0, 80)
    last = cur.curriculum_state(79, 80)
    assert first.tau == 1.5 and first.theta == 0.65
    assert last.tau == 0.7 and last.theta == 0.35


def test_js_validates_inputs():
    with pytest.raises(NotADistribution):
        cur.js_divergence([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(NotADistribution):
        cur.js_divergence([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(NotADistribution):
        cur.js_divergence([0.5, 0.5], [1.0])


@pytest.mark.parametrize("row", ([np.nan, 1.0], [np.nan, np.nan], [0.5, np.nan]))
def test_js_rejects_nan_in_either_argument(row):
    with pytest.raises(NotADistribution, match="NaN"):
        cur.js_divergence(row, [0.5, 0.5])
    with pytest.raises(NotADistribution, match="NaN"):
        cur.js_divergence([0.5, 0.5], row)


def test_js_properties_random_pairs():
    rng = np.random.default_rng(0)
    ln2 = math.log(2.0)
    for n_classes in (2, 4, 8):
        for _ in range(300):
            p = rng.dirichlet(np.ones(n_classes))
            q = rng.dirichlet(np.ones(n_classes))
            js = cur.js_divergence(p, q)
            assert -1e-12 <= js <= ln2 + 1e-9
            assert abs(js - cur.js_divergence(q, p)) < 1e-9
            r = cur.reliability(p, q)
            assert 0.5 - 1e-9 <= r <= 1.0 + 1e-12


def test_sharper_temperature_never_lowers_max_prob():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = Tensor(rng.normal(scale=3.0, size=(1, 4)), dtype=np.float64)
        taus = [1.5, 1.1, 0.9, 0.7]
        maxima = [float(nc.softmax(z, temperature=t).data.max()) for t in taus]
        assert all(b >= a - 1e-12 for a, b in zip(maxima, maxima[1:]))


def test_selection_monotone_in_threshold():
    rng = np.random.default_rng(2)
    p_mel = rng.dirichlet(np.ones(2), size=40)
    p_coch = rng.dirichlet(np.ones(2), size=40)
    strict = {i for i, sc in enumerate(cur.batch_confidences(p_mel, p_coch, theta=0.6)) if sc.selected}
    lenient = {i for i, sc in enumerate(cur.batch_confidences(p_mel, p_coch, theta=0.4)) if sc.selected}
    assert strict <= lenient


def _confidence_loop_oracle(p_mel, p_coch, theta):
    """Plain-Python per-row scoring: (js, r, c, pseudo_label, selected, max p_fuse)."""
    rows = []
    for p, q in zip(p_mel.tolist(), p_coch.tolist()):
        m = [0.5 * (a + b) for a, b in zip(p, q)]
        js = 0.5 * sum(a * math.log(a / mi) for a, mi in zip(p, m) if a > 0) \
            + 0.5 * sum(b * math.log(b / mi) for b, mi in zip(q, m) if b > 0)
        r = math.exp(-js)
        c = r * max(m)
        rows.append((js, r, c, m.index(max(m)), c >= theta, max(m)))
    return rows


def test_batch_confidences_match_a_per_row_loop():
    rng = np.random.default_rng(12)
    for n_classes in (2, 3, 5):
        p_mel = rng.dirichlet(np.ones(n_classes), size=30)
        p_coch = rng.dirichlet(np.ones(n_classes), size=30)
        p_mel[::7] = np.eye(n_classes)[0]  # hard zeros and exact agreement
        p_coch[::7] = np.eye(n_classes)[0]
        p_coch[3] = np.eye(n_classes)[-1]  # maximal disagreement
        p_mel[3] = np.eye(n_classes)[0]
        got = cur.batch_confidences(p_mel, p_coch, theta=0.55)
        assert len(got) == 30
        oracle = _confidence_loop_oracle(p_mel, p_coch, 0.55)
        np.testing.assert_allclose(got.js, [o[0] for o in oracle], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.r, [o[1] for o in oracle], rtol=1e-12)
        np.testing.assert_allclose(got.c, [o[2] for o in oracle], rtol=1e-12)
        assert got.pseudo_label.tolist() == [o[3] for o in oracle]
        assert got.selected.tolist() == [o[4] for o in oracle]
        np.testing.assert_allclose(got.p_max, [o[5] for o in oracle], rtol=1e-15)
        assert [bool(sc.selected) for sc in got] == [o[4] for o in oracle]


def test_batch_confidences_score_with_the_js_they_are_given():
    rng = np.random.default_rng(13)
    p_mel = rng.dirichlet(np.ones(3), size=8)
    p_coch = rng.dirichlet(np.ones(3), size=8)
    js = rng.uniform(0.0, np.log(2.0), size=8).astype(np.float32)
    got = cur.batch_confidences(p_mel, p_coch, theta=0.5, js=js)
    own = cur.batch_confidences(p_mel, p_coch, theta=0.5)
    assert got.js.dtype == own.js.dtype == np.float64
    assert np.array_equal(got.js, js.astype(np.float64))
    assert np.array_equal(got.r, np.exp(-js.astype(np.float64)))
    assert np.array_equal(got.c, got.r * own.p_max)
    assert np.array_equal(got.selected, got.c >= 0.5)
    assert np.array_equal(got.pseudo_label, own.pseudo_label) and np.array_equal(got.p_max, own.p_max)


def _bad_row(kind, base):
    bad = base.copy()
    if kind == "negative":
        bad[3] = [-0.1, 1.1]
    elif kind == "sum":
        bad[3] = [0.5, 0.6]
    elif kind == "nan":
        bad[3] = [np.nan, 1.0]
    elif kind == "shape":
        bad = bad[:4]
    else:  # a vector instead of a batch
        bad = bad[0]
    return bad


@pytest.mark.parametrize("branch", ("p_mel", "p_coch"))
@pytest.mark.parametrize("kind", ("negative", "sum", "nan", "shape", "rank"))
def test_batch_confidences_reject_one_bad_row(kind, branch):
    good = np.tile([0.7, 0.3], (5, 1))
    bad = _bad_row(kind, good)
    args = (bad, good) if branch == "p_mel" else (good, bad)
    with pytest.raises(NotADistribution):
        cur.batch_confidences(*args, theta=0.5)


def test_pseudo_label_loss_detached_from_label_path():
    """Gradients must match a fixed-label weighted cross-entropy oracle:
    nothing flows through the selection, labels, or reliabilities."""
    logits_np = np.array([[0.7, -0.4], [0.1, 0.9], [2.0, -2.0]])
    p_mel = np.array([[0.8, 0.2], [0.3, 0.7], [0.9, 0.1]])
    p_coch = np.array([[0.7, 0.3], [0.2, 0.8], [0.8, 0.2]])
    confs = cur.batch_confidences(p_mel, p_coch, theta=0.0)

    logits = Tensor(logits_np, dtype=np.float64, requires_grad=True)
    loss = cur.pseudo_label_loss(confs, logits)
    loss.backward()
    got = logits.grad.copy()

    # oracle: d/dz mean_i r_i * CE(z_i, y_i) with y_i, r_i constants
    expected = np.zeros_like(logits_np)
    for i, sc in enumerate(confs):
        p = np.exp(logits_np[i]) / np.exp(logits_np[i]).sum()
        one_hot = np.eye(2)[sc.pseudo_label]
        expected[i] = sc.r * (p - one_hot) / len(confs)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_pseudo_label_loss_respects_eligibility():
    p = np.array([[0.9, 0.1], [0.9, 0.1]])
    confs = cur.batch_confidences(p, p, theta=0.0)
    logits = Tensor(np.array([[0.0, 0.0], [0.0, 0.0]]), dtype=np.float64)
    full = cur.pseudo_label_loss(confs, logits)
    gated = cur.pseudo_label_loss(confs, logits, eligible=np.array([False, False]))
    assert float(full.data) > 0.0
    assert float(gated.data) == 0.0


def test_js_tensor_matches_scalar_and_is_differentiable():
    rng = np.random.default_rng(3)
    p_np = rng.dirichlet(np.ones(3), size=6)
    q_np = rng.dirichlet(np.ones(3), size=6)
    got = cur.js_divergence_tensor(Tensor(p_np, dtype=np.float64), Tensor(q_np, dtype=np.float64)).data
    expected = [cur.js_divergence(p_np[i], q_np[i]) for i in range(6)]
    np.testing.assert_allclose(got, expected, rtol=1e-10)

    z1 = Tensor(rng.normal(size=(4, 3)), dtype=np.float64, requires_grad=True)
    z2 = Tensor(rng.normal(size=(4, 3)), dtype=np.float64, requires_grad=True)

    def fn():
        return nc.tmean(cur.js_divergence_tensor(nc.softmax(z1), nc.softmax(z2)))

    report = nc.gradient_check(fn, {"z1": z1, "z2": z2}, op_name="js")
    assert report.max_rel_error < 1e-4


def test_diagnostics_of_no_batch_are_zero():
    diag = cur.curriculum_diagnostics([], tau=1.5, theta=0.25)
    assert diag == {"mean_confidence": 0.0, "std_confidence": 0.0, "mean_reliability": 0.0,
                    "std_reliability": 0.0, "mask_ratio": 0.0, "pseudo_label_strength": 0.0,
                    "tau": 1.5, "theta": 0.25}
    assert all(math.copysign(1.0, value) == 1.0 for value in diag.values())  # 0.0, not -0.0


def test_diagnostics_strength_over_selected_only():
    p_strong = np.array([[0.95, 0.05]])
    p_weak = np.array([[0.55, 0.45]])
    batches = [cur.batch_confidences(p_strong, p_strong, theta=0.9),  # selected
               cur.batch_confidences(p_weak, p_weak, theta=0.9)]     # not selected
    diag = cur.curriculum_diagnostics(batches, tau=1.0, theta=0.9)
    assert diag["mask_ratio"] == 0.5
    assert diag["pseudo_label_strength"] == pytest.approx(0.95)
