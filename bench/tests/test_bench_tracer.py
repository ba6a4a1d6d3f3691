"""Tests for the benchmark's tracer, probes and output checks."""

import json
import os
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import probes  # noqa: E402
from tracer import Tracer, median, tail_percentile  # noqa: E402


class FakeClock:
    """Returns scripted times, one per call."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# -- percentile rule -----------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))  # 100 samples
    pct, value = tail_percentile(values)
    assert (pct, value) == (90.0, 90)
    assert sum(v > value for v in values) == 10


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(1, 21))) == (50.0, 10)


def test_tail_uses_higher_percentile_with_more_samples():
    values = list(range(1, 1001))
    assert tail_percentile(values) == (99.0, 990)


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


# -- spans ---------------------------------------------------------------------


def test_self_time_excludes_nested_spans():
    # outer starts 0, inner runs 2..6, inner again 7..8, outer ends 10
    tracer = Tracer(clock=FakeClock([0.0, 2.0, 6.0, 7.0, 8.0, 10.0]))
    inner = tracer.timed("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.timed("outer", body)()
    outer, nested = tracer.stats["outer"], tracer.stats["inner"]
    assert (outer.calls, outer.total, outer.self_time) == (1, 10.0, 5.0)
    assert (nested.calls, nested.total, nested.self_time) == (2, 5.0, 5.0)
    assert tracer.total_self_time() == 10.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.timed("boom", boom)()
    assert tracer.stack == [] and tracer.open["boom"] == 0
    assert tracer.stats["boom"].calls == 1


def test_remove_restores_functions_and_methods():
    class Box:
        def value(self):
            return 1

    module = types.SimpleNamespace(double=lambda x: 2 * x)
    original_fn, original_method = module.double, vars(Box)["value"]
    tracer = Tracer()
    tracer.patch(module, "double", "double")
    tracer.patch(Box, "value", "value")
    assert module.double(3) == 6 and Box().value() == 1
    assert tracer.stats["double"].calls == 1 and tracer.stats["value"].calls == 1
    tracer.remove()
    assert module.double is original_fn and vars(Box)["value"] is original_method
    assert not tracer.installed
    module.double(3)
    assert tracer.stats["double"].calls == 1


def _patched_attributes():
    from dvmer import cli, curriculum, data, features, memory, model, nncore, training

    modules = {"cli": cli, "curriculum": curriculum, "data": data, "features": features,
               "memory": memory, "model": model, "nncore": nncore, "training": training}
    targets = [probes._resolve(modules[mod], path) for mod, path in probes.SPANS.values()]
    targets += [(nncore, probes.NNCORE_RENAMED.get(op, op)) for op in probes.NNCORE_OPS]
    targets += [(model.DualViewModel, "forward"), (model.CrossDirection, "__call__"),
                (model.DualViewModel, "__init__")]
    return {(owner, attr): vars(owner)[attr] for owner, attr in targets}


def test_probes_trace_a_training_run_and_remove_every_wrapper():
    from dvmer import data, model, training

    before = _patched_attributes()
    p = probes.Probes()
    p.install()
    try:
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in before.items())
        samples = data.synth_dataset(n=12, seed=0)
        cfg = training.TrainConfig(epochs=2, batch_size=6, queue_size=8)
        mcfg = model.ModelConfig(embed_dim=8, fusion_dim=8, heads=2, layers=2)
        result = training.run_training(samples, cfg, mcfg)
        training.evaluate(result.model, samples[:4])
    finally:
        p.remove()
    assert _patched_attributes() == before

    m = p.layer_metrics(rounds=1)
    assert set(m) == set(probes.LAYER_METRICS)
    assert m["nncore.fwd.linear_calls"] > 0 and m["nncore.bwd.linear_ms"] > 0
    assert p.tracer.stats["nncore.bwd.layer_norm"].calls > 0
    assert m["model.layer1.coch_from_mel_ms"] > 0
    assert len(p.step_durations) == 4 and m["training.step_ms_p50"] > 0
    assert m["nncore.ops_per_step"] > 0 and m["nncore.ops_per_infer_batch"] > 0
    assert 0.0 <= m["curriculum.selected_ratio"] <= 1.0
    assert m["features.fft_gflop_per_track"] == 0.0
    layer_self, glue_self = p.self_time_split()
    assert glue_self > 0 and p.tracer.stats["training.run_training"].self_time > 0
    assert layer_self + glue_self == pytest.approx(p.tracer.total_self_time())


def test_layer_norm_backward_is_charged_once_per_primitive():
    from dvmer import nncore as nc

    p = probes.Probes()
    p.install()
    try:
        x = nc.Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True)
        gamma, beta = nc.init_layer_norm_params(4)
        nc.layer_norm(x, gamma, beta).backward()
    finally:
        p.remove()
    stats = p.tracer.stats
    primitives = sum(stats[f"nncore.fwd.{op}"].calls for op in probes.NNCORE_OPS if op != "layer_norm")
    assert stats["nncore.fwd.layer_norm"].calls == 1
    assert stats["nncore.bwd.layer_norm"].calls == primitives == 10
    assert p.counts["ops_train"] == p.counts["ops_infer"] == 0


# -- output checks -------------------------------------------------------------


@pytest.fixture
def cache_file(tmp_path):
    from dvmer import features

    rng = np.random.default_rng(0)
    pair = features.FeaturePair(mel=rng.normal(size=checks.MEL_SHAPE), coch=rng.normal(size=checks.COCH_SHAPE))
    cfg = features.FeatureConfig()
    path = str(tmp_path / "t.dmrf")
    features.write_feature_cache(path, pair, "t", cfg)
    return path, cfg.config_hash()


def test_cache_check_passes_on_program_output(cache_file):
    path, config_hash = cache_file
    assert checks.check_cache(path, "t", config_hash) == []


def test_cache_check_fails_on_perturbed_payload(cache_file):
    path, config_hash = cache_file
    with open(path, "r+b") as fh:
        fh.seek(-4, os.SEEK_END)
        fh.write(np.float32(np.nan).tobytes())
    assert any("non-finite" in p for p in checks.check_cache(path, "t", config_hash))


def test_cache_check_fails_on_truncated_cache(cache_file):
    path, config_hash = cache_file
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 8)
    assert checks.check_cache(path, "t", config_hash)


def test_cache_check_fails_on_foreign_config_hash(cache_file):
    path, _ = cache_file
    assert checks.check_cache(path, "t", "0" * 16)


def test_auc_oracle_matches_program_with_ties():
    from dvmer import training

    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=40)
    scores = np.round(rng.random(40), 1)  # many ties
    assert checks.auc_oracle(list(labels), list(scores)) == pytest.approx(training.auc_score(labels, scores), abs=1e-12)


def test_eval_payload_check_flags_a_wrong_metric():
    expected = {"test": {"acc": 0.75, "f1": 0.5, "auc": 0.625}}
    good = {"exit_code": 0, "acc": 0.75, "f1": 0.5, "auc": 0.625}
    assert checks.check_eval_payload(good, expected, "test") == []
    assert checks.check_eval_payload(dict(good, auc=0.6), expected, "test")
    assert checks.check_eval_payload(json.loads('{"exit_code": 3}'), expected, "test")


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_export_check_flags_missing_column_and_row(tmp_path):
    expected = {"fusion_dim": 2, "labels": {"a": 0, "b": 1}}
    path = tmp_path / "e.csv"
    path.write_text("track_id,label,f_0,f_1\na,0,0.5,-1.0\nb,1,2.0,3.0\n")
    assert checks.check_export_csv(str(path), expected) == []
    path.write_text("track_id,label,f_0,f_1\na,0,0.5\nb,1,2.0,3.0\n")
    assert checks.check_export_csv(str(path), expected) == ["export: bad row for a"]
    path.write_text("track_id,label,f_0,f_1\na,0,0.5,-1.0\n")
    assert checks.check_export_csv(str(path), expected)
