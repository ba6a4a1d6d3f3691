"""Spans around dvmer's public functions and methods, and the per-layer
metrics derived from them.

Every span is installed from here by patching module or class attributes;
nothing in `src/dvmer` changes. nncore ops additionally wrap the backward
closure of each node they return, so backward time is attributed per op.
Primitive ops called directly by `layer_norm` also charge their backward to
`nncore.bwd.layer_norm`, which then includes them.

All `_ms` metrics are milliseconds per round (one run of the workload's
command list), averaged over the traced rounds, and inclusive of child
spans unless named `_self_ms`.
"""

from __future__ import annotations

import math
import weakref

from tracer import Tracer, median, tail_percentile

# nncore ops by metric name; the function has the same name except where renamed
NNCORE_OPS = (
    "linear", "matmul", "gelu", "softmax", "log_softmax", "layer_norm", "dropout",
    "add", "sub", "neg", "mul", "div", "exp", "sqrt", "log_clipped", "reshape",
    "transpose", "sum", "mean", "concat", "select_classes",
)
NNCORE_RENAMED = {"sum": "tsum", "mean": "tmean"}

# span name -> (module, attribute path); methods are "Class.method"
SPANS = {
    "features.read_wav": ("features", "read_wav"),
    "features.select_segment": ("features", "select_segment"),
    "features.power_spectra": ("features", "windowed_power_spectra"),
    "features.mel_bank": ("features", "mel_filterbank"),
    "features.gammatone_bank": ("features", "gammatone_filterbank"),
    "features.mel_energy": ("features", "mel_energies_from_spectra"),
    "features.coch_energy": ("features", "coch_energies_from_spectra"),
    "features.extract_pair": ("features", "extract_pair"),
    "features.cache_write": ("features", "write_feature_cache"),
    "features.cache_read": ("features", "read_feature_cache"),
    "nncore.backward_sweep": ("nncore", "Tensor.backward"),
    "model.tokenize": ("model", "DualViewModel.tokenize_views"),
    "model.encode": ("model", "DualViewModel.encode"),
    "model.cross_layer": ("model", "CrossViewLayer.__call__"),
    "model.heads": ("model", "DualViewModel.classify"),
    "curriculum.batch_confidences": ("curriculum", "batch_confidences"),
    "curriculum.pseudo_label_loss": ("curriculum", "pseudo_label_loss"),
    "curriculum.js_tensor": ("curriculum", "js_divergence_tensor"),
    "memory.enqueue": ("memory", "MemoryQueue.enqueue"),
    "memory.contrastive_loss": ("memory", "contrastive_loss"),
    "training.run_training": ("training", "run_training"),
    "training.clip": ("training", "clip_grad_norm"),
    "training.adamw": ("training", "AdamW.step"),
    "training.evaluate": ("training", "evaluate"),
    "training.predict": ("training", "predict_scores"),
    "training.metrics.acc": ("training", "accuracy_score"),
    "training.metrics.f1": ("training", "f1_score"),
    "training.metrics.auc": ("training", "auc_score"),
    "training.checkpoint_write": ("training", "save_checkpoint"),
    "training.checkpoint_read": ("training", "load_model_from_checkpoint"),
    "data.parse_manifest": ("data", "parse_manifest"),
    "data.stratified_split": ("data", "stratified_split"),
    "cli.extract_features": ("cli", "cmd_extract_features"),
    "cli.train": ("cli", "cmd_train"),
    "cli.eval": ("cli", "cmd_eval"),
    "cli.export_embeddings": ("cli", "cmd_export_embeddings"),
}
CLI_COMMANDS = ("extract_features", "train", "eval", "export_embeddings")
# spans that only orchestrate: no per-layer metric carries their self time,
# so it counts against trace coverage (and is reported as trace.glue_self_ms)
GLUE_SPANS = frozenset({
    "training.run_training", "training.evaluate", "training.forward", "model.forward_infer",
    "model.encode", "model.cross_layer", "model.init",
})
MODEL_LAYERS = 2
DIRECTIONS = ("mel_from_coch", "coch_from_mel")

# every per-layer metric with its unit, in report order
LAYER_METRICS = {
    **{f"features.{k}_ms": "ms" for k in (
        "read_wav", "select_segment", "power_spectra", "mel_bank", "gammatone_bank",
        "mel_energy_self", "coch_energy_self", "extract_pair_self", "cache_write", "cache_read")},
    "features.bank_builds_per_track": "count",
    "features.fft_gflop_per_track": "GFLOP",
    "features.fft_mb_per_track": "MB",
    **{f"nncore.{d}.{op}_{k}": u for op in NNCORE_OPS
       for d, k, u in (("fwd", "ms", "ms"), ("fwd", "calls", "count"), ("bwd", "ms", "ms"))},
    "nncore.backward_sweep_self_ms": "ms",
    "nncore.ops_per_step": "count",
    "nncore.ops_per_infer_batch": "count",
    "nncore.op_output_mb_per_batch": "MB",
    "model.tokenize_ms": "ms",
    **{f"model.layer{i}.{d}_ms": "ms" for i in range(MODEL_LAYERS) for d in DIRECTIONS},
    "model.pool_fuse_self_ms": "ms",
    "model.heads_ms": "ms",
    "curriculum.batch_confidences_ms": "ms",
    "curriculum.pseudo_label_loss_ms": "ms",
    "curriculum.js_tensor_ms": "ms",
    "curriculum.selected_ratio": "ratio",
    "memory.enqueue_ms": "ms",
    "memory.contrastive_loss_ms": "ms",
    "memory.valid_fraction": "ratio",
    "training.step_ms_p50": "ms",
    "training.step_ms_tail": "ms",
    "training.step_tail_pct": "%",
    "training.forward_ms": "ms",
    "training.loss_ms": "ms",
    "training.backward_ms": "ms",
    "training.clip_ms": "ms",
    "training.adamw_ms": "ms",
    "training.clipped_ratio": "ratio",
    "training.checkpoint_write_ms": "ms",
    "training.checkpoint_read_ms": "ms",
    "training.predict_ms_per_track": "ms",
    "training.metrics_ms": "ms",
    "data.parse_manifest_ms": "ms",
    "data.stratified_split_ms": "ms",
    **{f"cli.{c}_self_ms": "ms" for c in CLI_COMMANDS},
}


def _resolve(module, path: str):
    """(owner, attribute) for "func" or "Class.method" inside module."""
    owner_name, _, attr = path.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), attr


class Probes:
    """Installs dvmer spans on a Tracer and turns what they saw into
    per-layer metrics. Install before each traced round, remove after."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts = {
            "ops_train": 0, "ops_infer": 0, "forward_bytes": 0,
            "confidences": 0, "selected": 0, "clip_calls": 0, "clipped": 0,
            "valid_sum": 0.0, "contrastive_calls": 0, "tracks_predicted": 0,
        }
        self.step_durations: list[float] = []
        self.loss_time = 0.0
        self._step_start = None
        self._forward_end = None
        self._directions = weakref.WeakKeyDictionary()

    # -- installation ----------------------------------------------------------

    def install(self):
        from dvmer import cli, curriculum, data, features, memory, model, nncore, training

        modules = {"cli": cli, "curriculum": curriculum, "data": data, "features": features,
                   "memory": memory, "model": model, "nncore": nncore, "training": training}
        t = self.tracer
        hooks = {
            "curriculum.batch_confidences": {"after": self._after_confidences},
            "memory.contrastive_loss": {"before": self._before_contrastive},
            "training.clip": {"after": self._after_clip},
            "training.adamw": {"after": self._after_adamw},
            "training.predict": {"after": self._after_predict},
            "nncore.backward_sweep": {"before": self._before_backward},
        }
        for name, (mod, path) in SPANS.items():
            owner, attr = _resolve(modules[mod], path)
            t.patch(owner, attr, name, **hooks.get(name, {}))
        for op in NNCORE_OPS:
            # layer_norm's output node was made, and hooked, by its last primitive
            after = None if op == "layer_norm" else self._after_op(nncore.Tensor, op)
            t.patch(nncore, NNCORE_RENAMED.get(op, op), f"nncore.fwd.{op}", after=after)
        t.patch(model.DualViewModel, "forward", self._forward_name,
                before=self._before_forward, after=self._after_forward)
        t.patch(model.CrossDirection, "__call__", self._direction_name)
        t.patch(model.DualViewModel, "__init__", "model.init", after=self._after_model_init)

    def remove(self):
        self.tracer.remove()

    # -- hooks -----------------------------------------------------------------

    @staticmethod
    def _is_training_call(args, kwargs) -> bool:
        return bool(kwargs.get("training", args[4] if len(args) > 4 else False))

    def _forward_name(self, args, kwargs) -> str:
        return "training.forward" if self._is_training_call(args, kwargs) else "model.forward_infer"

    def _before_forward(self, args, kwargs):
        if self._is_training_call(args, kwargs):
            self._step_start = self.tracer.clock()

    def _after_forward(self, args, kwargs, result):
        if self._is_training_call(args, kwargs):
            self._forward_end = self.tracer.clock()

    def _before_backward(self, args, kwargs):
        if self.tracer.open["training.run_training"] and self._forward_end is not None:
            self.loss_time += self.tracer.clock() - self._forward_end
            self._forward_end = None

    def _after_adamw(self, args, kwargs, result):
        if self._step_start is not None:
            self.step_durations.append(self.tracer.clock() - self._step_start)
            self._step_start = None

    def _after_clip(self, args, kwargs, result):
        pre, post = result
        self.counts["clip_calls"] += 1
        self.counts["clipped"] += int(pre > post)

    def _after_confidences(self, args, kwargs, result):
        self.counts["confidences"] += len(result)
        self.counts["selected"] += sum(1 for sc in result if sc.selected)

    def _before_contrastive(self, args, kwargs):
        queue = args[2] if len(args) > 2 else kwargs["queue"]
        self.counts["valid_sum"] += float(queue.valid.mean())
        self.counts["contrastive_calls"] += 1

    def _after_predict(self, args, kwargs, result):
        self.counts["tracks_predicted"] += len(result[0])

    def _after_model_init(self, args, kwargs, result):
        for i, layer in enumerate(args[0].cross_layers):
            for d in DIRECTIONS:
                self._directions[getattr(layer, d)] = f"model.layer{i}.{d}"

    def _direction_name(self, args, kwargs) -> str:
        return self._directions.get(args[0], "model.direction")

    def _after_op(self, tensor_cls, op: str):
        tracer, counts = self.tracer, self.counts
        bwd_name = f"nncore.bwd.{op}"

        def after(args, kwargs, out):
            if not isinstance(out, tensor_cls) or (args and out is args[0]):
                return  # identity dropout returns its input; no node was made
            open_spans = tracer.open
            if open_spans["training.run_training"]:
                counts["ops_train"] += 1
            elif open_spans["model.forward_infer"]:
                counts["ops_infer"] += 1
            if open_spans["training.forward"] or open_spans["model.forward_infer"]:
                counts["forward_bytes"] += out.data.nbytes
            if out._backward is None:
                return
            closure = tracer.timed(bwd_name, out._backward)
            parent = tracer.stack[-1][0] if tracer.stack else None
            if parent == "nncore.fwd.layer_norm":
                closure = tracer.timed("nncore.bwd.layer_norm", closure)
            out._backward = closure

        return after

    # -- metrics ---------------------------------------------------------------

    def self_time_split(self) -> tuple[float, float]:
        """Seconds of self time in spans that back layer metrics, and in GLUE_SPANS."""
        stats = self.tracer.stats
        glue = sum(s.self_time for name, s in stats.items() if name in GLUE_SPANS)
        return self.tracer.total_self_time() - glue, glue

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics over `rounds` traced rounds, keyed as LAYER_METRICS."""
        from dvmer.features import FeatureConfig

        get = self.tracer.get
        c = self.counts

        def per_round(seconds: float) -> float:
            return 1e3 * seconds / rounds

        def ms(name: str) -> float:
            return per_round(get(name).total)

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for key in ("read_wav", "select_segment", "power_spectra", "mel_bank", "gammatone_bank",
                    "cache_write", "cache_read"):
            m[f"features.{key}_ms"] = ms(f"features.{key}")
        for key in ("mel_energy", "coch_energy", "extract_pair"):
            m[f"features.{key}_self_ms"] = per_round(get(f"features.{key}").self_time)
        tracks = get("features.extract_pair").calls
        m["features.bank_builds_per_track"] = ratio(
            get("features.mel_bank").calls + get("features.gammatone_bank").calls, tracks)
        cfg = FeatureConfig()
        frames = cfg.n_frames(cfg.segment_len)
        n_fft = cfg.n_fft
        if tracks:
            # real FFT ~ 2.5 N log2 N flops; float64 frame in, complex128 bins out
            m["features.fft_gflop_per_track"] = frames * 2.5 * n_fft * math.log2(n_fft) / 1e9
            m["features.fft_mb_per_track"] = frames * (8 * n_fft + 16 * (n_fft // 2 + 1)) / 1e6
        else:
            m["features.fft_gflop_per_track"] = m["features.fft_mb_per_track"] = 0.0

        for op in NNCORE_OPS:
            m[f"nncore.fwd.{op}_ms"] = ms(f"nncore.fwd.{op}")
            m[f"nncore.fwd.{op}_calls"] = get(f"nncore.fwd.{op}").calls / rounds
            m[f"nncore.bwd.{op}_ms"] = ms(f"nncore.bwd.{op}")
        m["nncore.backward_sweep_self_ms"] = per_round(get("nncore.backward_sweep").self_time)
        steps = get("training.adamw").calls
        infer_batches = get("model.forward_infer").calls
        m["nncore.ops_per_step"] = ratio(c["ops_train"], steps)
        m["nncore.ops_per_infer_batch"] = ratio(c["ops_infer"], infer_batches)
        m["nncore.op_output_mb_per_batch"] = ratio(
            c["forward_bytes"] / 1e6, get("training.forward").calls + infer_batches)

        m["model.tokenize_ms"] = ms("model.tokenize")
        for i in range(MODEL_LAYERS):
            for d in DIRECTIONS:
                m[f"model.layer{i}.{d}_ms"] = ms(f"model.layer{i}.{d}")
        m["model.pool_fuse_self_ms"] = per_round(get("model.encode").total - get("model.cross_layer").total)
        m["model.heads_ms"] = ms("model.heads")

        for key in ("batch_confidences", "pseudo_label_loss", "js_tensor"):
            m[f"curriculum.{key}_ms"] = ms(f"curriculum.{key}")
        m["curriculum.selected_ratio"] = ratio(c["selected"], c["confidences"])
        m["memory.enqueue_ms"] = ms("memory.enqueue")
        m["memory.contrastive_loss_ms"] = ms("memory.contrastive_loss")
        m["memory.valid_fraction"] = ratio(c["valid_sum"], c["contrastive_calls"])

        steps_ms = [1e3 * s for s in self.step_durations]
        tail = tail_percentile(steps_ms) if steps_ms else None
        m["training.step_ms_p50"] = median(steps_ms) if steps_ms else 0.0
        m["training.step_ms_tail"] = tail[1] if tail else 0.0
        m["training.step_tail_pct"] = tail[0] if tail else 0.0
        m["training.forward_ms"] = ms("training.forward")
        m["training.loss_ms"] = per_round(self.loss_time)
        m["training.backward_ms"] = ms("nncore.backward_sweep")
        m["training.clip_ms"] = ms("training.clip")
        m["training.adamw_ms"] = ms("training.adamw")
        m["training.clipped_ratio"] = ratio(c["clipped"], c["clip_calls"])
        m["training.checkpoint_write_ms"] = ms("training.checkpoint_write")
        m["training.checkpoint_read_ms"] = ms("training.checkpoint_read")
        m["training.predict_ms_per_track"] = ratio(1e3 * get("training.predict").total, c["tracks_predicted"])
        m["training.metrics_ms"] = sum(ms(f"training.metrics.{k}") for k in ("acc", "f1", "auc"))

        m["data.parse_manifest_ms"] = ms("data.parse_manifest")
        m["data.stratified_split_ms"] = ms("data.stratified_split")
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}_self_ms"] = per_round(get(f"cli.{cmd}").self_time)
        return m
