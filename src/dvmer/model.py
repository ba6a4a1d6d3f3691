"""Dual-view encoder: per-frame tokenisation of both views, stacked
bidirectional cross-attention layers, mean pooling, fusion, and three
classification heads.

Each time frame is one token whose feature vector is that frame's frequency
column; both views are projected into a shared embedding space. Every
cross-view layer computes both attention directions from the same input
tokens (simultaneous update), each followed by dropout, a residual
connection, layer norm, and a position-wise feed-forward block with GELU
and 4x expansion. That block and the fusion MLP are each one
`nncore.feed_forward` node, which keeps the hidden pre-activation and Phi
but not the GELU output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nncore as nc
from .errors import ConfigError, ShapeMismatch
from .nncore import Tensor


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 128        # shared token embedding size
    fusion_dim: int = 256       # fused feature size
    heads: int = 4
    layers: int = 2
    dropout: float = 0.1
    positional: bool = True
    mel_bands: int = 128
    coch_channels: int = 84
    frame_count: int = 87
    n_classes: int = 2
    ffn_expand: int = 4
    cross_attention: bool = True   # off: views are encoded independently

    def __post_init__(self):
        for name in ("embed_dim", "fusion_dim", "heads", "mel_bands", "coch_channels", "frame_count",
                     "n_classes", "ffn_expand"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.layers < 0:
            raise ConfigError(f"layers must not be negative, got {self.layers}")
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} is not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")


@dataclass
class TokenSet:
    h_mel: Tensor   # [B, N_mel, D]
    h_coch: Tensor  # [B, N_coch, D]


@dataclass
class BranchOutputs:
    z_mel: Tensor
    z_coch: Tensor
    z_fuse: Tensor
    logits_mel: Tensor | None = None
    logits_coch: Tensor | None = None
    logits_fuse: Tensor | None = None


class FeedForward:
    def __init__(self, dim: int, expand: int, rng, dtype):
        self.w1, self.b1 = nc.init_linear_params(dim * expand, dim, rng, dtype)
        self.w2, self.b2 = nc.init_linear_params(dim, dim * expand, rng, dtype)

    def parameters(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def __call__(self, x: Tensor) -> Tensor:
        return nc.feed_forward(x, self.w1, self.b1, self.w2, self.b2)


class CrossDirection:
    """One attention direction plus its residual/norm/FFN stack."""

    def __init__(self, dim: int, heads: int, expand: int, rng, dtype):
        self.attn = nc.MultiHeadAttention(dim, heads, rng, dtype)
        self.ln1_g, self.ln1_b = nc.init_layer_norm_params(dim, dtype)
        self.ffn = FeedForward(dim, expand, rng, dtype)
        self.ln2_g, self.ln2_b = nc.init_layer_norm_params(dim, dtype)

    def parameters(self):
        params = {f"attn.{k}": v for k, v in self.attn.parameters().items()}
        params.update({f"ffn.{k}": v for k, v in self.ffn.parameters().items()})
        params.update({"ln1.g": self.ln1_g, "ln1.b": self.ln1_b, "ln2.g": self.ln2_g, "ln2.b": self.ln2_b})
        return params

    def __call__(self, own: Tensor, other: Tensor, p_drop: float, rng, training: bool) -> Tensor:
        attended = self.attn(own, other, other)
        h = nc.layer_norm(nc.add(own, nc.dropout(attended, p_drop, rng, training)), self.ln1_g, self.ln1_b)
        out = nc.layer_norm(nc.add(h, nc.dropout(self.ffn(h), p_drop, rng, training)), self.ln2_g, self.ln2_b)
        return out


class CrossViewLayer:
    def __init__(self, dim: int, heads: int, expand: int, rng, dtype):
        self.mel_from_coch = CrossDirection(dim, heads, expand, rng, dtype)
        self.coch_from_mel = CrossDirection(dim, heads, expand, rng, dtype)

    def parameters(self):
        params = {f"mel_from_coch.{k}": v for k, v in self.mel_from_coch.parameters().items()}
        params.update({f"coch_from_mel.{k}": v for k, v in self.coch_from_mel.parameters().items()})
        return params

    def __call__(self, tokens: TokenSet, p_drop: float, rng, training: bool) -> TokenSet:
        # both directions read the same input tokens; no sequential dependence
        new_mel = self.mel_from_coch(tokens.h_mel, tokens.h_coch, p_drop, rng, training)
        new_coch = self.coch_from_mel(tokens.h_coch, tokens.h_mel, p_drop, rng, training)
        return TokenSet(h_mel=new_mel, h_coch=new_coch)


class DualViewModel:
    """Full encoder plus heads; parameters live in a flat name -> Tensor map."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        d = cfg.embed_dim

        self.mel_proj_w, self.mel_proj_b = nc.init_linear_params(d, cfg.mel_bands, rng, dtype)
        self.coch_proj_w, self.coch_proj_b = nc.init_linear_params(d, cfg.coch_channels, rng, dtype)

        if cfg.positional:
            self.pos_mel = Tensor(rng.normal(0.0, 0.02, size=(cfg.frame_count, d)).astype(dtype), requires_grad=True)
            self.pos_coch = Tensor(rng.normal(0.0, 0.02, size=(cfg.frame_count, d)).astype(dtype), requires_grad=True)
        else:
            self.pos_mel = self.pos_coch = None

        self.cross_layers = []
        if cfg.cross_attention:
            self.cross_layers = [
                CrossViewLayer(d, cfg.heads, cfg.ffn_expand, rng, dtype) for _ in range(cfg.layers)
            ]

        self.fuse_w1, self.fuse_b1 = nc.init_linear_params(cfg.fusion_dim, 2 * d, rng, dtype)
        self.fuse_w2, self.fuse_b2 = nc.init_linear_params(cfg.fusion_dim, cfg.fusion_dim, rng, dtype)

        self.head_mel_w, self.head_mel_b = nc.init_linear_params(cfg.n_classes, d, rng, dtype)
        self.head_coch_w, self.head_coch_b = nc.init_linear_params(cfg.n_classes, d, rng, dtype)
        self.head_fuse_w, self.head_fuse_b = nc.init_linear_params(cfg.n_classes, cfg.fusion_dim, rng, dtype)

    def parameters(self) -> dict[str, Tensor]:
        params = {
            "mel_proj.w": self.mel_proj_w, "mel_proj.b": self.mel_proj_b,
            "coch_proj.w": self.coch_proj_w, "coch_proj.b": self.coch_proj_b,
        }
        if self.pos_mel is not None:
            params["pos.mel"] = self.pos_mel
            params["pos.coch"] = self.pos_coch
        for i, layer in enumerate(self.cross_layers):
            params.update({f"layer{i}.{k}": v for k, v in layer.parameters().items()})
        params.update({
            "fuse.w1": self.fuse_w1, "fuse.b1": self.fuse_b1,
            "fuse.w2": self.fuse_w2, "fuse.b2": self.fuse_b2,
            "head_mel.w": self.head_mel_w, "head_mel.b": self.head_mel_b,
            "head_coch.w": self.head_coch_w, "head_coch.b": self.head_coch_b,
            "head_fuse.w": self.head_fuse_w, "head_fuse.b": self.head_fuse_b,
        })
        return params

    # -- forward pieces ---------------------------------------------------

    def tokenize_views(self, mel_batch, coch_batch) -> TokenSet:
        """[B, bands, frames] arrays -> per-frame tokens [B, frames, D]."""
        mel_batch = np.asarray(mel_batch, dtype=self.dtype)
        coch_batch = np.asarray(coch_batch, dtype=self.dtype)
        if mel_batch.ndim != 3 or mel_batch.shape[1] != self.cfg.mel_bands:
            raise ShapeMismatch(f"mel batch must be [B, {self.cfg.mel_bands}, F], got {mel_batch.shape}")
        if coch_batch.ndim != 3 or coch_batch.shape[1] != self.cfg.coch_channels:
            raise ShapeMismatch(f"coch batch must be [B, {self.cfg.coch_channels}, F], got {coch_batch.shape}")

        mel_tokens = Tensor(np.swapaxes(mel_batch, 1, 2))
        coch_tokens = Tensor(np.swapaxes(coch_batch, 1, 2))
        h_mel = nc.linear(mel_tokens, self.mel_proj_w, self.mel_proj_b)
        h_coch = nc.linear(coch_tokens, self.coch_proj_w, self.coch_proj_b)
        if self.pos_mel is not None:
            if h_mel.shape[1] != self.cfg.frame_count or h_coch.shape[1] != self.cfg.frame_count:
                raise ShapeMismatch(
                    f"positional embeddings sized for {self.cfg.frame_count} frames, "
                    f"got {h_mel.shape[1]}/{h_coch.shape[1]}"
                )
            h_mel = nc.add(h_mel, self.pos_mel)
            h_coch = nc.add(h_coch, self.pos_coch)
        return TokenSet(h_mel=h_mel, h_coch=h_coch)

    def encode(self, tokens: TokenSet, rng=None, training: bool = False) -> BranchOutputs:
        """Cross-view layers, mean pooling over tokens, then fusion."""
        for layer in self.cross_layers:
            tokens = layer(tokens, self.cfg.dropout, rng, training)
        z_mel = nc.tmean(tokens.h_mel, axis=1)
        z_coch = nc.tmean(tokens.h_coch, axis=1)
        joint = nc.concat([z_mel, z_coch], axis=-1)
        z_fuse = nc.feed_forward(joint, self.fuse_w1, self.fuse_b1, self.fuse_w2, self.fuse_b2)
        return BranchOutputs(z_mel=z_mel, z_coch=z_coch, z_fuse=z_fuse)

    def classify(self, outputs: BranchOutputs) -> BranchOutputs:
        outputs.logits_mel = nc.linear(outputs.z_mel, self.head_mel_w, self.head_mel_b)
        outputs.logits_coch = nc.linear(outputs.z_coch, self.head_coch_w, self.head_coch_b)
        outputs.logits_fuse = nc.linear(outputs.z_fuse, self.head_fuse_w, self.head_fuse_b)
        return outputs

    def forward(self, mel_batch, coch_batch, rng=None, training: bool = False) -> BranchOutputs:
        tokens = self.tokenize_views(mel_batch, coch_batch)
        return self.classify(self.encode(tokens, rng=rng, training=training))
