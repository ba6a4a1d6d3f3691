"""Dual-view encoder: per-frame tokenisation of both views, stacked
bidirectional cross-attention layers, mean pooling, fusion, and three
classification heads.

Each time frame is one token whose feature vector is that frame's frequency
column; both views are projected into a shared embedding space. Every
cross-view layer computes both attention directions from the same input
tokens (simultaneous update), each followed by dropout, a residual
connection, layer norm, and a position-wise feed-forward block with GELU
and 4x expansion. That block and the fusion MLP are each a `FeedForward`
part, one `nncore.feed_forward` node, which keeps the hidden pre-activation
and Phi but not the GELU output.

Every part is an `nncore.Module`, so the model's parameter names and their
order follow from its attributes: `mel_proj.w`, `layer0.mel_from_coch.attn.wq`,
`fuse.w1`, `head_fuse.b`. That order is the checkpoint's `PARM` order and the
order in which gradient clipping sums.
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


class FeedForward(nc.Module):
    """Linear, GELU, linear: d_in -> d_hidden -> d_out."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, rng, dtype):
        self.w1, self.b1 = nc.init_linear_params(d_hidden, d_in, rng, dtype)
        self.w2, self.b2 = nc.init_linear_params(d_out, d_hidden, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return nc.feed_forward(x, self.w1, self.b1, self.w2, self.b2)


class CrossDirection(nc.Module):
    """One attention direction plus its residual/norm/FFN stack."""

    def __init__(self, dim: int, heads: int, expand: int, rng, dtype):
        # set in the checkpoint's parameter order; the layer norms draw no random numbers
        self.attn = nc.MultiHeadAttention(dim, heads, rng, dtype)
        self.ffn = FeedForward(dim, dim * expand, dim, rng, dtype)
        self.ln1_g, self.ln1_b = nc.init_layer_norm_params(dim, dtype)
        self.ln2_g, self.ln2_b = nc.init_layer_norm_params(dim, dtype)

    def __call__(self, own: Tensor, other: Tensor, p_drop: float, rng, training: bool) -> Tensor:
        attended = self.attn(own, other, other)
        h = nc.layer_norm(nc.add(own, nc.dropout(attended, p_drop, rng, training)), self.ln1_g, self.ln1_b)
        out = nc.layer_norm(nc.add(h, nc.dropout(self.ffn(h), p_drop, rng, training)), self.ln2_g, self.ln2_b)
        return out


class CrossViewLayer(nc.Module):
    def __init__(self, dim: int, heads: int, expand: int, rng, dtype):
        self.mel_from_coch = CrossDirection(dim, heads, expand, rng, dtype)
        self.coch_from_mel = CrossDirection(dim, heads, expand, rng, dtype)

    def __call__(self, tokens: TokenSet, p_drop: float, rng, training: bool) -> TokenSet:
        # both directions read the same input tokens; no sequential dependence
        new_mel = self.mel_from_coch(tokens.h_mel, tokens.h_coch, p_drop, rng, training)
        new_coch = self.coch_from_mel(tokens.h_coch, tokens.h_mel, p_drop, rng, training)
        return TokenSet(h_mel=new_mel, h_coch=new_coch)


class DualViewModel(nc.Module):
    """Full encoder plus heads."""

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

        self.fuse = FeedForward(2 * d, cfg.fusion_dim, cfg.fusion_dim, rng, dtype)

        self.head_mel_w, self.head_mel_b = nc.init_linear_params(cfg.n_classes, d, rng, dtype)
        self.head_coch_w, self.head_coch_b = nc.init_linear_params(cfg.n_classes, d, rng, dtype)
        self.head_fuse_w, self.head_fuse_b = nc.init_linear_params(cfg.n_classes, cfg.fusion_dim, rng, dtype)

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
        return BranchOutputs(z_mel=z_mel, z_coch=z_coch, z_fuse=self.fuse(joint))

    def classify(self, outputs: BranchOutputs) -> BranchOutputs:
        outputs.logits_mel = nc.linear(outputs.z_mel, self.head_mel_w, self.head_mel_b)
        outputs.logits_coch = nc.linear(outputs.z_coch, self.head_coch_w, self.head_coch_b)
        outputs.logits_fuse = nc.linear(outputs.z_fuse, self.head_fuse_w, self.head_fuse_b)
        return outputs

    def forward(self, mel_batch, coch_batch, rng=None, training: bool = False) -> BranchOutputs:
        tokens = self.tokenize_views(mel_batch, coch_batch)
        return self.classify(self.encode(tokens, rng=rng, training=training))
