"""Gated low-rank fusion adapters, per-projection LoRA pairs, and the
analytic trainable-parameter audit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter


PASS1, PASS2 = "pass1", "pass2"
LORA_TARGETS = ("q", "k", "v", "o")
# The phase-2 arms: whether each trains (fusion adapters, LoRA pairs).
ARMS = {"fused": (True, True), "text_only": (False, False),
        "lora_only": (False, True)}


class LoraPair:
    """Additive low-rank delta on one frozen projection: W + B @ A.

    B starts at zero so the initial delta is exactly zero and the frozen
    weight dominates.
    """

    def __init__(self, d_in, d_out, rank, target, seed=0, dtype=np.float64):
        rng = np.random.default_rng(seed)
        self.a = Parameter(rng.normal(0.0, 0.02, (rank, d_in)).astype(dtype),
                           name=f"lora.{target}.a")
        self.b = Parameter(np.zeros((d_out, rank), dtype=dtype),
                           name=f"lora.{target}.b")

    def parameters(self):
        return [self.a, self.b]


def lora_apply(pair, frozen_w, x, bias=None):
    """x @ (W + B @ A)^T (+ bias) for the frozen weight array W, as the sum
    of the frozen projection and the low-rank path x @ A^T @ B^T; W itself
    is never touched."""
    return ad.add(ad.linear(x, frozen_w, bias),
                  ad.linear(ad.linear(x, pair.a), pair.b))


class FusionAdapter:
    """One gated low-rank fusion block on a layer input.

    The text hidden states and the broadcast structural embedding are each
    projected to rank r, blended by a learnable sigmoid gate, and projected
    back to width d, then added to the hidden states.

    With `tie=(a_param, b_param)` the down/up projections alias an existing
    LoRA pair's factors instead of owning separate W_A/W_C matrices.
    """

    def __init__(self, layer_index, source, rank, d, g, seed=0,
                 tie=None, dtype=np.float64):
        rng = np.random.default_rng(seed)
        self.source = source
        self.rank = rank
        self.tied = tie is not None
        prefix = f"fusion.layer{layer_index}"
        if tie is None:
            self.w_a = Parameter(rng.normal(0.0, 0.02, (rank, d)).astype(dtype),
                                 name=f"{prefix}.w_a")
            self.w_c = Parameter(np.zeros((d, rank), dtype=dtype),
                                 name=f"{prefix}.w_c")
        else:
            a, c = tie
            if a.shape != (rank, d) or c.shape != (d, rank):
                raise ad.ShapeError("tied projections", (a.shape, c.shape),
                                    ((rank, d), (d, rank)))
            self.w_a, self.w_c = a, c
        self.w_b = Parameter(rng.normal(0.0, 0.02, (rank, g)).astype(dtype),
                             name=f"{prefix}.w_b")
        self.gate_logit = Parameter(np.zeros((), dtype=dtype),
                                    name=f"{prefix}.gate_logit")

    def parameters(self):
        own = [self.w_b, self.gate_logit]
        if not self.tied:
            own = [self.w_a, self.w_c] + own
        return own


def fusion_apply(adapter, h1, h2):
    """Fuse hidden states h1 (B, T, d) with per-node embeddings h2 (B, g).

    h2 is broadcast across all T token positions (padded ones included).
    Returns h1 + Z, where Z = W_C @ (alpha * W_A h1 + (1 - alpha) * W_B h2),
    so a zero W_C is an exact identity.
    """
    vh1, vh2 = ad.val(h1), np.asarray(h2)
    d = adapter.w_a.shape[1]
    g = adapter.w_b.shape[1]
    if vh1.shape[-1] != d:
        raise ad.ShapeError("fusion_apply hidden states", vh1.shape, (..., d))
    if vh2.shape[-1] != g:
        raise ad.ShapeError("fusion_apply embeddings", vh2.shape, (..., g))
    alpha = ad.sigmoid(adapter.gate_logit)
    text_part = ad.linear(h1, adapter.w_a)
    struct_part = ad.reshape(ad.linear(h2, adapter.w_b),
                             (vh2.shape[0], 1, adapter.rank))
    fused = ad.add(ad.mul(alpha, text_part),
                   ad.mul(ad.sub(1.0, alpha), struct_part))
    return ad.add(h1, ad.linear(fused, adapter.w_c))


def default_placement(num_layers):
    """Scale the 12-layer placement (pass1 at 5,6,7; pass2 at 9,10,11)
    proportionally: middle third and upper third."""
    pass1 = sorted({num_layers * k // 12 for k in (5, 6, 7)})
    pass2 = sorted({num_layers * k // 12 for k in (9, 10, 11)})
    return pass1, pass2


def build_adapter_set(pass1_layers, pass2_layers, rank, d, g, seed=0,
                      tie_pairs=None, dtype=np.float64):
    """{layer: FusionAdapter}, one adapter per listed layer in ascending
    order; the placement is taken as given (`config` checks it). `tie_pairs`
    optionally maps layer index to a LoraPair whose factors the adapter
    reuses as W_A/W_C."""
    adapters = {}
    for source, layers in ((PASS1, pass1_layers), (PASS2, pass2_layers)):
        for layer in sorted(layers):
            tie = None
            if tie_pairs and layer in tie_pairs:
                pair = tie_pairs[layer]
                tie = (pair.a, pair.b)
            adapters[layer] = FusionAdapter(
                layer_index=layer, source=source, rank=rank, d=d, g=g,
                seed=[seed, layer], tie=tie, dtype=dtype)
    return adapters


# ---------------------------------------------------------------------------
# parameter audit

@dataclass
class ParamAudit:
    """Exact trainable-parameter counts by component.

    `phase2_trainable` covers the adapter stack (fusion + LoRA + head);
    `total_trainable` additionally includes the phase-1 GNN. The relative
    fraction is total trainable over the frozen backbone size.
    """
    gnn: int
    fusion: int
    lora_pairs: int
    classifier_head: int
    backbone_total: int

    @property
    def phase2_trainable(self):
        return self.fusion + self.lora_pairs + self.classifier_head

    @property
    def total_trainable(self):
        return self.gnn + self.phase2_trainable

    @property
    def relative_fraction(self):
        return self.total_trainable / self.backbone_total

    def as_dict(self):
        return {
            "gnn": self.gnn,
            "fusion": self.fusion,
            "lora_pairs": self.lora_pairs,
            "classifier_head": self.classifier_head,
            "phase2_trainable": self.phase2_trainable,
            "total_trainable": self.total_trainable,
            "backbone_total": self.backbone_total,
            "relative_fraction": self.relative_fraction,
        }

    def table(self):
        rows = [("gnn (phase-1)", self.gnn),
                ("fusion adapters", self.fusion),
                ("lora pairs", self.lora_pairs),
                ("classifier head", self.classifier_head),
                ("phase-2 trainable", self.phase2_trainable),
                ("total trainable", self.total_trainable),
                ("backbone (frozen)", self.backbone_total)]
        width = max(len(r[0]) for r in rows)
        lines = [f"{name:<{width}}  {count:>12,}" for name, count in rows]
        lines.append(f"{'relative to backbone':<{width}}  "
                     f"{100.0 * self.relative_fraction:>11.4f}%")
        return "\n".join(lines)


def audit_from_shapes(backbone, vocab_size, adapted_layers, rank, g,
                      num_classes, gnn_hidden, arm="fused",
                      fusion_tying="separate"):
    """Analytic audit of the `ARMS` entry `arm` for the encoder described by
    the `BackboneConfig` `backbone` over a token table of `vocab_size` rows,
    with a phase-1 GNN of width g over its d-wide features and a classifier
    of width `gnn_hidden`.

    Mirrors exactly what a live assembly registry would report: used both
    for desk configurations (cross-checked against the registry walk in
    tests) and for backbones too large to instantiate.
    """
    fusion_on, lora_on = ARMS[arm]
    d = backbone.dim
    # The SageModel: two concat-mean layers of width g, then the classifier.
    h = gnn_hidden
    gnn = (g * 2 * d + g) + (g * 2 * g + g) + (h * g + h) \
        + (num_classes * h + num_classes)

    lora = 0
    if lora_on:
        per_layer = sum(rank * (d_in + d_out) for d_in, d_out
                        in backbone.lora_target_shapes())
        lora = len(adapted_layers) * per_layer

    fusion = 0
    if fusion_on:
        if fusion_tying == "shared":
            # W_B and the gate; W_A/W_C alias the arm's LoRA pairs.
            per_adapter = rank * g + 1
        else:
            per_adapter = rank * d + rank * g + d * rank + 1
        fusion = len(adapted_layers) * per_adapter

    head = num_classes * d + num_classes
    return ParamAudit(gnn=gnn, fusion=fusion, lora_pairs=lora,
                      classifier_head=head,
                      backbone_total=backbone.param_count(vocab_size))
