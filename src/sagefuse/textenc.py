"""Tokenizer, prompt prefixing, and a small frozen transformer encoder.

The backbone is a randomly initialized pre-norm transformer standing in
for a pretrained 12-layer model: the adapter mechanics depend on the
architecture shape, not on pretrained weights. It is frozen in both
phases; only adapters, LoRA pairs, and heads ever train.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .fusion import fusion_apply, lora_apply
from .schema import ConfigError, check_declared, one_of, ranged

PAD_ID, UNK_ID, CLS_ID = 0, 1, 2
# Rows per piece of every no-grad pass over the node table (`row_pieces`).
# A 2-D product's bits (the head's, a fusion adapter's) depend on its row
# count, so changing this can move metrics.
ENCODE_BATCH = 64
RESERVED = {"<pad>": PAD_ID, "<unk>": UNK_ID, "<cls>": CLS_ID}

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class VocabError(ValueError):
    pass


def split_tokens(text):
    """Lowercased whitespace/punctuation tokenization."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    token_to_id: dict

    @property
    def size(self):
        return len(self.token_to_id) + len(RESERVED)

    def id_of(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def encode(self, text):
        return [self.id_of(t) for t in split_tokens(text)]

    def to_dict(self):
        return dict(self.token_to_id)

    @classmethod
    def from_dict(cls, d):
        return cls(token_to_id={k: int(v) for k, v in d.items()})


def build_vocab(graph, split="train", max_size=8192):
    """Most-frequent tokens from the given split's texts only (no leakage);
    frequency ties break lexicographically."""
    counts = Counter()
    for v in graph.split_ids(split).tolist():
        counts.update(split_tokens(graph.texts[v]))
    if not counts:
        raise VocabError(f"no word tokens in the texts of split {split!r}")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    base = len(RESERVED)
    return Vocabulary(token_to_id={tok: base + i for i, (tok, _) in
                                   enumerate(ranked)})


def tokenize_graph(graph, vocab, prompt, seq_len):
    """Every node's text as one row of (N, L*) ids and mask: [CLS] + the
    ids of the `prompt` string + text ids, truncated to seq_len and
    PAD-padded to L*, the longest row of the whole table. No column is
    padding in every row, and L* depends on the table alone, so a row's
    encoder bits never depend on which rows later share its batch. The
    prompt is encoded once."""
    if seq_len < 4:
        raise VocabError(f"seq_len {seq_len} < 4")
    head = [CLS_ID] + vocab.encode(prompt)
    rows = []
    for text in graph.texts:
        text_ids = vocab.encode(text)
        if len(head) >= seq_len and text_ids:
            warnings.warn("prompt fills the whole token budget; node text "
                          "contributes zero tokens", stacklevel=2)
        rows.append((head + text_ids)[:seq_len])
    width = max(map(len, rows))
    ids = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(rows), width))
    for v, row in enumerate(rows):
        ids[v, :len(row)] = row
        mask[v, :len(row)] = 1.0
    return ids, mask


@dataclass
class BackboneConfig:
    """The [backbone] section: shape, init seed and precision of the frozen
    encoder. The vocabulary size comes from the phase-1 vocab; `config`
    also requires `heads` to divide `dim`."""
    layers: int = ranged(12, "[2, inf)")
    dim: int = ranged(64, "[1, inf)")
    heads: int = ranged(4, "[1, inf)")
    mlp_width: int = ranged(256, "[1, inf)")
    max_tokens: int = ranged(128, "[1, inf)")
    vocab_max: int = ranged(8192, "[1, inf)")
    seed: int = ranged(0, "[0, inf)")
    fused_qkv: bool = False   # audit-only shape variant (fused qkv projection)
    precision: str = one_of("f32", ("f32", "f64"))

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32

    def param_count(self, vocab_size):
        """Scalars of the encoder over a token table of `vocab_size` rows,
        counted from the shape alone. A fused qkv matrix holds as many
        scalars as separate q, k and v projections."""
        d, m = self.dim, self.mlp_width
        per_layer = 4 * (d * d + d) + 2 * 2 * d + (d * m + m) + (m * d + d)
        return (vocab_size + self.max_tokens) * d + self.layers * per_layer \
            + 2 * d

    def weight_shapes(self, vocab_size):
        """The shapes of the drawn encoder weights over a token table of
        `vocab_size` rows, in draw order: the token and position tables,
        then q, k, v, o, mlp1 and mlp2 of each block. The biases and
        layernorm gains are the rest of `param_count`."""
        d, m = self.dim, self.mlp_width
        block = [(d, d)] * 4 + [(m, d), (d, m)]
        return [(vocab_size, d), (self.max_tokens, d), *block * self.layers]

    def lora_target_shapes(self):
        """(d_in, d_out) per adapted projection within one layer: q, k, v
        and o, or with `fused_qkv` one (d, 3d) pair for q, k and v."""
        d = self.dim
        if self.fused_qkv:
            return [(d, 3 * d), (d, d)]
        return [(d, d)] * 4


def _draw_into(views, seed):
    """Fill each array of `views` in turn with normal(0, 0.02) draws from
    `seed`: the random sequence and bits of drawing each weight alone, with
    no float64 temporary of the whole backbone."""
    rng = np.random.default_rng(seed)
    for view in views:
        view[...] = rng.normal(0.0, 0.02, view.shape)


class EncoderBackbone:
    """Pre-norm transformer encoder whose weights are plain arrays:
    constants to every autodiff op, so nothing in it ever trains.

    Init: normal(0, 0.02) embeddings and projections, zero biases, unit
    layernorm gains, fixed per seed. The drawn weights are views into one
    flat array of the config dtype, `weights`, laid out as
    `config.weight_shapes(vocab_size)`. Phase 1 draws it and saves it; the
    commands after phase 1 pass the saved array as `weights`, and the
    backbone takes views of it instead of drawing again.
    """

    def __init__(self, config, vocab_size, weights=None):
        self.config = check_declared(config, "backbone")
        if config.fused_qkv:  # its audit counts would not match the weights
            raise ConfigError("fused_qkv is an audit-only shape; the encoder "
                              "builds separate q, k and v projections")
        d, m, dt = config.dim, config.mlp_width, config.dtype
        shapes = config.weight_shapes(vocab_size)
        bounds = [0, *itertools.accumulate(map(math.prod, shapes))]
        drawn = weights is None
        self.weights = np.empty(bounds[-1], dt) if drawn else weights
        if self.weights.shape != (bounds[-1],) or self.weights.dtype != dt:
            raise ValueError(f"backbone weights {weights.shape} "
                             f"{weights.dtype}, expected ({bounds[-1]},) "
                             f"{np.dtype(dt)}")
        views = [self.weights[lo:hi].reshape(shape)
                 for lo, hi, shape in zip(bounds, bounds[1:], shapes)]
        if drawn:
            _draw_into(views, config.seed)
        views = iter(views)

        def zeros(n):
            return np.zeros(n, dtype=dt)

        def ones(n):
            return np.ones(n, dtype=dt)

        self.tok_emb = next(views)
        self.pos_emb = next(views)
        self.blocks = []
        for _ in range(config.layers):
            self.blocks.append({
                "ln1_g": ones(d), "ln1_b": zeros(d),
                "q": next(views), "q_b": zeros(d),
                "k": next(views), "k_b": zeros(d),
                "v": next(views), "v_b": zeros(d),
                "o": next(views), "o_b": zeros(d),
                "ln2_g": ones(d), "ln2_b": zeros(d),
                "mlp1": next(views), "mlp1_b": zeros(m),
                "mlp2": next(views), "mlp2_b": zeros(d),
            })
        self.ln_f_g = ones(d)
        self.ln_f_b = zeros(d)


def _proj(x, w, b, pair):
    if pair is None:
        return ad.linear(x, w, b)
    return lora_apply(pair, w, x, bias=b)


def embed(backbone, ids):
    """The (N, T, d) input of layer 0 for token ids (N, T): token plus
    position embeddings."""
    ids = np.atleast_2d(np.asarray(ids))
    seq = ids.shape[1]
    if seq > backbone.config.max_tokens:
        raise VocabError(f"sequence length {seq} exceeds max_tokens "
                         f"{backbone.config.max_tokens}")
    return backbone.tok_emb[ids] + backbone.pos_emb[:seq]


def encode(backbone, states, mask, start=0, stop=None, adapters=None,
           node_embeddings=None, lora=None):
    """Run the hidden states (B, T, d) at the input of layer `start` through
    layers start..stop-1, with attention masking of PADs; returns the states
    at the input of layer `stop` (by default after the last layer), before
    the closing layernorm that `readout` applies.

    `adapters` maps layer index to the FusionAdapter applied to that
    layer's input; `node_embeddings` maps adapter source name to the batch's
    (B, g) rows. `lora` maps layer index to {target: LoraPair} for targets
    q/k/v/o. Every adapter and LoRA layer must lie in [start, stop), the
    layers this pass runs.
    """
    cfg = backbone.config
    mask = np.atleast_2d(np.asarray(mask))
    bsz, seq = mask.shape
    end = cfg.layers if stop is None else stop
    if not 0 <= start <= end <= cfg.layers:
        raise VocabError(f"layer range [{start}, {end}) not within the "
                         f"backbone's {cfg.layers} layers")
    adapters = adapters or {}
    lora = lora or {}
    for layer in (*adapters, *lora):
        if not start <= layer < end:
            raise VocabError(f"adapted layer {layer} lies outside the "
                             f"encoded layers [{start}, {end})")
    heads, dh = cfg.heads, cfg.dim // cfg.heads
    # Additive key mask: padded positions get a large negative score bias.
    neg = np.asarray(-1e9, dtype=cfg.dtype)
    mask_bias = ((1.0 - mask) * neg).reshape(bsz, 1, 1, seq).astype(cfg.dtype)

    x = states
    for l in range(start, end):
        blk = backbone.blocks[l]
        if l in adapters:
            adapter = adapters[l]
            x = fusion_apply(adapter, x, node_embeddings[adapter.source])
        pairs = lora.get(l, {})
        a = ad.layernorm(x, blk["ln1_g"], blk["ln1_b"])
        q = _proj(a, blk["q"], blk["q_b"], pairs.get("q"))
        k = _proj(a, blk["k"], blk["k_b"], pairs.get("k"))
        v = _proj(a, blk["v"], blk["v_b"], pairs.get("v"))

        def split_heads(t):
            return ad.transpose(ad.reshape(t, (bsz, seq, heads, dh)),
                                (0, 2, 1, 3))

        att = ad.attention(split_heads(q), split_heads(k), split_heads(v),
                           mask_bias=mask_bias)
        att = ad.reshape(ad.transpose(att, (0, 2, 1, 3)), (bsz, seq, cfg.dim))
        x = ad.add(x, _proj(att, blk["o"], blk["o_b"], pairs.get("o")))
        h = ad.layernorm(x, blk["ln2_g"], blk["ln2_b"])
        h = ad.linear(ad.linear(h, blk["mlp1"], blk["mlp1_b"], relu=True),
                      blk["mlp2"], blk["mlp2_b"])
        x = ad.add(x, h)
    return x


def readout(backbone, hidden, mask):
    """Per-node features (B, d) from the final hidden states (B, T, d): the
    closing layernorm, then the mean over unmasked positions."""
    x = ad.layernorm(hidden, backbone.ln_f_g, backbone.ln_f_b)
    m = np.asarray(mask)
    weights = (m / m.sum(axis=1, keepdims=True))[..., None]
    return ad.sum_(ad.mul(x, weights.astype(ad.val(x).dtype)), axis=1)


def row_pieces(n, size=ENCODE_BATCH):
    """The row slices of every pass over n rows, `size` rows each in order:
    `ENCODE_BATCH` in the no-grad passes (`prefix_states`, `node_features`,
    `trainer.predict_logits`), the minibatch size in phase-2 training. A
    lone last row joins the piece before it unless `size` is 1: a one-row
    2-D product (the head's, a fusion adapter's on the node embeddings)
    takes another BLAS path, and its bits would differ from the same row's
    in a larger piece. A frozen encoder row's bits do not depend on its
    piece, so the join moves no prefix state or feature."""
    stop = n - 1 if size > 1 else n
    bounds = [0, *range(size, stop, size), n]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def prefix_states(backbone, states, mask, start, stop):
    """The hidden states (N, T, d) at the input of layer `stop`, from the
    `states` at the input of layer `start`; T is the width of the (N, T)
    `mask`, L* for a `tokenize_graph` table. They are computed one
    `row_pieces` piece at a time into one preallocated array. Nothing below
    an adapted layer trains, so these states are a fixed function of the
    tokens and later passes can start `encode` from them."""
    out = np.empty_like(states)
    with ad.no_grad():
        for sl in row_pieces(len(mask)):
            out[sl] = encode(backbone, states[sl], mask[sl], start, stop)
    return out


def node_features(backbone, ids, mask, layer):
    """Per-node features under the frozen backbone, and the prefix states
    they pass through.

    Returns (X, states) for the tokenized texts (ids, mask) of width T (L*
    from `tokenize_graph`): X (N, d) holds the `readout` of each row's final
    hidden states, and states (N, T, d) the hidden states at the input of
    `layer`. Both are filled one `row_pieces` piece at a time."""
    cfg = backbone.config
    states = np.empty(mask.shape + (cfg.dim,), dtype=cfg.dtype)
    x = np.empty((len(mask), cfg.dim), dtype=cfg.dtype)
    with ad.no_grad():
        for sl in row_pieces(len(mask)):
            states[sl] = encode(backbone, embed(backbone, ids[sl]), mask[sl],
                                0, layer)
            x[sl] = readout(backbone, encode(backbone, states[sl], mask[sl],
                                             layer), mask[sl])
    return x, states
