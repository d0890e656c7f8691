import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

# One line per acceptance criterion, echoed after the test summary so the
# pass/fail verdicts stay visible under pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from sagefuse import autodiff as ad
from sagefuse.autodiff import NumericsError, ShapeError
from sagefuse.fusion import ParamAudit, audit_from_shapes
from sagefuse.tag import (SPLITS, GeneratorParams, GraphFormatError,
                          SplitSpec, TextAttributedGraph, csr_adjacency,
                          generate_synthetic_tag, stratified_split)
from sagefuse.textenc import PAD_ID, BackboneConfig, embed, tokenize_graph
from sagefuse.trainer import Phase2Inputs

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


# GPT-2 (124M parameters), whose query/key/value projection is one fused
# matrix; configs/gpt2_audit.cfg describes the same backbone.
GPT2_BACKBONE = BackboneConfig(layers=12, dim=768, heads=12, mlp_width=3072,
                               max_tokens=1024, vocab_max=50257,
                               fused_qkv=True)


def gpt2_audit(**kwargs):
    """`audit_from_shapes` of `GPT2_BACKBONE` over its whole vocabulary;
    g, the GNN classifier width and the class count default to 64, 64, 2."""
    kwargs = {"g": 64, "gnn_hidden": 64, "num_classes": 2, **kwargs}
    return audit_from_shapes(GPT2_BACKBONE, GPT2_BACKBONE.vocab_max, **kwargs)


def make_graph(adjacency, labels=None, texts=None, num_classes=None,
               splits=None):
    """Hand-rolled graph from an adjacency dict {node: [neighbors]}; each
    row is sorted, nothing else is checked."""
    n = len(adjacency)
    labels = labels if labels is not None else [0] * n
    texts = texts if texts is not None else [f"node {i}" for i in range(n)]
    c = num_classes if num_classes is not None else max(labels) + 1
    rows = [sorted(adjacency[i]) for i in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    indices = np.array([v for r in rows for v in r], dtype=np.int64)
    split = (np.array([SPLITS.index(s) for s in splits], dtype=np.int8)
             if splits else None)
    return TextAttributedGraph(texts=list(texts),
                               labels=np.array(labels, dtype=np.int64),
                               indptr=indptr, indices=indices,
                               num_classes=c, split=split)


def token_inputs(graph, backbone, ids, mask, pass1, pass2):
    """The `Phase2Inputs` of `graph` tokenized as (ids, mask), at layer 0
    (the embedding output), with the structural embeddings pass1 and
    pass2."""
    return Phase2Inputs(labels=graph.labels, split=graph.split,
                        num_classes=graph.num_classes, mask=mask,
                        states=embed(backbone, ids), layer=0, pass1=pass1,
                        pass2=pass2)


def neighbors(graph, v):
    """Row v of the graph's CSR adjacency, as a list."""
    return graph.indices[graph.indptr[v]:graph.indptr[v + 1]].tolist()


def snapshot(params):
    """Copies of the parameters' values, for `restore`."""
    return [p.value.copy() for p in params]


def restore(params, values):
    for p, v in zip(params, values):
        p.value[...] = v


def backbone_arrays(backbone):
    """Every weight array of an `EncoderBackbone`: the embeddings, each
    block's weights, then the closing layernorm."""
    out = [backbone.tok_emb, backbone.pos_emb]
    for blk in backbone.blocks:
        out.extend(blk.values())
    return out + [backbone.ln_f_g, backbone.ln_f_b]


def backbone_size(backbone):
    """Scalars in the live backbone: the count the analytic
    `BackboneConfig.param_count` is checked against."""
    return sum(a.size for a in backbone_arrays(backbone))


# A general batched matmul, the last-two-axes transpose and ReLU, as the
# package defined them before every product became one `ad.linear` and the
# ReLU moved into it. The parent-op oracles build their reference chains
# from these.

def matmul(a, b, contiguous=False):
    """a @ b; with `contiguous` the product reads a C-contiguous copy of b,
    while the gradients read b as it is."""
    a, b = ad.lift(a), ad.lift(b)
    va, vb = ad.val(a), ad.val(b)
    if vb.ndim < 2 or va.shape[-1] != vb.shape[-2]:
        raise ShapeError("matmul", va.shape, vb.shape)
    out = va @ (np.ascontiguousarray(vb) if contiguous else vb)

    def ga(g):
        return ad._unbroadcast(g @ np.swapaxes(vb, -1, -2), va.shape)

    def gb(g):
        return ad._unbroadcast(np.swapaxes(va, -1, -2) @ g, vb.shape)

    return ad._node(out, [(a, ga), (b, gb)])


def transpose_last(a):
    a = ad.lift(a)
    nd = ad.val(a).ndim
    axes = list(range(nd - 2)) + [nd - 1, nd - 2]
    return ad.transpose(a, axes)


def matmul_transposed(a, w):
    """a @ w.T as a matmul by the transposed view of w. For a 3-D `a` the
    product reads a C-contiguous copy of that view, as `ad.linear`'s does."""
    a = ad.lift(a)
    return matmul(a, transpose_last(ad.lift(w)),
                  contiguous=ad.val(a).ndim > 2)


def relu(a):
    a = ad.lift(a)
    va = ad.val(a)
    out = np.maximum(va, 0)
    if not isinstance(a, ad.Node):
        return out
    mask = va > 0
    return ad._node(out, [(a, lambda g: g * mask)])


# The generator as the package defined it before its edge stream was drawn
# in numpy chunks: one edge draw per loop iteration. Texts, labels and the
# split must stay equal to its output; edges only in distribution.

def reference_generate_synthetic_tag(params):
    rng = np.random.default_rng(params.seed)
    n, c = params.n_nodes, params.num_classes

    labels = np.repeat(np.arange(c), math.ceil(n / c))[:n]
    rng.shuffle(labels)

    # Text topics: correct class with prob 1 - p_t, else a uniform wrong class.
    topics = labels.copy()
    flip = rng.random(n) < params.text_noise
    offsets = rng.integers(1, c, size=n)
    topics[flip] = (labels[flip] + offsets[flip]) % c

    v = params.topic_vocab_size
    token_ids = rng.integers(0, v, size=(n, params.text_len))
    words = topics[:, None] * v + token_ids
    texts = [" ".join(map("w{}".format, row)) for row in words.tolist()]

    by_class = [np.flatnonzero(labels == k) for k in range(c)]
    target_edges = int(round(params.avg_degree * n / 2))
    edges = set()
    attempts = 0
    max_attempts = 200 * target_edges
    while len(edges) < target_edges and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(n))
        if rng.random() < params.structure_signal:
            pool = by_class[labels[u]]
        else:
            other = (labels[u] + int(rng.integers(1, c))) % c
            pool = by_class[other]
        w = int(pool[rng.integers(len(pool))])
        if w == u:
            continue
        edges.add((min(u, w), max(u, w)))
    if len(edges) < target_edges:
        raise GraphFormatError("edge sampling failed to reach the target "
                               "edge count; parameters too constrained")

    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    indptr, indices = csr_adjacency(n, pairs[:, 0], pairs[:, 1])
    return TextAttributedGraph(texts=texts, labels=labels.astype(np.int64),
                               indptr=indptr, indices=indices,
                               num_classes=c).validate()


def random_graph(rng, n, edge_prob=0.15):
    adjacency = {i: set() for i in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                adjacency[u].add(v)
                adjacency[v].add(u)
    return make_graph({i: sorted(s) for i, s in adjacency.items()})


@pytest.fixture(scope="session")
def micro_tag():
    """Small synthetic graph with splits, shared across read-only tests."""
    graph = generate_synthetic_tag(GeneratorParams(
        n_nodes=200, num_classes=3, avg_degree=6, topic_vocab_size=20,
        text_len=8, text_noise=0.3, structure_signal=0.9, seed=7))
    return stratified_split(graph, SplitSpec(0.6, 0.2, 0.2, split_seed=0))


def pad_columns(ids, mask, width):
    """A `tokenize_graph` table (ids, mask) PAD-padded on the right to
    `width` columns: the layout at seq_len that its L* columns cut."""
    extra = ((0, 0), (0, width - ids.shape[1]))
    return (np.pad(ids, extra, constant_values=PAD_ID), np.pad(mask, extra))


def tokenize(text, prompt, vocab, seq_len):
    """One text laid out as `tokenize_graph` lays out a node's row, padded
    to seq_len: (ids, mask) of length seq_len."""
    ids, mask = pad_columns(*tokenize_graph(make_graph({0: []}, texts=[text]),
                                            vocab, prompt, seq_len), seq_len)
    return ids[0], mask[0]


def audit_parameters(registry, backbone_total):
    """`ParamAudit` from counting the scalars of a list of (component,
    Parameter) pairs: the registry walk the analytic `audit_from_shapes` is
    checked against. Phase-1 GNN weights count although they arrive frozen
    into phase 2; a tied parameter counts once, under the first component
    that registers it."""
    counts = {"gnn": 0, "fusion": 0, "lora_pairs": 0, "classifier_head": 0}
    seen = set()
    for component, p in registry:
        if id(p) not in seen:
            seen.add(id(p))
            counts[component] += p.size
    return ParamAudit(backbone_total=backbone_total, **counts)


# A finite-difference gradient checker: criterion 1 and the optimizer,
# GraphSAGE and trainer tests check analytic gradients against it.

@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    checked: int
    passed: bool


@dataclass
class GradCheckReport:
    epsilon: float
    tolerance: float
    entries: list = field(default_factory=list)

    @property
    def max_rel_error(self):
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def ok(self):
        return all(e.passed for e in self.entries)

    def summary(self):
        lines = [f"grad_check eps={self.epsilon:g} tol={self.tolerance:g}"]
        for e in self.entries:
            mark = "ok  " if e.passed else "FAIL"
            lines.append(f"  {mark} {e.name:<40s} max_rel={e.max_rel_error:.3e} "
                         f"({e.checked} scalars)")
        return "\n".join(lines)


def grad_check(params, loss_fn, epsilon=1e-5, tolerance=1e-4,
               samples_per_tensor=64, seed=0):
    """Compare analytic gradients against central differences.

    For each parameter, a deterministic subsample of at least
    `samples_per_tensor` scalars (or all of them, for small tensors) is
    perturbed by +/- epsilon and the loss re-evaluated. Requires 64-bit
    parameter values.
    """
    trainable = list(params)
    for p in trainable:
        if p.value.dtype != np.float64:
            raise NumericsError(f"grad_check requires float64, got "
                                f"{p.value.dtype} for {p.name!r}")
        p.zero_grad()
    ad.backward(loss_fn())
    analytic = {id(p): p.grad.copy() for p in trainable}

    report = GradCheckReport(epsilon=epsilon, tolerance=tolerance)
    for k, p in enumerate(trainable):
        flat = p.value.reshape(-1)
        n = flat.size
        if n <= samples_per_tensor:
            idxs = np.arange(n)
        else:
            rng = np.random.default_rng([seed, k])
            idxs = rng.choice(n, size=samples_per_tensor, replace=False)
        a_flat = analytic[id(p)].reshape(-1)
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + epsilon
            plus = float(ad.val(loss_fn()))
            flat[i] = orig - epsilon
            minus = float(ad.val(loss_fn()))
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * epsilon)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
            worst = max(worst, rel)
        report.entries.append(GradCheckEntry(
            name=p.name, max_rel_error=worst, checked=len(idxs),
            passed=worst < tolerance))
    return report
