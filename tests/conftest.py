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

from sagefuse.fusion import BackboneShape, ParamAudit
from sagefuse.tag import (SPLITS, GeneratorParams, SplitSpec,
                          TextAttributedGraph, generate_synthetic_tag,
                          stratified_split)
from sagefuse.textenc import tokenize_graph

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


# GPT-2 (124M parameters), whose query/key/value projection is one fused
# matrix; configs/gpt2_audit.cfg describes the same backbone.
GPT2_SHAPE = BackboneShape(vocab_size=50257, max_tokens=1024, dim=768,
                           layers=12, mlp_width=3072, fused_qkv=True)


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


def neighbors(graph, v):
    """Row v of the graph's CSR adjacency, as a list."""
    return graph.indices[graph.indptr[v]:graph.indptr[v + 1]].tolist()


def snapshot(params):
    """Copies of the parameters' values, for `restore`."""
    return [p.value.copy() for p in params]


def restore(params, values):
    for p, v in zip(params, values):
        p.value[...] = v


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


def tokenize(text, prompt, vocab, seq_len):
    """One text laid out as `tokenize_graph` lays out a node's row: (ids,
    mask) of length seq_len."""
    ids, mask = tokenize_graph(make_graph({0: []}, texts=[text]), vocab,
                               prompt, seq_len)
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
