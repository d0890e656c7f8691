"""Two-layer GraphSAGE with concat-mean aggregation, an MLP classifier
head, and the phase-1 training loop emitting 1-hop and 2-hop embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Parameter
from .metrics import metric_name, split_metric
from .optim import fit
from .schema import ranged


@dataclass
class SageConfig:
    """The [sage] section: the phase-1 model's widths and init seed, and
    its training schedule."""
    embed_dim: int = ranged(64, "[1, inf)")
    classifier_hidden: int = ranged(64, "[1, inf)")
    lr: float = ranged(1e-2, "(0, inf)")
    weight_decay: float = ranged(1e-2, "[0, inf)")
    epochs: int = ranged(500, "[0, inf)")
    patience: int = ranged(20, "[1, inf)")
    seed: int = ranged(0, "[0, inf)")


class SageModel:
    """Trained in phase 1 only. Layer weights follow the concat convention:
    W has shape (g, 2*k) for input width k."""

    def __init__(self, in_dim, embed_dim, hidden, num_classes, seed=0,
                 dtype=np.float64):
        rng = np.random.default_rng(seed)
        g = embed_dim

        def w(shape, name):
            return Parameter(rng.normal(0.0, 0.02, shape).astype(dtype),
                             name=name)

        def zeros(shape, name):
            return Parameter(np.zeros(shape, dtype=dtype), name=name)

        self.w0 = w((g, 2 * in_dim), "sage.w0")
        self.b0 = zeros(g, "sage.b0")
        self.w1 = w((g, 2 * g), "sage.w1")
        self.b1 = zeros(g, "sage.b1")
        self.cls_w1 = w((hidden, g), "sage.cls_w1")
        self.cls_b1 = zeros(hidden, "sage.cls_b1")
        self.cls_w2 = w((num_classes, hidden), "sage.cls_w2")
        self.cls_b2 = zeros(num_classes, "sage.cls_b2")

    def parameters(self):
        return [self.w0, self.b0, self.w1, self.b1,
                self.cls_w1, self.cls_b1, self.cls_w2, self.cls_b2]

    def classify(self, embeddings):
        h = ad.relu(ad.linear(embeddings, self.cls_w1, self.cls_b1))
        return ad.linear(h, self.cls_w2, self.cls_b2)


def mean_aggregation_matrix(graph, dtype=np.float64):
    """Sparse N x N matrix whose row v averages over N(v), on the graph's
    own CSR layout; all-zero rows for isolated nodes, so the
    empty-neighborhood mean is the zero vector."""
    deg = np.diff(graph.indptr)
    data = np.repeat(1.0 / np.maximum(deg, 1), deg).astype(dtype)
    n = graph.num_nodes
    return sp.csr_matrix((data, graph.indices, graph.indptr), shape=(n, n))


def neighbor_concat(x, agg):
    """concat(x_v, mean_{u in N(v)} x_u) for every node; `agg` is the
    graph's `mean_aggregation_matrix`."""
    return ad.concat_cols(x, ad.sparse_matmul(agg, x))


def sage_pass(x, agg, w, b):
    """ReLU(W . concat(x_v, mean_{u in N(v)} x_u) + b) for every node.

    `agg` is the graph's `mean_aggregation_matrix`.
    """
    k = ad.val(x).shape[-1]
    if ad.val(w).shape[-1] != 2 * k:
        raise ad.ShapeError("sage_pass", ad.val(w).shape, (..., 2 * k))
    return ad.relu(ad.linear(neighbor_concat(x, agg), w, b))


def forward_embeddings(model, first_hop, agg):
    """(pass1, pass2): 1-hop then 2-hop aggregation over the graph's
    `mean_aggregation_matrix` `agg`, the second pass consuming the first
    pass's states. `first_hop` is `neighbor_concat(x, agg)` of the node
    features `x`: they are constant, so one array serves every epoch."""
    pass1 = ad.relu(ad.linear(first_hop, model.w0, model.b0))
    pass2 = sage_pass(pass1, agg, model.w1, model.b1)
    return pass1, pass2


@dataclass
class Phase1Result:
    pass1: np.ndarray
    pass2: np.ndarray
    best_epoch: int
    val_metric: float
    metric_name: str
    loss_trace: list
    val_trace: list


def train_phase1(model, x, graph, config):
    """Full-batch AdamW on cross-entropy over the train nodes' pass-2
    classifier logits, early-stopped on the validation metric (`optim.fit`).
    Leaves `model` at its best-validation weights and returns that
    checkpoint's embeddings, computed without recording a graph; phase 2
    reads only those.

    Each epoch records one forward: the logits of the weights after a step
    give that epoch's validation metric and the next epoch's loss, since
    nothing changes in between."""
    agg = mean_aggregation_matrix(graph, dtype=ad.val(x).dtype)
    first_hop = neighbor_concat(x, agg)
    labels = graph.labels
    train_idx = graph.split_ids("train")
    val_idx = graph.split_ids("val")
    recorded = []  # the logits of the current weights

    def val_metric():
        _, pass2 = forward_embeddings(model, first_hop, agg)
        recorded.append(model.classify(pass2))
        logits = ad.val(recorded[-1])
        return split_metric(logits[val_idx], labels[val_idx],
                            graph.num_classes)

    def epoch_losses(epoch):
        logits = recorded.pop()
        yield ad.cross_entropy(ad.gather_rows(logits, train_idx),
                               labels[train_idx]), 1

    best_epoch, best_metric, loss_trace, val_trace = fit(
        model.parameters(), config, epoch_losses, val_metric)
    recorded.clear()
    with ad.no_grad():
        pass1, pass2 = forward_embeddings(model, first_hop, agg)
    for name, m in (("pass1", pass1), ("pass2", pass2)):
        if not np.all(np.isfinite(m)):
            raise ad.NumericsError(f"non-finite entries in {name}")
    return Phase1Result(pass1, pass2, best_epoch, best_metric,
                        metric_name(graph.num_classes), loss_trace,
                        val_trace[1:])
