"""Text-attributed graphs: data model, file ingestion, stratified splits,
and a synthetic generator whose labels depend on both text and structure."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

SPLITS = ("train", "val", "test")


class GraphFormatError(ValueError):
    pass


@dataclass
class NodeRecord:
    id: int
    text: str
    label: int
    split: str | None = None


@dataclass
class SplitSpec:
    train_frac: float = 0.8
    val_frac: float = 0.1
    test_frac: float = 0.1
    split_seed: int = 0

    def __post_init__(self):
        self.check_fractions()

    def check_fractions(self):
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise GraphFormatError(f"split fractions sum to {total}, not 1")
        for f in (self.train_frac, self.val_frac, self.test_frac):
            if not 0.0 < f < 1.0:
                raise GraphFormatError(f"split fraction {f} outside (0, 1)")


@dataclass
class TextAttributedGraph:
    """Nodes with text and labels plus a symmetric, self-loop-free adjacency.

    Immutable by convention after construction; safe to share read-only.
    """
    nodes: list
    adjacency: list
    num_classes: int

    @property
    def num_nodes(self):
        return len(self.nodes)

    def neighbors(self, v):
        if not 0 <= v < self.num_nodes:
            raise GraphFormatError(f"node id {v} outside [0, {self.num_nodes})")
        return self.adjacency[v]

    def labels(self):
        return np.array([n.label for n in self.nodes], dtype=np.int64)

    def split_ids(self, split):
        if split not in SPLITS:
            raise GraphFormatError(f"unknown split {split!r}")
        return np.array([n.id for n in self.nodes if n.split == split],
                        dtype=np.int64)

    def validate(self):
        n = self.num_nodes
        if len(self.adjacency) != n:
            raise GraphFormatError("adjacency length differs from node count")
        for i, rec in enumerate(self.nodes):
            if rec.id != i:
                raise GraphFormatError(f"node ids not dense: position {i} "
                                       f"holds id {rec.id}")
            if not rec.text.strip():
                raise GraphFormatError(f"node {rec.id}: empty text")
            if not 0 <= rec.label < self.num_classes:
                raise GraphFormatError(
                    f"node {rec.id}: label out of range "
                    f"({rec.label} not in [0, {self.num_classes}))")
        for u, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(set(nbrs)):
                raise GraphFormatError(f"node {u}: neighbor list not sorted "
                                       "and deduplicated")
            for v in nbrs:
                if v == u:
                    raise GraphFormatError(f"node {u}: self-loop")
                if not 0 <= v < n:
                    raise GraphFormatError(f"node {u}: dangling neighbor {v}")
                if u not in self.adjacency[v]:
                    raise GraphFormatError(f"asymmetric edge ({u}, {v})")
        return self


def _build_adjacency(n, edge_iter):
    """Symmetrize and deduplicate edges into sorted per-node lists."""
    sets = [set() for _ in range(n)]
    for u, v in edge_iter:
        if u == v:
            continue
        sets[u].add(v)
        sets[v].add(u)
    return [sorted(s) for s in sets]


def load_graph(nodes_path, edges_path, num_classes=None):
    """Load a graph from a JSON Lines node file and a TSV edge file.

    Every format problem is reported with its line number. Duplicate edges
    are deduplicated and the edge set symmetrized.
    """
    records = {}
    with open(nodes_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise GraphFormatError(f"{nodes_path}:{lineno}: bad JSON: {e}")
            if not isinstance(obj, dict):
                raise GraphFormatError(f"{nodes_path}:{lineno}: expected an "
                                       f"object, got {line!r}")
            for key in ("id", "text", "label"):
                if key not in obj:
                    raise GraphFormatError(
                        f"{nodes_path}:{lineno}: missing field {key!r}")
            nid, label = obj["id"], obj["label"]
            for key, value in (("id", nid), ("label", label)):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise GraphFormatError(f"{nodes_path}:{lineno}: non-integer "
                                           f"{key} {value!r}")
            if nid in records:
                raise GraphFormatError(f"{nodes_path}:{lineno}: duplicate id {nid}")
            records[nid] = NodeRecord(id=nid, text=str(obj["text"]),
                                      label=label)
    if not records:
        raise GraphFormatError(f"{nodes_path}: no nodes")
    n = len(records)
    if sorted(records) != list(range(n)):
        missing = sorted(set(range(n)) - set(records))[:5]
        raise GraphFormatError(f"{nodes_path}: node ids not dense in [0, {n}) "
                               f"(missing e.g. {missing})")
    nodes = [records[i] for i in range(n)]

    c = num_classes if num_classes is not None else max(r.label for r in nodes) + 1
    for rec in nodes:
        if not 0 <= rec.label < c:
            raise GraphFormatError(f"node {rec.id}: label out of range "
                                   f"({rec.label} not in [0, {c}))")

    edges = []
    with open(edges_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphFormatError(f"{edges_path}:{lineno}: expected "
                                       f"'u<TAB>v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"{edges_path}:{lineno}: non-integer "
                                       f"endpoint in {line!r}")
            for w in (u, v):
                if not 0 <= w < n:
                    raise GraphFormatError(f"{edges_path}:{lineno}: dangling "
                                           f"endpoint {w}")
            edges.append((u, v))

    return TextAttributedGraph(nodes=nodes,
                               adjacency=_build_adjacency(n, edges),
                               num_classes=c).validate()


def save_graph(graph, nodes_path, edges_path):
    """Write nodes as JSON Lines and each undirected edge once (u < v)."""
    with open(nodes_path, "w", encoding="utf-8") as f:
        for rec in graph.nodes:
            f.write(json.dumps({"id": rec.id, "text": rec.text,
                                "label": rec.label}) + "\n")
    with open(edges_path, "w", encoding="utf-8") as f:
        for u, nbrs in enumerate(graph.adjacency):
            for v in nbrs:
                if u < v:
                    f.write(f"{u}\t{v}\n")


def save_splits(graph, path):
    with open(path, "w", encoding="utf-8") as f:
        for rec in graph.nodes:
            if rec.split is None:
                raise GraphFormatError(f"node {rec.id}: split not assigned")
            f.write(json.dumps({"id": rec.id, "split": rec.split}) + "\n")


def load_splits(graph, path):
    """Return a copy of the graph with splits applied from a JSON Lines file."""
    assigned = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise GraphFormatError(f"{path}:{lineno}: bad JSON: {e}")
            nid = obj.get("id") if isinstance(obj, dict) else None
            if not isinstance(nid, int):
                raise GraphFormatError(f"{path}:{lineno}: expected an object "
                                       f"with an integer 'id', got {line!r}")
            if obj.get("split") not in SPLITS:
                raise GraphFormatError(f"{path}:{lineno}: bad split "
                                       f"{obj.get('split')!r}")
            if nid in assigned:
                raise GraphFormatError(f"{path}:{lineno}: node {nid} "
                                       "assigned twice")
            assigned[nid] = obj["split"]
    if sorted(assigned) != list(range(graph.num_nodes)):
        raise GraphFormatError(f"{path}: split assignment does not cover all "
                               "nodes exactly once")
    nodes = [replace(rec, split=assigned[rec.id]) for rec in graph.nodes]
    return TextAttributedGraph(nodes=nodes, adjacency=graph.adjacency,
                               num_classes=graph.num_classes)


def stratified_split(graph, spec):
    """Assign train/val/test per class with proportions within one node of
    the requested fractions. Rounding remainders go to train."""
    labels = graph.labels()
    nodes_by_class = [np.flatnonzero(labels == c) for c in range(graph.num_classes)]
    for c, ids in enumerate(nodes_by_class):
        if len(ids) < 3:
            raise GraphFormatError(f"class {c} has {len(ids)} nodes; "
                                   "stratified split needs at least 3")
    rng = np.random.default_rng(spec.split_seed)
    assignment = {}
    for ids in nodes_by_class:
        ids = ids[rng.permutation(len(ids))]
        n = len(ids)
        n_val = int(round(spec.val_frac * n))
        n_test = int(round(spec.test_frac * n))
        n_train = n - n_val - n_test
        for i in ids[:n_train]:
            assignment[int(i)] = "train"
        for i in ids[n_train:n_train + n_val]:
            assignment[int(i)] = "val"
        for i in ids[n_train + n_val:]:
            assignment[int(i)] = "test"
    nodes = [replace(rec, split=assignment[rec.id]) for rec in graph.nodes]
    return TextAttributedGraph(nodes=nodes, adjacency=graph.adjacency,
                               num_classes=graph.num_classes)


@dataclass
class GeneratorParams:
    n_nodes: int = 2000
    num_classes: int = 4
    avg_degree: float = 8.0
    topic_vocab_size: int = 50
    text_len: int = 16
    text_noise: float = 0.35     # probability a node's text topic is wrong
    structure_signal: float = 0.9  # target intra-class edge fraction
    seed: int = 0

    def validate(self):
        if self.n_nodes < 10 * self.num_classes:
            raise GraphFormatError(f"n_nodes={self.n_nodes} too small for "
                                   f"{self.num_classes} classes (need >= 10*C)")
        if not 0.5 < self.structure_signal <= 1.0:
            raise GraphFormatError(f"structure_signal={self.structure_signal} "
                                   "outside (0.5, 1]")
        if not 0.0 <= self.text_noise < 1.0:
            raise GraphFormatError(f"text_noise={self.text_noise} outside [0, 1)")
        if self.num_classes < 2:
            raise GraphFormatError("need at least 2 classes")
        if self.topic_vocab_size < 1 or self.text_len < 1:
            raise GraphFormatError("topic_vocab_size and text_len must be >= 1")
        if self.avg_degree * self.n_nodes / 2 > self.n_nodes * (self.n_nodes - 1) / 4:
            raise GraphFormatError(f"avg_degree={self.avg_degree} too dense")
        return self


def generate_synthetic_tag(params):
    """Planted-partition graph with class-conditional node text.

    Labels are balanced latent classes. Edges prefer same-class endpoints
    with probability `structure_signal`, so a node's 1-hop/2-hop class
    majority is highly predictive. Each node's text is drawn from its own
    class's token slice, except that with probability `text_noise` the
    whole text comes from a wrong class's slice. Text alone therefore caps
    out near 1 - text_noise*(C-1)/C accuracy while structure carries
    independent signal, so a structure+text classifier strictly beats any
    text-only one.

    Pure function of `params`: same seed, byte-identical graph.
    """
    params.validate()
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
    texts = []
    for i in range(n):
        base = topics[i] * v
        texts.append(" ".join(f"w{base + t}" for t in token_ids[i]))

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

    nodes = [NodeRecord(id=i, text=texts[i], label=int(labels[i]))
             for i in range(n)]
    return TextAttributedGraph(nodes=nodes,
                               adjacency=_build_adjacency(n, sorted(edges)),
                               num_classes=c).validate()


def intra_class_edge_fraction(graph):
    labels = graph.labels()
    intra = total = 0
    for u, nbrs in enumerate(graph.adjacency):
        for v in nbrs:
            if u < v:
                total += 1
                intra += int(labels[u] == labels[v])
    return intra / total if total else 0.0
