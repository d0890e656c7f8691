"""Text-attributed graphs: data model, file ingestion, stratified splits,
and a synthetic generator whose labels depend on both text and structure."""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .schema import ConfigError, check_declared, ranged

SPLITS = ("train", "val", "test")
_SPLIT_CODE = {name: code for code, name in enumerate(SPLITS)}


class GraphFormatError(ValueError):
    pass


@dataclass
class SplitSpec:
    """Per-class split fractions, which must sum to 1 (`split_sum_problem`)."""
    train_frac: float = ranged(0.8, "(0, 1)")
    val_frac: float = ranged(0.1, "(0, 1)")
    test_frac: float = ranged(0.1, "(0, 1)")
    split_seed: int = ranged(0, "[0, inf)")


def split_sum_problem(spec):
    """The line naming fractions of `spec` that do not sum to 1, or None."""
    total = spec.train_frac + spec.val_frac + spec.test_frac
    if abs(total - 1.0) > 1e-9:
        return f"[dataset] split fractions sum to {total}, not 1"


@dataclass(eq=False)
class TextAttributedGraph:
    """Node texts, int64 labels, int8 split codes into `SPLITS` (None
    before a split) and a symmetric, self-loop-free CSR adjacency: row v,
    `indices[indptr[v]:indptr[v + 1]]`, is sorted and deduplicated.

    Immutable by convention after construction; safe to share read-only.
    """
    texts: list
    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    num_classes: int
    split: np.ndarray | None = None

    @property
    def num_nodes(self):
        return len(self.texts)

    def split_ids(self, split):
        return ids_in_split(self.split, split)

    def validate(self):
        n, indptr, indices = self.num_nodes, self.indptr, self.indices
        if (self.labels.shape != (n,) or indptr.shape != (n + 1,)
                or indptr[0] != 0 or indptr[-1] != len(indices)
                or np.any(np.diff(indptr) < 0)):
            raise GraphFormatError("labels or adjacency do not match the "
                                   "node count")
        if not all(map(str.strip, self.texts)):
            v = next(v for v, t in enumerate(self.texts) if not t.strip())
            raise GraphFormatError(f"node {v}: empty text")
        c = self.num_classes
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= c))
        if bad.size:
            v = bad[0]
            raise GraphFormatError(f"node {v}: label out of range "
                                   f"({self.labels[v]} not in [0, {c}))")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        dangling = np.flatnonzero((indices < 0) | (indices >= n))
        if dangling.size:
            k = dangling[0]
            raise GraphFormatError(f"node {rows[k]}: dangling neighbor "
                                   f"{indices[k]}")
        loops = np.flatnonzero(indices == rows)
        if loops.size:
            raise GraphFormatError(f"node {rows[loops[0]]}: self-loop")
        # Packed keys strictly increase iff every row is sorted and
        # deduplicated; the adjacency is symmetric iff the transposed keys
        # are the same set.
        keys = rows * n + indices
        unsorted = np.flatnonzero(keys[1:] <= keys[:-1])
        if unsorted.size:
            raise GraphFormatError(f"node {rows[unsorted[0] + 1]}: neighbor "
                                   "list not sorted and deduplicated")
        transposed = indices * n + rows
        if not np.array_equal(np.sort(transposed), keys):
            k = np.flatnonzero(~np.isin(transposed, keys))[0]
            raise GraphFormatError(f"asymmetric edge ({rows[k]}, {indices[k]})")
        return self


def ids_in_split(codes, split):
    """Node ids whose split code (into `SPLITS`) is `split`; none when
    `codes` is None, before a split is assigned."""
    if split not in SPLITS:
        raise GraphFormatError(f"unknown split {split!r}")
    if codes is None:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(codes == _SPLIT_CODE[split])


def _require_every_split(codes, source):
    """GraphFormatError naming `source` unless each of `SPLITS` has a node."""
    for name, n in zip(SPLITS, np.bincount(codes, minlength=len(SPLITS))):
        if not n:
            raise GraphFormatError(f"{source}: no node is in the {name!r} "
                                   "split")


def csr_adjacency(n, u, v):
    """(indptr, indices) of the undirected edges (u[i], v[i]) on n nodes:
    symmetrized, self-loops dropped, each row sorted and deduplicated.

    Works on packed `row * n + col` keys; a sort plus a neighbour-difference
    mask deduplicates them faster than `np.unique`."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    rows = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, keys - rows * n


def _utf8_lines(path, lines):
    """The lines of `lines`, a UTF-8 text-mode reader over the file at
    `path`. A byte that is not UTF-8 raises a GraphFormatError naming the
    file and the line that holds it."""
    try:
        yield from lines
    except UnicodeDecodeError:
        with open(path, "rb") as f:
            data = f.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            head = data[:e.start].decode("utf-8")
            lineno = 1 + head.count("\n") + head.count("\r") \
                - head.count("\r\n")
            raise GraphFormatError(f"{path}:{lineno}: not UTF-8 (byte "
                                   f"0x{data[e.start]:02x})") from None
        raise


def load_graph(nodes_path, edges_path, num_classes=None):
    """Load a graph from a JSON Lines node file and a TSV edge file.

    Every format problem is reported with its line number. Duplicate edges
    are deduplicated and the edge set symmetrized. An edge file as
    `save_graph` writes it parses in one numpy pass; any other goes line
    by line, with the same result for every file both accept.
    """
    limit = np.iinfo(np.int64).max if num_classes is None else num_classes
    ids, texts, labels = [], [], []
    seen = set()
    with open(nodes_path, encoding="utf-8") as f:
        for lineno, line in enumerate(_utf8_lines(nodes_path, f), start=1):
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
            nid, text, label = obj["id"], obj["text"], obj["label"]
            for key, value in (("id", nid), ("label", label)):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise GraphFormatError(f"{nodes_path}:{lineno}: non-integer "
                                           f"{key} {value!r}")
            if not isinstance(text, str):
                raise GraphFormatError(f"{nodes_path}:{lineno}: non-string "
                                       f"text {text!r}")
            if nid in seen:
                raise GraphFormatError(f"{nodes_path}:{lineno}: duplicate id {nid}")
            if not 0 <= label < limit:
                raise GraphFormatError(f"{nodes_path}:{lineno}: node {nid}: "
                                       f"label {label} out of range [0, {limit})")
            seen.add(nid)
            ids.append(nid)
            texts.append(text)
            labels.append(label)
    if not ids:
        raise GraphFormatError(f"{nodes_path}: no nodes")
    n = len(ids)
    if min(ids) != 0 or max(ids) != n - 1:
        missing = sorted(set(range(n)) - seen)[:5]
        raise GraphFormatError(f"{nodes_path}: node ids not dense in [0, {n}) "
                               f"(missing e.g. {missing})")
    # Unique ids in [0, n) are a permutation: file order -> id order.
    order = np.argsort(np.array(ids, dtype=np.int64))
    texts = [texts[i] for i in order]
    labels = np.array(labels, dtype=np.int64)[order]

    us, vs = _read_edges(edges_path, n)
    indptr, indices = csr_adjacency(n, us, vs)
    c = num_classes if num_classes is not None else int(labels.max()) + 1
    return TextAttributedGraph(texts=texts, labels=labels, indptr=indptr,
                               indices=indices, num_classes=c).validate()


def _read_edges(edges_path, n):
    """Endpoint arrays (u, v) of a TSV edge file on nodes [0, n).

    A plain file (`_is_plain_edge_file`, every endpoint below n) parses in
    one numpy pass. Any other file goes through the line loop, which
    accepts what `int` accepts around one tab and names the line of the
    first fault; a plain file gives the same endpoints under either path."""
    with open(edges_path, "rb") as f:
        data = f.read()
    if _is_plain_edge_file(data):
        ends = np.fromstring(data, dtype=np.int64, sep=" ")
        if not ends.size or ends.max() < n:
            return ends[0::2], ends[1::2]
    return _read_edge_lines(edges_path, data, n)


def _is_plain_edge_file(data):
    """True when every line of `data` is `u<TAB>v<LF>` with each endpoint
    1 to 18 ASCII digits, so that it fits int64: the files `save_graph`
    writes."""
    b = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((b < ord("0")) | (b > ord("9")))
    digits = np.diff(seps, prepend=-1) - 1
    return (len(seps) % 2 == 0 and data[-1:] in (b"", b"\n")
            and bool(np.all(b[seps[0::2]] == ord("\t")))
            and bool(np.all(b[seps[1::2]] == ord("\n")))
            and bool(np.all((digits >= 1) & (digits <= 18))))


def _read_edge_lines(edges_path, data, n):
    """`_read_edges` one line at a time, as a file opened in UTF-8 text
    mode reads it; the only source of line-numbered edge errors."""
    us, vs = [], []
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    for lineno, line in enumerate(_utf8_lines(edges_path, lines), start=1):
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
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"{edges_path}:{lineno}: dangling "
                                   f"endpoint {v if 0 <= u < n else u}")
        us.append(u)
        vs.append(v)
    return us, vs


def save_graph(graph, nodes_path, edges_path):
    """Write nodes as JSON Lines (the bytes of `json.dumps` per record) and
    each undirected edge once (u < v)."""
    with open(nodes_path, "w", encoding="utf-8") as f:
        f.writelines(f'{{"id": {i}, "text": {json.dumps(text)}, '
                     f'"label": {label}}}\n' for i, (text, label) in
                     enumerate(zip(graph.texts, graph.labels.tolist())))
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    upper = rows < graph.indices
    with open(edges_path, "w", encoding="utf-8") as f:
        f.writelines(f"{u}\t{v}\n" for u, v in
                     zip(rows[upper].tolist(), graph.indices[upper].tolist()))


def save_splits(graph, path):
    if graph.split is None:
        raise GraphFormatError("split not assigned")
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f'{{"id": {i}, "split": "{SPLITS[code]}"}}\n'
                     for i, code in enumerate(graph.split.tolist()))


def load_splits(graph, path):
    """Return a copy of the graph with splits applied from a JSON Lines file."""
    assigned = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(_utf8_lines(path, f), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise GraphFormatError(f"{path}:{lineno}: bad JSON: {e}")
            nid = obj.get("id") if isinstance(obj, dict) else None
            if not isinstance(nid, int) or isinstance(nid, bool):
                raise GraphFormatError(f"{path}:{lineno}: expected an object "
                                       f"with an integer 'id', got {line!r}")
            if obj.get("split") not in SPLITS:
                raise GraphFormatError(f"{path}:{lineno}: bad split "
                                       f"{obj.get('split')!r}")
            if nid in assigned:
                raise GraphFormatError(f"{path}:{lineno}: node {nid} "
                                       "assigned twice")
            assigned[nid] = _SPLIT_CODE[obj["split"]]
    if sorted(assigned) != list(range(graph.num_nodes)):
        raise GraphFormatError(f"{path}: split assignment does not cover all "
                               "nodes exactly once")
    split = np.empty(graph.num_nodes, dtype=np.int8)
    split[list(assigned)] = list(assigned.values())
    _require_every_split(split, path)
    return replace(graph, split=split)


def stratified_split(graph, spec):
    """Assign train/val/test per class with proportions within one node of
    the requested fractions. Rounding remainders go to train. Fractions
    that do not sum to 1 raise ConfigError."""
    problem = split_sum_problem(spec)
    if problem:
        raise ConfigError(problem)
    labels = graph.labels
    nodes_by_class = [np.flatnonzero(labels == c) for c in range(graph.num_classes)]
    for c, ids in enumerate(nodes_by_class):
        if len(ids) < 3:
            raise GraphFormatError(f"class {c} has {len(ids)} nodes; "
                                   "stratified split needs at least 3")
    rng = np.random.default_rng(spec.split_seed)
    split = np.empty(graph.num_nodes, dtype=np.int8)
    for ids in nodes_by_class:
        ids = ids[rng.permutation(len(ids))]
        n = len(ids)
        n_val = int(round(spec.val_frac * n))
        n_test = int(round(spec.test_frac * n))
        n_train = n - n_val - n_test
        # Codes follow SPLITS: train, val, test.
        for code, part in enumerate(np.split(ids, [n_train, n_train + n_val])):
            split[part] = code
    _require_every_split(split, f"split fractions {spec.train_frac}/"
                         f"{spec.val_frac}/{spec.test_frac} of "
                         f"{graph.num_nodes} nodes")
    return replace(graph, split=split)


def _append_new_edges(keys, n, u, w, limit):
    """`keys` followed by the new edges of the stream (u[i], w[i]), at most
    `limit` keys in all. An edge is the packed key `min * n + max`; a
    self-pair is dropped and an edge counts at its first occurrence, so
    `keys` lists distinct edges in stream order."""
    keep = u != w
    u, w = u[keep], w[keep]
    new = np.minimum(u, w) * n + np.maximum(u, w)
    new = new[~np.isin(new, keys)]
    _, first = np.unique(new, return_index=True)
    first.sort()
    return np.concatenate([keys, new[first[:limit - len(keys)]]])


@dataclass
class GeneratorParams:
    """The generator's keys; `config` also requires n_nodes >= 10 * C and
    at most half of all node pairs as edges."""
    n_nodes: int = ranged(2000, "[1, inf)")
    num_classes: int = ranged(4, "[2, inf)")
    avg_degree: float = ranged(8.0, "(0, inf)")
    topic_vocab_size: int = ranged(50, "[1, inf)")
    text_len: int = ranged(16, "[1, inf)")
    # probability a node's text topic is wrong
    text_noise: float = ranged(0.35, "[0, 1)")
    # target intra-class edge fraction
    structure_signal: float = ranged(0.9, "(0.5, 1]")
    seed: int = ranged(0, "[0, inf)")


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

    Texts and labels are drawn first. Edges then come from a stream of
    draws: a uniform node u, a target class (u's own with probability
    `structure_signal`, else a uniform other class) and a uniform member w
    of that class. The stream is drawn in numpy chunks; self-pairs and
    repeats are dropped (`_append_new_edges`) until `avg_degree * n / 2`
    distinct edges are kept, or 200 draws per edge have failed to find
    them.

    Pure function of `params`: same seed, byte-identical graph. A key
    outside its declared range raises ConfigError (`check_declared`).
    """
    check_declared(params, "dataset")
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

    # Class k's members, ascending by id: members[starts[k]:][:sizes[k]].
    members = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=c)
    starts = np.cumsum(sizes) - sizes
    target_edges = int(round(params.avg_degree * n / 2))
    max_attempts = 200 * target_edges
    keys = np.empty(0, dtype=np.int64)
    attempts = 0
    while len(keys) < target_edges and attempts < max_attempts:
        # A chunk a little larger than the edges still missing: duplicates
        # and self-pairs are rare, so one chunk usually finishes the graph.
        missing = target_edges - len(keys)
        m = min(missing + missing // 8 + 64, max_attempts - attempts)
        attempts += m
        u = rng.integers(0, n, size=m)
        cls = labels[u]
        other = rng.random(m) >= params.structure_signal
        cls[other] = (cls[other] + rng.integers(1, c, size=m)[other]) % c
        w = members[starts[cls] + rng.integers(0, sizes[cls])]
        keys = _append_new_edges(keys, n, u, w, target_edges)
    if len(keys) < target_edges:
        raise GraphFormatError("edge sampling failed to reach the target "
                               "edge count; parameters too constrained")

    indptr, indices = csr_adjacency(n, keys // n, keys % n)
    return TextAttributedGraph(texts=texts, labels=labels.astype(np.int64),
                               indptr=indptr, indices=indices,
                               num_classes=c).validate()
