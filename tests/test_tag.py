import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (make_graph, neighbors, random_graph,
                      reference_generate_synthetic_tag)
from sagefuse import tag
from sagefuse.config import ConfigError
from sagefuse.tag import (SPLITS, GeneratorParams, GraphFormatError,
                          SplitSpec, csr_adjacency, generate_synthetic_tag,
                          load_graph, load_splits, save_graph, save_splits,
                          stratified_split)


def intra_class_edge_fraction(graph):
    """Share of undirected edges whose endpoints share a label."""
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    upper = rows < graph.indices
    same = graph.labels[rows[upper]] == graph.labels[graph.indices[upper]]
    return float(same.mean()) if same.size else 0.0


def rows_of(graph):
    return [neighbors(graph, v) for v in range(graph.num_nodes)]


def split_count(graph, split, label=None):
    """Nodes assigned to `split`, optionally only those with `label`."""
    ids = graph.split_ids(split)
    return len(ids) if label is None else int(np.sum(graph.labels[ids] == label))


def _write_dataset(tmp_path, node_lines, edge_lines):
    nodes = tmp_path / "nodes.jsonl"
    edges = tmp_path / "edges.tsv"
    nodes.write_text("\n".join(node_lines) + "\n")
    edges.write_text("\n".join(edge_lines) + ("\n" if edge_lines else ""))
    return nodes, edges


def _node_line(i, label=0, text="hello world"):
    return json.dumps({"id": i, "text": text, "label": label})


class TestLoadGraph:
    def test_symmetry_closure(self, tmp_path):
        nodes, edges = _write_dataset(
            tmp_path, [_node_line(i) for i in range(3)], ["0\t1", "1\t2"])
        g = load_graph(nodes, edges)
        assert rows_of(g) == [[1], [0, 2], [1]]

    def test_duplicate_and_reversed_edges_deduplicated(self, tmp_path):
        nodes, edges = _write_dataset(
            tmp_path, [_node_line(i) for i in range(2)], ["1\t0", "0\t1"])
        g = load_graph(nodes, edges)
        assert len(neighbors(g, 0)) == 1

    def test_label_out_of_range_names_node(self, tmp_path):
        nodes, edges = _write_dataset(
            tmp_path, [_node_line(0), _node_line(1, label=2)], [])
        with pytest.raises(GraphFormatError, match="node 1.*out of range"):
            load_graph(nodes, edges, num_classes=2)

    def test_bad_json_reports_line_number(self, tmp_path):
        nodes, edges = _write_dataset(
            tmp_path, [_node_line(0), "{not json"], [])
        with pytest.raises(GraphFormatError, match=":2:"):
            load_graph(nodes, edges)

    def test_missing_field_reports_line_number(self, tmp_path):
        nodes, edges = _write_dataset(
            tmp_path, [_node_line(0), json.dumps({"id": 1, "text": "x"})], [])
        with pytest.raises(GraphFormatError, match=":2:.*label"):
            load_graph(nodes, edges)

    def test_non_dense_ids_rejected(self, tmp_path):
        nodes, edges = _write_dataset(
            tmp_path, [_node_line(0), _node_line(2)], [])
        with pytest.raises(GraphFormatError, match="dense"):
            load_graph(nodes, edges)

    def test_dangling_edge_endpoint_reports_line_number(self, tmp_path):
        nodes, edges = _write_dataset(
            tmp_path, [_node_line(0), _node_line(1)], ["0\t1", "1\t7"])
        with pytest.raises(GraphFormatError, match=":2:.*dangling"):
            load_graph(nodes, edges)

    @pytest.mark.parametrize("role", ["nodes", "edges", "splits"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, role):
        # Lines end in CRLF and a lone CR, as text mode splits them.
        nodes, edges = _write_dataset(
            tmp_path, [_node_line(i) for i in range(3)], ["0\t1", "1\t2"])
        splits = tmp_path / "splits.jsonl"
        save_splits(stratified_split(load_graph(nodes, edges),
                                     SplitSpec(1 / 3, 1 / 3, 1 / 3)), splits)
        path = {"nodes": nodes, "edges": edges, "splits": splits}[role]
        rows = path.read_bytes().splitlines()
        path.write_bytes(rows[0] + b"\r\n" + rows[1] + b"\r" + b"\xfe"
                         + rows[-1] + b"\n")
        with pytest.raises(GraphFormatError,
                           match=f"^{re.escape(str(path))}:3: not UTF-8 "
                                 r"\(byte 0xfe\)$"):
            load_splits(load_graph(nodes, edges), splits)

    def test_round_trip(self, tmp_path):
        g = generate_synthetic_tag(GeneratorParams(
            n_nodes=80, num_classes=2, avg_degree=4, topic_vocab_size=10,
            text_len=5, seed=3))
        save_graph(g, tmp_path / "n.jsonl", tmp_path / "e.tsv")
        g2 = load_graph(tmp_path / "n.jsonl", tmp_path / "e.tsv")
        assert rows_of(g2) == rows_of(g)
        assert g2.texts == g.texts
        assert np.array_equal(g2.labels, g.labels)

    def test_edge_file_order_does_not_matter(self, tmp_path):
        g = generate_synthetic_tag(GeneratorParams(
            n_nodes=60, num_classes=2, avg_degree=4, topic_vocab_size=10,
            text_len=5, seed=1))
        save_graph(g, tmp_path / "n.jsonl", tmp_path / "e.tsv")
        lines = (tmp_path / "e.tsv").read_text().splitlines()
        shuffled = [lines[i] for i in
                    np.random.default_rng(0).permutation(len(lines))]
        (tmp_path / "e2.tsv").write_text("\n".join(shuffled) + "\n")
        g2 = load_graph(tmp_path / "n.jsonl", tmp_path / "e2.tsv")
        assert rows_of(g2) == rows_of(g)


class TestGraphInvariants:
    def test_neighbors_of_path_graph(self):
        g = make_graph({0: [1], 1: [0, 2], 2: [1]})
        assert neighbors(g, 1) == [0, 2]

    def test_isolated_node_has_no_neighbors(self):
        g = make_graph({0: [], 1: [2], 2: [1]})
        assert neighbors(g, 0) == []

    def test_validate_catches_asymmetry(self):
        g = make_graph({0: [1], 1: []})
        with pytest.raises(GraphFormatError, match="asymmetric"):
            g.validate()

    def test_validate_catches_self_loop(self):
        g = make_graph({0: [0]})
        with pytest.raises(GraphFormatError, match="self-loop"):
            g.validate()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_graph_symmetry_brute_force(self, seed):
        g = random_graph(np.random.default_rng(seed), 50)
        for u in range(50):
            for v in neighbors(g, u):
                assert u in neighbors(g, v)


class TestStratifiedSplit:
    def test_exact_divisibility(self):
        labels = [i % 2 for i in range(100)]
        g = make_graph({i: [] for i in range(100)}, labels=labels)
        split = stratified_split(g, SplitSpec(0.8, 0.1, 0.1, split_seed=0))
        for c in range(2):
            counts = {s: split_count(split, s, c)
                      for s in ("train", "val", "test")}
            assert counts == {"train": 40, "val": 5, "test": 5}

    def test_remainder_goes_to_train(self):
        # 11 nodes at 80/10/10: round(1.1)=1 val, 1 test, remainder 9 train.
        g = make_graph({i: [] for i in range(11)})
        split = stratified_split(g, SplitSpec(0.8, 0.1, 0.1, split_seed=0))
        counts = [split_count(split, s) for s in ("train", "val", "test")]
        assert counts == [9, 1, 1]

    @pytest.mark.parametrize("fractions, total", [
        ((0.3, 0.3, 0.3), 0.8999999999999999), ((0.2, 0.6, 0.6), 1.4)])
    def test_fractions_not_summing_to_1_rejected(self, fractions, total):
        """The library call gives the config's message, not a split."""
        g = make_graph({i: [] for i in range(100)},
                       labels=[i % 2 for i in range(100)])
        with pytest.raises(ConfigError) as e:
            stratified_split(g, SplitSpec(*fractions))
        assert str(e.value) == (f"[dataset] split fractions sum to {total}, "
                                "not 1")

    def test_large_graph_proportions_within_one_node(self):
        sizes = [20000, 16000, 10198]  # 46,198 nodes total
        labels = np.repeat(np.arange(3), sizes)
        g = make_graph({i: [] for i in range(46198)}, labels=labels.tolist())
        split = stratified_split(g, SplitSpec(0.54, 0.18, 0.28, split_seed=0))
        frac = {"train": 0.54, "val": 0.18, "test": 0.28}
        for c, size in enumerate(sizes):
            for s, f in frac.items():
                assert abs(split_count(split, s, c) - f * size) <= 1.0

    def test_every_node_assigned_exactly_once(self, micro_tag):
        ids = np.concatenate([micro_tag.split_ids(s) for s in SPLITS])
        assert sorted(ids.tolist()) == list(range(micro_tag.num_nodes))

    def test_deterministic_given_seed(self):
        g = make_graph({i: [] for i in range(30)},
                       labels=[i % 3 for i in range(30)], num_classes=3)
        a = stratified_split(g, SplitSpec(0.6, 0.2, 0.2, split_seed=4))
        b = stratified_split(g, SplitSpec(0.6, 0.2, 0.2, split_seed=4))
        assert np.array_equal(a.split, b.split)

    def test_tiny_class_rejected(self):
        g = make_graph({i: [] for i in range(10)},
                       labels=[0] * 8 + [1] * 2, num_classes=2)
        with pytest.raises(GraphFormatError, match="class 1"):
            stratified_split(g, SplitSpec(0.8, 0.1, 0.1))

    def test_splits_file_round_trip(self, tmp_path, micro_tag):
        save_splits(micro_tag, tmp_path / "s.jsonl")
        bare = replace(micro_tag, split=None)
        loaded = load_splits(bare, tmp_path / "s.jsonl")
        assert np.array_equal(loaded.split, micro_tag.split)

    def test_incomplete_splits_file_rejected(self, tmp_path, micro_tag):
        (tmp_path / "s.jsonl").write_text('{"id": 0, "split": "train"}\n')
        with pytest.raises(GraphFormatError, match="cover"):
            load_splits(micro_tag, tmp_path / "s.jsonl")


class TestGenerator:
    def test_noise_free_text_determines_class(self):
        # With zero text noise, every token id sits in the node's own
        # class slice [label*V, (label+1)*V).
        p = GeneratorParams(n_nodes=100, num_classes=4, avg_degree=4,
                            topic_vocab_size=10, text_len=6, text_noise=0.0,
                            seed=0)
        g = generate_synthetic_tag(p)
        for text, label in zip(g.texts, g.labels):
            buckets = {int(tok[1:]) // p.topic_vocab_size
                       for tok in text.split()}
            assert buckets == {label}

    def test_intra_class_edge_fraction_near_target(self):
        g = generate_synthetic_tag(GeneratorParams())
        assert abs(intra_class_edge_fraction(g) - 0.9) <= 0.03

    def test_byte_identical_given_seed(self):
        p = GeneratorParams(n_nodes=120, num_classes=3, avg_degree=5,
                            topic_vocab_size=8, text_len=4, seed=11)
        a, b = generate_synthetic_tag(p), generate_synthetic_tag(p)
        assert a.texts == b.texts
        assert rows_of(a) == rows_of(b)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate_synthetic_tag(GeneratorParams(n_nodes=120, seed=1))
        b = generate_synthetic_tag(GeneratorParams(n_nodes=120, seed=2))
        assert a.texts != b.texts

    def test_degenerate_params_rejected(self):
        # The generator checks each key's declared range; the rules between
        # keys are the config's.
        with pytest.raises(ConfigError, match=r"\[dataset\] structure_signal"):
            generate_synthetic_tag(GeneratorParams(structure_signal=0.4))
        with pytest.raises(ConfigError, match=r"\[dataset\] text_noise"):
            generate_synthetic_tag(GeneratorParams(text_noise=1.0))

    def test_generated_graph_satisfies_invariants(self):
        g = generate_synthetic_tag(GeneratorParams(n_nodes=150, seed=2))
        g.validate()

    def test_average_degree_near_target(self):
        g = generate_synthetic_tag(GeneratorParams(n_nodes=500, seed=0))
        degrees = np.diff(g.indptr)
        assert abs(np.mean(degrees) - 8.0) < 0.5

    def test_unreachable_edge_count_raises(self):
        # 200 edges are wanted, but 4 classes of 10 nodes hold only
        # 4 * 45 = 180 same-class pairs.
        with pytest.raises(GraphFormatError, match="edge sampling failed to "
                           "reach the target edge count"):
            generate_synthetic_tag(GeneratorParams(
                n_nodes=40, num_classes=4, avg_degree=10,
                structure_signal=1.0))


# The pre-edge draws are unchanged, so these must equal the reference's:
# small shapes, then the deep, acceptance and graph benchmark shapes.
REFERENCE_CASES = [
    GeneratorParams(n_nodes=200, num_classes=3, avg_degree=6,
                    topic_vocab_size=20, text_len=8, text_noise=0.3, seed=7),
    GeneratorParams(n_nodes=60, num_classes=3, avg_degree=4,
                    topic_vocab_size=10, text_len=6, text_noise=0.2, seed=1),
    GeneratorParams(n_nodes=90, num_classes=3, avg_degree=5,
                    topic_vocab_size=8, text_len=4, structure_signal=0.6,
                    seed=5),
    GeneratorParams(n_nodes=250, num_classes=2, avg_degree=8,
                    topic_vocab_size=50, text_len=16, text_noise=0.2, seed=2),
    GeneratorParams(n_nodes=2000, num_classes=4, avg_degree=8,
                    topic_vocab_size=50, text_len=16, seed=1),
    GeneratorParams(n_nodes=4000, num_classes=3, avg_degree=16,
                    topic_vocab_size=10, text_len=6, text_noise=0.2, seed=2),
]


@pytest.mark.parametrize("params", REFERENCE_CASES)
def test_texts_labels_and_split_equal_the_reference(params):
    new = generate_synthetic_tag(params)
    ref = reference_generate_synthetic_tag(params)
    assert new.texts == ref.texts
    assert np.array_equal(new.labels, ref.labels)
    spec = SplitSpec(0.6, 0.2, 0.2, split_seed=3)
    assert np.array_equal(stratified_split(new, spec).split,
                          stratified_split(ref, spec).split)
    assert new.indices.size == ref.indices.size


def _edge_stats(graph):
    degrees = np.diff(graph.indptr)
    return intra_class_edge_fraction(graph), degrees.mean(), degrees.std()


def test_edge_statistics_agree_with_the_reference():
    """Same edge-set distribution as the one-draw-per-iteration loop: over
    150 seeds of a 200-node graph, the mean intra-class fraction and
    degree std of the two samplers differ by less than 4 standard errors
    of that difference, and the mean degree is the target exactly."""
    new, ref = (np.array([_edge_stats(gen(GeneratorParams(n_nodes=200,
                                                         seed=seed)))
                          for seed in range(150)])
                for gen in (generate_synthetic_tag,
                            reference_generate_synthetic_tag))
    assert np.all(new[:, 1] == 8.0) and np.all(ref[:, 1] == 8.0)
    for col in (0, 2):
        se = np.sqrt((new[:, col].var(ddof=1) + ref[:, col].var(ddof=1))
                     / len(new))
        assert abs(new[:, col].mean() - ref[:, col].mean()) < 4 * se


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(st.tuples(st.integers(0, 5),
                                             st.integers(0, 5)), max_size=40),
       st.lists(st.integers(0, 40), max_size=4), st.integers(0, 20))
def test_new_edges_are_the_first_distinct_non_self_pairs(n, stream, cuts,
                                                         limit):
    """`_append_new_edges` over a stream cut into chunks keeps exactly what
    a loop over the same (u, w) stream keeps."""
    stream = np.array(stream, dtype=np.int64).reshape(-1, 2) % n
    expected = []
    for u, w in stream.tolist():
        key = min(u, w) * n + max(u, w)
        if len(expected) < limit and u != w and key not in expected:
            expected.append(key)
    keys = np.empty(0, dtype=np.int64)
    for chunk in np.split(stream, sorted(cuts)):
        keys = tag._append_new_edges(keys, n, chunk[:, 0], chunk[:, 1],
                                     limit)
    assert keys.dtype == np.int64
    assert keys.tolist() == expected


NODE_OK = [_node_line(0), _node_line(1, label=1)]
SPLIT_OK = ['{"id": 0, "split": "train"}', '{"id": 1, "split": "val"}']

# (file holding the fault, its lines, line number named or None for a
# whole-file fault, message); the other two files hold NODE_OK, "0\t1" and
# SPLIT_OK.
LOADER_ERRORS = [
    ("nodes", [_node_line(0), "{not json"], 2, "bad JSON"),
    ("nodes", [_node_line(0), "5"], 2, "expected an object, got '5'"),
    ("nodes", [_node_line(0), "[1, 2]"], 2, "expected an object"),
    ("nodes", [_node_line(0), '{"text": "x", "label": 0}'], 2,
     "missing field 'id'"),
    ("nodes", [_node_line(0), '{"id": 1, "label": 0}'], 2,
     "missing field 'text'"),
    ("nodes", [_node_line(0), '{"id": 1, "text": "x"}'], 2,
     "missing field 'label'"),
    ("nodes", [_node_line(0), '{"id": "1", "text": "x", "label": 0}'], 2,
     "non-integer id '1'"),
    ("nodes", [_node_line(0), '{"id": 1.0, "text": "x", "label": 0}'], 2,
     "non-integer id 1.0"),
    ("nodes", [_node_line(0), '{"id": true, "text": "x", "label": 0}'], 2,
     "non-integer id True"),
    ("nodes", [_node_line(0), '{"id": 1, "text": "x", "label": "1"}'], 2,
     "non-integer label '1'"),
    ("nodes", [_node_line(0), '{"id": 1, "text": "x", "label": false}'], 2,
     "non-integer label False"),
    ("nodes", [_node_line(0), '{"id": 1, "text": null, "label": 0}'], 2,
     "non-string text None"),
    ("nodes", [_node_line(0), '{"id": 1, "text": 7, "label": 0}'], 2,
     "non-string text 7"),
    ("nodes", [_node_line(0), _node_line(0)], 2, "duplicate id 0"),
    ("nodes", [_node_line(0), _node_line(2)], None,
     r"node ids not dense in \[0, 2\) \(missing e.g. \[1\]\)"),
    ("nodes", [_node_line(1), _node_line(-1)], None, "not dense"),
    ("nodes", [], None, "no nodes"),
    ("nodes", [_node_line(0), _node_line(1, label=2)], 2,
     r"node 1: label 2 out of range \[0, 2\)"),
    ("nodes", [_node_line(0), _node_line(1, label=-1)], 2,
     r"node 1: label -1 out of range"),
    ("nodes", [_node_line(0), _node_line(1, label=2 ** 70)], 2,
     rf"node 1: label {2 ** 70} out of range"),
    ("edges", ["0\t1", "0 1"], 2, r"expected 'u<TAB>v', got '0 1'"),
    ("edges", ["0\t1\t1"], 1, "expected 'u<TAB>v'"),
    ("edges", ["0\tx"], 1, "non-integer endpoint in '0\\\\tx'"),
    ("edges", ["0\t1", "1\t7"], 2, "dangling endpoint 7"),
    ("edges", ["-1\t0"], 1, "dangling endpoint -1"),
    ("splits", [SPLIT_OK[0], "{broken"], 2, "bad JSON"),
    ("splits", [SPLIT_OK[0], "5"], 2, "integer 'id'"),
    ("splits", [SPLIT_OK[0], '{"split": "val"}'], 2, "integer 'id'"),
    ("splits", [SPLIT_OK[0], '{"id": "1", "split": "val"}'], 2,
     "integer 'id'"),
    ("splits", [SPLIT_OK[0], '{"id": true, "split": "val"}'], 2,
     "integer 'id'"),
    ("splits", [SPLIT_OK[0], '{"id": 1, "split": "dev"}'], 2,
     "bad split 'dev'"),
    ("splits", [SPLIT_OK[0], '{"id": 1}'], 2, "bad split None"),
    ("splits", SPLIT_OK + [SPLIT_OK[1]], 3, "node 1 assigned twice"),
    ("splits", [SPLIT_OK[0]], None, "does not cover all nodes"),
    ("splits", [SPLIT_OK[0], '{"id": 5, "split": "val"}'], None,
     "does not cover all nodes"),
    ("splits", [], None, "does not cover all nodes"),
]


@pytest.mark.parametrize("where, lines, lineno, message", LOADER_ERRORS)
def test_loader_error_names_file_line_and_fault(tmp_path, where, lines,
                                                lineno, message):
    files = {"nodes": NODE_OK, "edges": ["0\t1"], "splits": SPLIT_OK}
    files[where] = lines
    paths = {}
    for name, content in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text("".join(line + "\n" for line in content))
    with pytest.raises(GraphFormatError) as err:
        graph = load_graph(paths["nodes"], paths["edges"], num_classes=2)
        load_splits(graph, paths["splits"])
    prefix = f"{paths[where]}:{lineno}: " if lineno else f"{paths[where]}: "
    text = str(err.value)
    assert text.startswith(prefix), text
    assert re.search(message, text[len(prefix):]), text


# Plain endpoints of 3 nodes, then tokens that `int` reads or refuses, out
# of range included.
DIGIT_TOKENS = ["0", "1", "2", "07"]
EDGE_TOKENS = DIGIT_TOKENS + ["3", "0000000000000000001", "+1", "1_0",
                              "\u0663", "-1", "x", str(2 ** 70)]
PLAIN_LINE = st.tuples(st.sampled_from(DIGIT_TOKENS), st.just("\t"),
                       st.sampled_from(DIGIT_TOKENS), st.just(""),
                       st.just("\n"))
ANY_LINE = st.tuples(st.sampled_from(EDGE_TOKENS),
                     st.sampled_from(["\t", " ", "\t\t"]),
                     st.sampled_from(EDGE_TOKENS),
                     st.sampled_from(["", " ", "\t"]),
                     st.sampled_from(["\n", "\r\n", "\n\n"]))


def _edges_by_line_loop(path, n):
    """Rows of the graph the line loop alone reads from `path`, or its
    error message."""
    try:
        u, v = tag._read_edge_lines(path, path.read_bytes(), n)
    except GraphFormatError as e:
        return str(e)
    return _csr_rows(*csr_adjacency(n, u, v))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(PLAIN_LINE, max_size=5), st.lists(ANY_LINE, max_size=2),
       st.integers(0, 5), st.sampled_from(["", "\n", "0\t1", "2"]))
def test_edge_parse_paths_accept_the_same_files(tmp_path, plain, odd, at,
                                                tail):
    """Over edge files of 3 nodes, plain lines with a few odd ones among
    them, `load_graph` gives what the line loop alone gives: the same rows,
    or the same error message."""
    lines = plain[:at] + odd + plain[at:]
    nodes = tmp_path / "nodes.jsonl"
    nodes.write_text("".join(_node_line(i) + "\n" for i in range(3)))
    edges = tmp_path / "edges.tsv"
    edges.write_bytes(("".join(map("".join, lines)) + tail).encode())
    try:
        got = rows_of(load_graph(nodes, edges))
    except GraphFormatError as e:
        got = str(e)
    assert got == _edges_by_line_loop(edges, 3)


def test_saved_edge_file_skips_the_line_loop(tmp_path, micro_tag,
                                             monkeypatch):
    save_graph(micro_tag, tmp_path / "n.jsonl", tmp_path / "e.tsv")
    expected = _edges_by_line_loop(tmp_path / "e.tsv", micro_tag.num_nodes)
    monkeypatch.setattr(tag, "_read_edge_lines", None)
    g = load_graph(tmp_path / "n.jsonl", tmp_path / "e.tsv")
    assert rows_of(g) == expected == rows_of(micro_tag)


def test_label_beyond_int64_rejected_without_num_classes(tmp_path):
    nodes, edges = _write_dataset(
        tmp_path, [_node_line(0), _node_line(1, label=2 ** 70)], [])
    with pytest.raises(GraphFormatError,
                       match=rf":2: node 1: label {2 ** 70} out of range"):
        load_graph(nodes, edges)


def test_nodes_in_any_file_order_load_by_id(tmp_path):
    nodes, edges = _write_dataset(
        tmp_path, [_node_line(2, 1, "c"), _node_line(0, 0, "a"),
                   _node_line(1, 2, "b")], ["2\t0"])
    g = load_graph(nodes, edges)
    assert g.texts == ["a", "b", "c"]
    assert g.labels.tolist() == [0, 2, 1]
    assert rows_of(g) == [[2], [], [0]]


def test_save_graph_writes_json_dumps_bytes(tmp_path):
    texts = ['say "hi"', "back\\slash", "tab\there", "naïve café ☕",
             "line\nbreak", "plain"]
    g = make_graph({0: [3], 1: [], 2: [5], 3: [0], 4: [], 5: [2]},
                   labels=[0, 1, 0, 1, 0, 1], texts=texts,
                   splits=["train", "val", "test", "train", "val", "test"])
    save_graph(g, tmp_path / "n.jsonl", tmp_path / "e.tsv")
    save_splits(g, tmp_path / "s.jsonl")
    assert (tmp_path / "n.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps({"id": i, "text": t, "label": int(g.labels[i])}) + "\n"
        for i, t in enumerate(texts))
    assert (tmp_path / "e.tsv").read_text() == "0\t3\n2\t5\n"
    assert (tmp_path / "s.jsonl").read_text() == "".join(
        json.dumps({"id": i, "split": s}) + "\n" for i, s in
        enumerate(["train", "val", "test", "train", "val", "test"]))
    g2 = load_splits(load_graph(tmp_path / "n.jsonl", tmp_path / "e.tsv"),
                     tmp_path / "s.jsonl")
    assert g2.texts == texts and rows_of(g2) == rows_of(g)
    assert np.array_equal(g2.split, g.split)


def reference_build_adjacency(n, edge_iter):
    """The set-based builder the CSR replaced: symmetrize and deduplicate
    edges into sorted per-node lists."""
    sets = [set() for _ in range(n)]
    for u, v in edge_iter:
        if u == v:
            continue
        sets[u].add(v)
        sets[v].add(u)
    return [sorted(s) for s in sets]


def _csr_rows(indptr, indices):
    return [indices[indptr[v]:indptr[v + 1]].tolist()
            for v in range(len(indptr) - 1)]


class TestCsrAdjacency:
    @pytest.mark.parametrize("n, edges", [
        (1, []),
        (4, []),
        (3, [(0, 1), (1, 0), (0, 1), (1, 2)]),
        (5, [(2, 2), (0, 4), (4, 0), (3, 3)]),
        (6, [(5, 0), (0, 5), (1, 4), (4, 1), (1, 4), (2, 2), (5, 3)]),
        (7, [(6, 1), (1, 6), (3, 3), (0, 2), (2, 0), (6, 5), (5, 6)]),
    ])
    def test_hand_made_edge_lists_match_reference(self, n, edges):
        u = [e[0] for e in edges]
        v = [e[1] for e in edges]
        indptr, indices = csr_adjacency(n, u, v)
        assert _csr_rows(indptr, indices) == \
            reference_build_adjacency(n, edges)
        assert indptr.dtype == indices.dtype == np.int64

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_generated_graphs_match_reference(self, seed):
        g = generate_synthetic_tag(GeneratorParams(
            n_nodes=300, num_classes=3, avg_degree=6, topic_vocab_size=10,
            text_len=4, seed=seed))
        rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
        # Every directed copy of every edge, shuffled, plus self-loops.
        rng = np.random.default_rng(seed)
        loops = rng.integers(0, g.num_nodes, 20)
        u = np.concatenate([rows, g.indices, loops])
        v = np.concatenate([g.indices, rows, loops])
        perm = rng.permutation(len(u))
        u, v = u[perm], v[perm]
        reference = reference_build_adjacency(
            g.num_nodes, zip(u.tolist(), v.tolist()))
        assert rows_of(g) == reference
        assert _csr_rows(*csr_adjacency(g.num_nodes, u, v)) == reference


class TestValidate:
    def _graph(self, rows, **kw):
        """A graph whose CSR rows are taken as given, unsorted included."""
        g = make_graph({v: [] for v in range(len(rows))}, **kw)
        return replace(g, indptr=np.cumsum([0] + [len(r) for r in rows]),
                       indices=np.array([w for r in rows for w in r],
                                        dtype=np.int64))

    @pytest.mark.parametrize("rows, message", [
        ([[1], [0, 2], [1, 3], [2, 5]], "node 3: dangling neighbor 5"),
        ([[1], [0, -1]], "node 1: dangling neighbor -1"),
        ([[1], [0], [2], [3]], "node 2: self-loop"),
        ([[2, 1], [0], [0]], "node 0: neighbor list not sorted"),
        ([[1], [0], [3, 3], [2]], "node 2: neighbor list not sorted and "
                                  "deduplicated"),
        ([[1], [0, 2], [], [1]], r"asymmetric edge \(1, 2\)"),
        ([[], [3], [], []], r"asymmetric edge \(1, 3\)"),
    ])
    def test_names_the_first_offending_node(self, rows, message):
        with pytest.raises(GraphFormatError, match=message):
            self._graph(rows).validate()

    def test_label_out_of_range_names_first_node(self):
        g = make_graph({v: [] for v in range(4)}, labels=[0, 1, 5, -1],
                       num_classes=2)
        with pytest.raises(GraphFormatError,
                           match=r"node 2: label out of range \(5 not"):
            g.validate()

    def test_empty_text_names_first_node(self):
        g = make_graph({v: [] for v in range(3)}, texts=["a", " ", ""])
        with pytest.raises(GraphFormatError, match="node 1: empty text"):
            g.validate()

    @pytest.mark.parametrize("field, value", [
        ("indptr", [0, 1]),
        ("indptr", [0, 2, 1]),
        ("indptr", [1, 1, 2]),
        ("labels", [0]),
    ])
    def test_arrays_must_match_the_node_count(self, field, value):
        g = make_graph({0: [1], 1: [0]})
        g = replace(g, **{field: np.array(value, dtype=np.int64)})
        with pytest.raises(GraphFormatError, match="do not match the node"):
            g.validate()

    def test_valid_graph_passes(self):
        g = self._graph([[1, 2], [0], [0], []])
        assert g.validate() is g
