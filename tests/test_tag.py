import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_graph, random_graph
from sagefuse.tag import (GeneratorParams, GraphFormatError, NodeRecord,
                          SplitSpec, TextAttributedGraph,
                          generate_synthetic_tag, intra_class_edge_fraction,
                          load_graph, load_splits, save_graph, save_splits,
                          stratified_split)


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
        assert g.adjacency == [[1], [0, 2], [1]]

    def test_duplicate_and_reversed_edges_deduplicated(self, tmp_path):
        nodes, edges = _write_dataset(
            tmp_path, [_node_line(i) for i in range(2)], ["1\t0", "0\t1"])
        g = load_graph(nodes, edges)
        assert len(g.neighbors(0)) == 1

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

    def test_round_trip(self, tmp_path):
        g = generate_synthetic_tag(GeneratorParams(
            n_nodes=80, num_classes=2, avg_degree=4, topic_vocab_size=10,
            text_len=5, seed=3))
        save_graph(g, tmp_path / "n.jsonl", tmp_path / "e.tsv")
        g2 = load_graph(tmp_path / "n.jsonl", tmp_path / "e.tsv")
        assert g2.adjacency == g.adjacency
        assert [r.text for r in g2.nodes] == [r.text for r in g.nodes]
        assert np.array_equal(g2.labels(), g.labels())

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
        assert g2.adjacency == g.adjacency


class TestGraphInvariants:
    def test_neighbors_of_path_graph(self):
        g = make_graph({0: [1], 1: [0, 2], 2: [1]})
        assert g.neighbors(1) == [0, 2]

    def test_isolated_node_has_no_neighbors(self):
        g = make_graph({0: [], 1: [2], 2: [1]})
        assert g.neighbors(0) == []

    def test_invalid_node_id_rejected(self):
        g = make_graph({0: [1], 1: [0]})
        with pytest.raises(GraphFormatError):
            g.neighbors(5)

    def test_validate_catches_asymmetry(self):
        g = TextAttributedGraph(
            nodes=[NodeRecord(0, "a", 0), NodeRecord(1, "b", 0)],
            adjacency=[[1], []], num_classes=1)
        with pytest.raises(GraphFormatError, match="asymmetric"):
            g.validate()

    def test_validate_catches_self_loop(self):
        g = TextAttributedGraph(
            nodes=[NodeRecord(0, "a", 0)], adjacency=[[0]], num_classes=1)
        with pytest.raises(GraphFormatError, match="self-loop"):
            g.validate()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_graph_symmetry_brute_force(self, seed):
        g = random_graph(np.random.default_rng(seed), 50)
        for u in range(50):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)


class TestStratifiedSplit:
    def test_exact_divisibility(self):
        labels = [i % 2 for i in range(100)]
        g = make_graph({i: [] for i in range(100)}, labels=labels)
        split = stratified_split(g, SplitSpec(0.8, 0.1, 0.1, split_seed=0))
        for c in range(2):
            counts = {s: sum(1 for n in split.nodes
                             if n.label == c and n.split == s)
                      for s in ("train", "val", "test")}
            assert counts == {"train": 40, "val": 5, "test": 5}

    def test_remainder_goes_to_train(self):
        # 11 nodes at 80/10/10: round(1.1)=1 val, 1 test, remainder 9 train.
        g = make_graph({i: [] for i in range(11)})
        split = stratified_split(g, SplitSpec(0.8, 0.1, 0.1, split_seed=0))
        counts = [sum(1 for n in split.nodes if n.split == s)
                  for s in ("train", "val", "test")]
        assert counts == [9, 1, 1]

    def test_large_graph_proportions_within_one_node(self):
        sizes = [20000, 16000, 10198]  # 46,198 nodes total
        labels = np.repeat(np.arange(3), sizes)
        g = make_graph({i: [] for i in range(46198)}, labels=labels.tolist())
        split = stratified_split(g, SplitSpec(0.54, 0.18, 0.28, split_seed=0))
        frac = {"train": 0.54, "val": 0.18, "test": 0.28}
        by_class = {}
        for n in split.nodes:
            by_class.setdefault(n.label, {"train": 0, "val": 0, "test": 0})
            by_class[n.label][n.split] += 1
        for c, size in enumerate(sizes):
            for s, f in frac.items():
                assert abs(by_class[c][s] - f * size) <= 1.0

    def test_every_node_assigned_exactly_once(self, micro_tag):
        assert all(n.split in ("train", "val", "test")
                   for n in micro_tag.nodes)

    def test_deterministic_given_seed(self):
        g = make_graph({i: [] for i in range(30)},
                       labels=[i % 3 for i in range(30)], num_classes=3)
        a = stratified_split(g, SplitSpec(0.6, 0.2, 0.2, split_seed=4))
        b = stratified_split(g, SplitSpec(0.6, 0.2, 0.2, split_seed=4))
        assert [n.split for n in a.nodes] == [n.split for n in b.nodes]

    def test_tiny_class_rejected(self):
        g = make_graph({i: [] for i in range(10)},
                       labels=[0] * 8 + [1] * 2, num_classes=2)
        with pytest.raises(GraphFormatError, match="class 1"):
            stratified_split(g, SplitSpec(0.8, 0.1, 0.1))

    def test_bad_fractions_rejected(self):
        with pytest.raises(GraphFormatError, match="sum"):
            SplitSpec(0.8, 0.1, 0.2)

    def test_splits_file_round_trip(self, tmp_path, micro_tag):
        save_splits(micro_tag, tmp_path / "s.jsonl")
        bare = TextAttributedGraph(
            nodes=[NodeRecord(n.id, n.text, n.label) for n in micro_tag.nodes],
            adjacency=micro_tag.adjacency, num_classes=micro_tag.num_classes)
        loaded = load_splits(bare, tmp_path / "s.jsonl")
        assert [n.split for n in loaded.nodes] == \
               [n.split for n in micro_tag.nodes]

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
        for rec in g.nodes:
            buckets = {int(tok[1:]) // p.topic_vocab_size
                       for tok in rec.text.split()}
            assert buckets == {rec.label}

    def test_intra_class_edge_fraction_near_target(self):
        g = generate_synthetic_tag(GeneratorParams())
        assert abs(intra_class_edge_fraction(g) - 0.9) <= 0.03

    def test_byte_identical_given_seed(self):
        p = GeneratorParams(n_nodes=120, num_classes=3, avg_degree=5,
                            topic_vocab_size=8, text_len=4, seed=11)
        a, b = generate_synthetic_tag(p), generate_synthetic_tag(p)
        assert [r.text for r in a.nodes] == [r.text for r in b.nodes]
        assert a.adjacency == b.adjacency
        assert np.array_equal(a.labels(), b.labels())

    def test_different_seeds_differ(self):
        a = generate_synthetic_tag(GeneratorParams(n_nodes=120, seed=1))
        b = generate_synthetic_tag(GeneratorParams(n_nodes=120, seed=2))
        assert [r.text for r in a.nodes] != [r.text for r in b.nodes]

    def test_degenerate_params_rejected(self):
        with pytest.raises(GraphFormatError):
            GeneratorParams(n_nodes=30, num_classes=4).validate()
        with pytest.raises(GraphFormatError):
            GeneratorParams(structure_signal=0.4).validate()
        with pytest.raises(GraphFormatError):
            GeneratorParams(text_noise=1.0).validate()

    def test_generated_graph_satisfies_invariants(self):
        g = generate_synthetic_tag(GeneratorParams(n_nodes=150, seed=2))
        g.validate()

    def test_average_degree_near_target(self):
        g = generate_synthetic_tag(GeneratorParams(n_nodes=500, seed=0))
        degrees = [len(a) for a in g.adjacency]
        assert abs(np.mean(degrees) - 8.0) < 0.5
