import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (grad_check, make_graph, neighbors, random_graph,
                      restore, snapshot)
from sagefuse import autodiff as ad
from sagefuse import sage
from sagefuse.metrics import split_metric
from sagefuse.optim import AdamW
from sagefuse.sage import (SageModel, SageConfig, SageEmbeddings,
                           forward_embeddings, mean_aggregation_matrix,
                           neighbor_concat, sage_pass, train_phase1)
from sagefuse.tag import (GeneratorParams, SplitSpec, csr_adjacency,
                          generate_synthetic_tag, stratified_split)


def forward_from_features(model, x, agg):
    """`forward_embeddings` of the node features `x`."""
    return forward_embeddings(model, neighbor_concat(x, agg), agg)


def brute_force_pass(x, graph, w, b):
    """Independent per-node re-derivation of one aggregation layer."""
    out = np.zeros((graph.num_nodes, w.shape[0]))
    for v in range(graph.num_nodes):
        nbrs = neighbors(graph, v)
        agg = (np.mean([x[u] for u in nbrs], axis=0) if nbrs
               else np.zeros(x.shape[1]))
        out[v] = np.maximum(w @ np.concatenate([x[v], agg]) + b, 0.0)
    return out


class TestSagePass:
    def test_single_neighbor_mean_is_that_neighbor(self):
        g = make_graph({0: [1], 1: [0]})
        x = np.array([[1.0, 2.0], [5.0, -3.0]])
        # Weights that copy the aggregated half straight through.
        w = np.hstack([np.zeros((2, 2)), np.eye(2)])
        out = np.asarray(sage_pass(x, mean_aggregation_matrix(g), w,
                                   np.zeros(2)))
        assert np.array_equal(out[0], np.maximum(x[1], 0.0))

    def test_zero_weights_give_zero_outputs(self):
        g = make_graph({0: [1], 1: [0, 2], 2: [1]})
        x = np.random.default_rng(0).normal(0, 1, (3, 4))
        out = np.asarray(sage_pass(x, mean_aggregation_matrix(g),
                                   np.zeros((5, 8)), np.zeros(5)))
        assert np.array_equal(out, np.zeros((3, 5)))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 50)
        x = rng.normal(0, 1, (50, 8))
        w = rng.normal(0, 0.5, (8, 16))
        b = rng.normal(0, 0.1, 8)
        out = np.asarray(sage_pass(x, mean_aggregation_matrix(g), w, b))
        assert np.allclose(out, brute_force_pass(x, g, w, b), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        g = make_graph({0: [1], 1: [0]})
        with pytest.raises(ad.ShapeError, match="sage_pass"):
            sage_pass(np.ones((2, 3)), mean_aggregation_matrix(g),
                      np.ones((4, 5)), np.zeros(4))

    def test_isolated_node_aggregates_zero_vector(self):
        g = make_graph({0: [], 1: [2], 2: [1]})
        x = np.ones((3, 2))
        w = np.hstack([np.zeros((2, 2)), np.eye(2)])
        out = np.asarray(sage_pass(x, mean_aggregation_matrix(g), w,
                                   np.zeros(2)))
        assert np.array_equal(out[0], np.zeros(2))

    def test_aggregation_matrix_rows_average_neighbors(self):
        g = make_graph({0: [1, 2], 1: [0], 2: [0]})
        m = mean_aggregation_matrix(g).toarray()
        assert np.allclose(m[0], [0.0, 0.5, 0.5])
        assert np.allclose(m[1], [1.0, 0.0, 0.0])


def reference_mean_aggregation_matrix(graph, dtype=np.float64):
    """The per-node loop the CSR wrap replaced."""
    n = graph.num_nodes
    rows, cols, vals = [], [], []
    for v in range(n):
        nbrs = neighbors(graph, v)
        if not nbrs:
            continue
        inv = 1.0 / len(nbrs)
        rows.extend([v] * len(nbrs))
        cols.extend(nbrs)
        vals.extend([inv] * len(nbrs))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=dtype)


def _graph_from_edges(n, edges):
    indptr, indices = csr_adjacency(n, [u for u, _ in edges],
                                    [v for _, v in edges])
    g = make_graph({v: [] for v in range(n)})
    g.indptr, g.indices = indptr, indices
    return g.validate()


class TestAggregationMatrixOracle:
    GRAPHS = {
        "isolated": lambda: _graph_from_edges(4, []),
        "duplicates_reversed_loops": lambda: _graph_from_edges(
            6, [(0, 1), (1, 0), (0, 1), (2, 2), (3, 5), (5, 3), (4, 4),
                (5, 0)]),
        "star_with_isolated": lambda: _graph_from_edges(
            7, [(0, v) for v in range(1, 5)] + [(3, 0), (6, 6)]),
        **{f"generated_seed{seed}": (lambda seed=seed: generate_synthetic_tag(
            GeneratorParams(n_nodes=300, num_classes=3, avg_degree=7,
                            topic_vocab_size=10, text_len=4, seed=seed)))
           for seed in range(4)},
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_bit_equal_to_loop_built_matrix(self, name, dtype):
        g = self.GRAPHS[name]()
        got = mean_aggregation_matrix(g, dtype)
        want = reference_mean_aggregation_matrix(g, dtype)
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape
        for field in ("data", "indices", "indptr"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        x = np.random.default_rng(0).normal(0, 1, (g.num_nodes, 5))
        x = x.astype(dtype)
        assert np.array_equal(got @ x, want @ x)


class TestForwardEmbeddings:
    def test_equal_isolated_nodes_get_equal_rows(self):
        g = make_graph({0: [], 1: []})
        x = np.ones((2, 3))
        model = SageModel(in_dim=3, embed_dim=4, hidden=4, num_classes=2)
        p1, p2 = forward_from_features(model, x, mean_aggregation_matrix(g))
        assert np.array_equal(np.asarray(p1)[0], np.asarray(p1)[1])
        assert np.array_equal(np.asarray(p2)[0], np.asarray(p2)[1])

    def test_receptive_fields_one_and_two_hops(self):
        g = make_graph({0: [1], 1: [0, 2], 2: [1]})
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (3, 3))
        model = SageModel(in_dim=3, embed_dim=4, hidden=4, num_classes=2,
                          seed=1)
        # Positive biases keep every unit active so the perturbation cannot
        # be swallowed by a dead rectifier.
        model.b0.value[...] = 0.5
        model.b1.value[...] = 0.5
        agg = mean_aggregation_matrix(g)
        p1a, p2a = map(np.asarray, forward_from_features(model, x, agg))
        x2 = x.copy()
        x2[2] += 1.0
        p1b, p2b = map(np.asarray, forward_from_features(model, x2, agg))
        # Node 2 is two hops from node 0: invisible to pass1, visible to pass2.
        assert np.array_equal(p1a[0], p1b[0])
        assert not np.array_equal(p2a[0], p2b[0])

    def test_star_center_invariant_to_leaf_order(self):
        leaves = list(range(1, 6))
        g1 = make_graph({0: leaves, **{v: [0] for v in leaves}})
        g2 = make_graph({0: list(reversed(leaves)), **{v: [0] for v in leaves}})
        x = np.random.default_rng(3).normal(0, 1, (6, 3))
        model = SageModel(in_dim=3, embed_dim=4, hidden=4, num_classes=2)
        p1a, _ = forward_from_features(model, x, mean_aggregation_matrix(g1))
        p1b, _ = forward_from_features(model, x, mean_aggregation_matrix(g2))
        assert np.array_equal(np.asarray(p1a), np.asarray(p1b))


def _trainable_graph(n=60, seed=0):
    """Small labeled graph with near-separable features for training tests."""
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % 3).tolist()
    g = random_graph(rng, n, edge_prob=0.08)
    g = make_graph({i: neighbors(g, i) for i in range(n)}, labels=labels)
    g = stratified_split(g, SplitSpec(0.6, 0.2, 0.2, split_seed=0))
    x = rng.normal(0, 0.3, (n, 6))
    x[np.arange(n), np.array(labels)] += 3.0
    return g, x


class TestTrainPhase1:
    def test_zero_epochs_returns_initial_embeddings(self):
        g, x = _trainable_graph()
        model = SageModel(in_dim=6, embed_dim=8, hidden=8, num_classes=3)
        with ad.no_grad():
            p1, p2 = forward_from_features(model, x,
                                           mean_aggregation_matrix(g))
        init_p1, init_p2 = np.asarray(p1).copy(), np.asarray(p2).copy()
        result = train_phase1(model, x, g, SageConfig(epochs=0))
        assert np.array_equal(result.embeddings.pass1, init_p1)
        assert np.array_equal(result.embeddings.pass2, init_p2)
        assert result.best_epoch == 0

    def test_separable_features_reach_high_train_accuracy(self):
        # Edgeless graph: aggregation contributes nothing, so the linearly
        # separable features alone must drive training accuracy up.
        n = 60
        labels = (np.arange(n) % 3).tolist()
        g = make_graph({i: [] for i in range(n)}, labels=labels)
        g = stratified_split(g, SplitSpec(0.6, 0.2, 0.2, split_seed=0))
        rng = np.random.default_rng(0)
        x = rng.normal(0, 0.3, (n, 6))
        x[np.arange(n), np.array(labels)] += 3.0
        model = SageModel(in_dim=6, embed_dim=8, hidden=8, num_classes=3)
        result = train_phase1(model, x, g,
                              SageConfig(epochs=200, patience=200))
        # The final-epoch loss implies near-perfect training accuracy; the
        # returned model itself is the best-validation checkpoint, which may
        # legitimately be earlier.
        assert result.loss_trace[-1] < 0.05
        assert result.val_metric >= 0.95

    def test_same_seed_identical_traces(self):
        g, x = _trainable_graph()
        results = []
        for _ in range(2):
            model = SageModel(in_dim=6, embed_dim=8, hidden=8, num_classes=3,
                              seed=7)
            results.append(train_phase1(model, x, g,
                                        SageConfig(epochs=5, patience=5)))
        assert results[0].loss_trace == results[1].loss_trace
        assert results[0].val_trace == results[1].val_trace

    def test_non_finite_input_raises(self):
        g, x = _trainable_graph()
        x = x.copy()
        x[g.split_ids("train")[0], 0] = np.nan
        model = SageModel(in_dim=6, embed_dim=8, hidden=8, num_classes=3)
        with pytest.raises(ad.NumericsError, match="cross_entropy"):
            train_phase1(model, x, g, SageConfig(epochs=3))

    def test_different_seed_different_initial_loss(self):
        g, x = _trainable_graph()
        losses = []
        for seed in (0, 1):
            model = SageModel(in_dim=6, embed_dim=8, hidden=8, num_classes=3,
                              seed=seed)
            result = train_phase1(model, x, g,
                                  SageConfig(epochs=1, patience=1))
            losses.append(result.loss_trace[0])
        assert losses[0] != losses[1]


def reference_train_phase1(model, x, graph, config):
    """The loop before each epoch's validation metric was read off its
    recorded forward: a training forward, then a separate no-grad forward
    for validation, both from `x` and the aggregation matrix."""
    agg = mean_aggregation_matrix(graph, dtype=x.dtype)
    labels = graph.labels
    train_idx = graph.split_ids("train")
    val_idx = graph.split_ids("val")
    opt = AdamW(model.parameters(), lr=config.lr,
                weight_decay=config.weight_decay)

    def eval_val():
        with ad.no_grad():
            _, pass2 = forward_from_features(model, x, agg)
            logits = np.asarray(model.classify(pass2))
        return split_metric(logits[val_idx], labels[val_idx],
                            graph.num_classes)

    best = (eval_val(), 0, snapshot(model.parameters()))
    loss_trace, val_trace, since_best = [], [], 0
    for epoch in range(1, config.epochs + 1):
        opt.zero_grad()
        _, pass2 = forward_from_features(model, x, agg)
        loss = ad.cross_entropy(ad.gather_rows(model.classify(pass2),
                                               train_idx), labels[train_idx])
        ad.backward(loss)
        opt.step()
        val_metric = eval_val()
        loss_trace.append(float(ad.val(loss)))
        val_trace.append(float(val_metric))
        if val_metric > best[0]:
            best = (val_metric, epoch, snapshot(model.parameters()))
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    restore(model.parameters(), best[2])
    with ad.no_grad():
        pass1, pass2 = forward_from_features(model, x, agg)
    embeddings = SageEmbeddings(pass1=np.asarray(pass1),
                                pass2=np.asarray(pass2))
    return embeddings, best[1], float(best[0]), loss_trace, val_trace


class TestOneForwardPerEpoch:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("epochs, patience", [(40, 3), (0, 5), (12, 12)])
    def test_bitwise_equal_to_two_forward_loop(self, dtype, epochs,
                                               patience):
        g, x = _trainable_graph()
        x = x.astype(dtype)
        config = SageConfig(epochs=epochs, patience=patience, lr=5e-2)

        def model():
            return SageModel(in_dim=6, embed_dim=8, hidden=8, num_classes=3,
                             seed=3, dtype=dtype)

        ref_model = model()
        emb, best_epoch, val_metric, loss_trace, val_trace = \
            reference_train_phase1(ref_model, x, g, config)
        new_model = model()
        result = train_phase1(new_model, x, g, config)
        if (epochs, patience) == (40, 3):
            assert len(loss_trace) < epochs  # the case stops early
        assert result.loss_trace == loss_trace
        assert result.val_trace == val_trace
        assert result.best_epoch == best_epoch
        assert result.val_metric == val_metric
        for name in ("pass1", "pass2"):
            got = getattr(result.embeddings, name)
            assert got.dtype == dtype
            assert got.tobytes() == getattr(emb, name).tobytes()
        for p, q in zip(new_model.parameters(), ref_model.parameters()):
            assert p.value.tobytes() == q.value.tobytes(), p.name

    def test_one_forward_per_epoch_and_one_first_hop(self, monkeypatch):
        g, x = _trainable_graph()
        forwards, first_hops = [], []
        forward, matmul = sage.forward_embeddings, ad.sparse_matmul

        def counting_forward(*args, **kwargs):
            forwards.append(1)
            return forward(*args, **kwargs)

        def counting_matmul(m, operand):
            first_hops.append(operand is x)
            return matmul(m, operand)

        monkeypatch.setattr(sage, "forward_embeddings", counting_forward)
        monkeypatch.setattr(ad, "sparse_matmul", counting_matmul)
        model = SageModel(in_dim=6, embed_dim=8, hidden=8, num_classes=3)
        result = train_phase1(model, x, g, SageConfig(epochs=30, patience=4))
        epochs_run = len(result.loss_trace)
        assert 0 < epochs_run < 30
        # The two-forward loop made 2 * epochs_run + 2 calls.
        assert len(forwards) == epochs_run + 2
        assert sum(first_hops) == 1
        # The other calls aggregate pass-1 states, one per forward.
        assert len(first_hops) == 1 + len(forwards)


class CountingTransposeCSR(sp.csr_matrix):
    """A CSR matrix that counts the transposes built from it."""
    transposes = 0

    def transpose(self, *args, **kwargs):
        type(self).transposes += 1
        return super().transpose(*args, **kwargs)


class TestSparseMatmulTranspose:
    @pytest.fixture
    def counted(self, monkeypatch):
        monkeypatch.setattr(CountingTransposeCSR, "transposes", 0)
        g = random_graph(np.random.default_rng(4), 30)
        return CountingTransposeCSR(mean_aggregation_matrix(g))

    def test_no_transpose_without_backward(self, counted):
        x = np.random.default_rng(5).normal(0, 1, (30, 4))
        w = ad.Parameter(x.copy(), name="w")
        with ad.no_grad():
            ad.sparse_matmul(counted, w)
        out = ad.sparse_matmul(counted, x)  # constant input, graph enabled
        assert not isinstance(out, ad.Node)
        assert CountingTransposeCSR.transposes == 0

    def test_backward_uses_the_transpose(self, counted):
        rng = np.random.default_rng(6)
        w = ad.Parameter(rng.normal(0, 1, (30, 4)), name="w")
        coeff = rng.normal(0, 1, (30, 4))
        ad.backward(ad.sum_(ad.mul(ad.sparse_matmul(counted, w), coeff)))
        assert CountingTransposeCSR.transposes >= 1
        reference = sp.csr_matrix(counted).T.tocsr() @ coeff
        assert w.grad.tobytes() == np.asarray(reference).tobytes()


def test_gradients_match_finite_differences():
    g, x = _trainable_graph(n=20)
    model = SageModel(in_dim=6, embed_dim=4, hidden=4, num_classes=3)
    # Zero-initialized biases put some rectifier inputs exactly on the
    # kink, where central differences disagree with the one-sided analytic
    # convention; nudge every bias off it.
    rng = np.random.default_rng(9)
    for p in model.parameters():
        if p.value.ndim == 1:
            p.value[...] = rng.normal(0, 0.05, p.value.shape)
    labels = g.labels
    train_idx = g.split_ids("train")

    def loss_fn():
        _, p2 = forward_from_features(model, x, mean_aggregation_matrix(g))
        logits = model.classify(p2)
        return ad.cross_entropy(ad.gather_rows(logits, train_idx),
                                labels[train_idx])

    report = grad_check(model.parameters(), loss_fn, samples_per_tensor=16)
    assert report.ok, report.summary()
