import dataclasses
import inspect
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (audit_parameters, backbone_arrays, backbone_size,
                      grad_check, make_graph, neighbors, random_graph,
                      restore, snapshot, token_inputs)
from sagefuse import autodiff as ad
from sagefuse import pipeline, trainer
from sagefuse.config import ConfigError, ExperimentConfig
from sagefuse.metrics import MetricError
from sagefuse.optim import AdamW, fit
from sagefuse.sage import SageConfig, SageModel
from sagefuse.tag import SplitSpec, stratified_split
from sagefuse.textenc import (ENCODE_BATCH, BackboneConfig, EncoderBackbone,
                              build_vocab, tokenize_graph)
from sagefuse.trainer import (Phase2Assembly, Phase2Inputs, RunConfig,
                              derive_seed, evaluate, prompt_ablation,
                              rank_ablation, run_phase2_seed, seed_sweep,
                              train_phase2)


@dataclasses.dataclass
class Setup:
    graph: object
    vocab: object
    backbone: object
    pass1: object
    pass2: object
    ids: object
    mask: object
    config: RunConfig

    @property
    def inputs(self):
        return token_inputs(self.graph, self.backbone, self.ids, self.mask,
                            self.pass1, self.pass2)


def _setup(num_classes=3, n=48, seed=0, precision="f64", heads=2,
           **config_overrides):
    rng = np.random.default_rng(seed)
    labels = (np.arange(n) % num_classes).tolist()
    base = random_graph(rng, n, edge_prob=0.1)
    texts = [f"w{labels[i] * 5 + int(rng.integers(5))} "
             f"w{labels[i] * 5 + int(rng.integers(5))}" for i in range(n)]
    graph = make_graph({i: neighbors(base, i) for i in range(n)},
                       labels=labels, texts=texts)
    graph = stratified_split(graph, SplitSpec(0.6, 0.2, 0.2, split_seed=0))
    vocab = build_vocab(graph)
    backbone = EncoderBackbone(BackboneConfig(
        dim=16, heads=heads, layers=4, mlp_width=32, max_tokens=8, seed=0,
        precision=precision), vocab.size)
    g = 8
    emb_rng = np.random.default_rng(1)
    pass1, pass2 = ((emb_rng.normal(0, 0.5, (n, g))
                     + np.eye(num_classes, g)[labels] * 2.0)
                    .astype(backbone.config.dtype) for _ in range(2))
    kwargs = dict(epochs=1, patience=2, seeds=(0,), seq_len=8, rank=2,
                  pass1_layers=(1,), pass2_layers=(3,), batch_size=16)
    kwargs.update(config_overrides)
    config = RunConfig(**kwargs)
    ids, mask = tokenize_graph(graph, vocab, config.prompt, config.seq_len)
    return Setup(graph, vocab, backbone, pass1, pass2, ids, mask, config)


@pytest.fixture(scope="module")
def setup():
    return _setup()


class TestRunConfig:
    def test_defaults_match_training_protocol(self):
        cfg = RunConfig()
        assert cfg.lr == 3e-4
        assert cfg.weight_decay == 1e-2
        assert cfg.batch_size == 32
        assert cfg.seeds == (0, 1, 2, 3, 4)

    def test_text_only_disables_both_mechanisms(self):
        assert RunConfig(baseline="text_only").toggles() == (False, False)
        assert RunConfig(baseline="lora_only").toggles() == (False, True)
        assert RunConfig(baseline="fused").toggles() == (True, True)

    def test_explicit_placement_wins_over_default(self):
        cfg = RunConfig(pass1_layers=(2,), pass2_layers=(5,))
        assert cfg.placement(12) == ((2,), (5,))
        assert RunConfig().placement(12) == ([5, 6, 7], [9, 10, 11])

    def test_first_adapted_layer_bounds_the_frozen_prefix(self):
        assert RunConfig(pass1_layers=(2, 4),
                         pass2_layers=(3,)).first_adapted_layer(6) == 2
        assert RunConfig().first_adapted_layer(12) == 5
        assert RunConfig(baseline="lora_only").first_adapted_layer(12) == 5
        assert RunConfig(baseline="text_only").first_adapted_layer(12) == 12


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(0, "lora", 1, "q") == derive_seed(0, "lora", 1, "q")
        assert derive_seed(0, "lora", 1, "q") != derive_seed(0, "lora", 1, "k")
        assert derive_seed(0, "head") != derive_seed(1, "head")


class TestSeedSweep:
    def test_mean_and_sample_std(self):
        class R:
            def __init__(self, seed, m):
                self.seed, self.test_metric = seed, m

        values = {0: 0.6, 1: 0.7}
        report = seed_sweep(lambda s: R(s, values[s]), [0, 1], "fused",
                            "accuracy")
        assert report.metric_mean == pytest.approx(0.65, abs=1e-12)
        assert report.metric_std == pytest.approx(0.0707107, abs=1e-6)

    def test_identical_metrics_give_zero_std(self):
        class R:
            def __init__(self, seed):
                self.seed, self.test_metric = seed, 0.5

        report = seed_sweep(R, [0, 1, 2], "fused", "accuracy")
        assert report.metric_std == 0.0

    def test_single_seed_omits_std(self):
        class R:
            def __init__(self, seed):
                self.seed, self.test_metric = seed, 0.5

        assert seed_sweep(R, [0], "fused", "accuracy").metric_std is None

    def test_aggregation_is_seed_order_independent(self):
        class R:
            def __init__(self, seed):
                self.seed, self.test_metric = seed, seed / 10.0

        a = seed_sweep(R, [0, 1, 2], "fused", "accuracy")
        b = seed_sweep(R, [2, 0, 1], "fused", "accuracy")
        assert [r.seed for r in a.per_seed] == [r.seed for r in b.per_seed]
        assert a.metric_mean == b.metric_mean


class TestPhase2Training:
    def test_zero_epochs_reports_untrained_metric_and_leaves_frozen_bits(
            self, setup):
        cfg = dataclasses.replace(setup.config, epochs=0)
        backbone_before = [a.copy() for a in backbone_arrays(setup.backbone)]
        emb_before = (setup.pass1.copy(), setup.pass2.copy())
        result = run_phase2_seed(setup.backbone, setup.inputs, cfg, seed=0)
        assert 0.0 <= result.test_metric <= 1.0
        assert result.best_epoch == 0
        assert result.loss_trace == []
        for a, before in zip(backbone_arrays(setup.backbone),
                             backbone_before):
            assert np.array_equal(a, before)
        assert np.array_equal(setup.pass1, emb_before[0])
        assert np.array_equal(setup.pass2, emb_before[1])

    def test_frozen_tensors_unchanged_after_training(self, setup):
        backbone_before = [a.copy() for a in backbone_arrays(setup.backbone)]
        run_phase2_seed(setup.backbone, setup.inputs, setup.config, seed=0)
        for a, before in zip(backbone_arrays(setup.backbone),
                             backbone_before):
            assert np.array_equal(a, before)

    def test_deterministic_per_seed(self, setup):
        a = run_phase2_seed(setup.backbone, setup.inputs, setup.config,
                            seed=3)
        b = run_phase2_seed(setup.backbone, setup.inputs, setup.config,
                            seed=3)
        assert a.loss_trace == b.loss_trace
        assert a.val_trace == b.val_trace
        assert a.test_metric == b.test_metric

    def test_text_only_baseline_reports_finite_metric(self, setup):
        cfg = dataclasses.replace(setup.config, baseline="text_only")
        report = train_phase2(setup.backbone, setup.inputs, cfg)
        assert report.baseline == "text_only"
        assert np.isfinite(report.metric_mean)

    @pytest.mark.parametrize("baseline", ["fused", "text_only"])
    def test_inputs_at_layer_0_and_at_the_prefix_layer_train_alike(
            self, setup, baseline):
        cfg = dataclasses.replace(setup.config, seeds=(0, 1),
                                  baseline=baseline)
        tokens = setup.inputs
        assert tokens.layer == 0
        at_prefix = tokens.at_layer(setup.backbone,
                                    cfg.first_adapted_layer(4))
        assert at_prefix.layer == (4 if baseline == "text_only" else 1)
        assert at_prefix.at_layer(setup.backbone, at_prefix.layer) is \
            at_prefix
        reports = [train_phase2(setup.backbone, inputs, cfg)
                   for inputs in (tokens, at_prefix)]
        assert reports[0].as_dict() == \
            reports[1].as_dict()

    @pytest.mark.parametrize("overrides", [
        {}, {"baseline": "lora_only"}, {"baseline": "text_only"},
        {"tying": "shared"}, {"rank": 3},
        {"pass1_layers": (0, 1), "pass2_layers": (2, 3)}])
    def test_report_audit_equals_the_registry_walk(self, setup, overrides):
        cfg = dataclasses.replace(setup.config, **overrides)
        probe = Phase2Assembly(setup.backbone, setup.inputs, cfg, seed=0)
        gnn = SageModel(in_dim=16, embed_dim=8, hidden=6, num_classes=3)
        walked = audit_parameters(
            [("gnn", p) for p in gnn.parameters()] + probe.registry(),
            backbone_size(setup.backbone))
        # The experiment config `run_phase2` audits its report with.
        exp = ExperimentConfig(backbone=setup.backbone.config,
                               sage=SageConfig(embed_dim=8,
                                               classifier_hidden=6))
        exp.dataset.num_classes = 3
        for section in (exp.fusion, exp.trainer):
            for f in dataclasses.fields(section):
                setattr(section, f.name, getattr(cfg, f.name))
        assert pipeline._audit(exp, setup.vocab.size) == walked

    def test_shared_tying_lists_each_parameter_once(self, setup):
        cfg = dataclasses.replace(setup.config, tying="shared")
        assembly = Phase2Assembly(setup.backbone, setup.inputs, cfg, seed=0)
        assert assembly.adapters[1].w_c is assembly.lora[1]["o"].b
        params = assembly.trainable_parameters()
        assert len({id(p) for p in params}) == len(params)
        lora = [f"lora.layer{layer}.{t}.{f}" for layer in (1, 3)
                for t in "qkvo" for f in "ab"]
        assert [p.name for p in params] == [
            "fusion.layer1.w_b", "fusion.layer1.gate_logit",
            "fusion.layer3.w_b", "fusion.layer3.gate_logit", *lora,
            "head.w", "head.b"]

    def test_report_serializes_without_wall_clock(self, setup):
        report = train_phase2(setup.backbone, setup.inputs, setup.config)
        d = report.as_dict()
        assert "wall_clock_sec" not in d
        assert d["audit"] is None  # `run_phase2` audits the report it writes
        assert d["metric_name"] == "accuracy"

    def test_evaluate_rejects_empty_split(self, setup):
        assembly = Phase2Assembly(setup.backbone, setup.inputs, setup.config,
                                  0)
        bare = make_graph({0: [1], 1: [0]}, labels=[0, 1])
        with pytest.raises(MetricError, match="split 'val' is empty"):
            evaluate(assembly, token_inputs(
                bare, setup.backbone, setup.ids, setup.mask, setup.pass1,
                setup.pass2), "val")

    def test_gate_receives_nonzero_gradient_on_task_loss(self, setup):
        assembly = Phase2Assembly(setup.backbone, setup.inputs, setup.config,
                                  0)
        rng = np.random.default_rng(2)
        for p in assembly.trainable_parameters():
            p.value[...] = rng.normal(0, 0.05, p.value.shape)
        batch = setup.graph.split_ids("train")[:8]
        loss = ad.cross_entropy(assembly.logits(setup.inputs, batch),
                                setup.graph.labels[batch])
        ad.backward(loss)
        grads = [abs(float(a.gate_logit.grad))
                 for a in assembly.adapters.values()]
        assert max(grads) > 1e-10

    def test_non_finite_input_raises(self, setup):
        inputs = setup.inputs
        states = inputs.states.copy()
        states[inputs.split_ids("train")[0]] = np.nan
        with pytest.raises(ad.NumericsError, match="cross_entropy"):
            run_phase2_seed(setup.backbone,
                            dataclasses.replace(inputs, states=states),
                            setup.config, seed=0)


def reference_run_phase2_seed(backbone, inputs, config, seed):
    """The phase-2 loop as it was written out before both phases shared
    `optim.fit`: (test metric, best epoch, loss trace, val trace, assembly)."""
    assembly = Phase2Assembly(backbone, inputs, config, seed)
    params = assembly.trainable_parameters()
    labels = inputs.labels
    train_idx = inputs.split_ids("train")
    opt = AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
    rng = np.random.default_rng(derive_seed(seed, "shuffle"))

    best_val = evaluate(assembly, inputs, "val")
    best = (best_val, 0, snapshot(params))
    loss_trace, val_trace = [], [float(best_val)]
    since_best = 0
    for epoch in range(1, config.epochs + 1):
        order = train_idx[rng.permutation(len(train_idx))]
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            opt.zero_grad()
            logits = assembly.logits(inputs, batch)
            loss = ad.cross_entropy(logits, labels[batch])
            ad.backward(loss)
            opt.step()
            epoch_loss += float(ad.val(loss)) * len(batch)
        loss_trace.append(epoch_loss / len(order))
        val = evaluate(assembly, inputs, "val")
        val_trace.append(float(val))
        if val > best[0]:
            best = (val, epoch, snapshot(params))
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    restore(params, best[2])
    test = evaluate(assembly, inputs, "test")
    return float(test), best[1], loss_trace, val_trace, assembly


class TestSharedLoop:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("epochs, patience", [(12, 2), (0, 2)])
    def test_bitwise_equal_to_the_loop_it_replaced(self, precision, epochs,
                                                   patience):
        s = _setup(precision=precision, epochs=epochs, patience=patience,
                   lr=0.05)
        test, best_epoch, loss_trace, val_trace, ref = \
            reference_run_phase2_seed(s.backbone, s.inputs, s.config, seed=0)
        result = run_phase2_seed(s.backbone, s.inputs, s.config, seed=0)
        if epochs:
            assert 0 < best_epoch and len(loss_trace) < epochs  # stops early
        assert result.loss_trace == loss_trace
        assert result.val_trace == val_trace
        assert result.best_epoch == best_epoch
        assert result.test_metric == test
        params = result.assembly.trainable_parameters()
        assert params[0].value.dtype == s.backbone.config.dtype
        for p, q in zip(params, ref.trainable_parameters()):
            assert p.name == q.name
            assert p.value.tobytes() == q.value.tobytes(), p.name

    def test_a_second_step_holds_no_second_graph(self, setup):
        # Traced peak of `fit` over one and two identical minibatch steps:
        # the second forward must not run while the first graph is alive.
        inputs = setup.inputs
        batch = inputs.split_ids("train")[:16]

        def fit_peak(steps):
            assembly = Phase2Assembly(setup.backbone, inputs, setup.config, 0)

            def epoch_losses(epoch):
                for _ in range(steps):
                    yield (ad.cross_entropy(assembly.logits(inputs, batch),
                                            inputs.labels[batch]), len(batch))

            tracemalloc.start()
            try:
                fit(assembly.trainable_parameters(), setup.config,
                    epoch_losses, lambda: 0.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, two = fit_peak(1), fit_peak(2)
        assert two <= 1.1 * one, (one, two)


class TestEvalPieces:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize(
        "sizes", [(1,), (2,), (ENCODE_BATCH,), (ENCODE_BATCH + 1,),
                  (ENCODE_BATCH, ENCODE_BATCH + 1),
                  (ENCODE_BATCH, ENCODE_BATCH, 22)],
        ids=lambda sizes: f"n{sum(sizes)}")
    def test_predict_logits_equal_one_piece_passes(self, precision, heads,
                                                   sizes):
        # The pieces of n rows hold ENCODE_BATCH rows each, and a lone last
        # row joins the piece before it (n = 65 and 129): the head's and the
        # adapters' 2-D products on that row alone take another BLAS path.
        s = _setup(n=150, precision=precision, heads=heads)
        inputs = s.inputs
        assembly = Phase2Assembly(s.backbone, inputs, s.config, seed=0)
        rng = np.random.default_rng(0)
        for p in assembly.trainable_parameters():
            p.value[...] = rng.normal(0, 0.05, p.value.shape)
        node_ids = rng.permutation(150)[:sum(sizes)]
        bounds = np.cumsum((0, *sizes))
        with ad.no_grad():
            want = np.concatenate([assembly.logits(inputs, node_ids[lo:hi])
                                   for lo, hi in zip(bounds, bounds[1:])])
        got = trainer.predict_logits(assembly, inputs, node_ids)
        assert got.dtype == want.dtype == s.backbone.config.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch_size, sizes", [(16, [16, 17]),
                                               (1, [1] * 33)])
def test_training_minibatches_follow_the_lone_row_rule(monkeypatch,
                                                       batch_size, sizes):
    # 33 train rows: at batch 16 the lone last row joins the minibatch
    # before it, as in `textenc.row_pieces`; at batch 1 each row trains
    # alone.
    s = _setup(n=51, epochs=2, patience=2, batch_size=batch_size)
    assert len(s.inputs.split_ids("train")) == 33
    seen = []
    logits = Phase2Assembly.logits

    def spy(self, inputs, node_ids):
        if ad._GRAD_ENABLED:
            seen.append(len(node_ids))
        return logits(self, inputs, node_ids)

    monkeypatch.setattr(Phase2Assembly, "logits", spy)
    run_phase2_seed(s.backbone, s.inputs, s.config, seed=0)
    assert seen == sizes * 2


def test_forward_keeps_only_what_backward_reads():
    # One fused training step at the configs/micro.cfg encoder shape (f32),
    # on 64 rows of 16 tokens. After the forward pass the graph may hold
    # only the arrays the backward closures read, counted below from the
    # shapes, plus 15% for the records, closures and array headers.
    layers, d, heads, m, r, g, c = 4, 16, 2, 32, 2, 8, 3
    b, t, n = 64, 16, 96
    backbone = EncoderBackbone(BackboneConfig(
        layers=layers, dim=d, heads=heads, mlp_width=m, max_tokens=t,
        precision="f32"), vocab_size=40)
    config = RunConfig(rank=r, pass1_layers=(1,), pass2_layers=(3,),
                       batch_size=b, seq_len=t)
    rng = np.random.default_rng(0)
    inputs = Phase2Inputs(
        labels=np.arange(n) % c, split=np.zeros(n, np.int8), num_classes=c,
        mask=np.ones((n, t)), layer=1,
        states=rng.normal(0, 1, (n, t, d)).astype(np.float32),
        pass1=rng.normal(0, 1, (n, g)).astype(np.float32),
        pass2=rng.normal(0, 1, (n, g)).astype(np.float32))
    assembly = Phase2Assembly(backbone, inputs, config, seed=0)
    batch = np.arange(b)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = ad.cross_entropy(assembly.logits(inputs, batch),
                                inputs.labels[batch])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    bt, btd, btr = b * t, b * t * d, b * t * r
    # Every layer from the first adapted one: both layernorms' xhat and
    # 1/std, the attention's q, k, v and softmax, and the MLP ReLU's bool
    # mask.
    layer = 5 * btd + 2 * bt + b * heads * t * t
    # LoRA on q, k, v, o: the shared layernorm output and the attention
    # output under A, each rank-r activation under B.
    lora = 2 * btd + 4 * btr
    # Fusion: h1 under W_A, the gated text part and the blend under W_C,
    # the structural part and h2.
    fusion = btd + 2 * btr + b * r + b * g
    # Readout layernorm, pooling weights, features under the head, logits.
    head = btd + 2 * bt + b * d + b * c
    floats = (layers - 1) * layer + 2 * lora + 2 * fusion + head
    bound = 1.15 * (4 * floats + (layers - 1) * bt * m)
    assert retained <= bound, (retained, bound)

    ad.backward(loss)
    params = assembly.trainable_parameters()
    assert all(np.isfinite(p.grad).all() for p in params)
    AdamW(params, lr=0.01).step()


class TestAblations:
    def test_rank_table_has_strictly_increasing_counts(self, setup):
        rows = rank_ablation(setup.backbone, setup.inputs, setup.config,
                             ranks=(1, 2, 4))
        assert [r["rank"] for r in rows] == [1, 2, 4]
        counts = [r["trainable_params"] for r in rows]
        assert counts == sorted(counts) and len(set(counts)) == 3
        for row in rows:
            probe = Phase2Assembly(
                setup.backbone, setup.inputs,
                dataclasses.replace(setup.config, rank=row["rank"]), seed=0)
            assert row["trainable_params"] == \
                sum(p.size for p in probe.trainable_parameters())

    def test_rank_sweeps_run_the_states_forward_once(self, setup,
                                                     monkeypatch):
        tokens = setup.inputs
        layer = setup.config.first_adapted_layer(4)
        at_prefix = tokens.at_layer(setup.backbone, layer)
        calls = []
        real = trainer.prefix_states
        signature = inspect.signature(real)

        def spy(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments["stop"])
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "prefix_states", spy)
        rank_ablation(setup.backbone, tokens, setup.config, ranks=(1, 2, 4))
        assert calls == [layer]
        calls.clear()
        rank_ablation(setup.backbone, at_prefix, setup.config,
                      ranks=(1, 2, 4))
        assert calls == []

    def test_rank_zero_rejected(self, setup):
        with pytest.raises(ConfigError, match=re.escape(
                "[fusion] rank must lie in [1, inf), got 0")):
            rank_ablation(setup.backbone, setup.inputs, setup.config,
                          ranks=(0,))

    def test_single_empty_prompt_equals_base_run(self, setup):
        base = train_phase2(setup.backbone, setup.inputs, setup.config)
        rows = prompt_ablation(setup.backbone, setup.inputs, setup.graph,
                               setup.vocab, setup.config, prompts=[""])
        assert rows[0]["metric_mean"] == base.metric_mean

    def test_two_prompts_two_ordered_rows(self, setup):
        rows = prompt_ablation(setup.backbone, setup.inputs, setup.graph,
                               setup.vocab, setup.config,
                               prompts=["classify:", ""])
        assert [r["prompt"] for r in rows] == ["classify:", ""]

    def test_empty_prompt_list_rejected(self, setup):
        with pytest.raises(ConfigError):
            prompt_ablation(setup.backbone, setup.inputs, setup.graph,
                            setup.vocab, setup.config, prompts=[])


def test_assembly_gradients_match_finite_differences(setup):
    assembly = Phase2Assembly(setup.backbone, setup.inputs, setup.config,
                              seed=0)
    rng = np.random.default_rng(0)
    # Randomize the zero-initialized factors so the check exercises every
    # parameter's gradient path, not just the identity point.
    for p in assembly.trainable_parameters():
        p.value[...] = rng.normal(0, 0.05, p.value.shape)
    batch = setup.graph.split_ids("train")[:8]
    labels = setup.graph.labels
    inputs = setup.inputs

    def loss_fn():
        logits = assembly.logits(inputs, batch)
        return ad.cross_entropy(logits, labels[batch])

    report = grad_check(assembly.trainable_parameters(), loss_fn,
                        samples_per_tensor=8)
    assert report.ok, report.summary()
