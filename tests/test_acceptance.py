"""End-to-end acceptance checks.

Each test prints (and records for the terminal summary) a single
"PASS criterion N" / "FAIL criterion N" line. Tolerances and the
learnability thresholds were calibrated once against a reference run of
the finished pipeline and are pinned here.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import conftest
from conftest import (CONFIG_DIR, backbone_arrays, gpt2_audit, grad_check,
                      make_graph, neighbors, random_graph)
from sagefuse import autodiff as ad
from sagefuse.cli import main
from sagefuse.config import ExperimentConfig
from sagefuse.metrics import roc_auc
from sagefuse.sage import SageModel, mean_aggregation_matrix, train_phase1
from sagefuse.tag import (SPLITS, GeneratorParams, SplitSpec,
                          generate_synthetic_tag, stratified_split)
from sagefuse.textenc import (BackboneConfig, EncoderBackbone, build_vocab,
                              embed, encode, node_features, tokenize_graph)
from sagefuse.trainer import (Phase2Assembly, Phase2Inputs, RunConfig,
                              train_phase2)

from test_metrics import pair_counting_auc
from test_sage import brute_force_pass, forward_from_features
from test_trainer import _setup


def _report(num, description, ok):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _micro_phase2(seed=0):
    """d=16, L=4, T=8, g=8, r=2, N=20 assembly in 64-bit mode."""
    rng = np.random.default_rng(seed)
    n = 20
    labels = (np.arange(n) % 2).tolist()
    base = random_graph(rng, n, edge_prob=0.2)
    graph = make_graph({i: neighbors(base, i) for i in range(n)},
                       labels=labels,
                       texts=[f"w{labels[i]} w{int(rng.integers(4))}"
                              for i in range(n)])
    graph = stratified_split(graph, SplitSpec(0.6, 0.2, 0.2, split_seed=0))
    vocab = build_vocab(graph)
    backbone = EncoderBackbone(BackboneConfig(
        dim=16, heads=2, layers=4, mlp_width=32, max_tokens=8, seed=0,
        precision="f64"), vocab.size)
    embeddings_src = rng.normal(0, 0.5, (n, 8))
    from sagefuse.sage import SageEmbeddings
    embeddings = SageEmbeddings(pass1=embeddings_src,
                                pass2=rng.normal(0, 0.5, (n, 8)))
    config = RunConfig(rank=2, pass1_layers=(1,), pass2_layers=(3,),
                       seq_len=8, seeds=(0,), epochs=1, batch_size=8)
    ids, mask = tokenize_graph(graph, vocab, "", 8)
    return graph, vocab, backbone, embeddings, config, ids, mask


def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    graph, vocab, backbone, embeddings, config, ids, mask = _micro_phase2()
    labels = graph.labels
    batch = graph.split_ids("train")[:8]
    rng = np.random.default_rng(0)

    # Phase-1: GraphSAGE plus classifier on node features from the backbone.
    x, _ = node_features(backbone, ids, mask, layer=1)
    model = SageModel(in_dim=16, embed_dim=8, hidden=8, num_classes=2,
                      dtype=np.float64)
    # Zero-initialized biases sit exactly on the rectifier kink, where
    # central differences disagree with the one-sided analytic convention.
    for p in model.parameters():
        if p.value.ndim == 1:
            p.value[...] = rng.normal(0, 0.05, p.value.shape)

    agg = mean_aggregation_matrix(graph)

    def phase1_loss():
        _, p2 = forward_from_features(model, x, agg)
        return ad.cross_entropy(ad.gather_rows(model.classify(p2), batch),
                                labels[batch])

    p1_report = grad_check(model.parameters(), phase1_loss, epsilon=1e-5,
                           tolerance=1e-4)

    # Phase-2: fusion adapters + LoRA pairs + head, randomized away from the
    # zero-initialized identity point so every gradient path is exercised.
    assembly = Phase2Assembly(backbone, embeddings, graph.num_classes,
                              config, seed=0)
    for p in assembly.trainable_parameters():
        p.value[...] = rng.normal(0, 0.05, p.value.shape)
    inputs = Phase2Inputs.from_tokens(graph, backbone, ids, mask)

    def phase2_loss():
        return ad.cross_entropy(assembly.logits(inputs, batch), labels[batch])

    p2_report = grad_check(assembly.trainable_parameters(), phase2_loss,
                           epsilon=1e-5, tolerance=1e-4)
    elapsed = time.perf_counter() - started
    ok = p1_report.ok and p2_report.ok and elapsed < 60.0
    _report(1, f"gradient fidelity (phase-1 max {p1_report.max_rel_error:.2e},"
               f" phase-2 max {p2_report.max_rel_error:.2e}, {elapsed:.1f}s)",
            ok)


def test_criterion_2_aggregation_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        graph = random_graph(rng, n, edge_prob=float(rng.uniform(0.05, 0.4)))
        x = rng.normal(0, 1, (n, 6))
        w0 = rng.normal(0, 0.5, (5, 12))
        b0 = rng.normal(0, 0.1, 5)
        w1 = rng.normal(0, 0.5, (4, 10))
        b1 = rng.normal(0, 0.1, 4)
        from sagefuse.sage import sage_pass
        agg = mean_aggregation_matrix(graph)
        pass1 = np.asarray(sage_pass(x, agg, w0, b0))
        pass2 = np.asarray(sage_pass(pass1, agg, w1, b1))
        ref1 = brute_force_pass(x, graph, w0, b0)
        ref2 = brute_force_pass(ref1, graph, w1, b1)
        worst = max(worst, np.abs(pass1 - ref1).max(),
                    np.abs(pass2 - ref2).max())
    _report(2, f"aggregation matches per-node oracle on 100 graphs "
               f"(max abs err {worst:.2e})", worst < 1e-12)


def test_criterion_3_zero_adapter_identity():
    graph, vocab, backbone, embeddings, config, _, _ = _micro_phase2()
    assembly = Phase2Assembly(backbone, embeddings, graph.num_classes,
                              config, seed=0)  # up-projections start at zero
    rng = np.random.default_rng(7)
    identical = True
    for _ in range(100):
        ids = rng.integers(3, vocab.size, (2, 8))
        mask = np.ones((2, 8))
        mask[:, int(rng.integers(2, 8)):] = 0.0
        h2 = {"pass1": rng.normal(0, 1, (2, 8)),
              "pass2": rng.normal(0, 1, (2, 8))}
        with ad.no_grad():
            states = embed(backbone, ids)
            adapted = np.asarray(encode(backbone, states, mask,
                                        adapters=assembly.adapters,
                                        node_embeddings=h2,
                                        lora=assembly.lora))
            bare = np.asarray(encode(backbone, states, mask))
        identical = identical and np.array_equal(adapted, bare)
    _report(3, "zero-initialized adapters are a bitwise identity on "
               "100 random inputs", identical)


def test_criterion_4_frozen_invariance():
    setup = _setup()
    config = dataclasses.replace(setup.config, epochs=10, patience=10)
    backbone_before = [a.copy() for a in backbone_arrays(setup.backbone)]
    emb_before = (setup.embeddings.pass1.copy(), setup.embeddings.pass2.copy())
    from sagefuse.trainer import run_phase2_seed
    result = run_phase2_seed(setup.backbone, setup.embeddings, setup.inputs,
                             config, seed=0)
    ok = (len(result.loss_trace) >= 10
          and all(np.array_equal(a, before) for a, before in
                  zip(backbone_arrays(setup.backbone), backbone_before))
          and np.array_equal(setup.embeddings.pass1, emb_before[0])
          and np.array_equal(setup.embeddings.pass2, emb_before[1]))
    _report(4, f"backbone and structural embeddings bitwise unchanged after "
               f"{len(result.loss_trace)}-epoch run", ok)


def _gpt2_audit():
    return gpt2_audit(adapted_layers=[5, 6, 7, 9, 10, 11], rank=4,
                      fusion_tying="shared")


def test_criterion_5_parameter_audit():
    audit = _gpt2_audit()
    target = 115_200
    deviation = abs(audit.phase2_trainable - target) / target
    ok = deviation < 0.05 and audit.lora_pairs == 110_592
    print(audit.table())
    _report(5, f"GPT-2-shaped audit: adapter stack {audit.phase2_trainable:,}"
               f" ({100 * deviation:.2f}% from {target:,}), "
               f"low-rank subtotal {audit.lora_pairs:,}", ok)


def test_criterion_6_relative_fraction():
    audit = _gpt2_audit()
    pct = 100.0 * audit.relative_fraction
    ok = pct < 0.3 and abs(pct - 0.238) <= 0.1
    _report(6, f"trainable fraction {pct:.4f}% of the 124M backbone "
               "(< 0.3%, within 0.1pp of 0.238%)", ok)


@pytest.mark.slow
def test_criterion_7_structure_beats_text_only():
    started = time.perf_counter()
    cfg = ExperimentConfig.from_file(CONFIG_DIR / "acceptance.cfg")
    graph = stratified_split(generate_synthetic_tag(cfg.dataset),
                             cfg.dataset)
    vocab = build_vocab(graph, max_size=cfg.backbone.vocab_max)
    backbone = EncoderBackbone(cfg.backbone, vocab.size)
    ids, mask = tokenize_graph(graph, vocab, "", cfg.trainer.seq_len)
    x, _ = node_features(backbone, ids, mask,
                         cfg.run_config().first_adapted_layer(
                             cfg.backbone.layers))
    model = SageModel(in_dim=x.shape[1], embed_dim=cfg.sage.embed_dim,
                      hidden=cfg.sage.classifier_hidden,
                      num_classes=graph.num_classes,
                      dtype=cfg.backbone.dtype)
    phase1 = train_phase1(model, x, graph, cfg.sage)

    inputs = Phase2Inputs.from_tokens(graph, backbone, ids, mask)
    structural = train_phase2(backbone, phase1.embeddings, inputs,
                              cfg.run_config())
    text_only = train_phase2(backbone, phase1.embeddings, inputs,
                             dataclasses.replace(cfg.run_config(),
                                                 baseline="text_only"))
    elapsed = time.perf_counter() - started
    margin = structural.metric_mean - text_only.metric_mean
    ok = (phase1.val_metric >= 0.75 and margin >= 0.03 and elapsed < 600.0)
    _report(7, f"structural injection {structural.metric_mean:.3f} vs "
               f"text-only {text_only.metric_mean:.3f} "
               f"(margin {margin:.3f} >= 0.03), phase-1 val "
               f"{phase1.val_metric:.3f} >= 0.75, {elapsed:.0f}s", ok)


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(0)
    auc_exact = True
    for _ in range(100):
        scores = np.round(rng.normal(0, 1, 200), 1)  # coarse grid forces ties
        labels = np.r_[1, 0, rng.integers(0, 2, 198)]
        auc_exact = auc_exact and (roc_auc(scores, labels)
                                   == pair_counting_auc(scores, labels))
    from sagefuse.metrics import accuracy
    logits = rng.normal(0, 1, (200, 4))
    labels = rng.integers(0, 4, 200)
    brute = sum(int(np.argmax(r) == y) for r, y in zip(logits, labels)) / 200
    acc_exact = accuracy(logits, labels) == brute
    _report(8, "rank-based ROC-AUC equals pair counting on 100 vectors; "
               "accuracy equals brute-force counting",
            auc_exact and acc_exact)


def test_criterion_9_stratification():
    specs = [(0.8, 0.1, 0.1), (0.54, 0.18, 0.28), (0.6, 0.2, 0.2)]
    fractions_ok = True
    for seed, (tr, va, te) in enumerate(specs):
        graph = generate_synthetic_tag(GeneratorParams(
            n_nodes=500 + 37 * seed, num_classes=3 + seed, seed=seed))
        split = stratified_split(graph, SplitSpec(tr, va, te, split_seed=seed))
        for c in range(split.num_classes):
            members = split.split[split.labels == c]
            for frac, name in ((tr, "train"), (va, "val"), (te, "test")):
                count = np.count_nonzero(members == SPLITS.index(name))
                fractions_ok = fractions_ok and (
                    abs(count - frac * len(members)) <= 1.0)
    _report(9, "per-class split sizes within one node of configured "
               "fractions across specs and seeds", fractions_ok)


@pytest.mark.slow
def test_criterion_10_pipeline_determinism(tmp_path):
    config_path = tmp_path / "micro.cfg"
    text = (CONFIG_DIR / "micro.cfg").read_text().replace(
        "runs/micro", str(tmp_path / "out"))
    config_path.write_text(text)
    out = tmp_path / "out"

    def run_once():
        for command in ("gen-data", "phase1", "phase2"):
            assert main(["--config", str(config_path), "--force",
                         command]) == 0
        snapshot = {}
        for sub in ("phase1", "phase2"):
            for p in sorted((out / sub).rglob("*")):
                # timing.json is the wall-clock sidecar and is the one file
                # allowed to vary between otherwise identical executions.
                if p.is_file() and p.name != "timing.json":
                    snapshot[str(p.relative_to(out))] = p.read_bytes()
        return snapshot

    first = run_once()
    second = run_once()
    same = set(first) == set(second) and all(
        first[k] == second[k] for k in first)
    report = json.loads((out / "phase2" / "report.json").read_text())
    _report(10, f"two identical executions produce byte-identical reports "
                f"and checkpoints ({len(first)} files, metric mean "
                f"{report['metric_mean']:.3f})", same)
