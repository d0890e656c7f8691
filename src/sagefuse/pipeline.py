"""End-to-end orchestration behind the CLI: dataset materialization,
phase-1 and phase-2 runs, audits, ablations, and run-directory manifests."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .config import ConfigError
from .fusion import audit_from_shapes, gnn_param_count
from .metrics import metric_name
from .sage import SageEmbeddings, SageModel, train_phase1
from .tag import (generate_synthetic_tag, load_graph, load_splits, save_graph,
                  save_splits, stratified_split)
from .tensorio import load_tensor, save_tensor
from .textenc import (EncoderBackbone, PromptSpec, Vocabulary, build_vocab,
                      node_features, prefix_states, tokenize_graph)
from .trainer import (Phase2Assembly, evaluate, prompt_ablation,
                      rank_ablation, train_phase2, write_table_csv,
                      write_table_text)


class PipelineError(RuntimeError):
    pass


DEFAULT_ABLATION_RANKS = (2, 4, 8)
DEFAULT_ABLATION_PROMPTS = (
    "",
    "classify:",
    "classify this account bio:",
    "classify whether this account is commercial or not:",
)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(directory, command, cfg, artifact_paths):
    manifest = {
        "command": command,
        "config_hash": cfg.hash(),
        "artifacts": {str(Path(p).relative_to(directory)): _sha256(p)
                      for p in artifact_paths},
    }
    _write_json(Path(directory) / "manifest.json", manifest)


def data_dir(cfg):
    return Path(cfg.output.dir) / "data"


def phase1_dir(cfg):
    return Path(cfg.output.dir) / "phase1"


def phase2_dir(cfg):
    return Path(cfg.output.dir) / "phase2"


def run_gen_data(cfg, force=False):
    """Materialize the synthetic dataset as nodes.jsonl / edges.tsv /
    splits.jsonl. Idempotent given the seed."""
    if cfg.dataset.source != "synthetic":
        raise ConfigError("gen-data requires dataset.source = synthetic")
    out = data_dir(cfg)
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(f"{out} already contains files; pass --force to "
                          "overwrite")
    out.mkdir(parents=True, exist_ok=True)
    graph = generate_synthetic_tag(cfg.dataset)
    graph = stratified_split(graph, cfg.dataset)
    nodes, edges, splits = (out / "nodes.jsonl", out / "edges.tsv",
                            out / "splits.jsonl")
    save_graph(graph, nodes, edges)
    save_splits(graph, splits)
    _write_manifest(out, "gen-data", cfg, [nodes, edges, splits])
    return graph, out


def load_dataset(cfg):
    """Load the graph (with splits applied) for this config."""
    if cfg.dataset.source == "files":
        if not cfg.dataset.nodes_path or not cfg.dataset.edges_path:
            raise ConfigError("dataset.source = files requires nodes_path "
                              "and edges_path")
        graph = load_graph(cfg.dataset.nodes_path, cfg.dataset.edges_path,
                           num_classes=cfg.dataset.num_classes)
        if cfg.dataset.splits_path:
            return load_splits(graph, cfg.dataset.splits_path)
        return stratified_split(graph, cfg.dataset)
    out = data_dir(cfg)
    nodes, edges, splits = (out / "nodes.jsonl", out / "edges.tsv",
                            out / "splits.jsonl")
    for p in (nodes, edges, splits):
        if not p.exists():
            raise PipelineError(f"missing dataset file {p}; run gen-data first")
    graph = load_graph(nodes, edges, num_classes=cfg.dataset.num_classes)
    return load_splits(graph, splits)


def run_phase1(cfg):
    """Node features under the frozen backbone, then GraphSAGE training;
    persists embeddings, features, vocab, and metrics."""
    graph = load_dataset(cfg)
    out = phase1_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)

    vocab = build_vocab(graph, max_size=cfg.backbone.vocab_max)
    _write_json(out / "vocab.json", vocab.to_dict())
    backbone = EncoderBackbone(cfg.backbone, vocab.size)

    key = _prefix_key(cfg)
    prompt = PromptSpec(cfg.trainer.prompt)
    x, states = node_features(backbone, graph, vocab, prompt,
                              cfg.trainer.seq_len, key["layer"],
                              pooling=cfg.backbone.pooling)
    save_tensor(out / "features.gtsr", x)
    prefix = out / "prefix.gtsr"
    if cfg.backbone.dtype == np.float32:
        save_tensor(prefix, states)
    else:  # GTSR stores float32 only: f64 runs recompute the prefix
        key = None
        prefix.unlink(missing_ok=True)
    del states
    _write_json(out / "features.json", {
        "n": graph.num_nodes, "d": int(x.shape[1]),
        "pooling": cfg.backbone.pooling, "prompt": cfg.trainer.prompt,
        "prefix": key})

    model = SageModel(in_dim=x.shape[1], embed_dim=cfg.sage.embed_dim,
                      hidden=cfg.sage.classifier_hidden,
                      num_classes=graph.num_classes, seed=cfg.sage.seed,
                      dtype=cfg.backbone.dtype)
    result = train_phase1(model, x, graph, cfg.sage)
    save_tensor(out / "pass1.gtsr", result.embeddings.pass1)
    save_tensor(out / "pass2.gtsr", result.embeddings.pass2)
    _write_json(out / "sidecar.json", {
        "g": cfg.sage.embed_dim, "checkpoint_epoch": result.best_epoch,
        "val_metric": result.val_metric})
    _write_json(out / "metrics.json", {
        "metric_name": result.metric_name,
        "val_metric": result.val_metric,
        "best_epoch": result.best_epoch,
        "loss_trace": result.loss_trace,
        "val_trace": result.val_trace})
    _write_manifest(out, "phase1", cfg, [
        out / "vocab.json", out / "features.gtsr", out / "features.json",
        out / "pass1.gtsr", out / "pass2.gtsr", out / "sidecar.json",
        out / "metrics.json"] + ([prefix] if key else []))
    return result


def _prefix_key(cfg):
    """What the frozen-prefix states depend on besides the phase-1 vocab and
    dataset: the layer they stop at, the tokens and the backbone."""
    b = cfg.backbone
    return {"layer": cfg.run_config().first_adapted_layer(b.layers),
            "prompt": cfg.trainer.prompt, "seq_len": cfg.trainer.seq_len,
            "precision": b.precision,
            "backbone": {"layers": b.layers, "dim": b.dim, "heads": b.heads,
                         "mlp_width": b.mlp_width,
                         "max_tokens": b.max_tokens, "seed": b.seed}}


def load_prefix_states(cfg, graph, backbone, vocab):
    """The phase-1 prefix states for this config's prefix, else None: the
    trainer then computes them in process, so a stale file is never
    reused. A file saved at a lower layer under an otherwise equal key
    (the `fused` arm's file read by `text_only`) is run forward to this
    config's layer once."""
    out = phase1_dir(cfg)
    try:
        with open(out / "features.json", encoding="utf-8") as f:
            saved = json.load(f).get("prefix")
    except FileNotFoundError:
        return None
    key = _prefix_key(cfg)
    saved_layer = saved.get("layer") if isinstance(saved, dict) else None
    if (not isinstance(saved_layer, int) or saved_layer > key["layer"]
            or {**saved, "layer": key["layer"]} != key
            or not (out / "prefix.gtsr").exists()):
        return None
    states = load_tensor(out / "prefix.gtsr", dtype=cfg.backbone.dtype)
    expected = (graph.num_nodes, cfg.trainer.seq_len, cfg.backbone.dim)
    if states.shape != expected:
        return None
    if saved_layer < key["layer"]:
        ids, mask = tokenize_graph(graph, vocab,
                                   PromptSpec(cfg.trainer.prompt),
                                   cfg.trainer.seq_len)
        states = prefix_states(backbone, ids, mask, key["layer"],
                               states=states, start=saved_layer)
    return states


def load_phase1_artifacts(cfg):
    out = phase1_dir(cfg)
    for name in ("vocab.json", "pass1.gtsr", "pass2.gtsr"):
        if not (out / name).exists():
            raise PipelineError(f"missing phase-1 artifact {out / name}; "
                                "run phase1 first")
    with open(out / "vocab.json", encoding="utf-8") as f:
        vocab = Vocabulary.from_dict(json.load(f))
    embeddings = SageEmbeddings(
        pass1=load_tensor(out / "pass1.gtsr", dtype=cfg.backbone.dtype),
        pass2=load_tensor(out / "pass2.gtsr", dtype=cfg.backbone.dtype))
    for name in ("pass1", "pass2"):
        width = getattr(embeddings, name).shape[-1]
        if width != cfg.sage.embed_dim:
            raise PipelineError(
                f"phase-1 {name} embeddings in {out} are {width} wide but "
                f"[sage] embed_dim is {cfg.sage.embed_dim}; re-run phase1")
    return vocab, embeddings


def _save_checkpoint(directory, assembly):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for p in assembly.trainable_parameters():
        fname = p.name.replace("/", "_") + ".gtsr"
        save_tensor(directory / fname, np.atleast_1d(p.value))
        files[p.name] = fname
    adapters = []
    if assembly.adapters is not None:
        for a in assembly.adapters.adapters:
            adapters.append({"layer": a.layer_index, "source": a.source,
                             "r": a.rank, "gate_logit": float(a.gate_logit.value),
                             "targets": list(assembly.config.lora_targets)
                             if assembly.lora else []})
    _write_json(directory / "manifest.json",
                {"adapters": adapters, "files": files})


def _load_checkpoint(directory, assembly):
    directory = Path(directory)
    with open(directory / "manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    files = manifest["files"]
    for p in assembly.trainable_parameters():
        if p.name not in files:
            raise PipelineError(f"checkpoint {directory} missing tensor for "
                                f"{p.name!r}")
        value = load_tensor(directory / files[p.name], dtype=p.value.dtype)
        expected = np.atleast_1d(p.value).shape
        if value.shape != expected:
            raise PipelineError(f"checkpoint {directory}: tensor for "
                                f"{p.name!r} has shape {value.shape}, "
                                f"expected {expected}")
        p.value[...] = value.reshape(p.value.shape)
    return assembly


def run_phase2(cfg):
    """Seed sweep of phase-2 fine-tuning; writes the run report and one
    adapter checkpoint per seed."""
    graph = load_dataset(cfg)
    vocab, embeddings = load_phase1_artifacts(cfg)
    backbone = EncoderBackbone(cfg.backbone, vocab.size)
    out = phase2_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)

    gnn_size = gnn_param_count(backbone.config.dim, cfg.sage.embed_dim,
                               cfg.sage.classifier_hidden, graph.num_classes)
    states = load_prefix_states(cfg, graph, backbone, vocab)
    report = train_phase2(backbone, embeddings, graph, vocab,
                          cfg.run_config(), gnn_size=gnn_size, states=states)

    _write_json(out / "report.json", report.as_dict(include_wall_clock=False))
    _write_json(out / "timing.json",
                {"wall_clock_sec": report.wall_clock_sec})
    artifacts = [out / "report.json"]
    for result in report.per_seed:
        ckpt = out / "checkpoints" / f"seed{result.seed}"
        _save_checkpoint(ckpt, result.assembly)
        artifacts.extend(sorted(ckpt.iterdir()))
    _write_manifest(out, "phase2", cfg, artifacts)
    return report


def run_evaluate(cfg, split="test", seed=None):
    """Evaluate a saved phase-2 checkpoint on one split."""
    graph = load_dataset(cfg)
    vocab, embeddings = load_phase1_artifacts(cfg)
    backbone = EncoderBackbone(cfg.backbone, vocab.size)
    run_cfg = cfg.run_config()
    seed = run_cfg.seeds[0] if seed is None else seed
    ckpt = phase2_dir(cfg) / "checkpoints" / f"seed{seed}"
    if not ckpt.exists():
        raise PipelineError(f"missing checkpoint {ckpt}; run phase2 first")
    states = load_prefix_states(cfg, graph, backbone, vocab)
    assembly = Phase2Assembly(backbone, embeddings, graph.num_classes,
                              run_cfg, seed, states=states)
    _load_checkpoint(ckpt, assembly)
    ids, mask = tokenize_graph(graph, vocab, PromptSpec(run_cfg.prompt),
                               run_cfg.seq_len)
    value = evaluate(assembly, graph, ids, mask, split)
    return {"split": split, "seed": seed,
            "metric_name": metric_name(graph.num_classes),
            "metric": float(value)}


def run_audit(cfg):
    """Analytic parameter audit from the configured shapes (no weights are
    instantiated, so arbitrarily large backbones are fine)."""
    b, run_cfg = cfg.backbone, cfg.run_config()
    pass1, pass2 = run_cfg.placement(b.layers)
    fusion_on, lora_on = run_cfg.toggles()
    audit = audit_from_shapes(
        b.shape(b.vocab_max), adapted_layers=list(pass1) + list(pass2),
        rank=run_cfg.rank, g=cfg.sage.embed_dim,
        num_classes=cfg.dataset.num_classes,
        gnn_hidden=cfg.sage.classifier_hidden, gnn_input_dim=b.dim,
        enable_fusion=fusion_on, enable_lora=lora_on,
        fusion_tying=run_cfg.tying, lora_targets=run_cfg.lora_targets)
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "audit.json", audit.as_dict())
    return audit


def run_ablate(cfg, what, ranks=DEFAULT_ABLATION_RANKS,
               prompts=DEFAULT_ABLATION_PROMPTS):
    graph = load_dataset(cfg)
    vocab, embeddings = load_phase1_artifacts(cfg)
    backbone = EncoderBackbone(cfg.backbone, vocab.size)
    base = cfg.run_config()
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    if what == "rank":
        states = load_prefix_states(cfg, graph, backbone, vocab)
        rows = rank_ablation(backbone, embeddings, graph, vocab, base,
                             ranks=ranks, states=states)
        columns = ["rank", "metric_mean", "metric_std", "trainable_params"]
    elif what == "prompt":
        rows = prompt_ablation(backbone, embeddings, graph, vocab, base,
                               prompts=prompts)
        columns = ["prompt", "metric_mean", "metric_std"]
    else:
        raise ConfigError(f"unknown ablation {what!r}; valid: rank, prompt")
    write_table_csv(out / f"ablate_{what}.csv", rows, columns)
    text = write_table_text(out / f"ablate_{what}.txt", rows, columns)
    return rows, text
