"""End-to-end orchestration behind the CLI: dataset materialization,
phase-1 and phase-2 runs, audits, ablations, and the checks on what each
command reads of the run directory."""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError
from .fusion import audit_from_shapes
from .metrics import metric_name
from .sage import SageModel, train_phase1
from .tag import (SPLITS, GeneratorParams, SplitSpec, generate_synthetic_tag,
                  load_graph, load_splits, save_graph, save_splits,
                  stratified_split)
from .tensorio import load_tensor, save_tensor
from .textenc import (RESERVED, EncoderBackbone, Vocabulary, build_vocab,
                      node_features, tokenize_graph)
from .trainer import (Phase2Assembly, Phase2Inputs, evaluate, format_table,
                      prompt_ablation, rank_ablation, train_phase2,
                      write_table_csv)


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


def _read_json(path):
    """The JSON object in `path`. Bad JSON, or a top level that is not an
    object, raises PipelineError naming the file; a missing file raises
    FileNotFoundError."""
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise PipelineError(f"{path}: bad JSON: {e}")
    if not isinstance(obj, dict):
        raise PipelineError(f"{path}: expected a JSON object, got "
                            f"{type(obj).__name__}")
    return obj


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def data_dir(cfg):
    return Path(cfg.output.dir) / "data"


def phase1_dir(cfg):
    return Path(cfg.output.dir) / "phase1"


def phase2_dir(cfg):
    return Path(cfg.output.dir) / "phase2"


def _refuse_overwrite(out, force):
    """ConfigError when the output directory `out` already holds files and
    `force` is off; a command checks this before it reads or writes."""
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(f"{out} already contains files; pass --force to "
                          "overwrite")


def _generated_from(cfg):
    """The [dataset] keys the generated files follow from."""
    return {f.name: getattr(cfg.dataset, f.name)
            for spec in (GeneratorParams, SplitSpec) for f in fields(spec)}


def run_gen_data(cfg, force=False):
    """Materialize the synthetic dataset as nodes.jsonl / edges.tsv /
    splits.jsonl, with a manifest of the [dataset] keys they follow from,
    for `_check_manifest`, and the config hash. Idempotent given the seed."""
    if cfg.dataset.source != "synthetic":
        raise ConfigError("gen-data requires dataset.source = synthetic")
    out = data_dir(cfg)
    _refuse_overwrite(out, force)
    graph = generate_synthetic_tag(cfg.dataset)
    graph = stratified_split(graph, cfg.dataset)
    out.mkdir(parents=True, exist_ok=True)
    nodes, edges, splits = (out / "nodes.jsonl", out / "edges.tsv",
                            out / "splits.jsonl")
    save_graph(graph, nodes, edges)
    save_splits(graph, splits)
    # Nothing in the pipeline reads `config_hash`, but the benchmark's
    # worker checks it against the config it ran with.
    _write_json(out / "manifest.json", {
        "command": "gen-data", "config_hash": cfg.hash(),
        "dataset": _generated_from(cfg)})
    return graph, out


def _dataset_files(cfg):
    """The files `load_dataset` reads, by role: nodes, edges and, unless
    the split is computed in process, splits."""
    d = cfg.dataset
    if d.source == "files":
        if not d.nodes_path or not d.edges_path:
            raise ConfigError("dataset.source = files requires nodes_path "
                              "and edges_path")
        files = {"nodes": d.nodes_path, "edges": d.edges_path}
        if d.splits_path:
            files["splits"] = d.splits_path
        return files
    out = data_dir(cfg)
    files = {"nodes": out / "nodes.jsonl", "edges": out / "edges.tsv",
             "splits": out / "splits.jsonl"}
    for p in (*files.values(), out / "manifest.json"):
        if not p.exists():
            raise PipelineError(f"missing dataset file {p}; run gen-data first")
    return files


def _check_manifest(cfg):
    """For a synthetic source, raise PipelineError unless the generated files
    follow from this config's [dataset] keys (`_generated_from`), as
    `data/manifest.json` records them."""
    if cfg.dataset.source == "synthetic":
        path = data_dir(cfg) / "manifest.json"
        saved = _read_json(path).get("dataset")
        _refuse_changes({"dataset": saved if isinstance(saved, dict) else {}},
                        {"dataset": _generated_from(cfg)}, path, "gen-data")


def load_dataset(cfg):
    """Load the graph (with splits applied) for this config; generated files
    must pass `_check_manifest`."""
    files = _dataset_files(cfg)
    _check_manifest(cfg)
    graph = load_graph(files["nodes"], files["edges"],
                       num_classes=cfg.dataset.num_classes)
    if "splits" in files:
        return load_splits(graph, files["splits"])
    return stratified_split(graph, cfg.dataset)


def run_phase1(cfg, force=False):
    """Node features under the frozen backbone, then GraphSAGE training;
    persists the backbone's drawn weights, embeddings, prefix states, vocab,
    the node table with the phase-1 key, and metrics."""
    out = phase1_dir(cfg)
    _refuse_overwrite(out, force)
    graph = load_dataset(cfg)
    vocab = build_vocab(graph, max_size=cfg.backbone.vocab_max)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "vocab.json", vocab.to_dict())
    backbone = EncoderBackbone(cfg.backbone, vocab.size)
    save_tensor(out / "backbone.gtsr", backbone.weights)

    key = _phase1_key(cfg)
    ids, mask = tokenize_graph(graph, vocab, cfg.trainer.prompt,
                               cfg.trainer.seq_len)
    x, states = node_features(backbone, ids, mask, key["layer"])
    _write_json(out / "nodes.json", {
        "labels": graph.labels.tolist(), "split": graph.split.tolist(),
        "lengths": np.count_nonzero(mask, axis=1).tolist(), "key": key})
    save_tensor(out / "prefix.gtsr", states)
    del ids, mask, states

    model = SageModel(in_dim=x.shape[1], embed_dim=cfg.sage.embed_dim,
                      hidden=cfg.sage.classifier_hidden,
                      num_classes=graph.num_classes, seed=cfg.sage.seed,
                      dtype=cfg.backbone.dtype)
    result = train_phase1(model, x, graph, cfg.sage)
    save_tensor(out / "pass1.gtsr", result.pass1)
    save_tensor(out / "pass2.gtsr", result.pass2)
    _write_json(out / "metrics.json", {
        "metric_name": result.metric_name,
        "val_metric": result.val_metric,
        "best_epoch": result.best_epoch,
        "loss_trace": result.loss_trace,
        "val_trace": result.val_trace})
    return result


KEY_SECTIONS = ("dataset", "backbone", "sage", "trainer")


def _phase1_key(cfg):
    """What phase 1's outputs depend on, by section: what `load_dataset`
    reads (the sha256 of each data file by role, `num_classes` and, when the
    split is computed in process, its keys), all of [backbone] and [sage],
    the prompt and seq_len of the tokens, and `layer`, the first layer the
    phase-1 arm adapts, whose input `prefix.gtsr` holds."""
    d, t = cfg.dataset, cfg.trainer
    files = _dataset_files(cfg)
    dataset = {role: _sha256(p) for role, p in files.items()}
    dataset["num_classes"] = d.num_classes
    if "splits" not in files:
        dataset.update(train_frac=d.train_frac, val_frac=d.val_frac,
                       test_frac=d.test_frac, split_seed=d.split_seed)
    return {"dataset": dataset, "backbone": asdict(cfg.backbone),
            "sage": asdict(cfg.sage),
            "trainer": {"prompt": t.prompt, "seq_len": t.seq_len},
            "layer": cfg.run_config().first_adapted_layer(cfg.backbone.layers)}


def _refuse_changes(saved, current, path, command):
    """Raise PipelineError at the first `[section] key` whose value in the
    `current` sections differs from the `saved` ones, which `command` wrote
    in `path`; a key missing from `saved` differs as None."""
    for section, values in current.items():
        for name, value in values.items():
            old = saved[section].get(name)
            if old != value:
                raise PipelineError(
                    f"[{section}] {name} changed since {command} wrote {path} "
                    f"({old!r} → {value!r}); re-run {command}")


def _check_key(saved, cfg, path):
    """Raise PipelineError unless the key phase 1 saved in `path` holds this
    config's data and settings, and the data still pass `_check_manifest`;
    a difference is named as `[section] key`, [dataset] first, so a changed
    data file is named by its role."""
    if not (isinstance(saved, dict) and type(saved.get("layer")) is int
            and saved["layer"] >= 0
            and all(isinstance(saved.get(s), dict) for s in KEY_SECTIONS)):
        raise PipelineError(f"{path}: 'key' needs [dataset], [backbone], "
                            "[sage], [trainer] and 'layer'; re-run phase1")
    key = _phase1_key(cfg)
    _refuse_changes(saved, {s: key[s] for s in KEY_SECTIONS}, path, "phase1")
    _check_manifest(cfg)


def _int_column(table, key, high, path):
    """`table[key]` as an int64 array; every entry an int in [0, high)."""
    values = table.get(key)
    if not isinstance(values, list) or not all(
            type(v) is int and 0 <= v < high for v in values):
        raise PipelineError(f"{path}: {key!r} must be a list of integers "
                            f"in [0, {high})")
    return np.array(values, dtype=np.int64)


def _read_node_table(cfg):
    """The phase-1 node table (`nodes.json`) once its key matches the config
    (`_check_key`); a changed data file or setting raises PipelineError,
    since every phase-1 output describes the old one."""
    path = phase1_dir(cfg) / "nodes.json"
    table = _read_json(path)
    _check_key(table.get("key"), cfg, path)
    columns = {"labels": _int_column(table, "labels",
                                     cfg.dataset.num_classes, path),
               "split": _int_column(table, "split", len(SPLITS), path),
               "lengths": _int_column(table, "lengths",
                                      cfg.trainer.seq_len + 1, path)}
    counts = {len(c) for c in columns.values()}
    if len(counts) != 1 or not columns["labels"].size:
        raise PipelineError(f"{path}: 'labels', 'split' and 'lengths' must "
                            "hold one entry per node")
    if not columns["lengths"].all():
        raise PipelineError(f"{path}: 'lengths' must be at least 1")
    per_split = np.bincount(columns["split"], minlength=len(SPLITS))
    if not per_split.all():
        raise PipelineError(f"{path}: no node is in the "
                            f"{SPLITS[per_split.argmin()]!r} split; re-run "
                            "phase1")
    return {**table, **columns}


def _load_shaped(path, shape, dtype):
    """The GTSR array in `path`; PipelineError unless it has `shape` and
    only finite entries."""
    array = load_tensor(path, dtype=dtype)
    if array.shape != shape:
        raise PipelineError(f"{path}: shape {array.shape}, expected "
                            f"{shape}; re-run phase1")
    if not np.isfinite(array).all():
        raise PipelineError(f"{path}: non-finite entries; re-run phase1")
    return array


def load_phase1(cfg):
    """What the commands after phase 1 read of its outputs, checked:
    (vocabulary, backbone, `Phase2Inputs`). The node table comes first, so a
    changed data file or key setting is named as such before any other
    file is read; `pass1.gtsr` and `pass2.gtsr` must be finite and (nodes,
    `[sage] embed_dim`). The backbone is built on `backbone.gtsr`, the
    weights phase 1 drew, which must be finite and of the size the config
    and the vocabulary give, so nothing draws them again. The states are
    `prefix.gtsr`'s, finite and at the layer they were saved at, so the
    dataset is not parsed or tokenized. Only an arm adapting a layer below
    that one (after a `text_only` phase 1, or a placement moved down) reads
    the dataset, tokenizes it and starts at the embedding output, on the
    same loaded backbone."""
    out = phase1_dir(cfg)
    for name in ("vocab.json", "nodes.json", "backbone.gtsr", "prefix.gtsr",
                 "pass1.gtsr", "pass2.gtsr"):
        if not (out / name).exists():
            raise PipelineError(f"missing phase-1 artifact {out / name}; "
                                "run phase1 first")
    table = _read_node_table(cfg)
    tokens = _read_json(out / "vocab.json")
    base = len(RESERVED)
    if not all(type(v) is int for v in tokens.values()) or \
            sorted(tokens.values()) != list(range(base, base + len(tokens))):
        raise PipelineError(f"{out / 'vocab.json'}: token ids must be "
                            f"integers {base} .. {base + len(tokens) - 1}, "
                            "each once")
    vocab = Vocabulary.from_dict(tokens)
    b, t = cfg.backbone, cfg.trainer
    shape = (len(table["labels"]), cfg.sage.embed_dim)
    pass1, pass2 = (_load_shaped(out / f"{name}.gtsr", shape, b.dtype)
                    for name in ("pass1", "pass2"))
    size = sum(map(math.prod, b.weight_shapes(vocab.size)))
    backbone = EncoderBackbone(b, vocab.size, weights=_load_shaped(
        out / "backbone.gtsr", (size,), b.dtype))
    lengths = table["lengths"]
    width = int(lengths.max())
    mask = (np.arange(width) < lengths[:, None]).astype(np.float64)
    inputs = Phase2Inputs(labels=table["labels"],
                          split=table["split"].astype(np.int8),
                          num_classes=cfg.dataset.num_classes, mask=mask,
                          states=None, layer=table["key"]["layer"],
                          pass1=pass1, pass2=pass2)
    if cfg.run_config().first_adapted_layer(b.layers) < inputs.layer:
        ids, mask = tokenize_graph(load_dataset(cfg), vocab, t.prompt,
                                   t.seq_len)
        return vocab, backbone, inputs.with_tokens(backbone, ids, mask)
    states = _load_shaped(out / "prefix.gtsr", (len(lengths), width, b.dim),
                          b.dtype)
    return vocab, backbone, replace(inputs, states=states)


def load_phase1_artifacts(cfg):
    """The (vocabulary, `Phase2Inputs`) of `load_phase1`."""
    return load_phase1(cfg)[::2]


def _save_checkpoint(directory, assembly):
    """One `<parameter name>.gtsr` per trainable parameter of `assembly`."""
    directory.mkdir(parents=True, exist_ok=True)
    for p in assembly.trainable_parameters():
        save_tensor(directory / f"{p.name}.gtsr", np.atleast_1d(p.value))


def _load_checkpoint(directory, assembly):
    """`assembly` with the tensors of `directory`, which must hold one
    `<name>.gtsr` of the right shape per trainable parameter and no other
    (a checkpoint of another arm is refused)."""
    params = assembly.trainable_parameters()
    other = sorted({f.stem for f in directory.glob("*.gtsr")}
                   - {p.name for p in params})
    if other:
        raise PipelineError(f"checkpoint {directory} holds {other[0]!r}, "
                            "which the configured arm does not train; "
                            "re-run phase2")
    for p in params:
        path = directory / f"{p.name}.gtsr"
        if not path.exists():
            raise PipelineError(f"checkpoint {directory} missing tensor for "
                                f"{p.name!r}")
        value = load_tensor(path, dtype=p.value.dtype)
        expected = np.atleast_1d(p.value).shape
        if value.shape != expected:
            raise PipelineError(f"checkpoint {directory}: tensor for "
                                f"{p.name!r} has shape {value.shape}, "
                                f"expected {expected}")
        p.value[...] = value.reshape(p.value.shape)
    return assembly


def run_phase2(cfg, force=False):
    """Seed sweep of phase-2 fine-tuning; writes the run report, its wall
    clock and one adapter checkpoint per seed."""
    _refuse_overwrite(phase2_dir(cfg), force)
    vocab, backbone, inputs = load_phase1(cfg)
    out = phase2_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)

    report = train_phase2(backbone, inputs, cfg.run_config())
    report.audit = _audit(cfg, vocab.size).as_dict()

    _write_json(out / "report.json", report.as_dict())
    _write_json(out / "timing.json",
                {"wall_clock_sec": report.wall_clock_sec})
    # A checkpoint is whatever `<name>.gtsr` files its directory holds, so
    # an earlier run's checkpoints go before this run writes its own.
    shutil.rmtree(out / "checkpoints", ignore_errors=True)
    for result in report.per_seed:
        _save_checkpoint(out / "checkpoints" / f"seed{result.seed}",
                         result.assembly)
    return report


def run_evaluate(cfg, split="test", seed=None):
    """Evaluate a saved phase-2 checkpoint on one split."""
    _, backbone, inputs = load_phase1(cfg)
    run_cfg = cfg.run_config()
    seed = run_cfg.seeds[0] if seed is None else seed
    ckpt = phase2_dir(cfg) / "checkpoints" / f"seed{seed}"
    if not ckpt.exists():
        raise PipelineError(f"missing checkpoint {ckpt}; run phase2 first")
    assembly = Phase2Assembly(backbone, inputs, run_cfg, seed)
    _load_checkpoint(ckpt, assembly)
    value = evaluate(assembly, inputs, split)
    return {"split": split, "seed": seed,
            "metric_name": metric_name(inputs.num_classes),
            "metric": float(value)}


def _audit(cfg, vocab_size):
    """Analytic parameter audit of the configured arm, with a token table
    of `vocab_size` rows."""
    run = cfg.run_config()
    pass1, pass2 = run.placement(cfg.backbone.layers)
    return audit_from_shapes(
        cfg.backbone, vocab_size, adapted_layers=[*pass1, *pass2],
        rank=run.rank, g=cfg.sage.embed_dim,
        num_classes=cfg.dataset.num_classes,
        gnn_hidden=cfg.sage.classifier_hidden, arm=run.baseline,
        fusion_tying=run.tying)


def run_audit(cfg):
    """Analytic parameter audit from the configured shapes, counting a token
    table of `vocab_max` rows (no weights are instantiated, so arbitrarily
    large backbones are fine)."""
    audit = _audit(cfg, cfg.backbone.vocab_max)
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "audit.json", audit.as_dict())
    return audit


def run_ablate(cfg, what, ranks=DEFAULT_ABLATION_RANKS,
               prompts=DEFAULT_ABLATION_PROMPTS):
    vocab, backbone, inputs = load_phase1(cfg)
    base = cfg.run_config()
    if what == "rank":
        rows = rank_ablation(backbone, inputs, base, ranks=ranks)
        columns = ["rank", "metric_mean", "metric_std", "trainable_params"]
    elif what == "prompt":
        # The prompts change the tokens, so the texts are always read.
        rows = prompt_ablation(backbone, inputs, load_dataset(cfg), vocab,
                               base, prompts=prompts)
        columns = ["prompt", "metric_mean", "metric_std"]
    else:
        raise ConfigError(f"unknown ablation {what!r}; valid: rank, prompt")
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    write_table_csv(out / f"ablate_{what}.csv", rows, columns)
    return rows, format_table(rows, columns)
