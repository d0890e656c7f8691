"""Phase-2 fine-tuning over node texts with structural injection, plus
evaluation, seed sweeps, and the rank/prompt ablation harnesses."""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .fusion import (ARMS, LORA_TARGETS, LoraPair, build_adapter_set,
                     default_placement)
from .metrics import MetricError, metric_name, split_metric
from .optim import fit
from .schema import ConfigError, check_declared, one_of, ranged
from .tag import ids_in_split
from .textenc import (embed, encode, prefix_states, readout, row_pieces,
                      tokenize_graph)

BASELINES = tuple(ARMS)


def derive_seed(*keys):
    """Stable 64-bit stream seed from a tuple of keys. Keeps component
    inits independent, so disabling one arm never shifts another's draws."""
    digest = hashlib.sha256("/".join(map(str, keys)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class FusionConfig:
    """The [fusion] section: adapter and LoRA placement, rank and tying."""
    rank: int = ranged(4, "[1, inf)")
    pass1_layers: tuple = ()     # empty: proportional default placement
    pass2_layers: tuple = ()
    tying: str = one_of("separate", ("separate", "shared"))


@dataclass
class TrainerConfig:
    """The [trainer] section: the phase-2 schedule, tokens and arm."""
    lr: float = ranged(3e-4, "(0, inf)")
    weight_decay: float = ranged(1e-2, "[0, inf)")
    batch_size: int = ranged(32, "[1, inf)")
    epochs: int = ranged(100, "[0, inf)")
    patience: int = ranged(10, "[1, inf)")
    seeds: tuple = (0, 1, 2, 3, 4)
    seq_len: int = ranged(32, "[4, inf)")
    prompt: str = ""
    baseline: str = one_of("fused", BASELINES)


@dataclass
class RunConfig(TrainerConfig, FusionConfig):
    """Everything phase 2 reads: the [trainer] and [fusion] keys together.
    Built unchecked; `ExperimentConfig.validate` checks the sections."""

    def toggles(self):
        """(fusion, lora): what the baseline arm trains."""
        return ARMS[self.baseline]

    def placement(self, num_layers):
        if self.pass1_layers:
            return tuple(self.pass1_layers), tuple(self.pass2_layers)
        return default_placement(num_layers)

    def first_adapted_layer(self, num_layers):
        """Lowest layer with an adapter or a LoRA pair; the layers below it
        are a frozen prefix. `num_layers` when the arm adapts no layer."""
        if not any(self.toggles()):
            return num_layers
        pass1, pass2 = self.placement(num_layers)
        return min((*pass1, *pass2))


@dataclass
class Phase2Inputs:
    """Everything phase 2 reads per node: int64 labels, int8 split codes
    into `SPLITS`, the class count, the (N, T) token mask, every node's
    (N, T, d) hidden states at the input of encoder layer `layer`, and
    phase 1's frozen (N, g) pass-1 and pass-2 embeddings. T is L*, the
    longest tokenized row (`tokenize_graph`), so no column is padding in
    every row. Nothing below an adapted layer trains, so these states stand
    in for the tokens wherever `layer` lies at or below the first adapted
    layer."""
    labels: np.ndarray
    split: np.ndarray | None
    num_classes: int
    mask: np.ndarray
    states: np.ndarray
    layer: int
    pass1: np.ndarray
    pass2: np.ndarray

    def with_tokens(self, backbone, ids, mask):
        """These inputs with the nodes tokenized as (ids, mask), at layer 0
        (the embedding output)."""
        return replace(self, mask=mask, states=embed(backbone, ids), layer=0)

    @property
    def num_nodes(self):
        return len(self.labels)

    def split_ids(self, split):
        return ids_in_split(self.split, split)

    def at_layer(self, backbone, layer):
        """These inputs with the states run forward to the input of `layer`
        (at or above `self.layer`); `self` when already there."""
        if layer == self.layer:
            return self
        states = prefix_states(backbone, self.states, self.mask, self.layer,
                               layer)
        return replace(self, states=states, layer=layer)


class Phase2Assembly:
    """Frozen backbone with trainable fusion adapters, LoRA pairs, and a
    linear classification head, sized for the `Phase2Inputs`' class count
    and embedding width; the per-node arrays stay in the inputs."""

    def __init__(self, backbone, inputs, config, seed):
        self.backbone = backbone
        d = backbone.config.dim
        g, num_classes = inputs.pass1.shape[1], inputs.num_classes
        dtype = backbone.config.dtype
        use_fusion, use_lora = config.toggles()
        pass1_layers, pass2_layers = config.placement(backbone.config.layers)
        adapted = sorted(pass1_layers) + sorted(pass2_layers)

        self.lora = {}
        if use_lora:
            for layer in adapted:
                self.lora[layer] = {
                    t: LoraPair(d, d, config.rank, f"layer{layer}.{t}",
                                seed=derive_seed(seed, "lora", layer, t),
                                dtype=dtype)
                    for t in LORA_TARGETS}

        self.adapters = {}
        if use_fusion:
            tie_pairs = None
            if config.tying == "shared":
                tie_pairs = {layer: self.lora[layer]["o"] for layer in adapted}
            self.adapters = build_adapter_set(
                pass1_layers, pass2_layers, config.rank, d, g,
                seed=derive_seed(seed, "fusion"), tie_pairs=tie_pairs,
                dtype=dtype)

        rng = np.random.default_rng(derive_seed(seed, "head"))
        self.head_w = Parameter(rng.normal(0.0, 0.02, (num_classes, d))
                                .astype(dtype), name="head.w")
        self.head_b = Parameter(np.zeros(num_classes, dtype=dtype),
                                name="head.b")

    def trainable_parameters(self):
        return [p for _, p in self.registry()]

    def registry(self):
        """(component, Parameter) pairs for everything that trains in
        phase-2, each parameter once: a tied adapter leaves its aliased
        W_A/W_C to the LoRA pair that owns them."""
        reg = []
        for adapter in self.adapters.values():
            reg.extend(("fusion", p) for p in adapter.parameters())
        for pairs in self.lora.values():
            for pair in pairs.values():
                reg.extend(("lora_pairs", p) for p in pair.parameters())
        reg.extend(("classifier_head", p) for p in (self.head_w, self.head_b))
        return reg

    def logits(self, inputs, node_ids):
        """Logits of `node_ids` from the `Phase2Inputs`, the one forward of
        training and evaluation; the encoder pass starts at `inputs.layer`."""
        h2 = {"pass1": inputs.pass1[node_ids],
              "pass2": inputs.pass2[node_ids]}
        mask = inputs.mask[node_ids]
        hidden = encode(self.backbone, inputs.states[node_ids], mask,
                        inputs.layer, adapters=self.adapters,
                        node_embeddings=h2, lora=self.lora)
        return ad.linear(readout(self.backbone, hidden, mask), self.head_w,
                         self.head_b)


def evaluate(assembly, inputs, split):
    """Headline metric of the assembly on one split of the `Phase2Inputs`:
    accuracy by argmax, or ROC-AUC over positive-class scores for binary
    tasks."""
    idx = inputs.split_ids(split)
    if len(idx) == 0:
        raise MetricError(f"split {split!r} is empty")
    logits = predict_logits(assembly, inputs, idx)
    return split_metric(logits, inputs.labels[idx], inputs.num_classes)


def predict_logits(assembly, inputs, node_ids):
    """Logits of `node_ids` of the `Phase2Inputs`: a no-grad `logits` pass
    on each `textenc.row_pieces` piece, so no row's head or adapter product
    runs on it alone unless `node_ids` holds one row."""
    with ad.no_grad():
        return np.concatenate([assembly.logits(inputs, node_ids[sl])
                               for sl in row_pieces(len(node_ids))])


@dataclass
class SeedResult:
    seed: int
    test_metric: float
    best_epoch: int
    loss_trace: list
    val_trace: list
    assembly: Phase2Assembly = None

    def as_dict(self):
        return {"seed": self.seed, "metric": self.test_metric,
                "best_epoch": self.best_epoch,
                "loss_trace": self.loss_trace, "val_trace": self.val_trace}


def run_phase2_seed(backbone, inputs, config, seed):
    """One deterministic phase-2 run on the `Phase2Inputs`: minibatch AdamW
    over train nodes, early stop on the validation metric (`optim.fit`),
    test metric from the best checkpoint."""
    assembly = Phase2Assembly(backbone, inputs, config, seed)
    labels = inputs.labels
    train_idx = inputs.split_ids("train")
    rng = np.random.default_rng(derive_seed(seed, "shuffle"))

    def epoch_losses(epoch):
        order = train_idx[rng.permutation(len(train_idx))]
        for sl in row_pieces(len(order), config.batch_size):
            batch = order[sl]
            yield (ad.cross_entropy(assembly.logits(inputs, batch),
                                    labels[batch]), len(batch))

    best_epoch, _, loss_trace, val_trace = fit(
        assembly.trainable_parameters(), config, epoch_losses,
        lambda: evaluate(assembly, inputs, "val"))
    test = evaluate(assembly, inputs, "test")
    return SeedResult(seed=seed, test_metric=float(test),
                      best_epoch=best_epoch, loss_trace=loss_trace,
                      val_trace=val_trace, assembly=assembly)


@dataclass
class RunReport:
    baseline: str
    metric_name: str
    per_seed: list
    metric_mean: float
    metric_std: float | None
    audit: dict | None = None  # set by `pipeline.run_phase2`
    wall_clock_sec: float | None = None

    def as_dict(self):
        """The deterministic report; `wall_clock_sec` stays out of it."""
        return {"baseline": self.baseline, "metric_name": self.metric_name,
                "per_seed": [s.as_dict() for s in self.per_seed],
                "metric_mean": self.metric_mean,
                "metric_std": self.metric_std, "audit": self.audit}


def seed_sweep(runner, seeds, baseline, metric):
    """Independent runs per seed; the aggregate is an order-independent
    fold (sorted by seed). `RunConfig` holds at least one seed, each once."""
    started = time.perf_counter()
    results = sorted((runner(seed) for seed in seeds), key=lambda r: r.seed)
    metrics = np.array([r.test_metric for r in results])
    std = float(np.std(metrics, ddof=1)) if len(metrics) >= 2 else None
    return RunReport(baseline=baseline, metric_name=metric,
                     per_seed=list(results),
                     metric_mean=float(metrics.mean()), metric_std=std,
                     wall_clock_sec=time.perf_counter() - started)


def train_phase2(backbone, inputs, config):
    """Seed sweep of phase-2 fine-tuning on the `Phase2Inputs`; the states
    are run forward to the first adapted layer once and shared across
    seeds."""
    inputs = inputs.at_layer(
        backbone, config.first_adapted_layer(backbone.config.layers))

    def runner(seed):
        return run_phase2_seed(backbone, inputs, config, seed)

    return seed_sweep(runner, config.seeds, config.baseline,
                      metric_name(inputs.num_classes))


# ---------------------------------------------------------------------------
# ablations

def rank_ablation(backbone, inputs, base_config, ranks):
    """One seed sweep per rank on the `Phase2Inputs`, each row with the
    trained assembly's parameter count, which rises with the rank. Each
    rank must lie in `[fusion] rank`'s range. The rank leaves the frozen
    prefix alone, so the states are run forward once and every sweep
    shares them."""
    for r in ranks:
        check_declared(FusionConfig(rank=r), "fusion")
    inputs = inputs.at_layer(
        backbone, base_config.first_adapted_layer(backbone.config.layers))
    rows = []
    for r in ranks:
        report = train_phase2(backbone, inputs, replace(base_config, rank=r))
        assembly = report.per_seed[0].assembly
        rows.append({"rank": r, "metric_mean": report.metric_mean,
                     "metric_std": report.metric_std,
                     "trainable_params": sum(
                         p.size for p in assembly.trainable_parameters())})
    return rows


def prompt_ablation(backbone, inputs, graph, vocab, base_config, prompts):
    """One seed sweep per prompt on the `Phase2Inputs`, reported in the given
    order; each prompt tokenizes the texts of `graph` anew."""
    if not prompts:
        raise ConfigError("prompt ablation needs at least one prompt")
    rows = []
    for prompt in prompts:
        cfg = replace(base_config, prompt=prompt)
        ids, mask = tokenize_graph(graph, vocab, prompt, cfg.seq_len)
        tokens = inputs.with_tokens(backbone, ids, mask)
        report = train_phase2(backbone, tokens, cfg)
        rows.append({"prompt": prompt, "metric_mean": report.metric_mean,
                     "metric_std": report.metric_std})
    return rows


def write_table_csv(path, rows, columns):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in columns})


def format_table(rows, columns):
    """The rows as aligned text columns, floats to four places."""
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.4f}"
        return "" if v is None else str(v)

    cells = [[fmt(row[c]) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"
