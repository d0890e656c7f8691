"""Span tracing of the sagefuse pipeline from outside the package.

`Tracer.install()` replaces public functions of the sagefuse modules with
wrappers that record one span per call. A name bound by `from .x import f`
is patched in the importing module, because that is the binding the caller
looks up; a missing attribute raises, so a refactor that moves an import
fails loudly instead of going unmeasured.

Spans stay in memory. `layer_metrics()` folds them into the per-layer table
after the pipeline has run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

# (module, attribute, span name). Context-dependent spans (encode, backward,
# optimizer step) are split into train/eval or phase1/phase2 when folded.
SPAN_TARGETS = [
    ("sagefuse.pipeline", "run_gen_data", "pipeline.gen_data"),
    ("sagefuse.pipeline", "run_phase1", "pipeline.phase1"),
    ("sagefuse.pipeline", "run_phase2", "pipeline.phase2"),
    ("sagefuse.pipeline", "run_evaluate", "pipeline.evaluate"),
    ("sagefuse.pipeline", "generate_synthetic_tag", "tag.generate"),
    ("sagefuse.pipeline", "stratified_split", "tag.split"),
    ("sagefuse.pipeline", "save_graph", "tag.save"),
    ("sagefuse.pipeline", "save_splits", "tag.save"),
    ("sagefuse.pipeline", "load_graph", "tag.load"),
    ("sagefuse.pipeline", "load_splits", "tag.load"),
    ("sagefuse.pipeline", "build_vocab", "textenc.vocab"),
    ("sagefuse.pipeline", "tokenize_graph", "textenc.tokenize"),
    ("sagefuse.textenc", "tokenize_graph", "textenc.tokenize"),
    ("sagefuse.trainer", "tokenize_graph", "textenc.tokenize"),
    ("sagefuse.textenc.EncoderBackbone", "__init__", "textenc.backbone_init"),
    ("sagefuse.pipeline", "node_features", "textenc.features"),
    ("sagefuse.trainer", "encode", "textenc.encode"),
    ("sagefuse.textenc", "fusion_apply", "fusion.fusion_apply"),
    ("sagefuse.textenc", "lora_apply", "fusion.lora_apply"),
    ("sagefuse.autodiff", "backward", "autodiff.backward"),
    ("sagefuse.pipeline", "train_phase1", "sage.train"),
    ("sagefuse.sage", "forward_embeddings", "sage.forward"),
    ("sagefuse.sage", "mean_aggregation_matrix", "sage.agg_build"),
    ("sagefuse.optim.AdamW", "step", "optim.step"),
    ("sagefuse.pipeline", "train_phase2", "trainer.sweep"),
    ("sagefuse.trainer", "run_phase2_seed", "trainer.seed_run"),
    ("sagefuse.trainer", "evaluate", "trainer.evaluate"),
    ("sagefuse.pipeline", "evaluate", "trainer.evaluate"),
    ("sagefuse.pipeline", "save_tensor", "tensorio.save"),
    ("sagefuse.pipeline", "load_tensor", "tensorio.load"),
]

# Spans that run only when the config's arm enables fusion adapters or LoRA
# pairs (none on text_only); every other span must record at least one call
# on every workload.
FUSION_ONLY = {"fusion.fusion_apply": "fusion", "fusion.lora_apply": "lora"}

COMMANDS = ("gen_data", "phase1", "phase2", "evaluate")

LAYER_METRICS = {
    # name: (unit, better)
    "tag.generate_s": ("s", "lower"),
    "tag.split_s": ("s", "lower"),
    "tag.save_s": ("s", "lower"),
    "tag.load_s": ("s", "lower"),
    "tag.nodes": ("count", "higher"),
    "textenc.vocab_s": ("s", "lower"),
    "textenc.tokenize_s": ("s", "lower"),
    "textenc.backbone_init_s": ("s", "lower"),
    "textenc.features_s": ("s", "lower"),
    "textenc.features_nodes_per_s": ("nodes/s", "higher"),
    "textenc.encode_train_s": ("s", "lower"),
    "textenc.encode_eval_s": ("s", "lower"),
    "textenc.encode_calls": ("count", "lower"),
    "textenc.frozen_prefix_share": ("fraction", "higher"),
    "fusion.fusion_apply_s": ("s", "lower"),
    "fusion.lora_apply_s": ("s", "lower"),
    "fusion.fusion_calls": ("count", "lower"),
    "fusion.lora_calls": ("count", "lower"),
    "autodiff.backward_phase1_s": ("s", "lower"),
    "autodiff.backward_phase2_s": ("s", "lower"),
    "autodiff.backward_calls": ("count", "lower"),
    "sage.train_s": ("s", "lower"),
    "sage.forward_s": ("s", "lower"),
    "sage.agg_build_s": ("s", "lower"),
    "sage.epochs": ("count", "higher"),
    "optim.step_phase1_s": ("s", "lower"),
    "optim.step_phase2_s": ("s", "lower"),
    "optim.steps": ("count", "higher"),
    "trainer.seed_run_self_s": ("s", "lower"),
    "trainer.evaluate_s": ("s", "lower"),
    "trainer.eval_nodes_per_s": ("nodes/s", "higher"),
    "trainer.train_nodes_per_s": ("nodes/s", "higher"),
    "trainer.epochs": ("count", "higher"),
    "trainer.useful_epoch_ratio": ("fraction", "higher"),
    "tensorio.save_s": ("s", "lower"),
    "tensorio.load_s": ("s", "lower"),
    "tensorio.bytes_written": ("bytes", "lower"),
    **{f"pipeline.{c}.self_s": ("s", "lower") for c in COMMANDS},
    **{f"trace.coverage.{c}": ("fraction", "higher") for c in COMMANDS},
    "trace.spans": ("count", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
}


def _resolve(dotted):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Span:
    __slots__ = ("name", "command", "in_eval", "start", "end", "child",
                 "parent")

    def __init__(self, name, command, in_eval, start, parent):
        self.name, self.command, self.in_eval = name, command, in_eval
        self.start, self.parent = start, parent
        self.end, self.child = None, 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


class Tracer:
    """Records spans for the wrapped calls of one pipeline run. Spans nest
    by call order; a span's self time is its duration minus its children's."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.bytes_written = 0
        self.train_nodes = 0
        self.eval_nodes = 0

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        command = name.split(".", 1)[1] if name.startswith("pipeline.") \
            else (parent.command if parent else None)
        in_eval = name == "trainer.evaluate" or bool(parent and parent.in_eval)
        span = Span(name, command, in_eval, time.perf_counter(), parent)
        self._stack.append(span)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child += span.duration
        self.spans.append(span)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return traced

    def install(self):
        for dotted, attr, name in SPAN_TARGETS:
            owner = _resolve(dotted)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))
        self._install_counters()
        return self

    def _install_counters(self):
        """Work counts taken at the same boundaries as the spans."""
        import sagefuse.pipeline as pipeline
        import sagefuse.trainer as trainer

        save = pipeline.save_tensor  # already the traced wrapper

        @functools.wraps(save)
        def counted_save(path, array):
            result = save(path, array)
            self.bytes_written += os.path.getsize(path)
            return result
        pipeline.save_tensor = counted_save

        logits = trainer.Phase2Assembly.logits
        node_ids_at = list(inspect.signature(logits).parameters).index(
            "node_ids")

        @functools.wraps(logits)
        def counted_logits(assembly, *args, **kwargs):
            node_ids = kwargs["node_ids"] if "node_ids" in kwargs \
                else args[node_ids_at - 1]
            in_eval = bool(self._stack and self._stack[-1].in_eval)
            if in_eval:
                self.eval_nodes += len(node_ids)
            else:
                self.train_nodes += len(node_ids)
            return logits(assembly, *args, **kwargs)
        trainer.Phase2Assembly.logits = counted_logits

    def calls(self):
        counts = {}
        for s in self.spans:
            counts[s.name] = counts.get(s.name, 0) + 1
        return counts

    def missing_calls(self, fusion_on, lora_on):
        """Span names whose call count contradicts the run's arm: zero calls
        where the name must run, or any call where it must not."""
        counts = self.calls()
        expected_on = {"fusion": fusion_on, "lora": lora_on}
        problems = []
        for name in sorted({n for _, _, n in SPAN_TARGETS}):
            want = expected_on[FUSION_ONLY[name]] if name in FUSION_ONLY \
                else True
            got = counts.get(name, 0)
            if want and got == 0:
                problems.append(f"{name}: no calls recorded")
            elif not want and got:
                problems.append(f"{name}: {got} calls on an arm without it")
        return problems

    def layer_metrics(self, run):
        """Per-layer table for one traced run. `run` gives the work the
        pipeline did: node count, phase-1 epochs, phase-2 (best epoch,
        epochs run) per seed, and the frozen-prefix share."""
        busy, incl, calls = {}, {}, self.calls()

        def key(s):
            if s.name == "textenc.encode":
                return "textenc.encode_eval" if s.in_eval \
                    else "textenc.encode_train"
            if s.name in ("autodiff.backward", "optim.step"):
                return f"{s.name}_{s.command}"
            return s.name

        for s in self.spans:
            k = key(s)
            busy[k] = busy.get(k, 0.0) + s.self_time
            incl[k] = incl.get(k, 0.0) + s.duration
        eval_p2 = sum(s.duration for s in self.spans
                      if s.name == "trainer.evaluate"
                      and s.command == "phase2")
        train_time = incl.get("trainer.seed_run", 0.0) - eval_p2
        seeds = run["phase2_epochs"]
        epochs = sum(n for _, n in seeds)

        def b(k):
            return busy.get(k, 0.0)

        m = {
            "tag.generate_s": b("tag.generate"),
            "tag.split_s": b("tag.split"),
            "tag.save_s": b("tag.save"),
            "tag.load_s": b("tag.load"),
            "tag.nodes": run["nodes"],
            "textenc.vocab_s": b("textenc.vocab"),
            "textenc.tokenize_s": b("textenc.tokenize"),
            "textenc.backbone_init_s": b("textenc.backbone_init"),
            "textenc.features_s": b("textenc.features"),
            "textenc.features_nodes_per_s": _rate(
                run["nodes"], b("textenc.features")),
            "textenc.encode_train_s": b("textenc.encode_train"),
            "textenc.encode_eval_s": b("textenc.encode_eval"),
            "textenc.encode_calls": calls.get("textenc.encode", 0),
            "textenc.frozen_prefix_share": run["frozen_prefix_share"],
            "fusion.fusion_apply_s": b("fusion.fusion_apply"),
            "fusion.lora_apply_s": b("fusion.lora_apply"),
            "fusion.fusion_calls": calls.get("fusion.fusion_apply", 0),
            "fusion.lora_calls": calls.get("fusion.lora_apply", 0),
            "autodiff.backward_phase1_s": b("autodiff.backward_phase1"),
            "autodiff.backward_phase2_s": b("autodiff.backward_phase2"),
            "autodiff.backward_calls": calls.get("autodiff.backward", 0),
            "sage.train_s": b("sage.train"),
            "sage.forward_s": b("sage.forward"),
            "sage.agg_build_s": b("sage.agg_build"),
            "sage.epochs": run["phase1_epochs"],
            "optim.step_phase1_s": b("optim.step_phase1"),
            "optim.step_phase2_s": b("optim.step_phase2"),
            "optim.steps": calls.get("optim.step", 0),
            "trainer.seed_run_self_s": b("trainer.seed_run"),
            "trainer.evaluate_s": b("trainer.evaluate"),
            "trainer.eval_nodes_per_s": _rate(
                self.eval_nodes, incl.get("trainer.evaluate", 0.0)),
            "trainer.train_nodes_per_s": _rate(self.train_nodes, train_time),
            "trainer.epochs": epochs,
            "trainer.useful_epoch_ratio": (
                sum(best for best, _ in seeds) / epochs if epochs else 0.0),
            "tensorio.save_s": b("tensorio.save"),
            "tensorio.load_s": b("tensorio.load"),
            "tensorio.bytes_written": self.bytes_written,
            "trace.spans": len(self.spans),
        }
        for c in COMMANDS:
            name = f"pipeline.{c}"
            total = incl.get(name, 0.0)
            m[f"{name}.self_s"] = b(name)
            m[f"trace.coverage.{c}"] = 1.0 - b(name) / total if total else 0.0
        return m

    def span_rows(self):
        """Spans as JSON-ready rows, in the order they ended."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"id": i, "parent": index.get(id(s.parent)), "name": s.name,
                 "command": s.command, "start": s.start, "end": s.end,
                 "self": s.self_time} for i, s in enumerate(self.spans)]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0
