import dataclasses
import inspect
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import CONFIG_DIR, token_inputs
from sagefuse.cli import main
from sagefuse.config import ConfigError, ExperimentConfig
from sagefuse import pipeline, textenc, trainer
from sagefuse.tensorio import load_tensor, save_tensor
from sagefuse.textenc import EncoderBackbone

MICRO_CONFIG = """\
[dataset]
n_nodes = 60
num_classes = 3
avg_degree = 4
topic_vocab_size = 10
text_len = 6
text_noise = 0.2
train_frac = 0.6
val_frac = 0.2
test_frac = 0.2

[backbone]
layers = 4
dim = 16
heads = 2
mlp_width = 32
max_tokens = 16
vocab_max = 256

[sage]
embed_dim = 8
classifier_hidden = 8
epochs = 20
patience = 5

[fusion]
rank = 2
pass1_layers = 1
pass2_layers = 3

[trainer]
epochs = 2
patience = 2
batch_size = 16
seeds = 0
seq_len = 8

[output]
dir = {out}
"""

# The audit-only backbone shape that commands building weights reject.
FUSED_QKV = ("vocab_max = 256", "vocab_max = 256\nfused_qkv = true")


SECTION_FIELDS = [(section.name, f)
                  for section in dataclasses.fields(ExperimentConfig)
                  for f in dataclasses.fields(section.default_factory)]
# The str keys that take any text; every other str key declares choices.
FREE_TEXT_KEYS = {("dataset", "nodes_path"), ("dataset", "edges_path"),
                  ("dataset", "splits_path"), ("trainer", "prompt"),
                  ("output", "dir")}


def _outside(interval, is_float):
    """Config text for values just outside each end of `interval` (inf is
    outside an end open at inf), and nan for a float key."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    if is_float:
        below = low if interval[0] == "(" else np.nextafter(low, -np.inf)
        above = high if interval[-1] == ")" else np.nextafter(high, np.inf)
        return [repr(float(v)) for v in (below, above, np.nan)]
    values = [int(low) - (interval[0] == "[")]
    if high < np.inf:
        values.append(int(high) + (interval[-1] == "]"))
    return [str(v) for v in values]


def _closed_ends(interval):
    """The ends that `interval` includes, as config text."""
    low, high = interval[1:-1].split(",")
    return [end.strip() for end, bracket in ((low, interval[0]),
                                             (high, interval[-1]))
            if bracket in "[]"]


class TestConfig:
    def test_empty_config_is_all_defaults(self):
        cfg = ExperimentConfig.from_string("")
        assert cfg.trainer.lr == 3e-4
        assert cfg.backbone.layers == 12
        assert cfg.dataset.n_nodes == 2000

    def test_round_trip_is_identity(self):
        cfg = ExperimentConfig.from_string(
            "[trainer]\nlr = 0.001\nseeds = 1,2\n[fusion]\nrank = 8\n")
        text = cfg.to_string()
        again = ExperimentConfig.from_string(text)
        assert again.to_string() == text
        assert again.trainer.seeds == (1, 2)
        assert again.fusion.rank == 8
        assert again.hash() == cfg.hash()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            ExperimentConfig.from_string("[optimizer]\nlr = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_string("[trainer]\nlearning_rate = 1\n")

    def test_bad_value_rejected_with_location(self):
        with pytest.raises(ConfigError, match=r"\[trainer\] epochs"):
            ExperimentConfig.from_string("[trainer]\nepochs = soon\n")

    def test_degenerate_generator_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_string(
                "[dataset]\nstructure_signal = 0.4\n")

    def test_default_cfg_equals_builtin_defaults(self):
        path = Path(__file__).resolve().parent.parent / "configs" / \
            "default.cfg"
        assert ExperimentConfig.from_file(path) == ExperimentConfig()

    def test_typed_views_reflect_sections(self):
        cfg = ExperimentConfig.from_string(
            "[backbone]\nprecision = f64\n[trainer]\nbaseline = lora_only\n")
        assert cfg.backbone.dtype == np.float64
        assert cfg.run_config().toggles() == (False, True)

    def test_every_key_declares_what_it_accepts(self):
        """Each int and float key declares a range, and each str key but
        the free-text ones declares its choices, so `check_declared` sees
        every key a new section field adds."""
        undeclared = []
        for section, f in SECTION_FIELDS:
            need = None if (section, f.name) in FREE_TEXT_KEYS else \
                {int: "range", float: "range", str: "choices"}.get(
                    type(f.default))
            if need and need not in f.metadata:
                undeclared.append(f"[{section}] {f.name}")
        assert undeclared == []

    @pytest.mark.parametrize("section, key, value", [
        (section, f.name, value) for section, f in SECTION_FIELDS
        if "range" in f.metadata
        for value in _outside(f.metadata["range"],
                              type(f.default) is float)])
    def test_value_outside_a_declared_range_is_refused(self, section, key,
                                                       value):
        with pytest.raises(ConfigError, match=re.escape(
                f"[{section}] {key} must lie in ")):
            ExperimentConfig.from_string(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("section, key, value", [
        (section, f.name, end) for section, f in SECTION_FIELDS
        if "range" in f.metadata for end in _closed_ends(f.metadata["range"])])
    def test_closed_end_of_a_declared_range_is_accepted(self, section, key,
                                                        value):
        """Other keys' rules may refuse the value; its own range may not."""
        try:
            ExperimentConfig.from_string(f"[{section}]\n{key} = {value}\n")
        except ConfigError as e:
            assert f"[{section}] {key} must lie in" not in str(e)

    @pytest.mark.parametrize("section, key", [
        (section, f.name) for section, f in SECTION_FIELDS
        if "choices" in f.metadata])
    def test_value_outside_the_declared_choices_is_refused(self, section,
                                                           key):
        with pytest.raises(ConfigError, match=re.escape(
                f"[{section}] {key} must be one of ")):
            ExperimentConfig.from_string(f"[{section}]\n{key} = bogus\n")

    @pytest.mark.parametrize("path", sorted(
        [*CONFIG_DIR.glob("*.cfg"),
         *(CONFIG_DIR.parent / "perfbench" / "workloads").glob("*.cfg")]),
        ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_shipped_config_loads_and_validates(self, path):
        cfg = ExperimentConfig.from_file(path)
        assert cfg.validate() is cfg
        assert ExperimentConfig.from_string(cfg.to_string()) == cfg


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """Micro pipeline materialized once: gen-data + phase1 via the CLI."""
    root = tmp_path_factory.mktemp("run")
    config_path = root / "micro.cfg"
    config_path.write_text(MICRO_CONFIG.format(out=root / "out"))
    assert main(["--config", str(config_path), "gen-data"]) == 0
    assert main(["--config", str(config_path), "phase1"]) == 0
    return root, config_path


class TestCli:
    def test_gen_data_refuses_overwrite_without_force(self, run_dir, capsys):
        _, config_path = run_dir
        assert main(["--config", str(config_path), "gen-data"]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(["--config", str(config_path), "--force",
                     "gen-data"]) == 0
        # Regenerating with --force must reproduce identical files, so the
        # phase-1 artifacts stay valid.

    @pytest.mark.parametrize("command", ["phase1", "phase2"])
    def test_phase_refuses_overwrite_without_force(self, phase2_run, tmp_path,
                                                   capsys, command):
        out, cfg_path = _copy_run(phase2_run, tmp_path)
        before = _snapshot(out)
        assert main(["--config", str(cfg_path), command]) == 2
        assert _one_error_line(capsys) == (
            f"error: {out / command} already contains files; pass --force "
            "to overwrite\n")
        assert _snapshot(out) == before

    def test_gen_data_writes_loadable_dataset(self, run_dir):
        root, config_path = run_dir
        cfg = ExperimentConfig.from_file(config_path)
        graph = pipeline.load_dataset(cfg)
        assert graph.num_nodes == 60
        graph.validate()
        manifest = json.loads(
            (root / "out" / "data" / "manifest.json").read_text())
        assert sorted(manifest) == ["command", "config_hash", "dataset"]
        assert manifest["config_hash"] == cfg.hash()
        assert manifest["dataset"] == {
            name: getattr(cfg.dataset, name) for name in (
                "n_nodes", "num_classes", "avg_degree", "topic_vocab_size",
                "text_len", "text_noise", "structure_signal", "seed",
                "train_frac", "val_frac", "test_frac", "split_seed")}

    def test_gen_data_seed_changes_files(self, tmp_path):
        outputs = {}
        for seed in (1, 2):
            cfg_path = tmp_path / f"s{seed}.cfg"
            text = MICRO_CONFIG.format(out=tmp_path / f"o{seed}").replace(
                "[dataset]\n", f"[dataset]\nseed = {seed}\n", 1)
            cfg_path.write_text(text)
            assert main(["--config", str(cfg_path), "gen-data"]) == 0
            outputs[seed] = (tmp_path / f"o{seed}" / "data"
                             / "nodes.jsonl").read_text()
        assert outputs[1] != outputs[2]

    def test_gen_data_of_file_sourced_data_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "files.cfg"
        cfg_path.write_text(MICRO_CONFIG.format(out=tmp_path / "out").replace(
            "[dataset]\n", "[dataset]\nsource = files\n"
            "nodes_path = nodes.jsonl\nedges_path = edges.tsv\n"))
        assert main(["--config", str(cfg_path), "gen-data"]) == 2
        assert _one_error_line(capsys) == (
            "error: gen-data requires dataset.source = synthetic\n")
        assert not (tmp_path / "out").exists()

    def test_invalid_generator_param_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("[dataset]\nstructure_signal = 0.4\n")
        assert main(["--config", str(cfg_path), "gen-data"]) == 2
        assert "structure_signal" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (("heads = 2", "heads = 3"), "dim 16 not divisible by 3 heads"),
        (("\nlayers = 4", "\nlayers = 1"),
         "[backbone] layers must lie in [2, inf), got 1"),
        (("seq_len = 8", "seq_len = 40"), "seq_len 40 outside [4, "),
        (("seq_len = 8", "seq_len = 3"),
         "[trainer] seq_len must lie in [4, inf), got 3"),
        (("pass1_layers = 1\npass2_layers = 3",
          "pass1_layers = 3\npass2_layers = 1"), "must all precede"),
        (("pass2_layers = 3", "pass2_layers = 3\ntying = shared\n"
          "lora_targets = q,v"), "shared fusion tying needs LoRA pairs"),
        # The arm is `[trainer] baseline` alone; these keys are gone.
        (("pass2_layers = 3", "pass2_layers = 3\nenable_fusion = false"),
         "unknown key 'enable_fusion' in [fusion]"),
        (("pass2_layers = 3", "pass2_layers = 3\nenable_lora = false"),
         "unknown key 'enable_lora' in [fusion]"),
        (("pass2_layers = 3", "pass2_layers = 3\nmode = replace"),
         "unknown key 'mode' in [fusion]"),
        (("seeds = 0", "seeds ="), "need at least one seed"),
        (("seeds = 0", "seeds = 0,0"),
         "seeds [0, 0] list a seed more than once"),
        (("batch_size = 16", "batch_size = 0"),
         "[trainer] batch_size must lie in [1, inf), got 0"),
        (("batch_size = 16", "batch_size = -4"),
         "[trainer] batch_size must lie in [1, inf), got -4"),
        (("pass1_layers = 1", "pass1_layers = 1,1"),
         "pass1 layers [1, 1] list a layer more than once"),
        # One placement list alone would silently run the default placement.
        (("pass2_layers = 3", "pass2_layers ="),
         "pass1_layers and pass2_layers must both be listed"),
        (("pass1_layers = 1", "pass1_layers ="),
         "pass1_layers and pass2_layers must both be listed"),
        (("\ndim = 16", "\ndim = 0"),
         "[backbone] dim must lie in [1, inf), got 0"),
        (("mlp_width = 32", "mlp_width = 0"),
         "[backbone] mlp_width must lie in [1, inf), got 0"),
        (("vocab_max = 256", "vocab_max = 0"),
         "[backbone] vocab_max must lie in [1, inf), got 0"),
        (("embed_dim = 8", "embed_dim = 0"),
         "[sage] embed_dim must lie in [1, inf), got 0"),
        (("classifier_hidden = 8", "classifier_hidden = 0"),
         "[sage] classifier_hidden must lie in [1, inf), got 0"),
        (("epochs = 20", "epochs = -2"),
         "[sage] epochs must lie in [0, inf), got -2"),
        (("epochs = 2\npatience = 2", "epochs = -1\npatience = 2"),
         "[trainer] epochs must lie in [0, inf), got -1"),
        (("epochs = 20", "epochs = 20\nlr = nan"),
         "[sage] lr must lie in (0, inf), got nan"),
        (("epochs = 20", "epochs = 20\nweight_decay = inf"),
         "[sage] weight_decay must lie in [0, inf), got inf"),
        (("patience = 5", "patience = -3"),
         "[sage] patience must lie in [1, inf), got -3"),
        (("batch_size = 16", "batch_size = 16\nlr = -1"),
         "[trainer] lr must lie in (0, inf), got -1.0"),
        (("batch_size = 16", "batch_size = 16\nweight_decay = -0.5"),
         "[trainer] weight_decay must lie in [0, inf), got -0.5"),
        (("patience = 2", "patience = 0"),
         "[trainer] patience must lie in [1, inf), got 0"),
        # Seeds below 0 and a non-positive degree, once past the check.
        (("text_noise = 0.2", "text_noise = 0.2\nseed = -1"),
         "[dataset] seed must lie in [0, inf), got -1"),
        (("test_frac = 0.2", "test_frac = 0.2\nsplit_seed = -2"),
         "[dataset] split_seed must lie in [0, inf), got -2"),
        (("vocab_max = 256", "vocab_max = 256\nseed = -1"),
         "[backbone] seed must lie in [0, inf), got -1"),
        (("classifier_hidden = 8", "classifier_hidden = 8\nseed = -5"),
         "[sage] seed must lie in [0, inf), got -5"),
        (("avg_degree = 4", "avg_degree = -3"),
         "[dataset] avg_degree must lie in (0, inf), got -3.0"),
        # Cases the section constructors checked before the config did.
        (("rank = 2", "rank = 0"),
         "[fusion] rank must lie in [1, inf), got 0"),
        (("seq_len = 8", "seq_len = 8\nbaseline = gnn_only"),
         "[trainer] baseline must be one of ('fused', 'text_only', "
         "'lora_only'), got 'gnn_only'"),
        (("vocab_max = 256", "vocab_max = 256\npooling = max"),
         "[backbone] pooling must be one of ('mean', 'cls'), got 'max'"),
        (("vocab_max = 256", "vocab_max = 256\nprecision = f16"),
         "[backbone] precision must be one of ('f32', 'f64'), got 'f16'"),
        (("pass2_layers = 3", "pass2_layers = 3\ntying = tied"),
         "[fusion] tying must be one of ('separate', 'shared'), got 'tied'"),
        (("n_nodes = 60", "n_nodes = 60\nsource = url"),
         "[dataset] source must be one of ('synthetic', 'files'), got 'url'"),
        (("text_noise = 0.2", "text_noise = 1.0"),
         "[dataset] text_noise must lie in [0, 1), got 1.0"),
        (("n_nodes = 60", "n_nodes = 29"),
         "[dataset] n_nodes=29 too small for 3 classes (need >= 10*C)"),
        (("avg_degree = 4", "avg_degree = 30"),
         "[dataset] avg_degree=30.0 too dense for n_nodes=60"),
        (("test_frac = 0.2", "test_frac = 0.3"),
         "[dataset] split fractions sum to 1.1"),
        (("pass2_layers = 3", "pass2_layers = 1,3"),
         "[fusion] layers [1] assigned to both sources"),
        (("pass2_layers = 3", "pass2_layers = 4"),
         "[fusion] adapter layer 4 outside [0, 4)"),
        (("pass2_layers = 3", "pass2_layers = 3\nlora_targets = q,x"),
         "[fusion] unknown LoRA targets ['x']"),
    ])
    def test_impossible_config_exits_2_at_load(self, tmp_path, capsys, edit,
                                               message):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MICRO_CONFIG.format(out=tmp_path / "out")
                            .replace(*edit))
        for command in ("audit", "gen-data"):
            assert main(["--config", str(cfg_path), command]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err
        assert not (tmp_path / "out").exists()

    def test_baseline_flag_applies_before_validation(self, tmp_path,
                                                     capsys):
        cfg_path = tmp_path / "text_only.cfg"
        cfg_path.write_text(MICRO_CONFIG.format(out=tmp_path / "out").replace(
            "pass1_layers = 1\npass2_layers = 3",
            "pass1_layers = 3\npass2_layers = 1").replace(
            "seq_len = 8", "seq_len = 8\nbaseline = text_only"))
        assert main(["--config", str(cfg_path), "audit"]) == 0
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "phase2",
                     "--baseline", "fused"]) == 2
        assert "must all precede" in capsys.readouterr().err

    def test_corrupted_nodes_file_exits_2_with_line_number(self, tmp_path,
                                                           capsys):
        nodes = tmp_path / "nodes.jsonl"
        nodes.write_text('{"id": 0, "text": "a", "label": 0}\n{broken\n')
        edges = tmp_path / "edges.tsv"
        edges.write_text("")
        cfg_path = tmp_path / "files.cfg"
        cfg_path.write_text(
            f"[dataset]\nsource = files\nnodes_path = {nodes}\n"
            f"edges_path = {edges}\n[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfg_path), "phase1"]) == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line, message", [
        ("5", "expected an object"),
        ('{"id": "1", "text": "b", "label": 1}', "non-integer id '1'"),
        ('{"id": 1, "text": "b", "label": 0.5}', "non-integer label 0.5"),
        ('{"id": 1, "text": null, "label": 1}', "non-string text None"),
        ('{"id": 1, "text": ["b"], "label": 1}', "non-string text ['b']"),
    ])
    def test_malformed_node_line_exits_2_with_line_number(
            self, tmp_path, capsys, bad_line, message):
        nodes = tmp_path / "nodes.jsonl"
        nodes.write_text('{"id": 0, "text": "a", "label": 0}\n'
                         + bad_line + "\n")
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n")
        cfg_path = tmp_path / "files.cfg"
        cfg_path.write_text(
            f"[dataset]\nsource = files\nnum_classes = 2\n"
            f"nodes_path = {nodes}\nedges_path = {edges}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfg_path), "phase1"]) == 2
        err = capsys.readouterr().err
        assert f"{nodes}:2:" in err and message in err

    @pytest.mark.parametrize("bad_line, message", [
        ("{broken", "bad JSON"),
        ('{"split": "train"}', "'id'"),
        ('{"id": true, "split": "val"}', "integer 'id'"),
    ])
    def test_malformed_splits_file_exits_2_with_line_number(
            self, tmp_path, capsys, bad_line, message):
        nodes = tmp_path / "nodes.jsonl"
        nodes.write_text('{"id": 0, "text": "a", "label": 0}\n'
                         '{"id": 1, "text": "b", "label": 1}\n')
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n")
        splits = tmp_path / "splits.jsonl"
        splits.write_text('{"id": 0, "split": "train"}\n' + bad_line + "\n")
        cfg_path = tmp_path / "files.cfg"
        cfg_path.write_text(
            f"[dataset]\nsource = files\nnum_classes = 2\n"
            f"nodes_path = {nodes}\nedges_path = {edges}\n"
            f"splits_path = {splits}\n[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfg_path), "phase1"]) == 2
        err = capsys.readouterr().err
        assert f"{splits}:2:" in err and message in err

    @pytest.mark.parametrize("role", ["nodes", "edges", "splits"])
    def test_non_utf8_data_file_exits_2_naming_its_line(self, tmp_path,
                                                         capsys, role):
        lines = {"nodes": [b'{"id": 0, "text": "a", "label": 0}',
                           b'{"id": 1, "text": "b", "label": 1}'],
                 "edges": [b"0\t1", b"1\t0"],
                 "splits": [b'{"id": 0, "split": "train"}',
                            b'{"id": 1, "split": "test"}']}
        lines[role][1] += b"\xff"
        paths = {r: tmp_path / f"{r}.data" for r in lines}
        for r, rows in lines.items():
            paths[r].write_bytes(b"\n".join(rows) + b"\n")
        cfg_path = tmp_path / "files.cfg"
        cfg_path.write_text(
            f"[dataset]\nsource = files\nnum_classes = 2\n"
            f"nodes_path = {paths['nodes']}\nedges_path = {paths['edges']}\n"
            f"splits_path = {paths['splits']}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfg_path), "phase1"]) == 2
        assert _one_error_line(capsys) == (
            f"error: {paths[role]}:2: not UTF-8 (byte 0xff)\n")
        assert not (tmp_path / "out").exists()

    def test_empty_generated_split_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "m.cfg"
        cfg_path.write_text(MICRO_CONFIG.format(out=tmp_path / "out").replace(
            "train_frac = 0.6\nval_frac = 0.2\ntest_frac = 0.2",
            "train_frac = 0.79\nval_frac = 0.01\ntest_frac = 0.2"))
        assert main(["--config", str(cfg_path), "gen-data"]) == 2
        assert _one_error_line(capsys) == (
            "error: split fractions 0.79/0.01/0.2 of 60 nodes: no node is "
            "in the 'val' split\n")
        assert not (tmp_path / "out").exists()

    def test_splits_file_without_a_val_node_exits_2(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.jsonl"
        nodes.write_text("".join(
            f'{{"id": {i}, "text": "t{i % 2}", "label": {i % 2}}}\n'
            for i in range(4)))
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n")
        splits = tmp_path / "splits.jsonl"
        splits.write_text("".join(
            f'{{"id": {i}, "split": "{s}"}}\n'
            for i, s in enumerate(["train", "train", "test", "test"])))
        cfg_path = tmp_path / "files.cfg"
        cfg_path.write_text(
            f"[dataset]\nsource = files\nnum_classes = 2\n"
            f"nodes_path = {nodes}\nedges_path = {edges}\n"
            f"splits_path = {splits}\n[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfg_path), "phase1"]) == 2
        assert _one_error_line(capsys) == (
            f"error: {splits}: no node is in the 'val' split\n")
        assert not (tmp_path / "out").exists()

    def test_train_split_without_word_tokens_exits_2(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.jsonl"
        nodes.write_text("".join(
            f'{{"id": {i}, "text": "!!! ???", "label": {i % 2}}}\n'
            for i in range(30)))
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n")
        cfg_path = tmp_path / "files.cfg"
        cfg_path.write_text(
            f"[dataset]\nsource = files\nnum_classes = 2\n"
            f"nodes_path = {nodes}\nedges_path = {edges}\n"
            f"[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfg_path), "phase1"]) == 2
        assert _one_error_line(capsys) == (
            "error: no word tokens in the texts of split 'train'\n")
        assert not (tmp_path / "out").exists()

    def test_phase2_before_phase1_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "m.cfg"
        cfg_path.write_text(MICRO_CONFIG.format(out=tmp_path / "out"))
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        assert main(["--config", str(cfg_path), "phase2"]) == 1
        assert "phase1" in capsys.readouterr().err

    def test_unknown_ablation_choice_exits_2(self, run_dir):
        _, config_path = run_dir
        assert main(["--config", str(config_path), "ablate",
                     "--what", "gate"]) == 2

    def test_evaluate_without_checkpoint_exits_1(self, run_dir, capsys):
        _, config_path = run_dir
        assert main(["--config", str(config_path), "evaluate",
                     "--seed", "99"]) == 1
        assert "phase2" in capsys.readouterr().err

    def test_corrupted_checkpoint_tensor_exits_1_naming_shapes(
            self, run_dir, tmp_path, capsys):
        root, config_path = run_dir
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        cfg_path = tmp_path / "copy.cfg"
        cfg_path.write_text(MICRO_CONFIG.format(out=out))
        assert main(["--config", str(cfg_path), "--force", "phase2"]) == 0
        ckpt = out / "phase2" / "checkpoints" / "seed0"
        save_tensor(ckpt / "head.w.gtsr", np.zeros((2, 5), dtype=np.float32))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "evaluate"]) == 1
        err = capsys.readouterr().err
        assert "'head.w'" in err and "(2, 5)" in err and "(3, 16)" in err

    def test_phase2_report_tagged_with_baseline(self, run_dir):
        root, config_path = run_dir
        assert main(["--config", str(config_path), "--force", "phase2",
                     "--baseline", "text_only"]) == 0
        report = json.loads(
            (root / "out" / "phase2" / "report.json").read_text())
        assert report["baseline"] == "text_only"
        assert report["metric_std"] is None  # single seed
        assert "wall_clock_sec" not in report
        timing = json.loads(
            (root / "out" / "phase2" / "timing.json").read_text())
        assert timing["wall_clock_sec"] > 0

    def test_phase2_then_evaluate_round_trips_checkpoint(self, run_dir,
                                                         capsys):
        root, config_path = run_dir
        assert main(["--config", str(config_path), "--force",
                     "phase2"]) == 0
        report = json.loads(
            (root / "out" / "phase2" / "report.json").read_text())
        capsys.readouterr()
        assert main(["--config", str(config_path), "evaluate",
                     "--split", "test"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["metric"] == pytest.approx(
            report["per_seed"][0]["metric"], abs=1e-6)

    def test_seeds_override_flag(self, run_dir):
        root, config_path = run_dir
        assert main(["--config", str(config_path), "--seeds", "0,1",
                     "--force", "phase2"]) == 0
        report = json.loads(
            (root / "out" / "phase2" / "report.json").read_text())
        assert [s["seed"] for s in report["per_seed"]] == [0, 1]
        assert report["metric_std"] is not None

    def test_bad_seeds_flag_exits_2(self, run_dir):
        _, config_path = run_dir
        assert main(["--config", str(config_path), "--seeds", "0,x",
                     "phase2"]) == 2

    def test_repeated_seed_flag_exits_2(self, run_dir, capsys):
        _, config_path = run_dir
        assert main(["--config", str(config_path), "--seeds", "0,0",
                     "phase2"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: [trainer] seeds [0, 0] list a seed more "
                       "than once\n")

    @pytest.mark.parametrize("ranks, message", [
        ("2,x", "--ranks must be comma-separated integers"),
        ("2,0", "[fusion] rank must lie in [1, inf), got 0"),
    ])
    def test_bad_ranks_flag_exits_2(self, run_dir, capsys, ranks, message):
        _, config_path = run_dir
        assert main(["--config", str(config_path), "ablate", "--what",
                     "rank", "--ranks", ranks]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_audit_command_writes_component_table(self, run_dir, capsys):
        root, config_path = run_dir
        assert main(["--config", str(config_path), "audit"]) == 0
        out = capsys.readouterr().out
        assert "lora pairs" in out
        audit = json.loads((root / "out" / "audit.json").read_text())
        assert audit["total_trainable"] == (
            audit["gnn"] + audit["fusion"] + audit["lora_pairs"]
            + audit["classifier_head"])

    def test_audit_counts_equal_report_counts_for_lora_targets(
            self, run_dir, tmp_path):
        out, cfg_path = _copy_run(
            run_dir, tmp_path,
            ("pass2_layers = 3", "pass2_layers = 3\nlora_targets = q,v"))
        for command in (["--force", "phase2"], ["audit"]):
            assert main(["--config", str(cfg_path), *command]) == 0
        audit = json.loads((out / "audit.json").read_text())
        report = json.loads((out / "phase2" / "report.json").read_text())
        for key in ("gnn", "fusion", "lora_pairs", "classifier_head",
                    "phase2_trainable", "total_trainable"):
            assert audit[key] == report["audit"][key], key
        assert audit["lora_pairs"] == 2 * 2 * 2 * (16 + 16)

    def test_audit_and_report_differ_only_in_the_token_table(
            self, phase2_run, tmp_path):
        out, cfg_path = _copy_run(phase2_run, tmp_path)
        assert main(["--config", str(cfg_path), "audit"]) == 0
        audit = json.loads((out / "audit.json").read_text())
        report = json.loads((out / "phase2" / "report.json").read_text())
        cfg = ExperimentConfig.from_file(cfg_path)
        vocab, _ = pipeline.load_phase1_artifacts(cfg)
        assert vocab.size < cfg.backbone.vocab_max
        for key in ("gnn", "fusion", "lora_pairs", "classifier_head",
                    "phase2_trainable", "total_trainable"):
            assert audit[key] == report["audit"][key], key
        assert report["audit"]["backbone_total"] - audit["backbone_total"] \
            == (vocab.size - cfg.backbone.vocab_max) * cfg.backbone.dim

    def test_audit_lora_component_doubles_with_rank(self, run_dir, tmp_path):
        _, config_path = run_dir
        audits = {}
        for rank in (2, 4):
            cfg = ExperimentConfig.from_file(config_path)
            cfg.fusion.rank = rank
            cfg.output.dir = str(tmp_path / f"r{rank}")
            audits[rank] = pipeline.run_audit(cfg)
        assert audits[4].lora_pairs == 2 * audits[2].lora_pairs

    def test_prompt_ablation_table_schema(self, run_dir, capsys):
        root, config_path = run_dir
        assert main(["--config", str(config_path), "ablate", "--what",
                     "prompt", "--prompts", "classify:;"]) == 0
        csv_text = (root / "out" / "ablate_prompt.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "prompt,metric_mean,metric_std"
        assert len(lines) == 3  # header + two prompts
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].split() == ["prompt", "metric_mean", "metric_std"]
        assert len(printed) == 3
        assert not (root / "out" / "ablate_prompt.txt").exists()

    def test_rank_ablation_table_schema(self, run_dir):
        root, config_path = run_dir
        assert main(["--config", str(config_path), "ablate", "--what",
                     "rank", "--ranks", "1,2"]) == 0
        lines = (root / "out" / "ablate_rank.csv").read_text().strip() \
            .splitlines()
        assert lines[0] == "rank,metric_mean,metric_std,trainable_params"
        assert len(lines) == 3

    @pytest.mark.parametrize("command", [
        ["phase1"], ["phase2"], ["evaluate"], ["ablate", "--what", "rank"]])
    def test_fused_qkv_rejected_before_writing(self, run_dir, tmp_path,
                                               capsys, command):
        out, cfg_path = _copy_run(run_dir, tmp_path, FUSED_QKV)
        before = _snapshot(out)
        assert main(["--config", str(cfg_path), *command]) == 2
        assert "fused_qkv" in _one_error_line(capsys)
        assert _snapshot(out) == before

    def test_fused_qkv_accepted_by_gen_data_and_audit(self, run_dir,
                                                      tmp_path):
        out, cfg_path = _copy_run(run_dir, tmp_path, FUSED_QKV)
        assert main(["--config", str(cfg_path), "--force", "gen-data"]) == 0
        assert main(["--config", str(cfg_path), "audit"]) == 0
        assert (out / "audit.json").exists()


def _data_key(root):
    """The [dataset] section of the phase-1 key of the micro run under
    `root`: the digest of each generated file and the class count."""
    data = root / "out" / "data"
    return {"nodes": pipeline._sha256(data / "nodes.jsonl"),
            "edges": pipeline._sha256(data / "edges.tsv"),
            "splits": pipeline._sha256(data / "splits.jsonl"),
            "num_classes": 3}


def _copy_run(source, tmp_path, *edits):
    """A copy of a module fixture's run (by default the micro phase-1 run)
    under its config with text edits applied."""
    root, config_path = source
    out = tmp_path / "out"
    shutil.copytree(root / "out", out)
    text = config_path.read_text().replace(str(root / "out"), str(out))
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg_path = tmp_path / "edited.cfg"
    cfg_path.write_text(text)
    return out, cfg_path


# A phase-2 rate at which the micro runs train measurably: at the config's
# 3e-4 every arm stays at ln 3 and the arms agree to 4 decimals.
TRAINS = ("[trainer]\n", "[trainer]\nlr = 0.01\n")


def _in_process_run(cfg_path):
    """The phase-2 report computed directly by the trainer from the tokens
    and phase 1's embedding files (no node table or prefix file), and its
    inputs."""
    cfg = ExperimentConfig.from_file(cfg_path)
    graph = pipeline.load_dataset(cfg)
    phase1 = pipeline.phase1_dir(cfg)
    vocab = textenc.Vocabulary.from_dict(
        json.loads((phase1 / "vocab.json").read_text()))
    backbone = EncoderBackbone(cfg.backbone, vocab.size)
    run_cfg = cfg.run_config()
    ids, mask = textenc.tokenize_graph(graph, vocab, run_cfg.prompt,
                                       run_cfg.seq_len)
    pass1, pass2 = (load_tensor(phase1 / f"{name}.gtsr",
                                dtype=cfg.backbone.dtype)
                    for name in ("pass1", "pass2"))
    inputs = token_inputs(graph, backbone, ids, mask, pass1, pass2)
    return trainer.train_phase2(backbone, inputs, run_cfg), inputs


def _in_process_report(cfg_path):
    return _in_process_run(cfg_path)[0].as_dict()


def _same_training(report, reference):
    keys = ("baseline", "per_seed", "metric_mean", "metric_std")
    return {k: report[k] for k in keys} == {k: reference[k] for k in keys}


def _evaluated(cfg_path, capsys, *flags):
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "evaluate", *flags]) == 0
    return json.loads(capsys.readouterr().out)["metric"]


@pytest.fixture(scope="module")
def phase2_run(run_dir, tmp_path_factory):
    """A copy of the micro phase-1 run with phase 2 (seed 0) done."""
    out, cfg_path = _copy_run(run_dir, tmp_path_factory.mktemp("phase2"))
    shutil.rmtree(out / "phase2", ignore_errors=True)
    assert main(["--config", str(cfg_path), "phase2"]) == 0
    return out.parent, cfg_path


# The commands that read phase 1's outputs, each on a run directory that
# may already hold phase-2 outputs.
AFTER_PHASE1 = (["--force", "phase2"], ["evaluate"],
                ["ablate", "--what", "rank", "--ranks", "2"])


# A new value for the class count, every [backbone] and [sage] key, the
# prompt and seq_len (`fused_qkv` is refused at config load).
KEY_EDITS = [
    ("dataset", "num_classes", ("num_classes = 3", "num_classes = 4")),
    ("backbone", "layers", ("layers = 4", "layers = 5")),
    ("backbone", "dim", ("dim = 16", "dim = 32")),
    ("backbone", "heads", ("heads = 2", "heads = 4")),
    ("backbone", "mlp_width", ("mlp_width = 32", "mlp_width = 48")),
    ("backbone", "max_tokens", ("max_tokens = 16", "max_tokens = 24")),
    ("backbone", "vocab_max", ("vocab_max = 256", "vocab_max = 128")),
    ("backbone", "pooling", ("vocab_max = 256",
                             "vocab_max = 256\npooling = cls")),
    ("backbone", "seed", ("vocab_max = 256", "vocab_max = 256\nseed = 1")),
    ("backbone", "precision", ("vocab_max = 256",
                               "vocab_max = 256\nprecision = f64")),
    ("sage", "embed_dim", ("embed_dim = 8", "embed_dim = 12")),
    ("sage", "classifier_hidden", ("classifier_hidden = 8",
                                   "classifier_hidden = 12")),
    ("sage", "lr", ("epochs = 20", "epochs = 20\nlr = 0.5")),
    ("sage", "weight_decay", ("epochs = 20", "epochs = 20\nweight_decay = 0")),
    ("sage", "epochs", ("epochs = 20", "epochs = 21")),
    ("sage", "patience", ("patience = 5", "patience = 6")),
    ("sage", "seed", ("patience = 5", "patience = 5\nseed = 1")),
    ("trainer", "seq_len", ("seq_len = 8", "seq_len = 10")),
    ("trainer", "prompt", ("seq_len = 8", "seq_len = 8\nprompt = classify:")),
]


class TestFrozenPrefixFile:
    def test_phase1_records_the_prefix_key(self, run_dir):
        root, config_path = run_dir
        cfg = ExperimentConfig.from_file(config_path)
        phase1 = root / "out" / "phase1"
        key = json.loads((phase1 / "nodes.json").read_text())["key"]
        assert key == {"dataset": _data_key(root), "backbone":
                       dataclasses.asdict(cfg.backbone),
                       "sage": dataclasses.asdict(cfg.sage),
                       "trainer": {"prompt": "", "seq_len": 8}, "layer": 1}
        assert key["backbone"]["precision"] == "f32"
        assert (phase1 / "prefix.gtsr").read_bytes()[:4] == b"GTSR"
        assert not (phase1 / "features.json").exists()

    def test_matching_key_reads_the_file(self, run_dir, tmp_path,
                                         monkeypatch):
        out, cfg_path = _copy_run(run_dir, tmp_path, TRAINS)
        reference = _in_process_report(cfg_path)

        def refuse(*args, **kwargs):
            raise AssertionError("prefix recomputed despite a matching file")

        monkeypatch.setattr(trainer, "prefix_states", refuse)
        assert main(["--config", str(cfg_path), "--force", "phase2"]) == 0
        assert main(["--config", str(cfg_path), "evaluate"]) == 0
        report = json.loads((out / "phase2" / "report.json").read_text())
        assert _same_training(report, reference)

    @pytest.mark.parametrize("edit", [
        ("pass1_layers = 1", "pass1_layers = 2"),
        ("pass1_layers = 1", "pass1_layers = 0"),
    ], ids=["placement_up", "placement_down"])
    def test_moved_placement_equals_the_tokens_run(self, run_dir, tmp_path,
                                                   edit):
        """Up, the saved states run on to the new layer; down, the
        dataset is read and tokenized."""
        out, cfg_path = _copy_run(run_dir, tmp_path, TRAINS, edit)
        assert main(["--config", str(cfg_path), "--force", "phase2"]) == 0
        report = json.loads((out / "phase2" / "report.json").read_text())
        assert _same_training(report, _in_process_report(cfg_path))

    @pytest.mark.parametrize("section, name, edit", KEY_EDITS,
                             ids=[f"{s}.{n}" for s, n, _ in KEY_EDITS])
    def test_changed_key_setting_is_refused(self, phase2_run, tmp_path,
                                            capsys, section, name, edit):
        out, cfg_path = _copy_run(phase2_run, tmp_path, edit)
        before = _snapshot(out)
        for command in AFTER_PHASE1 + (["ablate", "--what", "prompt",
                                        "--prompts", ""],):
            assert main(["--config", str(cfg_path), *command]) == 1, command
            err = _one_error_line(capsys)
            assert f"[{section}] {name}" in err and "re-run phase1" in err
        assert _snapshot(out) == before

    @pytest.mark.parametrize("edit, named", [
        (("vocab_max = 256", "vocab_max = 256\npooling = cls"),
         "[backbone] pooling changed since phase1 wrote {nodes} "
         "('mean' → 'cls')"),
        (("num_classes = 3", "num_classes = 4"),
         "[dataset] num_classes changed since phase1 wrote {nodes} (3 → 4)"),
    ], ids=["pooling", "num_classes"])
    def test_changed_key_names_old_and_new_value(self, phase2_run, tmp_path,
                                                 capsys, edit, named):
        _, cfg_path = _copy_run(phase2_run, tmp_path, edit)
        assert main(["--config", str(cfg_path), "--force", "phase2"]) == 1
        nodes = tmp_path / "out" / "phase1" / "nodes.json"
        assert _one_error_line(capsys) == (
            f"error: {named.format(nodes=nodes)}; re-run phase1\n")

    def test_f64_run_writes_and_reads_the_prefix_file(self, tmp_path, capsys,
                                                      monkeypatch):
        cfg_path = tmp_path / "f64.cfg"
        cfg_path.write_text(MICRO_CONFIG.format(out=tmp_path / "out").replace(
            "vocab_max = 256", "vocab_max = 256\nprecision = f64").replace(
            "seeds = 0", "seeds = 0,1").replace(*TRAINS))
        for command in ("gen-data", "phase1"):
            assert main(["--config", str(cfg_path), command]) == 0
        phase1 = tmp_path / "out" / "phase1"
        assert (phase1 / "prefix.gtsr").read_bytes()[:4] == b"GTSD"
        read = []

        def spy(path, *args, **kwargs):
            read.append(Path(path).name)
            return load_tensor(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "load_tensor", spy)
        assert main(["--config", str(cfg_path), "phase2"]) == 0
        assert "prefix.gtsr" in read
        report = json.loads(
            (tmp_path / "out" / "phase2" / "report.json").read_text())
        assert _same_training(report, _in_process_report(cfg_path))
        for result in report["per_seed"]:
            assert _evaluated(cfg_path, capsys, "--seed",
                              str(result["seed"])) == result["metric"]

    def test_micro_arms_train_apart(self, run_dir, tmp_path):
        """At the TRAINS rate the path-equality tests cover fusion and LoRA:
        each arm gives its own loss trace."""
        out, cfg_path = _copy_run(run_dir, tmp_path, TRAINS)
        traces = {}
        for arm in ("fused", "text_only", "lora_only"):
            assert main(["--config", str(cfg_path), "--force", "phase2",
                         "--baseline", arm]) == 0
            report = json.loads((out / "phase2" / "report.json").read_text())
            traces[arm] = report["per_seed"][0]["loss_trace"]
        assert len(set(map(tuple, traces.values()))) == 3, traces

    @pytest.mark.parametrize("command", [["--force", "phase2"],
                                         ["evaluate"]], ids=lambda c: c[-1])
    def test_embed_dim_changed_after_phase1_exits_1(self, run_dir, tmp_path,
                                                    capsys, command):
        """The key names the change before any embedding is read."""
        out, cfg_path = _copy_run(run_dir, tmp_path,
                                  ("embed_dim = 8", "embed_dim = 12"))
        assert main(["--config", str(cfg_path), *command]) == 1
        assert _one_error_line(capsys) == (
            "error: [sage] embed_dim changed since phase1 wrote "
            f"{out / 'phase1' / 'nodes.json'} (8 → 12); re-run phase1\n")

    def test_text_only_resumes_from_the_fused_prefix(self, run_dir, tmp_path,
                                                     monkeypatch, capsys):
        out, cfg_path = _copy_run(run_dir, tmp_path, TRAINS)
        starts = []

        def spy(encode):
            signature = inspect.signature(encode)

            def recorded(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                starts.append(bound.arguments["start"])
                return encode(*args, **kwargs)
            return recorded

        monkeypatch.setattr(textenc, "encode", spy(textenc.encode))
        monkeypatch.setattr(trainer, "encode", spy(trainer.encode))
        command = ["--config", str(cfg_path), "--force", "phase2",
                   "--baseline", "text_only"]
        assert main(command) == 0
        # The fused arm saved layer 1; no pass runs layer 0 again.
        assert starts and min(starts) == 1
        prefix = out / "phase1" / "prefix.gtsr"
        prefix.unlink()
        capsys.readouterr()
        assert main(command) == 1
        assert _one_error_line(capsys) == (
            f"error: missing phase-1 artifact {prefix}; run phase1 first\n")


def _snapshot(out):
    return {p: p.stat().st_mtime_ns for p in out.rglob("*")}


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.fixture(scope="module")
def run_dir_f64(tmp_path_factory):
    """The micro pipeline in f64: gen-data + phase1."""
    root = tmp_path_factory.mktemp("run_f64")
    config_path = root / "micro.cfg"
    config_path.write_text(MICRO_CONFIG.format(out=root / "out").replace(
        "vocab_max = 256", "vocab_max = 256\nprecision = f64"))
    assert main(["--config", str(config_path), "gen-data"]) == 0
    assert main(["--config", str(config_path), "phase1"]) == 0
    return root, config_path


def _baseline(arm):
    return ("[trainer]\n", f"[trainer]\nbaseline = {arm}\n")


@pytest.fixture(scope="module")
def run_dir_text_only(tmp_path_factory):
    """The micro pipeline with phase 1 run as `text_only`, so `prefix.gtsr`
    holds the states after the last layer."""
    root = tmp_path_factory.mktemp("run_text_only")
    config_path = root / "micro.cfg"
    config_path.write_text(MICRO_CONFIG.format(out=root / "out").replace(
        *_baseline("text_only")))
    assert main(["--config", str(config_path), "gen-data"]) == 0
    assert main(["--config", str(config_path), "phase1"]) == 0
    return root, config_path


# Every arm after a phase 1 whose saved layer is at or below the arm's
# first adapted layer: source fixture and config edits.
ARMS_ON_THE_PREFIX = {
    "fused": ("run_dir", ()),
    "text_only": ("run_dir", (_baseline("text_only"),)),
    "lora_only": ("run_dir", (_baseline("lora_only"),)),
    "f64-fused": ("run_dir_f64", ()),
    "f64-text_only": ("run_dir_f64", (_baseline("text_only"),)),
    "f64-lora_only": ("run_dir_f64", (_baseline("lora_only"),)),
    "text_only-after-text_only": ("run_dir_text_only", ()),
}


class TestNodeTable:
    def test_phase1_writes_the_table(self, run_dir):
        root, config_path = run_dir
        cfg = ExperimentConfig.from_file(config_path)
        phase1 = root / "out" / "phase1"
        table = json.loads((phase1 / "nodes.json").read_text())
        graph = pipeline.load_dataset(cfg)
        vocab, _ = pipeline.load_phase1_artifacts(cfg)
        _, mask = textenc.tokenize_graph(graph, vocab, "", 8)
        assert sorted(table) == ["key", "labels", "lengths", "split"]
        assert table["labels"] == graph.labels.tolist()
        assert table["split"] == graph.split.tolist()
        assert table["lengths"] == mask.sum(axis=1).astype(int).tolist()
        assert sorted(table["key"]) == ["backbone", "dataset", "layer",
                                        "sage", "trainer"]
        assert table["key"]["trainer"] == {"prompt": "", "seq_len": 8}
        assert table["key"]["dataset"] == _data_key(root)

    @pytest.mark.parametrize("arm", list(ARMS_ON_THE_PREFIX))
    def test_matching_table_reads_no_dataset_file(self, request, tmp_path,
                                                  monkeypatch, arm):
        source, edits = ARMS_ON_THE_PREFIX[arm]
        out, cfg_path = _copy_run(request.getfixturevalue(source), tmp_path,
                                  *edits)
        assert main(["--config", str(cfg_path), "--force", "phase2"]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("dataset read despite a matching table")

        for module, name in ((pipeline, "load_graph"),
                             (pipeline, "load_splits"),
                             (pipeline, "tokenize_graph"),
                             (trainer, "tokenize_graph"),
                             (textenc, "tokenize_graph")):
            monkeypatch.setattr(module, name, refuse)
        for command in AFTER_PHASE1:
            assert main(["--config", str(cfg_path), *command]) == 0, command

    @pytest.mark.parametrize("arm", ["fused", "text_only", "f64"])
    def test_outputs_equal_the_in_process_run(self, run_dir, run_dir_f64,
                                              tmp_path, capsys, arm):
        """report.json, evaluate output and ablate_rank.csv from the table
        and the prefix file equal the trainer's, run from the tokens."""
        edits = [TRAINS] + ([_baseline(arm)] if arm == "text_only" else [])
        out, cfg_path = _copy_run(run_dir_f64 if arm == "f64" else run_dir,
                                  tmp_path, *edits)
        shutil.rmtree(out / "phase2", ignore_errors=True)
        assert main(["--config", str(cfg_path), "phase2"]) == 0
        assert main(["--config", str(cfg_path), "ablate", "--what", "rank",
                     "--ranks", "2,4"]) == 0
        report, inputs = _in_process_run(cfg_path)
        assert _same_training(
            json.loads((out / "phase2" / "report.json").read_text()),
            report.as_dict())
        for split in ("test", "val"):
            assert _evaluated(cfg_path, capsys, "--split", split) == float(
                trainer.evaluate(report.per_seed[0].assembly, inputs, split))
        cfg = ExperimentConfig.from_file(cfg_path)
        rows = trainer.rank_ablation(report.per_seed[0].assembly.backbone,
                                     inputs, cfg.run_config(), ranks=(2, 4))
        columns = ["rank", "metric_mean", "metric_std", "trainable_params"]
        trainer.write_table_csv(tmp_path / "rank.csv", rows, columns)
        assert (tmp_path / "rank.csv").read_bytes() == \
            (out / "ablate_rank.csv").read_bytes()

    @pytest.mark.parametrize("arm", ["lora_only", "fused"])
    def test_arm_below_the_saved_layer_reads_the_dataset(
            self, run_dir_text_only, tmp_path, capsys, monkeypatch, arm):
        """After a `text_only` phase 1 the saved states lie above every
        adapted layer: phase 2 and evaluate tokenize the dataset."""
        _, cfg_path = _copy_run(run_dir_text_only, tmp_path, TRAINS,
                                ("baseline = text_only", f"baseline = {arm}"))
        tokenized = []

        def spy(*args, **kwargs):
            tokenized.append(args[0].num_nodes)
            return textenc.tokenize_graph(*args, **kwargs)

        monkeypatch.setattr(pipeline, "tokenize_graph", spy)
        assert main(["--config", str(cfg_path), "--force", "phase2"]) == 0
        assert tokenized == [60]
        report, inputs = _in_process_run(cfg_path)
        assert _same_training(
            json.loads((tmp_path / "out" / "phase2" / "report.json")
                       .read_text()),
            report.as_dict())
        assert _evaluated(cfg_path, capsys) == float(
            trainer.evaluate(report.per_seed[0].assembly, inputs, "test"))
        assert tokenized == [60, 60]

    @pytest.mark.parametrize("stale", ["dataset_seed", "edges_line"])
    def test_changed_dataset_is_refused(self, run_dir, tmp_path, capsys,
                                        stale):
        out, cfg_path = _copy_run(run_dir, tmp_path)
        assert main(["--config", str(cfg_path), "--force", "phase2"]) == 0
        data = out / "data"
        if stale == "dataset_seed":
            reseeded = tmp_path / "reseeded.cfg"
            reseeded.write_text(cfg_path.read_text().replace(
                "[dataset]\n", "[dataset]\nseed = 7\n", 1))
            assert main(["--config", str(reseeded), "--force",
                         "gen-data"]) == 0
            cfg_path, role, changed = reseeded, "nodes", data / "nodes.jsonl"
        else:
            role, changed = "edges", data / "edges.tsv"
            lines = changed.read_text().splitlines(keepends=True)
            u, v = lines[0].split()
            lines[0] = f"{u}\t{int(v) + 1}\n"
            changed.write_text("".join(lines))
        old = json.loads((out / "phase1" / "nodes.json").read_text())[
            "key"]["dataset"][role]
        capsys.readouterr()
        before = _snapshot(out)
        for command in AFTER_PHASE1 + (["ablate", "--what", "prompt",
                                        "--prompts", ""],):
            assert main(["--config", str(cfg_path), *command]) == 1, command
            assert _one_error_line(capsys) == (
                f"error: [dataset] {role} changed since phase1 wrote "
                f"{out / 'phase1' / 'nodes.json'} ({old!r} → "
                f"{pipeline._sha256(changed)!r}); re-run phase1\n")
        assert _snapshot(out) == before

    def test_regenerated_identical_dataset_is_accepted(self, run_dir,
                                                       tmp_path):
        """The phase-1 key and the data manifest both pass."""
        out, cfg_path = _copy_run(run_dir, tmp_path)
        assert main(["--config", str(cfg_path), "--force", "gen-data"]) == 0
        for command in AFTER_PHASE1 + (["--force", "phase1"],):
            assert main(["--config", str(cfg_path), *command]) == 0, command

    def test_changed_split_keys_are_refused(self, run_dir, tmp_path, capsys):
        """A split computed in process is part of the key."""
        root, _ = run_dir
        data = root / "out" / "data"
        text = MICRO_CONFIG.format(out=tmp_path / "out").replace(
            "[dataset]\n", f"[dataset]\nsource = files\n"
            f"nodes_path = {data / 'nodes.jsonl'}\n"
            f"edges_path = {data / 'edges.tsv'}\n", 1)
        cfg_path = tmp_path / "files.cfg"
        cfg_path.write_text(text)
        assert main(["--config", str(cfg_path), "phase1"]) == 0
        assert main(["--config", str(cfg_path), "phase2"]) == 0
        cfg_path.write_text(text.replace("test_frac = 0.2",
                                         "test_frac = 0.2\nsplit_seed = 3"))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "evaluate"]) == 1
        assert _one_error_line(capsys) == (
            "error: [dataset] split_seed changed since phase1 wrote "
            f"{tmp_path / 'out' / 'phase1' / 'nodes.json'} (0 → 3); "
            "re-run phase1\n")


class TestDataManifest:
    """Generated data are read only under the [dataset] keys gen-data
    generated them from, as `data/manifest.json` records them."""

    def test_reseeded_config_is_refused(self, phase2_run, tmp_path, capsys):
        out, cfg_path = _copy_run(
            phase2_run, tmp_path, ("[dataset]\n", "[dataset]\nseed = 5\n"),
            ("test_frac = 0.2", "test_frac = 0.2\nsplit_seed = 3"))
        before = _snapshot(out)
        capsys.readouterr()
        for command in (["--force", "phase1"],) + AFTER_PHASE1 + (
                ["ablate", "--what", "prompt", "--prompts", ""],):
            assert main(["--config", str(cfg_path), *command]) == 1, command
            assert _one_error_line(capsys) == (
                "error: [dataset] seed changed since gen-data wrote "
                f"{out / 'data' / 'manifest.json'} (0 → 5); re-run "
                "gen-data\n")
        assert _snapshot(out) == before
        # Generating the data anew under the config clears the refusal.
        for command in ("gen-data", "phase1"):
            assert main(["--config", str(cfg_path), "--force", command]) == 0

    @pytest.mark.parametrize("damage, message", [
        (lambda p: _rewrite_json(p, lambda m: m.pop("dataset")),
         "[dataset] n_nodes changed since gen-data wrote {manifest} "
         "(None → 60); re-run gen-data"),
        (lambda p: p.unlink(),
         "missing dataset file {manifest}; run gen-data first"),
    ], ids=["without_the_keys", "missing"])
    def test_damaged_manifest_is_refused(self, run_dir, tmp_path, capsys,
                                         damage, message):
        out, cfg_path = _copy_run(run_dir, tmp_path)
        manifest = out / "data" / "manifest.json"
        damage(manifest)
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "--force", "phase1"]) == 1
        assert _one_error_line(capsys) == (
            f"error: {message.format(manifest=manifest)}\n")


class TestRunDirectory:
    def test_each_phase_writes_exactly_its_files(self, phase2_run):
        """What gen-data, phase1 and phase2 leave in phase1/ and phase2/;
        a checkpoint is one `<name>.gtsr` per trainable parameter."""
        root, cfg_path = phase2_run
        out = root / "out"

        def names(directory):
            return sorted(p.name for p in directory.iterdir())

        assert names(out / "phase1") == sorted([
            "vocab.json", "nodes.json", "prefix.gtsr", "pass1.gtsr",
            "pass2.gtsr", "metrics.json"])
        assert names(out / "phase2") == ["checkpoints", "report.json",
                                         "timing.json"]
        assert names(out / "phase2" / "checkpoints") == ["seed0"]
        cfg = ExperimentConfig.from_file(cfg_path)
        _, backbone, inputs = pipeline.load_phase1(cfg)
        assembly = trainer.Phase2Assembly(backbone, inputs, cfg.run_config(),
                                          seed=0)
        assert names(out / "phase2" / "checkpoints" / "seed0") == sorted(
            f"{p.name}.gtsr" for p in assembly.trainable_parameters())

    def test_forced_phase2_drops_the_checkpoints_of_other_seeds(
            self, phase2_run, tmp_path):
        out, cfg_path = _copy_run(phase2_run, tmp_path)
        checkpoints = out / "phase2" / "checkpoints"
        assert main(["--config", str(cfg_path), "--seeds", "0,1",
                     "--force", "phase2"]) == 0
        assert sorted(p.name for p in checkpoints.iterdir()) == [
            "seed0", "seed1"]
        assert main(["--config", str(cfg_path), "--seeds", "0",
                     "--force", "phase2"]) == 0
        assert [p.name for p in checkpoints.iterdir()] == ["seed0"]


def _truncate(path):
    path.write_text(path.read_text()[:40])


def _rewrite_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _oversized_header(path):
    """A header that claims 2^62 elements over the file's own payload."""
    path.write_bytes(b"GTSR" + struct.pack("<IQ", 1, 2 ** 62)
                     + path.read_bytes()[24:])


KEY_NEEDS = ("'key' needs [dataset], [backbone], [sage], [trainer] and "
             "'layer'; re-run phase1")


def _old_layout(table):
    """A node table as phase 1 wrote it before the data went into the key:
    a separate `fingerprint` and class count, and no [dataset] section."""
    dataset = table["key"].pop("dataset")
    table["num_classes"] = dataset.pop("num_classes")
    table["fingerprint"] = {"files": dataset, "num_classes":
                            table["num_classes"]}


class TestCorruptedArtifacts:
    """A damaged phase-1 or phase-2 file ends in one error line that names
    it, exit 1, never a traceback."""

    @pytest.mark.parametrize("name, damage, message", [
        ("phase1/nodes.json", lambda p: _rewrite_json(p, lambda t: t.update(
            key=3)), KEY_NEEDS),
        ("phase1/nodes.json", lambda p: _rewrite_json(p, lambda t: t["key"]
                                                      .pop("sage")),
         KEY_NEEDS),
        ("phase1/nodes.json", lambda p: _rewrite_json(p, _old_layout),
         KEY_NEEDS),
        ("phase1/pass1.gtsr", _oversized_header,
         f"truncated payload: the header gives {4 * 2 ** 62} bytes"),
        ("phase1/prefix.gtsr",
         lambda p: save_tensor(p, np.zeros(load_tensor(p).shape[:2] + (12,),
                                           dtype=np.float32)),
         "shape (60, {width}, 12), expected (60, {width}, 16); re-run phase1"),
        ("phase1/pass1.gtsr",
         lambda p: save_tensor(p, np.zeros((60, 12), dtype=np.float32)),
         "shape (60, 12), expected (60, 8); re-run phase1"),
        ("phase1/pass2.gtsr",
         lambda p: save_tensor(p, np.zeros((59, 8), dtype=np.float32)),
         "shape (59, 8), expected (60, 8); re-run phase1"),
        ("phase1/vocab.json", _truncate, "bad JSON"),
        ("phase1/vocab.json", lambda p: p.write_text('{"w1": "x"}'),
         "token ids must be integers"),
        ("phase1/nodes.json", _truncate, "bad JSON"),
        ("phase1/nodes.json", lambda p: p.write_text("3"),
         "expected a JSON object, got int"),
        ("phase1/nodes.json",
         lambda p: _rewrite_json(p, lambda t: t["labels"].__setitem__(0, 3)),
         "'labels' must be a list of integers in [0, 3)"),
        ("phase1/nodes.json",
         lambda p: _rewrite_json(p, lambda t: t["labels"].__setitem__(
             0, True)), "'labels' must be a list of integers"),
        ("phase1/nodes.json",
         lambda p: _rewrite_json(p, lambda t: t["split"].__setitem__(0, 3)),
         "'split' must be a list of integers in [0, 3)"),
        ("phase1/nodes.json",
         lambda p: _rewrite_json(p, lambda t: t["lengths"].__setitem__(0, 9)),
         "'lengths' must be a list of integers in [0, 9)"),
        ("phase1/nodes.json",
         lambda p: _rewrite_json(p, lambda t: t["lengths"].__setitem__(0, 0)),
         "'lengths' must be at least 1"),
        ("phase1/nodes.json",
         lambda p: _rewrite_json(p, lambda t: t["split"].pop()),
         "one entry per node"),
        ("phase1/nodes.json",
         lambda p: _rewrite_json(p, lambda t: t.update(
             split=[min(code, 1) for code in t["split"]])),
         "no node is in the 'test' split; re-run phase1"),
        # Rows at the full seq_len (8), as phase 1 saved them before it cut
        # them to the longest tokenized row.
        ("phase1/prefix.gtsr",
         lambda p: save_tensor(p, np.zeros((60, 8, 16), dtype=np.float32)),
         "shape (60, 8, 16), expected (60, {width}, 16); re-run phase1"),
    ], ids=lambda v: v if isinstance(v, str) and "/" in v else None)
    def test_evaluate_exits_1_naming_the_file(self, run_dir, tmp_path,
                                              capsys, name, damage, message):
        """`{width}` in `message` stands for the prefix rows' width: the
        longest of the `lengths` that phase 1 saved in `nodes.json`."""
        out, cfg_path = _copy_run(run_dir, tmp_path)
        width = max(json.loads((out / "phase1" / "nodes.json").read_text())
                    ["lengths"])
        assert main(["--config", str(cfg_path), "--force", "phase2"]) == 0
        damage(out / name)
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "evaluate"]) == 1
        err = _one_error_line(capsys)
        assert err.startswith(f"error: {out / name}: ") and \
            message.format(width=width) in err

    @pytest.mark.parametrize("name", ["pass1.gtsr", "pass2.gtsr"])
    def test_non_finite_embeddings_exit_1(self, phase2_run, tmp_path, capsys,
                                          name):
        """Refused at load by every command after phase 1, before it
        writes anything."""
        out, cfg_path = _copy_run(phase2_run, tmp_path)
        path = out / "phase1" / name
        embeddings = load_tensor(path)
        embeddings[3, 1] = np.nan
        save_tensor(path, embeddings)
        before = _snapshot(out)
        capsys.readouterr()
        for command in AFTER_PHASE1:
            assert main(["--config", str(cfg_path), *command]) == 1, command
            assert _one_error_line(capsys) == (
                f"error: {path}: non-finite entries; re-run phase1\n")
        assert _snapshot(out) == before

    def test_missing_checkpoint_tensor_exits_1(self, phase2_run, tmp_path,
                                               capsys):
        out, cfg_path = _copy_run(phase2_run, tmp_path)
        ckpt = out / "phase2" / "checkpoints" / "seed0"
        (ckpt / "head.w.gtsr").unlink()
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "evaluate"]) == 1
        assert _one_error_line(capsys) == (
            f"error: checkpoint {ckpt} missing tensor for 'head.w'\n")

    def test_forced_phase2_leaves_no_earlier_checkpoint_tensor(
            self, phase2_run, tmp_path, capsys):
        """A `text_only` run forced over a fused one: evaluating the
        config's fused arm finds no fusion tensor instead of loading the
        fused run's adapters beside the `text_only` head."""
        out, cfg_path = _copy_run(phase2_run, tmp_path)
        assert main(["--config", str(cfg_path), "--force", "phase2",
                     "--baseline", "text_only"]) == 0
        ckpt = out / "phase2" / "checkpoints" / "seed0"
        assert not list(ckpt.glob("fusion*")) + list(ckpt.glob("lora*"))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "evaluate"]) == 1
        assert _one_error_line(capsys).startswith(
            f"error: checkpoint {ckpt} missing tensor for 'fusion")

    @pytest.mark.parametrize("edit, held", [
        (_baseline("lora_only"), "fusion.layer1.gate_logit"),
        (_baseline("text_only"), "fusion.layer1.gate_logit"),
        (("[fusion]\n", "[fusion]\nlora_targets = q,v\n"),
         "lora.layer1.k.a"),
    ], ids=["lora_only", "text_only", "lora_targets"])
    def test_checkpoint_of_another_arm_exits_1(self, phase2_run, tmp_path,
                                               capsys, edit, held):
        """The fused run's checkpoint, evaluated under an arm that trains
        fewer tensors, is refused instead of scored without them."""
        out, cfg_path = _copy_run(phase2_run, tmp_path, edit)
        ckpt = out / "phase2" / "checkpoints" / "seed0"
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "evaluate"]) == 1
        assert _one_error_line(capsys) == (
            f"error: checkpoint {ckpt} holds {held!r}, which the configured "
            "arm does not train; re-run phase2\n")

    @pytest.mark.parametrize("name", ["nodes.json", "prefix.gtsr"])
    def test_missing_phase1_artifact_exits_1(self, run_dir, tmp_path, capsys,
                                             name):
        out, cfg_path = _copy_run(run_dir, tmp_path)
        (out / "phase1" / name).unlink()
        for command in AFTER_PHASE1 + (["ablate", "--what", "prompt",
                                        "--prompts", ""],):
            assert main(["--config", str(cfg_path), *command]) == 1, command
            assert _one_error_line(capsys) == (
                f"error: missing phase-1 artifact {out / 'phase1' / name}; "
                "run phase1 first\n")

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("bad", ["out_of_range", "reserved", "duplicate"])
    def test_vocab_ids_must_fill_the_token_range(
            self, run_dir, run_dir_f64, tmp_path, capsys, precision, bad):
        source = run_dir_f64 if precision == "f64" else run_dir
        out = tmp_path / "out"
        shutil.copytree(source[0] / "out", out)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(source[1].read_text().replace(
            str(source[0] / "out"), str(out)))
        assert main(["--config", str(cfg_path), "--force", "phase2"]) == 0
        path = out / "phase1" / "vocab.json"
        tokens = json.loads(path.read_text())
        first, second = list(tokens)[:2]
        tokens[first] = {"out_of_range": 1000000, "reserved": 0,
                         "duplicate": tokens[second]}[bad]
        path.write_text(json.dumps(tokens))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "evaluate"]) == 1
        err = _one_error_line(capsys)
        assert err.startswith(f"error: {path}: token ids must be integers "
                              f"3 .. {len(tokens) + 2}, each once")
