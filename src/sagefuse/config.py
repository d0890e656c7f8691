"""Declarative experiment configuration: INI-style sections with key=value
entries, all defaults embedded, unknown keys rejected as typo guards."""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields

from .sage import SageConfig
from .schema import ConfigError, check_declared, one_of
from .tag import GeneratorParams, SplitSpec, split_sum_problem
from .textenc import BackboneConfig
from .trainer import FusionConfig, RunConfig, TrainerConfig


@dataclass
class DatasetSource:
    source: str = one_of("synthetic", ("synthetic", "files"))
    nodes_path: str = ""
    edges_path: str = ""
    splits_path: str = ""


@dataclass
class DatasetSection(SplitSpec, GeneratorParams, DatasetSource):
    """The [dataset] section; it is itself the generator's params and the
    split spec. Dataclass fields follow the reversed MRO, so the keys run
    source, generator, then split, as in the file."""


@dataclass
class OutputSection:
    dir: str = "runs/default"


def _parse_value(raw, template):
    raw = raw.strip()
    if isinstance(template, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if isinstance(template, int):
        return int(raw)
    if isinstance(template, float):
        return float(raw)
    if isinstance(template, tuple):
        if not raw:
            return ()
        items = [s.strip() for s in raw.split(",")]
        if template and isinstance(template[0], str):
            return tuple(items)
        return tuple(int(s) for s in items)
    return raw


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


@dataclass
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    sage: SageConfig = field(default_factory=SageConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    output: OutputSection = field(default_factory=OutputSection)

    @classmethod
    def from_string(cls, text):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as e:
            raise ConfigError(f"config parse error: {e}")
        cfg = cls()
        sections = [f.name for f in fields(cfg)]
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown section [{section}]; valid: "
                                  f"{sorted(sections)}")
            target = getattr(cfg, section)
            known = {f.name: f for f in fields(target)}
            for key, raw in parser.items(section):
                if key not in known:
                    raise ConfigError(f"unknown key {key!r} in [{section}]; "
                                      f"valid: {sorted(known)}")
                default = getattr(type(target)(), key)
                try:
                    setattr(target, key, _parse_value(raw, default))
                except (ValueError, TypeError) as e:
                    raise ConfigError(f"[{section}] {key}: {e}")
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, encoding="utf-8") as f:
                return cls.from_string(f.read())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}")

    def to_string(self):
        out = io.StringIO()
        for s in fields(self):
            section = getattr(self, s.name)
            out.write(f"[{s.name}]\n")
            for f in fields(section):
                out.write(f"{f.name} = {_format_value(getattr(section, f.name))}\n")
            out.write("\n")
        return out.getvalue()

    def hash(self):
        return hashlib.sha256(self.to_string().encode()).hexdigest()

    def validate(self):
        """Every section against its declared ranges and choices, then the
        rules between keys (`_cross_key_problems`), so a bad value ends here
        in one ConfigError instead of mid-run."""
        for s in fields(self):
            check_declared(getattr(self, s.name), s.name)
        problem = next(_cross_key_problems(self), None)
        if problem:
            raise ConfigError(problem)
        return self

    def run_config(self):
        """The phase-2 run settings: [trainer] and [fusion] together."""
        return RunConfig(**vars(self.trainer), **vars(self.fusion))


def _cross_key_problems(cfg):
    """The rules that tie keys together, as one line each, first failure
    first. Each rule may assume the declared ranges and every rule above
    it hold; the placement rules apply only to an arm that places layers."""
    d, b, t = cfg.dataset, cfg.backbone, cfg.trainer
    run = cfg.run_config()
    if b.dim % b.heads:
        yield f"[backbone] dim {b.dim} not divisible by {b.heads} heads"
    problem = split_sum_problem(d)
    if problem:
        yield problem
    if d.source == "synthetic" and d.n_nodes < 10 * d.num_classes:
        yield (f"[dataset] n_nodes={d.n_nodes} too small for "
               f"{d.num_classes} classes (need >= 10*C)")
    if d.source == "synthetic" and d.avg_degree > (d.n_nodes - 1) / 2:
        yield (f"[dataset] avg_degree={d.avg_degree} too dense for "
               f"n_nodes={d.n_nodes} (need <= (n_nodes - 1) / 2)")
    if t.seq_len > b.max_tokens:
        yield (f"[trainer] seq_len {t.seq_len} outside [4, [backbone] "
               f"max_tokens = {b.max_tokens}]")
    if not t.seeds:
        yield "[trainer] need at least one seed"
    if len(set(t.seeds)) != len(t.seeds):
        yield (f"[trainer] seeds {list(t.seeds)} list a seed more than "
               "once")
    if bool(run.pass1_layers) != bool(run.pass2_layers):
        yield ("[fusion] pass1_layers and pass2_layers must both be listed, "
               "or both left empty for the default placement")
    if any(run.toggles()):
        pass1, pass2 = map(sorted, run.placement(b.layers))
        overlap = sorted(set(pass1) & set(pass2))
        if overlap:
            yield f"[fusion] layers {overlap} assigned to both sources"
        for name, layers in (("pass1", pass1), ("pass2", pass2)):
            if len(set(layers)) != len(layers):
                yield (f"[fusion] {name} layers {layers} list a layer more "
                       "than once")
        for layer in pass1 + pass2:
            if not 0 <= layer < b.layers:
                yield (f"[fusion] adapter layer {layer} outside "
                       f"[0, {b.layers})")
        if max(pass1) >= min(pass2):
            yield (f"[fusion] pass1 layers {pass1} must all precede pass2 "
                   f"layers {pass2}")
