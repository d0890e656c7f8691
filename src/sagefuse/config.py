"""Declarative experiment configuration: INI-style sections with key=value
entries, all defaults embedded, unknown keys rejected as typo guards."""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields

from .fusion import AdapterConfigError, check_placement
from .sage import SageConfig, SageConfigError
from .tag import GeneratorParams, GraphFormatError, SplitSpec
from .textenc import BackboneConfig, VocabError
from .trainer import (FusionConfig, RunConfig, TrainerConfig,
                      TrainerConfigError)


class ConfigError(ValueError):
    pass


@dataclass
class DatasetSource:
    source: str = "synthetic"          # synthetic | files
    nodes_path: str = ""
    edges_path: str = ""
    splits_path: str = ""


@dataclass
class DatasetSection(SplitSpec, GeneratorParams, DatasetSource):
    """The [dataset] section; it is itself the generator's params and the
    split spec. Dataclass fields follow the reversed MRO, so the keys run
    source, generator, then split, as in the file."""

    def validate(self):
        if self.source not in ("synthetic", "files"):
            raise ConfigError(f"dataset.source {self.source!r} must be "
                              "'synthetic' or 'files'")
        if self.source == "synthetic":
            GeneratorParams.validate(self)
        self.check_fractions()
        return self


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
        """Check every section, and the [fusion] settings as the configured
        arm uses them, so a bad value ends here instead of mid-run."""
        b, t = self.backbone, self.trainer
        try:
            self.dataset.validate()
            b.validate()
            self.sage.validate()
            run = self.run_config()
            if any(run.toggles()):
                check_placement(b.layers, *run.placement(b.layers))
        except (GraphFormatError, VocabError, AdapterConfigError,
                SageConfigError, TrainerConfigError) as e:
            raise ConfigError(str(e))
        if not 4 <= t.seq_len <= b.max_tokens:
            raise ConfigError(f"trainer.seq_len {t.seq_len} outside [4, "
                              f"backbone.max_tokens = {b.max_tokens}]")
        return self

    def run_config(self, **overrides):
        """The phase-2 run settings: [trainer] and [fusion] together."""
        return RunConfig(**{**vars(self.trainer), **vars(self.fusion),
                            **overrides})
