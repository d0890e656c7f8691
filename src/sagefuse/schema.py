"""What each config key accepts, declared beside its default, and the one
check that reads the declarations. A leaf module: the section dataclasses
import it, and `config` re-exports `ConfigError`."""

from __future__ import annotations

from dataclasses import field, fields


class ConfigError(ValueError):
    """A config value no run can use; the CLI exits 2 on it."""


def ranged(default, interval):
    """A numeric field whose values lie in `interval`, written as "[1, inf)"
    or "(0.5, 1]": a square bracket includes its end, a round one leaves it
    out. nan lies in no interval."""
    return field(default=default, metadata={"range": interval})


def one_of(default, choices):
    """A str field whose value is one of `choices`."""
    return field(default=default, metadata={"choices": tuple(choices)})


def _within(value, interval):
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    return above and below


def check_declared(section, name):
    """`section`, a section dataclass, when every field lies in its declared
    range or choices; else ConfigError naming the first that does not as
    `[name] key`."""
    for f in fields(section):
        value = getattr(section, f.name)
        interval = f.metadata.get("range")
        if interval and not _within(value, interval):
            raise ConfigError(f"[{name}] {f.name} must lie in {interval}, "
                              f"got {value}")
        choices = f.metadata.get("choices")
        if choices and value not in choices:
            raise ConfigError(f"[{name}] {f.name} must be one of {choices}, "
                              f"got {value!r}")
    return section
