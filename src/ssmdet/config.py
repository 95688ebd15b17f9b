"""Run configuration: strict key=value documents with training defaults.

Defaults mirror the training recipe the detector ships with: SGD with
momentum 0.937, learning rate decaying 0.01 -> 0.0001 (cosine) after a
3-epoch linear warmup, 640x640 inputs. Unknown keys are rejected; an
empty file yields all defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["ConfigError", "RunConfig", "load_config"]

_VERSION = 1


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass
class RunConfig:
    scale: str = "n"
    num_classes: int = 3
    input_size: int = 640
    seed: int = 0
    lr_initial: float = 0.01
    lr_final: float = 0.0001
    momentum: float = 0.937
    warmup_epochs: int = 3
    batch_size: int = 16
    epochs: int = 200
    conf_threshold: float = 0.25
    out_dir: str = "runs"
    width_override: float = 0.0   # 0 means "use the scale's width"
    depth_override: float = 0.0

    def validate(self) -> "RunConfig":
        if self.input_size < 32 or self.input_size % 32:
            raise ConfigError(f"input_size {self.input_size} must be positive and divisible by 32")
        if not self.lr_final < self.lr_initial:
            raise ConfigError(
                f"lr_final {self.lr_final} must be smaller than lr_initial {self.lr_initial}")
        if self.lr_final < 0.0:
            raise ConfigError(f"lr_final {self.lr_final} must be >= 0")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes {self.num_classes} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum {self.momentum} must be in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size {self.batch_size} must be >= 1")
        if self.epochs < 0:
            raise ConfigError(f"epochs {self.epochs} must be >= 0")
        if self.warmup_epochs < 0:
            raise ConfigError(f"warmup_epochs {self.warmup_epochs} must be >= 0")
        if not 0.0 <= self.conf_threshold <= 1.0:
            raise ConfigError(f"conf_threshold {self.conf_threshold} must be in [0, 1]")
        if self.scale.lower() not in ("n", "s", "m"):
            raise ConfigError(f"scale {self.scale!r} must be one of n, s, m")
        for name in ("width_override", "depth_override"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} {value} must be finite and >= 0 "
                                  f"(0 keeps the scale's own)")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"key {name}: cannot parse {raw!r} as {kind}") from None


def load_config(path) -> RunConfig:
    """Parse a `key = value` document; unknown keys are rejected."""
    cfg = RunConfig()
    seen = set()
    for lineno, line in enumerate(Path(path).read_text().split("\n"), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key == "version":
            if raw != str(_VERSION):
                raise ConfigError(f"unsupported config version {raw}")
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        setattr(cfg, key, _parse_value(key, raw))
    return cfg.validate()

