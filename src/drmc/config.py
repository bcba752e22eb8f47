"""Run configuration: a YAML document with data/model/train/analysis/io
sections. Unknown keys are rejected, and the parsed result always carries
every default explicitly so a resolved echo can be written next to outputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError, DrmcError
from .model import ModelConfig
from .training import TrainConfig


@dataclass
class DataSection:
    centers: object = "default"  # "default" or list of CenterSpec dicts
    unknown_centers: object = "default"
    shape: list[int] = field(default_factory=lambda: [24, 24, 24])
    n_train: int = 8
    n_test: int = 4
    seed: int = 0


@dataclass
class AnalysisSection:
    lam: float = 1e-4
    n_batches: int = 20
    batch_size: int = 2
    groups: str = "per_block"


@dataclass
class IOSection:
    out_dir: str = "out"


@dataclass
class RunConfig:
    data: DataSection = field(default_factory=DataSection)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    analysis: AnalysisSection = field(default_factory=AnalysisSection)
    io: IOSection = field(default_factory=IOSection)


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}


def _check_type(value, hint, where: str):
    """``value`` as the annotation ``hint`` asks for: an int field takes an
    int (not a bool), a float field an int or a float (stored as float),
    ``Optional[X]`` also null, ``list[X]`` a list of X, ``object`` anything."""
    if hint is object:
        return value
    if get_origin(hint) is Union:
        if value is None:
            return None
        (hint,) = [a for a in get_args(hint) if a is not type(None)]
    if get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(f"type mismatch at {where}: expected a list, got {value!r}")
        (item,) = get_args(hint)
        return [_check_type(v, item, f"{where}[{i}]") for i, v in enumerate(value)]
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, hint):
        raise ConfigError(
            f"type mismatch at {where}: expected {hint.__name__}, got {value!r}"
        )
    return value


def _fill_section(cls, raw: dict, path: str):
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in raw.items():
        if key not in hints:
            raise ConfigError(f"unknown key {path}.{key}; allowed: {sorted(hints)}")
        kwargs[key] = _check_type(value, hints[key], f"{path}.{key}")
    try:
        return cls(**kwargs)
    except DrmcError as e:
        # constructor checks name the offending field first
        raise ConfigError(f"{path}.{e}") from None


def _validate(cfg: RunConfig):
    if len(cfg.data.shape) != 3 or any(s < 16 for s in cfg.data.shape):
        raise ConfigError(f"data.shape must be 3 dims each >= 16, got {cfg.data.shape}")
    if cfg.train.patch_size > min(cfg.data.shape):
        raise ConfigError("train.patch_size exceeds data.shape")
    if cfg.analysis.groups not in ("per_block", "all"):
        raise ConfigError(
            f"analysis.groups must be 'per_block' or 'all', got {cfg.analysis.groups!r}"
        )


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        raise ConfigError(f"cannot parse {source}{where}: {e}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    kwargs = {}
    for key, value in raw.items():
        if key not in _SECTIONS:
            raise ConfigError(f"unknown section {key!r}; allowed: {sorted(_SECTIONS)}")
        if value is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be a mapping")
        kwargs[key] = _fill_section(_SECTIONS[key], value, key)
    cfg = RunConfig(**kwargs)
    _validate(cfg)
    return cfg


def parse_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(), source=str(p))


def emit_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(asdict(cfg), sort_keys=False)


def write_resolved_config(cfg: RunConfig, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.yaml").write_text(emit_config(cfg))
