"""Flat key=value configuration files for the CLI and pipeline.

Each key is sent to the part of ``PipelineConfig`` it sets: the chunking
thresholds to ``chunk`` (``ChunkParams``), the training hyperparameters to
``train`` (``TrainConfig``).  The parts check their values when built, so a
bad value fails ``parse_config``, before any input is read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .chunker import ChunkParams
from .crf import TrainConfig


@dataclass(frozen=True)
class PipelineConfig:
    chunk: ChunkParams = ChunkParams()
    train: TrainConfig = TrainConfig()
    dehyphenate: bool = False


# Every key a file may set, with its default; a value is read as the type
# of its key's default.
_DEFAULTS = {**asdict(ChunkParams()), **asdict(TrainConfig()),
             "dehyphenate": PipelineConfig.dehyphenate}

_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}


def _part(cls, values: dict):
    """A ``cls`` built from the keys of ``values`` that are its fields."""
    return cls(**{f.name: values[f.name] for f in fields(cls)
                  if f.name in values})


def parse_config(text: str) -> PipelineConfig:
    """Parse key=value lines; '#' comments and blank lines are ignored."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _DEFAULTS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        kind = type(_DEFAULTS[key])
        if kind is bool:
            if raw.lower() not in _BOOL_VALUES:
                raise ValueError(f"line {lineno}: bad boolean {raw!r}")
            values[key] = _BOOL_VALUES[raw.lower()]
        else:
            values[key] = kind(raw)
    return PipelineConfig(chunk=_part(ChunkParams, values),
                          train=_part(TrainConfig, values),
                          dehyphenate=values.get("dehyphenate", False))


def load_config(path) -> PipelineConfig:
    path = Path(path)
    return parse_config(path.read_text("utf-8"))
