"""Flat key=value configuration files for the CLI and pipeline.

Each key is sent to the part of ``PipelineConfig`` it sets: the chunking
thresholds to ``chunk`` (``ChunkParams``), the training hyperparameters to
``train`` (``TrainConfig``, defined here).  The parts check their values
when built, so a bad value fails ``parse_config``, before any input is
read.
"""

from __future__ import annotations

import math
from operator import index
from pathlib import Path
from typing import NamedTuple

from .chunker import ChunkParams


class _TrainConfigFields(NamedTuple):
    # The defaults are TrainConfig.__new__'s.
    l2_lambda: float
    max_iterations: int
    convergence_tol: float


class TrainConfig(_TrainConfigFields):
    """L2 strength, iteration limit and convergence tolerance of
    ``crf.train``.  Calling ``TrainConfig(...)`` checks them, as
    ``model.Token`` checks its values; ``_make`` and ``_replace`` do not."""

    __slots__ = ()

    def __new__(cls, l2_lambda: float = 1.0, max_iterations: int = 200,
                convergence_tol: float = 1e-5):
        if not (math.isfinite(l2_lambda) and l2_lambda > 0):
            raise ValueError("l2_lambda must be finite and positive")
        try:
            index(max_iterations)
        except TypeError:
            raise ValueError("max_iterations must be an integer") from None
        if max_iterations < 0:
            raise ValueError("max_iterations must not be negative")
        if not (math.isfinite(convergence_tol) and convergence_tol >= 0):
            raise ValueError("convergence_tol must be finite and not negative")
        return tuple.__new__(cls, (l2_lambda, max_iterations,
                                   convergence_tol))


class PipelineConfig(NamedTuple):
    """Chunking and training settings, and whether ingest dehyphenates."""

    chunk: ChunkParams = ChunkParams()
    train: TrainConfig = TrainConfig()
    dehyphenate: bool = False


# Every key a file may set, with its default; a value is read as the type
# of its key's default.
_DEFAULTS = {**ChunkParams()._asdict(), **TrainConfig()._asdict(),
             "dehyphenate": PipelineConfig().dehyphenate}

_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}


def _part(cls, values: dict):
    """A ``cls`` built from the keys of ``values`` that are its fields."""
    return cls(**{name: values[name] for name in cls._fields
                  if name in values})


def parse_config(text: str) -> PipelineConfig:
    """Parse key=value lines; '#' comments and blank lines are ignored, and
    a key may be set once."""
    values = {}
    set_on = {}  # key -> the line that set it
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
        if key in set_on:
            raise ValueError(f"line {lineno}: key {key!r} already set on "
                             f"line {set_on[key]}")
        set_on[key] = lineno
        kind = type(_DEFAULTS[key])
        if kind is bool:
            if raw.lower() not in _BOOL_VALUES:
                raise ValueError(f"line {lineno}: bad boolean {raw!r}")
            values[key] = _BOOL_VALUES[raw.lower()]
        else:
            try:
                values[key] = kind(raw)
            except ValueError:
                raise ValueError(f"line {lineno}: bad value for {key}: "
                                 f"{raw!r}") from None
    return PipelineConfig(chunk=_part(ChunkParams, values),
                          train=_part(TrainConfig, values),
                          dehyphenate=values.get("dehyphenate", False))


def load_config(path) -> PipelineConfig:
    path = Path(path)
    return parse_config(path.read_text("utf-8"))
