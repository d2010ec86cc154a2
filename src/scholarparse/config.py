"""Flat key=value configuration files for the CLI and pipeline.

A file sets the training hyperparameters (``TrainConfig``, defined here)
and whether ingest dehyphenates.  ``TrainConfig`` checks its values when
built, so a bad value fails ``parse_config``, before any input is read.
The chunking thresholds are not keys: they are ``chunker``'s constants,
which the bundled models were trained with.
"""

from __future__ import annotations

import math
from operator import index
from pathlib import Path
from typing import NamedTuple


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
    """Training settings, and whether ingest dehyphenates."""

    train: TrainConfig = TrainConfig()
    dehyphenate: bool = False


# Every key a file may set, with its default; a value is read as the type
# of its key's default.
_DEFAULTS = {**TrainConfig()._asdict(),
             "dehyphenate": PipelineConfig().dehyphenate}

_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}


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
    dehyphenate = values.pop("dehyphenate", False)
    return PipelineConfig(train=TrainConfig(**values), dehyphenate=dehyphenate)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    return parse_config(path.read_text("utf-8"))
