"""Flat key=value configuration files for the CLI and pipeline."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .chunker import ChunkParams
from .crf import TrainConfig


@dataclass
class PipelineConfig:
    gap_factor: float = ChunkParams.gap_factor
    font_jump: float = ChunkParams.font_jump
    boldness_break: bool = ChunkParams.boldness_break
    dehyphenate: bool = False
    l2_lambda: float = TrainConfig.l2_lambda
    max_iterations: int = TrainConfig.max_iterations
    convergence_tol: float = TrainConfig.convergence_tol

    def chunk_params(self) -> ChunkParams:
        return ChunkParams(gap_factor=self.gap_factor,
                           font_jump=self.font_jump,
                           boldness_break=self.boldness_break)

    def train_config(self) -> TrainConfig:
        return TrainConfig(l2_lambda=self.l2_lambda,
                           max_iterations=self.max_iterations,
                           convergence_tol=self.convergence_tol)


_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}


def parse_config(text: str) -> PipelineConfig:
    """Parse key=value lines; '#' comments and blank lines are ignored."""
    known = {f.name: f.type for f in fields(PipelineConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        kind = known[key]
        if kind == "bool":
            if raw.lower() not in _BOOL_VALUES:
                raise ValueError(f"line {lineno}: bad boolean {raw!r}")
            values[key] = _BOOL_VALUES[raw.lower()]
        elif kind == "int":
            values[key] = int(raw)
        else:
            values[key] = float(raw)
    return PipelineConfig(**values)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    return parse_config(path.read_text("utf-8"))
