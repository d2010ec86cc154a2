"""Training-set construction and model fitting for the four labeling tasks.

Each builder turns (DocumentContext, GroundTruth) examples into
LabeledSequence lists using exactly the feature code the extractors run at
decode time, so a trained model sees the same indicator space in both
directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .chunker import ChunkParams
from .context import DocumentContext, build_context
from .crf import CrfModel, LabeledSequence, TrainConfig, train
from .evaluate import GroundTruth, ground_truth_from_text
from .features import (FOOTNOTE_TEMPLATES, HEADING_TEMPLATES, TOKEN_TEMPLATES,
                       footnote_chunk_features, heading_chunk_features)
from .ingest import parse_rich_xml
from .metadata import (AUTHOR_LABEL, OTHER_LABEL, TITLE_LABEL,
                       author_candidate_window)
from .model import Chunk, Document
from .structure import FOOTNOTE_LABEL, HEADING_LABEL


@dataclass
class TrainingPair:
    document: Document
    truth: GroundTruth


def corpus_files(directory) -> list[Path]:
    """The X.xml files under a directory that have an X.gt.txt, sorted."""
    directory = Path(directory)
    files = [path for path in sorted(directory.glob("*.xml"))
             if path.with_name(path.stem + ".gt.txt").exists()]
    if not files:
        raise ValueError(f"no xml/gt pairs under {directory}")
    return files


def read_pair(xml_path, dehyphenate: bool = False) -> TrainingPair:
    """X.xml with its X.gt.txt, the document read as ``scholarparse
    extract`` reads it: ``source_id`` is the file stem."""
    xml_path = Path(xml_path)
    doc, _report = parse_rich_xml(xml_path.read_bytes(),
                                  dehyphenate=dehyphenate,
                                  source_id=xml_path.stem)
    truth = ground_truth_from_text(
        xml_path.with_name(xml_path.stem + ".gt.txt").read_text("utf-8"))
    return TrainingPair(document=doc, truth=truth)


def load_corpus(directory) -> list[TrainingPair]:
    """Every pair of ``corpus_files(directory)``, read in that order."""
    return [read_pair(path) for path in corpus_files(directory)]


def training_examples(pairs, params: ChunkParams = ChunkParams()
                      ) -> list[tuple[DocumentContext, GroundTruth]]:
    """One (context, truth) example per pair; each document is chunked once
    and the examples serve every task."""
    return [(build_context(pair.document, params), pair.truth)
            for pair in pairs]


def _gold_title_tokens(chunks: list[Chunk], truth: GroundTruth):
    """First-chunk tokens matched greedily against the gold title words."""
    if not chunks:
        return []
    remaining = list(truth.title.split())
    out = []
    for tok in chunks[0].tokens:
        if remaining and tok.text == remaining[0]:
            out.append(tok)
            remaining.pop(0)
    return out


def _labeled(feats, gold_flags, label: str) -> LabeledSequence:
    """A sequence labeling each item `label` where its gold flag is set and
    OTHER elsewhere."""
    return LabeledSequence(items=[(f, label if gold else OTHER_LABEL)
                                  for f, gold in zip(feats, gold_flags)])


def build_title_sequences(examples):
    """One sequence per document: the tokens of the first chunk."""
    sequences = []
    for ctx, truth in examples:
        if not ctx.chunks:
            continue
        first = ctx.chunks[0]
        gold = {id(t) for t in _gold_title_tokens(ctx.chunks, truth)}
        sequences.append(_labeled(ctx.token_features(list(first.tokens)),
                                  [id(t) in gold for t in first.tokens],
                                  TITLE_LABEL))
    return sequences


def build_author_sequences(examples):
    """One sequence per document over the author candidate window."""
    sequences = []
    for ctx, truth in examples:
        if not ctx.chunks:
            continue
        title_span = _gold_title_tokens(ctx.chunks, truth)
        candidates = author_candidate_window(ctx, title_span)
        if not candidates:
            continue
        name_parts = {p for first, middle, last in truth.authors
                      for p in (first, middle, last) if p}
        title_ids = {id(t) for t in title_span}
        sequences.append(_labeled(
            ctx.token_features(candidates),
            [tok.text.rstrip(",") in name_parts and id(tok) not in title_ids
             for tok in candidates],
            AUTHOR_LABEL))
    return sequences


def build_heading_sequences(examples):
    """One sequence per document over all chunks."""
    sequences = []
    for ctx, truth in examples:
        if not ctx.chunks:
            continue
        gold = set(truth.section_headings)
        sequences.append(_labeled(
            heading_chunk_features(ctx.chunks, ctx.body_font),
            [c.text in gold for c in ctx.chunks], HEADING_LABEL))
    return sequences


def _strip_marker(text: str) -> str:
    words = text.split()
    return " ".join(words[1:]) if len(words) > 1 else text


def build_footnote_sequences(examples):
    """One sequence per page over that page's chunks."""
    sequences = []
    for ctx, truth in examples:
        gold = set(truth.footnotes)
        for page_ctx in ctx.pages:
            if not page_ctx.chunks:
                continue
            sequences.append(_labeled(
                footnote_chunk_features(page_ctx.chunks, page_ctx.page,
                                        page_ctx.body_font),
                [c.text in gold or _strip_marker(c.text) in gold
                 for c in page_ctx.chunks],
                FOOTNOTE_LABEL))
    return sequences


# Sequence builder, labels and feature templates of each task, in order.
_BUILDERS = {
    "title": (build_title_sequences, (OTHER_LABEL, TITLE_LABEL), TOKEN_TEMPLATES),
    "author": (build_author_sequences, (OTHER_LABEL, AUTHOR_LABEL), TOKEN_TEMPLATES),
    "heading": (build_heading_sequences, (OTHER_LABEL, HEADING_LABEL), HEADING_TEMPLATES),
    "footnote": (build_footnote_sequences, (OTHER_LABEL, FOOTNOTE_LABEL), FOOTNOTE_TEMPLATES),
}
TASKS = tuple(_BUILDERS)


def train_task(task: str, examples,
               config: TrainConfig = TrainConfig()) -> CrfModel:
    """Fit the CRF for one task name on examples from training_examples."""
    if task not in _BUILDERS:
        raise ValueError(f"unknown task {task!r}")
    builder, labels, templates = _BUILDERS[task]
    dataset = builder(examples)
    return train(dataset, labels, templates, config, task_name=task)


def train_all(pairs, config: TrainConfig = TrainConfig(),
              params: ChunkParams = ChunkParams()) -> dict[str, CrfModel]:
    """All four task models, keyed by task name."""
    examples = training_examples(pairs, params)
    return {task: train_task(task, examples, config) for task in TASKS}
