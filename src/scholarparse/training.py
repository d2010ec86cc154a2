"""Training-set construction and model fitting for the four labeling tasks.

Each builder turns (DocumentContext, GroundTruth) examples into
LabeledSequence lists: it labels the sequences its task's decoder reads,
built by the same function (``metadata.title_sequences`` and so on), so a
trained model sees the same items and features in both directions.  A
task's labels and templates are its entry in ``features.LABELING_TASKS``;
the model records them, and ``pipeline.load_models_from_dir`` checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .chunker import ChunkParams
from .context import DocumentContext, build_context
from .config import TrainConfig
from .crf import LabeledSequence, train
from .crfmodel import CrfModel, FeatureTemplate
from .evaluate import GroundTruth, ground_truth_from_text
from .features import LABELING_TASKS
from .ingest import parse_rich_xml
from .metadata import (AUTHOR_LABEL, OTHER_LABEL, TITLE_LABEL,
                       author_sequences, title_sequences)
from .model import Chunk, Document
from .pipeline import TASKS
from .structure import (FOOTNOTE_LABEL, HEADING_LABEL, footnote_sequences,
                        heading_sequences)


@dataclass
class TrainingPair:
    """A parsed document with the ground truth it is trained against."""

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
    """The title sequences, each first-chunk token labeled by the gold
    title."""
    sequences = []
    for ctx, truth in examples:
        gold = {id(t) for t in _gold_title_tokens(ctx.chunks, truth)}
        sequences.extend(_labeled(feats, [id(t) in gold for t in tokens],
                                  TITLE_LABEL)
                         for tokens, feats in title_sequences(ctx))
    return sequences


def build_author_sequences(examples):
    """The author sequences after the gold title, each token outside it
    labeled by the gold name parts."""
    sequences = []
    for ctx, truth in examples:
        title_span = _gold_title_tokens(ctx.chunks, truth)
        name_parts = {p for first, middle, last in truth.authors
                      for p in (first, middle, last) if p}
        title_ids = {id(t) for t in title_span}
        sequences.extend(
            _labeled(feats, [t.text.rstrip(",") in name_parts
                             and id(t) not in title_ids for t in tokens],
                     AUTHOR_LABEL)
            for tokens, feats in author_sequences(ctx, title_span))
    return sequences


def build_heading_sequences(examples):
    """The heading sequences, each chunk labeled by the gold headings."""
    return [_labeled(feats, [c.text in truth.section_headings for c in chunks],
                     HEADING_LABEL)
            for ctx, truth in examples
            for chunks, feats in heading_sequences(ctx)]


def _strip_marker(text: str) -> str:
    words = text.split()
    return " ".join(words[1:]) if len(words) > 1 else text


def build_footnote_sequences(examples):
    """The footnote sequences, one per page, each chunk labeled by the gold
    footnotes with or without its marker."""
    return [_labeled(feats, [c.text in truth.footnotes
                             or _strip_marker(c.text) in truth.footnotes
                             for c in chunks], FOOTNOTE_LABEL)
            for ctx, truth in examples
            for _page, chunks, feats in footnote_sequences(ctx)]


# The sequence builder of each task, in the order of ``TASKS``, each in a
# tuple, where a tracer that patches the functions in a module's dicts of
# tuples (``perfbench``) finds it.
_BUILDERS = {
    "title": (build_title_sequences,),
    "author": (build_author_sequences,),
    "heading": (build_heading_sequences,),
    "footnote": (build_footnote_sequences,),
}


def train_task(task: str, examples, config: TrainConfig = TrainConfig(),
               log: list | None = None) -> CrfModel:
    """Fit the CRF for one task name on examples from training_examples;
    ``log`` is passed to ``crf.train``."""
    if task not in _BUILDERS:
        raise ValueError(f"unknown task {task!r}")
    (builder,) = _BUILDERS[task]
    spec = LABELING_TASKS[task]
    templates = [FeatureTemplate(t.id, t.kind, t.description)
                 for t in spec.templates]
    return train(builder(examples), spec.labels, templates, config,
                 task_name=task, log=log)


def train_all(pairs, config: TrainConfig = TrainConfig(),
              params: ChunkParams = ChunkParams()) -> dict[str, CrfModel]:
    """All four task models, keyed by task name."""
    examples = training_examples(pairs, params)
    return {task: train_task(task, examples, config) for task in TASKS}
