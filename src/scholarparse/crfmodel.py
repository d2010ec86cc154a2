"""The trained CRF as extraction uses it: the model, its file format and
the Viterbi decoder.

The model is linear in indicator features: each position of a sequence
carries a set of active features, and a path is scored by summing unary
(feature, label) weights plus (label, label) transition weights over
adjacent pairs.  A model holds its weights as rows of plain floats, and
decoding runs on them alone, so nothing here imports numpy, which would be
about half the time a fresh interpreter takes to start.  Training and
marginals are in ``crf``, which neither extraction nor evaluation loads.

Model files are a versioned, deterministic key-value text format: the
bundled models' bytes are pinned, so ``save_model`` writes its records in
one fixed order, and ``load_model`` raises ``ModelFormatError`` on any
record it cannot read.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import islice, repeat
from operator import add
from typing import NamedTuple

MODEL_MAGIC = "OCRPP-CRF"
MODEL_VERSION = 1


class CrfError(ValueError):
    pass


class ModelFormatError(CrfError):
    """Unreadable, truncated, or wrong-version model payload."""


class FeatureTemplate(NamedTuple):
    """A family of features a task's feature functions emit, by id and kind."""

    id: str
    kind: str  # "boolean", "bucketed-real", or "categorical"
    description: str = ""


def _label_index(labels: tuple[str, ...], label: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise CrfError(f"unknown label {label!r}") from None


class CrfModel:
    """``unary[i][j]`` weighs feature ``features[i]`` under ``labels[j]``;
    ``transitions[a][b]`` weighs label a followed by label b.  Both are
    tuples of rows of floats, read into the decoding tables when the model
    is built, so changed weights make a new model.  The labels are
    distinct, and there is at least one.  Two models are equal only if
    they are the same object."""

    def __init__(self, labels: tuple[str, ...], features: tuple[str, ...],
                 unary: tuple[tuple[float, ...], ...],
                 transitions: tuple[tuple[float, ...], ...],
                 templates: tuple[FeatureTemplate, ...] = (),
                 task_name: str = ""):
        if not labels:
            raise CrfError("a model needs at least one label")
        if len(set(labels)) != len(labels):
            raise CrfError(f"repeated label in {labels!r}")
        self.labels = labels
        self.features = features
        self.unary = unary
        self.transitions = transitions
        self.templates = templates
        self.task_name = task_name
        self.feature_rows = {f: i for i, f in enumerate(features)}
        # Per label, the ``get`` of a feature -> weight dict: what
        # ``viterbi_decode`` reads.
        self.label_weights = tuple(
            dict(zip(features, [row[j] for row in unary])).get
            for j in range(len(labels)))

    @classmethod
    def from_weights(cls, labels, unary_weights, transition_weights,
                     templates=(), task_name: str = "") -> CrfModel:
        """Model from {(feature, label): w} and {(label, label): w} dicts."""
        labels = tuple(labels)
        features = tuple(sorted({f for f, _ in unary_weights}))
        rows = {f: i for i, f in enumerate(features)}
        unary = [[0.0] * len(labels) for _ in features]
        transitions = [[0.0] * len(labels) for _ in labels]
        for (f, label), w in unary_weights.items():
            unary[rows[f]][_label_index(labels, label)] = float(w)
        for (a, b), w in transition_weights.items():
            transitions[_label_index(labels, a)][_label_index(labels, b)] = \
                float(w)
        return cls(labels, features, tuple(map(tuple, unary)),
                   tuple(map(tuple, transitions)), tuple(templates), task_name)

    def label_index(self, label: str) -> int:
        return _label_index(self.labels, label)


def viterbi_decode(model: CrfModel, sequence_features) -> list[str]:
    """Argmax label path; ties prefer the earlier label at each backtrack step.

    The recursion runs over plain floats: on the two-label models an array
    call per position costs more than its arithmetic.  Each position's
    emission under a label adds the weights of its features in order,
    starting from 0.0, with an unknown feature adding 0.0: the sums the
    trainer's emissions make (``crf._emissions``, one ``np.bincount`` that
    adds in order from 0.0), bit for bit, since a sum that starts at +0.0
    is never -0.0 (``sum`` is not used: from Python 3.12 it compensates).  A
    later label replaces the best only when strictly greater and the last
    position takes its first maximum, so on finite weights the path is the
    one ``np.argmax`` (lowest index wins ties) would give.

    Each distinct feature row is summed once and its sums shared by every
    position that repeats it: an author sequence holds about four times as
    many positions as distinct rows.  A row is keyed by ``tuple(row)``, so
    any iterable of hashable features serves, and a tuple is its own key.
    The transitions into each label are read as one column per call.
    """
    if not sequence_features:
        raise CrfError("empty sequence")
    weights = model.label_weights
    zeros = repeat(0.0)
    sums: dict[tuple, list[float]] = {}
    emissions = []
    for row in map(tuple, sequence_features):
        emission = sums.get(row)
        if emission is None:
            emission = sums[row] = [reduce(add, map(get, row, zeros), 0.0)
                                    for get in weights]
        emissions.append(emission)
    # ``columns[j][i]`` weighs label i followed by label j.
    columns = list(zip(*model.transitions))
    rest = range(1, len(columns))
    delta = emissions[0]
    back = []
    for emission in islice(emissions, 1, None):
        ptr, nxt = [], []
        for column, e in zip(columns, emission):
            best, arg = delta[0] + column[0], 0
            for i in rest:
                s = delta[i] + column[i]
                if s > best:
                    best, arg = s, i
            ptr.append(arg)
            nxt.append(best + e)
        back.append(ptr)
        delta = nxt
    j = delta.index(max(delta))
    path = [j]
    for ptr in reversed(back):
        j = ptr[j]
        path.append(j)
    path.reverse()
    return [model.labels[i] for i in path]


def save_model(model: CrfModel) -> bytes:
    """Serialize to a versioned, deterministic key-value text format: records
    sorted by name, zero weights left out."""
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}", f"task\t{model.task_name}",
             "labels\t" + "\t".join(model.labels)]
    for tpl in model.templates:
        lines.append(f"template\t{tpl.id}\t{tpl.kind}\t{tpl.description}")
    names = model.labels
    by_name = sorted(range(len(names)), key=names.__getitem__)
    unary, trans = model.unary, model.transitions
    for f, i in sorted(model.feature_rows.items()):
        lines += [f"unary\t{f}\t{names[j]}\t{unary[i][j]!r}"
                  for j in by_name if unary[i][j] != 0.0]
    lines += [f"trans\t{names[a]}\t{names[b]}\t{trans[a][b]!r}"
              for a in by_name for b in by_name if trans[a][b] != 0.0]
    lines.append("end")
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_model(data: bytes) -> CrfModel:
    """Parse save_model output; field-for-field round trip.  Every weight
    must be finite, which is what ``viterbi_decode``'s tie rule assumes;
    the labels must be distinct and at least one, no weight, labels, task
    or template record may be given twice, and a template record holds an
    id, a kind and at most a description."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"undecodable model payload: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError("empty payload")
    header = lines[0].split()
    if len(header) != 2 or header[0] != MODEL_MAGIC:
        raise ModelFormatError("bad magic header")
    if header[1] != str(MODEL_VERSION):
        raise ModelFormatError(f"unsupported version {header[1]}")
    if lines[-1] != "end":
        raise ModelFormatError("truncated payload")

    task_name, labels = None, None
    templates, unary, trans = [], {}, {}
    for line in lines[1:-1]:
        kind, *fields = line.split("\t")
        if kind == "task":
            if task_name is not None:
                raise ModelFormatError(f"repeated task record {line!r}")
            task_name = fields[0] if fields else ""
        elif kind == "labels":
            if labels is not None:
                raise ModelFormatError(f"repeated labels record {line!r}")
            labels = tuple(fields)
        elif kind == "template" and len(fields) in (2, 3):
            if any(tpl.id == fields[0] for tpl in templates):
                raise ModelFormatError(f"repeated template record {line!r}")
            templates.append(FeatureTemplate(*fields))
        elif kind in ("unary", "trans"):
            weights = unary if kind == "unary" else trans
            try:
                first, second, weight = fields
                weight = float(weight)
            except ValueError:
                raise ModelFormatError(f"malformed record {line!r}") from None
            if not math.isfinite(weight):
                raise ModelFormatError(f"non-finite weight in {line!r}")
            if (first, second) in weights:
                raise ModelFormatError(f"repeated record {line!r}")
            weights[(first, second)] = weight
        else:
            raise ModelFormatError(f"unknown or malformed record {kind!r}")
    try:
        return CrfModel.from_weights(labels or (), unary, trans, templates,
                                     task_name or "")
    except CrfError as exc:
        raise ModelFormatError(str(exc)) from None
