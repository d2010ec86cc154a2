"""Byte pins for refactors: the TEI of one fixed article per style, the
four training-sequence sets built from the same articles, and the four
models trained on them.

Code that keeps the extraction, feature and training behaviour keeps these
digests;
a change that alters either on purpose records new digests here and says
why.
"""

import hashlib

import pytest

from scholarparse.crf import TrainConfig, save_model
from scholarparse.ingest import parse_rich_xml
from scholarparse.pipeline import extract_document, load_default_models
from scholarparse.synth import STYLES, generate_synthetic_document
from scholarparse.tei import export_tei
from scholarparse.training import (TrainingPair, build_author_sequences,
                                   build_footnote_sequences,
                                   build_heading_sequences,
                                   build_title_sequences, train_all,
                                   training_examples)

ARTICLE_SEED = 4242

TEI_SHA256 = {
    "single-col-numbered":
        "155f8599957d63c6db94da55d62bd5673c736f7c75846d85d53c2ab4b3468325",
    "single-col-unnumbered":
        "398d99245ffc2e60af80f32c0ff3b7d2d16be0ce9394b213c9658313917718f2",
    "two-col-indexed":
        "5aa73900710bda60454547726cfc48e108c9ea549fc0ce76a219a7a0ec9c27d4",
    "two-col-author-year":
        "c2b431203736dbc7659408bd6e016185a120b4b11fad2a741b19406fc086a8b7",
}

SEQUENCES_SHA256 = {
    "author": "94152037665c2110ddc7233efa8c2ce84716fc1793aedeb5767ca65bbdaa11a2",
    "footnote": "8097dd83a20b0363901c18c9ec7982de932b63eb32a2e6a68124f5bac6106053",
    "heading": "f0f2fe306d923d1349877be2ca8a129c77ad2c0ff12e4a79c9e4b0f804e18074",
    "title": "ff0f065e81468f0988880d9b62ec68c80def2d09970058db075815034e81fd3a",
}

# save_model bytes of train_all(pairs, TrainConfig(max_iterations=6)): the
# trained weights, bit for bit.
MODEL_SHA256 = {
    "author": "2bd1ebd7d1688355717c7971075d549468b771554f60b89f0ee65004a6f5b0b0",
    "footnote": "cbffbb128219b6ce83d3ee98d081583b6a2736624ba0943ff8f51ab475e5b740",
    "heading": "c7e78f9824e356bdec3efaddb3678d6ca4e489c6e2474a1e67ba5f6c0f513602",
    "title": "e3506172e196341f795779cdb050c5bb335c957af65cc9f217cf6c3242ef6505",
}

BUILDERS = {
    "title": build_title_sequences,
    "author": build_author_sequences,
    "heading": build_heading_sequences,
    "footnote": build_footnote_sequences,
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def pairs():
    out = []
    for style in STYLES:
        xml, truth = generate_synthetic_document(style, ARTICLE_SEED,
                                                 source_id=style)
        doc, _report = parse_rich_xml(xml, source_id=style)
        out.append(TrainingPair(document=doc, truth=truth))
    return out


@pytest.mark.parametrize("index", range(len(STYLES)), ids=STYLES)
def test_tei_bytes(pairs, index):
    result = extract_document(pairs[index].document, load_default_models())
    assert sha256(export_tei(result)) == TEI_SHA256[STYLES[index]]


@pytest.mark.parametrize("task", sorted(BUILDERS))
def test_training_sequence_bytes(pairs, task):
    sequences = BUILDERS[task](training_examples(pairs))
    assert sha256(repr([seq.items for seq in sequences])) == \
        SEQUENCES_SHA256[task]


@pytest.fixture(scope="module")
def trained(pairs):
    return train_all(pairs, TrainConfig(max_iterations=6))


@pytest.mark.parametrize("task", sorted(MODEL_SHA256))
def test_trained_model_bytes(trained, task):
    digest = hashlib.sha256(save_model(trained[task])).hexdigest()
    assert digest == MODEL_SHA256[task]
