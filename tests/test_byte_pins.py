"""Byte pins for refactors: the generated articles and ground truth of
seeds 0-39 per style, the TEI of one fixed article per style, the four
training-sequence sets built from the same articles, and the four models
trained on them with their training logs.  The model and training-log
pins hold for one numpy dispatch key each, since numpy's SIMD loops give
training other bits on other CPUs.

Code that keeps the extraction, feature and training behaviour keeps these
digests;
a change that alters either on purpose records new digests here and says
why.
"""

import hashlib
import re

import pytest
from conftest import dispatch_pins, numpy_dispatch_key

from scholarparse.crf import TrainConfig
from scholarparse.crfmodel import save_model
from scholarparse.evaluate import TrainingPair, ground_truth_to_text
from scholarparse.ingest import parse_rich_xml
from scholarparse.pipeline import extract_document, load_default_models
from scholarparse.synth import STYLES, generate_synthetic_document
from scholarparse.tei import export_tei
from scholarparse.training import (build_author_sequences,
                                   build_footnote_sequences,
                                   build_heading_sequences,
                                   build_title_sequences, train_all,
                                   train_task, training_examples)

ARTICLE_SEED = 4242

GENERATOR_SEEDS = range(40)

# SHA-256 over generate_synthetic_document(style, seed) XML followed by
# ground_truth_to_text(truth), for every seed in GENERATOR_SEEDS in order.
GENERATOR_SHA256 = {
    "single-col-numbered":
        "25f6fcbf5d40ade6ed18f323a5dd4d1d9229173d2f59319f392e416d68800f27",
    "single-col-unnumbered":
        "4a4db7a41c4538bad6ec8033073bb1029eae26829cf3fa5f252712d66af2fc2a",
    "two-col-indexed":
        "4c1aaca38dae9da17c1c440bed5c193d7b164b0e5175cd7d46f3b5ad80220809",
    "two-col-author-year":
        "2d6e3270929c560d2dc57c00d339e3c89e57f0c1d00ccbbdd0c12f4c30e52a3b",
}

# The expected match of each citation style row, so the pinned seeds can be
# shown to cover all sixteen.  S and T are surnames, Y a year, N an ordinal.
_S, _Y, _N = r"[A-Z][a-z]+", r"\d{4}", r"\d+"
CITATION_MATCH = {
    1: rf"{_S} et al\. \[{_N}\]",
    2: rf"{_S} \[{_N}\]",
    3: rf"{_S} et al\.\[{_N}\]",
    4: rf"{_S} et al\., {_Y}a",
    5: rf"{_S} et al\., {_Y}",
    6: rf"{_S} et al\., \({_Y}\)",
    7: rf"{_S} et al\. {_Y}",
    8: rf"{_S} et al\. \({_Y}\)",
    9: rf"{_S} and {_S} \({_Y}\)",
    10: rf"{_S} & {_S} \({_Y}\)",
    11: rf"{_S} and {_S}, {_Y}",
    12: rf"{_S} & {_S}, {_Y}",
    13: rf"{_S}, {_Y}",
    14: rf"{_S} {_Y}",
    15: rf"{_S} \({_Y}\)",
    16: rf"\[{_N}(, {_N})?\]",
}

# The e-mail group pattern of an article, told from its XML tokens:
# {a, b}@host, [a, b]@host, [a@sub, b@sub].host, else one address per user.
EMAIL_PATTERN = [(2, b"}@"), (3, b"]@"), (4, b"].example.org")]

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
# trained weights, bit for bit.  One set per numpy dispatch key
# (conftest.numpy_dispatch_key): numpy's version, then the targets of its
# float64 exp and log1p loops.  The AVX2 set was recorded on an AVX-512 CPU
# with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".
MODEL_SHA256 = {
    ("2.4.6", "X86_V4", "X86_V4"): {
        "author": "2bd1ebd7d1688355717c7971075d549468b771554f60b89f0ee65004a6f5b0b0",
        "footnote": "cbffbb128219b6ce83d3ee98d081583b6a2736624ba0943ff8f51ab475e5b740",
        "heading": "c7e78f9824e356bdec3efaddb3678d6ca4e489c6e2474a1e67ba5f6c0f513602",
        "title": "e3506172e196341f795779cdb050c5bb335c957af65cc9f217cf6c3242ef6505",
    },
    ("2.4.6", "X86_V3", "baseline(X86_V2)"): {
        "author": "5c6039147e3925d79fa8f7963790df1a4f55149c99efc59a31d7e199abcc45e6",
        "footnote": "cf738eb9e1f703d68e11b8a30110b5d53ec32315a4b7d291bdec7be07c144464",
        "heading": "7d6aa9cb581349dd4c04eee1fe78e5adcc2ff12a040dd190f977d13447515a7c",
        "title": "41b99689dab598cf632c2834eb0d2d000deab76902182e00fd7d441dcee39eef",
    },
}

# repr of each task's crf.train log in that training: per iteration its
# log-likelihood, gradient norm, accepted step and line-search trials, then
# the stop reason.  Keyed as MODEL_SHA256.
TRAIN_LOG_SHA256 = {
    ("2.4.6", "X86_V4", "X86_V4"): {
        "author": "30d359a854ddcbc891c293843ca5ac455f17bc00a45757d028f0140533ba55eb",
        "footnote": "58d27dce54c00d2e9709f833250bd9e6203979a02e8b2014421f01fc7270dd4c",
        "heading": "c4983d5336d79d65ad178c9646b9208077bfc782ab2316a5f2c5673e64a22ed7",
        "title": "b3fa2afbf4df5ba2ac49ceb56edf4a2159dfbb5c960369f8d035a659e17bdbe3",
    },
    ("2.4.6", "X86_V3", "baseline(X86_V2)"): {
        "author": "40726230c820b623f3fc9ca2ce3106650150fbd530ce5660683b475282f2cb9e",
        "footnote": "dfa671161b34962fda5ffd31de3024ed7a4e4d8be9e4d770bafaf88bcd87e28a",
        "heading": "9133214d7864ad1e26f184a56ca89828caaf4e917209edbd9d6b50ec068e8919",
        "title": "35e3e111a52285a92f162ee5095c4da0739ad8d77899046c5155f4ddd3c0b9d5",
    },
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
def generated():
    return {style: [generate_synthetic_document(style, seed)
                    for seed in GENERATOR_SEEDS]
            for style in STYLES}


@pytest.mark.parametrize("style", STYLES)
def test_generator_bytes(generated, style):
    digest = hashlib.sha256()
    for xml, truth in generated[style]:
        digest.update(xml)
        digest.update(ground_truth_to_text(truth).encode("utf-8"))
    assert digest.hexdigest() == GENERATOR_SHA256[style]


def test_pinned_seeds_cover_every_citation_style_and_email_pattern(generated):
    cite_styles, email_patterns = set(), set()
    for articles in generated.values():
        for xml, truth in articles:
            for match in truth.citations:
                rows = [row for row, pattern in CITATION_MATCH.items()
                        if re.fullmatch(pattern, match)]
                assert len(rows) == 1, match
                cite_styles.update(rows)
            email_patterns.add(next((n for n, mark in EMAIL_PATTERN
                                     if mark in xml), 1))
    assert cite_styles == set(range(1, 17))
    assert email_patterns == {1, 2, 3, 4}


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


def test_a_dispatch_key_with_no_pins_fails_naming_it():
    with pytest.raises(pytest.fail.Exception,
                       match=re.escape(repr(numpy_dispatch_key()))):
        dispatch_pins({})


@pytest.mark.parametrize("task", sorted(BUILDERS))
def test_trained_model_bytes(trained, task):
    digest = hashlib.sha256(save_model(trained[task])).hexdigest()
    assert digest == dispatch_pins(MODEL_SHA256)[task]


@pytest.mark.parametrize("task", sorted(BUILDERS))
def test_training_log_bytes(pairs, task):
    log = []
    model = train_task(task, training_examples(pairs),
                       TrainConfig(max_iterations=6), log)
    assert sha256(repr(log)) == dispatch_pins(TRAIN_LOG_SHA256)[task]
    assert (hashlib.sha256(save_model(model)).hexdigest()
            == dispatch_pins(MODEL_SHA256)[task])
