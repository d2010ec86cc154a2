"""The sequence each labeler reads: one function per task builds it, for
decoding and for training alike."""

from functools import cache

import pytest
from conftest import (mutate_xml, reference_author_window,
                      reference_positions, reference_token_features,
                      xml_mutations)
from hypothesis import given, settings
from hypothesis import strategies as st

from scholarparse import metadata, structure
from scholarparse.context import build_context
from scholarparse.crf import viterbi_decode
from scholarparse.ingest import parse_rich_xml
from scholarparse.metadata import (author_sequences, extract_author_names,
                                   extract_title, title_fallback,
                                   title_sequences)
from scholarparse.model import Document, Page
from scholarparse.pipeline import load_default_models
from scholarparse.structure import (extract_footnotes, footnote_sequences,
                                    heading_sequences, label_headings)
from scholarparse.synth import STYLES, generate_synthetic_document
from scholarparse.training import (_gold_title_tokens, build_author_sequences,
                                   build_footnote_sequences,
                                   build_heading_sequences,
                                   build_title_sequences)

INJECTED_TEXT = [None, "", "x-", "*", "†", "1", "Singh", "Abstract",
                 "University", "a.b@c.org"]


@pytest.fixture(scope="module")
def models():
    return load_default_models()


@cache
def article(style: str, seed: int):
    return generate_synthetic_document(style, seed, source_id=style)


def ids(tokens) -> list[int]:
    return [id(t) for t in tokens]


def assert_token_sequences(ctx, got, expected_tokens):
    """``got`` holds one sequence of exactly ``expected_tokens``, or none
    when that is empty, with features at the tokens' id-map positions."""
    positions = reference_positions(ctx)
    assert [ids(tokens) for tokens, _ in got] == (
        [ids(expected_tokens)] if expected_tokens else [])
    for tokens, feats in got:
        assert feats == reference_token_features(ctx, tokens, positions)


class TestTokenPositions:
    @given(st.sampled_from(STYLES), st.integers(0, 30),
           st.lists(xml_mutations(INJECTED_TEXT), max_size=6),
           st.integers(0, 1_000))
    @settings(max_examples=40)
    def test_sequences_match_the_id_map_oracle(self, models, style, seed,
                                               mutations, pick):
        xml, truth = article(style, seed)
        doc, _ = parse_rich_xml(mutate_xml(xml, mutations))
        ctx = build_context(doc)
        assert ctx.token_count == len(reference_positions(ctx))
        assert_token_sequences(ctx, title_sequences(ctx),
                               list(ctx.chunks[0].tokens) if ctx.chunks else [])
        first_page = ctx.first_page_chunks
        spans = [extract_title(ctx, models.title),
                 _gold_title_tokens(ctx.chunks, truth),
                 title_fallback(first_page)]
        if ctx.chunks:  # a labeled title that ends inside the first chunk
            spans.append(list(ctx.chunks[0].tokens[:pick % 4]))
        if len(first_page) > 1:
            later = first_page[1 + pick % (len(first_page) - 1)]
            spans.append(list(later.tokens))
        for span in spans:
            assert_token_sequences(ctx, author_sequences(ctx, span),
                                   reference_author_window(ctx, span))

    @pytest.mark.parametrize("style", STYLES)
    def test_a_later_title_chunk_splits_the_author_window(self, style):
        xml, _truth = article(style, 5)
        ctx = build_context(parse_rich_xml(xml)[0])
        first_len = len(ctx.chunks[0].tokens)
        span = list(ctx.first_page_chunks[1].tokens)
        ((tokens, _feats),) = author_sequences(ctx, span)
        assert ids(tokens[:first_len]) == ids(ctx.chunks[0].tokens)
        assert tokens[first_len] is not ctx.first_page_chunks[1].tokens[0]
        assert_token_sequences(ctx, author_sequences(ctx, span),
                               reference_author_window(ctx, span))

    def test_an_empty_document_has_no_sequences(self):
        for doc in (Document("empty"),
                    Document("blank", (Page(1, 612.0, 792.0),))):
            ctx = build_context(doc)
            assert title_sequences(ctx) == []
            assert author_sequences(ctx, []) == []
            assert heading_sequences(ctx) == []
            assert footnote_sequences(ctx) == []


@cache
def titled_example(style: str):
    """The first article of ``style`` from seed 900 on whose predicted title
    is its gold title, token for token, as (context, truth)."""
    models = load_default_models()
    for seed in range(900, 920):
        xml, truth = article(style, seed)
        ctx = build_context(parse_rich_xml(xml)[0])
        if ids(extract_title(ctx, models.title)) == ids(
                _gold_title_tokens(ctx.chunks, truth)):
            return ctx, truth
    raise AssertionError(f"no {style} article from seed 900 has its title")


class TestDecodersReadWhatBuildersLabel:
    @pytest.mark.parametrize("style", STYLES)
    def test_decoded_features_are_the_labeled_features(self, models,
                                                       monkeypatch, style):
        ctx, truth = titled_example(style)
        decoded = []

        def spy(model, feats):
            decoded.append((model.task_name, feats))
            return viterbi_decode(model, feats)

        monkeypatch.setattr(metadata, "viterbi_decode", spy)
        monkeypatch.setattr(structure, "viterbi_decode", spy)
        title = extract_title(ctx, models.title)
        extract_author_names(ctx, title, models.author)
        label_headings(ctx, models.heading)
        extract_footnotes(ctx, models.footnote)
        builders = {"title": build_title_sequences,
                    "author": build_author_sequences,
                    "heading": build_heading_sequences,
                    "footnote": build_footnote_sequences}
        for task, build in builders.items():
            labeled = [[f for f, _label in seq.items]
                       for seq in build([(ctx, truth)])]
            assert labeled
            assert [f for t, f in decoded if t == task] == labeled, task
