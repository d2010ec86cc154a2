"""Unit tests for token-level scoring and ground-truth IO."""

import ast
import inspect
from functools import cache

import pytest
from conftest import (reference_gold_field_strings,
                      reference_predicted_field_strings)
from hypothesis import given, settings
from hypothesis import strategies as st

from scholarparse import evaluate
from scholarparse.bibliography import (CitationLink, Reference,
                                       extract_citations)
from scholarparse.evaluate import (REPORT_FIELDS, GroundTruth, TokenMetrics,
                                   aggregate, evaluate_extraction,
                                   ground_truth_from_text,
                                   ground_truth_to_text, micro_average,
                                   render_report, split_corpus, token_score)
from scholarparse.ingest import parse_rich_xml
from scholarparse.pipeline import extract_document, load_default_models
from scholarparse.synth import STYLES, generate_synthetic_document
from scholarparse.tei import ExtractionResult, reference_id


class TestTokenScore:
    def test_exact_match(self):
        m = token_score("A Fine Title", "a fine title")
        assert (m.tp, m.fp, m.fn) == (3, 0, 0)
        assert m.f_score == 1.0

    def test_partial_overlap(self):
        m = token_score("a b c", "b c d")
        assert (m.tp, m.fp, m.fn) == (2, 1, 1)

    def test_multiset_counts_duplicates(self):
        m = token_score("x x y", "x y y")
        assert (m.tp, m.fp, m.fn) == (2, 1, 1)

    def test_empty_prediction(self):
        m = token_score("", "gold words")
        assert (m.tp, m.fp, m.fn) == (0, 0, 2)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f_score == 0.0

    def test_empty_both(self):
        m = token_score("", "")
        assert (m.tp, m.fp, m.fn) == (0, 0, 0)

    @given(st.text(alphabet="ab ", max_size=30),
           st.text(alphabet="ab ", max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_tp_bounded_by_both_sizes(self, pred, gold):
        m = token_score(pred, gold)
        assert m.tp + m.fp == len(pred.split())
        assert m.tp + m.fn == len(gold.split())


class TestMicroAverage:
    def test_sums_counts_before_ratios(self):
        per_doc = [TokenMetrics(tp=9, fp=1, fn=0), TokenMetrics(tp=0, fp=0, fn=1)]
        micro = micro_average(per_doc)
        assert (micro.tp, micro.fp, micro.fn) == (9, 1, 1)
        # micro F differs from the mean of per-document F scores
        macro = sum(m.f_score for m in per_doc) / 2
        assert micro.f_score != pytest.approx(macro)


class TestSplitCorpus:
    def test_deterministic(self):
        ids = [f"d{i}" for i in range(10)]
        assert split_corpus(ids, 0.2, seed=7) == split_corpus(ids, 0.2, seed=7)

    def test_sizes_use_ceiling(self):
        train, test = split_corpus(list(range(10)), 0.25, seed=0)
        assert len(train) == 3 and len(test) == 7

    def test_partition(self):
        ids = list(range(100))
        train, test = split_corpus(ids, 0.2, seed=1)
        assert sorted(train + test) == ids
        assert len(train) == 20

    def test_different_seeds_differ(self):
        ids = list(range(50))
        assert split_corpus(ids, 0.5, 1) != split_corpus(ids, 0.5, 2)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_corpus([1, 2], 1.0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_corpus([], 0.5, 0)


class TestAggregate:
    def test_per_field_micro(self):
        d1 = {f: TokenMetrics(tp=1, fp=1, fn=0) for f in REPORT_FIELDS}
        d2 = {f: TokenMetrics(tp=2, fp=0, fn=1) for f in REPORT_FIELDS}
        agg = aggregate([d1, d2])
        assert agg["title"] == TokenMetrics(tp=3, fp=1, fn=1)


class TestPredictedFieldStrings:
    @pytest.mark.parametrize("index, number", [(None, "2"), (7, "7")])
    def test_cite_ref_uses_the_reference_number(self, index, number):
        # An unindexed reference is numbered by its 1-based position, as
        # its TEI id is.
        refs = [Reference(index=None, raw_text="Singh, M. 2013. A."),
                Reference(index=index, raw_text="Goyal, P. 2014. B.")]
        (cit,) = extract_citations("as Goyal (2014) argued")
        result = ExtractionResult(references=refs, citations=[
            CitationLink(citation=cit, reference=refs[1],
                         method="author-year")])
        assert (REPORT_FIELDS["cite_ref"].predicted(result)
                == [f"goyal_(2014)={number}"])
        assert reference_id(refs[1], 1) == f"ref-{number}"


@cache
def extracted(style: str, seed: int):
    xml, truth = generate_synthetic_document(style, seed)
    result = extract_document(parse_rich_xml(xml)[0], load_default_models())
    return result, truth


class TestReportFields:
    """``REPORT_FIELDS`` scores each field as the per-field string
    functions written before it did (``conftest``'s oracles)."""

    def test_table_keeps_the_report_order(self):
        assert (list(REPORT_FIELDS)
                == list(reference_predicted_field_strings(ExtractionResult())))

    def test_report_rows_follow_the_table(self):
        report = render_report(dict.fromkeys(REPORT_FIELDS, TokenMetrics()))
        table, keys = report.split("\n\n")
        assert [row.split()[0] for row in table.splitlines()[1:]] == list(
            REPORT_FIELDS)
        assert [line.partition(".")[0] for line in keys.splitlines()] == [
            f for f in REPORT_FIELDS for _ in range(3)]

    def test_each_field_name_is_written_once(self):
        literals = [node.value for node in ast.walk(
            ast.parse(inspect.getsource(evaluate)))
            if isinstance(node, ast.Constant)]
        assert {f: literals.count(f) for f in REPORT_FIELDS} == dict.fromkeys(
            REPORT_FIELDS, 1)

    @staticmethod
    def removed_from(result, removed, rnd):
        """``result`` with the title blanked or about half of each other
        named field's items dropped; a citation whose reference is dropped
        is left unresolved."""
        result = result._replace(**{
            name: "" if name == "title" else
            [item for item in getattr(result, name) if rnd.random() < 0.5]
            for name in removed})
        kept = {id(ref) for ref in result.references}
        return result._replace(citations=[
            link if link.reference is None or id(link.reference) in kept
            else link._replace(reference=None, method="unresolved")
            for link in result.citations])

    @given(st.sampled_from(STYLES), st.integers(9000, 9011),
           st.sets(st.sampled_from(("authors", "citations", "references",
                                    "urls", "title"))),
           st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_scores_match_the_oracle(self, style, seed, removed, rnd):
        result, truth = extracted(style, seed)
        result = self.removed_from(result, removed, rnd)
        predicted = reference_predicted_field_strings(result)
        gold = reference_gold_field_strings(truth)
        assert evaluate_extraction(result, truth) == {
            f: token_score(predicted[f], gold[f]) for f in REPORT_FIELDS}
        for name, f in REPORT_FIELDS.items():
            assert " ".join(f.predicted(result)).split() == predicted[name].split()
            assert " ".join(f.gold(truth)).split() == gold[name].split()


class TestGroundTruthIO:
    def sample(self):
        return GroundTruth(
            title="A Title",
            authors=[("Mayank", "", "Singh"), ("Pawan", "K", "Goyal")],
            emails=["m@x.org"],
            affiliations=["IIT Kharagpur, India"],
            section_headings=["Abstract", "1 Intro"],
            figure_headings=["Figure 1: plot."],
            table_headings=["Table 1: data."],
            urls=["http://example.org/x"],
            footnotes=["a note"],
            references=["Singh, M. 2013. Paper."],
            citations=["[1]"],
            author_email=[("Mayank Singh", "m@x.org")],
            cite_ref=[("[1]", "1")],
        )

    def test_round_trip(self):
        gt = self.sample()
        assert ground_truth_from_text(ground_truth_to_text(gt)) == gt

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ground_truth_from_text("BOGUS\tvalue\n")

    @pytest.mark.parametrize("record", [
        "TITLE", "AUTHOR", "EMAIL", "CITE_REF\t[1]", "AUTHOR_EMAIL\tA B"])
    def test_short_record_names_line_and_kind(self, record):
        kind = record.split("\t")[0]
        with pytest.raises(ValueError, match=rf"^line 2: {kind} record"):
            ground_truth_from_text(f"TITLE\tHello\n{record}\n")

    @pytest.mark.parametrize("record", [
        "TITLE\tA\tB", "EMAIL\ta@x.org\tb@x.org", "CITE_REF\t[1]\t1\t2",
        "AUTHOR\ta|b|c|d"])
    def test_extra_values_rejected(self, record):
        kind = record.split("\t")[0]
        with pytest.raises(ValueError, match=rf"^line 1: {kind} record"):
            ground_truth_from_text(record + "\n")

    @pytest.mark.parametrize("gt", [
        GroundTruth(title="A\tB"), GroundTruth(references=["x\ny"]),
        GroundTruth(title="C:\\new\\table"),
        GroundTruth(authors=[("A|B", "", "C\\u007c")]),
        GroundTruth(cite_ref=[("[1]\r", "1\u2028")]),
    ])
    def test_separators_and_line_breaks_round_trip(self, gt):
        text = ground_truth_to_text(gt)
        assert ground_truth_from_text(text) == gt
        assert len(text.splitlines()) == 1

    # Any text; the alphabet leans on what the escaping has to handle.
    VALUES = st.text(st.sampled_from("ab|\\tnu07c\t\n\r\x0b\x0c\x1c\x1d\x1e"
                                     "\x85\u2028\u2029 ") | st.characters(),
                     max_size=12)

    @given(st.builds(
        GroundTruth, title=VALUES,
        authors=st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=2),
        references=st.lists(VALUES, max_size=2),
        cite_ref=st.lists(st.tuples(VALUES, VALUES), max_size=1)))
    @settings(max_examples=50)
    def test_any_text_round_trips(self, gt):
        assert ground_truth_from_text(ground_truth_to_text(gt)) == gt

    def test_blank_lines_ignored(self):
        gt = ground_truth_from_text("\nTITLE\tHello\n\n")
        assert gt.title == "Hello"
