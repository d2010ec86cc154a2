"""Unit tests for training-set construction and task fitting."""

import pytest

from scholarparse.crf import TrainConfig, viterbi_decode
from scholarparse.evaluate import (TrainingPair, corpus_files, load_corpus,
                                   ground_truth_to_text, read_pair)
from scholarparse.ingest import parse_rich_xml
from scholarparse.synth import STYLES, generate_synthetic_document
from scholarparse.training import (TASKS, build_author_sequences,
                                   build_footnote_sequences,
                                   build_heading_sequences,
                                   build_title_sequences, train_task,
                                   training_examples)


@pytest.fixture(scope="module")
def pairs():
    out = []
    for i, style in enumerate(STYLES):
        xml, gt = generate_synthetic_document(style, 17 + i, source_id=style)
        doc, _ = parse_rich_xml(xml, source_id=style)
        out.append(TrainingPair(document=doc, truth=gt))
    return out


@pytest.fixture(scope="module")
def examples(pairs):
    return training_examples(pairs)


class TestBuilders:
    def test_title_sequences_label_title_tokens(self, pairs, examples):
        seqs = build_title_sequences(examples)
        assert len(seqs) == len(pairs)
        for seq, pair in zip(seqs, pairs):
            titled = [lab for _, lab in seq.items if lab == "TITLE"]
            assert len(titled) == len(pair.truth.title.split())

    def test_author_sequences_cover_name_parts(self, pairs, examples):
        seqs = build_author_sequences(examples)
        for seq, pair in zip(seqs, pairs):
            n_parts = sum(1 for a in pair.truth.authors for p in a if p)
            labeled = sum(1 for _, lab in seq.items if lab == "AUTHOR")
            assert labeled == n_parts

    def test_heading_sequences_match_gold_count(self, pairs, examples):
        seqs = build_heading_sequences(examples)
        for seq, pair in zip(seqs, pairs):
            labeled = sum(1 for _, lab in seq.items if lab == "HEADING")
            assert labeled == len(pair.truth.section_headings)

    def test_footnote_sequences_match_gold_count(self, examples):
        for example in examples:
            seqs = build_footnote_sequences([example])
            labeled = sum(1 for seq in seqs for _, lab in seq.items
                          if lab == "FOOTNOTE")
            assert labeled == len(example[1].footnotes)


class TestTrainTask:
    def test_trained_title_model_decodes_training_doc(self, examples):
        model = train_task("title", examples, TrainConfig(max_iterations=25))
        assert model.task_name == "title"
        seq = build_title_sequences(examples)[0]
        decoded = viterbi_decode(model, seq.features())
        assert decoded == seq.labels()

    def test_unknown_task_rejected(self, examples):
        with pytest.raises(ValueError):
            train_task("paragraph", examples)

    def test_task_list(self):
        assert TASKS == ("title", "author", "heading", "footnote")


class TestLoadCorpus:
    def test_reads_xml_gt_pairs(self, tmp_path, pairs):
        xml, gt = generate_synthetic_document(STYLES[0], 99, source_id="d99")
        (tmp_path / "d99.xml").write_bytes(xml)
        (tmp_path / "d99.gt.txt").write_text(ground_truth_to_text(gt), "utf-8")
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 1
        assert loaded[0].truth.title == gt.title
        assert loaded[0].document.source_id == "d99"

    def test_xml_without_gt_skipped(self, tmp_path):
        xml, gt = generate_synthetic_document(STYLES[0], 99)
        (tmp_path / "a.xml").write_bytes(xml)
        (tmp_path / "b.xml").write_bytes(xml)
        (tmp_path / "b.gt.txt").write_text(ground_truth_to_text(gt), "utf-8")
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 1

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_corpus(tmp_path)

    def test_corpus_files_are_sorted_xml_with_truth(self, tmp_path):
        for name in ("c.xml", "c.gt.txt", "a.xml", "a.gt.txt", "b.xml"):
            (tmp_path / name).write_text("", "utf-8")
        assert corpus_files(tmp_path) == [tmp_path / "a.xml",
                                          tmp_path / "c.xml"]

    def test_read_pair_dehyphenates_on_request(self, tmp_path):
        (tmp_path / "d.xml").write_bytes(
            b"""<DOCUMENT><PAGE number="1" width="612" height="792">
            <TEXT><TOKEN x="0" y="50" width="20" height="10" font-size="10"
              >exam-</TOKEN></TEXT>
            <TEXT><TOKEN x="0" y="65" width="20" height="10" font-size="10"
              >ple</TOKEN></TEXT></PAGE></DOCUMENT>""")
        (tmp_path / "d.gt.txt").write_text("TITLE\texample\n", "utf-8")
        words = {flag: [t.text for t in read_pair(tmp_path / "d.xml", flag)
                        .document.pages[0].tokens()]
                 for flag in (False, True)}
        assert words == {False: ["exam-", "ple"], True: ["example"]}
        pair = read_pair(tmp_path / "d.xml")
        assert pair.document.source_id == "d"
        assert pair.truth.title == "example"
