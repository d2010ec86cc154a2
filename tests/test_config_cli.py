"""Unit tests for configuration parsing and the command-line interface."""

import copy
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

from scholarparse.chunker import ChunkParams
from scholarparse.cli import main
from scholarparse.config import PipelineConfig, load_config, parse_config
from scholarparse.crf import TrainConfig
from scholarparse.evaluate import ground_truth_from_text
from scholarparse.pipeline import PipelineModels


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.chunk.gap_factor == 1.5
        assert cfg.train.max_iterations == 200

    def test_defaults_are_those_of_chunking_and_training(self):
        cfg = PipelineConfig()
        assert cfg.chunk == ChunkParams()
        assert cfg.train == TrainConfig()
        assert cfg.dehyphenate is False

    def test_parse_values(self):
        cfg = parse_config("gap_factor = 2.0\nmax_iterations=10\n"
                           "boldness_break = no\n# comment\n\n"
                           "convergence_tol=1e-4\n")
        assert cfg.chunk.gap_factor == 2.0
        assert cfg.train.max_iterations == 10
        assert cfg.chunk.boldness_break is False
        assert cfg.train.convergence_tol == 1e-4

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("bogus=1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("gap_factor 2.0\n")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            parse_config("boldness_break=maybe\n")

    @pytest.mark.parametrize("line", ["l2_lambda = nan", "l2_lambda = inf",
                                      "max_iterations = -3",
                                      "convergence_tol = nan"])
    def test_untrainable_values_rejected(self, line):
        with pytest.raises(ValueError):
            parse_config(line)

    @pytest.mark.parametrize("line", ["gap_factor = 0.5", "font_jump = 1.5"])
    def test_unchunkable_values_rejected(self, line):
        with pytest.raises(ValueError):
            parse_config(line)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.conf")

    def test_derived_params(self):
        cfg = parse_config("gap_factor=1.8\nl2_lambda=0.5\ndehyphenate=yes\n")
        assert cfg.chunk == ChunkParams(gap_factor=1.8)
        assert cfg.train == TrainConfig(l2_lambda=0.5)
        assert cfg.dehyphenate is True


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["generate", "--out", str(out), "--count", "4",
                 "--seed", "300"]) == 0
    return out


@pytest.fixture
def corpus_with_bad_pair(corpus_dir, tmp_path):
    """Two directories: two good pairs of the corpus, and the same two plus
    a pair whose XML is malformed."""
    good, mixed = tmp_path / "good", tmp_path / "mixed"
    for directory in (good, mixed):
        directory.mkdir()
        for xml in sorted(corpus_dir.glob("*.xml"))[:2]:
            for path in (xml, xml.with_name(xml.stem + ".gt.txt")):
                (directory / path.name).write_bytes(path.read_bytes())
    (mixed / "bad.xml").write_bytes(b"<DOCUMENT><PAGE>")
    (mixed / "bad.gt.txt").write_text("TITLE\tBad\n", "utf-8")
    return good, mixed


def _hyphenate_title(xml: bytes) -> bytes:
    """The document with the last token of its first line split by a
    hyphen: the head and the tokens before it move up onto a line of their
    own, and the tail opens the line they left."""
    root = ET.fromstring(xml)
    page = root.find("PAGE")
    line = page.find("TEXT")
    *before, last = list(line)
    head = copy.deepcopy(last)
    half = len(last.text) // 2
    head.text, last.text = last.text[:half] + "-", last.text[half:]
    last.set("x", before[0].get("x"))
    above = ET.Element("TEXT")
    for tok in before + [head]:
        tok.set("y", repr(float(tok.get("y")) - float(tok.get("height"))))
        above.append(tok)
    for tok in before:
        line.remove(tok)
    page.insert(0, above)
    return ET.tostring(root)


class TestCli:
    def test_generate_writes_pairs(self, corpus_dir):
        xmls = sorted(corpus_dir.glob("*.xml"))
        gts = sorted(corpus_dir.glob("*.gt.txt"))
        assert len(xmls) == 4 and len(gts) == 4

    def test_generate_single_style(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path), "--count", "2",
                     "--style", "single-col-numbered"]) == 0
        names = [p.name for p in sorted(tmp_path.glob("*.xml"))]
        assert all(n.startswith("single-col-numbered") for n in names)

    def test_extract_to_directory(self, corpus_dir, tmp_path):
        xmls = sorted(str(p) for p in corpus_dir.glob("*.xml"))
        out = tmp_path / "tei"
        assert main(["extract", *xmls, "--out", str(out)]) == 0
        written = sorted(out.glob("*.tei.xml"))
        assert len(written) == 4
        for path in written:
            ET.fromstring(path.read_text("utf-8"))

    def test_extract_to_stdout(self, corpus_dir, capsys):
        xml = str(sorted(corpus_dir.glob("*.xml"))[0])
        assert main(["extract", xml]) == 0
        out = capsys.readouterr().out
        assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')

    def test_eval_writes_report(self, corpus_dir, tmp_path):
        report = tmp_path / "report.txt"
        assert main(["eval", "--corpus", str(corpus_dir),
                     "--out", str(report)]) == 0
        text = report.read_text("utf-8")
        assert "title.f=" in text
        assert "cite_ref.f=" in text

    def test_train_writes_models(self, corpus_dir, tmp_path):
        cfg = tmp_path / "fast.conf"
        cfg.write_text("max_iterations=3\n", "utf-8")
        out = tmp_path / "models"
        assert main(["train", "--corpus", str(corpus_dir), "--out", str(out),
                     "--task", "title", "--config", str(cfg)]) == 0
        assert (out / "title.crf").read_bytes().startswith(b"OCRPP-CRF 1\n")

    def test_train_rejects_untrainable_config_before_reading(self, tmp_path,
                                                             capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("l2_lambda=nan\n", "utf-8")
        assert main(["train", "--corpus", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "models"),
                     "--config", str(cfg)]) == 1
        assert "l2_lambda" in capsys.readouterr().err

    def test_usecase_dataset_links(self, corpus_dir, capsys):
        xmls = sorted(str(p) for p in corpus_dir.glob("*.xml"))
        assert main(["usecase", "--name", "dataset-links", *xmls]) == 0
        for line in capsys.readouterr().out.splitlines():
            url, source = line.split("\t")
            assert url.startswith("http")

    def test_usecase_histogram(self, corpus_dir, capsys):
        xmls = sorted(str(p) for p in corpus_dir.glob("*.xml"))
        assert main(["usecase", "--name", "citation-histogram", *xmls]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(int(l.split("\t")[1]) >= 0 for l in lines)

    def test_missing_input_returns_one(self, tmp_path):
        assert main(["extract", str(tmp_path / "absent.xml")]) == 1

    def test_malformed_input_returns_one(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<DOCUMENT><PAGE>")
        assert main(["extract", str(bad)]) == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_extract_failure_loses_no_other_input(self, corpus_dir, tmp_path,
                                                  capsys, jobs):
        good = sorted(str(p) for p in corpus_dir.glob("*.xml"))[:2]
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<DOCUMENT><PAGE>")
        missing = tmp_path / "absent.xml"
        out = tmp_path / "tei"
        assert main(["extract", good[0], str(bad), good[1], str(missing),
                     "--out", str(out), "--jobs", jobs]) == 1
        written = sorted(p.name for p in out.glob("*.tei.xml"))
        assert written == sorted(Path(g).stem + ".tei.xml" for g in good)
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in err] == [str(bad), str(missing)]
        assert all(line.startswith("error: ") for line in err)

    @pytest.mark.parametrize("name", ["dataset-links", "citation-histogram"])
    def test_usecase_failure_loses_no_other_input(self, corpus_dir, tmp_path,
                                                  capsys, name):
        good = sorted(str(p) for p in corpus_dir.glob("*.xml"))[:2]
        assert main(["usecase", "--name", name, *good]) == 0
        expected = capsys.readouterr().out
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<DOCUMENT><PAGE>")
        assert main(["usecase", "--name", name, good[0], str(bad),
                     good[1]]) == 1
        captured = capsys.readouterr()
        assert captured.out == expected
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")

    def test_extract_jobs_write_the_same_tei(self, corpus_dir, tmp_path):
        inputs = sorted(str(p) for p in corpus_dir.glob("*.xml"))
        written = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["extract", *inputs, "--out", str(out),
                         "--jobs", jobs]) == 0
            written[jobs] = {p.name: p.read_bytes()
                             for p in out.glob("*.tei.xml")}
        assert len(written["1"]) == len(inputs)
        assert written["2"] == written["1"]

    def test_extract_jobs_send_models_once_per_worker(self, corpus_dir,
                                                      tmp_path, monkeypatch):
        pickled = []

        def counting_reduce(self, protocol):
            pickled.append(protocol)
            return object.__reduce_ex__(self, protocol)

        monkeypatch.setattr(PipelineModels, "__reduce_ex__", counting_reduce)
        inputs = sorted(str(p) for p in corpus_dir.glob("*.xml"))
        assert len(inputs) > 2
        assert main(["extract", *inputs, "--out", str(tmp_path),
                     "--jobs", "2"]) == 0
        assert len(pickled) <= 2

    def test_eval_failure_loses_no_other_pair(self, corpus_with_bad_pair,
                                              tmp_path, capsys):
        good, mixed = corpus_with_bad_pair
        assert main(["eval", "--corpus", str(good),
                     "--out", str(tmp_path / "good.txt")]) == 0
        capsys.readouterr()
        assert main(["eval", "--corpus", str(mixed),
                     "--out", str(tmp_path / "mixed.txt")]) == 1
        assert ((tmp_path / "mixed.txt").read_text("utf-8")
                == (tmp_path / "good.txt").read_text("utf-8"))
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {mixed / 'bad.xml'}: ")

    def test_train_failure_loses_no_other_pair(self, corpus_with_bad_pair,
                                               tmp_path, capsys):
        good, mixed = corpus_with_bad_pair
        cfg = tmp_path / "fast.conf"
        cfg.write_text("max_iterations=3\n", "utf-8")
        models = {}
        for corpus, status in ((good, 0), (mixed, 1)):
            out = tmp_path / f"models-{corpus.name}"
            assert main(["train", "--corpus", str(corpus), "--out", str(out),
                         "--config", str(cfg)]) == status
            models[corpus.name] = {p.name: p.read_bytes()
                                   for p in out.glob("*.crf")}
        assert len(models["good"]) == 4
        assert models["mixed"] == models["good"]
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {mixed / 'bad.xml'}: ")

    @pytest.mark.parametrize("command", ["extract", "usecase", "eval",
                                         "train"])
    def test_bad_chunk_config_is_one_error_before_any_input(
            self, corpus_with_bad_pair, tmp_path, capsys, command):
        _good, mixed = corpus_with_bad_pair
        cfg = tmp_path / "bad.conf"
        cfg.write_text("gap_factor=0.5\n", "utf-8")
        inputs = sorted(str(p) for p in mixed.glob("*.xml"))[1:]
        assert len(inputs) == 2
        out = tmp_path / "out"
        argv = {"extract": ["extract", *inputs, "--out", str(out)],
                "usecase": ["usecase", "--name", "citation-histogram",
                            *inputs],
                "eval": ["eval", "--corpus", str(mixed)],
                "train": ["train", "--corpus", str(mixed), "--out", str(out)],
                }[command]
        assert main([*argv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        assert captured.err.splitlines() == [
            "error: gap_factor must exceed 1.0"]

    def test_eval_scores_the_dehyphenated_title_extract_writes(
            self, corpus_dir, tmp_path, capsys):
        xml = sorted(corpus_dir.glob("*.xml"))[0]
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / xml.name).write_bytes(_hyphenate_title(xml.read_bytes()))
        gt = xml.with_name(xml.stem + ".gt.txt")
        (corpus / gt.name).write_bytes(gt.read_bytes())
        title = ground_truth_from_text(gt.read_text("utf-8")).title
        cfg = tmp_path / "dehyphenate.conf"
        cfg.write_text("dehyphenate=yes\n", "utf-8")
        assert main(["extract", str(corpus / xml.name),
                     "--config", str(cfg)]) == 0
        assert f"<title>{title}</title>" in capsys.readouterr().out
        assert main(["eval", "--corpus", str(corpus),
                     "--config", str(cfg)]) == 0
        assert "title.f=1.000000" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_extract_jobs_below_one_is_a_usage_error(self, corpus_dir,
                                                     tmp_path, capsys, jobs):
        xml = str(sorted(corpus_dir.glob("*.xml"))[0])
        with pytest.raises(SystemExit) as err:
            main(["extract", xml, "--out", str(tmp_path / "tei"),
                  "--jobs", jobs])
        assert err.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "tei").exists()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2
