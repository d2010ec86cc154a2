"""Unit tests for configuration parsing and the command-line interface."""

from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

from scholarparse.chunker import ChunkParams
from scholarparse.cli import main
from scholarparse.config import PipelineConfig, load_config, parse_config
from scholarparse.crf import TrainConfig
from scholarparse.pipeline import PipelineModels


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.gap_factor == 1.5
        assert cfg.max_iterations == 200

    def test_defaults_are_those_of_chunking_and_training(self):
        cfg = PipelineConfig()
        assert cfg.chunk_params() == ChunkParams()
        assert cfg.train_config() == TrainConfig()

    def test_parse_values(self):
        cfg = parse_config("gap_factor = 2.0\nmax_iterations=10\n"
                           "boldness_break = no\n# comment\n\n"
                           "convergence_tol=1e-4\n")
        assert cfg.gap_factor == 2.0
        assert cfg.max_iterations == 10
        assert cfg.boldness_break is False
        assert cfg.convergence_tol == 1e-4

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
            parse_config(line).train_config()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.conf")

    def test_derived_params(self):
        cfg = PipelineConfig(gap_factor=1.8, l2_lambda=0.5)
        assert cfg.chunk_params().gap_factor == 1.8
        assert cfg.train_config().l2_lambda == 0.5


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["generate", "--out", str(out), "--count", "4",
                 "--seed", "300"]) == 0
    return out


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

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2
