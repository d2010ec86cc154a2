"""Unit tests for configuration parsing and the command-line interface."""

import copy
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

from scholarparse import cli
from scholarparse.chunker import ChunkParams
from scholarparse.cli import main
from scholarparse.config import PipelineConfig, load_config, parse_config
from scholarparse.crf import TrainConfig
from scholarparse.evaluate import ground_truth_from_text
from scholarparse.pipeline import TASKS, PipelineModels
from scholarparse.usecases import SectionMap


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

    @pytest.mark.parametrize("line", ["gap_factor = 0.5", "font_jump = 1.5",
                                      "gap_factor = nan", "gap_factor = inf"])
    def test_unchunkable_values_rejected(self, line):
        with pytest.raises(ValueError):
            parse_config(line)

    @pytest.mark.parametrize("key", ["max_iterations", "l2_lambda"])
    def test_unreadable_value_names_its_line_and_key(self, key):
        with pytest.raises(ValueError) as err:
            parse_config(f"# comment\n{key} = abc\n")
        assert str(err.value) == f"line 2: bad value for {key}: 'abc'"

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError) as err:
            parse_config("gap_factor=2\n# comment\ngap_factor=3\n")
        assert str(err.value) == ("line 3: key 'gap_factor' already set on "
                                  "line 1")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.conf")

    def test_derived_params(self):
        cfg = parse_config("gap_factor=1.8\nl2_lambda=0.5\ndehyphenate=yes\n")
        assert cfg.chunk == ChunkParams(gap_factor=1.8)
        assert cfg.train == TrainConfig(l2_lambda=0.5)
        assert cfg.dehyphenate is True


def _extract_loads_multiprocessing(corpus_dir, out, *flags) -> bool:
    """Whether ``extract`` of the corpus's first document to ``out`` with
    ``flags`` loads ``multiprocessing``, run in a fresh interpreter (this
    one may have run a pool already)."""
    xml = sorted(corpus_dir.glob("*.xml"))[0]
    script = ("import sys, scholarparse.cli\n"
              "assert scholarparse.cli.main(sys.argv[1:]) == 0\n"
              "print('multiprocessing' in sys.modules)\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, "extract", str(xml),
         "--out", str(out), *flags],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / (xml.stem + ".tei.xml")).exists()
    loaded = proc.stdout.split()
    assert loaded in (["True"], ["False"])
    return loaded == ["True"]


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

    @pytest.mark.parametrize("to_directory", (False, True))
    def test_extract_rejects_a_model_of_another_task(self, corpus_dir,
                                                     tmp_path, capsys,
                                                     to_directory):
        bundled = resources.files("scholarparse.data").joinpath("models")
        models = tmp_path / "models"
        models.mkdir()
        for task in TASKS:
            source = "title" if task == "author" else task
            (models / f"{task}.crf").write_bytes(
                bundled.joinpath(f"{source}.crf").read_bytes())
        xml = str(sorted(corpus_dir.glob("*.xml"))[0])
        out = tmp_path / "tei"
        where = ["--out", str(out)] if to_directory else []
        assert main(["extract", xml, "--models", str(models), *where]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: author.crf: task is 'title', expected 'author'"]
        assert captured.out == ""
        assert not out.exists()

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

    @pytest.mark.parametrize("target", ("file", "stdout"))
    def test_train_stats_logs_every_task_and_keeps_the_models(
            self, corpus_dir, tmp_path, capsys, target):
        cfg = tmp_path / "fast.conf"
        cfg.write_text("max_iterations=3\n", "utf-8")
        command = ["train", "--corpus", str(corpus_dir), "--config", str(cfg)]
        assert main(command + ["--out", str(tmp_path / "quiet")]) == 0
        stats = tmp_path / "stats.jsonl"
        capsys.readouterr()
        assert main(command + [
            "--out", str(tmp_path / "logged"),
            "--stats", str(stats) if target == "file" else "-"]) == 0
        out = capsys.readouterr().out
        text = stats.read_text("utf-8") if target == "file" else out
        assert out == ("" if target == "file" else text)
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["task"] for r in records] == \
            [task for task in TASKS for _ in range(4)]
        for task in TASKS:
            *iterations, stop = [r for r in records if r["task"] == task]
            assert [r["iteration"] for r in iterations] == [0, 1, 2]
            for r in iterations:
                assert set(r) == {"task", "iteration", "log_likelihood",
                                  "gradient_norm", "step", "trials"}
            assert stop == {"task": task, "stop": "max_iterations"}
            name = f"{task}.crf"
            assert (tmp_path / "logged" / name).read_bytes() == \
                (tmp_path / "quiet" / name).read_bytes()

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_extract_writes_an_output_before_reading_a_later_input(
            self, corpus_dir, tmp_path, monkeypatch, jobs):
        first, second = sorted(corpus_dir.glob("*.xml"))[:2]
        out = tmp_path / "tei"
        first_tei = out / (first.stem + ".tei.xml")
        extract_tei = cli._extract_tei

        def after_the_first_output(path, *setup):
            if path == second:
                deadline = time.monotonic() + 10
                while not first_tei.exists():
                    if time.monotonic() > deadline:
                        raise RuntimeError("the first output is not written")
                    time.sleep(0.01)
            return extract_tei(path, *setup)

        monkeypatch.setattr(cli, "_extract_tei", after_the_first_output)
        assert main(["extract", str(first), str(second), "--out", str(out),
                     "--jobs", jobs]) == 0
        assert (out / (second.stem + ".tei.xml")).exists()

    def test_one_process_extract_loads_no_process_pool(self, corpus_dir,
                                                       tmp_path):
        assert not _extract_loads_multiprocessing(corpus_dir, tmp_path)

    def test_one_input_runs_in_process_whatever_the_jobs(self, corpus_dir,
                                                           tmp_path):
        assert not _extract_loads_multiprocessing(corpus_dir, tmp_path,
                                                  "--jobs", "4")

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

    def test_train_without_a_readable_pair_writes_nothing(
            self, corpus_with_bad_pair, tmp_path, capsys):
        _good, mixed = corpus_with_bad_pair
        corpus = tmp_path / "unreadable"
        corpus.mkdir()
        for name in ("bad.xml", "bad.gt.txt"):
            (corpus / name).write_bytes((mixed / name).read_bytes())
        out = tmp_path / "models"
        assert main(["train", "--corpus", str(corpus),
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith(f"error: {corpus / 'bad.xml'}: ")
        assert err[1] == "error: no training pair could be read"

    def test_eval_without_a_readable_pair_writes_no_report(
            self, corpus_with_bad_pair, tmp_path, capsys):
        _good, mixed = corpus_with_bad_pair
        corpus = tmp_path / "unreadable"
        corpus.mkdir()
        for name in ("bad.xml", "bad.gt.txt"):
            (corpus / name).write_bytes((mixed / name).read_bytes())
        report = tmp_path / "report.txt"
        for out in (["--out", str(report)], []):
            assert main(["eval", "--corpus", str(corpus), *out]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.splitlines()
            assert len(err) == 2
            assert err[0].startswith(f"error: {corpus / 'bad.xml'}: ")
            assert err[1] == "error: no evaluation pair could be read"
        assert not report.exists()

    @pytest.mark.parametrize("name", ["dataset-links", "citation-histogram"])
    def test_usecase_without_a_readable_input_prints_nothing(
            self, tmp_path, capsys, name):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<DOCUMENT><PAGE>")
        assert main(["usecase", "--name", name, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 2
        assert err[0].startswith(f"error: {bad}: ")
        assert err[1] == "error: no input could be read"

    @pytest.mark.parametrize("name", ["dataset-links", "citation-histogram"])
    def test_usecase_reads_the_section_map_once(self, corpus_dir, monkeypatch,
                                                capsys, name):
        loads = []
        load_default = SectionMap.load_default.__func__

        def counted(cls):
            loads.append(cls)
            return load_default(cls)

        monkeypatch.setattr(SectionMap, "load_default", classmethod(counted))
        xmls = sorted(str(p) for p in corpus_dir.glob("*.xml"))
        assert len(xmls) == 4
        assert main(["usecase", "--name", name, *xmls]) == 0
        assert capsys.readouterr().out
        assert len(loads) == 1

    def test_extract_out_rejects_inputs_sharing_a_stem(self, corpus_dir,
                                                       tmp_path, capsys):
        xml = sorted(corpus_dir.glob("*.xml"))[0]
        first, second = tmp_path / "a" / "paper.xml", tmp_path / "b" / "paper.xml"
        first.parent.mkdir()
        first.write_bytes(xml.read_bytes())
        out = tmp_path / "tei"
        # ``second`` does not exist: reading it would be an error exiting 1.
        with pytest.raises(SystemExit) as err:
            main(["extract", str(first), str(second), "--out", str(out)])
        assert err.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert str(first) in message and str(second) in message
        assert str(out / "paper.tei.xml") in message
        assert not out.exists()

    def test_extract_to_stdout_takes_inputs_sharing_a_stem(self, corpus_dir,
                                                           tmp_path, capsys):
        xml = sorted(corpus_dir.glob("*.xml"))[0]
        paths = [tmp_path / d / "paper.xml" for d in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            path.write_bytes(xml.read_bytes())
        assert main(["extract", *map(str, paths)]) == 0
        out = capsys.readouterr().out
        assert out.count('<?xml version="1.0" encoding="UTF-8"?>') == 2

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
            "error: gap_factor must be finite and exceed 1.0"]

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

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_generate_count_below_one_is_a_usage_error(self, tmp_path, capsys,
                                                       count):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--out", str(tmp_path / "corpus"),
                  "--count", count])
        assert err.value.code == 2
        assert (f"argument --count: must be at least 1, got {count}"
                in capsys.readouterr().err)
        assert not (tmp_path / "corpus").exists()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2
