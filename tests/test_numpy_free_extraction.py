"""Extraction and evaluation run without numpy, and training still reaches
the CRF kernels under the names a tracer patches."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import scholarparse
from scholarparse import crf
from scholarparse.crf import TrainConfig
from scholarparse.evaluate import TrainingPair
from scholarparse.ingest import parse_rich_xml
from scholarparse.synth import generate_synthetic_document
from scholarparse.training import train_task, training_examples

SRC = Path(__file__).resolve().parents[1] / "src"

# Import, load the bundled models, then parse, extract and export one
# article through the API and one through the CLI; print whether numpy
# was ever imported.
EXTRACT_WITHOUT_NUMPY = """\
import sys
import scholarparse
import scholarparse.cli
xml_path, out_dir = sys.argv[1:]
models = scholarparse.load_default_models()
xml, _truth = scholarparse.generate_synthetic_document("two-col-indexed", 7)
doc, _report = scholarparse.parse_rich_xml(xml)
tei = scholarparse.export_tei(scholarparse.extract_document(doc, models))
assert "<title" in tei
open(xml_path, "wb").write(xml)
assert scholarparse.cli.main(["extract", xml_path, "--out", out_dir]) == 0
print("numpy" in sys.modules)
"""


def test_parse_extract_and_export_import_no_numpy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", EXTRACT_WITHOUT_NUMPY,
         str(tmp_path / "paper.xml"), str(tmp_path / "tei")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    assert (tmp_path / "tei" / "paper.tei.xml").exists()


# Generate a two-article corpus and score the bundled models on it through
# the CLI; print whether numpy, the trainer or the CRF trainer was ever
# imported.
EVAL_WITHOUT_NUMPY = """\
import sys
import scholarparse.cli
corpus, report = sys.argv[1:]
assert scholarparse.cli.main(["generate", "--out", corpus, "--count", "2"]) == 0
assert scholarparse.cli.main(["eval", "--corpus", corpus, "--out", report]) == 0
for name in ("numpy", "scholarparse.training", "scholarparse.crf"):
    print(name, name in sys.modules)
"""


def test_eval_imports_no_numpy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", EVAL_WITHOUT_NUMPY, str(tmp_path / "corpus"),
         str(tmp_path / "report.txt")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["numpy False",
                                        "scholarparse.training False",
                                        "scholarparse.crf False"]
    assert "title.f=" in (tmp_path / "report.txt").read_text()


def test_training_reaches_the_kernels_by_their_crf_names(monkeypatch):
    # Wrap each kernel wherever a scholarparse module holds it, as the
    # benchmark's tracer does; a kernel reached some other way (a module
    # loaded later, a private alias) would go uncounted.
    calls = Counter()
    modules = [module for name, module in list(sys.modules.items())
               if name == "scholarparse" or name.startswith("scholarparse.")]
    for name in ("train", "log_likelihood", "log_likelihood_and_gradient"):
        fn = getattr(crf, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    xml, truth = generate_synthetic_document("single-col-numbered", 5)
    examples = training_examples([TrainingPair(parse_rich_xml(xml)[0],
                                               truth)])
    train_task("title", examples, TrainConfig(max_iterations=3))
    assert calls["train"] == 1
    assert calls["log_likelihood_and_gradient"] >= 1
    assert calls["log_likelihood"] >= 1


def test_public_kernels_are_the_crf_functions():
    assert scholarparse.train is crf.train
    assert scholarparse.forward_backward is crf.forward_backward
    assert scholarparse.viterbi_decode is crf.viterbi_decode
    for fn in (crf.train, crf.forward_backward, crf.log_likelihood,
               crf.log_likelihood_and_gradient):
        assert fn.__module__ == "scholarparse.crf"
    assert crf.viterbi_decode.__module__ == "scholarparse.crfmodel"
