"""The package namespace loads names on first use, and extraction loads
only the modules it runs."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scholarparse
from scholarparse.synth import generate_synthetic_document

SRC = Path(__file__).resolve().parents[1] / "src"

EXTRACTION_MODULES = [
    "_gcpause", "bibliography", "chunker", "context", "crf", "data",
    "features", "ingest", "metadata", "model", "pipeline", "structure", "tei",
]
SUBMODULES = [
    "bibliography", "chunker", "cli", "config", "context", "crf", "evaluate",
    "features", "ingest", "metadata", "model", "pipeline", "structure",
    "styles", "synth", "tei", "training", "usecases",
]

# Set up as the benchmark does (import, load the bundled models), look up
# the three calls of one document, then run them on one article.  Prints
# the package modules loaded by set-up and every module the document added.
ONE_DOCUMENT = """\
import json
import sys
import scholarparse
models = scholarparse.load_default_models()
parse = scholarparse.parse_rich_xml
extract = scholarparse.extract_document
export = scholarparse.export_tei
xml = open(sys.argv[1], "rb").read()
loaded = sorted(m for m in sys.modules if m.startswith("scholarparse."))
before = set(sys.modules)
doc, _report = parse(xml)
tei = export(extract(doc, models))
assert "<title" in tei
print(json.dumps({"loaded": loaded, "added": sorted(set(sys.modules) - before)}))
"""

CLI_EXTRACT = """\
import sys
import scholarparse.cli
assert scholarparse.cli.main(["extract", *sys.argv[1:]]) == 0
print(" ".join(sorted(m for m in sys.modules if m.startswith("scholarparse."))))
"""

BARE_IMPORT = """\
import sys
import scholarparse
for name in sys.argv[1:]:
    print(getattr(scholarparse, name).__name__)
"""


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def article(tmp_path_factory):
    path = tmp_path_factory.mktemp("article") / "paper.xml"
    xml, _truth = generate_synthetic_document("two-col-author-year", 11)
    path.write_bytes(xml)
    return path


@pytest.fixture(scope="module")
def one_document(article):
    return json.loads(_run(ONE_DOCUMENT, article))


class TestImportGraph:
    def test_set_up_loads_exactly_the_extraction_modules(self, one_document):
        assert one_document["loaded"] == [f"scholarparse.{name}"
                                          for name in EXTRACTION_MODULES]

    def test_a_document_imports_no_module(self, one_document):
        assert one_document["added"] == []

    def test_cli_extract_loads_no_other_command_module(self, article,
                                                       tmp_path):
        loaded = _run(CLI_EXTRACT, article, "--out", tmp_path).split()
        assert (tmp_path / "paper.tei.xml").exists()
        for name in ("evaluate", "synth", "training", "usecases"):
            assert f"scholarparse.{name}" not in loaded


class TestNamespace:
    def test_every_public_name_is_its_defining_module_object(self):
        # No name is listed under two modules.
        assert len(scholarparse.__all__) == sum(
            map(len, scholarparse._SOURCES.values()))
        for name in scholarparse.__all__:
            value = getattr(scholarparse, name)
            if name == "STYLES":
                assert value is scholarparse.synth.STYLES
                continue
            module = sys.modules[value.__module__]
            assert module.__name__.startswith("scholarparse.")
            assert getattr(module, name) is value, name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from scholarparse import *", namespace)
        assert set(scholarparse.__all__) <= set(namespace)
        for name in scholarparse.__all__:
            assert namespace[name] is getattr(scholarparse, name)

    def test_dir_lists_every_public_name_and_submodule(self):
        listed = set(dir(scholarparse))
        assert set(scholarparse.__all__) <= listed
        assert set(SUBMODULES) <= listed

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            scholarparse.no_such_name  # noqa: B018
        assert not hasattr(scholarparse, "viterbi")

    def test_submodules_resolve_after_a_bare_import(self):
        out = _run(BARE_IMPORT, *SUBMODULES).split()
        assert out == [f"scholarparse.{name}" for name in SUBMODULES]

    def test_a_looked_up_name_is_bound_where_a_tracer_patches(self):
        # The benchmark's tracer wraps a function in every loaded package
        # namespace that holds it, and puts each original back afterwards.
        # Once looked up, a public name must be one of those bindings, so
        # that no wrapper stays behind in the package.
        original = scholarparse.parse_rich_xml
        holders = [name for name, module in sys.modules.items()
                   if name.split(".")[0] == "scholarparse"
                   and vars(module).get("parse_rich_xml") is original]
        assert "scholarparse" in holders
        assert "scholarparse.ingest" in holders


def test_no_public_class_has_a_generated_docstring():
    classes = [getattr(scholarparse, name) for name in scholarparse.__all__
               if inspect.isclass(getattr(scholarparse, name))]
    assert sum(map(dataclasses.is_dataclass, classes)) > 20
    for cls in classes:
        assert cls.__doc__, cls.__name__
        assert not cls.__doc__.startswith(cls.__name__ + "("), cls.__name__
