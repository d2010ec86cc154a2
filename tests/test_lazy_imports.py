"""The package namespace loads names on first use, and extraction loads
only the modules it runs."""

import ast
import dataclasses
import importlib
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
    "_gcpause", "bibliography", "chunker", "context", "crfmodel", "data",
    "features", "ingest", "metadata", "model", "pipeline", "structure", "tei",
]
SUBMODULES = [
    "bibliography", "chunker", "cli", "config", "context", "crf", "crfmodel",
    "evaluate", "features", "ingest", "metadata", "model", "pipeline",
    "structure", "styles", "synth", "tei", "training", "usecases",
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

# Set up, extract one article in process and once through the command line;
# prints which of the modules that dataclasses load are then loaded.
NO_DATACLASSES = """\
import sys
import scholarparse
import scholarparse.cli
models = scholarparse.load_default_models()
doc, _report = scholarparse.parse_rich_xml(open(sys.argv[1], "rb").read())
assert "<title" in scholarparse.export_tei(
    scholarparse.extract_document(doc, models))
assert scholarparse.cli.main(["extract", *sys.argv[1:]]) == 0
print(" ".join(m for m in ("dataclasses", "inspect") if m in sys.modules))
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
        for name in ("crf", "evaluate", "synth", "training", "usecases"):
            assert f"scholarparse.{name}" not in loaded

    def test_extraction_never_imports_dataclasses(self, article, tmp_path):
        # Its records are NamedTuples: building a dataclass execs its
        # generated methods, and importing dataclasses imports inspect,
        # which would be a large share of set-up.
        assert _run(NO_DATACLASSES, article, "--out", tmp_path).split() == []
        assert (tmp_path / "paper.tei.xml").exists()


def _numpy_imports(tree):
    """The import statements under ``tree`` that import numpy."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "numpy" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "numpy"]


class TestDecoderBoundary:
    """The decoder module stands alone; ``crf`` binds the names it uses
    from it and ``TrainConfig`` as the same objects."""

    def test_decoder_imports_neither_numpy_nor_crf(self):
        tree = ast.parse((SRC / "scholarparse" / "crfmodel.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert imported
        for name in imported:
            assert name.split(".")[0] != "numpy", name
            assert name.lstrip(".") not in ("crf", "scholarparse.crf"), name

    @pytest.mark.parametrize("module, name", [
        *(("crfmodel", name) for name in (
            "CrfError", "CrfModel", "viterbi_decode")),
        ("config", "TrainConfig")])
    def test_crf_binds_the_defining_module_object(self, module, name):
        from scholarparse import crf
        defining = importlib.import_module(f"scholarparse.{module}")
        assert getattr(crf, name) is getattr(defining, name)

    def test_only_crf_imports_numpy_once_at_module_level(self):
        trees = {path.name: ast.parse(path.read_text())
                 for path in sorted((SRC / "scholarparse").glob("*.py"))}
        assert [name for name, tree in trees.items()
                if _numpy_imports(tree)] == ["crf.py"]
        crf = trees["crf.py"]
        assert [node in crf.body for node in _numpy_imports(crf)] == [True]


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


def is_record(cls) -> bool:
    """A dataclass or a NamedTuple class."""
    return dataclasses.is_dataclass(cls) or (issubclass(cls, tuple)
                                             and hasattr(cls, "_fields"))


def test_no_public_class_has_a_generated_docstring():
    # Both kinds generate "Name(field, ...)" for a class without its own.
    classes = [getattr(scholarparse, name) for name in scholarparse.__all__
               if inspect.isclass(getattr(scholarparse, name))]
    assert sum(map(is_record, classes)) > 20
    for cls in classes:
        assert cls.__doc__, cls.__name__
        assert not cls.__doc__.startswith(cls.__name__ + "("), cls.__name__
