"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import sys
import types
from xml.etree import ElementTree as ET

import pytest

import corpus
import layers
import reference
import run
import stats
import workloads
from spans import Span, Target, Tracer, covered_length, install, self_times


# --- self time -------------------------------------------------------------

def test_covered_length_merges_overlaps():
    assert covered_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4
    assert covered_length([]) == 0


def test_self_times_on_nested_spans():
    spans = [
        Span("bench.pass", 0.0, 10.0),
        Span("pipeline.extract_document", 1.0, 7.0, parent=0),
        Span("metadata.extract_title", 2.0, 4.0, parent=1),
        Span("crf.viterbi_decode", 2.5, 3.5, parent=2),
        Span("structure.label_headings", 5.0, 6.0, parent=1),
        Span("tei.export_tei", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 1.0, 1.0, 1.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_clips_children_to_the_parent():
    spans = [Span("a.x", 0.0, 4.0), Span("b.y", 3.0, 6.0, parent=0),
             Span("b.z", 3.5, 5.0, parent=0)]
    assert self_times(spans)[0] == 3.0


# --- tail percentile --------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_from_sample_count(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 57, 200, 311, 1000, 4321])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    p = stats.tail_percentile(n)
    values = list(range(n))
    beyond = [v for v in values if v > stats.percentile(values, p)]
    assert len(beyond) >= 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert stats.percentile(values, 50) == 3
    assert stats.percentile(values, 100) == 5
    assert stats.percentile(list(range(1, 201)), 95) == 190


# --- scaling by the reference kernel ---------------------------------------

def test_reference_kernel_runs_on_fixed_input():
    assert reference._XML == reference._page_xml()
    assert reference._HEAP == reference._heap(len(reference._HEAP))
    calls = len(reference._HEAP) // reference.WALK
    first = [reference.kernel() for _ in range(calls)]
    assert [reference.kernel() for _ in range(calls)] == first


def _reference(starts, ms):
    ref = reference.Reference()
    ref.starts = list(starts)
    ref.samples = [k * reference.REFERENCE_MS / 1e3 for k in ms]
    return ref


def test_slowness_is_median_kernel_time_over_nominal():
    assert reference.Reference().slowness() == 1.0
    assert _reference([0.0, 1.0, 2.0], [1.0, 3.0, 2.0]).slowness() == (
        pytest.approx(2.0))


def test_slowness_of_an_interval_uses_the_calls_around_it():
    # Ten calls a second: the machine is twice as slow from t = 10 s on.
    starts = [i / 10 for i in range(200)]
    ref = _reference(starts, [1.0 if t < 10 else 2.0 for t in starts])
    assert ref.slowness(3.0, 4.0) == pytest.approx(1.0)
    assert ref.slowness(15.0, 15.2) == pytest.approx(2.0)
    assert ref.slowness() == pytest.approx(1.5)  # the whole run: a mix


def test_slowness_falls_back_to_the_nearest_calls():
    ref = _reference([0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
                     [1.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0])
    assert ref.slowness(55.0, 55.1) == pytest.approx(4.0)  # 20 s .. 60 s
    assert ref.slowness(0.0, 0.1) == pytest.approx(1.0)  # 0 s .. 40 s


def test_timings_scale_each_interval_by_its_own_slowness():
    passes = [workloads.PassResult(traced=False, start=0.0, wall=2.0,
                                   latencies=[0.2, 0.2], starts=[0.0, 20.0])]
    run_ = types.SimpleNamespace(passes=passes)
    slowness = lambda start, end: 1.0 if start < 10 else 2.0  # noqa: E731
    raw = run.timings("extract-batch", run_, 0.9, [0.6], 200)
    out = run.timings("extract-batch", run_, 0.9, [0.3], 200, slowness)
    assert raw["doc_ms_p50"] == pytest.approx(200.0)
    assert out["doc_ms_p50"] == pytest.approx(150.0)  # median of 200, 100
    assert out["docs_per_s"] == pytest.approx(2 / 0.3)
    assert out["train_s"] == raw["train_s"] == 2.0  # the pass starts at 0
    assert (out["setup_s"], out["micro_f"]) == (0.3, 0.9)


# --- installing spans -------------------------------------------------------

@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "TABLE = {'k': (inner, 'label')}\n", vars(mod))
    pkg.outer = mod.outer
    sys.modules["fakepkg"] = pkg
    sys.modules["fakepkg.mod"] = mod
    yield pkg, mod
    del sys.modules["fakepkg"], sys.modules["fakepkg.mod"]


def test_install_wraps_where_callers_look_up(fake_package):
    pkg, mod = fake_package
    original_inner, original_outer = mod.inner, mod.outer
    tracer = Tracer()
    uninstall = install(tracer, "fakepkg", [
        Target("mod", "outer"),
        Target("mod", "inner", lambda a, k, r: {"arg": a[0]}),
    ])
    assert pkg.outer(1) == 4
    assert mod.TABLE["k"][0](5) == 6
    assert [s.name for s in tracer.spans] == ["mod.outer", "mod.inner",
                                              "mod.inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, -1]
    assert tracer.spans[1].attrs == {"arg": 1}
    uninstall()
    assert mod.inner is original_inner and pkg.outer is original_outer
    assert mod.TABLE["k"][0] is original_inner


def test_missing_function_is_recorded_absent_and_the_rest_runs(fake_package):
    pkg, mod = fake_package
    tracer = Tracer()
    uninstall = install(tracer, "fakepkg", [Target("mod", "unpack_weights"),
                                            Target("gone", "anything"),
                                            Target("mod", "inner")])
    assert tracer.absent == ["mod.unpack_weights", "gone.anything"]
    assert pkg.outer(1) == 4
    assert [s.name for s in tracer.spans] == ["mod.inner"]
    uninstall()


def test_exception_is_recorded_and_reraised(fake_package):
    pkg, mod = fake_package
    tracer = Tracer()
    uninstall = install(tracer, "fakepkg", [Target("mod", "inner")])
    with pytest.raises(TypeError):
        mod.outer("x")
    assert tracer.spans[0].error == "TypeError"
    assert tracer._open == []
    uninstall()


def test_absent_function_gives_zero_metrics_named_absent():
    assert layers.absent_metrics(["crf.unpack_weights"]) == ["crf.unpack_ms"]
    metrics = layers.pass_metrics([Span("bench.pass", 0.0, 1.0)])
    assert metrics["crf.unpack_ms"] == 0.0
    assert metrics["trace.wall_ms"] == 1000.0
    assert set(metrics) | {"trace.overhead", "error_rate"} \
        == set(layers.metric_units())


def test_training_metrics_grouped_by_task():
    spans = [
        Span("bench.pass", 0.0, 10.0),
        Span("training.train_all", 0.0, 9.0, parent=0),
        Span("training.train_task", 0.0, 4.0, parent=1,
             attrs={"task": "title"}),
        Span("training.build_title_sequences", 0.0, 1.0, parent=2,
             attrs={"positions": 7}),
        Span("crf.train", 1.0, 4.0, parent=2),
        Span("crf.log_likelihood_and_gradient", 1.0, 2.0, parent=4),
        Span("crf.log_likelihood", 2.0, 3.0, parent=4),
        Span("crf.log_likelihood", 3.0, 3.5, parent=4),
        Span("training.train_task", 4.0, 9.0, parent=1,
             attrs={"task": "author"}),
    ]
    m = layers.pass_metrics(spans)
    assert m["training.title.train_s"] == 4.0
    assert m["training.title.build_s"] == 1.0
    assert m["training.title.positions"] == 7
    assert m["training.title.iterations"] == 1
    assert m["training.author.iterations"] == 0
    assert m["crf.linesearch_accept_ratio"] == 0.5
    assert m["crf.objective_ms"] == 1500.0


def test_split_passes_reindexes_parents():
    spans = [Span("bench.pass", 0, 2), Span("a.x", 0, 1, parent=0),
             Span("bench.pass", 3, 5), Span("a.x", 3, 4, parent=2),
             Span("b.y", 3, 3.5, parent=3)]
    first, second = layers.split_passes(spans)
    assert [s.parent for s in second] == [-1, 0, 1]
    assert len(first) == 2


# --- inputs -----------------------------------------------------------------

def _lines(xml: bytes) -> list[str]:
    root = ET.fromstring(xml)
    return [corpus._line_text(t) for page in root for t in page]


def test_long_document_has_one_reference_section():
    parts = [corpus.generate_synthetic_document("two-col-indexed", seed)
             for seed in (11, 12, 13)]
    long_doc = corpus.compose_long(parts, "long")
    lines = _lines(long_doc.xml)
    truths = [t for _x, t in parts]
    ref_headings = [t.section_headings[-1] for t in truths]
    assert sum(line in ref_headings for line in lines) == 1
    assert ref_headings[-1] in lines
    assert truths[0].title.split()[0] in lines[0]
    assert lines.count("Abstract") == 1
    root = ET.fromstring(long_doc.xml)
    assert [p.get("number") for p in root] == [
        str(i) for i in range(1, len(root) + 1)]
    assert long_doc.truth.references == truths[-1].references
    assert long_doc.truth.section_headings == (
        ["Abstract"] + [h for t in truths for h in t.section_headings[1:-1]]
        + [ref_headings[-1]])
    for heading in long_doc.truth.section_headings:
        assert heading in lines


def test_long_document_extracts_one_reference_list():
    import scholarparse as sp
    parts = [corpus.generate_synthetic_document("single-col-numbered", seed)
             for seed in (21, 22)]
    long_doc = corpus.compose_long(parts, "long")
    document, report = sp.parse_rich_xml(long_doc.xml)
    assert report.warnings == []
    result = sp.extract_document(document, sp.load_default_models())
    ref_heading = parts[-1][1].section_headings[-1]
    assert [s.heading.text for s in result.sections
            if s.heading is not None].count(ref_heading) == 1
    assert len(result.references) == len(parts[-1][1].references)


def test_long_documents_reach_the_target_size():
    docs = corpus.long_documents(3, 4, 3000)
    assert len(docs) == 4
    assert all(corpus.token_count(d.xml) >= 3000 for d in docs)


@pytest.mark.parametrize("name", sorted(corpus.DEFECTS))
def test_each_defect_changes_one_attribute(name):
    xml, _truth = corpus.generate_synthetic_document("two-col-indexed", 5)
    damaged = corpus.DEFECTS[name](xml)
    ET.fromstring(damaged)  # still well-formed
    diff = [i for i, (a, b) in enumerate(zip(xml, damaged)) if a != b]
    assert diff and damaged.count(b"<TOKEN ") == xml.count(b"<TOKEN ")


def test_interleave_spreads_damaged_documents():
    clean = [corpus.InputDoc(str(i), b"", None) for i in range(9)]
    bad = [corpus.InputDoc(f"d{k}", b"", None) for k in range(2)]
    out = [d.doc_id for d in corpus.interleave(clean, bad)]
    assert out == ["0", "1", "2", "d0", "3", "4", "5", "d1", "6", "7", "8"]


def test_inputs_depend_on_the_seed_only():
    a = corpus.articles(7, 0, 1)
    b = corpus.articles(7, 0, 1)
    c = corpus.articles(8, 0, 1)
    assert [d.xml for d in a] == [d.xml for d in b]
    assert [d.xml for d in a] != [d.xml for d in c]
