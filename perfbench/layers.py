"""Which program functions the traced run wraps, and the per-layer metrics
computed from their spans.

A layer is a ``scholarparse`` module.  Every time metric is a self time:
span duration minus the time covered by traced calls inside it, so the
self times of all layers plus the benchmark's own loop (``bench``) add up
to the traced wall time, ``trace.wall_ms``.  Values are per pass over the
workload's inputs, averaged over the traced passes of a run.
"""

from __future__ import annotations

import statistics

from spans import Span, Target, ancestors_named, self_times

TASKS = ("title", "author", "heading", "footnote")


def _ingest(args, kwargs, result):
    _document, report = result
    return {"tokens": report.token_count, "warnings": len(report.warnings)}


def _positions(args, kwargs, result):
    features = args[1] if len(args) > 1 else kwargs["sequence_features"]
    return {"positions": len(features)}


def _links(args, kwargs, result):
    return {"links": len(result),
            "resolved": sum(1 for link in result if link.reference is not None)}


def _sequences(args, kwargs, result):
    return {"positions": sum(len(seq.items) for seq in result)}


def _task(args, kwargs, result):
    return {"task": args[0] if args else kwargs["task"]}


TARGETS = [
    Target("ingest", "parse_rich_xml", _ingest),
    Target("chunker", "chunk_document", lambda a, k, r: {"chunks": len(r)}),
    Target("features", "body_font_size"),
    Target("features", "token_features"),
    Target("features", "heading_chunk_features"),
    Target("features", "footnote_chunk_features"),
    Target("metadata", "extract_title"),
    Target("metadata", "title_fallback"),
    Target("metadata", "extract_author_names"),
    Target("metadata", "extract_emails"),
    Target("metadata", "map_authors_to_emails"),
    Target("metadata", "extract_affiliations"),
    Target("structure", "label_headings"),
    Target("structure", "map_sections"),
    Target("structure", "extract_footnotes"),
    Target("structure", "extract_caption_headings"),
    Target("structure", "extract_urls"),
    Target("bibliography", "locate_reference_section"),
    Target("bibliography", "split_references"),
    Target("bibliography", "extract_citations"),
    Target("bibliography", "map_citations_to_references", _links),
    Target("crf", "viterbi_decode", _positions),
    Target("crf", "forward_backward"),
    Target("crf", "log_likelihood"),
    Target("crf", "log_likelihood_and_gradient"),
    Target("crf", "unpack_weights"),
    Target("crf", "train"),
    Target("training", "train_all"),
    Target("training", "train_task", _task),
    *(Target("training", f"build_{task}_sequences", _sequences)
      for task in TASKS),
    Target("tei", "export_tei", lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
    Target("pipeline", "extract_document"),
    Target("pipeline", "chunk_to_lines"),
    Target("usecases", "curate_dataset_links"),
    Target("usecases", "section_citation_distribution"),
]

# metric name -> traced function whose summed self time it reports
SELF_MS = {
    "ingest.parse_ms": "ingest.parse_rich_xml",
    "chunker.chunk_ms": "chunker.chunk_document",
    "features.body_font_ms": "features.body_font_size",
    "metadata.title_ms": "metadata.extract_title",
    "metadata.authors_ms": "metadata.extract_author_names",
    "metadata.emails_ms": "metadata.extract_emails",
    "metadata.affiliations_ms": "metadata.extract_affiliations",
    "structure.headings_ms": "structure.label_headings",
    "structure.sections_ms": "structure.map_sections",
    "structure.footnotes_ms": "structure.extract_footnotes",
    "structure.captions_ms": "structure.extract_caption_headings",
    "structure.urls_ms": "structure.extract_urls",
    "bibliography.locate_ms": "bibliography.locate_reference_section",
    "bibliography.split_ms": "bibliography.split_references",
    "bibliography.citations_ms": "bibliography.extract_citations",
    "bibliography.link_ms": "bibliography.map_citations_to_references",
    "crf.viterbi_ms": "crf.viterbi_decode",
    "crf.fb_ms": "crf.forward_backward",
    "crf.objective_ms": "crf.log_likelihood",
    "crf.gradient_ms": "crf.log_likelihood_and_gradient",
    "crf.unpack_ms": "crf.unpack_weights",
    "tei.export_ms": "tei.export_tei",
}

# metric name -> traced function whose calls it counts
CALLS = {
    "chunker.calls": "chunker.chunk_document",
    "features.body_font_calls": "features.body_font_size",
    "metadata.title_fallbacks": "metadata.title_fallback",
    "crf.viterbi_calls": "crf.viterbi_decode",
    "crf.fb_calls": "crf.forward_backward",
    "crf.objective_calls": "crf.log_likelihood",
    "crf.gradient_calls": "crf.log_likelihood_and_gradient",
}

# metric name -> (traced function, attribute it sums)
SUMS = {
    "ingest.tokens": ("ingest.parse_rich_xml", "tokens"),
    "ingest.warnings": ("ingest.parse_rich_xml", "warnings"),
    "chunker.chunks": ("chunker.chunk_document", "chunks"),
    "crf.viterbi_positions": ("crf.viterbi_decode", "positions"),
    "tei.bytes": ("tei.export_tei", "bytes"),
}

LAYERS = ("ingest", "chunker", "features", "metadata", "structure",
          "bibliography", "crf", "training", "tei", "pipeline", "usecases",
          "bench")

# Total self time per layer; the usecases layer reports it as usecases.ms.
LAYER_METRIC = {layer: f"{layer}.self_ms" for layer in LAYERS}
LAYER_METRIC["usecases"] = "usecases.ms"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "ms" for name in SELF_MS}
    units.update({name: "ms" for name in LAYER_METRIC.values()})
    units.update({name: "count" for name in CALLS})
    units.update({name: "count" for name in SUMS})
    units.update({
        "ingest.failures": "count",
        "bibliography.no_ref_section": "count",
        "bibliography.resolved_ratio": "fraction",
        "crf.linesearch_accept_ratio": "fraction",
        "features.body_font_calls_per_doc": "count/doc",
        "chunker.calls_per_train_doc": "count/doc",
        "trace.wall_ms": "ms",
        "trace.overhead": "fraction",
        "error_rate": "fraction",
    })
    for task in TASKS:
        units[f"training.{task}.train_s"] = "s"
        units[f"training.{task}.build_s"] = "s"
        units[f"training.{task}.iterations"] = "count"
        units[f"training.{task}.positions"] = "count"
    return units


def absent_metrics(absent: list[str]) -> list[str]:
    """Metrics that rest on a traced function the program no longer has."""
    out = [m for m, fn in SELF_MS.items() if fn in absent]
    out += [m for m, fn in CALLS.items() if fn in absent]
    out += [m for m, (fn, _attr) in SUMS.items() if fn in absent]
    return out


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, given the spans of that pass."""
    selfs = self_times(spans)
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_ms = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        self_ms[span.name] = self_ms.get(span.name, 0.0) + own * 1e3
        calls[span.name] = calls.get(span.name, 0) + 1
        layer_ms[span.layer] = layer_ms.get(span.layer, 0.0) + own * 1e3

    def attr_sum(name, attr):
        return sum(s.attrs.get(attr, 0) for s in spans if s.name == name)

    out = {m: self_ms.get(fn, 0.0) for m, fn in SELF_MS.items()}
    out["trace.wall_ms"] = sum(s.duration for s in spans if s.parent < 0) * 1e3
    out.update({m: calls.get(fn, 0) for m, fn in CALLS.items()})
    out.update({m: attr_sum(fn, attr) for m, (fn, attr) in SUMS.items()})
    out.update({LAYER_METRIC[layer]: ms for layer, ms in layer_ms.items()
                if layer in LAYER_METRIC})
    out["ingest.failures"] = sum(1 for s in spans
                                 if s.name == "ingest.parse_rich_xml" and s.error)
    out["bibliography.no_ref_section"] = sum(
        1 for s in spans if s.name == "bibliography.locate_reference_section"
        and s.error == "NoReferenceSectionError")
    links = attr_sum("bibliography.map_citations_to_references", "links")
    resolved = attr_sum("bibliography.map_citations_to_references", "resolved")
    out["bibliography.resolved_ratio"] = resolved / links if links else 0.0
    objective = out["crf.objective_calls"]
    out["crf.linesearch_accept_ratio"] = (out["crf.gradient_calls"] / objective
                                          if objective else 0.0)

    in_extract = ancestors_named(spans, "pipeline.extract_document")
    extracted = calls.get("pipeline.extract_document", 0)
    font_in_extract = sum(1 for i, s in enumerate(spans)
                          if s.name == "features.body_font_size"
                          and in_extract[i] >= 0)
    out["features.body_font_calls_per_doc"] = (font_in_extract / extracted
                                               if extracted else 0.0)
    in_train = ancestors_named(spans, "training.train_all")
    train_docs = sum(s.attrs.get("documents", 0) for s in spans
                     if s.name == "bench.train")
    chunk_in_train = sum(1 for i, s in enumerate(spans)
                         if s.name == "chunker.chunk_document"
                         and in_train[i] >= 0)
    out["chunker.calls_per_train_doc"] = (chunk_in_train / train_docs
                                          if train_docs else 0.0)

    task_of = ancestors_named(spans, "training.train_task")
    for task in TASKS:
        out[f"training.{task}.train_s"] = 0.0
        out[f"training.{task}.build_s"] = 0.0
        out[f"training.{task}.iterations"] = 0
        out[f"training.{task}.positions"] = 0
    for i, span in enumerate(spans):
        if task_of[i] < 0:
            continue
        task = spans[task_of[i]].attrs.get("task")
        if task not in TASKS:
            continue
        if span.name == "training.train_task":
            out[f"training.{task}.train_s"] += span.duration
        elif span.name == f"training.build_{task}_sequences":
            out[f"training.{task}.build_s"] += span.duration
            out[f"training.{task}.positions"] += span.attrs.get("positions", 0)
        elif span.name == "crf.log_likelihood_and_gradient":
            out[f"training.{task}.iterations"] += 1
    return out


def split_passes(spans: list[Span]) -> list[list[Span]]:
    """The spans of each ``bench.pass`` root, parents re-indexed per pass."""
    root_of = ancestors_named(spans, "bench.pass")
    groups: dict[int, list[int]] = {}
    for i, root in enumerate(root_of):
        if root >= 0:
            groups.setdefault(root, []).append(i)
    out = []
    for indices in groups.values():
        local = {g: k for k, g in enumerate(indices)}
        out.append([Span(spans[g].name, spans[g].start, spans[g].end,
                         local.get(spans[g].parent, -1), spans[g].doc,
                         spans[g].error, spans[g].attrs)
                    for g in indices])
    return out


def mean_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.fmean(p[name] for p in per_pass)
            for name in per_pass[0]}
