"""Extraction of metadata, structure and bibliography from token-level
rich XML renderings of scholarly articles, with a small built-in
linear-chain CRF for the learned labeling subtasks.

The public names load on first use: ``import scholarparse`` imports no
submodule, and each name in ``__all__`` imports its defining module when it
is first looked up (PEP 562).  So extraction loads only the modules it runs
(``pipeline``, its stages, the decoder ``crfmodel``, ``tei`` and the
bundled models), and a document then imports nothing more; the generator,
training (``crf`` among it), evaluation and the corpus analyses load only
when one of their names is used.  The command line does the same: a
command imports the modules only it uses when it runs.  Every submodule
also resolves as an attribute, ``scholarparse.crf`` for example.
"""

from importlib import import_module

__version__ = "1.0.0"

# Each submodule with the public names it defines.
_SOURCES = {
    "bibliography": (
        "CitationInstance", "CitationLink", "Reference", "extract_citations",
        "map_citations_to_references", "split_references"),
    "chunker": ("chunk_document", "chunk_page"),
    "config": (
        "PipelineConfig", "TrainConfig", "load_config", "parse_config"),
    "context": ("DocumentContext", "build_context"),
    "crf": ("LabeledSequence", "forward_backward", "train"),
    "crfmodel": (
        "CrfModel", "FeatureTemplate", "load_model", "save_model",
        "viterbi_decode"),
    "evaluate": (
        "GroundTruth", "TokenMetrics", "TrainingPair", "aggregate",
        "evaluate_extraction", "ground_truth_from_text",
        "ground_truth_to_text", "load_corpus", "micro_average",
        "render_report", "split_corpus", "token_score"),
    "ingest": (
        "IngestReport", "RichXmlParseError", "document_to_xml",
        "parse_rich_xml"),
    "metadata": (
        "Affiliation", "AuthorName", "AuthorRecord", "EmailAddress",
        "expand_email_group", "extract_affiliations", "extract_author_names",
        "extract_emails", "extract_title", "map_authors_to_emails"),
    "model": ("Chunk", "Document", "Line", "Page", "Token", "make_chunk"),
    "pipeline": (
        "PipelineModels", "extract_document", "load_default_models",
        "load_models_from_dir"),
    "structure": (
        "CaptionHeading", "Footnote", "Section", "SectionHeading",
        "extract_caption_headings", "extract_footnotes", "extract_urls",
        "label_headings", "map_sections"),
    "styles": ("STYLES",),
    "synth": ("generate_synthetic_document",),
    "tei": ("ExtractionResult", "export_tei"),
    "training": ("train_all", "train_task", "training_examples"),
    "usecases": (
        "CitationHistogram", "curate_dataset_links",
        "section_citation_distribution"),
}
# Public name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}
_SUBMODULES = frozenset(_SOURCES) | {"cli", "features"}

__all__ = [*_MODULE_OF]


def __getattr__(name):
    # A name is bound here on its first lookup, so later lookups are plain
    # attribute reads, as after an eager import.  A lookup that reaches this
    # function allocates, and between two calls that pause the collector
    # (``_gcpause``) that sets off a collection over all the first call
    # left.  Once bound, the name sits beside its module's binding, where a
    # tool that patches a function in every namespace holding it (a tracer)
    # patches and restores this one too.
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f"{__name__}.{module}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # Importing a submodule binds it in this namespace.
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
