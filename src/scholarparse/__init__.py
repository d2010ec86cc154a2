"""Extraction of metadata, structure and bibliography from token-level
rich XML renderings of scholarly articles, with a small built-in
linear-chain CRF for the learned labeling subtasks."""

from .bibliography import (CitationInstance, CitationLink, Reference,
                           extract_citations, map_citations_to_references,
                           split_references)
from .chunker import ChunkParams, chunk_document, chunk_page
from .config import PipelineConfig, load_config, parse_config
from .context import DocumentContext, build_context
from .crf import (CrfModel, FeatureTemplate, LabeledSequence, TrainConfig,
                  forward_backward, load_model, save_model, train,
                  viterbi_decode)
from .evaluate import (GroundTruth, TokenMetrics, aggregate,
                       evaluate_extraction, ground_truth_from_text,
                       ground_truth_to_text, micro_average, render_report,
                       split_corpus, token_score)
from .ingest import IngestReport, RichXmlParseError, document_to_xml, parse_rich_xml
from .metadata import (Affiliation, AuthorName, AuthorRecord, EmailAddress,
                       expand_email_group, extract_affiliations,
                       extract_author_names, extract_emails, extract_title,
                       map_authors_to_emails)
from .model import Chunk, Document, Line, Page, Token, make_chunk
from .pipeline import (PipelineModels, extract_document, load_default_models,
                       load_models_from_dir)
from .structure import (CaptionHeading, Footnote, Section, SectionHeading,
                        extract_caption_headings, extract_footnotes,
                        extract_urls, label_headings, map_sections)
from .synth import STYLES, generate_synthetic_document
from .tei import ExtractionResult, export_tei
from .training import (TrainingPair, load_corpus, train_all, train_task,
                       training_examples)
from .usecases import (CitationHistogram, SectionMap, curate_dataset_links,
                       section_citation_distribution)

__version__ = "1.0.0"

__all__ = [
    "Affiliation", "AuthorName", "AuthorRecord", "CaptionHeading",
    "ChunkParams", "Chunk", "CitationHistogram", "CitationInstance",
    "CitationLink", "CrfModel", "Document", "DocumentContext", "EmailAddress",
    "ExtractionResult", "FeatureTemplate", "Footnote", "GroundTruth",
    "IngestReport", "LabeledSequence", "Line", "Page", "PipelineConfig",
    "PipelineModels", "Reference", "RichXmlParseError", "STYLES", "Section",
    "SectionHeading", "SectionMap", "Token", "TokenMetrics", "TrainConfig",
    "TrainingPair", "aggregate", "build_context", "chunk_document", "chunk_page",
    "curate_dataset_links", "document_to_xml", "evaluate_extraction",
    "expand_email_group", "export_tei", "extract_affiliations",
    "extract_author_names", "extract_caption_headings", "extract_citations",
    "extract_document", "extract_emails", "extract_footnotes", "extract_title",
    "extract_urls", "forward_backward",
    "generate_synthetic_document", "ground_truth_from_text",
    "ground_truth_to_text", "label_headings", "load_config", "load_corpus",
    "load_default_models", "load_model", "load_models_from_dir", "make_chunk",
    "map_authors_to_emails", "map_citations_to_references", "map_sections",
    "micro_average", "parse_config", "parse_rich_xml", "render_report",
    "save_model", "section_citation_distribution", "split_corpus",
    "split_references", "token_score", "train", "train_all", "train_task",
    "training_examples", "viterbi_decode",
]
