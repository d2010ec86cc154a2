"""The three workloads: inputs, one pass over them, and the run loop.

Each workload is a closed loop with one caller: the next document (or the
next training run) starts only after the previous one has finished.  A run
repeats whole passes over the workload's fixed inputs, so every pass does
the same work and must give the same output.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field

import scholarparse as sp
from scholarparse.crf import TrainConfig
from scholarparse.evaluate import aggregate, evaluate_extraction, micro_average

import corpus
import layers
from reference import Reference
from spans import Tracer, install

# Offsets that keep the document sets of one workload seed apart.
BATCH, DAMAGED, HELDOUT, TRAIN_SET, LONG = 0, 1, 2, 3, 4

BATCH_PER_STYLE = 25
LONG_TARGET_TOKENS = 15_000
HELDOUT_PER_STYLE = 3
TRAIN_PER_STYLE = 1
# The train workload's inputs are the same for every workload seed: its
# training time depends strongly on which few articles it trains on (about
# 15% between seeds for four articles), which would hide a change that size.
TRAIN_SEED = 0
TRAIN_CONFIG = TrainConfig(max_iterations=6)
WARMUP_DOCS = 4
# Reference kernel calls before and after each train_all, so the machine's
# speed is sampled around the training as well as between documents.
TRAIN_REFERENCE_CALLS = 8
# XML bytes per reference kernel call before a document (a generated
# article is about 140 kB).
REFERENCE_BYTES = 120_000
# A run ends early enough to exit within 180 s even when the program slows.
MAX_LOOP_SECONDS = 120.0


# Latency samples every untraced run collects at least, per workload.  The
# tail percentile is chosen from this number, not from the samples a run
# happens to collect, so a faster program that completes more documents is
# compared at the same percentile.  Why each workload exists is recorded in
# BENCHMARK.json and README.md.
MIN_SAMPLES = {"extract-batch": 200, "extract-long": 40, "train": 40}


@dataclass
class Inputs:
    seed: int  # the seed the inputs were made from
    documents: list[corpus.InputDoc]  # extracted every pass
    training: list[corpus.InputDoc] = field(default_factory=list)


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == "extract-batch":
        clean = corpus.articles(seed, BATCH, BATCH_PER_STYLE)
        return Inputs(seed, corpus.interleave(
            clean, corpus.damaged_documents(seed, DAMAGED)))
    if workload == "extract-long":
        return Inputs(seed, corpus.long_documents(seed, LONG,
                                                  LONG_TARGET_TOKENS))
    if workload == "train":
        return Inputs(TRAIN_SEED,
                      corpus.articles(TRAIN_SEED, HELDOUT, HELDOUT_PER_STYLE),
                      corpus.articles(TRAIN_SEED, TRAIN_SET, TRAIN_PER_STYLE))
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Tally:
    """Outcomes over a whole run.

    ``raised`` counts every operation that raised, the numerator of
    error_rate.  ``failed`` counts only those whose outcome is wrong: a
    clean document or a training run that raised, or a damaged document
    that raised anything but the ValueError the seed code gives it.
    """

    attempted: int = 0
    raised: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    traced: bool
    wall: float = 0.0
    doc_seconds: float = 0.0  # time spent in document attempts
    start: float = 0.0  # perf_counter at the start of the pass
    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # of each latency
    tokens: list[int] = field(default_factory=list)  # per completed clean doc
    results: list = field(default_factory=list)  # (InputDoc, ExtractionResult)
    digest: str = ""
    train_s: float = 0.0
    train_start: float = 0.0
    reference_s: float = 0.0  # time in reference kernel calls, not in wall


def _sample(reference: Reference | None, out: PassResult) -> None:
    if reference is not None:
        out.reference_s += reference.sample()


def _check_warnings(doc: corpus.InputDoc, report, tally: Tally):
    if report.warnings:
        tally.problems.append(f"{doc.doc_id}: ingest warnings on a clean "
                              f"document: {report.warnings[:3]}")


def _extract(doc: corpus.InputDoc, models):
    document, report = sp.parse_rich_xml(doc.xml, source_id=doc.doc_id)
    result = sp.extract_document(document, models)
    return report, result, sp.export_tei(result)


def run_documents(docs, models, tally: Tally, out: PassResult,
                  tracer: Tracer | None, sha,
                  reference: Reference | None = None) -> None:
    """parse -> extract_document -> export_tei, one document at a time,
    each after reference kernel calls when ``reference`` is given: one per
    article's worth of XML, so the kernel takes the same share of the time
    on long documents as on short ones."""
    for doc in docs:
        for _ in range(max(1, len(doc.xml) // REFERENCE_BYTES)):
            _sample(reference, out)
        if tracer is not None:
            tracer.doc = doc.doc_id
            root = tracer.begin("bench.document")
        start = time.perf_counter()
        try:
            report, result, tei = _extract(doc, models)
        except Exception as exc:  # a lost document is counted, not fatal
            elapsed = time.perf_counter() - start
            error = exc
        else:
            elapsed = time.perf_counter() - start
            error = None
        if tracer is not None:
            tracer.finish(root, "" if error is None else type(error).__name__)
        tally.attempted += 1
        out.doc_seconds += elapsed
        if error is not None:
            tally.raised += 1
            if doc.truth is not None or not isinstance(error, ValueError):
                tally.failed += 1
                tally.problems.append(f"{doc.doc_id} raised: " + "".join(
                    traceback.format_exception(error)).strip())
            continue
        out.latencies.append(elapsed)
        out.starts.append(start)
        if doc.truth is None:
            continue
        _check_warnings(doc, report, tally)
        out.tokens.append(report.token_count)
        out.results.append((doc, result))
        sha.update(tei.encode("utf-8"))


def run_usecases(results, tracer: Tracer | None):
    if tracer is not None:
        tracer.doc = ""
        root = tracer.begin("bench.usecases")
    extracted = [result for _doc, result in results]
    sp.curate_dataset_links(extracted)
    for result in extracted:
        sp.section_citation_distribution(result)
    if tracer is not None:
        tracer.finish(root)


def extract_pass(inputs: Inputs, models, tally: Tally, tracer: Tracer | None,
                 reference: Reference | None) -> PassResult:
    out = PassResult(traced=tracer is not None)
    sha = hashlib.sha256()
    run_documents(inputs.documents, models, tally, out, tracer, sha, reference)
    run_usecases(out.results, tracer)
    out.digest = sha.hexdigest()
    return out


def train_pass(inputs: Inputs, tally: Tally, tracer: Tracer | None,
               reference: Reference | None) -> PassResult:
    """Parse the training set, train_all, write and re-read the models,
    then extract the held-out articles with them."""
    out = PassResult(traced=tracer is not None)
    sha = hashlib.sha256()
    if tracer is not None:
        tracer.doc = "train_all"
        root = tracer.begin("bench.train")
        tracer.spans[root].attrs = {"documents": len(inputs.training)}
    pairs = []
    for doc in inputs.training:
        document, report = sp.parse_rich_xml(doc.xml, source_id=doc.doc_id)
        _check_warnings(doc, report, tally)
        pairs.append(sp.TrainingPair(document=document, truth=doc.truth))
    for _ in range(TRAIN_REFERENCE_CALLS):
        _sample(reference, out)
    start = time.perf_counter()
    tasks = len(sp.training.TASKS)
    try:
        trained = sp.train_all(pairs, TRAIN_CONFIG)
    except Exception as exc:  # counted, and the run reports it as failed
        tally.attempted += tasks
        tally.raised += tasks
        tally.failed += tasks
        tally.problems.append("train_all raised: " + "".join(
            traceback.format_exception(exc)).strip())
        if tracer is not None:
            tracer.finish(root, type(exc).__name__)
        return out
    out.train_s = time.perf_counter() - start
    out.train_start = start
    for _ in range(TRAIN_REFERENCE_CALLS):
        _sample(reference, out)
    tally.attempted += len(trained)
    blobs = {task: sp.save_model(model) for task, model in sorted(trained.items())}
    for blob in blobs.values():
        sha.update(blob)
    models = sp.PipelineModels(**{task: sp.load_model(blob)
                                  for task, blob in blobs.items()})
    if tracer is not None:
        tracer.finish(root)
    run_documents(inputs.documents, models, tally, out, tracer, sha, reference)
    run_usecases(out.results, tracer)
    out.digest = sha.hexdigest()
    return out


@dataclass
class RunResult:
    passes: list[PassResult]
    tally: Tally
    tracer: Tracer
    reference: Reference  # kernel samples of the untraced passes
    elapsed: float


def run(workload: str, inputs: Inputs, seconds: float, trace: bool
        ) -> RunResult:
    """Whole passes until ``seconds`` have passed, at least two passes ran
    and, untraced, the workload's latency sample floor is met.  A traced
    run alternates untraced and traced passes."""
    tally = Tally()
    tracer = Tracer()
    reference = Reference()
    reference.warm()
    min_samples = MIN_SAMPLES[workload]
    models = None
    if workload != "train":
        models = sp.load_default_models()
        # First-call costs (regex compilation, lexicon loading) are paid
        # once per process; keep them out of the measured passes.
        warm = Tally()
        run_documents([d for d in inputs.documents if d.truth is not None]
                      [:WARMUP_DOCS], models, warm, PassResult(False), None,
                      hashlib.sha256())
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            uninstall = install(tracer, "scholarparse", layers.TARGETS)
            root = tracer.begin("bench.pass")
        pass_tracer = tracer if traced else None
        pass_reference = None if traced else reference
        t0 = time.perf_counter()
        if workload == "train":
            result = train_pass(inputs, tally, pass_tracer, pass_reference)
        else:
            result = extract_pass(inputs, models, tally, pass_tracer,
                                  pass_reference)
        result.start = t0
        result.wall = time.perf_counter() - t0 - result.reference_s
        if traced:
            tracer.finish(root)
            uninstall()
        if passes:
            result.results = []  # micro_f is scored on the first pass only
        passes.append(result)
        elapsed = time.perf_counter() - start
        samples = sum(len(p.latencies) for p in passes if not p.traced)
        enough = (len(passes) >= 2 and elapsed >= seconds
                  and (trace or samples >= min_samples))
        if enough or elapsed >= MAX_LOOP_SECONDS:
            break
    return RunResult(passes, tally, tracer, reference,
                     time.perf_counter() - start)


def micro_f(results) -> float:
    per_doc = [evaluate_extraction(result, doc.truth) for doc, result in results]
    return micro_average(aggregate(per_doc).values()).f_score

