"""Command-line interface.

Subcommands: extract (rich XML to TEI), train (fit task models), eval
(score a corpus against ground truth), generate (synthetic corpus), and
usecase (corpus analyses).  Exit codes: 0 success, 1 processing failure,
2 usage error.  The configuration is checked before any input is read.
extract, usecase, eval and train run their inputs through ``_each_input``:
an input that fails costs one ``error: <input>: <message>`` line, and the
command goes on with the rest.  eval and train read each X.xml/X.gt.txt
pair with ``evaluate.read_pair``, as extract reads a document; with no
readable input, usecase prints no analysis, eval writes no report and
train no model.  extract writes each input's TEI as soon as that input
and every earlier one are done, also with --jobs.  extract --out names
each output after its input's stem, so two inputs with one stem are a
usage error, as is a --jobs or --count below 1.  train --stats writes
each task's training log as JSON lines, one per iteration and one for the
stop reason, each naming its task.

A command imports what only it uses (training, evaluation, the generator,
the corpus analyses) when it runs, so ``extract`` loads no more than
extraction does, and ``eval`` adds evaluation alone: neither training nor
``crf``, and so not numpy.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .config import PipelineConfig, load_config
from .crfmodel import save_model
from .ingest import parse_rich_xml
from .pipeline import (TASKS, extract_document, load_default_models,
                       load_models_from_dir)
from .styles import STYLES
from .tei import ExtractionResult, export_tei


def _load_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return PipelineConfig()


def _load_models(args):
    if getattr(args, "models", None):
        return load_models_from_dir(args.models)
    return load_default_models()


def _attempt(item, work, setup) -> tuple[bool, object]:
    """(True, result) for one input, or (False, message) when it failed."""
    try:
        return True, work(item, *setup)
    except Exception as exc:  # noqa: BLE001 - reported per input
        return False, str(exc)


# The work and its setup in a worker process, set once by the pool's
# initializer so that they cross to each worker once, not with every input.
_worker_setup = None


def _init_worker(work, setup) -> None:
    global _worker_setup
    _worker_setup = (work, setup)


def _attempt_in_worker(item) -> tuple[bool, object]:
    return _attempt(item, *_worker_setup)


def _each_input(work, items, setup=(), jobs=1, each=None) -> tuple[list, bool]:
    """The results of ``work(item, *setup)`` for the inputs that did not
    fail, in input order, and whether any failed.  Each failure is printed
    as ``error: <input>: <message>``, so one bad input loses no other.
    Given ``each``, each result goes to ``each`` as soon as that input and
    every earlier one are done, and none is kept.  With ``jobs`` > 1 and
    more than one input, the inputs run in worker processes, at most one
    per input; only then is the process pool imported, so a one-process
    call never loads ``multiprocessing``."""
    jobs = min(jobs, len(items))
    pool = None
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                   initargs=(work, setup))
        outcomes = pool.map(_attempt_in_worker, items)
    else:
        outcomes = (_attempt(item, work, setup) for item in items)
    results = []
    failed = False
    try:
        for item, (ok, value) in zip(items, outcomes):
            if not ok:
                print(f"error: {item}: {value}", file=sys.stderr)
                failed = True
            elif each:
                each(value)
            else:
                results.append(value)
    finally:
        if pool is not None:
            pool.shutdown()
    return results, failed


def _extract(path: Path, models, cfg: PipelineConfig) -> ExtractionResult:
    doc, _report = parse_rich_xml(path.read_bytes(),
                                  dehyphenate=cfg.dehyphenate,
                                  source_id=path.stem)
    return extract_document(doc, models, cfg.chunk)


def _extract_tei(path: Path, models, cfg: PipelineConfig) -> tuple[str, str]:
    return path.stem, export_tei(_extract(path, models, cfg))


def _score(xml_path: Path, models, cfg: PipelineConfig) -> dict:
    from .evaluate import evaluate_extraction, read_pair
    pair = read_pair(xml_path, cfg.dehyphenate)
    return evaluate_extraction(
        extract_document(pair.document, models, cfg.chunk), pair.truth)


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    models = _load_models(args)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    def write(output: tuple[str, str]) -> None:
        stem, tei = output
        if out_dir:
            (out_dir / (stem + ".tei.xml")).write_text(tei, "utf-8")
        else:
            sys.stdout.write(tei)
            sys.stdout.flush()

    _outputs, failed = _each_input(_extract_tei,
                                   [Path(p) for p in args.inputs],
                                   (models, cfg), args.jobs, write)
    return int(failed)


def _open_stats(path):
    """The stream --stats names: a new file, or standard output for -."""
    from contextlib import nullcontext
    if path is None:
        return nullcontext()
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def cmd_train(args) -> int:
    import json
    from .evaluate import corpus_files, read_pair
    from .training import train_task, training_examples
    cfg = _load_config(args)
    pairs, failed = _each_input(read_pair, corpus_files(args.corpus),
                                (cfg.dehyphenate,))
    if not pairs:
        print("error: no training pair could be read", file=sys.stderr)
        return 1
    examples = training_examples(pairs, cfg.chunk)
    tasks = TASKS if args.task == "all" else (args.task,)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _open_stats(args.stats) as stats:
        for task in tasks:
            log = None if stats is None else []
            model = train_task(task, examples, cfg.train, log)
            (out_dir / f"{task}.crf").write_bytes(save_model(model))
            nonzero = sum(w != 0.0 for row in model.unary for w in row)
            print(f"trained {task}: {nonzero} unary weights", file=sys.stderr)
            if stats is not None:
                stats.writelines(json.dumps({"task": task, **record}) + "\n"
                                 for record in log)
    return int(failed)


def cmd_eval(args) -> int:
    from .evaluate import aggregate, corpus_files, render_report
    cfg = _load_config(args)
    models = _load_models(args)
    per_doc, failed = _each_input(_score, corpus_files(args.corpus),
                                  (models, cfg))
    if not per_doc:
        print("error: no evaluation pair could be read", file=sys.stderr)
        return 1
    report = render_report(aggregate(per_doc))
    if args.out:
        Path(args.out).write_text(report, "utf-8")
    else:
        sys.stdout.write(report)
    return int(failed)


def cmd_generate(args) -> int:
    from .evaluate import ground_truth_to_text
    from .synth import generate_synthetic_document
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    styles = STYLES if args.style == "all" else (args.style,)
    for i in range(args.count):
        style = styles[i % len(styles)]
        seed = args.seed + i
        name = f"{style}-{seed}"
        xml, truth = generate_synthetic_document(style, seed, source_id=name)
        (out_dir / f"{name}.xml").write_bytes(xml)
        (out_dir / f"{name}.gt.txt").write_text(
            ground_truth_to_text(truth), "utf-8")
    return 0


def cmd_usecase(args) -> int:
    from .usecases import (GENERIC_SECTIONS, SectionMap, curate_dataset_links,
                           section_citation_distribution)
    cfg = _load_config(args)
    models = _load_models(args)
    section_map = SectionMap.load_default()
    results, failed = _each_input(_extract, [Path(p) for p in args.inputs],
                                  (models, cfg))
    if not results:
        print("error: no input could be read", file=sys.stderr)
        return 1
    if args.name == "dataset-links":
        for url, source in curate_dataset_links(results, section_map):
            print(f"{url}\t{source}")
    else:
        total = Counter()
        for result in results:
            total.update(
                section_citation_distribution(result, section_map).counts)
        for name in GENERIC_SECTIONS:
            print(f"{name}\t{total[name]}")
    return int(failed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scholarparse",
        description="Extract metadata, structure and bibliography from "
                    "token-level rich XML renderings of scholarly articles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract documents to TEI")
    p.add_argument("inputs", nargs="+", help="rich XML input files")
    p.add_argument("--models", help="directory of trained .crf models")
    p.add_argument("--out", help="output directory (default: stdout)")
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (documents are independent)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="fit the task models on a corpus")
    p.add_argument("--corpus", required=True,
                   help="directory of X.xml plus X.gt.txt pairs")
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--task", default="all", choices=("all",) + TASKS)
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--stats", metavar="PATH|-",
                   help="write each training iteration and stop reason as a "
                        "JSON line to PATH (- for stdout)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score extraction against ground truth")
    p.add_argument("--corpus", required=True,
                   help="directory of X.xml plus X.gt.txt pairs")
    p.add_argument("--models", help="directory of trained .crf models")
    p.add_argument("--out", help="report output file (default: stdout)")
    p.add_argument("--config", help="key=value configuration file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("generate", help="write a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--style", default="all", choices=("all",) + STYLES)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("usecase", help="run a corpus analysis")
    p.add_argument("--name", required=True,
                   choices=("dataset-links", "citation-histogram"))
    p.add_argument("inputs", nargs="+", help="rich XML input files")
    p.add_argument("--models", help="directory of trained .crf models")
    p.add_argument("--config", help="key=value configuration file")
    p.set_defaults(func=cmd_usecase)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for option in ("jobs", "count"):
        if getattr(args, option, 1) < 1:
            parser.error(f"argument --{option}: must be at least 1, "
                         f"got {getattr(args, option)}")
    if args.command == "extract" and args.out:
        first_of_stem = {}
        for path in map(Path, args.inputs):
            first = first_of_stem.setdefault(path.stem, path)
            if first is not path:
                parser.error(f"inputs {first} and {path} would both be "
                             f"written to {Path(args.out, path.stem)}.tei.xml")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
