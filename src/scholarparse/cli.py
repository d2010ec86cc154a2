"""Command-line interface.

Subcommands: extract (rich XML to TEI), train (fit task models), eval
(score a corpus against ground truth), generate (synthetic corpus), and
usecase (corpus analyses).  Exit codes: 0 success, 1 processing failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import PipelineConfig, load_config
from .crf import save_model
from .evaluate import (aggregate, evaluate_extraction, ground_truth_to_text,
                       render_report)
from .ingest import parse_rich_xml
from .pipeline import (extract_document, load_default_models,
                       load_models_from_dir)
from .synth import STYLES, generate_synthetic_document
from .tei import export_tei
from .training import TASKS, load_corpus, train_task, training_examples
from .usecases import curate_dataset_links, section_citation_distribution


def _load_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return PipelineConfig()


def _load_models(args):
    if getattr(args, "models", None):
        return load_models_from_dir(args.models)
    return load_default_models()


def _extract_one(path: Path, models, cfg: PipelineConfig):
    doc, _report = parse_rich_xml(path.read_bytes(),
                                  dehyphenate=cfg.dehyphenate,
                                  source_id=path.stem)
    return extract_document(doc, models, cfg.chunk_params())


def _extract_to_tei(path: Path, models, cfg: PipelineConfig
                    ) -> tuple[str | None, str | None]:
    """(TEI, None) for one input, or (None, message) when it failed, so one
    bad input loses no other."""
    try:
        return export_tei(_extract_one(path, models, cfg)), None
    except Exception as exc:  # noqa: BLE001 - reported per input
        return None, str(exc)


# The models and configuration of an extract worker process, set once by the
# pool's initializer so they cross to each worker once, not with every input.
_worker_setup = None


def _init_worker(models, cfg: PipelineConfig) -> None:
    global _worker_setup
    _worker_setup = (models, cfg)


def _extract_in_worker(path: Path) -> tuple[str | None, str | None]:
    return _extract_to_tei(path, *_worker_setup)


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    models = _load_models(args)
    inputs = [Path(p) for p in args.inputs]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs,
                                 initializer=_init_worker,
                                 initargs=(models, cfg)) as pool:
            outputs = list(pool.map(_extract_in_worker, inputs))
    else:
        outputs = [_extract_to_tei(path, models, cfg) for path in inputs]
    failed = False
    for path, (tei, error) in zip(inputs, outputs):
        if error is not None:
            print(f"error: {path}: {error}", file=sys.stderr)
            failed = True
        elif out_dir:
            (out_dir / (path.stem + ".tei.xml")).write_text(tei, "utf-8")
        else:
            sys.stdout.write(tei)
    return 1 if failed else 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    train_config = cfg.train_config()
    examples = training_examples(load_corpus(args.corpus), cfg.chunk_params())
    tasks = TASKS if args.task == "all" else (args.task,)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for task in tasks:
        model = train_task(task, examples, train_config)
        (out_dir / f"{task}.crf").write_bytes(save_model(model))
        print(f"trained {task}: {np.count_nonzero(model.unary)} unary weights",
              file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    models = _load_models(args)
    pairs = load_corpus(args.corpus)
    per_doc = []
    for pair in pairs:
        result = extract_document(pair.document, models, cfg.chunk_params())
        per_doc.append(evaluate_extraction(result, pair.truth))
    report = render_report(aggregate(per_doc))
    if args.out:
        Path(args.out).write_text(report, "utf-8")
    else:
        sys.stdout.write(report)
    return 0


def cmd_generate(args) -> int:
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
    cfg = _load_config(args)
    models = _load_models(args)
    results = [_extract_one(Path(p), models, cfg) for p in args.inputs]
    if args.name == "dataset-links":
        for url, source in curate_dataset_links(results):
            print(f"{url}\t{source}")
        return 0
    total = None
    for result in results:
        hist = section_citation_distribution(result)
        if total is None:
            total = hist
        else:
            for key, value in hist.counts.items():
                total.counts[key] += value
    if total is not None:
        for name, count in total.counts.items():
            print(f"{name}\t{count}")
    return 0


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
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
