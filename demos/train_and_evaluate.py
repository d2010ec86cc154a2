"""Train the four sequence models from scratch and score them.

Builds a small synthetic corpus, splits it into train and test halves
with a fixed seed, fits the title/author/heading/footnote models on the
train split, and prints the per-field token-level report for the test
split.  With the small corpus and iteration budget used here this takes
well under a minute; accuracy is below what the bundled models reach but
the mechanics are identical.

Run from the repository root:

    python3 demos/train_and_evaluate.py
"""

from scholarparse.crf import TrainConfig
from scholarparse.evaluate import (TrainingPair, aggregate,
                                   evaluate_extraction, render_report,
                                   split_corpus)
from scholarparse.ingest import parse_rich_xml
from scholarparse.pipeline import PipelineModels, extract_document
from scholarparse.synth import STYLES, generate_synthetic_document
from scholarparse.training import train_all

CORPUS_SIZE = 20


def main():
    corpus = {}
    for i in range(CORPUS_SIZE):
        style = STYLES[i % len(STYLES)]
        doc_id = f"{style}-{i}"
        xml, gt = generate_synthetic_document(style, i, source_id=doc_id)
        document, _ = parse_rich_xml(xml, source_id=doc_id)
        corpus[doc_id] = TrainingPair(document=document, truth=gt)

    train_ids, test_ids = split_corpus(sorted(corpus), 0.5, seed=1)
    print(f"training on {len(train_ids)} documents, "
          f"testing on {len(test_ids)}")

    trained = train_all([corpus[i] for i in train_ids],
                        TrainConfig(max_iterations=30))
    models = PipelineModels(**trained)

    per_doc = []
    for doc_id in test_ids:
        pair = corpus[doc_id]
        result = extract_document(pair.document, models)
        per_doc.append(evaluate_extraction(result, pair.truth))
    print()
    print(render_report(aggregate(per_doc)))


if __name__ == "__main__":
    main()
