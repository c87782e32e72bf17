"""Tests of the benchmark's corpus generator, tracer and BENCHMARK.json.

    python -m pytest cdrexbench -q          (from the repository root)
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cdrex.cli  # noqa: E402,F401 - loads every module the tracer wraps
import corpusgen  # noqa: E402
import tracing  # noqa: E402
from cdrex import corpus, encoders, optim  # noqa: E402
from cdrex.evaluation import cooccurring_pairs  # noqa: E402


def _stats(docs):
    tokens = [len(corpus.tokenize(doc.text)) for doc in docs]
    chem = [sum(m.kind == corpus.CHEMICAL for m in doc.mentions) for doc in docs]
    dis = [sum(m.kind == corpus.DISEASE for m in doc.mentions) for doc in docs]
    types = {t.text.lower() for doc in docs for t in corpus.tokenize(doc.text)}
    cid = sum(len(doc.gold_cid) for doc in docs)
    pairs = sum(len(cooccurring_pairs(doc)) for doc in docs)
    return tokens, sum(chem) / len(docs), sum(dis) / len(docs), len(types), cid / pairs


@pytest.mark.parametrize("seed", [1, 2])
def test_long_shape_is_bc5cdr_sized(seed, caplog):
    with caplog.at_level(logging.WARNING, logger="cdrex"):
        docs = corpus.parse_pubtator(corpusgen.generate(corpusgen.LONG, seed))
    assert not caplog.records, "mention offsets or ids disagree with the text"
    tokens, chem, dis, types, cid_share = _stats(docs)
    assert len(docs) == 500
    assert set(tokens) == {250}
    assert (chem, dis) == (10, 9)
    assert 10_000 <= types <= 12_000
    assert 0.12 <= cid_share <= 0.18
    instances = [inst for doc in docs[:20] for inst in corpus.build_instances(doc)]
    assert len(instances) == 20 * 90
    assert max(len(inst.tokens) for inst in instances) == 250


def test_short_shape_windows_span_both_sentences():
    docs = corpus.parse_pubtator(corpusgen.generate(corpusgen.SHORT, 3))
    tokens, chem, dis, _, _ = _stats(docs)
    assert set(tokens) == {31}
    assert all(len(corpus.split_sentences(doc.text)) == 2 for doc in docs)
    assert (chem, dis) == (2, 2)
    instances = [inst for doc in docs for inst in corpus.build_instances(doc)]
    assert len(instances) == 4 * len(docs)
    assert {len(inst.tokens) for inst in instances} == {31}


def test_generation_is_seeded():
    one = corpusgen.generate(corpusgen.LONG, 7, "test", docs=5)
    assert one == corpusgen.generate(corpusgen.LONG, 7, "test", docs=5)
    assert one != corpusgen.generate(corpusgen.LONG, 8, "test", docs=5)
    assert one != corpusgen.generate(corpusgen.LONG, 7, "dev", docs=5)


def test_relations_are_a_property_of_the_concept_pair():
    docs = corpus.parse_pubtator(corpusgen.generate(corpusgen.LONG, 4, docs=100))
    for doc in docs:
        for chem, dis in cooccurring_pairs(doc):
            related = corpusgen.is_relation(int(chem[1:]), int(dis[1:]), 4)
            assert ((chem, dis) in doc.gold_cid) == related


def test_tracer_counts_a_training_call_and_restores_the_package():
    docs = corpus.parse_pubtator(corpusgen.generate(corpusgen.SHORT, 5, docs=10))
    split = optim.DataSplit(docs, [i for doc in docs for i in corpus.build_instances(doc)])
    config = optim.TrainConfig(variant="cnn+lstmchar", epochs=2, batch_size=8, filters=4,
                               word_dim=6, pos_dim=3, char_dim=4, lstm_units=3)
    originals = (optim.unk_replace, encoders.unk_replace, cdrex.tensor.Tensor.backward)
    tracer = tracing.Tracer(cdrex)
    tracer.install()
    try:
        optim.train(config, split, split)
    finally:
        tracer.uninstall()
    assert (optim.unk_replace, encoders.unk_replace, cdrex.tensor.Tensor.backward) == originals
    metrics = tracer.metrics(1, 0.0, 1.0)
    batches = 2 * -(-len(split.instances) // 8)
    assert metrics["tensor.backward_calls"] == metrics["optim.nadam_step_calls"] == batches
    assert metrics["model.forward_calls"] == 2 * len(split.instances)
    assert metrics["encoders.unk_replace_s"] > 0  # imported by name into optim
    assert metrics["encoders.encode_chars_calls"] > 0
    assert 0 < metrics["encoders.char_encode_useful_ratio"] <= 1
    assert len(tracer.steps_ms) == batches
    assert {span[2] for span in tracer.spans} >= {"optim.train", "model.loss", "tensor.Tensor.backward"}


def test_benchmark_json_matches_the_tracer():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in spec["workloads"]] == ["train-cnn", "train-lstmchar", "eval-compare"]
