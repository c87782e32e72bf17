import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrex.corpus import Document, Mention, RelationInstance
from cdrex.evaluation import (
    BOOTSTRAP_BLOCK,
    EvalReport,
    aggregate_document,
    bootstrap_test,
    cooccurring_pairs,
    evaluate,
    f_score,
    prf1,
    render_report,
)
from cdrex.rng import Rng


def doc_with(chem_ids, dis_ids, gold=(), pmid="100"):
    mentions = [Mention(0, 1, "c", "Chemical", c) for c in chem_ids]
    mentions += [Mention(2, 3, "d", "Disease", d) for d in dis_ids]
    return Document(pmid, "t", "a", mentions, set(gold))


def instances_for(doc):
    out = []
    seq = 0
    for c in [m for m in doc.mentions if m.kind == "Chemical"]:
        for d in [m for m in doc.mentions if m.kind == "Disease"]:
            out.append(RelationInstance(f"{doc.pmid}#{seq}", doc.pmid, ["x", "y"], 0, 1,
                                        c.mesh_id, d.mesh_id,
                                        1 if (c.mesh_id, d.mesh_id) in doc.gold_cid else 0))
            seq += 1
    return out


class TestAggregateDocument:
    def test_all_negative_no_training_overlap_gives_empty(self):
        doc = doc_with(["C1"], ["D1"])
        insts = instances_for(doc)
        preds = {i.uid: 0 for i in insts}
        assert aggregate_document(doc, insts, preds, set()) == set()

    def test_one_positive_instance_includes_pair(self):
        doc = doc_with(["C1"] * 5, ["D1"])
        insts = instances_for(doc)
        preds = {i.uid: 0 for i in insts}
        preds[insts[3].uid] = 1
        assert aggregate_document(doc, insts, preds, set()) == {("C1", "D1")}

    def test_training_cooccurrence_rule(self):
        doc = doc_with(["C1"], ["D1"])
        insts = instances_for(doc)
        preds = {i.uid: 0 for i in insts}
        assert aggregate_document(doc, insts, preds, {("C1", "D1")}) == {("C1", "D1")}
        # A training relation that does not co-occur here is not predicted.
        assert ("C9", "D9") not in aggregate_document(doc, insts, preds,
                                                      {("C1", "D1"), ("C9", "D9")})

    def test_unknown_instance_rejected(self):
        doc = doc_with(["C1"], ["D1"])
        insts = instances_for(doc)
        preds = {i.uid: 0 for i in insts}
        preds["999#0"] = 1
        with pytest.raises(ValueError, match="unknown instance"):
            aggregate_document(doc, insts, preds, set())

    def test_missing_prediction_rejected(self):
        doc = doc_with(["C1"], ["D1"])
        insts = instances_for(doc)
        with pytest.raises(ValueError, match="no prediction"):
            aggregate_document(doc, insts, {}, set())

    def test_monotone_in_predictions(self):
        # Rule (ii) can only add pairs on top of rule (i).
        doc = doc_with(["C1", "C2"], ["D1"], gold=[("C1", "D1")])
        insts = instances_for(doc)
        positive = {i.uid: 1 for i in insts}
        with_rule_ii = aggregate_document(doc, insts, positive, {("C2", "D1")})
        only_rule_i = aggregate_document(doc, insts, positive, set())
        assert only_rule_i <= with_rule_ii


def oracle_aggregate(doc, instances, predictions, train_relations):
    """Literal restatement of the two decision rules, for cross-checking."""
    result = set()
    chem_ids = {m.mesh_id for m in doc.mentions if m.kind == "Chemical"}
    dis_ids = {m.mesh_id for m in doc.mentions if m.kind == "Disease"}
    for c in chem_ids:
        for d in dis_ids:
            classified_positive = any(
                predictions[i.uid] == 1 and i.chem_id == c and i.dis_id == d
                for i in instances)
            cooccurs_and_known = (c, d) in train_relations
            if classified_positive or cooccurs_and_known:
                result.add((c, d))
    return result


def random_case(rng, pmid):
    chem_ids = [f"C{rng.randbelow(4)}" for _ in range(rng.randbelow(4))]
    dis_ids = [f"D{rng.randbelow(4)}" for _ in range(rng.randbelow(4))]
    doc = doc_with(chem_ids, dis_ids, pmid=pmid)
    insts = instances_for(doc)
    preds = {i.uid: rng.randbelow(2) for i in insts}
    train_relations = {(f"C{c}", f"D{d}") for c in range(4) for d in range(4)
                       if rng.randbelow(6) == 0}
    return doc, insts, preds, train_relations


def test_aggregation_matches_oracle_on_randomized_documents():
    rng = Rng(2024)
    for case in range(300):
        doc, insts, preds, train_relations = random_case(rng, str(case))
        assert aggregate_document(doc, insts, preds, train_relations) == \
            oracle_aggregate(doc, insts, preds, train_relations)


class TestPrf1:
    def test_published_scoreboard_f1_arithmetic(self):
        assert abs(f_score(54.8, 69.0) - 61.1) <= 0.05
        assert abs(f_score(57.0, 68.6) - 62.3) <= 0.05

    def test_perfect_prediction(self):
        gold = {"1": {("C1", "D1")}, "2": {("C2", "D2"), ("C3", "D3")}}
        assert prf1(gold, gold) == (100.0, 100.0, 100.0)

    def test_empty_prediction(self):
        gold = {"1": {("C1", "D1")}}
        assert prf1(gold, {"1": set()}) == (0.0, 0.0, 0.0)

    def test_micro_averaging(self):
        gold = {"1": {("C1", "D1")}, "2": {("C2", "D2")}}
        pred = {"1": {("C1", "D1"), ("C1", "D9")}, "2": set()}
        p, r, f1 = prf1(gold, pred)
        assert p == pytest.approx(50.0)   # 1 of 2 predictions correct
        assert r == pytest.approx(50.0)   # 1 of 2 gold pairs found
        assert f1 == pytest.approx(50.0)

    def test_matching_is_per_document(self):
        gold = {"1": {("C1", "D1")}}
        pred = {"2": {("C1", "D1")}}  # right pair, wrong document
        p, r, f1 = prf1(gold, pred)
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(6))), st.integers(0, 2**32 - 1))
    def test_permutation_invariant_over_documents(self, order, seed):
        rng = Rng(seed)
        items = []
        for pmid in range(6):
            gold = {(f"C{rng.randbelow(3)}", f"D{rng.randbelow(3)}")
                    for _ in range(rng.randbelow(3))}
            pred = {(f"C{rng.randbelow(3)}", f"D{rng.randbelow(3)}")
                    for _ in range(rng.randbelow(3))}
            items.append((str(pmid), gold, pred))
        base = prf1({p: g for p, g, _ in items}, {p: q for p, _, q in items})
        shuffled = [items[i] for i in order]
        assert prf1({p: g for p, g, _ in shuffled}, {p: q for p, _, q in shuffled}) == base


class TestBootstrap:
    def test_identical_systems_give_p_one(self):
        gold = {str(i): {("C", "D")} for i in range(10)}
        pred = {str(i): {("C", "D")} for i in range(10)}
        assert bootstrap_test(pred, dict(pred), gold, iterations=200, rng=Rng(1)) == 1.0

    def test_total_dominance_gives_p_zero(self):
        gold = {str(i): {("C", "D")} for i in range(20)}
        perfect = {str(i): {("C", "D")} for i in range(20)}
        wrong = {str(i): {("X", "Y")} for i in range(20)}
        assert bootstrap_test(perfect, wrong, gold, iterations=500, rng=Rng(2)) == 0.0

    def test_deterministic_given_seed(self):
        gold = {str(i): {("C", "D")} for i in range(8)}
        a = {str(i): ({("C", "D")} if i % 2 else set()) for i in range(8)}
        b = {str(i): ({("C", "D")} if i % 3 else set()) for i in range(8)}
        p1 = bootstrap_test(a, b, gold, iterations=300, rng=Rng(7))
        p2 = bootstrap_test(a, b, gold, iterations=300, rng=Rng(7))
        assert p1 == p2

    def test_rejects_too_few_iterations(self):
        gold = {"1": {("C", "D")}}
        with pytest.raises(ValueError):
            bootstrap_test(gold, gold, gold, iterations=99)

    def test_matches_exhaustive_enumeration_on_small_subset(self):
        # Five documents with mixed per-document outcomes; all 5^5 resamples
        # are enumerable, giving the exact replicate-loss fraction.
        gold = {
            "0": {("C", "D")}, "1": {("C", "D")}, "2": {("C", "D")},
            "3": {("C", "D")}, "4": {("C", "D"), ("C", "E")},
        }
        sys_a = {"0": {("C", "D")}, "1": {("C", "D")}, "2": {("C", "D")},
                 "3": set(), "4": {("C", "E")}}
        sys_b = {"0": set(), "1": {("C", "D")}, "2": {("C", "D"), ("C", "X")},
                 "3": {("C", "D")}, "4": {("C", "D"), ("C", "E")}}

        def plain_f1(system, docs):
            tp = fp = fn = 0
            for pmid in docs:
                g, p = gold[pmid], system[pmid]
                tp += len(g & p)
                fp += len(p - g)
                fn += len(g - p)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            return 2 * prec * rec / (prec + rec) if prec + rec else 0.0

        pmids = sorted(gold)
        observed = plain_f1(sys_a, pmids) - plain_f1(sys_b, pmids)
        assert observed != 0.0
        losses = 0
        for resample in itertools.product(pmids, repeat=5):
            delta = plain_f1(sys_a, resample) - plain_f1(sys_b, resample)
            if (observed > 0) != (delta > 0) or delta == 0.0:
                losses += 1
        exact_p = losses / 5**5

        sampled_p = bootstrap_test(sys_a, sys_b, gold, iterations=10_000, rng=Rng(13))
        assert abs(sampled_p - exact_p) <= 0.02


def scalar_bootstrap(system_a, system_b, gold, iterations, rng):
    """The one-replicate-at-a-time bootstrap loop, kept as the oracle of
    the blocked bootstrap_test."""
    pmids = sorted(set(gold) | set(system_a) | set(system_b))

    def counts(system):
        tp, fp, fn = (np.zeros(len(pmids)) for _ in range(3))
        for i, pmid in enumerate(pmids):
            g, p = gold.get(pmid, set()), system.get(pmid, set())
            tp[i], fp[i], fn[i] = len(g & p), len(p - g), len(g - p)
        return tp, fp, fn

    def f1(tp, fp, fn):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        return f_score(precision, recall)

    a_tp, a_fp, a_fn = counts(system_a)
    b_tp, b_fp, b_fn = counts(system_b)
    observed = f1(a_tp.sum(), a_fp.sum(), a_fn.sum()) - f1(b_tp.sum(), b_fp.sum(), b_fn.sum())
    if observed == 0.0:
        return 1.0
    sign = 1.0 if observed > 0 else -1.0
    n = len(pmids)
    losses = 0
    for _ in range(iterations):
        idx = np.minimum((rng.fill_uniform((n,), 0.0, 1.0) * n).astype(np.intp), n - 1)
        delta = (f1(a_tp[idx].sum(), a_fp[idx].sum(), a_fn[idx].sum())
                 - f1(b_tp[idx].sum(), b_fp[idx].sum(), b_fn[idx].sum()))
        if sign * delta <= 0.0:
            losses += 1
    return losses / iterations


def random_systems(seed: int, docs: int):
    """Gold and two systems over `docs` documents, some of them empty."""
    rng = Rng(seed)

    def pairs(k):
        return {(f"C{rng.randbelow(3)}", f"D{rng.randbelow(3)}") for _ in range(k)}

    gold, a, b = {}, {}, {}
    for i in range(docs):
        pmid = str(i)
        gold[pmid] = pairs(rng.randbelow(4))
        a[pmid] = pairs(rng.randbelow(3)) | {p for p in sorted(gold[pmid]) if rng.random() < 0.6}
        b[pmid] = pairs(rng.randbelow(3)) | {p for p in sorted(gold[pmid]) if rng.random() < 0.4}
    return gold, a, b


class TestBlockedBootstrap:
    @pytest.mark.parametrize("seed,docs", [(0, 1), (1, 2), (2, 3), (3, 7), (4, 12), (5, 25),
                                           (6, 37), (7, 50)])
    def test_matches_the_scalar_loop(self, seed, docs):
        gold, a, b = random_systems(seed, docs)
        iterations = BOOTSTRAP_BLOCK + 37  # a partial last block
        rng, oracle_rng = Rng(seed).derive("bootstrap"), Rng(seed).derive("bootstrap")
        assert bootstrap_test(a, b, gold, iterations=iterations, rng=rng) == \
            scalar_bootstrap(a, b, gold, iterations, oracle_rng)
        # The same stream is consumed: a later draw agrees.
        assert rng.next_u64() == oracle_rng.next_u64()

    @pytest.mark.parametrize("iterations", [100, BOOTSTRAP_BLOCK - 1, BOOTSTRAP_BLOCK,
                                            2 * BOOTSTRAP_BLOCK + 1])
    def test_iteration_counts_around_the_block_size(self, iterations):
        gold, a, b = random_systems(11, 9)
        assert bootstrap_test(a, b, gold, iterations=iterations, rng=Rng(3)) == \
            scalar_bootstrap(a, b, gold, iterations, Rng(3))

    def test_empty_documents_and_tied_replicates(self):
        # Documents where both systems agree tie every replicate drawn
        # only from them; empty documents contribute nothing.
        gold = {"0": {("C", "D")}, "1": set(), "2": set(), "3": {("C", "E")}}
        a = {"0": {("C", "D")}, "1": set(), "2": set(), "3": {("C", "E")}}
        b = {"0": set(), "1": set(), "2": set(), "3": {("C", "E")}, "4": set()}
        for seed in range(4):
            assert bootstrap_test(a, b, gold, iterations=500, rng=Rng(seed)) == \
                scalar_bootstrap(a, b, gold, 500, Rng(seed))

    def test_systems_tied_on_f1_give_p_one(self):
        gold = {"0": {("C", "D")}, "1": {("C", "E")}}
        a = {"0": {("C", "D")}, "1": set()}
        b = {"0": set(), "1": {("C", "E")}}
        assert bootstrap_test(a, b, gold, iterations=300, rng=Rng(1)) == 1.0
        assert scalar_bootstrap(a, b, gold, 300, Rng(1)) == 1.0


class TestRenderReport:
    def test_layout(self):
        report = evaluate({"1": {("C1", "D1")}}, {"1": {("C1", "D1"), ("C2", "D2")}})
        text = render_report(report)
        lines = text.splitlines()
        assert lines[0] == "P 50.0"
        assert lines[1] == "R 100.0"
        assert lines[2] == "F1 66.7"
        assert lines[3] == "pair\t1\tC1\tD1"
        assert lines[4] == "pair\t1\tC2\tD2"

    def test_bootstrap_line(self):
        report = evaluate({"1": {("C1", "D1")}}, {"1": {("C1", "D1")}})
        report.bootstrap = {"p_value": 0.031, "iterations": 10000, "seed": 42}
        assert render_report(report).splitlines()[-1] == \
            "bootstrap p=0.0310 iterations=10000 seed=42"

    def test_counts_recorded(self):
        report = evaluate({"1": {("C1", "D1")}}, {"1": {("C2", "D2")}})
        assert isinstance(report, EvalReport)
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)


def test_cooccurring_pairs_cross_product():
    doc = doc_with(["C1", "C2", "C1"], ["D1"])
    assert cooccurring_pairs(doc) == {("C1", "D1"), ("C2", "D1")}
