"""Document-level scoring of chemical-disease pairs.

Mention-level classifications are lifted to document-level identifier
pairs: a pair is predicted for a document when (i) any of its mention-pair
instances is classified positive, or (ii) the pair's identifiers co-occur
in the document and the pair is a known relation in the training split.
Predicted pairs are then scored against the gold document-level
annotations with micro-averaged precision, recall and F1, and two systems
can be compared with a paired bootstrap test over documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng
from .corpus import CHEMICAL, DISEASE, Document

Pair = tuple[str, str]


@dataclass
class EvalReport:
    predicted: dict[str, set[Pair]]   # pmid -> predicted pairs
    tp: int
    fp: int
    fn: int
    precision: float                  # percentages
    recall: float
    f1: float
    bootstrap: dict | None = None     # p_value, iterations, seed


def cooccurring_pairs(doc: Document) -> set[Pair]:
    chem_ids = {m.mesh_id for m in doc.mentions if m.kind == CHEMICAL}
    dis_ids = {m.mesh_id for m in doc.mentions if m.kind == DISEASE}
    return {(c, d) for c in chem_ids for d in dis_ids}


def aggregate_document(doc: Document, instances, predictions: dict[str, int],
                       train_relations: set[Pair]) -> set[Pair]:
    """Document-level pairs from mention-level labels.

    `predictions` maps instance uid to a 0/1 label and must cover exactly
    this document's instances.
    """
    known = {inst.uid for inst in instances}
    for uid in predictions:
        if uid not in known:
            raise ValueError(f"prediction references unknown instance {uid!r}")
    pairs: set[Pair] = set()
    for inst in instances:
        if inst.uid not in predictions:
            raise ValueError(f"no prediction for instance {inst.uid!r}")
        if predictions[inst.uid] == 1:
            pairs.add((inst.chem_id, inst.dis_id))
    for pair in cooccurring_pairs(doc):
        if pair in train_relations:
            pairs.add(pair)
    return pairs


def f_score(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both rates are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _counts(gold: dict[str, set[Pair]], predicted: dict[str, set[Pair]]) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for pmid in set(gold) | set(predicted):
        g = gold.get(pmid, set())
        p = predicted.get(pmid, set())
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    return tp, fp, fn


def prf1(gold: dict[str, set[Pair]], predicted: dict[str, set[Pair]]) -> tuple[float, float, float]:
    """Micro-averaged precision, recall and F1 in percent, matched on
    exact (pmid, chemical id, disease id) triples."""
    tp, fp, fn = _counts(gold, predicted)
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, f_score(precision, recall)


def evaluate(gold: dict[str, set[Pair]], predicted: dict[str, set[Pair]]) -> EvalReport:
    tp, fp, fn = _counts(gold, predicted)
    p, r, f1 = prf1(gold, predicted)
    return EvalReport(predicted={k: set(v) for k, v in predicted.items()},
                      tp=tp, fp=fp, fn=fn, precision=p, recall=r, f1=f1)


# ---------------------------------------------------------------------------
# Paired bootstrap significance test


# Replicates scored together: memory is a few arrays of BOOTSTRAP_BLOCK x
# documents, whatever the iteration count.
BOOTSTRAP_BLOCK = 1_000


def _doc_counts(system: dict[str, set[Pair]], gold: dict[str, set[Pair]],
                pmids: list[str]) -> np.ndarray:
    """(documents, 3) array of per-document tp, fp, fn."""
    counts = np.zeros((len(pmids), 3))
    for i, pmid in enumerate(pmids):
        g = gold.get(pmid, set())
        p = system.get(pmid, set())
        counts[i] = len(g & p), len(p - g), len(g - p)
    return counts


def _f1(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> np.ndarray:
    """Elementwise F1 (a fraction) from counts, 0 where undefined, by the
    floating-point operations of `f_score`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        total = precision + recall
        return np.where(total > 0, 2.0 * precision * recall / total, 0.0)


def _f1_delta(counts: np.ndarray) -> np.ndarray:
    """F1 of system A minus F1 of system B, from count rows (one row, or
    a (replicates, 6) matrix) laid out as A's tp, fp, fn then B's."""
    return _f1(*counts[..., :3].T) - _f1(*counts[..., 3:].T)


def bootstrap_test(system_a: dict[str, set[Pair]], system_b: dict[str, set[Pair]],
                   gold: dict[str, set[Pair]], iterations: int = 10_000,
                   rng: Rng | None = None) -> float:
    """Paired bootstrap over documents.

    Documents are resampled with replacement; the returned p-value is the
    fraction of replicates in which the observed winner fails to win
    (ties count as failures).  Identical systems give p = 1.

    Replicates are drawn and scored in blocks of BOOTSTRAP_BLOCK.  Each
    block takes its indices from one `fill_uniform` call, which continues
    the stream exactly as one call per replicate would, and replicate
    counts are sums of small integers, hence exact in any order.
    """
    if iterations < 100:
        raise ValueError("bootstrap_test needs at least 100 iterations for a stable estimate")
    rng = rng or Rng(0)
    pmids = sorted(set(gold) | set(system_a) | set(system_b))
    if not pmids:
        raise ValueError("bootstrap_test: no documents to resample")
    counts = np.hstack([_doc_counts(system_a, gold, pmids), _doc_counts(system_b, gold, pmids)])

    observed = float(_f1_delta(counts.sum(axis=0)))
    if observed == 0.0:
        return 1.0
    sign = 1.0 if observed > 0 else -1.0

    n = len(pmids)
    losses = 0
    for start in range(0, iterations, BOOTSTRAP_BLOCK):
        size = min(BOOTSTRAP_BLOCK, iterations - start)
        idx = np.minimum((rng.fill_uniform((size, n), 0.0, 1.0) * n).astype(np.intp), n - 1)
        # How often each replicate drew each document, then its count totals.
        draws = np.bincount((idx + n * np.arange(size)[:, None]).ravel(),
                            minlength=size * n).reshape(size, n)
        losses += int(np.count_nonzero(sign * _f1_delta(draws @ counts) <= 0.0))
    return losses / iterations


# ---------------------------------------------------------------------------
# Report rendering


def render_report(report: EvalReport) -> str:
    """Structured text: global P/R/F1 to one decimal, per-document pairs,
    then the bootstrap line when present."""
    lines = [
        f"P {report.precision:.1f}",
        f"R {report.recall:.1f}",
        f"F1 {report.f1:.1f}",
    ]
    for pmid in sorted(report.predicted):
        for chem, dis in sorted(report.predicted[pmid]):
            lines.append(f"pair\t{pmid}\t{chem}\t{dis}")
    if report.bootstrap is not None:
        b = report.bootstrap
        lines.append(f"bootstrap p={b['p_value']:.4f} iterations={b['iterations']} seed={b['seed']}")
    return "\n".join(lines) + "\n"
