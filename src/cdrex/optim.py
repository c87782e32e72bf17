"""Nadam optimization, the training loop, and hyperparameter grid search.

The update is the Nesterov-accelerated Adam step with constant decay
rates (no momentum schedule):

    m_t = b1*m + (1-b1)*g          v_t = b2*v + (1-b2)*g^2
    m_hat = m_t / (1-b1^t)         v_hat = v_t / (1-b2^t)
    step  = lr * (b1*m_hat + (1-b1)*g/(1-b1^t)) / (sqrt(v_hat) + eps)

Training shuffles instances, resamples fresh UNK masks every epoch,
evaluates document-level dev F1 after each epoch, and keeps the
parameters of the best epoch (earlier epoch on ties).  All randomness
derives from the single config seed, so identical configs reproduce
bitwise-identical models.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluation, model
from .corpus import DEFAULT_MAX_TOKENS, Document, RelationInstance, Vocab, build_vocab, fit_instance
from .encoders import unk_replace
from .model import ModelParams
from .rng import Rng
from .tensor import NumericsError, Tensor

log = logging.getLogger(__name__)

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

GRID_LEARNING_RATES = (5e-06, 1e-05, 5e-05, 1e-04, 5e-04)
GRID_FILTERS = (100, 200, 300, 400, 500)
GRID_DROPOUTS = (0.25, 0.5)


@dataclass
class NadamState:
    step: int = 0
    beta1: float = BETA1
    beta2: float = BETA2
    eps: float = EPS
    learning_rate: float = 1e-4
    first: dict[str, np.ndarray] = field(default_factory=dict)
    second: dict[str, np.ndarray] = field(default_factory=dict)


def nadam_step(named_params: list[tuple[str, Tensor]], state: NadamState) -> NadamState:
    """One in-place update over (name, tensor) pairs, reading each
    tensor's accumulated gradient.  Missing gradients count as zero; a NaN
    gradient aborts the step naming the parameter.

    Each expression is evaluated into two scratch arrays per parameter
    with the operands and operation order of the formulas in the module
    docstring, so the result is bit for bit that of evaluating them with
    a fresh array per operation."""
    for name, tensor in named_params:
        if tensor.grad is not None and np.isnan(tensor.grad).any():
            raise NumericsError(f"NaN gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, tensor in named_params:
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        m = state.first.get(name)
        if m is None:
            m = state.first[name] = np.zeros_like(tensor.data)
        v = state.second.get(name)
        if v is None:
            v = state.second[name] = np.zeros_like(tensor.data)
        s = np.empty_like(tensor.data)
        u = np.empty_like(tensor.data)
        # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s)
        v *= b2
        np.multiply(1.0 - b2, g, out=s)
        v += np.multiply(s, g, out=s)
        # s = b1*(m/bias1) + ((1-b1)*g)/bias1
        np.multiply(b1, np.divide(m, bias1, out=s), out=s)
        np.divide(np.multiply(1.0 - b1, g, out=u), bias1, out=u)
        np.add(s, u, out=s)
        # s = lr * (s / (sqrt(v/bias2) + eps))
        np.add(np.sqrt(np.divide(v, bias2, out=u), out=u), state.eps, out=u)
        np.divide(s, u, out=s)
        tensor.data -= np.multiply(state.learning_rate, s, out=s)
    return state


def zero_grads(named_params: list[tuple[str, Tensor]]) -> None:
    for _, tensor in named_params:
        tensor.grad = None


# ---------------------------------------------------------------------------
# Training configuration and reports


@dataclass
class TrainConfig:
    variant: str = "cnn"
    learning_rate: float = 1e-4
    filters: int = 100
    dropout: float = 0.5
    l2: float = 0.001
    epochs: int = 50
    batch_size: int = 32
    seed: int = 1
    window: int = 5
    n_max: int = DEFAULT_MAX_TOKENS
    # Embedding widths; the full-scale defaults are configurable mainly
    # so tests and gradient checks can run on tiny models.
    word_dim: int = 200
    pos_dim: int = 50
    char_dim: int = 25
    char_filters: int = 50
    char_window: int = 5
    lstm_units: int = 25

    def sort_key(self):
        return (self.learning_rate, self.filters, self.dropout)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass
class TrainReport:
    config: TrainConfig
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None
    best_f1: float | None = None
    model_path: str | None = None
    status: str = "untrained"


@dataclass
class DataSplit:
    documents: list[Document]
    instances: list[RelationInstance]


def training_relations(docs: list[Document]) -> set[tuple[str, str]]:
    pairs: set[tuple[str, str]] = set()
    for doc in docs:
        pairs |= doc.gold_cid
    return pairs


def predict_pairs(split: DataSplit, params: ModelParams,
                  train_relations: set[tuple[str, str]]) -> dict[str, set[tuple[str, str]]]:
    """Document-level predicted pairs for a split, via mention-level
    classification plus the training co-occurrence rule.  An instance
    whose two entities cannot both fit in the model's n tokens is
    labelled 0 with a warning."""
    rng = Rng(0)  # inference is deterministic; the stream is never used
    # Parameters are fixed for this call only, so the character encodings
    # are shared across the split and dropped on return.
    char_cache: dict = {}
    by_doc: dict[str, list[RelationInstance]] = {}
    for inst in split.instances:
        by_doc.setdefault(inst.pmid, []).append(inst)
    predicted = {}
    n = params.hyper.n
    for doc in split.documents:
        instances = by_doc.get(doc.pmid, [])
        labels = {}
        for inst in instances:
            span = abs(inst.i1 - inst.i2) + 1
            if span > n:
                log.warning("instance %s: entities span %d tokens, more than the model's "
                            "n=%d; labelled 0", inst.uid, span, n)
                labels[inst.uid] = 0
                continue
            fitted = fit_instance(inst, n)
            labels[inst.uid] = model.forward(fitted, params, rng, training=False,
                                             char_cache=char_cache).label
        predicted[doc.pmid] = evaluation.aggregate_document(doc, instances, labels,
                                                            train_relations)
    return predicted


def dev_f1(dev: DataSplit, params: ModelParams,
           train_relations: set[tuple[str, str]]) -> tuple[float, float, float]:
    gold = {doc.pmid: set(doc.gold_cid) for doc in dev.documents}
    predicted = predict_pairs(dev, params, train_relations)
    return evaluation.prf1(gold, predicted)


def _minibatch_step(batch: list[RelationInstance], params: ModelParams,
                    named: list[tuple[str, Tensor]], state: NadamState, rng: Rng,
                    lookup: dict[str, list[str]]) -> float:
    """One Nadam update on a minibatch; returns its loss.

    Nadam runs while the loss graph is still held: freeing the graph first
    measured about six times the minor page faults per `train-cnn` call,
    and slower calls, as the freed heap was faulted back in.  The graph
    has no reference cycles (nodes point to their operands, never back),
    so reference counting frees it when the step returns.
    """
    zero_grads(named)
    batch_loss = model.loss(batch, params, rng, lookup_tokens=lookup)
    batch_loss.backward()
    nadam_step(named, state)
    return batch_loss.item()


def _snapshot(params: ModelParams,
              best: dict[str, np.ndarray] | None) -> dict[str, np.ndarray]:
    """Copies of every parameter, written into `best`'s arrays when there
    is one, so training never holds two snapshots at once."""
    if best is None:
        return {name: t.data.copy() for name, t in params.named_tensors()}
    for name, t in params.named_tensors():
        np.copyto(best[name], t.data)
    return best


def _restore(params: ModelParams, snapshot: dict[str, np.ndarray]) -> None:
    for name, t in params.named_tensors():
        t.data[:] = snapshot[name]


def train(config: TrainConfig, train_data: DataSplit, dev_data: DataSplit | None,
          model_path=None, pretrained: dict[str, np.ndarray] | None = None,
          vocab: Vocab | None = None) -> tuple[TrainReport, ModelParams | None]:
    """Full training run: per-epoch shuffling, fresh UNK masks, minibatch
    Nadam updates, and dev-F1 model selection.

    Without a dev split the final-epoch parameters are returned and no F1
    is recorded.  A numeric failure during training, or any failure during
    dev evaluation, aborts the run but returns the partial report with
    status "aborted: ...".
    """
    if not train_data.instances:
        raise ValueError("training split has no instances")
    if vocab is None:
        vocab = build_vocab(train_data.documents, train_data.instances, n_max=config.n_max)
    rng = Rng(config.seed)
    params = model.init_model(
        vocab, config.variant, rng.derive("init"),
        m=config.filters, rho=config.dropout, l2=config.l2,
        learning_rate=config.learning_rate, k=config.window,
        word_dim=config.word_dim, pos_dim=config.pos_dim, char_dim=config.char_dim,
        char_filters=config.char_filters, char_window=config.char_window,
        lstm_units=config.lstm_units, pretrained=pretrained)
    report = TrainReport(config=config)
    if config.epochs == 0:
        log.info("epochs=0: nothing to train")
        return report, None

    named = params.named_tensors()
    state = NadamState(learning_rate=config.learning_rate)
    train_rel = training_relations(train_data.documents)
    instances = [fit_instance(inst, vocab.n) for inst in train_data.instances]
    best: dict[str, np.ndarray] | None = None

    for epoch in range(1, config.epochs + 1):
        epoch_rng = rng.derive(f"epoch-{epoch}")
        order = list(range(len(instances)))
        epoch_rng.derive("shuffle").shuffle(order)
        unk_rng = epoch_rng.derive("unk")
        lookup = {inst.uid: unk_replace(inst.tokens, vocab.counts, unk_rng)
                  for inst in instances}
        dropout_rng = epoch_rng.derive("dropout")

        losses = []
        try:
            for start in range(0, len(order), config.batch_size):
                batch = [instances[i] for i in order[start:start + config.batch_size]]
                losses.append(_minibatch_step(batch, params, named, state, dropout_rng, lookup))
        except NumericsError as exc:
            log.error("training failed in epoch %d: %s", epoch, exc)
            report.status = f"aborted: {exc}"
            break
        epoch_loss = float(np.mean(losses))

        if dev_data is not None:
            try:
                precision, recall, f1 = dev_f1(dev_data, params, train_rel)
            except Exception as exc:  # noqa: BLE001 - partial report on any dev failure
                log.error("dev evaluation failed at epoch %d: %s", epoch, exc)
                report.status = f"aborted: {exc}"
                break
            report.epochs.append(EpochRecord(epoch, epoch_loss, precision, recall, f1))
            if report.best_f1 is None or f1 > report.best_f1:
                report.best_f1 = f1
                report.best_epoch = epoch
                best = _snapshot(params, best)
            log.info("epoch %d loss %.4f dev P/R/F1 %.1f/%.1f/%.1f",
                     epoch, epoch_loss, precision, recall, f1)
        else:
            report.epochs.append(EpochRecord(epoch, epoch_loss, None, None, None))
            log.info("epoch %d loss %.4f", epoch, epoch_loss)

    if not report.status.startswith("aborted") and report.epochs:
        report.status = "trained"
    if best is not None:
        _restore(params, best)
    # An aborted run without a dev split has no selected epoch to save.
    if model_path is not None and (best is not None or report.status == "trained"):
        model.save_model(params, model_path)
        report.model_path = str(model_path)
    return report, params


# ---------------------------------------------------------------------------
# Grid search


def default_grid(base: TrainConfig, learning_rates=GRID_LEARNING_RATES,
                 filters=GRID_FILTERS, dropouts=GRID_DROPOUTS) -> list[TrainConfig]:
    """The search space over learning rate, filters and dropout, by
    default the paper's 5 x 5 x 2 grid."""
    return [replace(base, learning_rate=lr, filters=m, dropout=rho)
            for lr in learning_rates
            for m in filters
            for rho in dropouts]


class GridSearchError(RuntimeError):
    """No configuration completed with a dev score; carries the reports
    and failures the search has."""

    def __init__(self, reports: list[TrainReport], failures: list[tuple[TrainConfig, str]]):
        super().__init__("grid search: every configuration failed or produced no dev score")
        self.reports = reports
        self.failures = failures


@dataclass
class GridResult:
    best_config: TrainConfig
    best_report: TrainReport
    reports: list[TrainReport]
    failures: list[tuple[TrainConfig, str]] = field(default_factory=list)


def grid_search(grid: list[TrainConfig], train_data: DataSplit, dev_data: DataSplit,
                base_seed: int = 1, model_dir=None,
                pretrained: dict[str, np.ndarray] | None = None,
                vocab: Vocab | None = None) -> GridResult:
    """Train one model per configuration, in order, and keep the best dev F1.

    Per-config seeds derive deterministically from the base seed and the
    configuration index.  A failing configuration is recorded and skipped,
    and an aborted one is never the winner; if no configuration completes
    with a dev score, GridSearchError carries the reports and failures.
    Ties break toward the lexicographically smaller (learning rate,
    filters, dropout).
    """
    if not grid:
        raise ValueError("empty grid")
    seeder = Rng(base_seed)
    reports: list[TrainReport] = []
    failures: list[tuple[TrainConfig, str]] = []
    for i, cfg in enumerate(grid):
        cfg = replace(cfg, seed=seeder.derive(f"grid-{i}").seed)
        path = None if model_dir is None else os.path.join(str(model_dir), f"config-{i:03d}.model")
        try:
            report, _ = train(cfg, train_data, dev_data, model_path=path,
                              pretrained=pretrained, vocab=vocab)
        except Exception as exc:  # noqa: BLE001 - recorded, search continues
            log.error("configuration %d failed: %s", i, exc)
            failures.append((cfg, str(exc)))
            continue
        reports.append(report)

    scored = [r for r in reports if r.best_f1 is not None and not r.status.startswith("aborted")]
    if not scored:
        raise GridSearchError(reports, failures)
    best = min(scored, key=lambda r: (-r.best_f1, r.config.sort_key()))
    return GridResult(best_config=best.config, best_report=best, reports=reports,
                      failures=failures)


# ---------------------------------------------------------------------------
# Report rendering


def render_train_report(report: TrainReport) -> str:
    """One header block, then one tab-separated record per epoch."""
    cfg = report.config
    lines = [
        f"config variant={cfg.variant} lambda={cfg.learning_rate!r} filters={cfg.filters} "
        f"dropout={cfg.dropout!r} epochs={cfg.epochs} batch_size={cfg.batch_size} seed={cfg.seed}",
        f"status {report.status}",
        f"best_epoch {report.best_epoch if report.best_epoch is not None else '-'}",
        f"best_f1 {report.best_f1!r}" if report.best_f1 is not None else "best_f1 -",
        f"model {report.model_path or '-'}",
        "epoch\tloss\tP\tR\tF1",
    ]
    for rec in report.epochs:
        def fmt(x):
            return "-" if x is None else repr(x)
        lines.append(f"{rec.epoch}\t{rec.loss!r}\t{fmt(rec.precision)}\t{fmt(rec.recall)}"
                     f"\t{fmt(rec.f1)}")
    return "\n".join(lines) + "\n"
