"""The model against its serial reference in `oracle.py`, within stated
tolerances.

`oracle.loss` builds one graph instance after instance (input matrix →
convolution → max pool → dropout → softmax → NLL, each instance's NLL
added into a running total), and `oracle.predict_pairs` classifies the
instances of a split one after another through the same per-instance
head.  A faster path may sum in another order, so its outputs need not
equal the reference bit for bit.  Per variant, on fixed seeds, they must
match it within:

- the minibatch loss: relative error at most LOSS_RTOL = 1e-10;
- each parameter's gradient: normwise relative error
  ||g - g_ref|| / ||g_ref|| at most GRAD_RTOL = 1e-10 (exactly zero where
  the reference is zero);
- every probability vector: absolute error at most PROB_ATOL = 1e-12 per
  entry;
- a 2-epoch training run with dev-F1 selection: each epoch's loss within
  RUN_LOSS_RTOL = 1e-9 relative, and dev P/R/F1, the best epoch, the
  predicted pairs and every dev label exactly equal.

The dropout generator must also be left in the reference's state.  A path
held to these tolerances changes the bits of model files and of train
reports (which print losses with repr) between versions; same-seed runs of
one version stay byte-identical, which other tests check.  The character
BiLSTM's backward as whole-minibatch products changed the last bits of
`cnn+lstmchar` model files and train reports this way, with every value
and probability kept.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from cdrex import model as M
from cdrex import optim
from cdrex.corpus import RelationInstance, Vocab, fit_instance
from cdrex.encoders import UNK_WORD
from cdrex.optim import zero_grads
from cdrex.rng import Rng

LOSS_RTOL = 1e-10
GRAD_RTOL = 1e-10
PROB_ATOL = 1e-12
RUN_LOSS_RTOL = 1e-9

# "Zoë" and "tumors" stay out of the vocabulary: UNK words, an UNK char.
WORDS = ["aspirin", "induced", "severe", "headache", "in", "mice", "a", "Aspirin", "Zoë",
         "tumors", "hydroxychloroquine"]


def oracle_model(variant: str, unit_scale: bool, n: int = 24) -> M.ModelParams:
    """m=16, k=3 over n=24 rows: long enough windows and wide enough
    products that a reordered sum shows in the last bits."""
    known = [w.lower() for w in WORDS if w not in ("Zoë", "tumors")]
    vocab = Vocab(words=sorted(set(known)), counts={w: 1 for w in known},
                  chars=sorted(set("".join(known) + "PAD")), n=n)
    params = M.init_model(vocab, variant, Rng(3), m=16, k=3, l2=0.001, word_dim=12, pos_dim=4)
    if unit_scale:
        fill = Rng(4)
        for _, t in params.named_tensors():
            t.data[:] = fill.fill_uniform(t.shape, -0.5, 0.5)
    return params


def random_batch(seed: int, n: int = 24, count: int = 6) -> list[RelationInstance]:
    """Instances of random length up to n, one of them exactly n tokens
    long, with entities at the first and last rows among others."""
    rng = Rng(seed)
    out = []
    for b in range(count):
        length = n if b == 0 else 1 + rng.randbelow(n)
        tokens = [WORDS[rng.randbelow(len(WORDS))] for _ in range(length)]
        i1 = 0 if b == 1 else rng.randbelow(length)
        i2 = length - 1 if b in (0, 1) else rng.randbelow(length)
        out.append(RelationInstance(f"d{seed}#{b}", "d", tokens, i1, i2, "C", "D", rng.randbelow(2)))
    return out


def unk_lookup(batch: list[RelationInstance]) -> dict[str, list[str]]:
    """Word-lookup tokens with every third token replaced by UNK, so some
    keys pair the UNK word row with a form's own characters."""
    return {inst.uid: [UNK_WORD if j % 3 == 1 else tok for j, tok in enumerate(inst.tokens)]
            for inst in batch}


def loss_run(loss_fn, params, batch, lookup, seed):
    """The loss, every gradient, and the dropout generator's next draw."""
    named = params.named_tensors()
    zero_grads(named)
    rng = Rng(seed)
    total = loss_fn(batch, params, rng, lookup_tokens=lookup)
    total.backward()
    return total.item(), {name: t.grad_buffer().copy() for name, t in named}, rng.next_u64()


def assert_loss_close(value: float, reference: float, rtol: float = LOSS_RTOL) -> None:
    assert abs(value - reference) <= rtol * abs(reference), (value, reference)


def assert_gradients_close(grads: dict, reference: dict) -> None:
    assert grads.keys() == reference.keys()
    for name, ref in reference.items():
        error = float(np.linalg.norm(grads[name] - ref))
        assert error <= GRAD_RTOL * float(np.linalg.norm(ref)), (name, error)


def assert_matches_oracle_loss(params, batch, lookup=None, seed: int = 9) -> None:
    value, grads, after = loss_run(M.loss, params, batch, lookup, seed)
    ref_value, ref_grads, ref_after = loss_run(oracle.loss, params, batch, lookup, seed)
    assert_loss_close(value, ref_value)
    assert_gradients_close(grads, ref_grads)
    assert after == ref_after


def reference_probabilities(inst, params) -> np.ndarray:
    """The serial reference's probability vector for a fitted instance."""
    return oracle.class_probabilities(inst, params, Rng(0), training=False).data


def assert_probabilities_close(p: np.ndarray, reference: np.ndarray) -> None:
    assert p.shape == reference.shape
    assert float(np.max(np.abs(p - reference))) <= PROB_ATOL, (p, reference)


def spy_forward(monkeypatch) -> dict:
    """uid -> (fitted instance, Prediction) of every `model.forward` call
    from here on."""
    seen = {}
    real = M.forward

    def forward(inst, *args, **kwargs):
        seen[inst.uid] = (inst, real(inst, *args, **kwargs))
        return seen[inst.uid][1]

    monkeypatch.setattr(M, "forward", forward)
    return seen


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("unit_scale", [False, True], ids=["init", "unit"])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_loss_and_gradients(variant, unit_scale, seed):
    params = oracle_model(variant, unit_scale)
    batch = random_batch(seed)
    assert_matches_oracle_loss(params, batch, unk_lookup(batch), seed)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_probabilities_of_predict_pairs(variant, monkeypatch):
    params = oracle_model(variant, unit_scale=True)
    batch = random_batch(3, count=12)
    # An output bias that labels about half the instances positive.
    margins = [np.diff(np.log(reference_probabilities(inst, params)))[0] for inst in batch]
    params.b1.data[0] += float(np.median(margins))
    split = optim.DataSplit([], batch)
    seen = spy_forward(monkeypatch)
    optim.predict_pairs(split, params, set())
    assert seen.keys() == {inst.uid for inst in batch}
    labels = set()
    for fitted, pred in seen.values():
        reference = reference_probabilities(fitted, params)
        assert_probabilities_close(pred.probabilities, reference)
        assert pred.label == int(np.argmax(reference))
        labels.add(pred.label)
    assert labels == {0, 1}
    for inst in batch:  # one instance at a time, with nothing shared
        pred = M.forward(inst, params, Rng(0))
        assert_probabilities_close(pred.probabilities, reference_probabilities(inst, params))


def dev_labels(params, dev, reference: bool) -> dict[str, int]:
    fitted = [fit_instance(inst, params.hyper.n) for inst in dev.instances]
    if reference:
        return {inst.uid: int(np.argmax(reference_probabilities(inst, params))) for inst in fitted}
    return {inst.uid: M.forward(inst, params, Rng(0)).label for inst in fitted}


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_two_epoch_run(variant, monkeypatch):
    from test_optim import synthetic_split, tiny_config  # it imports this module

    train_split, dev = synthetic_split(12), synthetic_split(8, start=12)
    config = tiny_config(variant=variant, epochs=2, dropout=0.5, l2=0.001, learning_rate=5e-3)
    report, params = optim.train(config, train_split, dev)
    pairs = optim.predict_pairs(dev, params, optim.training_relations(train_split.documents))
    labels = dev_labels(params, dev, reference=False)
    with monkeypatch.context() as patch:
        patch.setattr(M, "loss", oracle.loss)
        patch.setattr(optim, "predict_pairs", oracle.predict_pairs)
        ref_report, ref_params = optim.train(config, train_split, dev)
        ref_pairs = oracle.predict_pairs(dev, ref_params,
                                         optim.training_relations(train_split.documents))
    assert report.status == ref_report.status == "trained"
    assert len(report.epochs) == len(ref_report.epochs) == 2
    for rec, ref in zip(report.epochs, ref_report.epochs):
        assert_loss_close(rec.loss, ref.loss, RUN_LOSS_RTOL)
        assert (rec.precision, rec.recall, rec.f1) == (ref.precision, ref.recall, ref.f1)
    assert (report.best_epoch, report.best_f1) == (ref_report.best_epoch, ref_report.best_f1)
    assert pairs == ref_pairs
    assert labels == dev_labels(ref_params, dev, reference=True)
