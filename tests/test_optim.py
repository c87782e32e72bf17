import dataclasses
import gc

import numpy as np
import pytest

import oracle
from cdrex import encoders
from cdrex import model as M
from cdrex import optim
from cdrex.corpus import build_instances, build_vocab, fit_instance, parse_pubtator
from cdrex.evaluation import aggregate_document
from cdrex.optim import (
    DataSplit,
    GRID_DROPOUTS,
    GRID_FILTERS,
    GRID_LEARNING_RATES,
    NadamState,
    TrainConfig,
    default_grid,
    dev_f1,
    grid_search,
    nadam_step,
    predict_pairs,
    render_train_report,
    train,
    training_relations,
    zero_grads,
)
from cdrex.rng import Rng
from cdrex.tensor import NumericsError, Tensor, graph_nodes


# ---------------------------------------------------------------------------
# Nadam


class TestNadamStep:
    def test_zero_gradient_is_fixed_point(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = NadamState(learning_rate=0.05)
        for _ in range(10):
            x.grad = np.zeros(2)
            nadam_step([("x", x)], state)
        np.testing.assert_array_equal(x.data, [1.0, -2.0])

    def test_quadratic_converges_within_500_steps(self):
        x = Tensor(np.asarray(1.0), requires_grad=True)
        state = NadamState(learning_rate=0.05)
        for _ in range(500):
            x.grad = np.asarray(2.0 * x.data)
            nadam_step([("x", x)], state)
            if abs(float(x.data)) < 1e-3:
                break
        assert abs(float(x.data)) < 1e-3

    def test_beta1_zero_reduces_to_rmsprop_like_update(self):
        y = Tensor(np.asarray(3.0), requires_grad=True)
        state = NadamState(learning_rate=0.1, beta1=0.0)
        g = np.asarray(0.7)
        y.grad = g.copy()
        nadam_step([("y", y)], state)
        v_hat = g * g  # (1-b2)*g^2 / (1-b2^1)
        expected = 3.0 - 0.1 * g / (np.sqrt(v_hat) + state.eps)
        np.testing.assert_allclose(float(y.data), float(expected), rtol=0, atol=1e-15)

    def test_zero_learning_rate_never_changes_parameters(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        state = NadamState(learning_rate=0.0)
        for step in range(5):
            x.grad = np.array([0.3, -0.7]) * (step + 1)
            nadam_step([("x", x)], state)
        np.testing.assert_array_equal(x.data, [1.0, 2.0])

    def test_nan_gradient_aborts_naming_parameter(self):
        x = Tensor(np.asarray(1.0), requires_grad=True)
        x.grad = np.asarray(float("nan"))
        with pytest.raises(NumericsError, match="'x'"):
            nadam_step([("x", x)], NadamState())

    def test_step_counter_increments_by_one(self):
        state = NadamState()
        x = Tensor(np.asarray(1.0), requires_grad=True)
        x.grad = np.asarray(0.5)
        nadam_step([("x", x)], state)
        nadam_step([("x", x)], state)
        assert state.step == 2


def reference_nadam_step(named_params, state):
    """The expression-form update, one fresh array per operation: the
    oracle for the scratch-array `nadam_step`."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, tensor in named_params:
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        m = state.first.setdefault(name, np.zeros_like(tensor.data))
        v = state.second.setdefault(name, np.zeros_like(tensor.data))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        update = (b1 * m_hat + (1.0 - b1) * g / bias1) / (np.sqrt(v_hat) + state.eps)
        tensor.data -= state.learning_rate * update
    return state


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestNadamMatchesExpressionForm:
    SHAPES = {"scalar": (), "vector": (7,), "matrix": (5, 4), "filters": (3, 2, 4), "unused": (6,),
              "extremes": (4,)}
    # Gradients whose squares underflow to zero or near the top of the range.
    EXTREMES = np.array([1e-300, -3e-300, 1e+150, -2e+150])

    @staticmethod
    def gradient(rng: np.random.Generator, shape, step: int) -> np.ndarray:
        """Ordinary values mixed with zeros, -0.0, tiny (~1e-300) and huge
        (~1e+150) entries, whose squares underflow to subnormals or zero
        and approach the top of the float range."""
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
        kind = rng.integers(0, 5, size=shape)
        g = np.where(kind == 1, 0.0, g)
        g = np.where(kind == 2, -0.0, g)
        g = np.where(kind == 3, g * 1e-300, g)
        g = np.where(kind == 4, g * 1e+150, g)
        if step % 3 == 2:
            g = np.zeros(shape) * -1.0  # an all-(-0.0) gradient
        return np.asarray(g)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("learning_rate", [1e-4, 0.5])
    def test_bit_identical_to_reference(self, seed, learning_rate):
        rng = np.random.default_rng(seed)
        init = {name: np.asarray(rng.normal(size=shape)) for name, shape in self.SHAPES.items()}
        init["vector"][:3] = [0.0, -0.0, 1e-300]
        sides = []
        for _ in range(2):
            named = [(name, Tensor(data.copy(), requires_grad=True)) for name, data in init.items()]
            sides.append((named, NadamState(learning_rate=learning_rate)))
        (fast, fast_state), (ref, ref_state) = sides
        for step in range(8):
            for (name, a), (_, b) in zip(fast, ref):
                if name == "unused":  # never reached by backward: no gradient
                    a.grad = b.grad = None
                elif name == "extremes":
                    a.grad, b.grad = self.EXTREMES * (step + 1), self.EXTREMES * (step + 1)
                else:
                    a.grad = self.gradient(rng, a.shape, step)
                    b.grad = a.grad.copy()
            nadam_step(fast, fast_state)
            reference_nadam_step(ref, ref_state)
            assert fast_state.step == ref_state.step == step + 1
            for (name, a), (_, b) in zip(fast, ref):
                assert same_bits(a.data, b.data), (step, name)
                assert same_bits(fast_state.first[name], ref_state.first[name]), (step, name)
                assert same_bits(fast_state.second[name], ref_state.second[name]), (step, name)
        # The extreme entries reached the ranges they are meant to cover.
        m, v = fast_state.first["extremes"], fast_state.second["extremes"]
        assert 0.0 < abs(m[0]) < 1e-299 and v[0] == 0.0 and v[2] > 1e+290


# ---------------------------------------------------------------------------
# Synthetic corpus helpers


def synthetic_block(i: int, positive: bool) -> str:
    pmid = str(1000 + i)
    chem = f"chem{i % 3}"
    dis = f"dis{i % 4}"
    verb = "induced" if positive else "accompanied"
    title = f"{chem} {verb} {dis} today."
    abstract = "Plain filler sentence here."
    lines = [f"{pmid}|t|{title}", f"{pmid}|a|{abstract}"]
    text = title + " " + abstract
    c0 = text.index(chem)
    d0 = text.index(dis)
    lines.append(f"{pmid}\t{c0}\t{c0 + len(chem)}\t{chem}\tChemical\tC{i % 3}")
    lines.append(f"{pmid}\t{d0}\t{d0 + len(dis)}\t{dis}\tDisease\tD{i % 4}")
    if positive:
        lines.append(f"{pmid}\tCID\tC{i % 3}\tD{i % 4}")
    return "\n".join(lines)


def synthetic_split(count: int, start: int = 0) -> DataSplit:
    text = "\n\n".join(synthetic_block(start + i, (start + i) % 2 == 0)
                       for i in range(count))
    docs = parse_pubtator(text)
    instances = [inst for doc in docs for inst in build_instances(doc)]
    return DataSplit(docs, instances)


def fail_nadam_after(monkeypatch, steps: int, learning_rate: float | None = None) -> None:
    """Make every Nadam update after the first `steps` of a run fail as on
    a NaN gradient; with `learning_rate`, only in runs at that rate."""
    real = optim.nadam_step

    def nadam_step(named, state):
        if state.step >= steps and (learning_rate is None or state.learning_rate == learning_rate):
            raise NumericsError("NaN gradient for parameter 'out.w1'")
        return real(named, state)

    monkeypatch.setattr(optim, "nadam_step", nadam_step)


def tiny_config(**overrides) -> TrainConfig:
    base = dict(variant="cnn", learning_rate=5e-4, filters=8, dropout=0.0, l2=0.0,
                epochs=3, batch_size=4, seed=11, window=2,
                word_dim=10, pos_dim=3, char_dim=4, char_filters=4, char_window=2,
                lstm_units=3)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# Training loop


class TestTrain:
    def test_zero_epochs_reports_untrained(self):
        split = synthetic_split(6)
        report, params = train(tiny_config(epochs=0), split, split)
        assert report.status == "untrained"
        assert report.best_epoch is None and report.model_path is None
        assert params is None

    def test_identical_seeds_identical_loss_sequences(self):
        split = synthetic_split(8)
        r1, _ = train(tiny_config(dropout=0.25), split, None)
        r2, _ = train(tiny_config(dropout=0.25), split, None)
        assert [e.loss for e in r1.epochs] == [e.loss for e in r2.epochs]

    def test_different_seeds_differ(self):
        split = synthetic_split(8)
        r1, _ = train(tiny_config(), split, None)
        r2, _ = train(tiny_config(seed=99), split, None)
        assert [e.loss for e in r1.epochs] != [e.loss for e in r2.epochs]

    def test_best_f1_is_max_over_epochs(self):
        split = synthetic_split(10)
        report, _ = train(tiny_config(epochs=4), split, synthetic_split(6, start=20))
        f1s = [e.f1 for e in report.epochs]
        assert report.best_f1 == max(f1s)
        assert report.epochs[report.best_epoch - 1].f1 == report.best_f1
        # Earlier epoch wins ties.
        first_best = next(i + 1 for i, f in enumerate(f1s) if f == report.best_f1)
        assert report.best_epoch == first_best

    def test_model_file_written_and_loadable(self, tmp_path):
        split = synthetic_split(6)
        path = tmp_path / "best.model"
        report, params = train(tiny_config(epochs=2), split, split, model_path=path)
        assert report.model_path == str(path)
        loaded = M.load_model(path)
        for (name, a), (_, b) in zip(loaded.named_tensors(), params.named_tensors()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_dev_failure_preserves_partial_report(self):
        split = synthetic_split(6)
        broken_dev = synthetic_split(4, start=40)
        # Adjacent entities, one past the last token: the dev forward raises.
        # (Entities further apart than the model's n are labelled 0 instead.)
        inst = broken_dev.instances[0]
        broken_dev.instances[0] = dataclasses.replace(inst, i1=len(inst.tokens) - 1,
                                                      i2=len(inst.tokens))
        report, _ = train(tiny_config(epochs=3), split, broken_dev)
        assert report.status.startswith("aborted")
        assert report.epochs == []  # failed during the first dev evaluation

    def test_training_failure_returns_partial_report(self, monkeypatch, tmp_path):
        # One minibatch per epoch: the update of epoch 2 fails.
        fail_nadam_after(monkeypatch, steps=1)
        split = synthetic_split(6)
        path = tmp_path / "dev.model"
        report, _ = train(tiny_config(batch_size=8), split, split, model_path=path)
        assert report.status == "aborted: NaN gradient for parameter 'out.w1'"
        assert [e.epoch for e in report.epochs] == [1]
        assert report.best_epoch == 1 and report.model_path == str(path)
        # Without a dev split there is no selected epoch, so no model file.
        path = tmp_path / "nodev.model"
        report, _ = train(tiny_config(batch_size=8), split, None, model_path=path)
        assert report.status.startswith("aborted") and report.model_path is None
        assert not path.exists()

    def test_loss_strictly_decreases_over_first_steps(self):
        # Broken gradients would show up as a non-decreasing frozen-batch loss.
        split = synthetic_split(8)
        cfg = tiny_config()
        vocab = build_vocab(split.documents, split.instances)
        params = M.init_model(vocab, "cnn", Rng(3), m=8, rho=0.0, l2=0.0,
                              learning_rate=5e-4, k=2, word_dim=10, pos_dim=3)
        named = params.named_tensors()
        from cdrex.optim import NadamState as NS
        state = NS(learning_rate=5e-4)
        batch = split.instances[:6]
        values = []
        for _ in range(6):
            zero_grads(named)
            loss = M.loss(batch, params, Rng(0))
            loss.backward()
            values.append(loss.item())
            nadam_step(named, state)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_one_step_updates_every_embedding_table(self):
        split = synthetic_split(6)
        vocab = build_vocab(split.documents, split.instances)
        params = M.init_model(vocab, "cnn+cnnchar", Rng(3), m=4, rho=0.0, l2=0.0,
                              learning_rate=5e-4, k=2, word_dim=6, pos_dim=3,
                              char_dim=4, char_filters=3, char_window=2)
        named = params.named_tensors()
        before = {name: t.data.copy() for name, t in named}
        zero_grads(named)
        M.loss(split.instances[:2], params, Rng(0)).backward()
        nadam_step(named, NadamState(learning_rate=5e-4))
        for table in ("tables.word", "tables.pos1", "tables.pos2", "tables.char"):
            changed = np.abs(dict(named)[table].data - before[table]).sum(axis=1)
            assert (changed > 0).any(), table

    def test_overfits_separable_corpus(self):
        split = synthetic_split(20)
        cfg = tiny_config(epochs=40, learning_rate=5e-4, filters=16)
        _, params = train(cfg, split, None)
        correct = sum(
            M.forward(inst, params, Rng(0)).label == inst.label
            for inst in split.instances)
        assert correct / len(split.instances) >= 0.99


# ---------------------------------------------------------------------------
# Grid search


class TestGridSearch:
    def test_default_grid_has_50_configurations(self):
        grid = default_grid(TrainConfig())
        assert len(grid) == 50
        combos = {(c.learning_rate, c.filters, c.dropout) for c in grid}
        assert combos == {(lr, m, rho) for lr in GRID_LEARNING_RATES
                          for m in GRID_FILTERS for rho in GRID_DROPOUTS}

    def test_single_point_grid_returns_it(self):
        split = synthetic_split(6)
        cfg = tiny_config(epochs=2)
        result = grid_search([cfg], split, split, base_seed=5)
        assert result.best_config.learning_rate == cfg.learning_rate
        assert result.best_report.best_f1 is not None
        assert len(result.reports) == 1

    def test_trained_config_beats_untrained(self):
        split = synthetic_split(8)
        untrained = tiny_config(epochs=0)
        trained = tiny_config(epochs=2, learning_rate=1e-4)
        result = grid_search([untrained, trained], split, split, base_seed=5)
        assert result.best_config.epochs == 2

    def test_tie_breaks_toward_smaller_config(self):
        split = synthetic_split(6)
        # One epoch at negligible learning rates: both models score the same.
        a = tiny_config(epochs=1, learning_rate=1e-12)
        b = tiny_config(epochs=1, learning_rate=5e-13)
        result = grid_search([a, b], split, split, base_seed=5)
        assert result.best_config.learning_rate == 5e-13

    def test_aborted_config_never_wins(self, monkeypatch):
        # Both configurations score the same dev F1, so the tie-break would
        # pick the smaller learning rate, whose run aborts in epoch 2.
        fail_nadam_after(monkeypatch, steps=1, learning_rate=5e-13)
        split = synthetic_split(6)
        grid = [tiny_config(epochs=2, batch_size=8, learning_rate=lr) for lr in (1e-12, 5e-13)]
        result = grid_search(grid, split, split, base_seed=5)
        aborted = result.reports[1]
        assert aborted.status.startswith("aborted") and aborted.best_f1 == result.best_report.best_f1
        assert result.best_config.learning_rate == 1e-12

    def test_failures_recorded_and_skipped(self):
        split = synthetic_split(6)
        bad = tiny_config(variant="nonsense")
        good = tiny_config(epochs=1)
        result = grid_search([bad, good], split, split, base_seed=5)
        assert result.best_config.variant == "cnn"
        assert len(result.failures) == 1
        assert "nonsense" in result.failures[0][1]

    def test_all_failures_raise(self):
        split = synthetic_split(6)
        with pytest.raises(RuntimeError):
            grid_search([tiny_config(variant="nonsense")], split, split, base_seed=5)

    def test_per_config_seeds_are_deterministic(self):
        split = synthetic_split(6)
        cfg = tiny_config(epochs=1)
        r1 = grid_search([cfg], split, split, base_seed=5)
        r2 = grid_search([cfg], split, split, base_seed=5)
        assert r1.best_config.seed == r2.best_config.seed
        assert [e.loss for e in r1.best_report.epochs] == \
            [e.loss for e in r2.best_report.epochs]


# ---------------------------------------------------------------------------
# Reports and prediction helpers


def test_render_train_report_round_trips_fields():
    split = synthetic_split(6)
    report, _ = train(tiny_config(epochs=2), split, split)
    text = render_train_report(report)
    lines = text.splitlines()
    assert lines[0].startswith("config variant=cnn")
    assert lines[1] == "status trained"
    assert lines[5] == "epoch\tloss\tP\tR\tF1"
    assert len(lines) == 6 + 2


def test_predict_pairs_covers_every_document():
    split = synthetic_split(6)
    _, params = train(tiny_config(epochs=1), split, None)
    pairs = predict_pairs(split, params, training_relations(split.documents))
    assert set(pairs) == {doc.pmid for doc in split.documents}


def inference_model(variant: str, split: DataSplit) -> M.ModelParams:
    """A small model with unit-scale parameters and its output bias set
    so that about half the split's instances are labelled positive."""
    vocab = build_vocab(split.documents, split.instances)
    params = M.init_model(vocab, variant, Rng(3), m=6, k=2, word_dim=10, pos_dim=3,
                          char_dim=4, char_filters=4, char_window=2, lstm_units=3)
    fill = Rng(4)
    for _, t in params.named_tensors():
        t.data[:] = fill.fill_uniform(t.shape, -0.5, 0.5)
    margins = [np.diff(np.log(M.forward(fit_instance(inst, vocab.n), params, Rng(0))
                              .probabilities))[0] for inst in split.instances]
    params.b1.data[0] += float(np.median(margins))
    return params


class TestGraphFreeInference:
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_predict_pairs_matches_graph_oracle(self, variant, monkeypatch):
        split = synthetic_split(8)
        params = inference_model(variant, split)
        seen = {}
        real_forward = M.forward

        def forward(inst, *args, **kwargs):
            seen[inst.uid] = (inst, real_forward(inst, *args, **kwargs))
            return seen[inst.uid][1]

        monkeypatch.setattr(M, "forward", forward)
        train_rel = training_relations(split.documents[:4])
        pairs = predict_pairs(split, params, train_rel)
        assert set(seen) == {inst.uid for inst in split.instances}
        labels = {}
        for uid, (fitted, pred) in seen.items():
            # The reference: a per-instance encoding with the graph enabled,
            # characters through the per-word, per-step graph.
            with oracle.per_word_graph():
                reference = M.class_probabilities(fitted, params, Rng(0), training=False)
            assert reference.requires_grad
            assert np.array_equal(pred.probabilities, reference.data)
            labels[uid] = int(np.argmax(reference.data))
            assert pred.label == labels[uid]
        assert set(labels.values()) == {0, 1}
        for doc in split.documents:
            instances = [inst for inst in split.instances if inst.pmid == doc.pmid]
            expected = aggregate_document(doc, instances, {i.uid: labels[i.uid] for i in instances},
                                          train_rel)
            assert pairs[doc.pmid] == expected

    @pytest.mark.parametrize("variant", ["cnn+cnnchar", "cnn+lstmchar"])
    def test_each_form_encoded_once_per_call(self, variant, monkeypatch):
        split = synthetic_split(8)
        params = inference_model(variant, split)
        encoded = []
        real_encode = encoders.encode_chars

        def encode_chars(word, *args):
            encoded.append(word)
            return real_encode(word, *args)

        monkeypatch.setattr(encoders, "encode_chars", encode_chars)
        n = params.hyper.n
        forms = set()
        for inst in split.instances:
            tokens = fit_instance(inst, n).tokens
            forms |= set(tokens + [encoders.PAD_WORD] * (n - len(tokens)))
        predict_pairs(split, params, set())
        assert sorted(encoded) == sorted(forms)
        # Nothing is kept between calls: parameters may change in between.
        predict_pairs(split, params, set())
        assert sorted(encoded) == sorted(2 * list(forms))

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_loss_gradients_unchanged_by_inference(self, variant):
        split = synthetic_split(8)
        params = inference_model(variant, split)
        named = params.named_tensors()
        batch = [fit_instance(inst, params.hyper.n) for inst in split.instances[:4]]

        def gradients():
            zero_grads(named)
            M.loss(batch, params, Rng(0)).backward()
            return {name: t.grad.copy() for name, t in named}

        before = gradients()
        predict_pairs(split, params, set())
        after = gradients()
        assert set(after) == {name for name, _ in named}
        for name, _ in named:
            assert np.array_equal(after[name], before[name]), name


class TestGcPause:
    """A minibatch step leaves the cyclic collector as its caller set it;
    reference counting alone frees the training graph, which has no
    reference cycles."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_step_leaves_the_collector_alone(self, monkeypatch, enabled):
        seen = []
        real_loss, real_nadam = M.loss, optim.nadam_step

        def loss(*args, **kwargs):
            seen.append(gc.isenabled())
            return real_loss(*args, **kwargs)

        def nadam(named, state):
            seen.append(gc.isenabled())
            return real_nadam(named, state)

        monkeypatch.setattr(M, "loss", loss)
        monkeypatch.setattr(optim, "nadam_step", nadam)
        if not enabled:
            gc.disable()
        try:
            report, _ = train(tiny_config(epochs=1), synthetic_split(6), None)
            assert report.status == "trained"
            assert seen == [enabled] * 4
            assert gc.isenabled() == enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_training_graph_has_no_reference_cycles(self, variant):
        split = synthetic_split(8)
        params = inference_model(variant, split)
        named = params.named_tensors()
        batch = [fit_instance(inst, params.hyper.n) for inst in split.instances[:4]]
        gc.collect()
        gc.disable()
        try:
            zero_grads(named)
            root = M.loss(batch, params, Rng(0))
            root.backward()
            assert len(graph_nodes(root)) > 2 * len(named)
            del root
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_best_snapshot_is_reused_across_improvements(monkeypatch):
    # Dev F1 improves in every epoch; each improvement overwrites the one
    # snapshot in place rather than allocating another.
    scores = iter([10.0, 20.0, 30.0])
    monkeypatch.setattr(optim, "dev_f1", lambda *args: (0.0, 0.0, next(scores)))
    snapshots = []
    real_snapshot = optim._snapshot

    def snapshot(params, best):
        out = real_snapshot(params, best)
        snapshots.append(out)
        return out

    monkeypatch.setattr(optim, "_snapshot", snapshot)
    split = synthetic_split(6)
    report, params = train(tiny_config(epochs=3), split, split)
    assert report.best_epoch == 3
    assert len(snapshots) == 3 and all(s is snapshots[0] for s in snapshots)
    for name, t in params.named_tensors():
        assert np.array_equal(snapshots[0][name], t.data), name


def test_dev_f1_perfect_when_predictions_match_gold():
    split = synthetic_split(6)
    _, params = train(tiny_config(epochs=1), split, None)
    # With rule (ii) covering every training relation and no false
    # positives possible (negative docs share no gold pairs), a model
    # predicting nothing still finds pairs via co-occurrence.
    p, r, f1 = dev_f1(split, params, training_relations(split.documents))
    assert 0.0 <= f1 <= 100.0
