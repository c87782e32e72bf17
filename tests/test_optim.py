import contextlib
import dataclasses
import gc
import logging
import threading

import numpy as np
import pytest

import oracle
from cdrex import encoders
from cdrex import model as M
from cdrex import optim
from cdrex import tensor as T
from cdrex.corpus import build_instances, build_vocab, fit_instance, parse_pubtator
from cdrex.evaluation import aggregate_document, prf1
from cdrex.optim import (
    DataSplit,
    GRID_DROPOUTS,
    GRID_FILTERS,
    GRID_LEARNING_RATES,
    NADAM_BLOCK,
    NADAM_DENSE_SHARE,
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
from test_tolerance_oracle import assert_probabilities_close


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

    def test_first_step_from_zero_moments_has_closed_form(self):
        y = Tensor(np.asarray(3.0), requires_grad=True)
        state = NadamState(learning_rate=0.1)
        g = np.asarray(0.7)
        y.grad = g.copy()
        nadam_step([("y", y)], state)
        m_hat = g  # (1-b1)*g / (1-b1^1); likewise v_hat = g^2
        expected = 3.0 - 0.1 * (optim.BETA1 * m_hat + g) / (abs(g) + optim.EPS)
        np.testing.assert_allclose(float(y.data), float(expected), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rate", [-0.01, np.nan, np.inf, -np.inf])
    def test_negative_or_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning rate"):
            NadamState(learning_rate=rate)

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
    b1, b2 = optim.BETA1, optim.BETA2
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
        update = (b1 * m_hat + (1.0 - b1) * g / bias1) / (np.sqrt(v_hat) + optim.EPS)
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


class TestBlockedNadam:
    """`nadam_step` against the whole-array step it replaced."""

    SIZES = (1, NADAM_BLOCK - 1, NADAM_BLOCK, NADAM_BLOCK + 1)

    @staticmethod
    def assert_same(fast, fast_state, ref, ref_state, step):
        assert fast_state.step == ref_state.step
        for (name, a), (_, b) in zip(fast, ref):
            assert same_bits(a.data, b.data), (step, name)
            assert same_bits(fast_state.first[name], ref_state.first[name]), (step, name)
            assert same_bits(fast_state.second[name], ref_state.second[name]), (step, name)

    def test_sizes_around_the_block_match_the_oracle(self):
        rng = np.random.default_rng(7)
        init = {f"p{size}": rng.normal(size=size) for size in self.SIZES}
        init["matrix"] = rng.normal(size=(3, NADAM_BLOCK // 2 + 1))  # two blocks and a tail
        fast, ref = ([(name, Tensor(data.copy(), requires_grad=True)) for name, data in init.items()]
                     for _ in range(2))
        fast_state, ref_state = NadamState(learning_rate=0.01), NadamState(learning_rate=0.01)
        for step in range(5):
            for (_, a), (_, b) in zip(fast, ref):
                a.grad = TestNadamMatchesExpressionForm.gradient(rng, a.shape, step)
                b.grad = a.grad.copy()
            nadam_step(fast, fast_state)
            oracle.nadam_step(ref, ref_state)
            self.assert_same(fast, fast_state, ref, ref_state, step)

    def test_cnn_model_matches_the_oracle(self):
        split = synthetic_split(8)
        vocab = build_vocab(split.documents, split.instances)
        fast_params, ref_params = (M.init_model(vocab, "cnn", Rng(5)) for _ in range(2))
        fast, ref = fast_params.named_tensors(), ref_params.named_tensors()
        assert fast_params.conv_filters.data.size > 2 * NADAM_BLOCK
        fast_state, ref_state = NadamState(learning_rate=0.01), NadamState(learning_rate=0.01)
        batch = [fit_instance(inst, vocab.n) for inst in split.instances]
        for step in range(4):
            zero_grads(fast)
            M.loss(batch, fast_params, Rng(step)).backward()
            for (_, a), (_, b) in zip(fast, ref):
                b.grad = a.grad_buffer().copy()
            nadam_step(fast, fast_state)
            oracle.nadam_step(ref, ref_state)
            self.assert_same(fast, fast_state, ref, ref_state, step)

    def test_nan_in_the_last_block_leaves_everything_untouched(self):
        rng = np.random.default_rng(8)
        named = [(f"p{size}", Tensor(rng.normal(size=size), requires_grad=True))
                 for size in self.SIZES]
        state = NadamState(learning_rate=0.01)
        for _, tensor in named:
            tensor.grad = rng.normal(size=tensor.shape)
        nadam_step(named, state)
        before = {name: (t.data.copy(), state.first[name].copy(), state.second[name].copy())
                  for name, t in named}
        for _, tensor in named:
            tensor.grad = rng.normal(size=tensor.shape)
        named[-1][1].grad[-1] = np.nan
        with pytest.raises(NumericsError, match=repr(named[-1][0])):
            nadam_step(named, state)
        assert state.step == 1
        for name, tensor in named:
            data, first, second = before[name]
            assert same_bits(tensor.data, data), name
            assert same_bits(state.first[name], first), name
            assert same_bits(state.second[name], second), name


class TestNadamReachedRows:
    """The row path of `nadam_step` against the whole-array oracle, on
    row-sparse gradients."""

    @staticmethod
    def sides(init: dict[str, np.ndarray], learning_rate: float):
        return [([(name, Tensor(data.copy(), requires_grad=True)) for name, data in init.items()],
                 NadamState(learning_rate)) for _ in range(2)]

    @staticmethod
    def row_sparse(rng, shape, rows) -> np.ndarray:
        """A gradient whose leading-axis rows outside `rows` are all
        +-0.0, and whose rows in it mix ordinary, zero, tiny and huge
        values."""
        g = np.zeros(shape) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        for r in rows:
            g[r] = TestNadamMatchesExpressionForm.gradient(rng, shape[1:], 0)
        return g

    def step_both(self, sides, grads):
        (fast, fast_state), (ref, ref_state) = sides
        for (name, a), (_, b) in zip(fast, ref):
            a.grad, b.grad = grads[name], grads[name].copy()
        nadam_step(fast, fast_state)
        oracle.nadam_step(ref, ref_state)
        assert fast_state.step == ref_state.step
        for (name, a), (_, b) in zip(fast, ref):  # bytes, so NaNs compare too
            assert a.data.tobytes() == b.data.tobytes(), (fast_state.step, name)
            assert fast_state.first[name].tobytes() == ref_state.first[name].tobytes(), name
            assert fast_state.second[name].tobytes() == ref_state.second[name].tobytes(), name

    def test_rows_reached_at_different_steps_match_the_oracle(self):
        rng = np.random.default_rng(11)
        shapes = {"table": (40, 3), "filters": (12, 2, 5), "wide": (5, NADAM_BLOCK + 5),
                  "vector": (6,), "scalar": ()}
        init = {name: np.asarray(rng.normal(size=shape)) for name, shape in shapes.items()}
        init["table"][30:] = -0.0  # never reached: must stay -0.0
        sides = self.sides(init, learning_rate=0.01)
        reach = {"table": [[3], [], [3, 17], [25, 4], [], [0]], "filters": [[5], [], [1, 11]] * 2,
                 "wide": [[1], [], [1], [], [3], []]}
        for step in range(6):
            grads = {name: self.row_sparse(rng, shapes[name], reach[name][step]) for name in reach}
            grads["vector"] = rng.normal(size=6)
            grads["scalar"] = np.asarray(-0.0 if step % 2 else rng.normal())
            self.step_both(sides, grads)
        state = sides[0][1]
        assert sorted(state.reached) == ["filters", "table", "wide"]
        assert np.flatnonzero(state.reached["table"]).tolist() == [0, 3, 4, 17, 25]
        assert same_bits(sides[0][0][0][1].data[30:], np.full((10, 3), -0.0))

    def test_a_table_crossing_the_share_matches_the_oracle(self):
        rng = np.random.default_rng(12)
        rows = 10
        sides = self.sides({"table": rng.normal(size=(rows, 4))}, learning_rate=0.05)
        state = sides[0][1]
        on_row_path = []
        for step in range(6):
            grads = {"table": self.row_sparse(rng, (rows, 4), [2 * step % rows, (2 * step + 1) % rows])}
            self.step_both(sides, grads)
            on_row_path.append("table" in state.reached)
        below = int(NADAM_DENSE_SHARE * rows) // 2  # steps before the share: two new rows a step
        assert on_row_path == [True] * below + [False] * (6 - below)

    @pytest.mark.parametrize("share", [0.25, 0.75])
    def test_the_row_path_runs_below_the_share_and_the_whole_array_above(self, monkeypatch,
                                                                         share):
        rows, cols = 100, 8
        sizes = []
        real = optim._update

        def update(flat, *args):
            sizes.append(flat[0].size)
            return real(flat, *args)

        monkeypatch.setattr(optim, "_update", update)
        table = Tensor(np.ones((rows, cols)), requires_grad=True)
        table.grad = np.zeros((rows, cols))
        table.grad[:int(share * rows)] = 1.0
        state = NadamState()
        nadam_step([("table", table)], state)
        if share < NADAM_DENSE_SHARE:
            assert "table" in state.reached and sum(sizes) == int(share * rows) * cols
        else:
            assert "table" not in state.reached and sizes == [rows * cols]

    def test_nan_in_a_row_never_reached_aborts_with_nothing_written(self):
        rng = np.random.default_rng(14)
        shapes = {"table": (20, 3), "bias": (3,), "later": (20, 3)}
        named = [(name, Tensor(rng.normal(size=shape), requires_grad=True))
                 for name, shape in shapes.items()]
        state = NadamState(learning_rate=0.01)
        for (name, tensor), rows in zip(named, ([2, 5], None, [2, 5])):
            tensor.grad = rng.normal(size=3) if rows is None else self.row_sparse(rng, (20, 3), rows)
        nadam_step(named, state)
        before = {name: (t.data.copy(), state.first[name].copy(), state.second[name].copy())
                  for name, t in named}
        records = {name: mask.copy() for name, mask in state.reached.items()}
        for (name, tensor), rows in zip(named, ([2, 9], None, [2])):
            tensor.grad = rng.normal(size=3) if rows is None else self.row_sparse(rng, (20, 3), rows)
        named[2][1].grad[11, 1] = np.nan
        with pytest.raises(NumericsError, match="'later'"):
            nadam_step(named, state)
        assert state.step == 1 and sorted(records) == ["later", "table"]
        for name, mask in records.items():
            assert np.array_equal(state.reached[name], mask) and not mask[9] and not mask[11]
        for name, tensor in named:
            data, first, second = before[name]
            assert same_bits(tensor.data, data), name
            assert same_bits(state.first[name], first), name
            assert same_bits(state.second[name], second), name


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


def split_with_wide_pair(count: int, start: int = 0) -> tuple[DataSplit, str]:
    """`synthetic_split(count, start)` plus one document whose entities
    span 10 tokens, with a gold pair (C9, D9) no other document has;
    returns the split and that pair's uid."""
    pmid = str(1000 + start + count)
    title = "chem0 induced a rare and very severe form of dis0 today."
    dis = title.index("dis0")
    wide = "\n".join([f"{pmid}|t|{title}", f"{pmid}|a|Plain filler sentence here.",
                      f"{pmid}\t0\t5\tchem0\tChemical\tC9",
                      f"{pmid}\t{dis}\t{dis + 4}\tdis0\tDisease\tD9", f"{pmid}\tCID\tC9\tD9"])
    split = synthetic_split(count, start)
    doc = parse_pubtator(wide)[0]
    (inst,) = build_instances(doc)
    assert abs(inst.i1 - inst.i2) + 1 == 10
    return DataSplit(split.documents + [doc], split.instances + [inst]), inst.uid


def skip_warnings(caplog, uid: str) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING and r.getMessage().startswith(f"instance {uid}:")]


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

    def test_window_wider_than_n_is_a_value_error(self):
        split = synthetic_split(6)
        assert build_vocab(split.documents, split.instances).n == 5
        with pytest.raises(ValueError, match=r"window k=40 is wider than the n=5 rows"):
            train(tiny_config(window=40, epochs=1), split, split)

    @pytest.mark.parametrize("rate", [-0.01, np.nan, np.inf, -np.inf])
    def test_negative_or_non_finite_learning_rate_is_a_value_error(self, monkeypatch, tmp_path,
                                                                    rate):
        steps = []
        monkeypatch.setattr(optim, "nadam_step", lambda named, state: steps.append(state))
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match="learning rate"):
            train(tiny_config(learning_rate=rate), synthetic_split(6), None, model_path=path)
        assert steps == [] and not path.exists()

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
        # (Entities further apart than the model's n are skipped instead.)
        inst = broken_dev.instances[0]
        broken_dev.instances[0] = dataclasses.replace(inst, i1=len(inst.tokens) - 1,
                                                      i2=len(inst.tokens))
        report, params = train(tiny_config(epochs=3), split, broken_dev)
        assert report.status.startswith("aborted")
        assert report.epochs == []  # failed during the first dev evaluation
        # The failed inference leaves graph recording on for training.
        batch = [fit_instance(inst, params.hyper.n) for inst in split.instances]
        loss = M.loss(batch, params, Rng(0))
        assert loss.requires_grad and len(graph_nodes(loss)) > len(params.named_tensors())

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

    def test_training_pair_wider_than_n_is_skipped_with_one_warning(self, caplog, monkeypatch):
        split, uid = split_with_wide_pair(6)
        trained = []
        real_loss = M.loss

        def loss(batch, *args, **kwargs):
            trained.extend(inst.uid for inst in batch)
            return real_loss(batch, *args, **kwargs)

        monkeypatch.setattr(M, "loss", loss)
        with caplog.at_level(logging.WARNING):
            report, params = train(tiny_config(n_max=5, epochs=2), split, None)
        assert report.status == "trained" and params.hyper.n == 5
        assert skip_warnings(caplog, uid) == [
            f"instance {uid}: entities span 10 tokens, more than the model's n=5; skipped"]
        assert sorted(trained) == sorted(2 * [i.uid for i in split.instances if i.uid != uid])

    def test_no_training_pair_fits_in_n(self):
        # The synthetic pairs' entities span 3 tokens.
        with pytest.raises(ValueError, match="n=2"):
            train(tiny_config(n_max=2, epochs=1), synthetic_split(4), None)

    def test_dev_pair_wider_than_n_warns_once_per_run(self, caplog):
        dev, uid = split_with_wide_pair(4, start=20)
        with caplog.at_level(logging.WARNING):
            report, _ = train(tiny_config(epochs=3), synthetic_split(8), dev)
        assert len(report.epochs) == 3
        assert len(skip_warnings(caplog, uid)) == 1

    def test_dev_scores_count_a_skipped_pair_as_labelled_0(self):
        dev, uid = split_with_wide_pair(4, start=20)
        train_split = synthetic_split(8)
        report, params = train(tiny_config(epochs=1), train_split, dev)
        n = params.hyper.n
        # The scoring rule before pairs wider than n were skipped: label 0.
        train_rel = training_relations(train_split.documents)
        predicted = {}
        for doc in dev.documents:
            instances = [i for i in dev.instances if i.pmid == doc.pmid]
            labels = {i.uid: 0 if i.uid == uid else
                      M.forward(fit_instance(i, n), params, Rng(0)).label for i in instances}
            predicted[doc.pmid] = aggregate_document(doc, instances, labels, train_rel)
        expected = prf1({doc.pmid: set(doc.gold_cid) for doc in dev.documents}, predicted)
        record = report.epochs[0]
        assert (record.precision, record.recall, record.f1) == expected
        assert dev_f1(dev, params, train_rel) == expected
        assert expected[1] < 100.0  # the skipped gold pair is missed

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


def inference_model(variant: str, split: DataSplit, seed: int = 4) -> M.ModelParams:
    """A small model with unit-scale parameters drawn from `seed` and its
    output bias set so that about half the split's instances are labelled
    positive."""
    vocab = build_vocab(split.documents, split.instances)
    params = M.init_model(vocab, variant, Rng(3), m=6, k=2, word_dim=10, pos_dim=3,
                          char_dim=4, char_filters=4, char_window=2, lstm_units=3)
    fill = Rng(seed)
    for _, t in params.named_tensors():
        t.data[:] = fill.fill_uniform(t.shape, -0.5, 0.5)
    margins = [np.diff(np.log(M.forward(fit_instance(inst, vocab.n), params, Rng(0))
                              .probabilities))[0] for inst in split.instances]
    params.b1.data[0] += float(np.median(margins))
    return params


def spy_encode_chars(monkeypatch) -> list[tuple[str, ...]]:
    """The forms of every `encoders.encode_chars` call from here on."""
    encoded = []
    real = encoders.encode_chars

    def encode_chars(forms, *args):
        encoded.append(forms)
        return real(forms, *args)

    monkeypatch.setattr(encoders, "encode_chars", encode_chars)
    return encoded


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
                reference = oracle.class_probabilities(fitted, params, Rng(0), training=False)
            assert reference.requires_grad
            assert_probabilities_close(pred.probabilities, reference.data)
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
        encoded = spy_encode_chars(monkeypatch)
        n = params.hyper.n
        forms = set()
        for inst in split.instances:
            tokens = fit_instance(inst, n).tokens
            forms |= set(tokens + [encoders.PAD_WORD] * (n - len(tokens)))
        predict_pairs(split, params, set())
        assert len(encoded) == 1  # one call for the whole split
        assert sorted(encoded[0]) == sorted(forms)
        # Nothing is kept between calls: parameters may change in between.
        predict_pairs(split, params, set())
        assert encoded == 2 * encoded[:1]

    @pytest.mark.parametrize("variant", ["cnn+cnnchar", "cnn+lstmchar"])
    def test_split_with_no_instance_that_fits(self, variant, monkeypatch, caplog):
        params = inference_model(variant, synthetic_split(8))
        wide, uid = split_with_wide_pair(0, start=30)
        assert params.hyper.n < 10
        encoded = spy_encode_chars(monkeypatch)
        with caplog.at_level(logging.WARNING):
            pairs = predict_pairs(wide, params, set())
        assert pairs == {wide.documents[0].pmid: set()}
        assert encoded == []
        assert len(skip_warnings(caplog, uid)) == 1

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


def spy_forward(monkeypatch) -> dict[str, bytes]:
    """uid -> probability bytes of every `model.forward` call from here on."""
    seen = {}
    real = M.forward

    def forward(inst, *args, **kwargs):
        pred = real(inst, *args, **kwargs)
        seen[inst.uid] = pred.probabilities.copy()
        return pred

    monkeypatch.setattr(M, "forward", forward)
    return seen


def other_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t is not threading.main_thread()}


class TestPredictPairsSerialLoop:
    """`predict_pairs` against the serial per-instance loop of the oracle,
    and its failures, on the calling thread."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_equals_the_serial_loop(self, variant, seed, monkeypatch):
        split = synthetic_split(12)
        params = inference_model(variant, split, seed)
        train_rel = training_relations(split.documents[:4])
        reference = oracle.predict_pairs(split, params, train_rel)
        seen = spy_forward(monkeypatch)
        params.tables.word_rows.clear()
        pairs = predict_pairs(split, params, train_rel)
        assert pairs == reference
        assert seen.keys() == {inst.uid for inst in split.instances}
        for inst in split.instances:
            expected = oracle.class_probabilities(inst, params, None, training=False).data
            assert_probabilities_close(seen[inst.uid], expected)

    def test_earliest_failure_raised_on_the_calling_thread(self, monkeypatch):
        split = synthetic_split(12)
        params = inference_model("cnn", split)
        uids = [inst.uid for inst in split.instances]
        failing = {uids[3], uids[7]}
        real = M.forward

        def forward(inst, *args, **kwargs):
            if inst.uid in failing:
                raise RuntimeError(inst.uid)
            return real(inst, *args, **kwargs)

        monkeypatch.setattr(M, "forward", forward)
        before = other_threads()
        w = Tensor(np.ones(2), requires_grad=True)
        for attempt in range(4):
            recording = attempt % 2 == 0  # the caller's grad mode
            with contextlib.nullcontext() if recording else T.no_grad():
                with pytest.raises(RuntimeError) as caught:
                    predict_pairs(split, params, set())
                assert str(caught.value) == uids[3]
                assert other_threads() <= before
                assert T.add(w, w).requires_grad == recording
            assert T.add(w, w).requires_grad


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
