import math

import numpy as np
import pytest

import oracle
from cdrex import model as M
from cdrex import tensor as T
from cdrex.corpus import RelationInstance, Vocab
from cdrex.model import (
    CLASS_ORDER,
    MAGIC,
    ModelFormatError,
    Prediction,
    VARIANTS,
    forward,
    init_model,
    load_model,
    loss,
    save_model,
)
from cdrex.rng import Rng
from cdrex.tensor import grad_check
from test_tolerance_oracle import assert_probabilities_close


WORDS = ["aspirin", "causes", "headache", "mice", "padding", "tumors"]


def tiny_vocab(n=6):
    counts = {w: i + 1 for i, w in enumerate(WORDS)}
    chars = sorted(set("".join(WORDS) + "PAD"))
    return Vocab(words=sorted(WORDS), counts=counts, chars=chars, n=n)


def tiny_model(variant="cnn+cnnchar", seed=7, rho=0.5, l2=0.001, n=6, m=5):
    return init_model(tiny_vocab(n), variant, Rng(seed), m=m, rho=rho, l2=l2, k=2,
                      word_dim=8, pos_dim=3, char_dim=4, char_filters=3, char_window=2,
                      lstm_units=3)


def make_instance(tokens=("aspirin", "causes", "headache"), i1=0, i2=2, label=1, uid="doc1#0"):
    return RelationInstance(uid=uid, pmid="doc1", tokens=list(tokens), i1=i1, i2=i2,
                            chem_id="C1", dis_id="D1", label=label)


class TestForward:
    def test_inference_is_deterministic(self):
        params = tiny_model()
        inst = make_instance()
        a = forward(inst, params, Rng(1), training=False)
        b = forward(inst, params, Rng(999), training=False)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_zero_output_layer_gives_uniform(self):
        params = tiny_model()
        params.w1.data[:] = 0.0
        params.b1.data[:] = 0.0
        pred = forward(make_instance(), params, Rng(1))
        np.testing.assert_allclose(pred.probabilities, [0.5, 0.5])

    def test_shapes(self):
        params = tiny_model(m=5)
        p = forward(make_instance(), params, Rng(1)).probabilities
        assert p.shape == (2,)
        assert abs(float(p.sum()) - 1.0) < 1e-12
        # The pooled feature vector has one entry per filter.
        assert params.conv_filters.shape[0] == 5

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_variants_run(self, variant):
        params = tiny_model(variant=variant)
        pred = forward(make_instance(), params, Rng(1))
        assert pred.label in (0, 1)
        assert pred.uid == "doc1#0"

    def test_cnn_variant_has_no_char_component(self):
        params = tiny_model(variant="cnn")
        assert params.char_params is None
        assert params.input_dim == 8 + 3 + 3


def unit_scale(params, seed=5):
    """Parameters drawn from [-0.5, 0.5], so predictions vary by instance."""
    fill = Rng(seed)
    for _, t in params.named_tensors():
        t.data[:] = fill.fill_uniform(t.shape, -0.5, 0.5)
    return params


class TestGraphFreeForward:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_output_has_no_parents(self, variant, monkeypatch):
        params = tiny_model(variant=variant)
        seen = []
        real = T.softmax

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(T, "softmax", spy)
        forward(make_instance(), params, Rng(1))
        assert len(seen) == 1
        assert seen[0]._parents == () and not seen[0].requires_grad

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_shared_cache_matches_the_graph_oracle(self, variant):
        """Every instance reads its rows from one shared encoding of all
        the instances' forms, as at inference."""
        params = unit_scale(tiny_model(variant=variant))
        instances = [make_instance(),
                     make_instance(tokens=("mice", "tumors", "aspirin"), i1=2, i2=1, uid="doc1#1"),
                     make_instance(tokens=("headache", "Aspirin"), i1=1, i2=0, uid="doc1#2"),
                     make_instance(uid="doc1#3")]
        shared = M.projections(instances, params)
        for inst in instances:
            pred = forward(inst, params, Rng(1), shared=shared)
            # The reference encodes each instance's forms afresh, with the
            # graph, characters through the per-word, per-step graph.
            with oracle.per_word_graph():
                reference = oracle.class_probabilities(inst, params, Rng(1), training=False)
            assert reference.requires_grad
            assert_probabilities_close(pred.probabilities, reference.data)
            assert pred.label == int(np.argmax(reference.data))
        if variant == "cnn":
            assert shared.chars is None
        else:
            encoded, slot = shared.chars
            assert list(slot) == ["aspirin", "causes", "headache", "PAD", "mice", "tumors",
                                  "Aspirin"]
            assert encoded.shape == (7, params.char_params.out_dim)
            assert encoded._parents == () and not encoded.requires_grad


class TestLoss:
    def test_near_certain_correct_prediction_is_near_zero(self):
        params = tiny_model(l2=0.0, rho=0.0)
        params.w1.data[:] = 0.0
        params.b1.data[:] = [-25.0, 25.0]  # label 1 with p ~ 1
        out = loss([make_instance(label=1)], params, Rng(1))
        assert 0.0 <= out.item() < 1e-12

    def test_uniform_predictor_gives_ln2(self):
        params = tiny_model(l2=0.0)
        params.w1.data[:] = 0.0
        params.b1.data[:] = 0.0
        batch = [make_instance(label=0), make_instance(label=1, uid="doc1#1")]
        out = loss(batch, params, Rng(1))
        assert abs(out.item() - math.log(2.0)) < 1e-12

    def test_rejects_empty_batch_and_missing_label(self):
        params = tiny_model()
        with pytest.raises(ValueError):
            loss([], params, Rng(1))
        with pytest.raises(ValueError):
            loss([make_instance(label=None)], params, Rng(1))

    def test_l2_penalty_hand_value(self):
        # The penalty l2 * sum ||W||^2 is added once per batch, over the
        # regularizable matrices only, with gradient 2 * l2 * W.
        params = tiny_model(variant="cnn+lstmchar", rho=0.0)
        batch = [make_instance(), make_instance(label=0, uid="doc1#1")]
        named = params.named_tensors()

        def value_and_grads(l2):
            params.hyper.l2 = l2
            for _, t in named:
                t.grad = None
            out = loss(batch, params, Rng(1))
            out.backward()
            return out.item(), {name: t.grad.copy() for name, t in named}

        base, base_grads = value_and_grads(0.0)
        total, grads = value_and_grads(0.001)
        weights = params.regularizable()
        assert abs(total - base - 0.001 * sum(float((w.data ** 2).sum()) for w in weights)) < 1e-12
        penalized = {id(w) for w in weights}
        assert len(penalized) == 6  # conv filters, W1, and the two LSTMs' wx and wh
        for name, t in named:
            expected = base_grads[name] + (0.002 * t.data if id(t) in penalized else 0.0)
            np.testing.assert_allclose(grads[name], expected, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("variant", ["cnn+cnnchar", "cnn+lstmchar"])
    def test_full_gradient_check(self, variant):
        params = tiny_model(variant=variant, rho=0.0)  # rho=0 keeps f deterministic
        batch = [make_instance(label=1),
                 make_instance(tokens=("mice", "tumors"), i1=0, i2=1, label=0, uid="doc1#1")]
        inputs = [t for _, t in params.named_tensors()]
        err = grad_check(lambda: loss(batch, params, Rng(1)), inputs, eps=1e-4)
        assert err < 1e-4


class TestSerialization:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip_bitwise(self, tmp_path, variant):
        params = tiny_model(variant=variant)
        path = tmp_path / "model.bin"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.variant == variant
        assert loaded.hyper == params.hyper
        saved = dict(params.named_tensors())
        for name, tensor in loaded.named_tensors():
            np.testing.assert_array_equal(tensor.data, saved[name].data)
        assert loaded.tables.word.index == params.tables.word.index
        pred_a = forward(make_instance(), params, Rng(1))
        pred_b = forward(make_instance(), loaded, Rng(1))
        np.testing.assert_array_equal(pred_a.probabilities, pred_b.probabilities)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert exc.value.code == ModelFormatError.BAD_MAGIC

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert exc.value.code == ModelFormatError.TRUNCATED

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_model(m=5), path)
        blob = path.read_bytes()
        # Same-length metadata edit: claim m=6 while the tensors carry m=5.
        assert blob.count(b'"m":5') == 1
        path.write_bytes(blob.replace(b'"m":5', b'"m":6'))
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert exc.value.code == ModelFormatError.SHAPE_MISMATCH

    def test_window_wider_than_the_rows(self, tmp_path):
        path = tmp_path / "model.bin"
        # n = 3: one window; then the metadata claims k=5, which has none.
        save_model(init_model(tiny_vocab(n=3), "cnn", Rng(1), m=2, k=3, word_dim=4, pos_dim=2),
                   path)
        forward(make_instance(tokens=("mice",), i1=0, i2=0), load_model(path), Rng(1))
        blob = path.read_bytes()
        assert blob.count(b'"k":3') == 1
        path.write_bytes(blob.replace(b'"k":3', b'"k":5'))
        with pytest.raises(ModelFormatError, match="k=5") as exc:
            load_model(path)
        assert exc.value.code == ModelFormatError.BAD_METADATA

    def test_init_rejects_a_window_wider_than_the_rows(self):
        init_model(tiny_vocab(n=3), "cnn", Rng(1), m=2, k=3, word_dim=4, pos_dim=2)
        with pytest.raises(ValueError, match=r"window k=4 is wider than the n=3 rows"):
            init_model(tiny_vocab(n=3), "cnn", Rng(1), m=2, k=4, word_dim=4, pos_dim=2)

    def test_every_truncation_and_bit_flip_loads_or_is_a_format_error(self, tmp_path):
        vocab = Vocab(words=["ab"], counts={"ab": 1}, chars=sorted(set("abPAD")), n=2)
        params = init_model(vocab, "cnn+lstmchar", Rng(1), m=1, k=1, word_dim=1, pos_dim=1,
                            char_dim=1, lstm_units=1)
        path = tmp_path / "model.bin"
        save_model(params, path)
        blob = path.read_bytes()
        damaged = [blob[:size] for size in range(len(blob))]
        for i in range(len(blob)):
            damaged += [blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1:] for bit in range(8)]
        inst = make_instance(tokens=("ab", "ab"), i1=0, i2=1)
        loaded = 0
        for data in damaged:
            path.write_bytes(data)
            try:
                model = load_model(path)
            except ModelFormatError:
                continue
            with np.errstate(over="ignore"):  # a flipped exponent bit can make huge weights
                forward(inst, model, Rng(1))  # whatever loads also runs
            loaded += 1
        assert 0 < loaded < len(damaged)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_model(seed=1), path)
        before = path.read_bytes()

        class Unwritable:
            @property
            def data(self):
                raise OSError("disk full")

        params = tiny_model(seed=2)
        named = params.named_tensors()
        params.named_tensors = lambda: named + [("out.extra", Unwritable())]
        with pytest.raises(OSError, match="disk full"):
            save_model(params, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(tiny_model(), path)
        assert path.read_bytes()[:8] == MAGIC == b"CDREXM1\x00"


class TestParameterCounts:
    def test_closed_form(self):
        params = tiny_model(variant="cnn", n=6, m=5)
        word_rows = len(WORDS) + 2
        pos_rows = 2 * 6 - 1
        d = 8 + 3 + 3
        expected = word_rows * 8 + 2 * pos_rows * 3 + 5 * 2 * d + 5 + 2 * 5 + 2
        assert params.parameter_count() == expected

    def test_plain_cnn_is_strictly_smaller(self):
        base = tiny_model(variant="cnn").parameter_count()
        assert base < tiny_model(variant="cnn+cnnchar").parameter_count()
        assert base < tiny_model(variant="cnn+lstmchar").parameter_count()


def test_identical_seeds_give_bitwise_identical_initialization():
    a = tiny_model(variant="cnn+lstmchar", seed=123)
    b = tiny_model(variant="cnn+lstmchar", seed=123)
    for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        np.testing.assert_array_equal(ta.data, tb.data, err_msg=name)


def test_pretrained_vectors_reach_the_word_table():
    vocab = tiny_vocab()
    vec = np.linspace(-1.0, 1.0, 8)
    params = init_model(vocab, "cnn", Rng(7), m=4, k=2, word_dim=8, pos_dim=3,
                        pretrained={"aspirin": vec})
    row = params.tables.word.index["aspirin"]
    np.testing.assert_array_equal(params.tables.word.weights.data[row], vec)


def test_class_order_is_stable():
    assert CLASS_ORDER == ("no-relation", "CID")


def test_prediction_probabilities_sum_to_one():
    pred = forward(make_instance(), tiny_model(), Rng(1))
    assert isinstance(pred, Prediction)
    assert abs(pred.probabilities.sum() - 1.0) <= 1e-12
