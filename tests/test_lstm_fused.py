"""The fused character BiLSTM against the per-word graph of `oracle.py`.

Training encodes an instance's distinct forms with one
`tensor.lstm_final_states` node per direction, and inference encodes one
word at a time through the same op.  Both must give the loss, every
parameter gradient and every probability vector of the per-step graph,
bit for bit.
"""

import warnings

import numpy as np
import pytest

import oracle
from cdrex import encoders
from cdrex import model as M
from cdrex import tensor as T
from cdrex.corpus import RelationInstance, Vocab
from cdrex.optim import zero_grads
from cdrex.rng import Rng
from cdrex.tensor import ShapeError, Tensor

# Every character in the vocabulary except "Z", "ë" and "-", which map to UNKCHAR.
KNOWN = ["a", "I", "x", "aspirin", "headache", "mice", "aaaaaaa", "abab", "tumors",
         "supercalifragilistic", "hydroxychloroquine", "acetylsalicylates"]
UNKNOWN = ["Zoë", "ZZ", "anti-tumor"]


def lstm_model(n: int, l2: float = 0.001, unit_scale: bool = False) -> M.ModelParams:
    """Default character dims (25 -> 2 x 25 units); small word side."""
    vocab = Vocab(words=sorted({w.lower() for w in KNOWN}), counts={w.lower(): 1 for w in KNOWN},
                  chars=sorted(set("".join(KNOWN) + "PAD")), n=n)
    params = M.init_model(vocab, "cnn+lstmchar", Rng(3), m=8, k=3, l2=l2, word_dim=12, pos_dim=4)
    if unit_scale:
        fill = Rng(4)
        for _, t in params.named_tensors():
            t.data[:] = fill.fill_uniform(t.shape, -0.5, 0.5)
    return params


def instance(k: int, tokens: list[str], label: int) -> RelationInstance:
    return RelationInstance(f"d#{k}", "d", list(tokens), 0, len(tokens) - 1, "C", "D", label)


def random_tokens(seed: int, count: int) -> list[str]:
    rng = Rng(seed)
    words = KNOWN + UNKNOWN
    return [words[rng.randbelow(len(words))] for _ in range(count)]


def loss_and_grads(batch, params):
    named = params.named_tensors()
    zero_grads(named)
    total = M.loss(batch, params, Rng(9))  # rho = 0.5: the same dropout masks each run
    total.backward()
    return total.data.tobytes(), {name: t.grad.tobytes() for name, t in named}


def probabilities(batch, params):
    """Per-instance encodings (the training layout, under no_grad) and
    encodings through one shared cache (the inference layout)."""
    cache = {}
    return ([M.forward(inst, params, Rng(1)).probabilities.tobytes() for inst in batch]
            + [M.forward(inst, params, Rng(1), char_cache=cache).probabilities.tobytes()
               for inst in batch])


def assert_matches_oracle(batch, params):
    fused_loss, fused_grads = loss_and_grads(batch, params)
    fused_probs = probabilities(batch, params)
    with oracle.per_word_graph():
        oracle_loss, oracle_grads = loss_and_grads(batch, params)
        oracle_probs = probabilities(batch, params)
    assert fused_loss == oracle_loss
    assert fused_grads.keys() == oracle_grads.keys()
    for name in fused_grads:
        assert fused_grads[name] == oracle_grads[name], name
    assert fused_probs == oracle_probs


CASES = {
    "one_and_long_words": (12, [["a", "supercalifragilistic", "I", "hydroxychloroquine", "x"],
                                ["acetylsalicylates", "a", "mice"]]),
    "unk_and_repeated_chars": (9, [["Zoë", "aaaaaaa", "abab", "ZZ", "anti-tumor", "aaaaaaa"],
                                   ["abab", "Zoë", "tumors"]]),
    "pad_rows_at_n250": (250, [random_tokens(1, 40), ["aspirin", "headache"]]),
    "single_form": (3, [["abab", "abab", "abab"]]),
}


@pytest.mark.parametrize("unit_scale", [False, True], ids=["init", "unit"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_training_matches_per_word_graph(case, unit_scale):
    n, token_lists = CASES[case]
    params = lstm_model(n, unit_scale=unit_scale)
    batch = [instance(k, tokens, k % 2) for k, tokens in enumerate(token_lists)]
    assert_matches_oracle(batch, params)


@pytest.mark.parametrize("l2", [0.0, 0.001])
def test_several_instance_batch_matches_per_word_graph(l2):
    params = lstm_model(20, l2=l2, unit_scale=True)
    batch = [instance(k, random_tokens(10 + k, 2 + 3 * k), k % 2) for k in range(6)]
    assert_matches_oracle(batch, params)


def test_single_instance_has_one_node_per_direction():
    params = lstm_model(12)
    batch = [instance(0, random_tokens(2, 12), 1)]
    nodes = T.graph_nodes(M.loss(batch, params, Rng(9)))
    assert sum(node.op == "lstm_final_states" for node in nodes) == 2
    assert not any(node.op in ("sigmoid", "slice") for node in nodes)


@pytest.mark.parametrize("word", ["a", "abab", "Zoë", "supercalifragilistic"])
def test_one_word_matches_per_word_graph(word):
    """W = 1, as inference encodes each form: value and gradients."""
    params = lstm_model(4, unit_scale=True)
    chartab, char_params = params.tables.char, params.char_params
    weights = Tensor(Rng(6).fill_uniform((2 * encoders.LSTM_UNITS,), -1.0, 1.0))
    leaves = [chartab.weights] + [t for _, t in char_params.all_tensors()]

    def run(encode):
        for t in leaves:
            t.grad = None
        out = encode(word, chartab, char_params)
        T.sum_all(T.mul(out, weights)).backward()
        return out.data.tobytes(), [t.grad.tobytes() for t in leaves]

    fused = run(encoders.char_bilstm_encode)
    assert fused == run(oracle.char_bilstm_encode)
    with T.no_grad():
        assert encoders.char_bilstm_encode(word, chartab, char_params).data.tobytes() == fused[0]


def test_saturated_gates_give_no_overflow_warning():
    """exp(-gates) overflows to inf when the input weights are huge; the
    gate is then exactly 0, the right limit, so no warning is due."""
    params = lstm_model(6)
    for lstm in (params.char_params.fwd, params.char_params.bwd):
        lstm.wx.data[:] = -1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = M.forward(instance(0, ["aspirin", "mice", "headache"], 1), params, Rng(1))
        T.sigmoid(Tensor([-1e300, 0.0, 1e300]))
    assert np.all(np.isfinite(out.probabilities))


class TestOp:
    def params(self, d=3, u=2, seed=0):
        rng = Rng(seed)
        return [Tensor(rng.fill_uniform(shape, -1.0, 1.0), requires_grad=True)
                for shape in ((d, 4 * u), (u, 4 * u), (4 * u,))]

    def test_rows_are_independent_sequences(self):
        wx, wh, b = self.params()
        x = Tensor(Rng(1).fill_uniform((8, 3), -1.0, 1.0))
        for reverse in (False, True):
            together = T.lstm_final_states(x, [1, 5, 2], wx, wh, b, reverse).data
            alone = [T.lstm_final_states(Tensor(x.data[lo:hi]), [hi - lo], wx, wh, b, reverse).data[0]
                     for lo, hi in ((0, 1), (1, 6), (6, 8))]
            assert together.tobytes() == np.stack(alone).tobytes()

    def test_reverse_reads_rows_backwards(self):
        wx, wh, b = self.params()
        x = Tensor(Rng(1).fill_uniform((4, 3), -1.0, 1.0))
        flipped = Tensor(x.data[::-1].copy())
        assert (T.lstm_final_states(x, [4], wx, wh, b, True).data.tobytes()
                == T.lstm_final_states(flipped, [4], wx, wh, b, False).data.tobytes())

    def test_no_graph_under_no_grad(self):
        wx, wh, b = self.params()
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        with T.no_grad():
            out = T.lstm_final_states(x, [3], wx, wh, b, False)
        assert out._parents == () and out._backward_fn is None and not out.requires_grad

    @pytest.mark.parametrize("lengths, x_rows", [([], 0), ([0, 3], 3), ([2, 2], 5)])
    def test_bad_lengths_rejected(self, lengths, x_rows):
        wx, wh, b = self.params()
        with pytest.raises(ShapeError):
            T.lstm_final_states(Tensor(np.ones((x_rows, 3))), lengths, wx, wh, b, False)

    def test_mismatched_weights_rejected(self):
        wx, wh, b = self.params(u=2)
        _, wh3, _ = self.params(u=3)
        with pytest.raises(ShapeError):
            T.lstm_final_states(Tensor(np.ones((2, 3))), [2], wx, wh3, b, False)
        with pytest.raises(ShapeError):
            T.lstm_final_states(Tensor(np.ones((2, 4))), [2], wx, wh, b, False)


@pytest.mark.parametrize("count", [1, 2, 17, 300])
@pytest.mark.parametrize("row_shape", [(100,), (25, 100)])
def test_leading_axis_reduce_adds_rows_in_sequence(count, row_shape):
    """The op's wh and b gradients rely on this: `np.add.reduce` over the
    leading axis equals `+=` of each row in turn, and so does
    `_accumulate_in_order`, from an existing gradient or from none."""
    rng = Rng(count)
    # Rows of mixed magnitudes, so that a different summation order shows.
    stack = rng.fill_uniform((count,) + row_shape, -1.0, 1.0)
    stack *= 10.0 ** np.round(rng.fill_uniform((count,) + (1,) * len(row_shape), -6.0, 6.0))
    loop = np.zeros(row_shape)
    for part in stack:
        loop += part
    assert np.add.reduce(stack, axis=0).tobytes() == loop.tobytes()

    def fill(k, out):
        out[:] = stack[k]

    t = Tensor(np.zeros(row_shape))
    T._accumulate_in_order(t, np.arange(count), fill, chunk=7)
    assert t.grad.tobytes() == loop.tobytes()
    start = Rng(7).fill_uniform(row_shape, -1.0, 1.0)
    t.grad = start.copy()
    T._accumulate_in_order(t, np.arange(count), fill)
    expected = start.copy()
    for part in stack:
        expected += part
    assert t.grad.tobytes() == expected.tobytes()
