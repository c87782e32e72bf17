"""The batched model head: `tensor.tap_projections`, `shift_sum`,
`tap_sum_relu_max` and `linear`, and the batched `softmax` and
`nll_loss`, in isolation and inside `model.loss` and `model.forward`.

Every op passes `grad_check` below 1e-4, including the edges of the
decomposition: one instance and several, one window per instance
(n = k), entities at the first and the last row (position-term slices at
both ends of their tables), windows of PAD rows only, columns that never
rise above 0, dropout on and off, and UNK-replaced word rows whose
character rows differ.  The model's values stay within the tolerances of
`test_tolerance_oracle` of the serial reference there too.
"""

import numpy as np
import pytest

from cdrex import model as M
from cdrex import optim
from cdrex import tensor as T
from cdrex.corpus import RelationInstance, Vocab
from cdrex.rng import Rng
from cdrex.tensor import ShapeError, Tensor
from test_tolerance_oracle import assert_matches_oracle_loss, assert_probabilities_close, unk_lookup

GRAD_TOL = 1e-4


def param(rng: Rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.fill_uniform(shape, lo, hi), requires_grad=True)


def mixed_sum(out: Tensor, seed: int) -> Tensor:
    """A scalar that weights every output entry differently."""
    return T.sum_all(T.mul(out, Tensor(Rng(seed).fill_uniform(out.shape, -2.0, 2.0))))


# ---------------------------------------------------------------------------
# The ops


def test_tap_projections_grad_and_value():
    rng = Rng(1)
    x, filters = param(rng, (5, 4)), param(rng, (3, 2, 7))
    columns = (slice(0, 1), slice(4, 7))
    check = T.grad_check(lambda: mixed_sum(T.tap_projections(x, filters, columns), 2),
                         [x, filters])
    assert check < GRAD_TOL
    out = T.tap_projections(x, filters, columns).data
    cols = np.r_[0:1, 4:7]
    expected = np.einsum("rc,fhc->hrf", x.data, filters.data[:, :, cols])
    np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-15)
    assert not filters.grad[:, :, 1:4].any()  # columns no row meets


def test_tap_projections_rejects_a_width_mismatch():
    with pytest.raises(ShapeError):
        T.tap_projections(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 1, 4))), (slice(0, 4),))


def test_shift_sum_is_the_valid_convolution():
    rng = Rng(3)
    table, filters = param(rng, (7, 3)), param(rng, (4, 3, 3))
    bias = Tensor(np.zeros(4))
    taps = T.tap_projections(table, filters, (slice(0, 3),))
    np.testing.assert_allclose(T.shift_sum(taps).data, T.conv1d_valid(table, filters, bias).data,
                               rtol=1e-13, atol=1e-15)
    raw = param(rng, (3, 6, 4))
    assert T.grad_check(lambda: mixed_sum(T.shift_sum(raw), 4), [raw]) < GRAD_TOL
    with pytest.raises(ShapeError):
        T.shift_sum(Tensor(np.zeros((3, 2, 4))))


def map_case(seed: int, batch: int, n: int, k: int, m: int = 6, count: int = 5):
    """Taps, keys with repeats, two shifted tables whose starts reach both
    of their ends, and a bias."""
    rng = Rng(seed)
    taps, bias = param(rng, (k, count, m)), param(rng, (m,))
    keys = np.array([[rng.randbelow(count) for _ in range(n)] for _ in range(batch)])
    rows = 2 * n - k  # a position table's valid convolution
    tables = [param(rng, (rows, m)) for _ in range(2)]
    starts = [np.array([(n - 1) * (b % 2) for b in range(batch)]),   # first and last rows
              np.array([rng.randbelow(n) for _ in range(batch)])]
    return taps, keys, list(zip(tables, starts)), bias


def dense_map(taps, keys, shifted, bias):
    """The (B, L, m) maps written out as the sum they stand for."""
    k = taps.shape[0]
    length = keys.shape[1] - k + 1
    out = np.zeros((keys.shape[0], length, taps.shape[2]))
    for b in range(keys.shape[0]):
        for j in range(length):
            out[b, j] = bias.data + sum(taps.data[h, keys[b, j + h]] for h in range(k))
            for table, starts in shifted:
                out[b, j] += table.data[starts[b] + j]
    return out


@pytest.mark.parametrize("batch,n,k", [(1, 6, 3), (3, 6, 3), (3, 4, 4), (1, 1, 1), (3, 9, 1)],
                         ids=["B1", "B3", "L1", "n1", "k1"])
def test_tap_sum_relu_max_grad_and_value(batch, n, k):
    taps, keys, shifted, bias = map_case(batch + n + k, batch, n, k)
    bias.data[:2] = -50.0  # two columns that never rise above 0
    out = T.tap_sum_relu_max(taps, keys, shifted, bias)
    expected = np.maximum(dense_map(taps, keys, shifted, bias), 0.0).max(axis=1)
    np.testing.assert_allclose(out.data, expected, rtol=1e-13, atol=1e-15)
    assert not out.data[:, :2].any()
    inputs = [taps, bias] + [table for table, _ in shifted]
    check = T.grad_check(lambda: mixed_sum(T.tap_sum_relu_max(taps, keys, shifted, bias), 7),
                         inputs)
    assert check < GRAD_TOL


def test_tap_sum_relu_max_gradient_reaches_the_argmax_window_only():
    taps, keys, shifted, bias = map_case(11, 2, 7, 3)
    keys[1] = 0  # one instance whose rows all share one key, as PAD rows do
    out = T.tap_sum_relu_max(taps, keys, shifted, bias)
    T.sum_all(out).backward()
    fm = np.maximum(dense_map(taps, keys, shifted, bias), 0.0)
    argmax = fm.argmax(axis=1)
    live = out.data > 0.0
    np.testing.assert_array_equal(bias.grad, live.sum(axis=0))
    for (table, starts) in shifted:
        expected = np.zeros_like(table.data)
        for b in range(2):
            for f in np.flatnonzero(live[b]):
                expected[starts[b] + argmax[b, f], f] += 1.0
        np.testing.assert_array_equal(table.grad, expected)


def test_tap_sum_relu_max_no_grad_gives_the_same_values():
    taps, keys, shifted, bias = map_case(12, 3, 8, 3)
    with T.no_grad():
        free = T.tap_sum_relu_max(taps, keys, shifted, bias)
    assert free._backward_fn is None
    assert free.data.tobytes() == T.tap_sum_relu_max(taps, keys, shifted, bias).data.tobytes()


def test_tap_sum_relu_max_rows_do_not_depend_on_the_batch():
    taps, keys, shifted, bias = map_case(13, 4, 8, 3)
    whole = T.tap_sum_relu_max(taps, keys, shifted, bias).data
    for b in range(4):
        one = T.tap_sum_relu_max(taps, keys[b:b + 1],
                                 [(table, starts[b:b + 1]) for table, starts in shifted], bias)
        assert one.data.tobytes() == whole[b:b + 1].tobytes()


BAD_MAPS = {
    "key_out_of_range": lambda taps, keys, shifted, bias: (taps, keys + 5, shifted, bias),
    "window_longer_than_keys": lambda taps, keys, shifted, bias: (taps, keys[:, :2], shifted, bias),
    "start_past_the_table": lambda taps, keys, shifted, bias: (
        taps, keys, [(shifted[0][0], shifted[0][1] + 6)], bias),
    "bias_length": lambda taps, keys, shifted, bias: (taps, keys, shifted, Tensor(np.zeros(2))),
}


@pytest.mark.parametrize("case", sorted(BAD_MAPS))
def test_tap_sum_relu_max_shape_errors(case):
    with pytest.raises(ShapeError):
        T.tap_sum_relu_max(*BAD_MAPS[case](*map_case(14, 2, 6, 3)))


def test_linear_softmax_and_nll_over_a_batch():
    rng = Rng(5)
    x, w, b = param(rng, (4, 3)), param(rng, (2, 3)), param(rng, (2,))
    gold = [0, 1, 1, 0]

    def mean_nll():
        return T.nll_loss(T.softmax(T.linear(x, w, b)), gold)

    assert T.grad_check(mean_nll, [x, w, b]) < GRAD_TOL
    per_row = [T.nll_loss(T.softmax(T.add(T.matmul(w, Tensor(x.data[i])), b)), gold[i]).item()
               for i in range(4)]
    assert abs(mean_nll().item() - sum(per_row) / 4) < 1e-14
    with pytest.raises(ShapeError):
        T.nll_loss(T.softmax(T.linear(x, w, b)), gold[:3])
    with pytest.raises(ValueError):
        T.nll_loss(T.softmax(T.linear(x, w, b)), [0, 1, 2, 0])


def test_batched_nll_clamps_row_by_row():
    p = Tensor(np.array([[1.0, 0.0], [0.25, 0.75]]), requires_grad=True)
    loss = T.nll_loss(p, [1, 1])
    assert loss.item() == pytest.approx((-np.log(1e-12) - np.log(0.75)) / 2)
    loss.backward()
    np.testing.assert_array_equal(p.grad, [[0.0, 0.0], [0.0, -1.0 / (2 * 0.75)]])


# ---------------------------------------------------------------------------
# The model

WORDS = ["aspirin", "induced", "headache", "mice"]


def head_model(variant: str, n: int, k: int, rho: float) -> M.ModelParams:
    vocab = Vocab(words=WORDS, counts={w: 1 for w in WORDS},
                  chars=sorted(set("".join(WORDS) + "PADZoë")), n=n)
    params = M.init_model(vocab, variant, Rng(2), m=4, k=k, rho=rho, l2=0.001, word_dim=3,
                          pos_dim=2, char_dim=3, char_filters=3, char_window=2, lstm_units=2)
    fill = Rng(6)  # unit scale keeps ReLU kinks and argmax switches off the eps ball
    for _, t in params.named_tensors():
        t.data[:] = fill.fill_uniform(t.shape, -0.5, 0.5)
    params.conv_bias.data[0] = -50.0  # a column that never rises above 0
    return params


def edge_batch(n: int) -> list[RelationInstance]:
    """Entities at the first and last rows, an instance of n tokens, one
    of a single token (every later window all PAD), and "Aspirin", "mice"
    and "Zoë" sharing no character row with their word rows' other forms."""
    token_lists = [["aspirin", "induced", "headache", "Aspirin", "mice", "Zoë"][:n],
                   ["mice"],
                   ["Zoë", "headache", "aspirin"][:n]]
    ends = [(0, len(token_lists[0]) - 1), (0, 0), (len(token_lists[2]) - 1, 0)]
    return [RelationInstance(f"e#{i}", "e", tokens, i1, i2, "C", "D", i % 2)
            for i, (tokens, (i1, i2)) in enumerate(zip(token_lists, ends))]


@pytest.mark.parametrize("rho", [0.0, 0.5])
@pytest.mark.parametrize("size", [1, 3], ids=["B1", "B3"])
@pytest.mark.parametrize("n,k", [(5, 2), (3, 3)], ids=["n5", "L1"])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_loss_grad_check(variant, n, k, size, rho):
    params = head_model(variant, n, k, rho)
    batch = edge_batch(n)[:size]
    lookup = unk_lookup(batch)
    inputs = [t for _, t in params.named_tensors()]
    # A fresh generator per call: the same dropout masks every time.
    check = T.grad_check(lambda: M.loss(batch, params, Rng(0), lookup_tokens=lookup), inputs)
    assert check < GRAD_TOL
    assert_matches_oracle_loss(params, batch, lookup)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_forward_with_and_without_shared_projections(variant):
    params = head_model(variant, 6, 2, 0.5)
    batch = edge_batch(6)
    shared = M.projections(batch, params)
    for inst in batch:
        alone, together = M.forward(inst, params, Rng(0)), M.forward(inst, params, Rng(0),
                                                                     shared=shared)
        assert alone.label == together.label
        assert_probabilities_close(alone.probabilities, together.probabilities)
    # "induced" is in no instance of the second and third.
    other = RelationInstance("x#0", "x", ["induced", "mice"], 0, 1, "C", "D", 0)
    with pytest.raises(ValueError, match="lack"):
        M.forward(other, params, Rng(0), shared=M.projections(batch[1:], params))


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_same_seed_training_writes_the_same_model_file(variant, tmp_path):
    from test_optim import synthetic_split, tiny_config  # it imports the oracle tests

    split = synthetic_split(10)
    config = tiny_config(variant=variant, epochs=2, dropout=0.5, l2=0.001)
    blobs = []
    for run in range(2):
        path = tmp_path / f"run{run}.model"
        optim.train(config, split, split, model_path=path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_forward_rejects_an_entity_beyond_the_tokens():
    # An index past n would otherwise address rows outside the position tables.
    params = head_model("cnn", 5, 2, 0.0)
    bad = RelationInstance("x#1", "x", ["mice", "aspirin"], 0, 6, "C", "D", 0)
    with pytest.raises(ValueError, match="entity indices"):
        M.forward(bad, params, Rng(0))


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_a_rejected_instance_draws_no_dropout_uniforms(variant):
    """Instances are checked before dropout draws from `rng`, so a caller
    that catches the error goes on with the stream it had."""
    params = head_model(variant, 5, 2, 0.5)
    good = edge_batch(5)[0]
    bad = RelationInstance("x#1", "x", ["mice", "aspirin"], 0, 6, "C", "D", 0)
    rng = Rng(3)
    with pytest.raises(ValueError, match="entity indices"):
        M.forward(bad, params, rng, training=True)
    with pytest.raises(ValueError, match="entity indices"):
        M.loss([good, bad], params, rng)
    assert rng.next_u64() == Rng(3).next_u64()
