"""The stacked `tensor.conv_relu_max` against the chain it replaced.

The character CNN runs conv → ReLU → max-over-time over every form of an
`encode_chars` call as one node: the forms' character rows stacked,
sequences of one length convolved as one (G, n, d) stack, and the filter
and bias gradients taken from each column's argmax window only.  Its
value and all three gradients must equal, bit for bit, those of the
three-node chain `conv1d_valid → relu → max_over_time` run sequence after
sequence (`oracle.conv_relu_max`), on a first and a second touch of the
gradient buffers; and the model's loss, every parameter gradient and
every probability vector must equal those of the per-form chain (inside
`oracle.three_node_conv()`), bit for bit.
"""

import numpy as np
import pytest

import oracle
from cdrex import encoders as E
from cdrex import model as M
from cdrex import tensor as T
from cdrex.rng import Rng
from cdrex.tensor import ShapeError, Tensor
from test_grad_buffer import batch, variant_model


def op_and_grads(op, inp, lengths, filt, bias, mix, touches=1):
    """The op's value and the bytes of the three gradients after
    `touches` backward passes of sum(op(...) * mix) into the same buffers."""
    for t in (inp, filt, bias):
        t.grad = None
    for _ in range(touches):
        out = op(inp, lengths, filt, bias)
        T.sum_all(T.mul(out, mix)).backward()
    return [out.data.tobytes()] + [t.grad_buffer().tobytes() for t in (inp, filt, bias)]


def assert_matches_chain(inp, lengths, filt, bias, mix, touches=1):
    args = [Tensor(a, requires_grad=True) for a in (inp, filt, bias)]
    fused = op_and_grads(T.conv_relu_max, args[0], lengths, *args[1:], Tensor(mix), touches)
    chain = op_and_grads(oracle.conv_relu_max, args[0], lengths, *args[1:], Tensor(mix), touches)
    for name, a, b in zip(("value", "input", "filters", "bias"), fused, chain):
        assert a == b, name


def random_case(seed, lengths, d, m, k):
    """Stacked rows of `lengths`, filters, bias and a (W, m) mix."""
    rng = Rng(seed)
    return (rng.fill_uniform((sum(lengths), d), -1, 1), rng.fill_uniform((m, k, d), -1, 1),
            rng.fill_uniform((m,), -1, 1), rng.fill_uniform((len(lengths), m), -2, 2))


def assert_case_matches(seed, lengths, d, m, k, touches=1):
    inp, filt, bias, mix = random_case(seed, lengths, d, m, k)
    assert_matches_chain(inp, lengths, filt, bias, mix, touches)


@pytest.mark.parametrize("touches", [1, 2], ids=["first", "second"])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n,d,m,k", [(12, 5, 7, 3), (6, 3, 4, 6), (9, 4, 5, 1), (1, 3, 4, 1),
                                     (40, 11, 16, 5)], ids=["mid", "L1", "k1", "n1", "wide"])
def test_random_maps(n, d, m, k, seed, touches):
    assert_case_matches(seed, [n], d, m, k, touches)


STACKS = {
    # Mixed, unsorted lengths; equal lengths apart from each other.
    "mixed": ([7, 3, 12, 3, 5, 9, 3, 7, 20, 4], 6, 9, 3),
    # Every word one window long (L = 1), as short words padded to it.
    "one_window": ([5] * 8, 4, 6, 5),
    "one_window_and_longer": ([5, 8, 5, 5, 6, 19, 5], 4, 6, 5),
    "k1": ([1, 4, 2, 1, 3], 3, 5, 1),
    "char_cnn_dims": ([5, 9, 5, 14, 6, 5, 11, 7, 5, 8, 25, 6], 25, 50, 5),
}


@pytest.mark.parametrize("touches", [1, 2], ids=["first", "second"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(STACKS))
def test_stacked_sequences_match_the_chain_run_one_by_one(case, seed, touches):
    lengths, d, m, k = STACKS[case]
    assert_case_matches(seed, lengths, d, m, k, touches)


def test_stacked_rows_keep_their_bits_alone():
    # A sequence's row does not depend on the sequences stacked with it.
    lengths, d, m, k = STACKS["char_cnn_dims"]
    inp, filt, bias, _ = random_case(5, lengths, d, m, k)
    stacked = T.conv_relu_max(Tensor(inp), lengths, Tensor(filt), Tensor(bias)).data
    lo = 0
    for w, n in enumerate(lengths):
        alone = T.conv_relu_max(Tensor(inp[lo:lo + n]), [n], Tensor(filt), Tensor(bias)).data
        assert alone.tobytes() == stacked[w:w + 1].tobytes()
        lo += n


def test_tied_column_maxima():
    # Repeated input rows give repeated feature-map rows: every column's
    # maximum is tied, and the first occurrence takes the gradient.
    inp, filt, bias, mix = random_case(1, [4], 3, 5, 2)
    inp = np.concatenate([inp, inp, inp])
    assert_matches_chain(inp, [12], filt, bias, mix)
    assert_matches_chain(np.concatenate([inp, inp]), [12, 12], filt, bias, np.concatenate([mix, mix]))
    out = T.conv_relu_max(Tensor(inp), [12], Tensor(filt), Tensor(bias))
    chain = T.relu(T.conv1d_valid(Tensor(inp), Tensor(filt), Tensor(bias))).data
    assert (np.sum(chain == out.data, axis=0) > 1).any()


def test_columns_at_or_below_zero_pass_no_gradient():
    inp, filt, bias, mix = random_case(2, [8], 3, 6, 3)
    bias[:3] = -50.0  # every pre-activation of columns 0-2 is negative
    filt[3] = 0.0
    bias[3] = 0.0     # column 3 is exactly 0 everywhere
    assert_matches_chain(inp, [8], filt, bias, mix)
    args = [Tensor(a, requires_grad=True) for a in (inp, filt, bias)]
    out = T.conv_relu_max(args[0], [8], *args[1:])
    T.sum_all(T.mul(out, Tensor(mix))).backward()
    assert not out.data[:, :4].any()
    assert not args[1].grad[:4].any() and not args[2].grad[:4].any()
    assert (args[2].grad[4:] == mix[0, 4:]).all()


@pytest.mark.parametrize("seed", range(4))
def test_gradient_with_dropout_zeros(seed):
    inp, filt, bias, mix = random_case(seed, [10], 4, 9, 3)
    mix[:, ::2] = 0.0
    mix[:, 1] = -0.0
    assert_matches_chain(inp, [10], filt, bias, mix)
    assert_matches_chain(inp, [10], filt, bias, mix, touches=2)


@pytest.mark.parametrize("seed", range(4))
def test_stacked_gradient_with_dropout_zeros(seed):
    lengths, d, m, k = STACKS["mixed"]
    inp, filt, bias, mix = random_case(seed, lengths, d, m, k)
    drop = Rng(seed + 10).fill_uniform(mix.shape, 0, 1) < 0.5
    mix[drop] = 0.0
    mix[drop & (Rng(seed + 20).fill_uniform(mix.shape, 0, 1) < 0.5)] = -0.0
    mix[3] = -0.0  # a whole sequence without gradient
    assert_matches_chain(inp, lengths, filt, bias, mix)
    assert_matches_chain(inp, lengths, filt, bias, mix, touches=2)


def test_no_grad_value_matches_graph_value():
    lengths, d, m, k = STACKS["mixed"]
    inp, filt, bias, _ = random_case(3, lengths, d, m, k)
    args = [Tensor(a, requires_grad=True) for a in (inp, filt, bias)]
    with T.no_grad():
        free = T.conv_relu_max(args[0], lengths, *args[1:])
    assert free._backward_fn is None
    assert free.data.tobytes() == T.conv_relu_max(args[0], lengths, *args[1:]).data.tobytes()


BAD_SHAPES = {
    "input_rank": ((3,), (1, 1, 3), (1,)),
    "filter_rank": ((3, 2), (1, 2), (1,)),
    "bias_rank": ((3, 2), (1, 1, 2), (1, 1)),
    "width": ((1, 2), (1, 1, 3), (1,)),
    "bias_length": ((4, 2), (3, 2, 2), (2,)),
    "window_longer_than_input": ((2, 1), (1, 3, 1), (1,)),
    "empty_window": ((2, 1), (1, 0, 1), (1,)),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_same_shape_errors_as_conv1d_valid(case):
    args = [Tensor(np.zeros(shape)) for shape in BAD_SHAPES[case]]
    with pytest.raises(ShapeError) as chain:
        T.conv1d_valid(*args)
    with pytest.raises(ShapeError) as fused:
        T.conv_relu_max(args[0], [args[0].shape[0]], *args[1:])
    assert str(fused.value) == str(chain.value).replace("conv1d_valid", "conv_relu_max")


BAD_LENGTHS = {
    "sum_too_small": ((9, 2), (1, 3, 2), [4, 4]),
    "sum_too_large": ((9, 2), (1, 3, 2), [4, 6]),
    "shorter_than_window": ((9, 2), (1, 3, 2), [7, 2]),
    "empty": ((9, 2), (1, 3, 2), []),
    "not_one_dimensional": ((9, 2), (1, 3, 2), [[4, 5]]),
    "empty_window": ((9, 2), (1, 0, 2), [4, 5]),
}


@pytest.mark.parametrize("case", sorted(BAD_LENGTHS))
def test_lengths_that_do_not_fit_raise(case):
    x, filters, lengths = BAD_LENGTHS[case]
    with pytest.raises(ShapeError, match="conv_relu_max"):
        T.conv_relu_max(Tensor(np.zeros(x)), lengths, Tensor(np.zeros(filters)),
                        Tensor(np.zeros(filters[0])))


# ---------------------------------------------------------------------------
# The model through the fused op and through the chain


def loss_grads_and_probabilities(params):
    named = params.named_tensors()
    for _, t in named:
        t.grad = None
    total = M.loss(batch(), params, Rng(9))  # rho = 0.5: the same dropout masks each run
    total.backward()
    shared = M.projections(batch(), params)
    probs = ([M.forward(inst, params, Rng(1)).probabilities.tobytes() for inst in batch()]
             + [M.forward(inst, params, Rng(1), shared=shared).probabilities.tobytes()
                for inst in batch()])
    return total.data.tobytes(), {name: t.grad_buffer().tobytes() for name, t in named}, probs


@pytest.mark.parametrize("unit_scale", [False, True], ids=["init", "unit"])
@pytest.mark.parametrize("l2", [0.0, 0.001])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_model_matches_the_chain(variant, l2, unit_scale):
    params = variant_model(variant, l2, unit_scale)
    assert params.hyper.rho > 0.0
    fused = loss_grads_and_probabilities(params)
    with oracle.three_node_conv():
        chain = loss_grads_and_probabilities(params)
    assert fused[0] == chain[0]
    assert fused[1].keys() == chain[1].keys()
    for name in fused[1]:
        assert fused[1][name] == chain[1][name], name
    assert fused[2] == chain[2]


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_one_conv_node_per_encoding(variant):
    # The char-CNN encodes all the batch's forms in one gather and one
    # `conv_relu_max` node, and nothing stacks per-form rows; the model's
    # own convolution is one `tap_sum_relu_max` node over the batch, fed
    # by the key and position tap projections.
    params = variant_model(variant, 0.001, unit_scale=False)
    loss_ops = [node.op for node in T.graph_nodes(M.loss(batch(), params, Rng(9)))]
    assert not {"conv1d_valid", "relu", "max_over_time", "stack_rows"} & set(loss_ops)
    assert loss_ops.count("conv_relu_max") == (variant == "cnn+cnnchar")
    assert loss_ops.count("lstm_final_states") == 2 * (variant == "cnn+lstmchar")
    assert loss_ops.count("tap_sum_relu_max") == 1
    assert loss_ops.count("tap_projections") == 3


@pytest.mark.parametrize("variant", ["cnn+cnnchar", "cnn+lstmchar"])
def test_encode_chars_is_one_gather_then_its_op(variant):
    params = variant_model(variant, 0.0, unit_scale=False)
    forms = tuple(dict.fromkeys(tok for inst in batch() for tok in inst.tokens))
    out = E.encode_chars(forms, params.tables.char, params.char_params)
    ops = [node.op for node in T.graph_nodes(out) if node.op != "leaf"]
    expected = {"cnn+cnnchar": ["gather", "conv_relu_max"],
                "cnn+lstmchar": ["gather", "lstm_final_states", "lstm_final_states", "concat"]}
    assert sorted(ops) == sorted(expected[variant])
    assert out.shape == (len(forms), params.char_params.out_dim)
