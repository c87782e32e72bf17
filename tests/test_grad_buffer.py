"""The one gradient rule: `Tensor.grad_buffer()` creates every gradient
array, zero-filled, and backward rules add into it in place.

The rules it replaced live on in `oracle.old_gradient_rules()`; the loss
and every parameter gradient must keep their bits under both (under the
old rules the model runs the three-node conv chain they covered).  The
equality rests on one invariant, also tested here: no gradient buffer
ever holds -0.0, so adding a few values in place gives the bits of adding
a dense array that is +0.0 everywhere else.
"""

from dataclasses import replace

import numpy as np
import pytest

import oracle
from cdrex import model as M
from cdrex import tensor as T
from cdrex.corpus import RelationInstance, Vocab
from cdrex.optim import zero_grads
from cdrex.rng import Rng
from cdrex.tensor import Tensor
from test_lstm_fused import assert_gradients_match

# "Zoë" and "tumors" stay out of the vocabulary: UNK words, an UNK char.
WORDS = ["aspirin", "induced", "severe", "headache", "in", "mice", "a"]

# Values whose bits a careless scatter would change: signed zeros,
# subnormals, infinities and NaN.
SPECIAL = np.array([np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.0, -0.0, 1e300, -2.5])


def variant_model(variant: str, l2: float, unit_scale: bool) -> M.ModelParams:
    vocab = Vocab(words=sorted(WORDS), counts={w: 1 for w in WORDS},
                  chars=sorted(set("".join(WORDS) + "PAD")), n=10)
    params = M.init_model(vocab, variant, Rng(3), m=8, k=3, l2=l2, word_dim=12, pos_dim=4)
    if unit_scale:
        fill = Rng(4)
        for _, t in params.named_tensors():
            t.data[:] = fill.fill_uniform(t.shape, -0.5, 0.5)
    return params


def batch() -> list[RelationInstance]:
    token_lists = [["aspirin", "induced", "severe", "headache", "in", "mice"],
                   ["Zoë", "a", "tumors", "in", "aspirin", "a", "headache", "mice", "in", "a"],
                   ["headache", "aspirin"]]
    return [RelationInstance(f"d#{k}", "d", tokens, 0, len(tokens) - 1, "C", "D", k % 2)
            for k, tokens in enumerate(token_lists)]


def loss_and_grads(params: M.ModelParams, instances=None) -> tuple[bytes, dict[str, bytes]]:
    named = params.named_tensors()
    zero_grads(named)
    # rho = 0.5: the same dropout masks each run
    total = M.loss(instances or batch(), params, Rng(9))
    total.backward()
    return total.data.tobytes(), {name: t.grad_buffer().tobytes() for name, t in named}


CASES = {"init": (0.001, False), "unit": (0.001, True), "unit_no_l2": (0.0, True)}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_old_rules_give_the_same_bits(variant, case):
    params = variant_model(variant, *CASES[case])
    new = loss_and_grads(params)
    with oracle.old_gradient_rules(), oracle.three_node_conv():
        old = loss_and_grads(params)
    assert new[0] == old[0]
    assert new[1].keys() == old[1].keys()
    for name in new[1]:
        assert new[1][name] == old[1][name], name


@pytest.mark.parametrize("l2", [0.0, 0.001])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_clamped_loss_old_rules_give_the_same_bits(variant, l2):
    # Every p[gold] below the clamp: no gradient flows from the loss, so
    # without a penalty no parameter is reached at all.
    params = variant_model(variant, l2, unit_scale=True)
    params.w1.data[:] = 0.0
    params.b1.data[:] = [1e3, -1e3]  # p = (1, 0)
    clamped = [replace(inst, label=1) for inst in batch()]
    new = loss_and_grads(params, clamped)
    with oracle.old_gradient_rules(), oracle.three_node_conv():
        old = loss_and_grads(params, clamped)
    assert new == old


def test_per_step_char_lstm_under_old_rules_matches_fused():
    """The fused op against the per-word graph, which goes through
    `slice_last` and `row`, with that graph on the old rules: the same
    loss, and gradients within the fused op's tolerance."""
    params = variant_model("cnn+lstmchar", 0.001, unit_scale=True)
    fused_loss, fused_grads = loss_and_grads(params)
    with oracle.old_gradient_rules(), oracle.per_word_graph():
        old_loss, old_grads = loss_and_grads(params)
    assert fused_loss == old_loss
    assert_gradients_match(fused_grads, old_grads)


def has_negative_zero(a: np.ndarray) -> bool:
    return bool(np.any((a == 0.0) & np.signbit(a)))


@pytest.mark.parametrize("unit_scale", [False, True], ids=["init", "unit"])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_no_gradient_holds_negative_zero(variant, unit_scale):
    params = variant_model(variant, 0.001, unit_scale)
    zero_grads(params.named_tensors())
    root = M.loss(batch(), params, Rng(9))
    root.backward()
    nodes = T.graph_nodes(root)
    touched = [node for node in nodes if node.grad is not None]
    assert len(touched) > len(params.named_tensors())
    for node in touched:
        assert not has_negative_zero(node.grad), node


# ---------------------------------------------------------------------------
# Each scatter, on a first and on a second touch of its buffer


def assert_scatter(a: Tensor, out: Tensor, g, dense: np.ndarray, first: bool) -> None:
    """`out`'s backward with gradient `g` must leave in `a.grad` the bits
    of `old + dense`, where `old` is the buffer before (zeros if none)."""
    old = np.zeros_like(a.data) if first else Rng(5).fill_uniform(a.shape, -1.0, 1.0)
    if not first:
        old.reshape(-1)[:SPECIAL.size] = np.resize(SPECIAL[SPECIAL != 0.0], SPECIAL.size)
        assert not has_negative_zero(old)
        a.grad = old.copy()
    with np.errstate(all="ignore"):  # inf - inf is NaN on both sides
        out._backward_fn(g)
        expected = old + dense
    assert a.grad.tobytes() == expected.tobytes()
    assert not has_negative_zero(a.grad)


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_slice_last_scatter(first):
    a = Tensor(np.zeros((3, 7)), requires_grad=True)
    out = T.slice_last(a, 2, 5)
    g = np.resize(SPECIAL, out.shape)
    dense = np.zeros_like(a.data)
    dense[:, 2:5] = g
    assert_scatter(a, out, g, dense, first)


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_max_over_time_scatter(first):
    fm = Tensor(Rng(2).fill_uniform((4, 9), -1.0, 1.0), requires_grad=True)
    out = T.max_over_time(fm)
    g = SPECIAL.copy()
    dense = np.zeros_like(fm.data)
    dense[fm.data.argmax(axis=0), np.arange(9)] = g
    assert_scatter(fm, out, g, dense, first)


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize("rows", [[2, 3, 4, 5], [6], [0, 1, 2, 3, 4, 5, 6]])
def test_gather_run_scatter(first, rows):
    # A run of consecutive rows scatters as one slice add.
    table = Tensor(np.zeros((7, 9)), requires_grad=True)
    out = T.gather(table, rows)
    g = np.resize(SPECIAL, out.shape)
    dense = np.zeros_like(table.data)
    dense[rows] = g
    assert_scatter(table, out, g, dense, first)


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize("rows", [[0, 0, 0], [4, 1, 4, 6, 1, 4], [3, 2, 1], [2, 4, 6]])
def test_gather_scatter_matches_row_wise_add_at(first, rows):
    # Repeated or unordered rows: the flat scatter adds each entry's
    # values in index order, as a row-wise np.add.at does.
    table = Tensor(np.zeros((7, 9)), requires_grad=True)
    g = np.resize(SPECIAL[::-1], (len(rows), 9)) * np.arange(1, len(rows) + 1)[:, None]
    if not first:
        table.grad = Rng(5).fill_uniform(table.shape, -1.0, 1.0)
    expected = np.zeros_like(table.data) if first else table.grad.copy()
    with np.errstate(all="ignore"):
        np.add.at(expected, rows, g)
        T.gather(table, rows)._backward_fn(g)
    assert table.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize("g", [1.0, -0.0, 5e-324, np.inf, np.nan])
def test_nll_loss_scatter(first, g):
    p = Tensor(np.array([0.25, 0.0, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0]), requires_grad=True)
    out = T.nll_loss(p, 2)
    dense = np.zeros_like(p.data)
    dense[2] = -float(g) / 0.5
    assert_scatter(p, out, np.asarray(g), dense, first)


# ---------------------------------------------------------------------------
# Readers see an untouched gradient as zeros (Nadam: see test_optim)


def test_grad_check_reads_an_unreached_input_as_zeros():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    unused = Tensor(np.array([3.0]), requires_grad=True)
    assert T.grad_check(lambda: T.sum_all(T.mul(x, x)), [x, unused]) < 1e-8
    assert unused.grad is not None and not unused.grad.any()
