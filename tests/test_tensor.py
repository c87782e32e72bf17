import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrex.rng import Rng
from cdrex import tensor as T
from cdrex.tensor import (
    NumericsError,
    ShapeError,
    Tensor,
    add,
    concat,
    conv1d_valid,
    dropout,
    gather,
    grad_check,
    matmul,
    max_over_time,
    mul,
    nll_loss,
    relu,
    row,
    scale,
    sigmoid,
    slice_last,
    softmax,
    stack_rows,
    sum_all,
)


def t(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# conv1d_valid


class TestConv1d:
    def test_sliding_dot_product(self):
        # Hand computation: windows [1,2] and [2,3] against filter [1,1].
        out = conv1d_valid(t([[1.0], [2.0], [3.0]]), t([[[1.0], [1.0]]]), t([0.0]))
        np.testing.assert_array_equal(out.data, [[3.0], [5.0]])

    def test_zero_filters_zero_output(self):
        out = conv1d_valid(t([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                           t(np.zeros((4, 2, 2))), t(np.zeros(4)))
        assert (out.data == 0.0).all()

    def test_identity_filter_left_window(self):
        out = conv1d_valid(t([[1.0], [2.0], [3.0]]), t([[[1.0], [0.0]]]), t([0.0]))
        np.testing.assert_array_equal(out.data, [[1.0], [2.0]])

    def test_rejects_width_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d_valid(t([[1.0, 2.0]]), t(np.zeros((1, 1, 3))), t([0.0]))

    def test_rejects_window_longer_than_input(self):
        with pytest.raises(ShapeError):
            conv1d_valid(t([[1.0], [2.0]]), t(np.zeros((1, 3, 1))), t([0.0]))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), k=st.integers(1, 12), m=st.integers(1, 4), d=st.integers(1, 4))
    def test_output_shape(self, n, k, m, d):
        if n < k:
            n, k = k, n
        rng = Rng(7)
        out = conv1d_valid(t(rng.fill_uniform((n, d), -1, 1)),
                           t(rng.fill_uniform((m, k, d), -1, 1)),
                           t(rng.fill_uniform((m,), -1, 1)))
        assert out.shape == (n - k + 1, m)


# ---------------------------------------------------------------------------
# max_over_time


class TestMaxOverTime:
    def test_column_maximum(self):
        out = max_over_time(t([[3.0], [1.0], [2.0]]))
        np.testing.assert_array_equal(out.data, [3.0])

    def test_tie_routes_to_first_occurrence(self):
        fm = t([[5.0, 0.0], [5.0, 7.0]], requires_grad=True)
        out = max_over_time(fm)
        np.testing.assert_array_equal(out.data, [5.0, 7.0])
        sum_all(out).backward()
        np.testing.assert_array_equal(fm.grad, [[1.0, 0.0], [0.0, 1.0]])

    def test_constant_column(self):
        out = max_over_time(t([[4.0], [4.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [4.0])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            max_over_time(t(np.zeros((0, 3))))

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(1, 8), m=st.integers(1, 5), seed=st.integers(0, 2**32))
    def test_gradient_mass_lands_on_one_row_per_column(self, L, m, seed):
        fm = t(Rng(seed).fill_uniform((L, m), -1, 1), requires_grad=True)
        sum_all(max_over_time(fm)).backward()
        # One unit of gradient per column, all of it in a single row.
        np.testing.assert_allclose(fm.grad.sum(axis=0), np.ones(m))
        assert ((fm.grad != 0).sum(axis=0) == 1).all()


# ---------------------------------------------------------------------------
# elementwise activations


class TestActivations:
    def test_relu_sign_cases(self):
        np.testing.assert_array_equal(relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_tanh_sigmoid_symmetry_points(self):
        assert T.tanh(t([0.0])).data[0] == 0.0
        assert sigmoid(t([0.0])).data[0] == 0.5

    def test_relu_gradient_piecewise(self):
        x = t([-1.0, 2.0], requires_grad=True)
        sum_all(relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])


# ---------------------------------------------------------------------------
# softmax


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(t([0.0, 0.0])).data, [0.5, 0.5])

    def test_stability_under_shift(self):
        np.testing.assert_allclose(softmax(t([1000.0, 1000.0])).data, [0.5, 0.5])

    def test_exp_normalize_values(self):
        # exp(ln 1) = 1, exp(ln 3) = 3 -> 1/4, 3/4.
        out = softmax(t([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericsError):
            softmax(t([0.0, float("nan")]))
        with pytest.raises(ShapeError):
            softmax(t([1.0]))

    # Logit spreads beyond ~36 push the largest component to exactly 1.0 in
    # float64, so the open-interval property is tested on a bounded domain.
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-15, 15), min_size=2, max_size=8))
    def test_sums_to_one_components_in_open_interval(self, logits):
        p = softmax(t(logits)).data
        assert abs(p.sum() - 1.0) <= 1e-12
        assert (p > 0.0).all() and (p < 1.0).all()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=8, unique=True))
    def test_argmax_preserved(self, logits):
        logits = [float(x) for x in logits]
        p = softmax(t(logits)).data
        assert int(np.argmax(p)) == int(np.argmax(logits))


# ---------------------------------------------------------------------------
# dropout


class TestDropout:
    def test_inference_is_identity_bitwise(self):
        z = t([0.3, -1.2, 5.0])
        out = dropout(z, 0.5, Rng(1), training=False)
        assert out is z

    def test_rho_zero_is_identity_in_both_modes(self):
        z = t([1.0, 2.0])
        assert dropout(z, 0.0, Rng(1), training=True) is z
        assert dropout(z, 0.0, Rng(1), training=False) is z

    def test_inverted_scaling_preserves_expectation(self):
        z = t(np.ones(100_000))
        out = dropout(z, 0.5, Rng(33), training=True)
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_rejects_rho_one(self):
        with pytest.raises(ValueError):
            dropout(t([1.0]), 1.0, Rng(1), training=True)

    def test_same_seed_same_mask(self):
        z = t(np.ones(64))
        a = dropout(z, 0.25, Rng(5), training=True)
        b = dropout(z, 0.25, Rng(5), training=True)
        np.testing.assert_array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# nll_loss


class TestNllLoss:
    def test_certain_correct_prediction(self):
        assert nll_loss(t([1.0, 0.0]), 0).item() == 0.0

    def test_uniform_case(self):
        assert abs(nll_loss(t([0.5, 0.5]), 1).item() - math.log(2.0)) < 1e-12

    def test_zero_probability_clamped(self):
        loss = nll_loss(t([0.0, 1.0]), 0)
        assert loss.item() == -math.log(1e-12)

    def test_rejects_bad_gold(self):
        with pytest.raises(ValueError):
            nll_loss(t([0.5, 0.5]), 2)


# ---------------------------------------------------------------------------
# structural primitives


class TestStructural:
    def test_matmul_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(t(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_concat_vectors(self):
        np.testing.assert_array_equal(concat([t([1.0, 2.0]), t([3.0])]).data, [1.0, 2.0, 3.0])

    def test_add_gradient_is_identity(self):
        a = t([1.0, 2.0], requires_grad=True)
        b = t([3.0, 4.0], requires_grad=True)
        sum_all(add(a, b)).backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_add_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(t([1.0]), t([1.0, 2.0]))

    def test_gather_scatters_gradient(self):
        table = t([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]], requires_grad=True)
        out = gather(table, [2, 0, 2])
        np.testing.assert_array_equal(out.data, [[2.0, 2.0], [1.0, 0.0], [2.0, 2.0]])
        sum_all(out).backward()
        np.testing.assert_array_equal(table.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])

    def test_shared_subexpression_accumulates(self):
        x = t([2.0], requires_grad=True)
        y = add(mul(x, x), mul(x, x))  # 2x^2 -> d/dx = 4x = 8
        sum_all(y).backward()
        np.testing.assert_allclose(x.grad, [8.0])


class TestAccumulateGrad:
    def test_first_touch_has_the_bits_of_zeros_plus_g(self):
        g = np.array([[-0.0, 0.0, -1.5], [5e-324, -1e+300, np.inf]])
        x = t(np.ones_like(g), requires_grad=True)
        x.accumulate_grad(g)
        expected = np.zeros_like(x.data) + g
        assert x.grad.tobytes() == expected.tobytes()
        assert not np.signbit(x.grad[0, 0])  # -0.0 arrives as +0.0

    def test_stored_gradient_does_not_alias_g(self):
        g = np.array([1.0, 2.0])
        x = t([0.0, 0.0], requires_grad=True)
        x.accumulate_grad(g)
        assert not np.shares_memory(x.grad, g)
        x.accumulate_grad(np.array([0.5, 0.5]))
        np.testing.assert_array_equal(g, [1.0, 2.0])
        np.testing.assert_array_equal(x.grad, [1.5, 2.5])

    @pytest.mark.parametrize("first", [False, True])
    def test_shape_mismatch_raises(self, first):
        x = t([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        if not first:
            x.accumulate_grad(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            x.accumulate_grad(np.ones(2))  # would broadcast over the rows
        with pytest.raises(ShapeError):
            x.accumulate_grad(np.asarray(1.0))


def test_grad_buffer_zero_fills_on_first_touch_only():
    x = t([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    buf = x.grad_buffer()
    assert buf is x.grad and buf.shape == x.shape and not buf.any()
    buf[1] += 2.5
    assert x.grad_buffer() is buf
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [2.5, 2.5]])


# ---------------------------------------------------------------------------
# no_grad


class TestNoGrad:
    def test_results_record_no_graph(self):
        w = t([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        x = t([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            out = softmax(add(matmul(w, x), x))
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None

    def test_values_match_the_graph_path(self):
        rng = Rng(4)
        inp = t(rng.fill_uniform((6, 3), -1, 1), requires_grad=True)
        filt = t(rng.fill_uniform((4, 2, 3), -1, 1), requires_grad=True)
        bias = t(rng.fill_uniform((4,), -1, 1), requires_grad=True)

        def f():
            return max_over_time(relu(conv1d_valid(inp, filt, bias)))

        with T.no_grad():
            free = f()
        np.testing.assert_array_equal(free.data, f().data)

    def test_state_restored_after_exception(self):
        a = t([1.0], requires_grad=True)
        with pytest.raises(ShapeError):
            with T.no_grad():
                add(a, t([1.0, 2.0]))
        assert add(a, a).requires_grad

    def test_nested_contexts_restore_the_outer_state(self):
        a = t([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not add(a, a).requires_grad
        assert add(a, a)._parents == (a, a)


# ---------------------------------------------------------------------------
# grad_check


class TestGradCheck:
    def test_sum_of_squares(self):
        x = t([1.0, 2.0, 3.0], requires_grad=True)
        err = grad_check(lambda: sum_all(mul(x, x)), [x], eps=1e-4)
        assert err < 1e-8
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_constant_function(self):
        x = t([1.0, -1.0], requires_grad=True)
        c = t(np.asarray(3.0))
        err = grad_check(lambda: sum_all(mul(add(x, scale(x, -1.0)), c_broadcast(x, c))), [x])
        assert err < 1e-8

    def test_rejects_out_of_range_eps(self):
        x = t([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: sum_all(x), [x], eps=1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_operation_composed(self, seed):
        rng = Rng(seed)
        inp = t(rng.fill_uniform((6, 3), -1, 1), requires_grad=True)
        filt = t(rng.fill_uniform((4, 2, 3), -1, 1), requires_grad=True)
        bias = t(rng.fill_uniform((4,), -1, 1), requires_grad=True)
        w = t(rng.fill_uniform((2, 4), -1, 1), requires_grad=True)
        b = t(rng.fill_uniform((2,), -1, 1), requires_grad=True)

        def f():
            fm = relu(conv1d_valid(inp, filt, bias))
            z = max_over_time(fm)
            p = softmax(add(matmul(w, z), b))
            return nll_loss(p, 1)

        err = grad_check(f, [inp, filt, bias, w, b], eps=1e-4)
        assert err < 1e-4

    def test_lstm_style_ops(self):
        rng = Rng(3)
        xs = t(rng.fill_uniform((3, 2), -1, 1), requires_grad=True)
        wh = t(rng.fill_uniform((2, 4), -1, 1), requires_grad=True)

        def f():
            h = row(xs, 0)
            gates = matmul(h, wh)
            i = sigmoid(slice_last(gates, 0, 2))
            g = T.tanh(slice_last(gates, 2, 4))
            h2 = stack_rows([mul(i, g), row(xs, 1)])
            return sum_all(mul(h2, h2))

        assert grad_check(f, [xs, wh], eps=1e-4) < 1e-6


def c_broadcast(x, c):
    # Constant tensor shaped like x, for building constant-valued graphs.
    return add(scale(x, 0.0), Tensor(np.full(x.shape, float(c.data))))


# ---------------------------------------------------------------------------
# debug numerics


def test_debug_numerics_flags_non_finite():
    T.set_debug_numerics(True)
    try:
        with pytest.raises(NumericsError), np.errstate(over="ignore"):
            scale(t([1e308]), 10.0)
    finally:
        T.set_debug_numerics(False)
    # With the flag off the NaN/inf propagates silently.
    with np.errstate(over="ignore"):
        out = scale(t([1e308]), 10.0)
    assert np.isinf(out.data).any()
