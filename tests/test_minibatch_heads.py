"""`model.loss` over a minibatch as one graph: the batch's distinct keys
are projected together, every instance's map, ReLU and max over time come
from one `tensor.tap_sum_relu_max` node, and dropout, the output layer,
the softmax and the NLL are one node each over the batch.

The loss and every parameter gradient must match the serial graph
(`oracle.loss`) within the tolerances of `test_tolerance_oracle`, and
leave the dropout generator as it does.  A failure raises the earliest
failing instance's error, the call starts no thread, and the caller's
grad mode is kept.
"""

import contextlib
import threading
from dataclasses import replace

import numpy as np
import pytest

from cdrex import encoders
from cdrex import model as M
from cdrex import tensor as T
from cdrex.corpus import RelationInstance
from cdrex.rng import Rng
from cdrex.tensor import Tensor
from test_grad_buffer import batch, variant_model
from test_tolerance_oracle import assert_matches_oracle_loss


def instances() -> list[RelationInstance]:
    """Nine instances of several lengths, some sharing words."""
    out = []
    for k in range(3):
        out += [replace(inst, uid=f"{inst.uid}.{k}", label=(inst.label + k) % 2,
                        i2=max(0, len(inst.tokens) - 1 - k))
                for inst in batch()]
    return out


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("unit_scale", [False, True], ids=["init", "unit"])
@pytest.mark.parametrize("rho", [0.0, 0.5])
@pytest.mark.parametrize("l2", [0.0, 0.001])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_equals_the_serial_graph(variant, l2, rho, unit_scale, seed):
    params = variant_model(variant, l2, unit_scale)
    params.hyper.rho = rho
    assert_matches_oracle_loss(params, instances(), seed=seed)


def test_one_map_node_whose_parents_are_the_projections_and_the_bias():
    params = variant_model("cnn", 0.0, unit_scale=False)
    root = M.loss(instances(), params, Rng(9))
    (node,) = [t for t in T.graph_nodes(root) if t.op == "tap_sum_relu_max"]
    assert node.shape == (len(instances()), params.hyper.m)
    assert [p.op for p in node._parents[:3]] == ["tap_projections", "shift_sum", "shift_sum"]
    assert node._parents[3] is params.conv_bias


def test_no_grad_builds_no_graph(monkeypatch):
    params = variant_model("cnn+cnnchar", 0.001, unit_scale=False)
    graph = M.loss(instances(), params, Rng(9))
    probabilities, real = [], T.softmax

    def softmax(*args):
        probabilities.append(real(*args))
        return probabilities[-1]

    monkeypatch.setattr(T, "softmax", softmax)
    with T.no_grad():
        free = M.loss(instances(), params, Rng(9))
    assert free._parents == () and not free.requires_grad
    assert [p.shape for p in probabilities] == [(len(instances()), 2)]
    assert probabilities[0]._parents == () and not probabilities[0].requires_grad
    assert free.data.tobytes() == graph.data.tobytes()


def pool_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t is not threading.main_thread()}


def failing_batch(monkeypatch, head_failures=(), backward_failure=False, bad_label=None):
    """Instances whose rows cannot be built at the given positions, whose
    label is missing at `bad_label`, and, with `backward_failure`, a batch
    whose backward pass fails."""
    batch_ = instances()
    if bad_label is not None:
        batch_[bad_label] = replace(batch_[bad_label], label=None)
    failing = {batch_[i].uid: i for i in head_failures}
    real_tokens, real_map = encoders.padded_tokens, T.tap_sum_relu_max

    def padded_tokens(inst, *args):
        if inst.uid in failing:
            raise RuntimeError(f"head {failing[inst.uid]}")
        return real_tokens(inst, *args)

    def tap_sum_relu_max(*args):
        z = real_map(*args)

        def backward(g):
            raise RuntimeError("backward")
        return T._result(z.data.copy(), (z,), backward, "boom")

    monkeypatch.setattr(encoders, "padded_tokens", padded_tokens)
    if backward_failure:
        monkeypatch.setattr(T, "tap_sum_relu_max", tap_sum_relu_max)
    return batch_


CASES = {
    "heads": dict(head_failures=(3, 7), expected="head 3"),
    "head_before_label": dict(head_failures=(2,), bad_label=5, expected="head 2"),
    "label_before_head": dict(head_failures=(6,), bad_label=4, expected="has no gold label"),
    "backward": dict(backward_failure=True, expected="backward"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_earliest_failure_raised_and_no_worker_outlives_the_call(case, monkeypatch):
    spec = dict(CASES[case])
    expected = spec.pop("expected")
    params = variant_model("cnn", 0.001, unit_scale=False)
    before = pool_threads()
    w = Tensor(np.ones(2), requires_grad=True)
    batch_ = failing_batch(monkeypatch, **spec)
    for attempt in range(4):
        recording = attempt % 2 == 0 or case == "backward"  # the caller's grad mode
        with contextlib.nullcontext() if recording else T.no_grad():
            with pytest.raises((RuntimeError, ValueError)) as caught:
                M.loss(batch_, params, Rng(9)).backward()
            assert expected in str(caught.value)
            assert pool_threads() <= before
            assert T.add(w, w).requires_grad == recording
        assert T.add(w, w).requires_grad
