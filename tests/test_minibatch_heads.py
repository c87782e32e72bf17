"""`model.loss` on a worker pool: the head of each instance (conv → pool
→ dropout → softmax → NLL) runs forward and backward on a worker inside
one `tensor.mean_of_heads` node, while the caller builds the input
matrices and the embedding and character gradients.

The loss, every parameter gradient and the dropout generator's state
afterwards must equal those of the serial graph (`oracle.loss`) bit for
bit, with any number of workers and however often threads switch.  A
failure raises the earliest failing instance's error, no worker outlives
the call, and the caller's grad mode is kept.
"""

import contextlib
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import oracle
from cdrex import encoders
from cdrex import model as M
from cdrex import tensor as T
from cdrex.corpus import RelationInstance
from cdrex.optim import zero_grads
from cdrex.rng import Rng
from cdrex.tensor import Tensor
from test_grad_buffer import batch, variant_model


def instances() -> list[RelationInstance]:
    """Nine instances of several lengths, some sharing words."""
    out = []
    for k in range(3):
        out += [replace(inst, uid=f"{inst.uid}.{k}", label=(inst.label + k) % 2,
                        i2=max(0, len(inst.tokens) - 1 - k))
                for inst in batch()]
    return out


@contextlib.contextmanager
def switching_often():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def run(loss_fn, params, seed: int = 9):
    """Loss bytes, every gradient's bytes, and the dropout generator's
    state after the loss."""
    named = params.named_tensors()
    zero_grads(named)
    rng = Rng(seed)
    total = loss_fn(instances(), params, rng)
    total.backward()
    return (total.data.tobytes(), {name: t.grad_buffer().tobytes() for name, t in named},
            (rng._state, rng.next_u64()))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("unit_scale", [False, True], ids=["init", "unit"])
@pytest.mark.parametrize("rho", [0.0, 0.5])
@pytest.mark.parametrize("l2", [0.0, 0.001])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_equals_the_serial_graph(variant, l2, rho, unit_scale, workers, monkeypatch):
    params = variant_model(variant, l2, unit_scale)
    params.hyper.rho = rho
    serial = run(oracle.loss, params)
    monkeypatch.setattr(T, "usable_cpus", lambda: workers)
    with switching_often():
        pooled = run(M.loss, params)
    assert pooled[0] == serial[0]
    assert pooled[1].keys() == serial[1].keys()
    for name in serial[1]:
        assert pooled[1][name] == serial[1][name], name
    assert pooled[2] == serial[2]


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_old_rules_and_chain_on_the_workers(variant, monkeypatch):
    # The oracle's swapped-in rules run on the workers too; they must
    # write through the same point, or the workers race on the shared
    # head gradients.
    params = variant_model(variant, 0.001, unit_scale=True)
    serial = run(oracle.loss, params)
    monkeypatch.setattr(T, "usable_cpus", lambda: 3)
    with oracle.old_gradient_rules(), oracle.three_node_conv(), switching_often():
        for _ in range(3):
            assert run(M.loss, params) == serial


def test_heads_run_on_the_pool_with_one_worker_per_cpu(monkeypatch):
    sizes, threads = [], set()
    real_pool, real_head = T.ThreadPoolExecutor, M.head

    def pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers)

    def head(*args):
        threads.add(threading.get_ident())
        return real_head(*args)

    monkeypatch.setattr(T, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(M, "head", head)
    params = variant_model("cnn", 0.001, unit_scale=False)
    M.loss(instances(), params, Rng(9)).backward()
    assert sizes == [T.usable_cpus()] * 2  # the forward pass and the backward pass
    assert threads and threading.get_ident() not in threads


def test_one_node_whose_parents_are_the_matrices_and_the_head():
    params = variant_model("cnn", 0.0, unit_scale=False)
    root = M.loss(instances(), params, Rng(9))
    assert root.op == "mean_of_heads"
    head = (params.conv_filters, params.conv_bias, params.w1, params.b1)
    assert root._parents[-4:] == head
    assert [p.op for p in root._parents[:-4]] == ["concat"] * len(instances())


def test_no_grad_builds_no_graph(monkeypatch):
    params = variant_model("cnn+cnnchar", 0.001, unit_scale=False)
    graph = M.loss(instances(), params, Rng(9))
    probabilities, real = [], M.head

    def head(*args):
        probabilities.append(real(*args))
        return probabilities[-1]

    monkeypatch.setattr(M, "head", head)
    with T.no_grad():
        free = M.loss(instances(), params, Rng(9))
    assert free._parents == () and not free.requires_grad
    assert len(probabilities) == len(instances())
    assert all(p._parents == () and not p.requires_grad for p in probabilities)
    assert free.data.tobytes() == graph.data.tobytes()


def test_mean_of_heads_equals_the_chain():
    # A head of its own, with a shared tensor written by every instance.
    rng = Rng(4)
    w = Tensor(rng.fill_uniform((3, 5), -1, 1), requires_grad=True)
    xs = [Tensor(rng.fill_uniform((5,), -1, 1), requires_grad=True) for _ in range(7)]

    def head(i, x, shared):
        return T.sum_all(T.tanh(T.matmul(shared[0], T.scale(x, i + 1))))

    def grads(build):
        for t in [w] + xs:
            t.grad = None
        root = T.scale(build(), 3.0)
        root.backward()
        return [root.data.tobytes()] + [t.grad_buffer().tobytes() for t in [w] + xs]

    def chain():
        total = None
        for i, x in enumerate(xs):
            h = head(i, x, (w,))
            total = h if total is None else T.add(total, h)
        return T.scale(total, 1.0 / len(xs))

    with switching_often():
        assert grads(lambda: T.mean_of_heads(iter(xs), (w,), head)) == grads(chain)


def pool_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t is not threading.main_thread()}


def failing_batch(monkeypatch, head_failures=(), backward_failures=(), bad_label=None):
    """Instances whose heads raise (forward or backward) for the given
    positions, and whose label is missing at `bad_label`.  The earliest
    failing head is slowed, so that it fails last."""
    batch_ = instances()
    if bad_label is not None:
        batch_[bad_label] = replace(batch_[bad_label], label=None)
    earliest = min([*head_failures, *backward_failures], default=None)
    real, real_matrix = M.head, encoders.build_input_matrix
    number = {}  # id of each input matrix's data -> instance number

    def build_input_matrix(inst, *args, **kwargs):
        mat = real_matrix(inst, *args, **kwargs)
        number[id(mat.data)] = [other.uid for other in batch_].index(inst.uid)
        return mat

    def head(mat, *args):
        i = number[id(mat.data)]  # a head's leaf shares its matrix's data
        time.sleep(0.02 if i == earliest else 0.001)
        if i in head_failures:
            raise RuntimeError(f"head {i}")
        p = real(mat, *args)
        if i not in backward_failures:
            return p

        def backward(g):
            time.sleep(0.02 if i == earliest else 0.001)
            raise RuntimeError(f"backward {i}")
        return T._result(p.data.copy(), (p,), backward, "boom")

    monkeypatch.setattr(M, "head", head)
    monkeypatch.setattr(encoders, "build_input_matrix", build_input_matrix)
    return batch_


CASES = {
    "heads": dict(head_failures=(3, 7), expected="head 3"),
    "head_before_label": dict(head_failures=(2,), bad_label=5, expected="head 2"),
    "label_before_head": dict(head_failures=(6,), bad_label=4, expected="has no gold label"),
    "backward": dict(backward_failures=(3, 7), expected="backward 3"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_earliest_failure_raised_and_no_worker_outlives_the_call(case, monkeypatch):
    spec = dict(CASES[case])
    expected = spec.pop("expected")
    params = variant_model("cnn", 0.001, unit_scale=False)
    monkeypatch.setattr(T, "usable_cpus", lambda: 4)
    before = pool_threads()
    w = Tensor(np.ones(2), requires_grad=True)
    batch_ = failing_batch(monkeypatch, **spec)
    for attempt in range(6):
        recording = attempt % 2 == 0 or case == "backward"  # the caller's grad mode
        with contextlib.nullcontext() if recording else T.no_grad():
            with pytest.raises((RuntimeError, ValueError)) as caught:
                M.loss(batch_, params, Rng(9)).backward()
            assert expected in str(caught.value)
            assert pool_threads() <= before
            assert T.add(w, w).requires_grad == recording
        assert T.add(w, w).requires_grad
