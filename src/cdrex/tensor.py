"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately minimal: it provides exactly the operations the
relation classifier needs.  Every operation returns a new `Tensor` whose
node records its operands and a backward rule; calling `backward()` on a
scalar result walks the recorded graph in reverse topological order and
accumulates gradients into the reachable tensors with `requires_grad`.

Gradients follow one rule: `Tensor.grad_buffer()` is the only place a
gradient array is created, zero-filled on a tensor's first touch, and
`Tensor.accumulate_grad` is the one place a backward rule writes into it:
it adds in place, a whole array or a few rows or entries as a scatter.
The one exception is `_accumulate_in_order`, the LSTM's batched form of
many whole-array writes, which never runs in a head (below).  A tensor
that no gradient reaches keeps `grad` None, and readers (Nadam,
`grad_check`) see zeros through the same call.  No gradient buffer ever
holds -0.0:
each starts as +0.0 zeros, or ones at the root, and only additions change
it, and in round-to-nearest `x + y` is -0.0 only when both operands are.
So adding a few values into a slice in place gives the bits of adding a
dense array that holds +0.0 everywhere else, and a first contribution
`0.0 + g` has the bits of `g + 0.0` (-0.0 becomes +0.0; NaN and inf pass).

backward() must run before any operand's data is mutated in place
(backward rules read operand data live).  There is no global tape: the
graph lives in the result tensors themselves, so independent graphs
never share state.

A graph is built and walked on one thread, except inside
`mean_of_heads`, the minibatch mean of one scalar head per instance:
each head's graph is built on a worker thread of a pool made for the
forward pass, and walked backward on a worker of a pool made for the
backward pass, never by two threads at once.  A head's leaves are
stand-ins for its input and for the tensors all heads share, with the
same data.  Its input's gradient goes straight into that input's buffer,
which no other head touches; its writes into the shared tensors are
recorded on the worker, and the caller applies each head's records in
instance order after the ones before.  Every such write goes through
`accumulate_grad`, whichever rule makes it (the test oracle swaps in
others), so no two threads add into one buffer.  Each shared tensor thus
takes the same additions, in the same order, as in the serial chain
`scale(add(add(h_0, h_1), ...), 1/B)`: there, the backward pass reaches
head 0, then head 1's, and so on, each head's subgraph, input included,
before the next head's, and the input subgraphs share no node.  Each
head is seeded with `0.0 + g/B`, the bits that the chain's `scale` and
`add` rules hand it, and the value is the chain's left fold, so the loss
and every gradient keep their bits.  After the node's backward rule, the
pass goes on into the inputs' subgraphs in instance order, as the
chain's does.

Inference builds no graph: inside `with no_grad():` every operation
returns a plain result that records no operands and no backward rule, so
nothing stays reachable once the result is read.  Values are the same
arithmetic as with the graph, bit for bit.  The switch is per thread:
inference may run on worker threads (see `optim.predict_pairs`), and one
thread's `no_grad` never turns graph recording off in another; the heads
of `mean_of_heads` run in their caller's mode.  The thread's previous
state comes back when the block exits, also on an exception.

`conv_relu_max` runs a convolution, its ReLU and the max over time as
one node, in place of the chain `conv1d_valid → relu → max_over_time`
(kept as its test oracle).  The forward repeats the chain's arithmetic:
the bias plus the k tap products in tap order, `np.maximum(pre, 0)` and
the first-occurrence argmax of the ReLU'd map.  Max pooling sends column
f's gradient to one row, `argmax[f]`, and ReLU only where the value is
positive, so the chain's (L, m) map gradient G holds `gz = g * (value >
0)` at the argmax rows (up to the sign of a zero) and zeros elsewhere.
Entry (f, h, j) of the chain's filter gradient `G.T @ input[h:h+L]` is
then one product `gz[f] * input[argmax[f] + h, j]` plus zero terms, and
entry f of its bias gradient, a column sum of G, is `gz[f]` plus zeros.
A sum of one value and zeros is that value, up to the sign of a zero
result, and no buffer holds -0.0 (see above), so adding the products
alone, gathered from the argmax windows, leaves every gradient bit as
the GEMMs do; the columns whose `gz` is zero, about half of them under
dropout, are skipped.  The input gradient `G @ filters[:, h, :]` sums
over all m columns with nonzero terms, so it stays the chain's dense
product per tap, over a map that holds `gz` where G holds its values;
taking it from the argmax rows alone reorders that sum and changes the
last bits.

`lstm_final_states` runs one LSTM direction over many sequences as a
single node with a hand-written backward through time.  Its values and
every gradient it passes on equal, bit for bit, those of the graph of
scalar-step operations (`row`, `matmul`, `add`, `slice_last`, `sigmoid`,
`tanh`, `mul`) that it replaces, because it repeats that graph's
arithmetic: each elementwise expression keeps its operands and their
order (sigmoid backward is `(g * s) * (1 - s)`, tanh backward
`g * (1 - y * y)`), and `wh` and `b` receive one contribution per
(sequence, step), sequences in order and each from its last step back to
its first, added in that order.  The per-step graph stores each node's
first gradient as `0.0 + g`, which changes only the sign of exact zeros;
the op skips that inside, because products and sums keep such a
difference confined to zeros and every leaf gradient is added into +0.0
zeros, which erases it.  The `h @ wh` and
`wh @ dgates` products run as stacks of matrix-vector products, which
round as the single ones do.  The input projection `x_w @ wx` and its
gradients `dX_w @ wx.T` and `x_w.T @ dX_w` stay one product per sequence:
stacking the rows of all sequences into one product changes the BLAS
blocking, and its rows then differ from the per-sequence products in the
last bits (on 125 of 125 sequences of a 790-row stack, OpenBLAS 0.3.31).
"""

from __future__ import annotations

import contextlib
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np

log = logging.getLogger(__name__)

LOG_CLAMP = 1e-12

_debug_numerics = False


class _GradMode(threading.local):
    enabled = True  # each thread starts with graph recording on


_grad_mode = _GradMode()


def set_debug_numerics(enabled: bool) -> None:
    """Toggle finiteness assertions on every operation output."""
    global _debug_numerics
    _debug_numerics = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Operations this thread runs inside the block record no graph."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class NumericsError(ArithmeticError):
    """Non-finite value detected while debug_numerics is enabled."""


class Tensor:
    """Dense row-major float64 array, optionally tracked for gradients.

    `grad` is None until `grad_buffer()` first creates it, zero-filled
    and of the data's shape; every backward rule adds into it there, and
    it accumulates across calls until reset to None.  Read it through
    `grad_buffer()` too, so that a tensor no gradient reached reads as
    zeros.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "op")

    def __init__(self, data, requires_grad: bool = False):
        # Row-major contiguity is part of the contract (flat views of
        # `data` must alias it, e.g. for finite-difference perturbation).
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self.op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g, at=..., repeats: bool = False) -> None:
        """Add `g` into `grad_buffer()[at]` in place: the one place a
        backward rule writes a gradient (see the module docstring).

        `at` indexes the buffer, the whole of it by default, and selects
        no entry twice.  With `repeats`, `at` is a 1-D array of row numbers
        that may repeat and `g` holds one row per number; each entry takes
        its values in order, as from `np.add.at(grad, at, g)`, computed as
        one `np.add.at` over the flat buffer, several times faster."""
        if at is ... and g.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {g.shape} for data of shape {self.data.shape}")
        grad = self.grad_buffer()
        if repeats:
            width = grad.size // grad.shape[0]
            entries = (at[:, None] * width + np.arange(width)).reshape(-1)
            np.add.at(grad.reshape(-1), entries, g.reshape(-1))
        elif at is ...:
            grad += g
        else:
            grad[at] += g

    def grad_buffer(self) -> np.ndarray:
        """`grad` for a backward rule to write into in place, zero-filled
        on the first touch."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def backward(self) -> None:
        """Reverse-mode gradient pass from a scalar root."""
        if self.data.ndim != 0:
            raise ShapeError(f"backward() needs a scalar root, got shape {self.shape}")
        self.grad = np.ones_like(self.data)
        _backprop(self)


def _backprop(root: Tensor) -> None:
    """Run the backward rule of every node reachable from `root`, whose
    gradient is set, in reverse topological order."""
    for node in reversed(graph_nodes(root)):
        # grad is None when no gradient reached the node (e.g. past a
        # clamp); propagating zeros would be a no-op.
        if node._backward_fn is None or node.grad is None:
            continue
        node._backward_fn(node.grad)


def graph_nodes(root: Tensor) -> list[Tensor]:
    """All nodes reachable from `root`, in topological order.

    Iterative post-order traversal; operands always precede the operations
    that consume them.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _result(data: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    out.op = op
    if _debug_numerics and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite output of {op}")
    return out


# ---------------------------------------------------------------------------
# Elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)
    return _result(a.data + b.data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)
    return _result(a.data * b.data, (a, b), backward, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)
    return _result(a.data * c, (a,), backward, "scale")


def relu(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0.0))
    return _result(np.maximum(a.data, 0.0), (a,), backward, "relu")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - out_data * out_data))
    return _result(out_data, (a,), backward, "tanh")


def sigmoid(a: Tensor) -> Tensor:
    # exp overflows to inf for inputs below about -709; 1/inf is the
    # correct limit 0, so the overflow is not worth a warning.
    with np.errstate(over="ignore"):
        out_data = 1.0 / (1.0 + np.exp(-a.data))
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * out_data * (1.0 - out_data))
    return _result(out_data, (a,), backward, "sigmoid")


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g)))
    return _result(np.asarray(a.data.sum()), (a,), backward, "sum")


# ---------------------------------------------------------------------------
# Structural primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for the 2Dx2D, 2Dx1D and 1Dx2D cases."""
    if a.data.ndim == 2 and b.data.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        def backward(g):
            if a.requires_grad:
                a.accumulate_grad(g @ b.data.T)
            if b.requires_grad:
                b.accumulate_grad(a.data.T @ g)
    elif a.data.ndim == 2 and b.data.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        def backward(g):
            if a.requires_grad:
                a.accumulate_grad(np.outer(g, b.data))
            if b.requires_grad:
                b.accumulate_grad(a.data.T @ g)
    elif a.data.ndim == 1 and b.data.ndim == 2:
        if a.shape[0] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        def backward(g):
            if a.requires_grad:
                a.accumulate_grad(b.data @ g)
            if b.requires_grad:
                b.accumulate_grad(np.outer(a.data, g))
    else:
        raise ShapeError(f"matmul: unsupported ranks {a.data.ndim} and {b.data.ndim}")
    return _result(a.data @ b.data, (a, b), backward, "matmul")


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along the last axis."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: no operands")
    if axis not in (-1, parts[0].data.ndim - 1):
        raise ShapeError("concat: only the last axis is supported")
    widths = [p.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)
    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate_grad(g[..., lo:hi])
    return _result(np.concatenate([p.data for p in parts], axis=-1), parts, backward, "concat")


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a matrix."""
    rows = list(rows)
    if not rows or any(r.data.ndim != 1 for r in rows):
        raise ShapeError("stack_rows: needs a nonempty list of 1-D tensors")
    def backward(g):
        for i, r in enumerate(rows):
            if r.requires_grad:
                r.accumulate_grad(g[i])
    return _result(np.stack([r.data for r in rows]), rows, backward, "stack_rows")


def gather(table: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; gradients scatter-add back.  The
    scatter writes into the table's gradient buffer in place, so embedding
    tables never allocate per-lookup temporaries of their own size.

    Indices that form one ascending run of consecutive rows (a position
    table's lookup) scatter as a slice add: each row receives one
    addition, as with `np.add.at`, at a small part of the cost.  Other
    indices may repeat (the word table's PAD rows), and scatter through
    `accumulate_grad`'s `repeats` form: each entry receives its additions
    in index order."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError("gather: needs a 2-D table and 1-D indices")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError("gather: index out of range")
    def backward(g):
        if table.requires_grad:
            if idx.size and (np.diff(idx) == 1).all():
                table.accumulate_grad(g, slice(idx[0], idx[-1] + 1))
            else:
                table.accumulate_grad(g, idx, repeats=True)
    return _result(table.data[idx], (table,), backward, "gather")


def row(a: Tensor, i: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= i < a.shape[0]):
        raise ShapeError(f"row: index {i} into shape {a.shape}")
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g, i)
    return _result(a.data[i].copy(), (a,), backward, "row")


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.shape[-1]):
        raise ShapeError(f"slice_last: [{start}:{stop}] of {a.shape}")
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g, (..., slice(start, stop)))
    return _result(a.data[..., start:stop].copy(), (a,), backward, "slice")


# ---------------------------------------------------------------------------
# Model-level operations


def _conv_shape(op: str, input: Tensor, filters: Tensor, bias: Tensor) -> tuple[int, int]:
    """(k, L) of a valid convolution of input (n, d) with filters (m, k, d)
    and bias (m,), L = n - k + 1 >= 1; ShapeError otherwise."""
    if input.data.ndim != 2 or filters.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeError(f"{op}: expects input (n,d), filters (m,k,d), bias (m,)")
    n, d = input.shape
    m, k, fd = filters.shape
    if fd != d:
        raise ShapeError(f"{op}: filter width {fd} != input width {d}")
    if bias.shape != (m,):
        raise ShapeError(f"{op}: bias shape {bias.shape} != ({m},)")
    if k < 1 or n < k:
        raise ShapeError(f"{op}: need n >= k >= 1, got n={n}, k={k}")
    return k, n - k + 1


def _conv_forward(input: np.ndarray, filters: np.ndarray, bias: np.ndarray,
                  k: int, length: int) -> np.ndarray:
    # k slim matrix products over contiguous row slices, added in tap
    # order onto the bias; no (L, k*d) window matrix is materialized.
    out = np.broadcast_to(bias, (length, bias.shape[0])).copy()
    for h in range(k):
        out += input[h:h + length] @ filters[:, h, :].T
    return out


def conv1d_valid(input: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Valid 1-D convolution over the row (time) axis, pre-activation.

    input is (n, d), filters (m, k, d), bias (m,); the output row j, column
    f is sum_h dot(filters[f][h], input[j+h]) + bias[f], shape (n-k+1, m).
    The model runs `conv_relu_max`; this op, `relu` and `max_over_time`
    are the chain it replaced, kept as its test oracle.
    """
    k, length = _conv_shape("conv1d_valid", input, filters, bias)
    out_data = _conv_forward(input.data, filters.data, bias.data, k, length)

    def backward(g):
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=0))
        if filters.requires_grad:
            for h in range(k):
                filters.accumulate_grad(g.T @ input.data[h:h + length], (slice(None), h))
        if input.requires_grad:
            for h in range(k):
                input.accumulate_grad(g @ filters.data[:, h, :], slice(h, h + length))

    return _result(out_data, (input, filters, bias), backward, "conv1d_valid")


def conv_relu_max(input: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Max over time of the ReLU of a valid 1-D convolution, shape (m,).

    One node with the values of `max_over_time(relu(conv1d_valid(input,
    filters, bias)))`, bit for bit, and the same gradients; see the
    module docstring.  Column f's gradient flows through its first
    maximal row `argmax[f]` only, and not at all where the value is 0.
    """
    k, length = _conv_shape("conv_relu_max", input, filters, bias)
    fm = _conv_forward(input.data, filters.data, bias.data, k, length)
    np.maximum(fm, 0.0, out=fm)
    argmax = fm.argmax(axis=0)
    cols = np.arange(fm.shape[1])
    value = fm[argmax, cols]

    def backward(g):
        gz = g * (value > 0.0)
        if bias.requires_grad:
            bias.accumulate_grad(gz)
        if filters.requires_grad:
            # Entry (f, h, j) of the chain's filter GEMM is one product;
            # columns with no gradient would add only zeros.
            live = np.flatnonzero(gz)
            windows = input.data[argmax[live, None] + np.arange(k)]
            windows *= gz[live, None, None]
            filters.accumulate_grad(windows, live)
        if input.requires_grad:
            dense = np.zeros((length, cols.size))
            dense[argmax, cols] = gz
            for h in range(k):
                input.accumulate_grad(dense @ filters.data[:, h, :], slice(h, h + length))

    return _result(value, (input, filters, bias), backward, "conv_relu_max")


def lstm_final_states(x: Tensor, lengths: Sequence[int], wx: Tensor, wh: Tensor, b: Tensor,
                      reverse: bool) -> Tensor:
    """Final hidden states of one LSTM direction over W sequences, shape (W, u).

    x stacks the sequences' input rows, (sum(lengths), d); sequence w is
    rows [off_w, off_w + lengths[w]), read in order, or last row first
    when `reverse`.  wx is (d, 4u), wh (u, 4u) and b (4u,), with the gates
    packed [input, forget, output, candidate].  Each step computes

        gates = (x_t @ wx + h @ wh) + b
        c = f * c + i * g;  h = o * tanh(c)

    from h = c = 0.  All sequences step in lockstep (longest first), and
    the result is one graph node; see the module docstring for why its
    values and gradients equal those of a per-step graph bit for bit.
    """
    lengths = [int(n) for n in lengths]
    if x.data.ndim != 2 or wx.data.ndim != 2 or wh.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError("lstm_final_states: expects x (N,d), wx (d,4u), wh (u,4u), b (4u,)")
    u = wh.shape[0]
    if wh.shape != (u, 4 * u) or wx.shape != (x.shape[1], 4 * u) or b.shape != (4 * u,):
        raise ShapeError(f"lstm_final_states: x {x.shape}, wx {wx.shape}, wh {wh.shape}, "
                         f"b {b.shape} do not fit one LSTM")
    if not lengths or min(lengths) < 1 or sum(lengths) != x.shape[0]:
        raise ShapeError(f"lstm_final_states: lengths {lengths} must be >= 1 "
                         f"and sum to {x.shape[0]}")
    offsets = np.cumsum([0] + lengths)
    # The x projection stays one (L, d) @ (d, 4u) product per sequence: a
    # row-stacked product over all sequences rounds differently.
    xproj = np.empty((x.shape[0], 4 * u))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        xproj[lo:hi] = x.data[lo:hi] @ wx.data

    # Lockstep order: sorted longest first, the sequences still running at
    # step s are a prefix, active[s] long, of `order`.
    order = np.argsort(-np.asarray(lengths), kind="stable")
    sorted_len = np.asarray(lengths)[order]
    sorted_off = offsets[:-1][order]
    steps = int(sorted_len[0])
    active = [int(np.count_nonzero(sorted_len > s)) for s in range(steps)] + [0]
    # rows[s]: the input row each running sequence reads at step s.
    rows = [sorted_off[:active[s]] + (sorted_len[:active[s]] - 1 - s if reverse else s)
            for s in range(steps)]

    saved = []  # per step, for the backward; empty under no_grad
    final = np.empty((len(lengths), u))
    h = np.zeros((active[0], u))
    c = np.zeros((active[0], u))
    for s in range(steps):
        n = active[s]
        h_prev, c_prev = h[:n], c[:n]
        gates = (xproj[rows[s]] + np.matmul(h_prev[:, None, :], wh.data)[:, 0]) + b.data
        with np.errstate(over="ignore"):  # as in `sigmoid`
            ifo = 1.0 / (1.0 + np.exp(-gates[:, :3 * u]))
        g = np.tanh(gates[:, 3 * u:])
        c = ifo[:, u:2 * u] * c_prev + ifo[:, :u] * g
        tc = np.tanh(c)
        h = ifo[:, 2 * u:] * tc
        final[order[active[s + 1]:n]] = h[active[s + 1]:]
        if _grad_mode.enabled:
            saved.append((h_prev, c_prev, ifo, g, tc))

    def backward(grad):
        # Operands and their order as in the per-step graph; its `+ 0.0`
        # on each first gradient is left out (see the module docstring).
        dgates_at = np.empty((x.shape[0], 4 * u))  # by input row
        h_prev_at = np.empty((x.shape[0], u))
        dh_next = dc_next = np.empty((0, u))
        for s in reversed(range(steps)):
            n, m = active[s], active[s + 1]
            h_prev, c_prev, ifo, g, tc = saved[s]
            dh = np.empty((n, u))
            dh[:m] = dh_next
            dh[m:] = grad[order[m:n]]
            o = ifo[:, 2 * u:]
            dc = (dh * o) * (1.0 - tc * tc)
            dc[:m] += dc_next
            difo = np.concatenate((dc * g, dc * c_prev, dh * tc), axis=1)
            dgates = np.concatenate(((difo * ifo) * (1.0 - ifo),
                                     (dc * ifo[:, :u]) * (1.0 - g * g)), axis=1)
            dgates_at[rows[s]] = dgates
            h_prev_at[rows[s]] = h_prev
            if s > 0:
                dh_next = np.matmul(wh.data, dgates[:, :, None])[:, :, 0]
                dc_next = dc * ifo[:, u:2 * u]
        spans = list(zip(offsets[:-1], offsets[1:]))
        if x.requires_grad:
            for lo, hi in spans:
                x.accumulate_grad(dgates_at[lo:hi] @ wx.data.T, slice(lo, hi))
        if wx.requires_grad:
            for lo, hi in spans:
                wx.accumulate_grad(x.data[lo:hi].T @ dgates_at[lo:hi])
        # wh and b take one contribution per (sequence, step): sequences in
        # order, each from its last step to its first.
        seq = np.concatenate([np.arange(lo, hi)[::1 if reverse else -1] for lo, hi in spans])
        if b.requires_grad:
            _accumulate_in_order(b, seq, lambda k, out: np.take(dgates_at, k, axis=0, out=out))
        if wh.requires_grad:
            _accumulate_in_order(wh, seq, lambda k, out: np.multiply(
                h_prev_at[k][:, :, None], dgates_at[k][:, None, :], out=out))

    return _result(final, (x, wx, wh, b), backward, "lstm_final_states")


def _accumulate_in_order(t: Tensor, seq: np.ndarray, fill, chunk: int = 64) -> None:
    """Add one contribution per entry of `seq` into `t.grad_buffer()`,
    one after another, as that many `accumulate_grad` calls would.
    `fill(k, out)` writes the contributions of the entries `k` into `out`.

    `np.add.reduce` over the leading axis of a C-contiguous stack adds its
    rows in sequence (a test pins this), so a stack that starts from the
    current gradient gives the same bits.  One reused buffer holds the
    stack: fresh megabyte temporaries cost several times the arithmetic.
    This is the one backward helper that writes a buffer itself; the
    leaves of a `mean_of_heads` head refuse it."""
    acc = t.grad_buffer()
    buf = np.empty((min(chunk, len(seq)) + 1,) + t.shape)
    for lo in range(0, len(seq), chunk):
        k = seq[lo:lo + chunk]
        stack = buf[:len(k) + 1]
        stack[0] = acc
        fill(k, stack[1:])
        np.add.reduce(stack, axis=0, out=acc)


def max_over_time(feature_map: Tensor) -> Tensor:
    """Column-wise maximum of an (L, m) map; gradient flows to the first
    occurrence of each column's maximum."""
    if feature_map.data.ndim != 2 or feature_map.shape[0] < 1:
        raise ShapeError(f"max_over_time: needs a nonempty (L, m) map, got {feature_map.shape}")
    argmax = feature_map.data.argmax(axis=0)
    cols = np.arange(feature_map.shape[1])
    def backward(g):
        if feature_map.requires_grad:
            feature_map.accumulate_grad(g, (argmax, cols))
    return _result(feature_map.data[argmax, cols], (feature_map,), backward, "max_over_time")


def softmax(logits: Tensor) -> Tensor:
    """Stable exp-normalize of a 1-D logit vector (length >= 2)."""
    if logits.data.ndim != 1 or logits.shape[0] < 2:
        raise ShapeError(f"softmax: needs a 1-D vector of length >= 2, got {logits.shape}")
    if not np.all(np.isfinite(logits.data)):
        raise NumericsError("softmax: non-finite logits")
    shifted = logits.data - logits.data.max()
    e = np.exp(shifted)
    p = e / e.sum()
    def backward(g):
        if logits.requires_grad:
            logits.accumulate_grad(p * (g - float(g @ p)))
    return _result(p, (logits,), backward, "softmax")


def dropout(z: Tensor, rho: float, uniforms: np.ndarray | None) -> Tensor:
    """Inverted dropout: component j is zeroed where `uniforms[j]`, one
    uniform [0, 1) draw per component, is below rho, and the survivors are
    scaled by 1/(1-rho), so inference needs no correction.  Without
    uniforms (inference) or at rho = 0 the input tensor is returned
    unchanged."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"dropout: rho must be in [0, 1), got {rho}")
    if uniforms is None or rho == 0.0:
        return z
    if uniforms.shape != z.shape:
        raise ShapeError(f"dropout: uniforms of shape {uniforms.shape} for {z.shape}")
    mask = (uniforms >= rho) / (1.0 - rho)
    def backward(g):
        if z.requires_grad:
            z.accumulate_grad(g * mask)
    return _result(z.data * mask, (z,), backward, "dropout")


def nll_loss(p: Tensor, gold: int) -> Tensor:
    """Negative log likelihood of the gold class.

    p[gold] is clamped at 1e-12 before the log; inside the clamped region
    the gradient is zero, matching what finite differences see.
    """
    if p.data.ndim != 1:
        raise ShapeError(f"nll_loss: p must be 1-D, got {p.shape}")
    if not 0 <= gold < p.shape[0]:
        raise ValueError(f"nll_loss: gold index {gold} outside [0, {p.shape[0]})")
    pg = float(p.data[gold])
    clamped = pg < LOG_CLAMP
    if clamped and _debug_numerics:
        log.warning("nll_loss: p[gold]=%.3e clamped at %.0e", pg, LOG_CLAMP)
    def backward(g):
        if p.requires_grad and not clamped:
            p.accumulate_grad(-float(g) / pg, gold)
    return _result(np.asarray(-np.log(max(pg, LOG_CLAMP))), (p,), backward, "nll")


# ---------------------------------------------------------------------------
# The minibatch mean: one head per instance, on a worker pool


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Standin(Tensor):
    """A head's leaf for a tensor outside its graph.  It shares the
    tensor's data; its gradient writes go to the tensor at once, or, when
    recorded, into `writes` for the caller to apply later."""

    __slots__ = ("target", "writes")

    def __init__(self, target: Tensor, record: bool):
        super().__init__(target.data, target.requires_grad)
        self.target = target
        self.writes: list | None = [] if record else None

    def accumulate_grad(self, g, at=..., repeats: bool = False) -> None:
        if self.writes is None:
            self.target.accumulate_grad(g, at, repeats)
        else:
            self.writes.append((g, at, repeats))

    def grad_buffer(self) -> np.ndarray:
        raise RuntimeError("a head writes gradients through accumulate_grad only")


def mean_of_heads(inputs: Iterable[Tensor], shared: Sequence[Tensor],
                  head: Callable[[int, Tensor, tuple[Tensor, ...]], Tensor]) -> Tensor:
    """The mean over i of the scalars `head(i, inputs[i], shared)`, as one
    node whose parents are the inputs, in order, and the shared tensors.

    The value is the left fold `((h_0 + h_1) + ...) * (1/B)` of the chain
    `scale(add(add(h_0, h_1), ...), 1/B)`, and the gradients are those of
    that chain; see the module docstring.  Each head runs forward, and
    later backward, on a worker pool made for that pass with one worker
    per usable CPU, while the caller draws the next input from `inputs`;
    the workers record graphs in the caller's grad mode.  A failure
    raises the error of the earliest failing instance, whether drawing
    its input or running its head failed, and every worker has finished
    when the pass returns or raises."""
    recording = _grad_mode.enabled

    def forward(i: int, x: Tensor):
        _grad_mode.enabled = recording
        leaves = tuple(_Standin(t, record=True) for t in shared)
        h = head(i, _Standin(x, record=False), leaves)
        if h.data.ndim != 0:
            raise ShapeError(f"mean_of_heads: head {i} has shape {h.shape}, expected a scalar")
        return h, leaves

    xs: list[Tensor] = []
    failure = None
    with ThreadPoolExecutor(max_workers=usable_cpus()) as pool:
        runs = []
        try:
            for i, x in enumerate(inputs):
                xs.append(x)
                runs.append(pool.submit(forward, i, x))
        except Exception as exc:  # noqa: BLE001 - an earlier head's failure comes first
            failure = exc
        heads = [run.result() for run in runs]
    if failure is not None:
        raise failure
    if not heads:
        raise ValueError("mean_of_heads: no inputs")
    c = 1.0 / len(heads)
    total = heads[0][0].data
    for h, _ in heads[1:]:
        total = total + h.data

    def backward(g):
        def run(i: int) -> tuple[_Standin, ...]:
            # The bits the chain's `scale` and `add` rules hand head i.
            h, leaves = heads[i]
            h.accumulate_grad(g * c)
            _backprop(h)
            return leaves

        with ThreadPoolExecutor(max_workers=usable_cpus()) as pool:
            for leaves in pool.map(run, range(len(heads))):
                for leaf in leaves:
                    for write in leaf.writes:
                        leaf.target.accumulate_grad(*write)
                    leaf.writes.clear()

    return _result(total * c, (*xs, *shared), backward, "mean_of_heads")


def grad_check(f: Callable[[], Tensor], inputs: Sequence[Tensor], eps: float = 1e-4) -> float:
    """Compare analytic gradients of a scalar computation against central
    finite differences, coordinate by coordinate.

    f must be deterministic (run dropout in inference mode) and must read
    the given input tensors so that in-place perturbation is visible.
    Returns the maximum relative error max(|a-n| / max(|a|, |n|, 1e-8)).
    """
    if not 1e-5 <= eps <= 1e-2:
        raise ValueError(f"grad_check: eps must be in [1e-5, 1e-2], got {eps}")
    for t in inputs:
        t.grad = None
    out = f()
    out.backward()
    analytic = [t.grad_buffer().copy() for t in inputs]

    worst = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = float(f().data)
            flat[i] = saved - eps
            f_minus = float(f().data)
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a_i = float(a.reshape(-1)[i])
            rel = abs(a_i - numeric) / max(abs(a_i), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
