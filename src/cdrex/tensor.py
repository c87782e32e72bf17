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
A tensor that no gradient reaches keeps `grad` None, and readers (Nadam,
`grad_check`) see zeros through the same call.
No gradient buffer ever holds -0.0: each starts as +0.0 zeros, or ones
at the root, and only additions change it, and in round-to-nearest
`x + y` is -0.0 only when both operands are.  So adding a few values into
a slice in place gives the bits of adding a dense array that holds +0.0
everywhere else, and a first contribution `0.0 + g` has the bits of
`g + 0.0` (-0.0 becomes +0.0; NaN and inf pass).

backward() must run before any operand's data is mutated in place
(backward rules read operand data live).  There is no global tape: the
graph lives in the result tensors themselves, so independent graphs
never share state.

Inference builds no graph: inside `with no_grad():` every operation
returns a plain result that records no operands and no backward rule, so
nothing stays reachable once the result is read.  Values are the same
arithmetic as with the graph, bit for bit.  The switch is per thread, so
one thread's `no_grad` never turns graph recording off in another, and
the thread's previous state comes back when the block exits, also on an
exception.

`conv_relu_max` runs a convolution, its ReLU and the max over time over
many sequences as one node, in place of the chain `conv1d_valid → relu →
max_over_time` run sequence after sequence (kept as its test oracle).
It convolves the sequences of one length as one stack, whose product
numpy runs as one per stacked matrix, each rounded as on its own; so a
row repeats its chain's arithmetic: the bias plus the k tap products in
tap order, `np.maximum(pre, 0)` and the first-occurrence argmax.  Max
pooling sends column f's gradient to one row, `argmax[f]`, and ReLU only
where the value is positive, so the chain's (L, m) map gradient G holds
`gz = g * (value > 0)` at the argmax rows (up to the sign of a zero) and
zeros elsewhere.  Entry (f, h, j) of the chain's filter gradient `G.T @
input[h:h+L]` is then one product `gz[f] * input[argmax[f] + h, j]` plus
zero terms, and entry f of its bias gradient is `gz[f]` plus zeros.  A
sum of one value and zeros is that value, up to the sign of a zero, and
no buffer holds -0.0 (see above), so the op adds the products alone,
sequence after sequence as the chain does, and skips the columns whose
`gz` is zero, about half of them under dropout.  The input gradient `G @
filters[:, h, :]` sums over all m columns, so it stays the chain's dense
product per tap, stacked per length; taking it from the argmax rows
alone reorders that sum and changes the last bits.

The model's own convolution runs decomposed (see `model.loss`): the
conv is linear in the concatenated input row, so `tap_projections`
projects each distinct row of a block (a word row with its character
row, or a position table's row) by every filter tap in one matrix
product, `shift_sum` adds a position table's projections along the taps
into its valid convolution, and `tap_sum_relu_max` builds each
instance's map from gathered rows of those, then takes its ReLU and max
over time as `conv_relu_max` does.  A window's value is thus `bias`, then
the k tap rows in tap order, then the position terms, where the dense
conv summed over the whole 350-wide row in one product per tap; the
sums differ from it in the last bits, within the tolerances that
`tests/test_tolerance_oracle.py` states.  The backward scatters each
live column's gradient into the rows its argmax window read, and returns
to the embedding rows and filter slices through the transposed products
of `tap_projections`, so no dense per-instance input gradient is formed.
OpenBLAS rounds a row of `A @ B` differently depending on how many rows
A has (1,050 of 2,000 products differed between a full and a row-subset
call), so a row's projection may change in its last bits with the other
rows projected beside it: a minibatch's and a document's projections of
one key need not agree bit for bit, while the same rows always give the
same bits.

`lstm_final_states` runs one LSTM direction over many sequences as a
single node with a hand-written backward through time.  Its values equal,
bit for bit, those of the graph of scalar-step operations (`row`,
`matmul`, `add`, `slice_last`, `sigmoid`, `tanh`, `mul`) that it
replaces: each step repeats that graph's arithmetic, the `h @ wh`
products run as a stack of matrix-vector products, which round as the
single ones do, and the input projection `x_w @ wx` stays one product per
sequence, so a sequence's final state does not depend on the others
(stacking the rows of all sequences into one product changes the BLAS
blocking and the last bits, on 125 of 125 sequences of a 790-row stack,
OpenBLAS 0.3.31).  The backward keeps the per-step graph's elementwise
expressions (sigmoid backward is `(g * s) * (1 - s)`, tanh backward
`g * (1 - y * y)`), but each step passes `dG @ wh.T` back as one
product, and it collects every step's gate gradient dG by input row and
takes the weight, bias and input gradients as whole-minibatch products:
`x.T @ dG`, `H_prev.T @ dG`, a column sum of dG and `dG @ wx.T`.  Those
sum over all sequences and steps at once, in the BLAS's order rather
than the graph's, so the gradients differ from the per-step graph's in
the last bits, within the tolerance that `tests/test_tolerance_oracle.py`
states.
"""

from __future__ import annotations

import contextlib
import logging
import threading
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger(__name__)

LOG_CLAMP = 1e-12
# Entries of one block of a `tap_sum_relu_max` map: 256 KiB of float64.
MAP_BLOCK = 1 << 15

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


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: no operands")
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
    out = np.broadcast_to(bias, input.shape[:-2] + (length, bias.shape[0])).copy()
    for h in range(k):
        out += input[..., h:h + length, :] @ filters[:, h, :].T
    return out


def conv1d_valid(input: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Valid 1-D convolution over the row (time) axis, pre-activation.

    input is (n, d), filters (m, k, d), bias (m,); the output row j, column
    f is sum_h dot(filters[f][h], input[j+h]) + bias[f], shape (n-k+1, m).
    The char-CNN runs `conv_relu_max`; this op, `relu` and `max_over_time`
    are the chain it replaced, kept per sequence as its test oracle.
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


def conv_relu_max(x: Tensor, lengths: Sequence[int], filters: Tensor, bias: Tensor) -> Tensor:
    """Max over time of the ReLU of a valid 1-D convolution of each of W
    sequences, shape (W, m).

    x stacks the sequences' rows, (sum(lengths), d), as in
    `lstm_final_states`; every length is at least the filter width k.  Row
    w has the values of `max_over_time(relu(conv1d_valid(x_w, filters,
    bias)))` on sequence w's rows x_w, bit for bit, and the gradients of
    that chain run sequence after sequence; see the module docstring.
    """
    k, _ = _conv_shape("conv_relu_max", x, filters, bias)
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or not lengths.size or lengths.min() < k or lengths.sum() != x.shape[0]:
        raise ShapeError(f"conv_relu_max: lengths {lengths.tolist()} must be >= {k} and sum to {x.shape[0]}")
    m, starts = bias.shape[0], np.cumsum(lengths) - lengths
    # Per length n: a mask of the sequences that long and their (G, n) rows.
    groups = [(lengths == n, starts[lengths == n, None] + np.arange(n)) for n in np.unique(lengths)]
    value, argmax = np.empty((lengths.size, m)), np.empty((lengths.size, m), dtype=np.intp)
    for seqs, rows in groups:
        fm = _conv_forward(x.data[rows], filters.data, bias.data, k, rows.shape[1] - k + 1)
        np.maximum(fm, 0.0, out=fm)
        argmax[seqs] = fm.argmax(axis=1)
        value[seqs] = np.take_along_axis(fm, argmax[seqs, None], axis=1)[:, 0]

    def backward(g):
        gz = g * (value > 0.0)
        if bias.requires_grad:  # row after row, as sequence after sequence
            bias.accumulate_grad(gz.reshape(-1), np.tile(np.arange(m), lengths.size), repeats=True)
        if filters.requires_grad:
            # Entry (f, h, j) takes one product per live (w, f), in w order;
            # columns with no gradient would add only zeros.
            w, f = np.nonzero(gz)
            windows = x.data[(starts[w] + argmax[w, f])[:, None] + np.arange(k)]
            windows *= gz[w, f, None, None]
            filters.accumulate_grad(windows, f, repeats=True)
        if x.requires_grad:
            for seqs, rows in groups:
                length = rows.shape[1] - k + 1
                dense = np.zeros((rows.shape[0], length, m))
                np.put_along_axis(dense, argmax[seqs, None], gz[seqs, None], axis=1)
                dx = np.zeros(rows.shape + x.shape[1:])
                for h in range(k):
                    dx[:, h:h + length] += dense @ filters.data[:, h, :]
                x.accumulate_grad(dx.reshape(rows.size, -1), rows.reshape(-1))

    return _result(value, (x, filters, bias), backward, "conv_relu_max")


def tap_projections(x: Tensor, filters: Tensor, columns: Sequence[slice]) -> Tensor:
    """Every row of x projected by every filter tap, shape (k, R, m).

    x is (R, c) and filters (m, k, d); the c columns of x meet the filter
    columns `columns`, joined in order.  Entry (h, r, f) is
    dot(x[r], filters[f, h, cols]), one (R, c) @ (c, m) product per tap,
    and the gradients are the transposed products per tap; see the module
    docstring for what this means for the bits.
    """
    if x.data.ndim != 2 or filters.data.ndim != 3:
        raise ShapeError("tap_projections: expects x (R,c) and filters (m,k,d)")
    m, k, _ = filters.shape
    w = np.concatenate([filters.data[:, :, cols] for cols in columns], axis=2)
    if w.shape[2] != x.shape[1]:
        raise ShapeError(f"tap_projections: {w.shape[2]} filter columns for x of width {x.shape[1]}")
    out = np.empty((k, x.shape[0], m))
    for h in range(k):
        np.matmul(x.data, w[:, h].T, out=out[h])

    def backward(g):
        if x.requires_grad:
            dx = g[0] @ w[:, 0]
            for h in range(1, k):
                dx += g[h] @ w[:, h]
            x.accumulate_grad(dx)
        if filters.requires_grad:
            dw = np.stack([g[h].T @ x.data for h in range(k)], axis=1)
            lo = 0
            for cols in columns:
                width = cols.stop - cols.start
                filters.accumulate_grad(dw[:, :, lo:lo + width], (slice(None), slice(None), cols))
                lo += width

    return _result(out, (x, filters), backward, "tap_projections")


def shift_sum(taps: Tensor) -> Tensor:
    """The valid convolution of a table from its tap projections (k, R, m):
    row s of the (R-k+1, m) result is the sum over h of taps[h, s + h],
    added in tap order."""
    if taps.data.ndim != 3 or taps.shape[1] < taps.shape[0]:
        raise ShapeError(f"shift_sum: needs (k, R, m) taps with R >= k, got {taps.shape}")
    k, rows = taps.shape[0], taps.shape[1] - taps.shape[0] + 1
    out = taps.data[0, :rows].copy()
    for h in range(1, k):
        out += taps.data[h, h:h + rows]

    def backward(g):
        if taps.requires_grad:
            for h in range(k):
                taps.accumulate_grad(g, (h, slice(h, h + rows)))

    return _result(out, (taps,), backward, "shift_sum")


def tap_sum_relu_max(taps: Tensor, keys: np.ndarray, shifted: Sequence[tuple[Tensor, np.ndarray]],
                     bias: Tensor) -> Tensor:
    """Max over time of the ReLU of B convolution maps built from shared
    projections, shape (B, m).

    taps is (k, K, m) and keys (B, n): row r of instance b reads row
    keys[b, r] of each tap.  Each (table, starts) of `shifted` pairs an
    (S, m) table with one start row per instance.  Window j of instance b
    is

        bias + sum_h taps[h, keys[b, j+h]] + sum_t table_t[starts_t[b] + j]

    added in that order, for j < L = n - k + 1.  Each instance's map is
    computed on its own, so its bits do not depend on the others.  As in
    `conv_relu_max`, column f of instance b passes its gradient only
    through its first maximal window, and not at all where the value is
    0: to the taps rows of that window and the one row of each table.
    """
    keys = np.asarray(keys, dtype=np.intp)
    if taps.data.ndim != 3 or keys.ndim != 2 or bias.shape != (taps.shape[2],):
        raise ShapeError("tap_sum_relu_max: expects taps (k,K,m), keys (B,n), bias (m,)")
    (batch, n), (k, count, m) = keys.shape, taps.shape
    length = n - k + 1
    if length < 1 or (keys.size and (keys.min() < 0 or keys.max() >= count)):
        raise ShapeError(f"tap_sum_relu_max: keys {keys.shape} do not fit taps {taps.shape}")
    starts = [np.asarray(first, dtype=np.intp) for _, first in shifted]
    for (table, _), first in zip(shifted, starts):
        if table.shape[1:] != (m,) or first.shape != (batch,) or \
                (batch and (first.min() < 0 or first.max() + length > table.shape[0])):
            raise ShapeError(f"tap_sum_relu_max: table {table.shape} does not fit starts {first}")

    # Each instance's map is built in blocks of about MAP_BLOCK entries,
    # which stay in cache while the k + 2 terms are added into them.
    step = max(1, MAP_BLOCK // m)
    fm, part = np.empty((length, m)), np.empty((min(step, length), m))
    value = np.empty((batch, m))
    argmax = np.empty((batch, m), dtype=np.intp) if _grad_mode.enabled else None
    for b in range(batch):
        for lo in range(0, length, step):
            hi = min(lo + step, length)
            out, tmp = fm[lo:hi], part[:hi - lo]
            out[:] = bias.data
            for h in range(k):
                out += np.take(taps.data[h], keys[b, lo + h:hi + h], axis=0, out=tmp, mode="clip")
            for (table, _), first in zip(shifted, starts):
                out += table.data[first[b] + lo:first[b] + hi]
        np.maximum(fm, 0.0, out=fm)
        if argmax is None:  # no backward: the maxima alone
            fm.max(axis=0, out=value[b])
        else:
            argmax[b] = fm.argmax(axis=0)
            value[b] = fm[argmax[b], np.arange(m)]

    def backward(g):
        gz = g * (value > 0.0)
        if bias.requires_grad:
            bias.accumulate_grad(gz.sum(axis=0))
        b, f = np.nonzero(gz)  # columns with no gradient would add only zeros
        live, window = gz[b, f], argmax[b, f]
        if taps.requires_grad:
            # Entry (h, keys[b, window + h], f) of each live (b, f), summed
            # over the (b, f) that share one, in (b, f) order.
            entries = np.concatenate([(h * count + keys[b, window + h]) * m + f for h in range(k)])
            dense = np.bincount(entries, np.tile(live, k), taps.data.size)
            taps.accumulate_grad(dense.reshape(taps.shape))
        for (table, _), first in zip(shifted, starts):
            if table.requires_grad:
                entries = (first[b] + window) * m + f
                table.accumulate_grad(np.bincount(entries, live, table.data.size).reshape(table.shape))

    return _result(value, (taps, *(table for table, _ in shifted), bias), backward,
                   "tap_sum_relu_max")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b for a batch of rows x (B, m), w (t, m) and b (t,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ShapeError(f"linear: x {x.shape}, w {w.shape}, b {b.shape}")

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g @ w.data)
        if w.requires_grad:
            w.accumulate_grad(g.T @ x.data)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return _result(x.data @ w.data.T + b.data, (x, w, b), backward, "linear")


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
    values equal those of a per-step graph bit for bit and its gradients
    match them within a stated tolerance.
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
        # Each step's elementwise operands and their order as in the
        # per-step graph; the sums over steps are the products below.
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
                dh_next = dgates @ wh.data.T
                dc_next = dc * ifo[:, u:2 * u]
        if x.requires_grad:
            x.accumulate_grad(dgates_at @ wx.data.T)
        if wx.requires_grad:
            wx.accumulate_grad(x.data.T @ dgates_at)
        if wh.requires_grad:
            wh.accumulate_grad(h_prev_at.T @ dgates_at)
        if b.requires_grad:
            b.accumulate_grad(dgates_at.sum(axis=0))

    return _result(final, (x, wx, wh, b), backward, "lstm_final_states")


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
    """Stable exp-normalize over the last axis of a logit vector (t,) or of
    each row of a batch (B, t), t >= 2."""
    if logits.data.ndim not in (1, 2) or logits.shape[-1] < 2:
        raise ShapeError(f"softmax: needs vectors of length >= 2, got {logits.shape}")
    if not np.all(np.isfinite(logits.data)):
        raise NumericsError("softmax: non-finite logits")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    def backward(g):
        if logits.requires_grad:
            logits.accumulate_grad(p * (g - (g * p).sum(axis=-1, keepdims=True)))
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


def nll_loss(p: Tensor, gold) -> Tensor:
    """Negative log likelihood of the gold class: of one probability vector
    p (t,) with a gold index, or the mean over a batch p (B, t) with one
    gold index per row, the per-row terms summed in row order and scaled
    by 1/B.

    Each p[gold] is clamped at 1e-12 before the log; inside the clamped
    region the gradient is zero, matching what finite differences see.
    """
    if p.data.ndim not in (1, 2):
        raise ShapeError(f"nll_loss: p must be 1-D or 2-D, got {p.shape}")
    rows = p.data.reshape(-1, p.shape[-1])
    golds = np.asarray(gold, dtype=np.intp).reshape(-1)
    if golds.shape != (rows.shape[0],):
        raise ShapeError(f"nll_loss: {golds.size} gold indices for {rows.shape[0]} rows")
    if ((golds < 0) | (golds >= rows.shape[1])).any():
        raise ValueError(f"nll_loss: gold index {gold} outside [0, {rows.shape[1]})")
    batch = np.arange(rows.shape[0])
    pg = rows[batch, golds]
    clamped = pg < LOG_CLAMP
    if clamped.any() and _debug_numerics:
        for value in pg[clamped]:
            log.warning("nll_loss: p[gold]=%.3e clamped at %.0e", value, LOG_CLAMP)
    terms = -np.log(np.maximum(pg, LOG_CLAMP))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    weight = 1.0 / rows.shape[0]
    def backward(g):
        if p.requires_grad and not clamped.all():
            live = ~clamped
            values = (-float(g) * weight) / pg[live]
            if p.data.ndim == 2:
                p.accumulate_grad(values, (batch[live], golds[live]))
            else:
                p.accumulate_grad(values[0], int(golds[0]))
    return _result(np.asarray(total * weight), (p,), backward, "nll")


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
