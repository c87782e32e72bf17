"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately minimal: it provides exactly the operations the
relation classifier needs.  Every operation returns a new `Tensor` whose
node records its operands and a backward rule; calling `backward()` on a
scalar result walks the recorded graph in reverse topological order and
accumulates gradients into every reachable tensor with `requires_grad`.

Graphs are confined to a single thread for the duration of a forward and
backward pass, and backward() must run before any operand's data is
mutated in place (backward rules read operand data live).  There is no
global tape: the graph lives in the result tensors themselves, so
independent graphs never share state.

Inference builds no graph: inside `with no_grad():` every operation
returns a plain result that records no operands and no backward rule, so
nothing stays reachable once the result is read.  Values are the same
arithmetic as with the graph, bit for bit.  The switch is process-wide
(not per thread) and the previous state comes back when the block exits,
also on an exception.

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
first gradient as `g + 0.0`, which changes only the sign of exact zeros;
the op skips that inside, because products and sums keep such a
difference confined to zeros and every leaf gradient is stored from
`+ 0.0` or from zeros, which erases it.  The `h @ wh` and
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
from typing import Callable, Sequence

import numpy as np

from .rng import Rng

log = logging.getLogger(__name__)

LOG_CLAMP = 1e-12

_debug_numerics = False
_grad_enabled = True


def set_debug_numerics(enabled: bool) -> None:
    """Toggle finiteness assertions on every operation output."""
    global _debug_numerics
    _debug_numerics = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Operations inside the block record no graph."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class NumericsError(ArithmeticError):
    """Non-finite value detected while debug_numerics is enabled."""


class Tensor:
    """Dense row-major float64 array, optionally tracked for gradients.

    `grad` is populated (as a numpy array of the same shape) by
    `backward()`; it accumulates across calls until reset to None.
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

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add `g` (of the data's shape) into `grad`.  The first
        contribution is stored as `g + 0.0`, a fresh array with the bits
        of `zeros + g` (-0.0 becomes +0.0), without a zero fill."""
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {g.shape} for data of shape {self.data.shape}")
        if self.grad is None:
            self.grad = np.add(g, 0.0, dtype=np.float64)
        else:
            self.grad += g

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
        order = graph_nodes(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            # grad is None when no gradient reached the node (e.g. past a
            # clamp); propagating zeros would be a no-op.
            if node._backward_fn is None or node.grad is None:
                continue
            node._backward_fn(node.grad)
        # Contract: every requires_grad tensor reachable from the root ends
        # up with a populated gradient, even if it is all zeros.
        for node in order:
            if node.requires_grad:
                node.grad_buffer()


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
    if _grad_enabled and any(p.requires_grad for p in parents):
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
    scatter writes into the table's gradient buffer directly, so embedding
    tables never allocate per-lookup temporaries of their own size."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError("gather: needs a 2-D table and 1-D indices")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError("gather: index out of range")
    def backward(g):
        if table.requires_grad:
            np.add.at(table.grad_buffer(), idx, g)
    return _result(table.data[idx], (table,), backward, "gather")


def row(a: Tensor, i: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= i < a.shape[0]):
        raise ShapeError(f"row: index {i} into shape {a.shape}")
    def backward(g):
        if a.requires_grad:
            a.grad_buffer()[i] += g
    return _result(a.data[i].copy(), (a,), backward, "row")


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.shape[-1]):
        raise ShapeError(f"slice_last: [{start}:{stop}] of {a.shape}")
    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            acc[..., start:stop] = g
            a.accumulate_grad(acc)
    return _result(a.data[..., start:stop].copy(), (a,), backward, "slice")


# ---------------------------------------------------------------------------
# Model-level operations


def conv1d_valid(input: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Valid 1-D convolution over the row (time) axis, pre-activation.

    input is (n, d), filters (m, k, d), bias (m,); the output row j, column
    f is sum_h dot(filters[f][h], input[j+h]) + bias[f], shape (n-k+1, m).
    Computed as k slim matrix products over contiguous row slices, which
    avoids materializing an (n-k+1, k*d) window matrix.
    """
    if input.data.ndim != 2 or filters.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeError("conv1d_valid: expects input (n,d), filters (m,k,d), bias (m,)")
    n, d = input.shape
    m, k, fd = filters.shape
    if fd != d:
        raise ShapeError(f"conv1d_valid: filter width {fd} != input width {d}")
    if bias.shape != (m,):
        raise ShapeError(f"conv1d_valid: bias shape {bias.shape} != ({m},)")
    if k < 1 or n < k:
        raise ShapeError(f"conv1d_valid: need n >= k >= 1, got n={n}, k={k}")
    length = n - k + 1
    out_data = np.broadcast_to(bias.data, (length, m)).copy()
    for h in range(k):
        out_data += input.data[h:h + length] @ filters.data[:, h, :].T

    def backward(g):
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=0))
        if filters.requires_grad:
            filters_grad = filters.grad_buffer()
            for h in range(k):
                filters_grad[:, h, :] += g.T @ input.data[h:h + length]
        if input.requires_grad:
            input_grad = input.grad_buffer()
            for h in range(k):
                input_grad[h:h + length] += g @ filters.data[:, h, :]

    return _result(out_data, (input, filters, bias), backward, "conv1d_valid")


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
        if _grad_enabled:
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
            dx = np.empty_like(x.data)
            for lo, hi in spans:
                dx[lo:hi] = dgates_at[lo:hi] @ wx.data.T
            x.accumulate_grad(dx)
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
    """Add one contribution per entry of `seq` into `t.grad`, one after
    another, as that many `accumulate_grad` calls would.  `fill(k, out)`
    writes the contributions of the entries `k` into `out`.

    `np.add.reduce` over the leading axis of a C-contiguous stack adds its
    rows in sequence (a test pins this), so a stack that starts from the
    current gradient, or from zeros, gives the same bits.  One reused
    buffer holds the stack: fresh megabyte temporaries cost several times
    the arithmetic."""
    acc = t.grad_buffer()
    buf = np.empty((min(chunk, len(seq)) + 1,) + t.shape)
    for lo in range(0, len(seq), chunk):
        k = seq[lo:lo + chunk]
        stack = buf[:len(k) + 1]
        stack[0] = acc
        fill(k, stack[1:])
        acc = np.add.reduce(stack, axis=0)
    t.grad = acc


def max_over_time(feature_map: Tensor) -> Tensor:
    """Column-wise maximum of an (L, m) map; gradient flows to the first
    occurrence of each column's maximum."""
    if feature_map.data.ndim != 2 or feature_map.shape[0] < 1:
        raise ShapeError(f"max_over_time: needs a nonempty (L, m) map, got {feature_map.shape}")
    argmax = feature_map.data.argmax(axis=0)
    cols = np.arange(feature_map.shape[1])
    def backward(g):
        if feature_map.requires_grad:
            acc = np.zeros_like(feature_map.data)
            acc[argmax, cols] = g
            feature_map.accumulate_grad(acc)
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


def dropout(z: Tensor, rho: float, rng: Rng, training: bool) -> Tensor:
    """Inverted dropout: components are zeroed with probability rho and the
    survivors scaled by 1/(1-rho), so inference needs no correction.  In
    inference mode the input tensor is returned unchanged."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"dropout: rho must be in [0, 1), got {rho}")
    if not training or rho == 0.0:
        return z
    mask = (rng.fill_uniform(z.shape, 0.0, 1.0) >= rho) / (1.0 - rho)
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
            acc = np.zeros_like(p.data)
            acc[gold] = -float(g) / pg
            p.accumulate_grad(acc)
    return _result(np.asarray(-np.log(max(pg, LOG_CLAMP))), (p,), backward, "nll")


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
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

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
