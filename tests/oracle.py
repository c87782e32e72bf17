"""Reference paths that faster source code replaced, kept for tests.

- The character encoders one word at a time: the BiLSTM with one graph
  node per scalar LSTM step, the encoder the fused
  `tensor.lstm_final_states` replaced, and the char-CNN as the per-form
  chain `gather → conv1d_valid → relu → max_over_time`, the encodings
  stacked by `stack_rows`.  Tests run the model through it (inside
  `per_word_graph()`) and require the fused path to give the same loss,
  encodings and probabilities bit for bit, and the gradients within the
  tolerance of `test_tolerance_oracle.py`.
- `build_instances` scanning every token for each mention and each pair,
  which `corpus.build_instances` replaced with binary searches.  Tests
  require the same instances and warnings, in the same order.
- The gradient rules that `Tensor.grad_buffer()` replaced (inside
  `old_gradient_rules()`): a first contribution stored as a fresh
  `g + 0.0`, scatters that build a zero-filled dense temporary and add
  it (repeated rows one row at a time), and a last pass of `backward`
  that zero-fills every reachable node no gradient reached.  The rule is
  swapped in beneath `Tensor.accumulate_grad`'s signature, so backward
  rules write through it as they write through the real one.  Tests
  require the same loss and gradients, bit for bit.
- The char-CNN as that per-form chain, each form's characters gathered
  on their own, and `gather` scattering every gradient one row at a time
  (inside `three_node_conv()`): the paths that the stacked
  `tensor.conv_relu_max`, one node over all the forms, and `gather`'s
  slice-add and flat scatters replaced.  `conv_relu_max` runs that chain
  sequence after sequence with the stacked op's signature.  Tests require
  the same loss, gradients and probabilities, bit for bit.
- `unk_replace` drawing one `Rng.random()` per token, which one
  `fill_uniform` draw per instance replaced.  Tests require the same
  tokens and the same generator state afterwards.
- `nadam_step` over each parameter's whole array, with two full-size
  scratch arrays per parameter: the step that the blocked
  `optim.nadam_step` replaced.  Tests require the same parameters and
  moments, bit for bit.
- The per-instance head (`class_probabilities`: an instance's n x d input
  matrix, the conv chain, dropout and the softmax of `w1 @ z + b1`), the
  serial `loss` built from it instance after instance, and the serial
  `predict_pairs`: the paths that the batched head of `model.loss` and
  `model.forward` replaced, which sums in another order.  Tests require
  the same pairs and labels, and the loss, gradients and probabilities
  within the tolerances of `test_tolerance_oracle.py`.
"""

from __future__ import annotations

import contextlib
import logging

import numpy as np

from cdrex import corpus, encoders, evaluation, optim
from cdrex import tensor as T
from cdrex.corpus import CHEMICAL, DISEASE, Document, Mention, RelationInstance, Token
from cdrex.encoders import CharEncoderParams, EmbeddingTable, LstmParams, _char_ids
from cdrex.rng import Rng
from cdrex.tensor import NumericsError, ShapeError, Tensor


def _lstm_final_state(xproj: Tensor, steps: range, p: LstmParams) -> Tensor:
    units = p.units
    h = Tensor(np.zeros(units))
    c = Tensor(np.zeros(units))
    for t in steps:
        gates = T.add(T.add(T.row(xproj, t), T.matmul(h, p.wh)), p.b)
        i = T.sigmoid(T.slice_last(gates, 0, units))
        f = T.sigmoid(T.slice_last(gates, units, 2 * units))
        o = T.sigmoid(T.slice_last(gates, 2 * units, 3 * units))
        g = T.tanh(T.slice_last(gates, 3 * units, 4 * units))
        c = T.add(T.mul(f, c), T.mul(i, g))
        h = T.mul(o, T.tanh(c))
    return h


def char_bilstm_encode(word: str, chartable: EmbeddingTable, params: CharEncoderParams) -> Tensor:
    """Final hidden state of a forward LSTM over the characters,
    concatenated with the final state of a reverse LSTM."""
    mat = T.gather(chartable.weights, _char_ids(word, chartable))
    l = mat.shape[0]
    fwd_proj = T.matmul(mat, params.fwd.wx)
    bwd_proj = T.matmul(mat, params.bwd.wx)
    h_fwd = _lstm_final_state(fwd_proj, range(l), params.fwd)
    h_bwd = _lstm_final_state(bwd_proj, range(l - 1, -1, -1), params.bwd)
    return T.concat([h_fwd, h_bwd])


def conv_chain(input: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """The (m,) max over time of the ReLU of one sequence's convolution."""
    return T.max_over_time(T.relu(T.conv1d_valid(input, filters, bias)))


def char_cnn_encode(word: str, chartable: EmbeddingTable, params: CharEncoderParams) -> Tensor:
    """The conv chain over the word's characters, right-padded with
    PADCHAR to the window."""
    window = params.filters.shape[1]
    mat = T.gather(chartable.weights, _char_ids(word, chartable, min_len=window))
    return conv_chain(mat, params.filters, params.bias)


def encode_chars(forms: tuple[str, ...], chartable: EmbeddingTable,
                 params: CharEncoderParams) -> Tensor:
    encode = char_bilstm_encode if params.variant == "bilstm" else char_cnn_encode
    return T.stack_rows([encode(word, chartable, params) for word in forms])


@contextlib.contextmanager
def per_word_graph():
    """Inside the block every character encoding, in training and at
    inference, goes through the per-word graph above: each form of an
    `encoders.encode_chars` call is encoded on its own, and the rows are
    stacked in order."""
    real = encoders.encode_chars
    encoders.encode_chars = encode_chars
    try:
        yield
    finally:
        encoders.encode_chars = real


def _last_token_index(tokens: list[Token], mention: Mention) -> int | None:
    last = None
    for i, tok in enumerate(tokens):
        if tok.start < mention.end and tok.end > mention.start:
            last = i
    return last


def _sentence_span_of(spans, offset: int) -> tuple[int, int]:
    for lo, hi in spans:
        if lo <= offset < max(hi, lo + 1):
            return lo, hi
    return spans[-1]


def build_instances(doc: Document, n_max: int = corpus.DEFAULT_MAX_TOKENS) -> list[RelationInstance]:
    """`corpus.build_instances` by scanning: each mention's last token and
    each pair's window bounds come from a pass over every token.  Logs to
    the `cdrex.corpus` logger, as the source does."""
    log = logging.getLogger(corpus.__name__)
    tokens = corpus.tokenize(doc.text)
    sentences = corpus.split_sentences(doc.text)
    chems = [m for m in doc.mentions if m.kind == CHEMICAL]
    diseases = [m for m in doc.mentions if m.kind == DISEASE]
    instances = []
    seq = 0
    for chem in chems:
        ic = _last_token_index(tokens, chem)
        if ic is None:
            log.warning("document %s: chemical mention %r matches no token", doc.pmid, chem.text)
            continue
        for dis in diseases:
            i_d = _last_token_index(tokens, dis)
            if i_d is None:
                log.warning("document %s: disease mention %r matches no token", doc.pmid, dis.text)
                continue
            if ic == i_d:
                log.warning("document %s: mentions %r/%r share their last token; pair skipped",
                            doc.pmid, chem.text, dis.text)
                continue
            lo, hi = min(ic, i_d), max(ic, i_d)
            if hi - lo + 1 > n_max:
                log.warning("document %s: mentions %r/%r span %d tokens, more than n_max=%d; "
                            "pair skipped", doc.pmid, chem.text, dis.text, hi - lo + 1, n_max)
                continue
            first, second = (chem, dis) if chem.start <= dis.start else (dis, chem)
            sent_lo = _sentence_span_of(sentences, first.start)[0]
            sent_hi = _sentence_span_of(sentences, max(second.end - 1, second.start))[1]
            w_lo = min((i for i, t in enumerate(tokens) if t.end > sent_lo), default=0)
            w_hi = max((i for i, t in enumerate(tokens) if t.start < sent_hi), default=len(tokens) - 1)
            w_lo, w_hi = min(w_lo, lo), max(w_hi, hi)
            if w_hi - w_lo + 1 > n_max:
                w_lo, w_hi = corpus._truncate_window(w_lo, w_hi, lo, hi, n_max)
            instances.append(RelationInstance(
                uid=f"{doc.pmid}#{seq}",
                pmid=doc.pmid,
                tokens=[t.text for t in tokens[w_lo:w_hi + 1]],
                i1=ic - w_lo,
                i2=i_d - w_lo,
                chem_id=chem.mesh_id,
                dis_id=dis.mesh_id,
                label=1 if (chem.mesh_id, dis.mesh_id) in doc.gold_cid else 0,
            ))
            seq += 1
    return instances


def _accumulate_grad(self: Tensor, g, at=..., repeats: bool = False) -> None:
    if repeats:
        for row, values in zip(at, g):
            _accumulate_grad(self, values, row)
        return
    if at is not ...:
        dense = np.zeros_like(self.data)
        dense[at] += g
        g = dense
    if g.shape != self.data.shape:
        raise ShapeError(f"gradient of shape {g.shape} for data of shape {self.data.shape}")
    if self.grad is None:
        self.grad = np.add(g, 0.0, dtype=np.float64)
    else:
        self.grad += g


def _backward(self: Tensor) -> None:
    if self.data.ndim != 0:
        raise ShapeError(f"backward() needs a scalar root, got shape {self.shape}")
    order = T.graph_nodes(self)
    self.grad = np.ones_like(self.data)
    for node in reversed(order):
        if node._backward_fn is None or node.grad is None:
            continue
        node._backward_fn(node.grad)
    for node in order:
        if node.requires_grad and node.grad is None:
            node.grad = np.zeros_like(node.data)


@contextlib.contextmanager
def _replaced(rules):
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in rules]
    for owner, name, rule in rules:
        setattr(owner, name, rule)
    try:
        yield
    finally:
        for owner, name, current in saved:
            setattr(owner, name, current)


def old_gradient_rules():
    """Inside the block gradients are stored by the rules above, in place
    of `grad_buffer()`'s in-place additions."""
    return _replaced([(Tensor, "accumulate_grad", _accumulate_grad), (Tensor, "backward", _backward)])


def conv_relu_max(x: Tensor, lengths, filters: Tensor, bias: Tensor) -> Tensor:
    """`tensor.conv_relu_max` as the conv chain run sequence after
    sequence, each over its rows of x gathered, the results stacked."""
    offsets = np.cumsum([0] + list(lengths))
    return T.stack_rows([conv_chain(T.gather(x, range(lo, hi)), filters, bias)
                         for lo, hi in zip(offsets[:-1], offsets[1:])])


def gather(table: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError("gather: needs a 2-D table and 1-D indices")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError("gather: index out of range")
    def backward(g):
        if table.requires_grad:
            for row, values in zip(idx, g):
                table.accumulate_grad(values, row)
    return T._result(table.data[idx], (table,), backward, "gather")


_encode_chars = encoders.encode_chars


def _per_form_cnn(forms: tuple[str, ...], chartable: EmbeddingTable,
                  params: CharEncoderParams) -> Tensor:
    return (encode_chars if params.variant == "cnn" else _encode_chars)(forms, chartable, params)


def three_node_conv():
    """Inside the block the character CNN encodes each form through its
    own gather and conv chain, the rows stacked in order, and every
    gather scatters row by row."""
    return _replaced([(encoders, "encode_chars", _per_form_cnn), (T, "gather", gather)])


def unk_replace(tokens: list[str], counts: dict[str, int], rng: Rng) -> list[str]:
    """`encoders.unk_replace` with one `rng.random()` draw per token."""
    out = []
    for tok in tokens:
        n_w = counts.get(tok.lower(), 0)
        p = 0.25 / (0.25 + n_w)
        out.append(encoders.UNK_WORD if rng.random() < p else tok)
    return out


def nadam_step(named_params, state):
    """`optim.nadam_step` evaluating each expression over a parameter's
    whole array, into two scratch arrays of its size."""
    for name, tensor in named_params:
        if np.isnan(tensor.grad_buffer()).any():
            raise NumericsError(f"NaN gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2 = optim.BETA1, optim.BETA2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, tensor in named_params:
        g = tensor.grad_buffer()
        m = state.first.get(name)
        if m is None:
            m = state.first[name] = np.zeros_like(tensor.data)
        v = state.second.get(name)
        if v is None:
            v = state.second[name] = np.zeros_like(tensor.data)
        s = np.empty_like(tensor.data)
        u = np.empty_like(tensor.data)
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s)
        v *= b2
        np.multiply(1.0 - b2, g, out=s)
        v += np.multiply(s, g, out=s)
        np.multiply(b1, np.divide(m, bias1, out=s), out=s)
        np.divide(np.multiply(1.0 - b1, g, out=u), bias1, out=u)
        np.add(s, u, out=s)
        np.add(np.sqrt(np.divide(v, bias2, out=u), out=u), optim.EPS, out=u)
        np.divide(s, u, out=s)
        tensor.data -= np.multiply(state.learning_rate, s, out=s)
    return state


def head(mat: Tensor, filters: Tensor, bias: Tensor, w1: Tensor, b1: Tensor, rho: float,
         uniforms: np.ndarray | None) -> Tensor:
    """Probability vector over CLASS_ORDER from an input matrix: the
    convolution's max over time, dropout with `uniforms` (None at
    inference), and the softmax of `w1 @ z + b1`."""
    z = T.dropout(conv_chain(mat, filters, bias), rho, uniforms)
    return T.softmax(T.add(T.matmul(w1, z), b1))


def class_probabilities(instance, params, rng, training, word_tokens=None, chars=None):
    """One instance's probability vector through its own n x d input
    matrix, with the graph attached unless run under `tensor.no_grad`;
    dropout draws one row of m uniforms from `rng` when `training`."""
    mat = encoders.build_input_matrix(instance, params.tables, params.char_params,
                                      word_tokens=word_tokens, chars=chars)
    uniforms = None
    if training and params.hyper.rho != 0.0:
        uniforms = rng.fill_uniform((params.conv_filters.shape[0],), 0.0, 1.0)
    return head(mat, params.conv_filters, params.conv_bias, params.w1, params.b1,
                params.hyper.rho, uniforms)


def predict_pairs(split, params, train_relations):
    """`optim.predict_pairs` through `class_probabilities`: the split's
    forms encoded at once, then each instance's input matrix and head in
    turn, document by document."""
    fitted = optim.fit_instances(split.instances, params.hyper.n)
    chars = None
    if params.char_params is not None and fitted:
        with T.no_grad():
            chars = encoders.char_rows(fitted, params.tables, params.char_params)
    by_doc = {}
    for inst in fitted:
        by_doc.setdefault(inst.pmid, []).append(inst)
    predicted = {}
    for doc in split.documents:
        instances = by_doc.get(doc.pmid, [])
        labels = {}
        for inst in instances:
            with T.no_grad():
                p = class_probabilities(inst, params, None, training=False, chars=chars)
            labels[inst.uid] = int(np.argmax(p.data))
        predicted[doc.pmid] = evaluation.aggregate_document(doc, instances, labels,
                                                            train_relations)
    return predicted


def loss(batch, params, rng, lookup_tokens=None):
    """`model.loss` as one graph built instance after instance: each
    instance's probabilities, NLL and its `add` into the running total in
    turn, then `scale` by 1/B, with each instance's dropout drawn as it
    runs."""
    if not batch:
        raise ValueError("loss needs a nonempty batch")
    total = None
    for inst in batch:
        if getattr(inst, "label", None) is None:
            raise ValueError(f"instance {getattr(inst, 'uid', '?')} has no gold label")
        word_tokens = lookup_tokens.get(inst.uid) if lookup_tokens else None
        p = class_probabilities(inst, params, rng, training=True, word_tokens=word_tokens)
        nll = T.nll_loss(p, inst.label)
        total = nll if total is None else T.add(total, nll)
    mean = T.scale(total, 1.0 / len(batch))
    if params.hyper.l2 != 0.0:
        penalty = None
        for w in params.regularizable():
            term = T.sum_all(T.mul(w, w))
            penalty = term if penalty is None else T.add(penalty, term)
        mean = T.add(mean, T.scale(penalty, params.hyper.l2))
    return mean
