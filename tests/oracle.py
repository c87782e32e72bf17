"""Reference paths that faster source code replaced, kept for tests.

- The character BiLSTM with one graph node per scalar LSTM step, each
  word encoded on its own: the encoder the fused
  `tensor.lstm_final_states` replaced.  Tests run the model through it
  (inside `per_word_graph()`) and require the fused path to give the same
  loss, gradients and probabilities bit for bit.
- `build_instances` scanning every token for each mention and each pair,
  which `corpus.build_instances` replaced with binary searches.  Tests
  require the same instances and warnings, in the same order.
"""

from __future__ import annotations

import contextlib
import logging

import numpy as np

from cdrex import corpus, encoders
from cdrex import tensor as T
from cdrex.corpus import CHEMICAL, DISEASE, Document, Mention, RelationInstance, Token
from cdrex.encoders import CharEncoderParams, EmbeddingTable, LstmParams, _char_ids
from cdrex.tensor import Tensor


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


def encode_chars(word: str, chartable: EmbeddingTable, params: CharEncoderParams) -> Tensor:
    if params.variant == "bilstm":
        return char_bilstm_encode(word, chartable, params)
    return encoders.char_cnn_encode(word, chartable, params)


@contextlib.contextmanager
def per_word_graph():
    """Inside the block every character encoding, in training and at
    inference, goes through the per-word graph above: an instance without
    a shared cache gets a fresh dict, so each of its distinct forms is
    encoded once, in order of first use."""
    build, encode = encoders.build_input_matrix, encoders.encode_chars

    def build_per_word(instance, tables, char_params=None, word_tokens=None, char_cache=None):
        return build(instance, tables, char_params, word_tokens=word_tokens,
                     char_cache={} if char_cache is None else char_cache)

    encoders.build_input_matrix, encoders.encode_chars = build_per_word, encode_chars
    try:
        yield
    finally:
        encoders.build_input_matrix, encoders.encode_chars = build, encode


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
