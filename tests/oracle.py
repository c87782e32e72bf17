"""Reference path for the character BiLSTM: one graph node per scalar
LSTM step, each word encoded on its own.

This is the encoder the fused `tensor.lstm_final_states` replaced.  Tests
run the model through it (inside `per_word_graph()`) and require the fused
path to give the same loss, gradients and probabilities bit for bit.
"""

from __future__ import annotations

import contextlib

import numpy as np

from cdrex import encoders
from cdrex import tensor as T
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
