import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from cdrex import tensor as T
from cdrex.encoders import (
    CHAR_OUT_DIM,
    CharEncoderParams,
    EmbeddingSet,
    LstmParams,
    PAD_WORD,
    UNK_WORD,
    Tensor,
    VectorFormatError,
    build_input_matrix,
    char_bilstm_encode,
    char_bilstm_params,
    char_cnn_encode,
    char_cnn_params,
    char_table,
    encode_chars,
    load_word_vectors,
    position_table,
    unk_replace,
    word_table,
)
from cdrex.rng import Rng


@pytest.fixture
def chartab():
    return char_table("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", Rng(11))


def embed_token(token: str, tab) -> Tensor:
    """Input matrix of a one-token instance: its first tab.dim columns are
    the word lookup every model input goes through."""
    rng = Rng(0)
    tables = EmbeddingSet(tab, position_table("pos1", 1, rng, dim=1),
                          position_table("pos2", 1, rng, dim=1), None, n=1)
    return build_input_matrix(instance([token], 0, 0), tables)


class TestWordTable:
    def test_present_token_returns_stored_row(self):
        tab = word_table(["aspirin", "headache"], Rng(1))
        out = embed_token("aspirin", tab)
        np.testing.assert_array_equal(out.data[0, :tab.dim], tab.weights.data[tab.index["aspirin"]])

    def test_absent_token_returns_unk_row(self):
        tab = word_table(["aspirin"], Rng(1))
        out = embed_token("ibuprofen", tab)
        np.testing.assert_array_equal(out.data[0, :tab.dim], tab.weights.data[tab.index[UNK_WORD]])

    def test_lookup_is_lowercased(self):
        tab = word_table(["tamoxifen"], Rng(1))
        np.testing.assert_array_equal(embed_token("Tamoxifen", tab).data,
                                      embed_token("tamoxifen", tab).data)

    def test_pretrained_rows_copied(self):
        vec = np.arange(200, dtype=np.float64)
        tab = word_table(["aspirin", "other"], Rng(1), pretrained={"aspirin": vec})
        np.testing.assert_array_equal(tab.weights.data[tab.index["aspirin"]], vec)
        assert np.abs(tab.weights.data[tab.index["other"]]).max() <= 0.05

    def test_lookup_differentiable_into_table(self):
        tab = word_table(["aspirin"], Rng(1), dim=4)
        out = embed_token("aspirin", tab)
        T.sum_all(out).backward()
        grad_rows = np.flatnonzero(np.abs(tab.weights.grad).sum(axis=1))
        assert list(grad_rows) == [tab.index["aspirin"]]


class TestPositionTable:
    def test_zero_distance_row(self):
        tab = position_table("pos1", 5, Rng(2), dim=3)
        assert tab.index[0] == 4

    def test_signed_indexing_distinct(self):
        tab = position_table("pos1", 5, Rng(2), dim=3)
        assert not np.array_equal(tab.weights.data[tab.index[-3]], tab.weights.data[tab.index[3]])

    def test_boundary_at_table_size(self):
        tab = position_table("pos1", 400, Rng(2), dim=2)
        assert tab.index[399] == tab.rows - 1
        assert 400 not in tab.index and -400 not in tab.index

    def test_injective_over_range(self):
        tab = position_table("pos1", 6, Rng(2), dim=2)
        rows = {tab.index[rel] for rel in range(-5, 6)}
        assert len(rows) == 11


class TestCharCnn:
    def test_output_dimension_default(self, chartab):
        out = char_cnn_encode("tamoxifen", chartab, char_cnn_params(Rng(3)))
        assert out.shape == (CHAR_OUT_DIM,)

    def test_single_character_padded_to_window(self, chartab):
        out = char_cnn_encode("a", chartab, char_cnn_params(Rng(3)))
        assert out.shape == (CHAR_OUT_DIM,)

    def test_zero_parameters_zero_vector(self, chartab):
        params = CharEncoderParams(
            "cnn",
            filters=Tensor(np.zeros((50, 5, chartab.dim)), requires_grad=True),
            bias=Tensor(np.zeros(50), requires_grad=True),
        )
        out = char_cnn_encode("anything", chartab, params)
        np.testing.assert_array_equal(out.data, np.zeros(50))

    def test_rejects_empty_word(self, chartab):
        with pytest.raises(ValueError):
            char_cnn_encode("", chartab, char_cnn_params(Rng(3)))


class TestCharBiLstm:
    def test_output_dimension_is_twice_units(self, chartab):
        out = char_bilstm_encode("word", chartab, char_bilstm_params(Rng(4)))
        assert out.shape == (2 * 25,)

    def test_zero_parameters_zero_vector(self, chartab):
        d4, units = chartab.dim, 4
        def zero_dir():
            return LstmParams(Tensor(np.zeros((d4, 4 * units)), requires_grad=True),
                              Tensor(np.zeros((units, 4 * units)), requires_grad=True),
                              Tensor(np.zeros(4 * units), requires_grad=True))
        params = CharEncoderParams("bilstm", fwd=zero_dir(), bwd=zero_dir())
        out = char_bilstm_encode("abc", chartab, params)
        np.testing.assert_array_equal(out.data, np.zeros(2 * units))

    def test_order_sensitivity_across_seeds(self, chartab):
        # Random parameters must distinguish "ab" from "ba" essentially
        # always; fail only if every seed collides.
        collisions = 0
        for seed in range(100):
            params = char_bilstm_params(Rng(seed), units=3)
            a = char_bilstm_encode("ab", chartab, params)
            b = char_bilstm_encode("ba", chartab, params)
            if np.allclose(a.data, b.data):
                collisions += 1
        assert collisions < 100

    def test_rejects_empty_word(self, chartab):
        with pytest.raises(ValueError):
            char_bilstm_encode("", chartab, char_bilstm_params(Rng(4)))


@pytest.mark.parametrize("make_params", [char_cnn_params, char_bilstm_params])
def test_char_encoders_emit_d3_for_lengths_1_to_40(chartab, make_params):
    params = make_params(Rng(5))
    for length in (1, 2, 4, 5, 6, 20, 37, 40):
        out = (char_cnn_encode if params.variant == "cnn" else char_bilstm_encode)(
            "x" * length, chartab, params)
        assert out.shape == (CHAR_OUT_DIM,)


def split_forms(count: int, seed: int) -> tuple[str, ...]:
    """Distinct forms as a split has them: 1-char and 15+-char words, PAD,
    characters the table lacks, and random words of 1 to 25 characters."""
    rng = Rng(seed)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-0ë"
    words = ["".join(letters[rng.randbelow(len(letters))] for _ in range(1 + rng.randbelow(25)))
             for _ in range(count)]
    return tuple(dict.fromkeys(["a", "I", "hydroxychloroquine", "supercalifragilistic",
                                PAD_WORD, "Zoë", "β-blocker", "5-FU"] + words))


@pytest.mark.parametrize("no_grad", [False, True], ids=["graph", "no_grad"])
@pytest.mark.parametrize("unit_scale", [False, True], ids=["init", "unit"])
@pytest.mark.parametrize("make_params", [char_cnn_params, char_bilstm_params])
def test_one_call_over_a_split_equals_one_form_calls(chartab, make_params, unit_scale, no_grad):
    """Inference encodes a split's forms in one call and training one
    instance's: a form's row must not depend on which other forms share
    the call."""
    params = make_params(Rng(5))
    if unit_scale:
        fill = Rng(6)
        for t in [chartab.weights] + [t for _, t in params.all_tensors()]:
            t.data[:] = fill.fill_uniform(t.shape, -1.0, 1.0)
    forms = split_forms(60, seed=7)
    with T.no_grad() if no_grad else contextlib.nullcontext():
        together = encode_chars(forms, chartab, params)
        assert together.shape == (len(forms), CHAR_OUT_DIM)
        for j, form in enumerate(forms):
            alone = encode_chars((form,), chartab, params)
            assert together.data[j].tobytes() == alone.data[0].tobytes(), form


def small_tables(n=5, with_char=True, seed=9):
    rng = Rng(seed)
    word = word_table(["mice", "develop", "tumors"], rng.derive("w"), dim=6)
    pos1 = position_table("pos1", n, rng.derive("p1"), dim=2)
    pos2 = position_table("pos2", n, rng.derive("p2"), dim=2)
    char = char_table("abcdefghijklmnopqrstuvwxyzPAD", rng.derive("c"), dim=3) if with_char else None
    return EmbeddingSet(word, pos1, pos2, char, n)


def instance(tokens, i1, i2):
    return SimpleNamespace(tokens=tokens, i1=i1, i2=i2)


class TestBuildInputMatrix:
    def test_default_dimensions(self):
        # word(200) + pos1(50) + pos2(50) + char(50)
        rng = Rng(1)
        tables = EmbeddingSet(
            word_table(["mice", "develop", "tumors"], rng.derive("w")),
            position_table("pos1", 4, rng.derive("p1")),
            position_table("pos2", 4, rng.derive("p2")),
            char_table("abcdefgmicetumors", rng.derive("c")),
            n=4,
        )
        mat = build_input_matrix(instance(["mice", "develop", "tumors"], 0, 2),
                                 tables, char_cnn_params(rng.derive("cc")))
        assert mat.shape == (4, 350)

    def test_entity_token_gets_zero_distance_row(self):
        tables = small_tables()
        params = char_cnn_params(Rng(2), char_dim=3, num_filters=4, window=2)
        mat = build_input_matrix(instance(["mice", "develop", "tumors"], 0, 2), tables, params)
        zero_row = tables.pos1.weights.data[tables.pos1.index[0]]
        np.testing.assert_array_equal(mat.data[0, 6:8], zero_row)

    def test_padding_rows_are_pad_derived(self):
        tables = small_tables(n=5)
        params = char_cnn_params(Rng(2), char_dim=3, num_filters=4, window=2)
        mat = build_input_matrix(instance(["mice", "develop", "tumors"], 0, 2), tables, params)
        pad_word_row = tables.word.weights.data[tables.word.index[PAD_WORD]]
        np.testing.assert_array_equal(mat.data[3, :6], pad_word_row)
        np.testing.assert_array_equal(mat.data[4, :6], pad_word_row)
        pad_char = char_cnn_encode(PAD_WORD, tables.char, params)
        np.testing.assert_array_equal(mat.data[4, 10:], pad_char.data)
        # Positions of PAD rows follow from the row index as usual.
        np.testing.assert_array_equal(mat.data[4, 6:8],
                                      tables.pos1.weights.data[tables.pos1.index[4 - 0]])

    def test_cnn_variant_omits_char_component(self):
        tables = small_tables(with_char=False)
        mat = build_input_matrix(instance(["mice", "tumors"], 0, 1), tables, None)
        assert mat.shape == (5, 6 + 2 + 2)

    def test_unk_override_changes_word_rows_only(self):
        tables = small_tables()
        params = char_cnn_params(Rng(2), char_dim=3, num_filters=4, window=2)
        inst = instance(["mice", "develop", "tumors"], 0, 2)
        plain = build_input_matrix(inst, tables, params)
        masked = build_input_matrix(inst, tables, params,
                                    word_tokens=["mice", UNK_WORD, "tumors"])
        unk_row = tables.word.weights.data[tables.word.index[UNK_WORD]]
        np.testing.assert_array_equal(masked.data[1, :6], unk_row)
        # Everything except the substituted word component is untouched.
        np.testing.assert_array_equal(masked.data[1, 6:], plain.data[1, 6:])
        np.testing.assert_array_equal(masked.data[0], plain.data[0])

    def test_rejects_out_of_range_entity_index(self):
        tables = small_tables()
        with pytest.raises(ValueError):
            build_input_matrix(instance(["mice", "tumors"], 0, 5), tables, None)

    def test_rejects_too_many_tokens(self):
        tables = small_tables(n=2)
        with pytest.raises(ValueError):
            build_input_matrix(instance(["a", "b", "c"], 0, 1), tables, None)

    def test_gradient_reaches_all_tables(self):
        tables = small_tables()
        params = char_cnn_params(Rng(2), char_dim=3, num_filters=4, window=2)
        mat = build_input_matrix(instance(["mice", "develop", "tumors"], 0, 2), tables, params)
        T.sum_all(mat).backward()
        for table in (tables.word, tables.pos1, tables.pos2, tables.char):
            assert table.weights.grad is not None
            assert np.abs(table.weights.grad).sum() > 0


class TestUnkReplace:
    def test_replacement_rate_n_w_1(self):
        rng = Rng(21)
        tokens = ["rare"] * 50_000
        out = unk_replace(tokens, {"rare": 1}, rng)
        rate = sum(tok == UNK_WORD for tok in out) / len(out)
        assert abs(rate - 0.2) < 0.01

    def test_rate_vanishes_for_frequent_words(self):
        rng = Rng(22)
        out = unk_replace(["common"] * 10_000, {"common": 10_000}, rng)
        assert sum(tok == UNK_WORD for tok in out) / len(out) < 0.001

    def test_monte_carlo_rate_n_w_3(self):
        rng = Rng(23)
        out = unk_replace(["word"] * 100_000, {"word": 3}, rng)
        rate = sum(tok == UNK_WORD for tok in out) / len(out)
        assert abs(rate - 0.25 / 3.25) < 0.01

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_one_draw_per_token(self, seed):
        counts = {"aspirin": 1, "mice": 3, "a": 1000, "headache": 0}
        words = ["Aspirin", "mice", "a", "headache", "Zoë", "PAD", "UNK", "a"]
        draw = Rng(seed)
        for size in (0, 1, 1, 2, 7, 40, 250):
            tokens = [words[draw.randbelow(len(words))] for _ in range(size)]
            rng, scalar_rng = Rng(seed * 7), Rng(seed * 7)
            for _ in range(3):  # consecutive instances share one stream
                assert unk_replace(tokens, counts, rng) == oracle.unk_replace(
                    tokens, counts, scalar_rng)
                assert rng.next_u64() == scalar_rng.next_u64()

    def test_originals_never_mutated(self):
        tokens = ["Tamoxifen", "induces", "cancer"]
        unk_replace(tokens, {"tamoxifen": 1, "induces": 1, "cancer": 1}, Rng(1))
        assert tokens == ["Tamoxifen", "induces", "cancer"]


class TestLoadWordVectors:
    def test_plain_format(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("aspirin 0.1 0.2\nheadache 0.3 0.4\n")
        vecs = load_word_vectors(p)
        np.testing.assert_array_equal(vecs["aspirin"], [0.1, 0.2])
        assert len(vecs) == 2

    def test_header_auto_detected(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n")
        vecs = load_word_vectors(p)
        assert set(vecs) == {"alpha", "beta"}
        np.testing.assert_array_equal(vecs["beta"], [4.0, 5.0, 6.0])

    def test_vocab_filter(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("alpha 1 2\nbeta 3 4\n")
        vecs = load_word_vectors(p, vocab={"beta"})
        assert set(vecs) == {"beta"}

    def test_non_utf8_line_names_line(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_bytes(b"alpha 1 2\nb\xe9ta 3 4\n")
        with pytest.raises(VectorFormatError, match=f"{p}: line 2: not UTF-8"):
            load_word_vectors(p)

    def test_dim_mismatch_names_line(self, tmp_path):
        p = tmp_path / "vecs.txt"
        p.write_text("alpha 1 2\nbeta 3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_word_vectors(p)
