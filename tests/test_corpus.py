import importlib.util
import io
import logging
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import synthetic_corpus_text
from cdrex.corpus import (
    DEFAULT_MAX_TOKENS,
    Document,
    Mention,
    ParseError,
    RelationInstance,
    build_instances,
    build_vocab,
    fit_instance,
    longest_word_length,
    parse_pubtator,
    split_sentences,
    tokenize,
)


def block(pmid, title, abstract, mentions=(), relations=()):
    """Render one PubTator block, computing offsets from the actual text."""
    text = title + " " + abstract
    lines = [f"{pmid}|t|{title}", f"{pmid}|a|{abstract}"]
    used = {}
    for surface, kind, mesh in mentions:
        start = text.index(surface, used.get(surface, 0))
        used[surface] = start + 1  # next identical surface finds a later occurrence
        lines.append(f"{pmid}\t{start}\t{start + len(surface)}\t{surface}\t{kind}\t{mesh}")
    for chem, dis in relations:
        lines.append(f"{pmid}\tCID\t{chem}\t{dis}")
    return "\n".join(lines)


SIMPLE = block(
    "10203040",
    "Tamoxifen induced hemolysis in rats.",
    "We observed severe hemolysis after tamoxifen treatment. Control rats were fine.",
    mentions=[
        ("Tamoxifen", "Chemical", "D013629"),
        ("hemolysis", "Disease", "D006461"),
        ("hemolysis", "Disease", "D006461"),
        ("tamoxifen", "Chemical", "D013629"),
    ],
    relations=[("D013629", "D006461")],
)


class TestParsePubtator:
    def test_simple_block(self):
        docs = parse_pubtator(SIMPLE)
        assert len(docs) == 1
        doc = docs[0]
        assert doc.pmid == "10203040"
        assert doc.title.startswith("Tamoxifen")
        assert len(doc.mentions) == 4
        assert doc.gold_cid == {("D013629", "D006461")}

    def test_offsets_recover_mention_text(self):
        doc = parse_pubtator(SIMPLE)[0]
        for m in doc.mentions:
            assert doc.text[m.start:m.end] == m.text

    def test_block_without_relations(self):
        text = block("77", "Aspirin is a drug.", "It is common.",
                     mentions=[("Aspirin", "Chemical", "D001241")])
        doc = parse_pubtator(text)[0]
        assert doc.gold_cid == set()

    def test_multiple_blocks_split_on_blank_lines(self):
        two = SIMPLE + "\n\n" + block("99", "Title two.", "Abstract two.")
        docs = parse_pubtator(two)
        assert [d.pmid for d in docs] == ["10203040", "99"]

    def test_accepts_file_object(self):
        docs = parse_pubtator(io.StringIO(SIMPLE + "\n"))
        assert len(docs) == 1

    def test_end_not_after_start_rejected(self):
        bad = "1|t|T.\n1|a|A.\n1\t5\t5\tx\tChemical\tD1"
        with pytest.raises(ParseError, match="line 3"):
            parse_pubtator(bad)

    def test_non_integer_offsets_rejected(self):
        bad = "1|t|T.\n1|a|A.\n1\tfoo\t3\tx\tChemical\tD1"
        with pytest.raises(ParseError, match="offsets must be integers"):
            parse_pubtator(bad)

    def test_inconsistent_pmid_rejected(self):
        bad = "1|t|T.\n2|a|A."
        with pytest.raises(ParseError, match="PMID"):
            parse_pubtator(bad)

    def test_wrong_field_count_names_line(self):
        bad = "1|t|T.\n1|a|A.\n1\t0\t1"
        with pytest.raises(ParseError, match="line 3"):
            parse_pubtator(bad)

    def test_bad_relation_marker_rejected(self):
        bad = "1|t|T.\n1|a|A.\n1\tREL\tD1\tD2"
        with pytest.raises(ParseError, match="CID"):
            parse_pubtator(bad)

    def test_composite_ids_split(self):
        text = block("5", "Drug one.", "More text here.",
                     mentions=[("Drug", "Chemical", "D1|D2")])
        doc = parse_pubtator(text)[0]
        assert sorted(m.mesh_id for m in doc.mentions) == ["D1", "D2"]

    def test_unannotatable_id_dropped_with_warning(self, caplog):
        text = block("5", "Drug one.", "More text here.",
                     mentions=[("Drug", "Chemical", "-1")])
        with caplog.at_level(logging.WARNING):
            doc = parse_pubtator(text)[0]
        assert doc.mentions == []
        assert "unannotatable" in caplog.text

    def test_offset_mismatch_warns_with_line_number(self, caplog):
        text = "1|t|Title here.\n1|a|Abstract text.\n1\t0\t5\tWRONG\tChemical\tD1"
        with caplog.at_level(logging.WARNING):
            parse_pubtator(text)
        assert "line 3" in caplog.text


class TestTokenize:
    def test_detaches_punctuation(self):
        assert [t.text for t in tokenize("hemolysis, anemia.")] == \
            ["hemolysis", ",", "anemia", "."]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_internal_hyphens_preserved(self):
        assert [t.text for t in tokenize("5-fluorouracil")] == ["5-fluorouracil"]

    def test_nested_punctuation(self):
        assert [t.text for t in tokenize("(tamoxifen).")] == ["(", "tamoxifen", ")", "."]

    def test_all_punctuation_chunk(self):
        assert [t.text for t in tokenize("...")] == [".", ".", "."]

    def test_spans_map_back_to_text(self):
        text = 'Severe (grade 3/4) hemolysis, "anemia" and shock.'
        for tok in tokenize(text):
            assert text[tok.start:tok.end] == tok.text


class TestSplitSentences:
    def test_basic_split(self):
        text = "First sentence. Second one here."
        spans = split_sentences(text)
        assert [text[a:b] for a, b in spans] == ["First sentence.", "Second one here."]

    def test_single_letter_guard(self):
        text = "Written by J. Smith. The end."
        spans = split_sentences(text)
        assert [text[a:b] for a, b in spans] == ["Written by J. Smith.", "The end."]

    def test_eg_ie_guard(self):
        text = "Drugs, e.g. aspirin, are common. More text."
        spans = split_sentences(text)
        assert [text[a:b] for a, b in spans] == ["Drugs, e.g. aspirin, are common.", "More text."]


class TestBuildInstances:
    def test_cartesian_count(self):
        text = block("7", "One two three.",
                     "CA and CB plus DA and DB and DC in one sentence here.",
                     mentions=[("CA", "Chemical", "C1"), ("CB", "Chemical", "C2"),
                               ("DA", "Disease", "D1"), ("DB", "Disease", "D2"),
                               ("DC", "Disease", "D3")])
        doc = parse_pubtator(text)[0]
        assert len(build_instances(doc)) == 2 * 3

    def test_empty_gold_gives_all_negative(self):
        text = block("7", "CA causes DA.", "Nothing else.",
                     mentions=[("CA", "Chemical", "C1"), ("DA", "Disease", "D1")])
        instances = build_instances(parse_pubtator(text)[0])
        assert instances and all(i.label == 0 for i in instances)

    def test_gold_pair_labels_every_mention_pair(self):
        text = block("7", "CA causes DA.", "Again CA with DA here.",
                     mentions=[("CA", "Chemical", "C1"), ("DA", "Disease", "D1"),
                               ("CA", "Chemical", "C1"), ("DA", "Disease", "D1")],
                     relations=[("C1", "D1")])
        instances = build_instances(parse_pubtator(text)[0])
        assert len(instances) == 4
        assert all(i.label == 1 for i in instances)

    def test_entity_indices_mark_last_tokens(self):
        text = block("7", "Sodium valproate induced liver failure.", "Short tail.",
                     mentions=[("Sodium valproate", "Chemical", "C1"),
                               ("liver failure", "Disease", "D1")])
        inst = build_instances(parse_pubtator(text)[0])[0]
        assert inst.tokens[inst.i1] == "valproate"
        assert inst.tokens[inst.i2] == "failure"

    def test_window_spans_both_sentences(self):
        text = block("7", "CA was given to patients.",
                     "Later on some DA developed. Unrelated final sentence appears.",
                     mentions=[("CA", "Chemical", "C1"), ("DA", "Disease", "D1")])
        inst = build_instances(parse_pubtator(text)[0])[0]
        assert inst.tokens[inst.i1] == "CA"
        assert inst.tokens[inst.i2] == "DA"
        assert "developed" in inst.tokens       # disease sentence included
        assert "Unrelated" not in inst.tokens   # trailing sentence excluded

    def test_same_sentence_window_excludes_other_sentences(self):
        text = block("7", "Intro sentence here.", "CA caused DA quickly. Tail sentence.",
                     mentions=[("CA", "Chemical", "C1"), ("DA", "Disease", "D1")])
        inst = build_instances(parse_pubtator(text)[0])[0]
        assert inst.tokens == ["CA", "caused", "DA", "quickly", "."]

    def test_truncation_keeps_both_entities(self):
        filler = " ".join(f"w{i}" for i in range(50))
        text = block("7", "Heading words only.",
                     f"{filler} CA linking words DA {filler} in one sentence",
                     mentions=[("CA", "Chemical", "C1"), ("DA", "Disease", "D1")])
        inst = build_instances(parse_pubtator(text)[0], n_max=10)[0]
        assert len(inst.tokens) <= 10
        assert inst.tokens[inst.i1] == "CA"
        assert inst.tokens[inst.i2] == "DA"
        assert inst.i1 < 10 and inst.i2 < 10

    def test_truncation_is_symmetric_when_room_allows(self):
        left = " ".join(f"l{i}" for i in range(20))
        right = " ".join(f"r{i}" for i in range(20))
        text = block("7", "Heading words only.",
                     f"{left} CA DA {right} all in one sentence",
                     mentions=[("CA", "Chemical", "C1"), ("DA", "Disease", "D1")])
        inst = build_instances(parse_pubtator(text)[0], n_max=12)[0]
        assert len(inst.tokens) == 12
        # 10 spare slots around the 2-token span: 5 each side.
        assert inst.i1 == 5 and inst.i2 == 6

    def test_shared_last_token_pair_skipped(self, caplog):
        text = block("7", "Overlap token here now.", "Filler text.",
                     mentions=[("Overlap token", "Chemical", "C1"),
                               ("token", "Disease", "D1")])
        with caplog.at_level(logging.WARNING):
            instances = build_instances(parse_pubtator(text)[0])
        assert instances == []
        assert "share their last token" in caplog.text

    def test_uids_are_unique(self):
        text = block("7", "CA and CB hurt DA.", "All in the first sentence.",
                     mentions=[("CA", "Chemical", "C1"), ("CB", "Chemical", "C2"),
                               ("DA", "Disease", "D1")])
        instances = build_instances(parse_pubtator(text)[0])
        uids = [i.uid for i in instances]
        assert len(set(uids)) == len(uids) == 2

    def test_pair_wider_than_n_max_skipped(self, caplog):
        text = block("7", "CA one two three DA and DB.", "Tail.",
                     mentions=[("CA", "Chemical", "C1"), ("DA", "Disease", "D1"),
                               ("DB", "Disease", "D2")])
        with caplog.at_level(logging.WARNING):
            instances = build_instances(parse_pubtator(text)[0], n_max=6)
        # CA..DB spans 7 tokens and is skipped; CA..DA spans 5 and is kept.
        assert [(i.uid, i.dis_id) for i in instances] == [("7#0", "D1")]
        assert "'CA'/'DB' span 7 tokens, more than n_max=6; pair skipped" in caplog.text


def instances_and_warnings(build, doc, n_max=400):
    """What `build` returns for the document, and the messages it logs."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("cdrex.corpus")
    logger.addHandler(handler)
    try:
        instances = build(doc, n_max)
    finally:
        logger.removeHandler(handler)
    return instances, [r.getMessage() for r in records]


def test_build_instances_matches_scanning_oracle_on_synthetic_corpus():
    for doc in parse_pubtator(synthetic_corpus_text(40)):
        for n_max in (2, 4, 400):
            expected = instances_and_warnings(oracle.build_instances, doc, n_max)
            assert instances_and_warnings(build_instances, doc, n_max) == expected


def benchmark_corpusgen():
    """The benchmark's corpus generator, `cdrexbench/corpusgen.py`,
    loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "cdrexbench" / "corpusgen.py"
    name = "cdrexbench_corpusgen"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("n_max", [DEFAULT_MAX_TOKENS, 60, 12])
def test_build_instances_at_scale_on_long_documents(n_max):
    """Documents shaped like BC5CDR abstracts, with many mentions each:
    the same instances and warnings as the scanning oracle, and every
    instance well formed."""
    corpusgen = benchmark_corpusgen()
    docs = parse_pubtator(corpusgen.generate(corpusgen.LONG, seed=17, docs=4))
    built = 0
    for doc in docs:
        instances, warnings = instances_and_warnings(build_instances, doc, n_max)
        assert (instances, warnings) == instances_and_warnings(oracle.build_instances, doc, n_max)
        for inst in instances:
            assert 1 <= len(inst.tokens) <= n_max
            assert 0 <= inst.i1 < len(inst.tokens) and 0 <= inst.i2 < len(inst.tokens)
            assert inst.i1 != inst.i2
            assert inst.label == int((inst.chem_id, inst.dis_id) in doc.gold_cid)
        built += len(instances)
    assert built >= 30
    labels = {inst.label for doc in docs for inst in build_instances(doc, n_max)}
    assert labels == {0, 1}


# Words with leading and trailing punctuation, abbreviations and sentence
# ends, so documents have several sentences and odd token boundaries.
_WORDS = ["CA", "DA", "mice", "e.g.", "i.e.", "A.", "dose.", "(IL-2)", "fever,", "x", ".",
          "\"q\"", "Na+", "end.", "re-do"]


@st.composite
def documents(draw):
    title = " ".join(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8)))
    # Trailing spaces can leave a last sentence without a token.
    abstract = draw(st.sampled_from([" ", "  "])).join(
        draw(st.lists(st.sampled_from(_WORDS), max_size=30))) + draw(st.sampled_from(["", "  "]))
    text_len = len(title) + 1 + len(abstract)
    mentions = []
    # Random offsets give mentions on whitespace only (no token), before
    # and past the text, overlapping each other (a shared last token) and
    # across sentence boundaries.
    for start, width, kind, mesh in draw(st.lists(st.tuples(
            st.integers(-2, text_len + 2), st.integers(1, 12),
            st.sampled_from(["Chemical", "Disease"]), st.sampled_from(["M1", "M2", "M3"])),
            max_size=8)):
        mentions.append(Mention(start, start + width, "m", kind, mesh))
    gold = set(draw(st.lists(st.tuples(st.sampled_from(["M1", "M2", "M3"]),
                                       st.sampled_from(["M1", "M2", "M3"])), max_size=3)))
    return Document("9", title, abstract, mentions, gold)


@settings(max_examples=300, deadline=None)
@given(documents(), st.integers(1, 40))
def test_build_instances_matches_scanning_oracle(doc, n_max):
    expected = instances_and_warnings(oracle.build_instances, doc, n_max)
    assert instances_and_warnings(build_instances, doc, n_max) == expected


class TestBuildVocab:
    def docs_and_instances(self):
        text = block("7", "CA causes DA tumors.", "Tumors grew and tumors spread badly.",
                     mentions=[("CA", "Chemical", "C1"), ("DA", "Disease", "D1")])
        docs = parse_pubtator(text)
        instances = [i for d in docs for i in build_instances(d)]
        return docs, instances

    def test_sequence_length_is_min_of_longest_and_cap(self):
        docs, instances = self.docs_and_instances()
        longest = max(len(i.tokens) for i in instances)
        assert build_vocab(docs, instances, n_max=400).n == longest
        assert build_vocab(docs, instances, n_max=3).n == 3

    def test_counts_are_lowercased_occurrences(self):
        docs, instances = self.docs_and_instances()
        vocab = build_vocab(docs, instances)
        assert vocab.counts["tumors"] == 3
        assert vocab.counts["ca"] == 1

    def test_chars_cover_training_tokens(self):
        docs, instances = self.docs_and_instances()
        vocab = build_vocab(docs, instances)
        assert {"C", "A", "a", "."} <= set(vocab.chars)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], [])


class TestFitInstance:
    def test_noop_when_it_fits(self):
        inst = RelationInstance("7#0", "7", ["a", "b", "c"], 0, 2, "C1", "D1", 0)
        assert fit_instance(inst, 3) is inst

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_truncation_always_keeps_both_entities(self, data):
        length = data.draw(st.integers(2, 60))
        i1 = data.draw(st.integers(0, length - 1))
        i2 = data.draw(st.integers(0, length - 1).filter(lambda v: v != i1))
        span = abs(i1 - i2) + 1
        n = data.draw(st.integers(span, length))
        tokens = [f"t{k}" for k in range(length)]
        inst = RelationInstance("7#0", "7", tokens, i1, i2, "C1", "D1", 0)
        fitted = fit_instance(inst, n)
        assert len(fitted.tokens) <= n
        assert fitted.tokens[fitted.i1] == tokens[i1]
        assert fitted.tokens[fitted.i2] == tokens[i2]
        # The window stays contiguous in the original sequence.
        assert fitted.tokens == tokens[i1 - fitted.i1:i1 - fitted.i1 + len(fitted.tokens)]

    def test_entity_span_wider_than_budget_is_an_error(self):
        inst = RelationInstance("7#0", "7", [f"t{k}" for k in range(10)], 0, 9, "C1", "D1", 0)
        with pytest.raises(RuntimeError):
            fit_instance(inst, 5)


def test_longest_word_length():
    docs = parse_pubtator(block("7", "Pentamethylcyclopentadiene is long.", "Short words."))
    assert longest_word_length(docs) == len("Pentamethylcyclopentadiene")


def test_mention_and_document_dataclasses():
    doc = Document("1", "Title.", "Abstract.", [Mention(0, 5, "Title", "Chemical", "C1")])
    assert doc.text == "Title. Abstract."
    assert doc.mentions[0].end == 5


# ---------------------------------------------------------------------------
# PubTator round trip

# No tab and no line break of any kind: both would end a PubTator field.
_TEXT = st.text(alphabet=st.sampled_from(list("abcXYZ019 .,;:()-|'\"+éβ")), max_size=60)
_IDS = st.sampled_from(["C1", "C22", "D3", "D004", "MESH:9"])


@st.composite
def pubtator_document(draw, pmid: str) -> Document:
    title, abstract = draw(_TEXT), draw(_TEXT)
    text = title + " " + abstract
    mentions = []
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, len(text) - 1))
        end = draw(st.integers(start + 1, min(len(text), start + 15)))
        mentions.append(Mention(start, end, text[start:end],
                                draw(st.sampled_from(["Chemical", "Disease"])), draw(_IDS)))
    gold = draw(st.sets(st.tuples(_IDS, _IDS), max_size=3))
    return Document(pmid, title, abstract, mentions, gold)


def render_pubtator(docs: list[Document]) -> str:
    blocks = []
    for doc in docs:
        lines = [f"{doc.pmid}|t|{doc.title}", f"{doc.pmid}|a|{doc.abstract}"]
        lines += [f"{doc.pmid}\t{m.start}\t{m.end}\t{m.text}\t{m.kind}\t{m.mesh_id}"
                  for m in doc.mentions]
        lines += [f"{doc.pmid}\tCID\t{chem}\t{dis}" for chem, dis in sorted(doc.gold_cid)]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda count: st.tuples(*[pubtator_document(str(100 + k)) for k in range(count)])),
    st.integers(1, 30))
def test_pubtator_round_trip(docs, n_max):
    docs = list(docs)
    text = render_pubtator(docs)
    assert parse_pubtator(text) == docs
    assert parse_pubtator(io.StringIO(text)) == docs
    for doc in docs:
        instances = build_instances(doc, n_max)
        assert [inst.uid for inst in instances] == [f"{doc.pmid}#{k}" for k in range(len(instances))]
        for inst in instances:
            assert inst.pmid == doc.pmid
            assert 1 <= len(inst.tokens) <= n_max
            assert 0 <= inst.i1 < len(inst.tokens) and 0 <= inst.i2 < len(inst.tokens)
            assert inst.i1 != inst.i2
            assert inst.label == int((inst.chem_id, inst.dis_id) in doc.gold_cid)
