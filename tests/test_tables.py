"""Table model, linearization grammar, templates, vocabulary round-trips."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retag.errors import DataError
from retag.tables import (
    BOS,
    EOS,
    PAD,
    SPECIAL_TOKENS,
    UNK,
    Instance,
    Table,
    build_input,
    build_question,
    build_vocab,
    decode_text,
    encode_text,
    instance_from_record,
    instance_to_record,
    linearize,
    read_jsonl,
    tokenize,
    write_jsonl,
)


def mk_table(headers, rows, tid="t1", title="t", section="s"):
    return Table(id=tid, title=title, section_title=section, headers=tuple(headers), rows=tuple(tuple(r) for r in rows))


def test_table_rejects_ragged_rows():
    with pytest.raises(DataError):
        mk_table(["a", "b"], [["1"]])


def test_one_cell_table_linearization():
    table = mk_table(["Month"], [["June"]])
    assert linearize(table, [(0, 0)]) == "TITLE : t SECTION : s HEAD : Month ROW 1 : <hl> June </hl>"


def test_no_highlights_means_no_markers():
    table = mk_table(["a", "b"], [["1", "2"], ["3", "4"]])
    out = linearize(table)
    assert "<hl>" not in out and "</hl>" not in out


def test_two_by_two_has_two_numbered_rows():
    table = mk_table(["a", "b"], [["1", "2"], ["3", "4"]])
    out = linearize(table)
    assert out.count("ROW 1 :") == 1 and out.count("ROW 2 :") == 1
    assert out == "TITLE : t SECTION : s HEAD : a | b ROW 1 : 1 | 2 ROW 2 : 3 | 4"


def test_marker_count_matches_highlights():
    table = mk_table(["a", "b"], [["1", "2"], ["3", "4"]])
    out = linearize(table, [(0, 0), (1, 1)])
    assert out.count("<hl>") == 2 and out.count("</hl>") == 2


def test_highlight_out_of_range_is_data_error():
    table = mk_table(["a"], [["1"]])
    with pytest.raises(DataError):
        linearize(table, [(1, 0)])
    with pytest.raises(DataError):
        linearize(table, [(0, 0), (0, 0)])


def test_reserved_atoms_in_cells_are_escaped():
    plain = mk_table(["h"], [["ROW"]])
    tricky = mk_table(["h"], [["x"]])
    assert linearize(plain) != linearize(tricky)
    assert "\\ROW" in linearize(plain)
    marker = mk_table(["h"], [["<hl> 1 </hl>"]])
    out = linearize(marker)
    assert out.count("<hl>") == out.count("\\<hl>")


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(st.text(alphabet=string.ascii_lowercase + " 0123456789", min_size=0, max_size=6), min_size=4, max_size=4),
    other=st.lists(st.text(alphabet=string.ascii_lowercase + " 0123456789", min_size=0, max_size=6), min_size=4, max_size=4),
)
def test_linearization_injective_on_clean_cells(cells, other):
    a = mk_table(["h1", "h2"], [cells[:2], cells[2:]])
    b = mk_table(["h1", "h2"], [other[:2], other[2:]])
    if cells != other:
        assert linearize(a) != linearize(b)
    else:
        assert linearize(a) == linearize(b)


def test_question_templates():
    assert build_question("tags", {"numerical"}) == (
        "Generate a sentence with numerical reasoning based on the following table?"
    )
    assert build_question("tags", {"descriptive"}) == (
        "Generate a descriptive sentence based on the following table?"
    )
    assert build_question("notags", {"numerical", "entity"}) == (
        "Generate a sentence based on the following table?"
    )


def test_question_tag_order_is_canonical():
    q = build_question("retag", {"temporal", "numerical"})
    assert "numerical, temporal reasoning" in q
    q = build_question("tags", {"entity", "tabular", "commonsense"})
    assert "tabular, commonsense, entity reasoning" in q


def test_category_validation():
    with pytest.raises(DataError):
        build_question("tags", set())
    with pytest.raises(DataError):
        build_question("tags", {"descriptive", "numerical"})
    with pytest.raises(DataError):
        build_question("tags", {"bogus"})


def test_build_input_is_question_then_table():
    joined = build_input("Q?", "HEAD : a ROW 1 : b")
    assert joined == "Q? HEAD : a ROW 1 : b"
    assert len(joined) == len("Q?") + 1 + len("HEAD : a ROW 1 : b")
    with pytest.raises(DataError):
        build_input("", "x")


def test_build_vocab_ordering_and_min_count():
    vocab = build_vocab(["a a b"])
    assert "a" in vocab and "b" in vocab  # a token seen once is kept
    assert vocab.token_to_id["a"] < vocab.token_to_id["b"]  # higher count first
    assert build_vocab(["z y x"]).id_to_token == build_vocab(["z y x"]).id_to_token


def test_specials_have_fixed_ids():
    vocab = build_vocab(["hello world"])
    assert vocab.id_to_token[PAD] == "<pad>"
    assert vocab.id_to_token[BOS] == "<bos>"
    assert vocab.id_to_token[EOS] == "<eos>"
    assert vocab.id_to_token[UNK] == "<unk>"
    assert tuple(vocab.id_to_token[:6]) == SPECIAL_TOKENS


def test_encode_decode_roundtrip():
    vocab = build_vocab(["a b c"])
    assert decode_text(vocab, encode_text(vocab, "a b")) == "a b"
    assert encode_text(vocab, "") == [BOS, EOS]
    assert encode_text(vocab, "zzz")[1] == UNK


def test_decode_rejects_unknown_id():
    vocab = build_vocab(["a"])
    with pytest.raises(IndexError):
        decode_text(vocab, [len(vocab)])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5), min_size=1, max_size=8))
def test_roundtrip_on_in_vocab_lowercase_text(words):
    text = " ".join(words)
    vocab = build_vocab([text])
    assert decode_text(vocab, encode_text(vocab, text)) == text


def test_tokenize_splits_punctuation_but_keeps_markers():
    assert tokenize("Table? <hl> June </hl>") == ["table", "?", "<hl>", "june", "</hl>"]
    assert tokenize("a,b") == ["a", ",", "b"]


def test_jsonl_roundtrip(tmp_path):
    table = mk_table(["name", "age"], [["ada", "36"], ["bo", "4"]], tid="i0")
    inst = Instance(table=table, highlights=((0, 1),), reference="ada is 36", categories=frozenset({"descriptive"}))
    assert instance_from_record(instance_to_record(inst)) == inst
    path = tmp_path / "data.jsonl"
    assert write_jsonl(path, [inst]) == 1
    assert read_jsonl(path) == [inst]


def test_instance_kind():
    table = mk_table(["a"], [["1"]])
    desc = Instance(table=table, highlights=(), reference="r", categories=frozenset({"descriptive"}))
    ana = Instance(table=table, highlights=(), reference="r", categories=frozenset({"numerical", "temporal"}))
    assert desc.kind == "descriptive" and ana.kind == "analytical"
