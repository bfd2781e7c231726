"""Tokenization, character classes, and annotation providers."""

from __future__ import annotations

import random
import sys

import pytest

from editspan.errors import ConfigError, DataError
from editspan.text import (
    AnnotatedToken,
    NaiveProvider,
    POS_TAGS,
    Sentence,
    SidecarProvider,
    annotate,
    char_class,
    detokenize,
    make_provider,
    normalize_pos,
    parse_pair_line,
    read_parallel_tsv,
    tokenize,
)
from reference import reference_char_class


def test_tokenize_splits_on_whitespace_runs():
    sent = tokenize("Since we  do\tnot to bring cash")
    assert sent.surfaces == ("Since", "we", "do", "not", "to", "bring", "cash")
    assert len(sent) == 7


def test_tokenize_empty_and_blank():
    assert len(tokenize("")) == 0
    assert len(tokenize("   \t ")) == 0


def test_detokenize_joins_with_single_spaces():
    assert detokenize(tokenize("a  b   c")) == "a b c"


def test_detokenize_tokenize_roundtrip():
    for text in ("", "one", "a b c", "¿qué? tal …"):
        assert detokenize(tokenize(detokenize(tokenize(text)))) == detokenize(tokenize(text))


def test_token_validation():
    for surface in ("", "a b", "a\u00a0b", "\u3000"):
        with pytest.raises(ValueError):
            Sentence(("ok", surface))


def test_sentence_equality_ignores_raw():
    assert tokenize("a  b") == Sentence(("a", "b"))


@pytest.mark.parametrize(
    ("surface", "expected"),
    [
        ("cat", "alphabetic"),
        ("naïve", "alphabetic"),
        ("42", "numeric"),
        (",", "punctuation"),
        ("...", "punctuation"),
        ("…", "punctuation"),
        ("4th", "mixed"),
        ("x2", "mixed"),
        ("1.5", "mixed"),
        ("$", "mixed"),
    ],
)
def test_char_class(surface, expected):
    assert char_class(surface) == expected


def test_char_class_matches_per_character_reference():
    code_points = [*range(0x10000), *range(0x10000, sys.maxunicode + 1, 16)]
    assert [char_class(chr(cp)) for cp in code_points] == [
        reference_char_class(chr(cp)) for cp in code_points
    ]
    assert char_class("") == reference_char_class("") == "alphabetic"
    # letters, marks, decimal and other digits, numeric letters, punctuation,
    # symbols, spaces and controls, from several scripts
    pool = "aZéß漢ーँ́09٣²①Ⅷ½.,-…¿「$+©  \t\x00\U0001F600\U00010348\U0001D7D8"
    rng = random.Random(3)
    for _ in range(20_000):
        chars = rng.sample(pool, rng.randint(1, 3))
        surface = "".join(rng.choice(chars) for _ in range(rng.randint(1, 6)))
        assert char_class(surface) == reference_char_class(surface), surface


def test_naive_provider_fields():
    annotated = annotate(tokenize("Running , 42 x2"), NaiveProvider())
    assert [a.lemma for a in annotated] == ["running", ",", "42", "x2"]
    assert [a.pos for a in annotated] == ["OTHER", "PUNCT", "NUM", "OTHER"]
    assert [char_class(a.surface) for a in annotated] == [
        "alphabetic", "punctuation", "numeric", "mixed",
    ]


def test_annotate_preserves_tokens():
    sent = tokenize("a b c")
    annotated = annotate(sent, "naive")
    assert len(annotated) == 3
    assert tuple(a.surface for a in annotated) == sent.surfaces


class _FixedProvider:
    """Returns the same annotations whatever it is asked to annotate."""

    name = "fixed"

    def __init__(self, *annotated):
        self.annotated = annotated

    def annotate(self, surfaces):
        return self.annotated


def test_annotated_token_validation():
    for annotated in (
        (AnnotatedToken("cat", "", "OTHER"),),
        (AnnotatedToken("cat", "cat", "VERBISH"),),
        (AnnotatedToken("dog", "dog", "NOUN"),),
        (),
        (AnnotatedToken("cat", "cat", "NOUN"),) * 2,
    ):
        with pytest.raises(ValueError):
            annotate(tokenize("cat"), _FixedProvider(*annotated))
    assert annotate(tokenize("cat"), _FixedProvider(AnnotatedToken("cat", "cat", "NOUN")))


def test_normalize_pos_aliases_and_unknowns():
    assert normalize_pos("noun") == "NOUN"
    assert normalize_pos("PROPN") == "NOUN"
    assert normalize_pos("AUX") == "VERB"
    assert normalize_pos("SCONJ") == "CONJ"
    assert normalize_pos("whatever") == "OTHER"
    assert all(normalize_pos(tag) == tag for tag in POS_TAGS)


def test_sidecar_annotations_attach_in_order(tmp_path):
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_text(
        "The\tthe\tDET\ncats\tcat\tNOUN\nran\trun\tVERB\n"
        "\n"
        "Hello\thello\tINTJ\n",
        encoding="utf-8",
    )
    provider = SidecarProvider.from_file(sidecar)
    annotated = annotate(tokenize("The cats ran"), provider)
    assert [(a.lemma, a.pos) for a in annotated] == [
        ("the", "DET"), ("cat", "NOUN"), ("run", "VERB"),
    ]
    assert [a.surface for a in annotated] == ["The", "cats", "ran"]
    # INTJ is outside the closed tagset and collapses to OTHER
    annotated = annotate(tokenize("Hello"), provider)
    assert annotated[0].pos == "OTHER"


def test_sidecar_missing_sentence_is_a_data_error(tmp_path):
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_text("a\ta\tDET\n", encoding="utf-8")
    provider = SidecarProvider.from_file(sidecar)
    with pytest.raises(DataError):
        annotate(tokenize("b"), provider)


def test_sidecar_malformed_row(tmp_path):
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_text("a\ta\n", encoding="utf-8")
    with pytest.raises(DataError):
        SidecarProvider.from_file(sidecar)


def test_sidecar_empty_sentence_needs_no_lookup(tmp_path):
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_text("a\ta\tDET\n", encoding="utf-8")
    provider = SidecarProvider.from_file(sidecar)
    assert annotate(tokenize(""), provider) == ()


def test_make_provider():
    assert make_provider("naive").name == "naive"
    with pytest.raises(ConfigError):
        make_provider("sidecar")
    with pytest.raises(ConfigError):
        make_provider("spacy")
    with pytest.raises(ConfigError, match="naive provider takes no annotations file"):
        make_provider("naive", "annotations.tsv")


def test_parse_pair_line():
    assert parse_pair_line("a b\tc d", 1) == ("a b", "c d")
    assert parse_pair_line("a\t", 1) == ("a", "")
    with pytest.raises(DataError):
        parse_pair_line("no tab here", 3)
    with pytest.raises(DataError):
        parse_pair_line("a\tb\tc", 4)


def test_read_parallel_tsv(tmp_path):
    corpus = tmp_path / "pairs.tsv"
    corpus.write_text("a b\ta c\nx\tx y\n", encoding="utf-8")
    assert read_parallel_tsv(corpus) == [("a b", "a c"), ("x", "x y")]
