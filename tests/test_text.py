"""Tokenization, character classes, and annotation providers."""

from __future__ import annotations

import random
import sys
import tracemalloc

import pytest

from editspan import text
from editspan.errors import ConfigError, DataError
from editspan.text import (
    AnnotatedToken,
    NaiveProvider,
    POS_TAGS,
    Sentence,
    SidecarProvider,
    annotate,
    detokenize,
    make_provider,
    normalize_pos,
    parse_pair_line,
    read_lines,
    tokenize,
)
from reference import (
    reference_char_class,
    reference_naive_annotate,
    reference_sidecar_annotate,
    reference_sidecar_from_file,
)


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
    ("surface", "char_class"),
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
        ("", "alphabetic"),
    ],
)
def test_char_class(surface, char_class):
    # the naive POS tag: NUM for numeric surfaces, PUNCT for punctuation,
    # OTHER for the rest, the empty surface among them
    assert reference_char_class(surface) == char_class
    pos = {"numeric": "NUM", "punctuation": "PUNCT"}.get(char_class, "OTHER")
    assert NaiveProvider().annotate([surface]) == (AnnotatedToken(surface, surface.lower(), pos),)


def test_char_class_matches_per_character_reference():
    # letters, marks, decimal and other digits, numeric letters, punctuation,
    # symbols, spaces and controls, from several scripts
    pool = "aZéß漢ーँ́09٣²①Ⅷ½.,-…¿「$+©  \t\x00\U0001F600\U00010348\U0001D7D8"
    rng = random.Random(3)
    surfaces = []
    for _ in range(20_000):
        chars = rng.sample(pool, rng.randint(1, 3))
        surfaces.append("".join(rng.choice(chars) for _ in range(rng.randint(1, 6))))
    assert NaiveProvider().annotate(surfaces) == reference_naive_annotate(surfaces)


def test_naive_provider_fields():
    annotated = annotate(tokenize("Running , 42 x2"), NaiveProvider())
    assert [a.lemma for a in annotated] == ["running", ",", "42", "x2"]
    assert [a.pos for a in annotated] == ["OTHER", "PUNCT", "NUM", "OTHER"]


def test_naive_provider_matches_reference():
    provider = NaiveProvider()
    code_points = [*range(0x10000), *range(0x10000, sys.maxunicode + 1, 16)]
    surfaces = [chr(cp) for cp in code_points]
    assert provider.annotate(surfaces) == reference_naive_annotate(surfaces)
    pool = "aZéß漢ーँ́09٣²①Ⅷ½.,-…¿「$+©İΣ\U0001F600\U00010348\U0001D7D8"
    rng = random.Random(4)
    surfaces = [
        "".join(rng.choice(pool) for _ in range(rng.randint(1, 6))) for _ in range(20_000)
    ]
    # twice: the second pass reads the shared tokens
    for _ in range(2):
        assert provider.annotate(surfaces) == reference_naive_annotate(surfaces)
    assert provider.annotate([]) == ()


def test_naive_provider_shares_one_token_per_surface():
    first = NaiveProvider().annotate(["Cat", "sat", "Cat", "42", ","])
    again = NaiveProvider().annotate(["42", "Cat", ","])
    assert first[0] is first[2] is again[1]
    assert first[3] is again[0] and first[4] is again[2]
    assert first[0] == AnnotatedToken("Cat", "cat", "OTHER")


def test_annotate_preserves_tokens():
    sent = tokenize("a b c")
    annotated = annotate(sent, NaiveProvider())
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


def test_annotate_checks_every_provider_but_the_built_in_ones(tmp_path, monkeypatch):
    class Unlemmatized(NaiveProvider):
        """A subclass may break the rule, so its output is checked."""

        def annotate(self, surfaces):
            return tuple(AnnotatedToken(s, "", "OTHER") for s in surfaces)

    with pytest.raises(ValueError, match="provider 'naive' did not annotate"):
        annotate(tokenize("cat"), Unlemmatized())
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_text("a\ta\tDET\nb\tb\tNOUN\n", encoding="utf-8")
    checked = []
    monkeypatch.setattr(text, "_check_annotations", lambda *args: checked.append(args))
    for provider in (None, NaiveProvider(), SidecarProvider.from_file(sidecar)):
        annotate(tokenize("a b"), provider)
    assert checked == []
    annotate(tokenize("cat"), _FixedProvider(AnnotatedToken("cat", "cat", "NOUN")))
    assert len(checked) == 1


def test_sidecar_from_a_mapping_is_checked_when_built():
    message = (
        "provider 'sidecar' did not annotate tokens one-to-one "
        "with a non-empty lemma and a known POS tag"
    )
    cat = AnnotatedToken("cat", "cat", "NOUN")
    the = {("the",): (AnnotatedToken("the", "the", "DET"),)}
    for annotated in (
        (AnnotatedToken("cat", "", "OTHER"),),
        (AnnotatedToken("cat", "cat", "VERBISH"),),
        (AnnotatedToken("dog", "dog", "NOUN"),),
        (),
        (cat, cat),
    ):
        # even a sentence that is never looked up
        with pytest.raises(ValueError) as excinfo:
            SidecarProvider({**the, ("cat",): annotated})
        assert str(excinfo.value) == message
    provider = SidecarProvider({**the, ("cat",): (cat,)})
    assert annotate(tokenize("cat"), provider) == (cat,)


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
    with pytest.raises(DataError) as excinfo:
        annotate(tokenize("b c"), provider)
    assert str(excinfo.value) == "no sidecar annotations for sentence: 'b c'"


def _sidecar_error(tmp_path, content: bytes) -> tuple[str, str]:
    """The message ``from_file`` raises on ``content``, and the file's path."""
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_bytes(content)
    with pytest.raises(DataError) as excinfo:
        SidecarProvider.from_file(sidecar)
    return str(excinfo.value), str(sidecar)


def test_sidecar_malformed_row(tmp_path):
    message, path = _sidecar_error(tmp_path, b"a\ta\tDET\n\nb\tb\n")
    assert message == f"{path}: line 3: expected surface<TAB>lemma<TAB>pos"
    message, path = _sidecar_error(tmp_path, b"a\ta\tDET\tx\n")
    assert message == f"{path}: line 1: expected surface<TAB>lemma<TAB>pos"


def test_sidecar_empty_lemma(tmp_path):
    message, path = _sidecar_error(tmp_path, b"a\ta\tDET\nb\t \tNOUN\n")
    assert message == f"{path}: line 2: empty lemma"


def test_sidecar_malformed_row_after_an_identical_well_formed_one(tmp_path):
    # a row seen before is not validated again, so near-copies of it must be
    content = b"a\ta\tDET\n\na\ta\tDET\nb\tb\tNOUN\n\na\ta\tDET\na\ta\n"
    message, path = _sidecar_error(tmp_path, content)
    assert message == f"{path}: line 7: expected surface<TAB>lemma<TAB>pos"
    message, path = _sidecar_error(tmp_path, b"a\ta\tDET\r\na\t\tDET\r\n")
    assert message == f"{path}: line 2: empty lemma"


def test_sidecar_non_utf8_bytes(tmp_path):
    message, path = _sidecar_error(tmp_path, b"a\ta\tDET\n\n\xff\tb\tNOUN\n")
    assert message == f"{path}: not valid UTF-8 text (invalid start byte)"


def test_sidecar_later_duplicate_sentence_replaces_the_earlier(tmp_path):
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_text(
        "a\ta\tDET\nb\tb\tNOUN\n\nc\tc\tVERB\n\na\tA2\tPRON\nb\tb\tVERB\n",
        encoding="utf-8",
    )
    provider = SidecarProvider.from_file(sidecar)
    assert provider.annotate(("a", "b")) == (
        AnnotatedToken("a", "a2", "PRON"), AnnotatedToken("b", "b", "VERB"),
    )
    assert provider.annotate(("c",)) == (AnnotatedToken("c", "c", "VERB"),)


def test_sidecar_equal_rows_share_one_token(tmp_path):
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_text(
        "the\tthe\tDET\ncat\tcat\tNOUN\n\nthe\tthe\tDET\ndog\tdog\tNOUN\n",
        encoding="utf-8",
    )
    provider = SidecarProvider.from_file(sidecar)
    cat = annotate(tokenize("the cat"), provider)
    dog = annotate(tokenize("the dog"), provider)
    assert cat[0] == dog[0] == AnnotatedToken("the", "the", "DET")
    assert cat[0] is dog[0]
    assert annotate(tokenize("the cat"), provider) is cat


def test_sidecar_load_memory_grows_with_distinct_rows_not_tokens(tmp_path):
    # about 100k tokens over 100 words: stored once per distinct row, the
    # tokens take a few kB; a tuple per token would take tens of MB
    rng = random.Random(3)
    words = [f"w{i}" for i in range(100)]
    rows = {w: f"{w}\t{w.upper()}\t{rng.choice(sorted(POS_TAGS))}\n" for w in words}
    blocks, tokens = [], 0
    while tokens < 100_000:
        sentence = rng.choices(words, k=rng.randint(5, 30))
        blocks.append("".join(rows[w] for w in sentence))
        tokens += len(sentence)
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_text("\n".join(blocks), encoding="utf-8")
    tracemalloc.start()
    try:
        provider = SidecarProvider.from_file(sidecar)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(provider.annotations) > 3000
    assert peak < 5_000_000, f"sidecar load peaked at {peak} bytes"


_SIDECAR_WORDS = ("The", "cat", "CATS", "ran", ",", ".", "42", "naïve", "Café", "x")
# aliases, unknown tags and tags in need of stripping or upper-casing
_SIDECAR_TAGS = ("NOUN", "verb", " ADJ ", "PROPN", "AUX", "CCONJ", "sconj", "INTJ", "X", "")
# lines that close a block; the last makes two blank lines
_SIDECAR_SEPARATORS = ("", "  ", "\t", " \t ", "\n")


def _random_sidecar(rng: random.Random) -> bytes:
    """A sidecar with shared, duplicated and sometimes malformed rows."""
    pool = [
        "\t".join((
            rng.choice(_SIDECAR_WORDS),
            rng.choice((" ", "")) + rng.choice(_SIDECAR_WORDS) + rng.choice((" ", "  ", "")),
            rng.choice(_SIDECAR_TAGS),
        ))
        for _ in range(rng.randint(1, 12))
    ]
    sentences: list[list[str]] = []
    for _ in range(rng.randint(1, 12)):
        if sentences and rng.random() < 0.3:
            # an earlier sentence again, with fresh annotations for its surfaces
            earlier = rng.choice(sentences)
            sentences.append([
                row.split("\t")[0] + "\t" + rng.choice(_SIDECAR_WORDS)
                + "\t" + rng.choice(_SIDECAR_TAGS)
                for row in earlier
            ])
        else:
            sentences.append([rng.choice(pool) for _ in range(rng.randint(1, 6))])
    lines: list[str] = []
    for rows in sentences:
        lines.extend(rows)
        lines.append(rng.choice(_SIDECAR_SEPARATORS))
    if rng.random() < 0.5:
        lines.pop()
    if rng.random() < 0.25:
        bad = rng.choice(("a\tb", "a\tb\tNOUN\tx", "a\t\tNOUN", "a\t  \tNOUN", "a"))
        lines.insert(rng.randint(0, len(lines)), bad)
    newline = rng.choice(("\n", "\r\n"))
    text = newline.join(lines) + rng.choice((newline, ""))
    data = text.encode("utf-8")
    if rng.random() < 0.05:
        cut = rng.randint(0, len(data))
        data = data[:cut] + b"\xc3(" + data[cut:]
    return data


def _outcome(load, *args):
    try:
        return load(*args)
    except DataError as exc:
        return f"DataError: {exc}"


def test_sidecar_provider_matches_reference_on_random_files(tmp_path):
    rng = random.Random(17)
    sidecar = tmp_path / "annotations.tsv"
    failed = 0
    for _ in range(400):
        sidecar.write_bytes(_random_sidecar(rng))
        expected = _outcome(reference_sidecar_from_file, sidecar)
        provider = _outcome(SidecarProvider.from_file, sidecar)
        if isinstance(expected, str):
            assert provider == expected
            failed += 1
            continue
        assert provider.annotations.keys() == expected.keys()
        queries = list(expected) + [("unseen", "sentence"), ("The",), ()]
        for surfaces in queries:
            assert _outcome(provider.annotate, surfaces) == _outcome(
                reference_sidecar_annotate, expected, surfaces
            )
    assert 50 < failed < 200


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


@pytest.mark.parametrize(
    ("data", "lines"),
    [
        (b"", []),
        (b"a b\nc", ["a b\n", "c"]),
        (b"\xef\xbb\xbfa\n\xef\xbb\xbfb\n", ["a\n", "\ufeffb\n"]),
        (b"\xef\xbb\xbf\xef\xbb\xbfa\n", ["\ufeffa\n"]),
        (b"\xef\xbb\xbf", []),
        (b"a\r\nb\rc\n\r\n", ["a\n", "b\n", "c\n", "\n"]),
    ],
    ids=["empty", "no-final-newline", "bom", "two-boms", "bom-only", "crlf-and-cr"],
)
def test_read_lines_skips_one_bom_and_reads_every_ending_as_lf(tmp_path, data, lines):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    assert list(read_lines(path)) == lines


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"], ids=["one-byte", "two-bytes"])
def test_read_lines_truncated_bom_is_not_valid_utf8(tmp_path, data):
    # the start of a byte-order mark is not one; "utf-8-sig" would read it as empty
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    with pytest.raises(DataError) as info:
        list(read_lines(path))
    assert str(info.value) == f"{path}: not valid UTF-8 text (unexpected end of data)"
