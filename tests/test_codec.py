"""Wire format: serialization, tolerant parsing, application, canonical form."""

from __future__ import annotations

import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PRIVACY_CANONICAL,
    PRIVACY_SPLIT,
    PRIVACY_SRC,
    PRIVACY_TGT,
    SCHOLARS_SPANS,
    SCHOLARS_SRC,
    SCHOLARS_TGT,
    VOCAB,
)
from editspan.codec import (
    EditScript,
    EditSpan,
    NONE_SENTINEL,
    apply_edits,
    parse,
    serialize,
    split_fragments,
)
from editspan.errors import DataError
from editspan.text import Sentence, detokenize, tokenize
from reference import canonicalize, reference_parse, reference_split_fragments


def test_serialize_reference_script():
    script = EditScript(
        (
            EditSpan(1, 1, ("the",)),
            EditSpan(8, 9, ("have", "been")),
            EditSpan(12, 13, ()),
        ),
        source_len=15,
    )
    assert serialize(script) == SCHOLARS_SPANS


def test_serialize_empty_script_is_none_sentinel():
    assert serialize(EditScript((), 9)) == NONE_SENTINEL


def test_serialize_deletion_has_no_trailing_space():
    rendered = serialize(EditScript((EditSpan(12, 13, ()),), 15))
    assert rendered == "12 13"
    assert not rendered.endswith(" ")


def test_parse_none_sentinel():
    for text in ("None", "  None  ", "None\n"):
        report = parse(text, 10)
        assert report.script == EditScript((), 10)
        assert report.ignored == 0
        assert report.discarded == ()


def test_parse_whitespace_only_has_no_fragments():
    for text in ("", "   ", "\t\n"):
        report = parse(text, 5)
        assert report.script.spans == ()
        assert report.ignored == 0


def test_parse_reference_script():
    report = parse(SCHOLARS_SPANS, 15)
    assert report.ignored == 0
    assert report.script.spans == (
        EditSpan(1, 1, ("the",)),
        EditSpan(8, 9, ("have", "been")),
        EditSpan(12, 13, ()),
    )


def test_parse_sorts_surviving_spans():
    report = parse("8 9 have been, 1 1 the", 15)
    assert [s.start for s in report.script.spans] == [1, 8]
    assert report.ignored == 0


_MALFORMED = [
    ("banana", 10, "no_positions"),
    ("x 1 2", 10, "no_positions"),
    ("7", 10, "no_positions"),
    ("3 x y", 10, "no_positions"),
    ("3 2 x", 10, "bad_positions"),   # reversed positions
    ("-1 2 x", 10, "bad_positions"),  # negative start
    ("5 99 y", 10, "bad_positions"),  # end beyond the source
    ("0 11", 10, "bad_positions"),    # deletion reaching past the source
    ("3 3", 10, "noop"),              # changes nothing
]


@pytest.mark.parametrize(
    ("text", "source_len", "code"), _MALFORMED,
    ids=[f"{text}-{source_len}" for text, source_len, _ in _MALFORMED],
)
def test_parse_discards_malformed_fragment(text, source_len, code):
    report = parse(text, source_len)
    assert report.script.spans == ()
    assert report.ignored == 1
    assert report.discarded == ((0, code),)


def test_parse_keeps_good_fragments_among_bad():
    report = parse("banana, 3 2 x, 1 2 fixed, 5 99 y", 10)
    assert report.script.spans == (EditSpan(1, 2, ("fixed",)),)
    assert report.ignored == 3
    assert report.discarded == ((0, "no_positions"), (1, "bad_positions"), (3, "bad_positions"))


def test_parse_overlap_keeps_first_in_scan_order():
    report = parse("0 2 a, 1 3 b", 10)
    assert report.script.spans == (EditSpan(0, 2, ("a",)),)
    assert report.discarded == ((1, "overlap"),)

    # scan order wins even when the later fragment starts earlier
    report = parse("1 3 b, 0 2 a", 10)
    assert report.script.spans == (EditSpan(1, 3, ("b",)),)
    assert report.ignored == 1


def test_parse_rejects_second_insertion_at_same_gap():
    report = parse("3 3 x, 3 3 y", 10)
    assert report.script.spans == (EditSpan(3, 3, ("x",)),)
    assert report.ignored == 1


def test_parse_allows_insertion_at_replacement_boundary():
    report = parse("3 5 x, 5 5 y", 10)
    assert report.script.spans == (EditSpan(3, 5, ("x",)), EditSpan(5, 5, ("y",)))
    assert report.ignored == 0


def test_parse_comma_without_positions_stays_in_replacement():
    report = parse("1 2 x , y", 10)
    assert report.script.spans == (EditSpan(1, 2, ("x", ",", "y")),)
    assert report.ignored == 0


def test_parse_comma_token_before_next_span_roundtrips():
    script = EditScript((EditSpan(1, 2, ("x", ",")), EditSpan(3, 4, ("y",))), 10)
    rendered = serialize(script)
    assert rendered == "1 2 x ,, 3 4 y"
    report = parse(rendered, 10)
    assert report.script == script
    assert report.ignored == 0


def test_parse_integer_pair_after_comma_token_is_a_boundary():
    # a replacement comma followed by two integers is indistinguishable from
    # a fragment boundary; the format cannot carry that replacement
    report = parse("1 2 a , 7 8", 10)
    assert report.script.spans == (EditSpan(1, 2, ("a",)), EditSpan(7, 8, ()))


def test_split_fragments_accounting():
    assert split_fragments("") == []
    assert split_fragments("  \t") == []
    assert split_fragments("1 2 x") == ["1 2 x"]
    assert split_fragments("1 2 x, 3 4 y") == ["1 2 x", " 3 4 y"]
    assert split_fragments(",1 2 x") == ["", "1 2 x"]
    assert split_fragments("a, b") == ["a, b"]


# the characters a fragment boundary turns on: commas, whitespace (the
# ideographic space too), signs, ASCII and non-ASCII decimal digits
_SPLIT_ALPHABET = (
    ",", ",", " ", " ", "\t", "\u3000", "-", "0", "1", "7", "42",
    "\u0663", "\u096b", "\uff11", "x", "é", "None",
)


def test_split_fragments_matches_reference_on_random_strings():
    rng = random.Random(11)
    for _ in range(100_000):
        text = "".join(rng.choices(_SPLIT_ALPHABET, k=rng.randrange(16)))
        assert split_fragments(text) == reference_split_fragments(text), text


def test_parse_handles_huge_positions():
    report = parse("0 99999999999999999999 x", 10)
    assert report.script.spans == ()
    assert report.ignored == 1


def test_parse_positions_past_the_int_digit_limit_are_invalid():
    # int() refuses more than 4300 digits by default
    for text in ("9" * 5000 + " 1 x", "0 " + "1" * 5000 + " x", "-" + "9" * 5000 + " 1 x"):
        report = parse(text, 3)
        assert report.script.spans == () and report.ignored == 1
        assert report.discarded == ((0, "bad_positions"),)
    # leading zeros are not significant, in any script's decimal digits
    for zeros in ("0" * 5000, "\u0660" * 5000):
        report = parse(f"{zeros}1 {zeros}2 x, -{zeros}3 3 y", 3)
        assert report.script.spans == (EditSpan(1, 2, ("x",)),)
        assert report.ignored == 1
        assert parse(f"-{zeros} 1 y", 3).script.spans == (EditSpan(0, 1, ("y",)),)


def test_parse_overlap_matches_scan_oracle():
    rng = random.Random(11)
    for _ in range(3000):
        source_len = rng.randint(0, 10)
        fragments = []
        for _ in range(rng.randint(1, 12)):
            if fragments and rng.random() < 0.2:
                fragments.append(rng.choice(fragments))  # a repeated fragment
                continue
            start = rng.randint(0, source_len)
            # many zero-width inserts, often at a gap another span shares
            end = start if rng.random() < 0.4 else rng.randint(start, source_len + 1)
            replacement = tuple(rng.choice("xyz") for _ in range(rng.randint(0, 2)))
            fragments.append((start, end, replacement))
        text = ", ".join(" ".join((str(s), str(e), *r)) for s, e, r in fragments)
        assert parse(text, source_len) == reference_parse(text, source_len), text


_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
_DIGITS = (
    "0123456789",
    "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",  # Arabic-Indic
    "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",  # Devanagari
    "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",  # fullwidth
)
_SPACES = (" ", " ", " ", "  ", "\t", "\n", "\u3000", "\x85", "\u2028", "\x1c", "\xa0")
_WORDS = ("x", "y", "z", "None", ",", "a,b", "2x", "7", "-1", "\x00", "\ud800", "\ufeff")
_NOT_PARSED = (
    "", " ", "\t\n", "\u3000\x85", "None", " None ", "None\n", "\u2028None\u3000",
    "none", "None x", "None, 0 1 x", "NoneNone",
)


def _position_text(rng: random.Random, source_len: int) -> str:
    """A start or end position: usually in range, else negative, ``-0``, past the
    source, zero-padded, in other scripts' digits, or past ``int``'s digit limit."""
    roll = rng.random()
    if roll < 0.6:
        return str(rng.randint(0, source_len))
    if roll < 0.68:
        return str(rng.randint(-3, -1))
    if roll < 0.72:
        return "-" + "0" * rng.randint(1, 3)
    if roll < 0.8:
        return str(source_len + rng.randint(1, 12))
    if roll < 0.88:
        return "0" * rng.randint(1, 4) + str(rng.randint(0, source_len))
    digits = rng.choice(_DIGITS)
    if roll < 0.995:
        return "".join(digits[int(c)] for c in str(rng.randint(0, source_len)))
    sign = rng.choice(("", "-"))
    if rng.random() < 0.5:  # in range once its leading zeros are dropped
        return sign + digits[0] * _INT_LIMIT + digits[1]
    return sign + digits[1] * (_INT_LIMIT + 1)


def _span_text(rng: random.Random) -> tuple[str, int]:
    """Random span text and its source length, with duplicate, reversed and
    zero-width fragments, tokens glued to a position, commas inside
    replacements, fragments of more than six tokens and non-ASCII whitespace."""
    source_len = rng.randint(0, 12)
    if rng.random() < 0.04:
        return rng.choice(_NOT_PARSED), source_len
    fragments: list[str] = []
    for _ in range(rng.randint(1, 8)):
        if fragments and rng.random() < 0.15:
            fragments.append(rng.choice(fragments))  # a repeated fragment
            continue
        if rng.random() < 0.08:  # no leading positions
            words = rng.choices(_WORDS + ("1",), k=rng.randint(0, 8))
            fragments.append(" ".join(words))
            continue
        start = _position_text(rng, source_len)
        # zero-width spans are often no-ops, or sit inside an earlier span
        end = start if rng.random() < 0.3 else _position_text(rng, source_len)
        if rng.random() < 0.06:
            end += rng.choice(("x", ",x", "-", "\u0661", "\x00"))
        count = rng.choice((0, 0, 1, 1, 2, 3, 5, 6, 7, 9))
        words = rng.choices(_WORDS, k=count)
        parts = [start, end, *words]
        text = "".join(p + rng.choice(_SPACES) for p in parts[:-1]) + parts[-1]
        fragments.append(rng.choice(("", " ", "\u3000")) + text + rng.choice(("", "", " ")))
    text = "".join(f + rng.choice((",", ", ", ", ", " ,\t")) for f in fragments[:-1])
    return text + fragments[-1], source_len


def test_parse_matches_reference_on_hostile_span_text():
    rng = random.Random(18)
    for _ in range(20_000):
        text, source_len = _span_text(rng)
        assert parse(text, source_len) == reference_parse(text, source_len), (text, source_len)


def test_parse_many_disjoint_fragments_is_fast():
    count = 20_000
    for order in (range(count), reversed(range(count))):
        text = ", ".join(f"{2 * i} {2 * i + 1} w" for i in order)
        began = time.perf_counter()
        report = parse(text, 2 * count)
        elapsed = time.perf_counter() - began
        assert len(report.script.spans) == count and report.ignored == 0
        assert elapsed < 2.0, f"{count} disjoint fragments took {elapsed:.2f} s"


def test_parse_reversed_fragments_is_not_quadratic():
    # a ratio of run times, so the bound does not depend on machine speed:
    # linear work gives 8x for 8x the fragments, quadratic work gives 64x
    def best_time(count: int, runs: int) -> float:
        text = ", ".join(f"{2 * i} {2 * i + 1} w" for i in reversed(range(count)))
        best = float("inf")
        for _ in range(runs):
            began = time.perf_counter()
            report = parse(text, 2 * count)
            best = min(best, time.perf_counter() - began)
            assert len(report.script.spans) == count and report.ignored == 0
        return best

    small, large = best_time(20_000, 3), best_time(160_000, 2)
    assert large <= 16 * small, f"160k fragments took {large / small:.1f}x the time of 20k"


def test_apply_edits_many_insertions_is_fast():
    count = 80_000
    src = Sentence(tuple(f"w{i}" for i in range(count)))
    script = EditScript(tuple(EditSpan(i, i, ("x",)) for i in range(count)), count)
    began = time.perf_counter()
    produced = apply_edits(script, src)
    elapsed = time.perf_counter() - began
    assert produced.surfaces == tuple(t for i in range(count) for t in ("x", f"w{i}"))
    assert elapsed < 0.5, f"{count} insertions took {elapsed:.2f} s"


def test_edit_span_validation():
    with pytest.raises(ValueError):
        EditSpan(-1, 0, ("x",))
    with pytest.raises(ValueError):
        EditSpan(3, 2, ("x",))
    with pytest.raises(ValueError):
        EditSpan(3, 3, ())
    with pytest.raises(ValueError):
        EditSpan(0, 1, ("two words",))
    with pytest.raises(ValueError):
        EditSpan(0, 1, ("",))
    with pytest.raises(ValueError, match="sequence of tokens"):
        EditSpan(1, 2, "goes")


def test_edit_script_validation():
    with pytest.raises(ValueError):
        EditScript((EditSpan(0, 2, ("x",)),), source_len=1)
    with pytest.raises(ValueError):
        EditScript((EditSpan(2, 3, ("x",)), EditSpan(0, 1, ("y",))), 5)
    with pytest.raises(ValueError):
        EditScript((EditSpan(0, 2, ("x",)), EditSpan(1, 3, ("y",))), 5)
    with pytest.raises(ValueError):
        EditScript((EditSpan(2, 2, ("x",)), EditSpan(2, 3, ("y",))), 5)
    with pytest.raises(ValueError):
        EditScript((), source_len=-1)
    with pytest.raises(ValueError, match="source length must be non-negative: -1"):
        parse("None", -1)


def test_apply_reference_script():
    report = parse(SCHOLARS_SPANS, 15)
    produced = apply_edits(report.script, tokenize(SCHOLARS_SRC))
    assert detokenize(produced) == SCHOLARS_TGT


def test_apply_empty_script_returns_source_unchanged():
    src = tokenize("leave me alone .")
    report = parse("None", len(src))
    assert apply_edits(report.script, src).surfaces == src.surfaces


def test_apply_length_mismatch_is_a_data_error():
    script = EditScript((EditSpan(0, 1, ("x",)),), source_len=3)
    with pytest.raises(DataError):
        apply_edits(script, tokenize("a b"))


def test_apply_insertion_into_empty_sentence():
    report = parse("0 0 hi there", 0)
    assert apply_edits(report.script, tokenize("")).surfaces == ("hi", "there")


def test_apply_deletes_everything():
    script = EditScript((EditSpan(0, 3, ()),), 3)
    assert apply_edits(script, tokenize("a b c")).surfaces == ()


_REPL_TOKENS = ("the", "cats", "ran", "very", "fast", ",", ".", "x2")


@st.composite
def _valid_scripts(draw) -> EditScript:
    source_len = draw(st.integers(0, 20))
    spans = []
    cursor = 0
    for _ in range(draw(st.integers(0, 4))):
        if cursor > source_len:
            break
        start = draw(st.integers(cursor, source_len))
        insert = start == source_len or draw(st.booleans())
        if insert:
            end = start
            replacement = draw(
                st.lists(st.sampled_from(_REPL_TOKENS), min_size=1, max_size=3)
            )
        else:
            end = draw(st.integers(start + 1, source_len))
            replacement = draw(
                st.lists(st.sampled_from(_REPL_TOKENS), min_size=0, max_size=3)
            )
        spans.append(EditSpan(start, end, tuple(replacement)))
        cursor = max(start + 1, end)
    return EditScript(tuple(spans), source_len)


@given(script=_valid_scripts())
@settings(deadline=None, max_examples=300)
def test_serialize_parse_roundtrip_property(script):
    report = parse(serialize(script), script.source_len)
    assert report.ignored == 0
    assert report.script == script


@given(text=st.text(max_size=64), source_len=st.integers(0, 40))
@settings(deadline=None, max_examples=300)
def test_parse_is_total_and_accounts_for_fragments(text, source_len):
    report = parse(text, source_len)
    if text.strip() != NONE_SENTINEL:
        fragments = split_fragments(text)
        assert len(report.script.spans) + report.ignored == len(fragments)
    assert report.ignored == len(report.discarded)
    assert report == reference_parse(text, source_len)


@given(script=_valid_scripts())
@settings(deadline=None, max_examples=150)
def test_apply_descending_matches_ascending_with_offsets(script):
    rng = random.Random(script.source_len)
    src = Sentence(tuple(
        rng.choice(VOCAB) for _ in range(script.source_len)
    ))
    produced = apply_edits(script, src).surfaces

    surfaces = list(src.surfaces)
    offset = 0
    for span in script.spans:
        start, end = span.start + offset, span.end + offset
        surfaces[start:end] = span.replacement
        offset += len(span.replacement) - (span.end - span.start)
    assert produced == tuple(surfaces)


def test_canonicalize_merges_split_script():
    src = tokenize(PRIVACY_SRC)
    split = parse(PRIVACY_SPLIT, len(src)).script
    canonical = canonicalize(split, src)
    assert serialize(canonical) == PRIVACY_CANONICAL
    assert detokenize(apply_edits(canonical, src)) == PRIVACY_TGT


@given(script=_valid_scripts())
@settings(deadline=None, max_examples=100)
def test_canonicalize_is_idempotent(script):
    rng = random.Random(script.source_len + 1)
    src = Sentence(tuple(
        rng.choice(VOCAB) for _ in range(script.source_len)
    ))
    once = canonicalize(script, src)
    twice = canonicalize(once, src)
    assert once == twice


def test_canonicalize_propagates_length_mismatch():
    script = EditScript((EditSpan(0, 1, ("x",)),), source_len=9)
    with pytest.raises(DataError):
        canonicalize(script, tokenize("a b"))


@given(text=st.text(max_size=48), source_len=st.integers(0, 12))
@settings(deadline=None, max_examples=300)
def test_parsed_scripts_always_apply_cleanly(text, source_len):
    # whatever survives parsing is well-formed for the stated source length
    report = parse(text, source_len)
    src = Sentence(tuple(f"t{i}" for i in range(source_len)))
    apply_edits(report.script, src)
