"""Cost model, dynamic program, merge rule, and span extraction."""

from __future__ import annotations

import itertools
import math
import random
import string
import tracemalloc
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CASH_SRC,
    CASH_TGT,
    PRIVACY_SRC,
    PRIVACY_TGT,
    SCHOLARS_SRC,
    SCHOLARS_TGT,
    VOCAB,
    exhaustive_min_cost,
    random_pair,
)
from editspan import alignment as alignment_module
from editspan.alignment import (
    MAX_BAND_CELLS,
    MAX_WEIGHT,
    AlignOp,
    CostWeights,
    OpKind,
    _MASK_CACHE_CUTOFF,
    _char_distance_cached,
    _token_masks,
    align,
    char_levenshtein,
    extract_spans,
    merge_ops,
    read_kv_config,
)
from editspan.codec import EditSpan, apply_edits
from editspan.errors import ConfigError, DataError
from editspan.text import AnnotatedToken, NaiveProvider, SidecarProvider, annotate, tokenize
from reference import (
    reference_align,
    reference_char_distance,
    reference_discounted_sub,
    reference_extract_spans,
    reference_merge_ops,
    reference_price_sub,
)


def _annotated(text: str):
    return annotate(tokenize(text))


def sub_cost(a, b, weights=None):
    # the price the aligner charges: a one-token pair with different surfaces
    # aligns as one SUB, which costs at most DEL + INS and wins ties
    return align([a], [b], weights).total_cost


def test_char_levenshtein_frozen_values():
    assert char_levenshtein("kitten", "sitting") == 3
    assert char_levenshtein("are", "have") == 2
    assert char_levenshtein("invasion", "invading") == 3
    assert char_levenshtein("ab", "ba") == 2
    assert char_levenshtein("same", "same") == 0


def test_char_distance_matches_two_row_reference():
    rng = random.Random(11)
    astral = "\U0001F600\U00010348\U0001D11E\U00020000"
    alphabets = (
        "ab", "abcdefgh", "aé…\U0001F600\U00010348x", string.printable, "a", "\U0001F600",
        astral,
    )
    cases = [
        ("", ""), ("", "abc"), ("abc", ""), ("a" * 64, "a" * 65), ("a" * 65, "b" * 65),
        ("ab" * 40, "ba" * 40), ("\U0001F600" * 70, "\U0001F600" * 69 + "x"),
        ("xy", "xy" * 50_000), ("x", "yx" * 50_000),
    ]
    for _ in range(3000):
        alphabet = rng.choice(alphabets)
        cases.append(tuple(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16))) for _ in "ab"
        ))
    for _ in range(150):
        alphabet = rng.choice(alphabets)
        cases.append(tuple(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(60, 200))) for _ in "ab"
        ))
    # longer tokens on either side of the cutoff of the per-token mask cache
    for length in (_MASK_CACHE_CUTOFF - 1, _MASK_CACHE_CUTOFF, _MASK_CACHE_CUTOFF + 1):
        for alphabet in alphabets:
            for _ in range(20):
                cases.append((
                    "".join(rng.choice(alphabet) for _ in range(length)),
                    "".join(rng.choice(alphabet) for _ in range(rng.randint(1, length))),
                ))
    distance = _char_distance_cached.__wrapped__
    expected = [reference_char_distance(a, b) for a, b in cases]
    for (a, b), want in zip(cases, expected):
        assert distance(a, b) == distance(b, a) == want, (a, b)
        assert char_levenshtein(a, b) == char_levenshtein(b, a) == want, (a, b)
    # and again with both caches cold
    _char_distance_cached.cache_clear()
    _token_masks.cache_clear()
    for (a, b), want in zip(cases, expected):
        assert char_levenshtein(a, b) == distance(b, a) == want, (a, b)


def test_char_distance_against_one_character_is_linear_in_the_long_string():
    # only the scanned string's characters get a bit mask, so no mask of a
    # million bits is built a bit at a time
    distance = _char_distance_cached.__wrapped__
    started = perf_counter()
    assert distance("a", "x" * 10**6) == 10**6
    assert perf_counter() - started < 1.0


def test_char_distance_keeps_no_mask_per_distinct_character():
    # a mask for each of the long string's 40,000 distinct characters would
    # take about 100 MB
    long = "".join(chr(0x20000 + i) for i in range(40_000))
    distance = _char_distance_cached.__wrapped__
    tracemalloc.start()
    try:
        assert distance("a", long) == 40_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_char_distance_against_a_run_of_its_own_character_is_linear():
    # each mask of the long string is built whole, not a bit at a time
    distance = _char_distance_cached.__wrapped__
    started = perf_counter()
    assert distance("x", "x" * 10**6) == 10**6 - 1
    assert perf_counter() - started < 1.0


def test_full_mask_cache_stays_under_its_stated_worst_case():
    # README, "Bit-parallel character distance": at most 4,096 tokens of at
    # most 64 characters, under 40 MB with each of 64 distinct astral characters
    size = _token_masks.cache_info().maxsize
    assert (size, _MASK_CACHE_CUTOFF) == (4096, 64)
    _token_masks.cache_clear()
    tracemalloc.start()
    try:
        for k in range(size):
            _token_masks("".join(chr(0x10000 + k * 64 + i) for i in range(64)))
        peak = tracemalloc.get_traced_memory()[1]
        filled = _token_masks.cache_info().currsize
    finally:
        tracemalloc.stop()
        _token_masks.cache_clear()
    assert filled == size
    assert peak < 40_000_000


def test_sub_cost_identical_surfaces_is_zero():
    a, b = _annotated("cat cat")
    assert sub_cost(a, b) == 0.0


def test_sub_cost_is_was():
    # base 2.0, POS discount 0.4 (both OTHER), char similarity 1/3 of 0.6
    a = _annotated("is")[0]
    b = _annotated("was")[0]
    cost = sub_cost(a, b)
    assert cost == pytest.approx(2.0 - 0.4 - 0.6 / 3)
    assert cost < 2.0


def test_sub_cost_word_vs_punctuation_gets_no_discount():
    a = _annotated("cat")[0]
    b = _annotated(",")[0]
    assert sub_cost(a, b) == pytest.approx(2.0)


def test_sub_cost_cats_cat():
    # POS discount 0.4; char similarity 3/4 of 0.6
    a = _annotated("cats")[0]
    b = _annotated("cat")[0]
    assert sub_cost(a, b) == pytest.approx(2.0 - 0.4 - 0.6 * 0.75)


def test_sub_cost_lemma_and_pos_from_annotations():
    a = AnnotatedToken("cats", "cat", "NOUN")
    b = AnnotatedToken("cat", "cat", "NOUN")
    assert sub_cost(a, b) == pytest.approx(2.0 - 0.5 - 0.4 - 0.6 * 0.75)


def test_sub_cost_clamped_at_floor():
    weights = CostWeights(w_lemma=1.0, w_pos=0.8, w_char=0.5)
    a = AnnotatedToken("abcdefghij", "same", "NOUN")
    b = AnnotatedToken("abcdefghik", "same", "NOUN")
    assert sub_cost(a, b, weights) == weights.sub_floor


@given(
    sa=st.sampled_from(VOCAB),
    sb=st.sampled_from(VOCAB),
)
@settings(deadline=None)
def test_sub_cost_bounds(sa, sb):
    a = annotate(tokenize(sa))[0]
    b = annotate(tokenize(sb))[0]
    cost = sub_cost(a, b)
    weights = CostWeights()
    assert 0.0 <= cost <= weights.insert_cost + weights.delete_cost
    if sa != sb:
        assert cost >= weights.sub_floor


PRICE_WEIGHTS = (
    CostWeights(),
    CostWeights(w_char=0.0),
    CostWeights(sub_floor=2.0),
    CostWeights(w_lemma=1.3, w_pos=0.9),
)


def test_price_sub_is_sub_cost_or_none_only_past_the_cap():
    rng = random.Random(31)
    checked = ruled_out = 0
    for _ in range(400):
        # a tie-heavy vocabulary: 2 to 4 words of 1 to 12 characters over 3 letters
        vocab = list({
            "".join(rng.choice("abc") for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(2, 4))
        })
        if len(vocab) < 2:
            continue
        for _ in range(50):
            sa, sb = rng.sample(vocab, 2)
            a = AnnotatedToken(sa, rng.choice("xy"), rng.choice(("NOUN", "VERB")))
            b = AnnotatedToken(sb, rng.choice("xy"), rng.choice(("NOUN", "VERB")))
            w = rng.choice(PRICE_WEIGHTS)
            cost = sub_cost(a, b, w)
            assert cost == reference_discounted_sub(sa, sb, a.lemma == b.lemma, a.pos == b.pos, w)
            diag = rng.uniform(-10.0, 10.0)
            # a cap near the SUB candidate, at it, or anywhere
            cap = rng.choice((
                diag + cost + rng.uniform(-0.3, 0.3), diag + cost, rng.uniform(-10.0, 10.0),
            ))
            got = reference_price_sub(a, b, w, diag, cap)
            if got is None:
                assert diag + cost > cap, (a, b, w, diag, cap)
                ruled_out += 1
            else:
                assert got == cost, (a, b, w, diag, cap)
            checked += 1
    assert checked > 10_000 and 0 < ruled_out < checked


def test_cost_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(w_lemma=-0.1)
    with pytest.raises(ValueError):
        CostWeights(insert_cost=0.0)
    with pytest.raises(ValueError):
        CostWeights(sub_floor=0.0)
    with pytest.raises(ValueError):
        CostWeights(sub_floor=9.9)
    names = ("w_lemma", "w_char", "insert_cost", "delete_cost", "transpose_cost", "sub_floor")
    for name in names:
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                CostWeights(**{name: value})


def test_cost_weights_reject_weights_past_the_maximum():
    for field in ("w_lemma", "w_pos", "w_char", "insert_cost", "delete_cost",
                  "transpose_cost", "sub_floor"):
        with pytest.raises(ValueError, match=f"{field} must be at most 1e\\+300"):
            CostWeights(**{field: MAX_WEIGHT * 2})
    with pytest.raises(ConfigError, match="insert_cost must be at most"):
        CostWeights.from_mapping({"insert_cost": "1e308", "delete_cost": "1e308"})
    # the longest path within the cell budget, every op at the dearest cost
    assert math.isfinite(2 * (MAX_BAND_CELLS + 1) * 2 * MAX_WEIGHT)


def test_align_is_minimal_at_the_weight_maximum():
    weights = CostWeights(insert_cost=MAX_WEIGHT, delete_cost=MAX_WEIGHT)
    script = extract_spans(tokenize("a b c d e"), tokenize("a c d e f"), weights=weights)
    assert script.spans == (EditSpan(1, 2, ()), EditSpan(5, 5, ("f",)))
    src, tgt = _annotated("a b c d e"), _annotated("a c d e f")
    assert align(src, tgt, weights) == reference_align(src, tgt, weights)


def test_cost_weights_from_mapping():
    weights = CostWeights.from_mapping({"w_lemma": "0.3", "transpose_cost": 1.5})
    assert weights.w_lemma == 0.3
    assert weights.transpose_cost == 1.5
    with pytest.raises(ConfigError):
        CostWeights.from_mapping({"w_bogus": "1"})
    with pytest.raises(ConfigError):
        CostWeights.from_mapping({"w_lemma": "high"})
    with pytest.raises(ConfigError):
        CostWeights.from_mapping({"insert_cost": "-2"})
    for key, value in (("w_char", "nan"), ("insert_cost", "inf"), ("w_pos", "-Infinity")):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            CostWeights.from_mapping({key: value})


def test_cost_weights_from_file(tmp_path):
    config = tmp_path / "weights.cfg"
    config.write_text(
        "# alignment weights\n\nw_lemma = 0.25\nw_pos=0.1\ndelete_cost = 2\n",
        encoding="utf-8",
    )
    weights = CostWeights.from_file(config)
    assert (weights.w_lemma, weights.w_pos, weights.delete_cost) == (0.25, 0.1, 2.0)


def test_read_kv_config_rejects_bare_lines(tmp_path):
    config = tmp_path / "weights.cfg"
    config.write_text("w_lemma 0.25\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_kv_config(config)


def test_align_identity_is_all_matches():
    tokens = _annotated("a b c d")
    alignment = align(tokens, tokens)
    assert [op.kind for op in alignment.ops] == [OpKind.MATCH] * 4
    assert alignment.total_cost == 0.0


def test_align_empty_sides():
    tokens = _annotated("a b c")
    empty = _annotated("")
    assert [op.kind for op in align(empty, tokens).ops] == [OpKind.INS] * 3
    assert align(empty, tokens).total_cost == pytest.approx(3.0)
    assert [op.kind for op in align(tokens, empty).ops] == [OpKind.DEL] * 3
    assert align(empty, empty).ops == ()
    assert align(empty, empty).total_cost == 0.0


def test_align_adjacent_swap_uses_transposition():
    alignment = align(_annotated("a b"), _annotated("b a"))
    assert [op.kind for op in alignment.ops] == [OpKind.TRANS]
    assert alignment.ops[0] == AlignOp(OpKind.TRANS, 0, 2, 0, 2)
    assert alignment.total_cost == pytest.approx(1.1)


def test_align_transposition_needs_crosswise_equality():
    # "a b" vs "b c" has no crosswise pair, so no transposition applies
    alignment = align(_annotated("a b"), _annotated("b c"))
    assert OpKind.TRANS not in {op.kind for op in alignment.ops}


def test_align_tie_break_deletes_the_first_of_equal_tokens():
    alignment = align(_annotated("a a"), _annotated("a"))
    assert [op.kind for op in alignment.ops] == [OpKind.DEL, OpKind.MATCH]


def test_align_ops_tile_both_sequences():
    rng = random.Random(5)
    for _ in range(60):
        src_text, tgt_text = random_pair(rng, max_len=12)
        src, tgt = tokenize(src_text), tokenize(tgt_text)
        alignment = align(annotate(src), annotate(tgt))
        si = ti = 0
        for op in alignment.ops:
            assert (op.src_start, op.tgt_start) == (si, ti)
            si, ti = op.src_end, op.tgt_end
        assert (si, ti) == (len(src), len(tgt))


def test_align_matches_exhaustive_search_default_weights():
    rng = random.Random(17)
    symbols = ("cat", "cats", "act", ".")
    for _ in range(300):
        src = " ".join(rng.choice(symbols) for _ in range(rng.randint(0, 5)))
        tgt = " ".join(rng.choice(symbols) for _ in range(rng.randint(0, 5)))
        src_annot, tgt_annot = _annotated(src), _annotated(tgt)
        expected = exhaustive_min_cost(src_annot, tgt_annot, CostWeights())
        assert align(src_annot, tgt_annot).total_cost == expected


def test_align_matches_exhaustive_search_custom_weights():
    weights = CostWeights(
        w_lemma=0.3, w_pos=0.7, w_char=0.2,
        insert_cost=0.8, delete_cost=1.3, transpose_cost=1.6, sub_floor=0.05,
    )
    rng = random.Random(23)
    symbols = ("cat", "cats", "act", ".")
    for _ in range(200):
        src = " ".join(rng.choice(symbols) for _ in range(rng.randint(0, 5)))
        tgt = " ".join(rng.choice(symbols) for _ in range(rng.randint(0, 5)))
        src_annot, tgt_annot = _annotated(src), _annotated(tgt)
        expected = exhaustive_min_cost(src_annot, tgt_annot, weights)
        assert align(src_annot, tgt_annot, weights).total_cost == expected


CUSTOM_WEIGHTS = CostWeights(
    w_lemma=0.3, w_pos=0.7, w_char=0.2,
    insert_cost=0.8, delete_cost=1.3, transpose_cost=1.6, sub_floor=0.05,
)


def _edited(rng: random.Random, tokens: list, vocab: tuple, edits: int) -> list:
    """``tokens`` after random adjacent swaps, deletions, replacements and insertions."""
    out = list(tokens)
    for _ in range(edits):
        kind = rng.random()
        if kind < 0.3 and len(out) > 1:
            i = rng.randrange(len(out) - 1)
            out[i], out[i + 1] = out[i + 1], out[i]
        elif kind < 0.5 and out:
            del out[rng.randrange(len(out))]
        elif kind < 0.75 and out:
            out[rng.randrange(len(out))] = rng.choice(vocab)
        else:
            out.insert(rng.randint(0, len(out)), rng.choice(vocab))
    return out


def _differential_pairs(seed, count, vocab, max_len, max_edits, varied, shape="edited"):
    """Annotated (source, target) pairs. With ``varied``, a surface's
    annotation is drawn per occurrence, so equal surfaces need not be equal
    tokens. The ``shape`` decides how a target relates to its source:

    - ``edited``: edited from it, and one pair in ten unrelated;
    - ``front``: up to ``max_edits`` leading tokens rewritten, which puts the
      edits where a narrow band cannot reach them;
    - ``gap``: one side at most two tokens long;
    - ``disjoint``: no token in common, source and target drawn from
      alternate words of ``vocab``.
    """
    rng = random.Random(seed)
    naive = {word: NaiveProvider().annotate([word])[0] for word in vocab}
    variants = {word: (naive[word], AnnotatedToken(word, "x", "NOUN")) for word in vocab}

    def annotated(words):
        if varied:
            return tuple(rng.choice(variants[word]) for word in words)
        return tuple(naive[word] for word in words)

    def draw(words):
        return [rng.choice(words) for _ in range(rng.randint(0, max_len))]

    for _ in range(count):
        if shape == "disjoint":
            src, tgt = draw(vocab[::2]), draw(vocab[1::2])
        else:
            src = draw(vocab)
        if shape == "front":
            cut = rng.randint(0, min(len(src), max_edits))
            tgt = [rng.choice(vocab) for _ in range(rng.randint(0, max_edits))] + src[cut:]
        elif shape == "gap":
            short = [rng.choice(vocab) for _ in range(rng.randint(0, 2))]
            src, tgt = (src, short) if rng.random() < 0.5 else (short, src)
        elif shape == "edited":
            if rng.random() < 0.1:
                tgt = draw(vocab)
            else:
                tgt = _edited(rng, src, vocab, rng.randint(0, max_edits))
        yield annotated(src), annotated(tgt)


# insertions dearer than deletions, and the reverse with a transposition
# cheaper than the cheapest substitution
INSERT_HEAVY = CostWeights(insert_cost=1.7, delete_cost=0.6, transpose_cost=0.9, sub_floor=0.2)
DELETE_HEAVY = CostWeights(
    w_char=1.0, insert_cost=0.4, delete_cost=2.2, transpose_cost=0.05, sub_floor=0.3,
)
# no character discount, so the SUB lower bound is the cost itself; lemma and
# POS discounts that together reach below the floor; the floor at the base
# cost, so every SUB of different surfaces costs the same; and a transposition
# cheaper than the floor
NO_CHAR = CostWeights(w_char=0.0)
HEAVY_LEMMA_POS = CostWeights(w_lemma=1.3, w_pos=0.9)
FLOOR_AT_BASE = CostWeights(sub_floor=2.0)
CHEAP_TRANSPOSE = CostWeights(transpose_cost=0.3, sub_floor=0.5)


@pytest.mark.parametrize(
    ("seed", "count", "vocab", "max_len", "max_edits", "varied", "weights", "shape"),
    [
        (1, 35_000, ("a", "b"), 12, 4, False, None, "edited"),
        (2, 35_000, ("a", "b", "c", "d", "e"), 12, 4, False, None, "edited"),
        (3, 20_000, ("cat", "cats", "act", "Cat", "."), 12, 4, True, None, "edited"),
        (4, 10_000, VOCAB, 12, 4, False, CUSTOM_WEIGHTS, "edited"),
        (5, 3_000, VOCAB + tuple(f"w{i}" for i in range(40)), 40, 8, True, None, "edited"),
        (6, 3_000, ("a", "b", "c", "d", "e"), 16, 8, True, INSERT_HEAVY, "front"),
        (7, 1_000, VOCAB + tuple(f"w{i}" for i in range(40)), 40, 8, False, DELETE_HEAVY, "front"),
        (8, 1_500, VOCAB, 40, 0, True, INSERT_HEAVY, "gap"),
        (9, 600, VOCAB + tuple(f"w{i}" for i in range(40)), 40, 0, False, None, "disjoint"),
        (10, 5_000, ("a", "b", "c"), 12, 4, True, DELETE_HEAVY, "edited"),
        (11, 5_000, ("cat", "cats", "act", "Cat", "."), 12, 4, True, NO_CHAR, "edited"),
        (12, 5_000, ("cat", "cats", "act", "Cat", "."), 12, 4, True, HEAVY_LEMMA_POS, "edited"),
        (13, 5_000, ("cat", "cats", "act", "Cat", "."), 12, 4, True, FLOOR_AT_BASE, "edited"),
    ],
    ids=[
        "two-words", "five-words", "varied-annotations", "custom-weights", "up-to-40",
        "front-edits-insert-heavy", "front-edits-delete-heavy", "length-gap", "disjoint",
        "cheap-transpose", "no-char-weight", "heavy-lemma-pos", "floor-at-base",
    ],
)
def test_align_matches_reference_dp(
    seed, count, vocab, max_len, max_edits, varied, weights, shape
):
    mismatches = []
    pairs = _differential_pairs(seed, count, vocab, max_len, max_edits, varied, shape)
    for src, tgt in pairs:
        got, want = align(src, tgt, weights), reference_align(src, tgt, weights)
        if got != want or merge_ops(got) != reference_merge_ops(want):
            mismatches.append((src, tgt))
    assert mismatches == []


# Weights at which a float sum absorbs a whole transposition: a cell of a
# common prefix's rows then ties TRANS with the INS or DEL chain, and the
# tie-breaks there decide the ops.
ABSORBING = {
    "insert-1e17": CostWeights(insert_cost=1e17, transpose_cost=1e-17, sub_floor=1e-18),
    "delete-1e17": CostWeights(delete_cost=1e17, transpose_cost=1e-17, sub_floor=1e-18),
}


@pytest.mark.parametrize("weights", ABSORBING.values(), ids=ABSORBING)
def test_align_matches_reference_dp_at_absorbing_weights(weights):
    mismatches = []
    for seed, vocab in ((14, ("a", "b")), (15, ("a", "b", "c", "d", "e"))):
        for src, tgt in _differential_pairs(seed, 4_000, vocab, 12, 4, False):
            got, want = align(src, tgt, weights), reference_align(src, tgt, weights)
            if got != want or merge_ops(got) != reference_merge_ops(want):
                mismatches.append((src, tgt))
    assert mismatches == []


@pytest.mark.parametrize("length", [200, 450, 800])
def test_align_matches_reference_dp_on_long_pairs(length):
    rng = random.Random(length)
    vocab = VOCAB + tuple(f"w{i}" for i in range(30))
    words = [rng.choice(vocab) for _ in range(length)]
    src = annotate(tokenize(" ".join(words)))
    tgt = annotate(tokenize(" ".join(_edited(rng, words, vocab, length // 20))))
    got, want = align(src, tgt), reference_align(src, tgt)
    assert got == want
    assert merge_ops(got) == reference_merge_ops(want)


def _count_fill_rows(monkeypatch) -> list:
    """Record each ``_fill_rows`` call as ``(k, width, rows)``: the band's
    half-width, its cells per row, and the rows filled."""
    calls = []
    real_fill_rows = alignment_module._fill_rows

    def counting_fill_rows(*args):
        chain, lo, first, last = args[5:9]
        hi = lo + len(chain) - 2
        # lo = min(0, d) - k and hi = max(0, d) + k, so d = hi + lo
        calls.append(((hi - lo - abs(hi + lo)) // 2, hi - lo + 1, last - first + 1))
        return real_fill_rows(*args)

    monkeypatch.setattr(alignment_module, "_fill_rows", counting_fill_rows)
    return calls


def test_walk_fills_only_the_prefix_rows_it_visits(monkeypatch):
    calls = _count_fill_rows(monkeypatch)
    words = [f"w{i}" for i in range(200)]
    src, tgt = tokenize(" ".join(words)), tokenize(" ".join(words + ["new"]))
    script = extract_spans(src, tgt)
    # the band has no rows past the 200-token prefix; the walk's INS at its
    # end leaves the diagonal in row 200 only
    assert sum(rows for _, _, rows in calls) == 1
    assert script == reference_extract_spans(src, tgt)


def test_a_many_edit_pair_fills_its_band_in_one_pass(monkeypatch):
    # 9 of 60 words replaced by words the source lacks: the pair costs 10.9, so
    # k = 1 fails the band test and k = 5 passes it, and the start sized from
    # the 9 unmatched words (k = 7) passes at once
    words = [f"w{i}" for i in range(60)]
    edited = [f"x{i}" if i % 7 == 3 else word for i, word in enumerate(words)]
    src, tgt = _annotated(" ".join(words)), _annotated(" ".join(edited))
    weights = alignment_module.DEFAULT_WEIGHTS
    calls = _count_fill_rows(monkeypatch)
    total = alignment_module._fill_band(src, tgt, weights)[3]
    assert [k for k, _, _ in calls] == [7]
    assert align(src, tgt) == reference_align(src, tgt)
    # with the start not sized, or sized past a budget that the k = 5 band
    # (61 rows of 11 cells) fits, the fill starts at k = 1 and steps up
    for name, value in (("_START_ROWS", len(words)), ("MAX_BAND_CELLS", 61 * 11)):
        with monkeypatch.context() as patch:
            patch.setattr(alignment_module, name, value)
            calls.clear()
            assert alignment_module._fill_band(src, tgt, weights)[3] == total
            assert [k for k, _, _ in calls] == [1, 5]
    # at the default weights the start is 1 + 3u // 4 for u unmatched words,
    # also where 3u / 4 is whole and a ratio rounded down would lose one
    for u, start in ((4, 4), (8, 7)):
        edited = [f"x{i}" if i % 7 == 3 and i < 7 * u else word for i, word in enumerate(words)]
        calls.clear()
        alignment_module._fill_band(src, _annotated(" ".join(edited)), weights)
        assert calls[0][0] == start


# the discounts reach below the floor, so a SUB of case variants costs 1e-4
FLOOR_SUB = CostWeights(w_lemma=1, w_pos=1, sub_floor=1e-4)


def _case_variant_pair(count: int):
    """Distinct 3-letter words, capitalized against their last letter raised
    (``Aab`` against ``aaB``): no surface matches, but lemmas and POS agree."""
    letters = itertools.product(string.ascii_lowercase, repeat=3)
    words = ["".join(word) for word in itertools.islice(letters, count)]
    return (tokenize(" ".join(word.capitalize() for word in words)),
            tokenize(" ".join(word[:2] + word[2].upper() for word in words)))


def test_start_band_stays_capped_when_every_word_is_unmatched(monkeypatch):
    # every word is unmatched, yet k = 1 passes: an uncapped start would be
    # the whole table, quadratic in the length
    src, tgt = _case_variant_pair(500)
    script = extract_spans(src, tgt, weights=FLOOR_SUB)
    assert script == reference_extract_spans(src, tgt, weights=FLOOR_SUB)
    src_annot, tgt_annot = annotate(src), annotate(tgt)
    want = reference_align(src_annot, tgt_annot, FLOOR_SUB)
    assert align(src_annot, tgt_annot, FLOOR_SUB) == want
    assert script.spans == (EditSpan(0, 500, tgt.surfaces),)
    src, tgt = _case_variant_pair(2000)
    calls = _count_fill_rows(monkeypatch)
    script = extract_spans(src, tgt, weights=FLOOR_SUB)
    assert script.spans == (EditSpan(0, 2000, tgt.surfaces),)
    # one pass, of a constant number of cells per row: a SUB costs 1e-4, so the
    # 2,000 unmatched words ask for no start wider than k = 1
    cap = alignment_module._START_CAP
    assert [(k, rows) for k, _, rows in calls] == [(1, 2000)]
    assert sum(width * rows for _, width, rows in calls) <= (2 * cap + 1) * 2000


def _random_weights(rng: random.Random) -> CostWeights:
    """Random weights; in three draws in ten the discounts reach a small floor,
    so every SUB is cheap and a narrow band passes whatever the edits."""
    ins, dele = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
    cheap = rng.random() < 0.3
    top = ins + dele if cheap else (ins + dele) / 3
    return CostWeights(
        w_lemma=rng.uniform(0, top), w_pos=rng.uniform(0, top), w_char=rng.uniform(0, top),
        insert_cost=ins, delete_cost=dele, transpose_cost=rng.uniform(0.05, 2 * (ins + dele)),
        sub_floor=rng.uniform(1e-4, 0.01) if cheap else rng.uniform(0.01, ins + dele),
    )


def _start_band_pairs(seed: int, count: int):
    """(source, target, provider, weights) of 12 to 40 tokens, with 3 to 12
    substitutions, insertions, deletions and adjacent swaps over a tie-heavy
    vocabulary and words the source lacks. In one pair in five the target
    keeps at most 7 of the source's 12 to 19 tokens, so the short side is
    narrower than the start the window's words ask for. In one in five the
    edits replace tokens by words the source lacks, which can ask for a
    start past the cap. Every fourth pair comes again at the default weights,
    which the start's size per unmatched word is calibrated on."""
    rng = random.Random(seed)
    vocab = ("a", "b", "c", "ab", "a.")
    fresh = tuple(f"n{i}" for i in range(24))
    for draw in range(count):
        shape = rng.random()
        if shape < 0.2:
            src = [rng.choice(vocab + fresh) for _ in range(rng.randint(12, 19))]
            tgt = list(src)
            for _ in range(rng.randint(len(src) - 7, 12)):
                del tgt[rng.randrange(len(tgt))]
        elif shape < 0.4:
            src = [rng.choice(vocab) for _ in range(rng.randint(12, 40))]
            tgt = list(src)
            for i in rng.sample(range(len(src)), rng.randint(3, 12)):
                tgt[i] = rng.choice(fresh)
        else:
            src = [rng.choice(vocab) for _ in range(rng.randint(12, 40))]
            tgt = _edited(rng, src, vocab + fresh[:8], rng.randint(3, 12))
        src, tgt = tokenize(" ".join(src)), tokenize(" ".join(tgt))
        # lemmas and tags drawn per sentence, so equal surfaces need not agree
        provider = SidecarProvider({
            sentence.surfaces: tuple(
                AnnotatedToken(s, rng.choice(("x", s.lower())), rng.choice(("NOUN", "VERB")))
                for s in sentence.surfaces
            )
            for sentence in (src, tgt)
        })
        yield src, tgt, provider, _random_weights(rng)
        if draw % 4 == 0:
            yield src, tgt, provider, alignment_module.DEFAULT_WEIGHTS


def test_align_matches_reference_dp_from_every_kind_of_start(monkeypatch):
    calls = _count_fill_rows(monkeypatch)
    starts = dict.fromkeys(("too narrow", "exact", "too wide", "capped", "whole table"), 0)
    mismatches = []
    for src, tgt, provider, w in _start_band_pairs(20, 3_000):
        src_annot, tgt_annot = annotate(src, provider), annotate(tgt, provider)
        calls.clear()
        _, n, m, total = alignment_module._fill_band(src_annot, tgt_annot, w)
        k = calls[0][0]
        if k > 1:
            # the test the first band would fail at k - 1 against this total
            d = m - n
            gap = d * w.insert_cost if d >= 0 else -d * w.delete_cost
            narrower = gap + k * (w.insert_cost + w.delete_cost) > total * (1 + 1e-6)
            if k == min(n, m):
                starts["whole table"] += 1
            elif k == alignment_module._START_CAP:
                starts["capped"] += 1
            elif len(calls) > 1:
                starts["too narrow"] += 1
            else:
                starts["too wide" if narrower else "exact"] += 1
        got, want = align(src_annot, tgt_annot, w), reference_align(src_annot, tgt_annot, w)
        if got != want or extract_spans(src, tgt, provider, w) != reference_extract_spans(
            src, tgt, provider, w
        ):
            mismatches.append((src, tgt, w))
    assert mismatches == []
    assert sum(starts.values()) >= 2_000, starts
    assert min(starts.values()) >= 50, starts


def test_align_raises_before_filling_a_band_past_the_budget(monkeypatch):
    src, tgt = _annotated("a b c d e"), _annotated("v w x y z")
    monkeypatch.setattr(alignment_module, "MAX_BAND_CELLS", 17)
    # the first band (k = 1) spans 6 rows of at most 3 cells
    with pytest.raises(DataError, match="5 x 5 tokens needs a band of 18 cells"):
        align(src, tgt)
    monkeypatch.setattr(alignment_module, "MAX_BAND_CELLS", 18)
    # the disjoint pair needs a second band, here the whole table
    with pytest.raises(DataError, match="a band of 36 cells, more than the budget of 18"):
        align(src, tgt)
    monkeypatch.setattr(alignment_module, "MAX_BAND_CELLS", 36)
    assert align(src, tgt) == reference_align(src, tgt)


def test_align_memory_grows_with_the_band_not_the_table():
    rng = random.Random(3)
    vocab = [f"w{i}" for i in range(2000)]
    words = [rng.choice(vocab) for _ in range(800)]
    edited = list(words)
    for _ in range(5):
        edited[rng.randrange(800)] = rng.choice(vocab)
    src, tgt = annotate(tokenize(" ".join(words))), annotate(tokenize(" ".join(edited)))
    align(src, tgt)  # fill the character-distance cache first
    tracemalloc.start()
    try:
        align(src, tgt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an n x m table of backpointers alone takes 8 bytes a cell
    assert peak < 801 * 801 * 8 / 10


def test_extract_keeps_no_cost_table_on_unrelated_pairs():
    # no token in common, so the band is the whole 201 x 201 table: its
    # backpointer rows take about 0.35 MB, and a stored cost per token pair
    # would add several times that
    rng = random.Random(7)
    src = tokenize(" ".join(f"s{rng.randrange(1000)}" for _ in range(200)))
    tgt = tokenize(" ".join(f"t{rng.randrange(1000)}" for _ in range(200)))
    weights = CostWeights(w_char=0.0)
    script = extract_spans(src, tgt, weights=weights)  # fill the annotation cache first
    tracemalloc.start()
    try:
        assert extract_spans(src, tgt, weights=weights) == script
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_merge_coalesces_sub_plus_ins():
    alignment = align(_annotated("x are y"), _annotated("x have been y"))
    merged = merge_ops(alignment)
    assert [op.kind for op in merged] == [OpKind.MATCH, OpKind.SUB, OpKind.MATCH]
    middle = merged[1]
    assert (middle.src_start, middle.src_end) == (1, 2)
    assert (middle.tgt_start, middle.tgt_end) == (1, 3)


def test_merge_coalesces_adjacent_deletions():
    alignment = align(_annotated("a b c d"), _annotated("a d"))
    merged = merge_ops(alignment)
    assert [op.kind for op in merged] == [OpKind.MATCH, OpKind.DEL, OpKind.MATCH]
    assert (merged[1].src_start, merged[1].src_end) == (1, 3)


def test_merge_classifies_pure_insertion_runs():
    alignment = align(_annotated("a d"), _annotated("a b c d"))
    merged = merge_ops(alignment)
    assert [op.kind for op in merged] == [OpKind.MATCH, OpKind.INS, OpKind.MATCH]
    assert (merged[1].src_start, merged[1].src_end) == (1, 1)
    assert (merged[1].tgt_start, merged[1].tgt_end) == (1, 3)


def test_merge_preserves_matches_and_tiling():
    rng = random.Random(11)
    for _ in range(60):
        src_text, tgt_text = random_pair(rng, max_len=12)
        src, tgt = tokenize(src_text), tokenize(tgt_text)
        alignment = align(annotate(src), annotate(tgt))
        merged = merge_ops(alignment)
        raw_matches = sum(op.kind is OpKind.MATCH for op in alignment.ops)
        merged_matches = sum(op.kind is OpKind.MATCH for op in merged)
        assert raw_matches == merged_matches
        assert len(merged) <= len(alignment.ops)
        si = ti = 0
        for op in merged:
            assert (op.src_start, op.tgt_start) == (si, ti)
            si, ti = op.src_end, op.tgt_end
        assert (si, ti) == (len(src), len(tgt))
        # maximality: merged edits never sit next to each other
        for a, b in zip(merged, merged[1:]):
            assert a.kind is OpKind.MATCH or b.kind is OpKind.MATCH


def _extraction_pairs(rng: random.Random, count: int):
    """Sentence pairs over tie-heavy vocabularies of two to four words, in the
    shapes the span walk handles apart: identical, one side empty, edits only
    at the start or only at the end, crosswise swaps, and random edits."""
    vocabs = (("a", "b"), ("a", "b", "ab"), ("the", "then", "he", "."),
              ("cat", "cats", "Cat", "act"))
    for _ in range(count):
        vocab = rng.choice(vocabs)
        src = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        fresh = [rng.choice(vocab) for _ in range(rng.randint(0, 3))]
        cut = rng.randint(0, min(3, len(src)))
        shape = rng.randrange(6)
        if shape == 0:
            tgt = list(src)
        elif shape == 1:
            tgt = []
        elif shape == 2:
            tgt = fresh + src[cut:]
        elif shape == 3:
            tgt = src[:len(src) - cut] + fresh
        elif shape == 4:
            tgt = list(src)
            for _ in range(rng.randint(1, 3)):
                if len(tgt) > 1:
                    i = rng.randrange(len(tgt) - 1)
                    tgt[i], tgt[i + 1] = tgt[i + 1], tgt[i]
        else:
            tgt = _edited(rng, src, vocab, rng.randint(1, 4))
        if rng.random() < 0.5:
            src, tgt = tgt, src
        yield tokenize(" ".join(src)), tokenize(" ".join(tgt))


@pytest.mark.parametrize("provider", ["naive", "sidecar"])
@pytest.mark.parametrize(
    ("seed", "weights"),
    [(1, None), (2, NO_CHAR), (3, HEAVY_LEMMA_POS), (4, FLOOR_AT_BASE), (5, CHEAP_TRANSPOSE)],
    ids=["default", "no-char-weight", "heavy-lemma-pos", "floor-at-base", "cheap-transpose"],
)
def test_extract_spans_matches_merged_alignment(seed, weights, provider):
    rng = random.Random(seed)
    pairs = list(_extraction_pairs(rng, 4_000))
    if provider == "naive":
        provider = NaiveProvider()
    else:
        # lemmas and tags drawn per sentence, so equal surfaces need not agree
        provider = SidecarProvider({
            sentence.surfaces: tuple(
                AnnotatedToken(s, rng.choice(("x", "y", s.lower())), rng.choice(("NOUN", "VERB")))
                for s in sentence.surfaces
            )
            for pair in pairs for sentence in pair
        })
    mismatches = [
        (src, tgt) for src, tgt in pairs
        if extract_spans(src, tgt, provider, weights)
        != reference_extract_spans(src, tgt, provider, weights)
    ]
    assert mismatches == []


def test_extract_insert_replace_delete_reference_pair():
    script = extract_spans(tokenize(SCHOLARS_SRC), tokenize(SCHOLARS_TGT))
    assert script.source_len == 15
    assert script.spans == (
        EditSpan(1, 1, ("the",)),
        EditSpan(8, 9, ("have", "been")),
        EditSpan(12, 13, ()),
    )


def test_extract_single_insertion_reference_pair():
    script = extract_spans(tokenize(CASH_SRC), tokenize(CASH_TGT))
    assert script.spans == (EditSpan(4, 4, ("need",)),)


def test_extract_merges_replacement_with_deletion():
    script = extract_spans(tokenize(PRIVACY_SRC), tokenize(PRIVACY_TGT))
    assert script.spans == (EditSpan(7, 9, ("invading",)),)


def test_extract_identity_pair_is_empty():
    sent = tokenize("nothing changes here .")
    assert extract_spans(sent, sent).spans == ()


def test_extract_is_deterministic():
    src, tgt = tokenize(SCHOLARS_SRC), tokenize(SCHOLARS_TGT)
    assert extract_spans(src, tgt) == extract_spans(src, tgt)


_sentences = st.lists(st.sampled_from(VOCAB), min_size=0, max_size=10).map(
    lambda surfaces: tokenize(" ".join(surfaces))
)


@given(src=_sentences, tgt=_sentences)
@settings(deadline=None, max_examples=200)
def test_extract_apply_roundtrip_property(src, tgt):
    script = extract_spans(src, tgt)
    assert apply_edits(script, src).surfaces == tgt.surfaces


@given(src=_sentences, tgt=_sentences)
@settings(deadline=None, max_examples=100)
def test_extracted_spans_are_well_formed(src, tgt):
    script = extract_spans(src, tgt)
    assert script.source_len == len(src)
    for span in script.spans:
        assert 0 <= span.start <= span.end <= len(src)
        assert span.replacement or span.start < span.end
    for a, b in zip(script.spans, script.spans[1:]):
        assert a.end <= b.start and a.start < b.start
