"""Compression, agreement, and edit-level F0.5."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from conftest import (
    CASH_SPANS,
    CASH_SRC,
    CASH_TGT,
    PRIVACY_CANONICAL,
    PRIVACY_SPLIT,
    PRIVACY_SRC,
    PRIVACY_TGT,
    SCHOLARS_SRC,
    SCHOLARS_TGT,
    random_pairs,
)
from editspan import alignment
from editspan.alignment import extract_spans
from editspan.codec import EditScript, EditSpan, parse, serialize
from editspan.errors import BudgetError, DataError
from editspan.metrics import (
    CompressionStat,
    EditScore,
    PairStats,
    agreement,
    compression,
    edit_f05,
    pair_stats,
    reduce_stats,
)
from editspan.text import NaiveProvider, tokenize
from reference import reference_edit_score, reference_pair_stats


def test_compression_single_insertion_reference_pair():
    stat = compression(CASH_SPANS, tokenize(CASH_TGT))
    assert stat.span_tokens == 3
    assert stat.target_tokens == 23
    assert stat.ratio == 3 / 23


def test_compression_none_counts_as_one_token():
    stat = compression("None", tokenize("a b c d e f g h i j"))
    assert stat.span_tokens == 1
    assert stat.ratio == pytest.approx(0.1)


def test_compression_empty_target_guard():
    stat = compression("None", tokenize(""))
    assert stat.target_tokens == 0
    assert stat.ratio == 1.0


def test_empty_script_serialization_is_minimal():
    target = tokenize("a b c d e")
    empty_ratio = compression(serialize(EditScript((), 5)), target).ratio
    for other in ("0 1", "0 1 x", "2 2 word"):
        assert empty_ratio < compression(other, target).ratio


def test_edit_score_reference_counts():
    score = EditScore(tp=2, fp=0, fn=1)
    assert score.precision == 1.0
    assert score.recall == pytest.approx(2 / 3)
    assert score.f05 == pytest.approx(10 / 11)
    assert score.f05 == pytest.approx(0.909, abs=5e-4)


def test_edit_score_degenerate_cases():
    perfect = EditScore(0, 0, 0)
    assert (perfect.precision, perfect.recall, perfect.f05) == (1.0, 1.0, 1.0)

    no_hyp = EditScore(0, 0, 2)
    assert no_hyp.precision == 1.0
    assert no_hyp.recall == 0.0
    assert no_hyp.f05 == 0.0

    no_gold = EditScore(0, 2, 0)
    assert no_gold.precision == 0.0
    assert no_gold.recall == 1.0
    assert no_gold.f05 == 0.0

    disjoint = EditScore(0, 1, 1)
    assert (disjoint.precision, disjoint.recall, disjoint.f05) == (0.0, 0.0, 0.0)


def test_computed_rates_match_reference_bit_for_bit():
    counts = range(12)
    for tp in counts:
        for fp in counts:
            for fn in counts:
                score = EditScore(tp, fp, fn)
                rates = (score.precision, score.recall, score.f05)
                assert rates == reference_edit_score(tp, fp, fn), (tp, fp, fn)
    for span_tokens in counts:
        for target_tokens in counts:
            stat = CompressionStat(span_tokens, target_tokens)
            assert stat.ratio == span_tokens / max(target_tokens, 1)


def test_edit_f05_counts_exact_span_matches():
    gold = EditScript(
        (EditSpan(1, 1, ("the",)), EditSpan(8, 9, ("have", "been")), EditSpan(12, 13, ())),
        15,
    )
    hyp = EditScript((EditSpan(1, 1, ("the",)), EditSpan(8, 9, ("have", "been"))), 15)
    score = edit_f05(hyp, gold)
    assert (score.tp, score.fp, score.fn) == (2, 0, 1)
    assert score.f05 == pytest.approx(10 / 11)


def test_edit_f05_swap_swaps_precision_and_recall():
    a = EditScript((EditSpan(0, 1, ("x",)), EditSpan(3, 3, ("y",))), 5)
    b = EditScript((EditSpan(0, 1, ("x",)),), 5)
    forward, backward = edit_f05(a, b), edit_f05(b, a)
    assert forward.precision == backward.recall
    assert forward.recall == backward.precision


def test_edit_f05_subset_hypothesis_has_perfect_precision():
    gold = EditScript((EditSpan(0, 1, ("x",)), EditSpan(2, 3, ())), 5)
    hyp = EditScript((EditSpan(2, 3, ()),), 5)
    assert edit_f05(hyp, gold).precision == 1.0


def test_edit_f05_source_length_mismatch():
    with pytest.raises(DataError):
        edit_f05(EditScript((), 3), EditScript((), 4))


def test_agreement_reference_scripts():
    src = tokenize(PRIVACY_SRC)
    canonical = parse(PRIVACY_CANONICAL, len(src)).script
    split = parse(PRIVACY_SPLIT, len(src)).script
    assert agreement(canonical, src) is True
    assert agreement(split, src) is False


def test_agreement_empty_script_on_unchanged_sentence():
    src = tokenize("all good here .")
    assert agreement(EditScript((), len(src)), src) is True


def test_pair_stats_and_score_corpus_hand_computed():
    rows = [
        (tokenize("a b c"), "None", tokenize("a b c")),
        (tokenize("a b c"), "1 2 x", tokenize("a x c")),
        (tokenize("a b c d"), "0 1, 1 2 b", tokenize("a b c")),
    ]
    first = pair_stats(*rows[0])
    assert (first.agree, first.ratio, first.tp, first.fp, first.fn) == (
        True, 1 / 3, 0, 0, 0,
    )
    second = pair_stats(*rows[1])
    assert (second.agree, second.ratio, second.tp) == (True, 1.0, 1)

    third = pair_stats(*rows[2])
    assert third.agree is False
    assert third.ratio == pytest.approx(5 / 3)
    assert (third.tp, third.fp, third.fn) == (0, 2, 1)

    report = reduce_stats(pair_stats(*row) for row in rows)
    assert report["pairs"] == 3
    assert report["agreement_rate"] == pytest.approx(2 / 3)
    assert report["mean_ratio"] == pytest.approx(1.0)
    assert report["precision"] == pytest.approx(1 / 3)
    assert report["recall"] == pytest.approx(1 / 2)
    assert report["f05"] == pytest.approx(5 / 14)
    assert report["ignored_fragments"] == 0
    assert list(report) == [
        "pairs", "agreement_rate", "mean_ratio",
        "precision", "recall", "f05", "ignored_fragments",
    ]


def _noisy_hypotheses(rng: random.Random, src, gold, other) -> list[str]:
    """Span lines a model might emit for ``src``: the gold spans, shifted,
    split, malformed, out of range, empty, looped, and another pair's spans."""
    gold_text = serialize(extract_spans(src, gold))
    spans = parse(gold_text, len(src)).script.spans
    shifted = [(s.start + 1, s.end + 1, s.replacement) for s in spans]
    split = []
    for s in spans:
        if s.end - s.start > 1:
            split += [(s.start, s.start + 1, s.replacement), (s.start + 1, s.end, ())]
        else:
            split.append((s.start, s.end, s.replacement))

    def line(fragments):
        return ", ".join(" ".join((str(a), str(b), *r)) for a, b, r in fragments) or "None"

    n = len(src)
    return [
        gold_text,
        line(shifted),
        line(split),
        "banana, " + gold_text,
        f"{n + 3} {n + 5} x, " + gold_text,
        "None",
        ", ".join([gold_text] * rng.randint(2, 5)),
        other,
    ]


def test_pair_stats_matches_reference():
    pairs = [(SCHOLARS_SRC, SCHOLARS_TGT), (CASH_SRC, CASH_TGT), (PRIVACY_SRC, PRIVACY_TGT)]
    pairs += random_pairs(seed=8, count=300, max_len=20)
    rng = random.Random(8)
    checked = 0
    for src_text, tgt_text in pairs:
        src, gold = tokenize(src_text), tokenize(tgt_text)
        other_src, other_tgt = rng.choice(pairs)
        other = serialize(extract_spans(tokenize(other_src), tokenize(other_tgt)))
        for hyp in _noisy_hypotheses(rng, src, gold, other):
            assert pair_stats(src, hyp, gold) == reference_pair_stats(src, hyp, gold), hyp
            checked += 1
    assert checked == 8 * len(pairs)


@dataclass
class _CountingProvider:
    name: str = "counting"
    calls: int = 0

    def annotate(self, surfaces):
        self.calls += 1
        return NaiveProvider().annotate(surfaces)


def test_pair_stats_annotates_the_source_once_and_reuses_the_gold_script():
    src, gold = tokenize(SCHOLARS_SRC), tokenize(SCHOLARS_TGT)
    provider = _CountingProvider()
    stats = pair_stats(src, serialize(extract_spans(src, gold)), gold, provider)
    assert (stats.agree, stats.fp, stats.fn) == (True, 0, 0)
    assert provider.calls == 2  # source and gold target
    provider.calls = 0
    stats = pair_stats(src, "0 1", gold, provider)
    assert stats.agree is True
    assert provider.calls == 3  # source, gold target, and the hypothesis's result


def test_pair_stats_counts_a_hypothesis_past_the_budget_as_not_agreeing(monkeypatch):
    src, gold = tokenize("a b c"), tokenize("a b c d")
    # "a b c d" needs a first band of 4 x 4 cells; "a b c x x x x x x" needs 4 x 9
    monkeypatch.setattr(alignment, "MAX_BAND_CELLS", 16)
    stats = pair_stats(src, "3 3 x x x x x x", gold)
    assert stats == PairStats(
        agree=False, ratio=8 / 4, tp=0, fp=1, fn=1, ignored=0, over_budget=True
    )
    assert pair_stats(src, "3 3 d", gold).over_budget is False
    # a gold target past the budget is the corpus's, so it stays an error
    with pytest.raises(BudgetError, match="3 x 9 tokens needs a band of 36 cells"):
        pair_stats(src, "None", tokenize("a b c x x x x x x"))


def test_agreement_counts_a_hypothesis_past_the_budget_as_not_agreeing():
    # a 60,000-token repetition loop appended to a 20-token source
    src = tokenize(" ".join(f"w{i}" for i in range(20)))
    hyp_text = "20 20 " + "x " * 60000
    report = parse(hyp_text, 20)
    assert report.ignored == 0
    assert agreement(report.script, src) is False
    stats = pair_stats(src, hyp_text, tokenize(" ".join(src.surfaces) + " x"))
    assert (stats.agree, stats.over_budget) == (False, True)
    # within the budget the rule is unchanged
    assert agreement(parse("20 20 x", 20).script, src) is True


def test_score_corpus_counts_ignored_fragments():
    rows = [(tokenize("a b"), "banana, 0 1 x", tokenize("x b"))]
    report = reduce_stats(pair_stats(*row) for row in rows)
    assert report["ignored_fragments"] == 1
    assert report["precision"] == 1.0


def test_score_corpus_empty():
    report = reduce_stats([])
    assert report["pairs"] == 0
    assert report["agreement_rate"] == 0.0
