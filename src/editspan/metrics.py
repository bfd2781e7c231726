"""Compression, span-format agreement, and edit-level F0.5 scoring."""

from __future__ import annotations

from typing import Iterable, Optional

from editspan._value import Value
from editspan.alignment import CostWeights, _extract_annotated, canonicalize
from editspan.codec import EditScript, apply_edits, parse
from editspan.errors import BudgetError, DataError
from editspan.text import Sentence, annotate


class CompressionStat(Value):
    """How compact a serialized script is relative to its target sentence.

    Token counts are whitespace tokens of the serialized string, so the empty
    script (``None``) counts as one.
    """

    def __init__(self, span_tokens: int, target_tokens: int) -> None:
        self.__dict__.update(span_tokens=span_tokens, target_tokens=target_tokens)

    @property
    def ratio(self) -> float:
        return self.span_tokens / max(self.target_tokens, 1)


def compression(span_text: str, target: Sentence) -> CompressionStat:
    """Measure serialized span text against the plain target sentence."""
    return CompressionStat(len(span_text.split()), len(target))


class EditScore(Value):
    """Span-level precision, recall, and F0.5 from exact (start, end, replacement) matches."""

    def __init__(self, tp: int, fp: int, fn: int) -> None:
        self.__dict__.update(tp=tp, fp=fp, fn=fn)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0

    @property
    def f05(self) -> float:
        precision, recall = self.precision, self.recall
        denom = 0.25 * precision + recall
        return 1.25 * precision * recall / denom if denom else 0.0


def edit_f05(hyp: EditScript, gold: EditScript) -> EditScore:
    """Score hypothesis spans against gold spans by exact tuple equality."""
    if hyp.source_len != gold.source_len:
        raise DataError(
            f"scripts disagree on source length: {hyp.source_len} vs {gold.source_len}"
        )
    hyp_set, gold_set = set(hyp.spans), set(gold.spans)
    return EditScore(
        tp=len(hyp_set & gold_set),
        fp=len(hyp_set - gold_set),
        fn=len(gold_set - hyp_set),
    )


def agreement(
    hyp: EditScript,
    src: Sentence,
    provider=None,
    weights: Optional[CostWeights] = None,
) -> bool:
    """True iff ``hyp`` is exactly what extraction would produce for its own effect.

    A hypothesis whose result is past the alignment budget, such as a
    repetition loop, does not agree, as in ``pair_stats``.
    """
    try:
        return hyp.spans == canonicalize(hyp, src, provider, weights).spans
    except BudgetError:
        return False


class PairStats(Value):
    """Per-pair scoring facts; corpus stats reduce over these.

    ``over_budget`` marks a hypothesis whose result was too long to align
    within ``MAX_BAND_CELLS``; such a pair does not agree.
    """

    def __init__(
        self,
        agree: bool,
        ratio: float,
        tp: int,
        fp: int,
        fn: int,
        ignored: int,
        over_budget: bool = False,
    ) -> None:
        self.__dict__.update(
            agree=agree, ratio=ratio, tp=tp, fp=fp, fn=fn, ignored=ignored,
            over_budget=over_budget,
        )


def pair_stats(
    src: Sentence,
    hyp_text: str,
    gold: Sentence,
    provider=None,
    weights: Optional[CostWeights] = None,
) -> PairStats:
    """Score one (source, hypothesis span text, gold target) triple.

    The source is annotated once for both extractions, and a hypothesis that
    rewrites the source into the gold target reuses the gold script as its
    canonical form instead of aligning the same pair again. A hypothesis whose
    result is past the alignment budget, such as a repetition loop, is model
    output rather than corpus: it is counted as not agreeing, where a gold
    target past the budget raises ``BudgetError``.
    """
    report = parse(hyp_text, len(src))
    src_annot = annotate(src, provider)
    gold_script = _extract_annotated(src_annot, gold, provider, weights)
    score = edit_f05(report.script, gold_script)
    produced = apply_edits(report.script, src)
    if produced.surfaces == gold.surfaces:
        canonical = gold_script
    else:
        try:
            canonical = _extract_annotated(src_annot, produced, provider, weights)
        except BudgetError:
            canonical = None
    return PairStats(
        agree=canonical is not None and report.script.spans == canonical.spans,
        ratio=compression(hyp_text, gold).ratio,
        tp=score.tp,
        fp=score.fp,
        fn=score.fn,
        ignored=report.ignored,
        over_budget=canonical is None,
    )


def reduce_stats(stats: Iterable[PairStats]) -> dict:
    """Aggregate per-pair stats into the corpus score report.

    Precision, recall, and F0.5 are micro-averaged over global edit counts.
    """
    pairs = 0
    agree = 0
    ignored = 0
    ratio_sum = 0.0
    tp = fp = fn = 0
    for stat in stats:
        pairs += 1
        agree += stat.agree
        ignored += stat.ignored
        ratio_sum += stat.ratio
        tp += stat.tp
        fp += stat.fp
        fn += stat.fn
    score = EditScore(tp, fp, fn)
    return {
        "pairs": pairs,
        "agreement_rate": agree / pairs if pairs else 0.0,
        "mean_ratio": ratio_sum / pairs if pairs else 0.0,
        "precision": score.precision,
        "recall": score.recall,
        "f05": score.f05,
        "ignored_fragments": ignored,
    }
