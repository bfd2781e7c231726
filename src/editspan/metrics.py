"""Compression, span-format agreement, and edit-level F0.5 scoring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from editspan.alignment import CostWeights, _extract_annotated, canonicalize
from editspan.codec import EditScript, apply_edits, parse
from editspan.errors import DataError
from editspan.text import Sentence, annotate


@dataclass(frozen=True)
class CompressionStat:
    """How compact a serialized script is relative to its target sentence.

    Token counts are whitespace tokens of the serialized string, so the empty
    script (``None``) counts as one.
    """

    span_tokens: int
    target_tokens: int

    @property
    def ratio(self) -> float:
        return self.span_tokens / max(self.target_tokens, 1)


def compression(span_text: str, target: Sentence) -> CompressionStat:
    """Measure serialized span text against the plain target sentence."""
    return CompressionStat(len(span_text.split()), len(target))


@dataclass(frozen=True)
class EditScore:
    """Span-level precision, recall, and F0.5 from exact (start, end, replacement) matches."""

    tp: int
    fp: int
    fn: int

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
    """True iff ``hyp`` is exactly what extraction would produce for its own effect."""
    return hyp.spans == canonicalize(hyp, src, provider, weights).spans


@dataclass(frozen=True)
class PairStats:
    """Per-pair scoring facts; corpus stats reduce over these."""

    agree: bool
    ratio: float
    tp: int
    fp: int
    fn: int
    ignored: int


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
    canonical form instead of aligning the same pair again.
    """
    report = parse(hyp_text, len(src))
    src_annot = annotate(src, provider)
    gold_script = _extract_annotated(src_annot, gold, provider, weights)
    score = edit_f05(report.script, gold_script)
    produced = apply_edits(report.script, src)
    if produced.surfaces == gold.surfaces:
        canonical = gold_script
    else:
        canonical = _extract_annotated(src_annot, produced, provider, weights)
    return PairStats(
        agree=report.script.spans == canonical.spans,
        ratio=compression(hyp_text, gold).ratio,
        tp=score.tp,
        fp=score.fp,
        fn=score.fn,
        ignored=report.ignored,
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
