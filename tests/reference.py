"""Reference implementations the library's fast paths are checked against.

Each function here is the plain, obviously-correct version of something
``src/editspan`` now does faster: the full alignment dynamic program with no
trimming, band or cost cache, the substitution cost through a similarity helper
and ``char_levenshtein``, the SUB pricing with its cut-off that the band fill
does inline, the merge of edit runs through a run buffer, span
extraction through per-token ops and ``merge_ops``, the two-row character
Levenshtein, the naive provider that classifies a surface character by character
and builds a fresh token for every surface, the comma-by-comma fragment split,
the scan-order parse that tests each fragment against every accepted span,
``pair_stats`` that annotates every sentence and aligns twice, the edit-score
rates computed together in one function, the dataset mix that samples the
record lists themselves, and the sidecar loader that keeps every row and builds
a fresh token tuple on each lookup. Tests require the library to give identical
results.

The rest are oracles built on the library's own extraction, parse and apply:
``canonicalize`` and ``agreement``, the general form of ``pair_stats``'s
agreement rule, and ``validate_dataset``, which checks the records a dataset
build wrote.
"""

from __future__ import annotations

import random
import re
import unicodedata
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from editspan._value import Value
from editspan.alignment import (
    AlignOp,
    Alignment,
    CostWeights,
    DEFAULT_WEIGHTS,
    OpKind,
    align,
    char_levenshtein,
    extract_spans,
    merge_ops,
)
from editspan.codec import EditScript, EditSpan, ParseReport, apply_edits, parse
from editspan.dataset import DatasetRecord, MixSpec
from editspan.errors import BudgetError, DataError
from editspan.metrics import PairStats, compression, edit_f05
from editspan.tasks import TASK_INSTRUCTIONS
from editspan.text import (
    AnnotatedToken,
    Sentence,
    annotate,
    detokenize,
    normalize_pos,
    read_lines,
    tokenize,
)


def reference_char_distance(a: str, b: str) -> int:
    """Two-row Levenshtein over characters."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        previous = current
    return previous[-1]


def reference_char_class(surface: str) -> str:
    """Classify a surface by a walk over every character: alphabetic, numeric,
    punctuation or mixed, the first class every character has."""
    if all(c.isalpha() for c in surface):
        return "alphabetic"
    if all(c.isdigit() for c in surface):
        return "numeric"
    if all(unicodedata.category(c).startswith("P") for c in surface):
        return "punctuation"
    return "mixed"


def reference_naive_annotate(surfaces: Sequence[str]) -> tuple[AnnotatedToken, ...]:
    """``NaiveProvider.annotate`` classifying and building a token for every surface."""
    out = []
    for surface in surfaces:
        cc = reference_char_class(surface)
        if cc == "punctuation":
            pos = "PUNCT"
        elif cc == "numeric":
            pos = "NUM"
        else:
            pos = "OTHER"
        out.append(AnnotatedToken(surface, surface.lower(), pos))
    return tuple(out)


def reference_discounted_sub(
    sa: str, sb: str, lemma_eq: bool, pos_eq: bool, w: CostWeights
) -> float:
    """The discounted, clamped substitution cost of two distinct surfaces."""
    similarity = 1.0 - char_levenshtein(sa, sb) / max(len(sa), len(sb))
    cost = w.base_sub
    if lemma_eq:
        cost -= w.w_lemma
    if pos_eq:
        cost -= w.w_pos
    if w.w_char:
        cost -= w.w_char * similarity
    return min(max(cost, w.sub_floor), w.base_sub)


def reference_price_sub(
    a: AnnotatedToken, b: AnnotatedToken, w: CostWeights, diag: float, cap: float
) -> Optional[float]:
    """The SUB pricing the band fill does inline: ``reference_discounted_sub``
    of two different surfaces, or ``None`` if ``diag`` plus it exceeds ``cap``.

    Before the character distance, the same steps run with the surface length
    difference in its place, which is never larger: ``diag`` plus that lower
    bound exceeding ``cap`` rules SUB out without the distance.
    """
    cost = w.base_sub
    if a.lemma == b.lemma:
        cost -= w.w_lemma
    if a.pos == b.pos:
        cost -= w.w_pos
    w_char = w.w_char
    sa, sb = a.surface, b.surface
    na, nb = len(sa), len(sb)
    longest = na if na > nb else nb
    if diag + (cost - w_char * (1.0 - abs(na - nb) / longest)) > cap:
        return None
    if w_char:
        cost -= w_char * (1.0 - char_levenshtein(sa, sb) / longest)
    if cost < w.sub_floor:
        return w.sub_floor
    return cost


# backpointer codes, listed in tie-break preference order
_B_NONE, _B_MATCH, _B_SUB, _B_TRANS, _B_DEL, _B_INS = range(6)


_COMMA = re.compile(",")
_BOUNDARY = re.compile(r"\s*-?\d+\s+-?\d+")


def reference_split_fragments(text: str) -> list[str]:
    """``split_fragments`` testing each comma for two integers after it."""
    if not text.strip():
        return []
    fragments = []
    start = 0
    for match in _COMMA.finditer(text):
        pos = match.start()
        if _BOUNDARY.match(text, pos + 1):
            fragments.append(text[start:pos])
            start = pos + 1
    fragments.append(text[start:])
    return fragments


_POSITION = re.compile(r"-?\d+")


def _reference_position(token: str, source_len: int) -> Optional[int]:
    """The value of a position token, or None if it has more significant digits
    than ``source_len``, so it cannot lie in range; a leading zero of any
    script is not significant, and ``int`` never sees a long string."""
    magnitude = token.lstrip("-")
    at = 0
    while at < len(magnitude) and unicodedata.decimal(magnitude[at]) == 0:
        at += 1
    significant = magnitude[at:]
    if len(significant) > len(str(source_len)):
        return None
    value = int(significant or "0")
    return -value if token.startswith("-") else value


def _reference_conflicts(a: EditSpan, b: EditSpan) -> bool:
    """Two spans clash if they start at one gap or their ranges overlap."""
    if a.start == b.start:
        return True
    lo, hi = (a, b) if a.start < b.start else (b, a)
    return lo.end > hi.start


def reference_parse(text: str, source_len: int) -> ParseReport:
    """``parse`` as a plain scan: each fragment, split into tokens, is checked
    in turn for two leading integer tokens, positions in range, a change, and
    no clash with any span accepted before it; a discarded fragment is reported
    as its index and the code of the first check it fails."""
    if source_len < 0:
        raise ValueError(f"source length must be non-negative: {source_len}")
    if text.strip() == "None":
        return ParseReport(EditScript((), source_len))
    discarded: list[tuple[int, str]] = []
    accepted: list[EditSpan] = []
    for idx, fragment in enumerate(reference_split_fragments(text)):
        tokens = fragment.split()
        reason = None
        if (
            len(tokens) < 2
            or not _POSITION.fullmatch(tokens[0])
            or not _POSITION.fullmatch(tokens[1])
        ):
            reason = "no_positions"
        else:
            start = _reference_position(tokens[0], source_len)
            end = _reference_position(tokens[1], source_len)
            replacement = tuple(tokens[2:])
            if start is None or end is None or not 0 <= start <= end <= source_len:
                reason = "bad_positions"
            elif start == end and not replacement:
                reason = "noop"
            else:
                span = EditSpan(start, end, replacement)
                if any(_reference_conflicts(prior, span) for prior in accepted):
                    reason = "overlap"
                else:
                    accepted.append(span)
        if reason is not None:
            discarded.append((idx, reason))
    spans = tuple(sorted(accepted, key=lambda s: (s.start, s.end)))
    return ParseReport(EditScript(spans, source_len), tuple(discarded))


def reference_align(
    src: Sequence[AnnotatedToken],
    tgt: Sequence[AnnotatedToken],
    weights: Optional[CostWeights] = None,
) -> Alignment:
    """The full O(len(src) * len(tgt)) alignment DP over every cell.

    Substitution costs come from ``reference_discounted_sub`` cell by cell;
    ties go to MATCH, then SUB, TRANS, DEL, INS.
    """
    w = weights or DEFAULT_WEIGHTS
    n, m = len(src), len(tgt)
    s_surf = [a.surface for a in src]
    s_lem = [a.lemma for a in src]
    s_pos = [a.pos for a in src]
    t_surf = [a.surface for a in tgt]
    t_lem = [a.lemma for a in tgt]
    t_pos = [a.pos for a in tgt]
    ins_c, del_c, trans_c = w.insert_cost, w.delete_cost, w.transpose_cost

    cost = [[0.0] * (m + 1) for _ in range(n + 1)]
    back = [[_B_NONE] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0] = cost[i - 1][0] + del_c
        back[i][0] = _B_DEL
    for j in range(1, m + 1):
        cost[0][j] = cost[0][j - 1] + ins_c
        back[0][j] = _B_INS
    for i in range(1, n + 1):
        row, prev, brow = cost[i], cost[i - 1], back[i]
        sa, la, pa = s_surf[i - 1], s_lem[i - 1], s_pos[i - 1]
        for j in range(1, m + 1):
            tb = t_surf[j - 1]
            if sa == tb:
                best, bop = prev[j - 1], _B_MATCH
            else:
                best = prev[j - 1] + reference_discounted_sub(
                    sa, tb, la == t_lem[j - 1], pa == t_pos[j - 1], w
                )
                bop = _B_SUB
            if i > 1 and j > 1 and sa == t_surf[j - 2] and s_surf[i - 2] == tb:
                c = cost[i - 2][j - 2] + trans_c
                if c < best:
                    best, bop = c, _B_TRANS
            c = prev[j] + del_c
            if c < best:
                best, bop = c, _B_DEL
            c = row[j - 1] + ins_c
            if c < best:
                best, bop = c, _B_INS
            row[j] = best
            brow[j] = bop

    trail: list[int] = []
    i, j = n, m
    while i or j:
        bop = back[i][j]
        trail.append(bop)
        if bop == _B_MATCH or bop == _B_SUB:
            i -= 1
            j -= 1
        elif bop == _B_DEL:
            i -= 1
        elif bop == _B_INS:
            j -= 1
        else:
            i -= 2
            j -= 2
    trail.reverse()

    ops: list[AlignOp] = []
    si = ti = 0
    for bop in trail:
        if bop == _B_MATCH:
            ops.append(AlignOp(OpKind.MATCH, si, si + 1, ti, ti + 1))
            si += 1
            ti += 1
        elif bop == _B_SUB:
            ops.append(AlignOp(OpKind.SUB, si, si + 1, ti, ti + 1))
            si += 1
            ti += 1
        elif bop == _B_DEL:
            ops.append(AlignOp(OpKind.DEL, si, si + 1, ti, ti))
            si += 1
        elif bop == _B_INS:
            ops.append(AlignOp(OpKind.INS, si, si, ti, ti + 1))
            ti += 1
        else:
            ops.append(AlignOp(OpKind.TRANS, si, si + 2, ti, ti + 2))
            si += 2
            ti += 2
    return Alignment(tuple(ops), cost[n][m])


def reference_merge_ops(alignment: Alignment) -> tuple[AlignOp, ...]:
    """``merge_ops`` with an explicit buffer of the current non-MATCH run."""
    merged: list[AlignOp] = []
    run: list[AlignOp] = []

    def flush() -> None:
        if not run:
            return
        src_start, src_end = run[0].src_start, run[-1].src_end
        tgt_start, tgt_end = run[0].tgt_start, run[-1].tgt_end
        if src_start == src_end:
            kind = OpKind.INS
        elif tgt_start == tgt_end:
            kind = OpKind.DEL
        else:
            kind = OpKind.SUB
        merged.append(AlignOp(kind, src_start, src_end, tgt_start, tgt_end))
        run.clear()

    for op in alignment.ops:
        if op.kind is OpKind.MATCH:
            flush()
            merged.append(op)
        else:
            run.append(op)
    flush()
    return tuple(merged)


def reference_extract_spans(
    src: Sentence,
    tgt: Sentence,
    provider=None,
    weights: Optional[CostWeights] = None,
) -> EditScript:
    """``extract_spans`` through ``align``'s per-token ops and ``merge_ops``."""
    alignment = align(annotate(src, provider), annotate(tgt, provider), weights)
    return EditScript(tuple(
        EditSpan(op.src_start, op.src_end, tgt.surfaces[op.tgt_start:op.tgt_end])
        for op in merge_ops(alignment)
        if op.kind is not OpKind.MATCH
    ), len(src))


def canonicalize(
    script: EditScript,
    src: Sentence,
    provider=None,
    weights: Optional[CostWeights] = None,
) -> EditScript:
    """Re-extract the script's effect as the alignment would have produced it.

    Applies ``script`` to ``src`` and extracts spans from the resulting pair.
    Idempotent: canonical scripts map to themselves.
    """
    return extract_spans(src, apply_edits(script, src), provider, weights)


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


def reference_pair_stats(
    src: Sentence,
    hyp_text: str,
    gold: Sentence,
    provider=None,
    weights: Optional[CostWeights] = None,
) -> PairStats:
    """``pair_stats`` with two full extractions, annotating every sentence each
    time, over ``reference_parse``."""
    report = reference_parse(hyp_text, len(src))
    gold_script = extract_spans(src, gold, provider, weights)
    score = edit_f05(report.script, gold_script)
    canonical = canonicalize(report.script, src, provider, weights)
    return PairStats(
        agree=report.script.spans == canonical.spans,
        ratio=compression(hyp_text, gold).ratio,
        tp=score.tp,
        fp=score.fp,
        fn=score.fn,
        ignored=report.ignored,
    )


class ValidationReport(Value):
    """Outcome of validating built records."""

    def __init__(self, total: int, checked: int, failures: tuple[tuple[int, str], ...]) -> None:
        self.__dict__.update(total=total, checked=checked, failures=failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_dataset(
    records: Sequence[DatasetRecord],
    targets: Optional[Sequence[Optional[str]]] = None,
) -> ValidationReport:
    """Check every rewriting-task record's output against its input.

    The output must parse with zero ignored fragments against the tokenized
    input. When ``targets`` supplies the original target text for a record,
    applying the parsed script must reproduce it. Open-ended records are not
    checked.
    """
    if targets is not None and len(targets) != len(records):
        raise ValueError("targets must align one-to-one with records")
    checked = 0
    failures: list[tuple[int, str]] = []
    for idx, record in enumerate(records):
        if record.task not in TASK_INSTRUCTIONS:
            continue
        checked += 1
        src = tokenize(record.input)
        report = parse(record.output, len(src))
        if report.ignored:
            failures.append((idx, f"{report.ignored} fragment(s) failed to parse"))
            continue
        if targets is not None and targets[idx] is not None:
            produced = detokenize(apply_edits(report.script, src))
            expected = detokenize(tokenize(targets[idx]))
            if produced != expected:
                failures.append((idx, "applying the output does not reproduce the target"))
    return ValidationReport(len(records), checked, tuple(failures))


def reference_edit_score(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F0.5 from span counts, each written out in full."""
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    denom = 0.25 * precision + recall
    f05 = 1.25 * precision * recall / denom if denom else 0.0
    return precision, recall, f05


def reference_mix_and_sample(
    task_sets: Mapping[str, Sequence[DatasetRecord]],
    open_ended: Sequence[DatasetRecord],
    spec: MixSpec,
) -> list[DatasetRecord]:
    """``mix_and_sample`` drawing from copies of the record lists."""
    rng = random.Random(spec.seed)
    chosen: list[DatasetRecord] = []
    for name in sorted(task_sets):
        records = task_sets[name]
        if len(records) < spec.per_task_count:
            raise DataError(
                f"task {name!r} has {len(records)} records, need {spec.per_task_count}"
            )
        chosen.extend(rng.sample(list(records), spec.per_task_count))
    if len(open_ended) < spec.open_ended_count:
        raise DataError(
            f"open-ended set has {len(open_ended)} records, need {spec.open_ended_count}"
        )
    chosen.extend(rng.sample(list(open_ended), spec.open_ended_count))
    rng.shuffle(chosen)
    return chosen


def reference_sidecar_from_file(
    path: Union[str, Path],
) -> dict[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """``SidecarProvider.from_file`` that splits and checks every row, keeps every
    block, and maps each sentence's surfaces to its ``(lemma, pos)`` rows."""
    blocks: list[list[tuple[str, str, str]]] = []
    current: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            if current:
                blocks.append(current)
                current = []
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(
                f"{path}: line {lineno}: expected surface<TAB>lemma<TAB>pos"
            )
        surface, lemma, pos = parts
        if not lemma.strip():
            raise DataError(f"{path}: line {lineno}: empty lemma")
        current.append((surface, lemma.strip().lower(), normalize_pos(pos)))
    if current:
        blocks.append(current)
    return {
        tuple(row[0] for row in block): tuple((row[1], row[2]) for row in block)
        for block in blocks
    }


def reference_sidecar_annotate(
    annotations: Mapping[tuple[str, ...], tuple[tuple[str, str], ...]],
    surfaces: Sequence[str],
) -> tuple[AnnotatedToken, ...]:
    """``SidecarProvider.annotate`` over the mapping ``reference_sidecar_from_file`` builds."""
    if not surfaces:
        return ()
    key = tuple(surfaces)
    rows = annotations.get(key)
    if rows is None:
        raise DataError(f"no sidecar annotations for sentence: {' '.join(key)!r}")
    return tuple(
        AnnotatedToken(surface, lemma, pos) for surface, (lemma, pos) in zip(key, rows)
    )
