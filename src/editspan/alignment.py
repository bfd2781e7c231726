"""Minimum-cost token alignment and edit-span extraction.

A Damerau-Levenshtein dynamic program over annotated tokens, with the
adjacent-transposition extension and a substitution cost discounted by
lemma agreement, POS agreement, and character-level similarity. Runs of
consecutive non-match operations merge into single multi-token edits, which
convert directly to edit spans over source gap positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from itertools import groupby
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from editspan.codec import EditScript, EditSpan, apply_edits
from editspan.errors import ConfigError
from editspan.text import (
    AnnotatedToken,
    Sentence,
    annotate,
    open_text,
    parse_pair_line,
    tokenize,
)


@dataclass(frozen=True)
class CostWeights:
    """Alignment cost model.

    The base substitution cost is ``insert_cost + delete_cost``; lemma, POS,
    and character-similarity agreement each subtract their weight from it,
    and the result is clamped to ``[sub_floor, base_sub]``. Substituting one
    token is therefore never dearer than deleting and inserting, and never
    free unless the surfaces are identical.
    """

    w_lemma: float = 0.5
    w_pos: float = 0.4
    w_char: float = 0.6
    insert_cost: float = 1.0
    delete_cost: float = 1.0
    transpose_cost: float = 1.1
    sub_floor: float = 0.1

    def __post_init__(self) -> None:
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        for name in ("w_lemma", "w_pos", "w_char"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("insert_cost", "delete_cost", "transpose_cost"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.sub_floor <= self.base_sub:
            raise ValueError("sub_floor must lie in (0, insert_cost + delete_cost]")

    @property
    def base_sub(self) -> float:
        return self.insert_cost + self.delete_cost

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Union[str, float]]) -> "CostWeights":
        known = {f.name for f in fields(cls)}
        values = {}
        for key, value in mapping.items():
            if key not in known:
                raise ConfigError(f"unknown cost weight: {key!r}")
            try:
                values[key] = float(value)
            except (TypeError, ValueError):
                raise ConfigError(f"cost weight {key!r} is not a number: {value!r}") from None
        try:
            return cls(**values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CostWeights":
        return cls.from_mapping(read_kv_config(path))


def read_kv_config(path: Union[str, Path]) -> dict[str, str]:
    """Read a flat UTF-8 config of ``key = value`` lines; ``#`` comments allowed."""
    out: dict[str, str] = {}
    with open_text(path, ConfigError) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            out[key.strip()] = value.strip()
    return out


DEFAULT_WEIGHTS = CostWeights()


class OpKind(Enum):
    MATCH = "match"
    SUB = "sub"
    INS = "ins"
    DEL = "del"
    TRANS = "trans"


class AlignOp(NamedTuple):
    """One alignment operation covering half-open token ranges on both sides."""

    kind: OpKind
    src_start: int
    src_end: int
    tgt_start: int
    tgt_end: int


class Alignment(NamedTuple):
    """An operation sequence tiling both sentences, plus its total cost."""

    ops: tuple[AlignOp, ...]
    total_cost: float


# (source tokens, target tokens) each op consumes
_STEP = {
    OpKind.MATCH: (1, 1),
    OpKind.SUB: (1, 1),
    OpKind.TRANS: (2, 2),
    OpKind.DEL: (1, 0),
    OpKind.INS: (0, 1),
}


@lru_cache(maxsize=1 << 16)
def _char_distance_cached(a: str, b: str) -> int:
    # Bit-parallel Levenshtein (Myers 1999, in Hyyrö's global-distance form):
    # bit i of pv/mv says the column delta D[i+1][j] - D[i][j] is +1/-1, and
    # one step of big-int operations advances the whole column by one
    # character of b. Python ints are unbounded and ~x is negative, so every
    # vector is masked to len(a) bits; without that they grow by one bit a step.
    if len(a) < len(b):
        a, b = b, a  # scan the shorter string: one loop step per character
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | 1 << i
    mask = (1 << len(a)) - 1
    top = 1 << (len(a) - 1)
    pv, mv, dist = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask & ~(xh | pv))
        mh = pv & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        ph = (ph << 1 | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (mask & ~(xv | ph))
        mv = ph & xv
    return dist


def char_levenshtein(a: str, b: str) -> int:
    """Unweighted character-level edit distance."""
    if a == b:
        return 0
    if a > b:  # the distance is symmetric; normalize for cache reuse
        a, b = b, a
    return _char_distance_cached(a, b)


def sub_cost(
    a: AnnotatedToken, b: AnnotatedToken, weights: Optional[CostWeights] = None
) -> float:
    """Substitution cost between two annotated tokens.

    Zero for identical surfaces; otherwise the discounted, clamped base cost.
    """
    w = weights or DEFAULT_WEIGHTS
    sa, sb = a.surface, b.surface
    if sa == sb:
        return 0.0
    base = cost = w.base_sub
    if a.lemma == b.lemma:
        cost -= w.w_lemma
    if a.pos == b.pos:
        cost -= w.w_pos
    if w.w_char:
        # the distance is symmetric; order the arguments as char_levenshtein
        # does, so both share cache entries
        dist = _char_distance_cached(sb, sa) if sa > sb else _char_distance_cached(sa, sb)
        cost -= w.w_char * (1.0 - dist / max(len(sa), len(sb)))
    if cost < w.sub_floor:
        return w.sub_floor
    if cost > base:
        return base
    return cost


def align(
    src: Sequence[AnnotatedToken],
    tgt: Sequence[AnnotatedToken],
    weights: Optional[CostWeights] = None,
) -> Alignment:
    """Minimum-cost alignment of two annotated token sequences.

    O(len(src) * len(tgt)) dynamic program over the tokens before the
    common suffix, which aligns as MATCH ops. Transposition applies only to
    adjacent pairs whose surfaces match crosswise. Cost ties are broken by
    preferring MATCH, then SUB, TRANS, DEL, INS, which makes the result a
    deterministic function of the inputs and weights.
    """
    w = weights or DEFAULT_WEIGHTS
    MATCH, SUB, TRANS, DEL, INS = OpKind.MATCH, OpKind.SUB, OpKind.TRANS, OpKind.DEL, OpKind.INS
    s_surf = [a.surface for a in src]
    t_surf = [a.surface for a in tgt]
    # The common surface suffix always aligns as MATCH ops (README, "Aligner"),
    # so the table covers only what precedes it. A prefix trim is not exact.
    n, m = len(src), len(tgt)
    while n and m and s_surf[n - 1] == t_surf[m - 1]:
        n -= 1
        m -= 1
    ins_c, del_c, trans_c = w.insert_cost, w.delete_cost, w.transpose_cost

    # substitution cost of each distinct (source token, target token) pair,
    # laid out per distinct source token as a row over target positions
    t_ids: dict[AnnotatedToken, int] = {}
    t_col = [t_ids.setdefault(b, len(t_ids)) for b in tgt[:m]]
    sub_rows: dict[AnnotatedToken, list[float]] = {}

    prev = [0.0]
    for _ in range(m):
        prev.append(prev[-1] + ins_c)
    # back[i][j] is the last op of the best path to cell (i, j); None at the origin
    back: list[list[Optional[OpKind]]] = [[None] + [INS] * m]
    prev2: list[float] = []
    sp: Optional[str] = None  # the previous source surface
    for i in range(n):
        a = src[i]
        sa = a.surface
        subs = sub_rows.get(a)
        if subs is None:
            by_token = [sub_cost(a, b, w) for b in t_ids]
            subs = sub_rows[a] = [by_token[k] for k in t_col]
        left = prev[0] + del_c
        row = [left]
        brow: list[Optional[OpKind]] = [DEL]
        tp: Optional[str] = None  # the previous target surface
        for j in range(m):
            tb = t_surf[j]
            if sa == tb:
                # a transposition here would swap equal tokens: dearer than two matches
                best, bop = prev[j], MATCH
            else:
                best, bop = prev[j] + subs[j], SUB
                if sa == tp and sp == tb:
                    c = prev2[j - 1] + trans_c
                    if c < best:
                        best, bop = c, TRANS
            c = prev[j + 1] + del_c
            if c < best:
                best, bop = c, DEL
            c = left + ins_c
            if c < best:
                best, bop = c, INS
            row.append(best)
            brow.append(bop)
            left = best
            tp = tb
        back.append(brow)
        prev2, prev = prev, row
        sp = sa

    # walk back from the end of both sentences; past row n lies the suffix
    ops: list[AlignOp] = []
    i, j = len(src), len(tgt)
    while i or j:
        kind = back[i][j] if i <= n else MATCH
        di, dj = _STEP[kind]
        ops.append(AlignOp(kind, i - di, i, j - dj, j))
        i -= di
        j -= dj
    ops.reverse()
    return Alignment(tuple(ops), prev[m])


def merge_ops(alignment: Alignment) -> tuple[AlignOp, ...]:
    """Coalesce each maximal run of consecutive non-MATCH ops into one op.

    The merged op covers the union of the run's ranges; MATCH ops pass
    through untouched, so the result still tiles both sequences.
    """
    merged: list[AlignOp] = []
    for is_match, group in groupby(alignment.ops, lambda op: op.kind is OpKind.MATCH):
        if is_match:
            merged.extend(group)
            continue
        run = list(group)
        src_start, src_end = run[0].src_start, run[-1].src_end
        tgt_start, tgt_end = run[0].tgt_start, run[-1].tgt_end
        if src_start == src_end:
            kind = OpKind.INS
        elif tgt_start == tgt_end:
            kind = OpKind.DEL
        else:
            kind = OpKind.SUB
        merged.append(AlignOp(kind, src_start, src_end, tgt_start, tgt_end))
    return tuple(merged)


def extract_spans(
    src: Sentence,
    tgt: Sentence,
    provider=None,
    weights: Optional[CostWeights] = None,
) -> EditScript:
    """Extract the edit script turning ``src`` into ``tgt``.

    Aligns the annotated sentences, merges edit runs, and converts each
    merged non-MATCH op to a span over source gap positions. Applying the
    result to ``src`` reproduces ``tgt`` exactly.
    """
    return _extract_annotated(annotate(src, provider), tgt, provider, weights)


def _extract_annotated(
    src_annot: Sequence[AnnotatedToken],
    tgt: Sentence,
    provider=None,
    weights: Optional[CostWeights] = None,
) -> EditScript:
    """``extract_spans`` for a source that is already annotated."""
    alignment = align(src_annot, annotate(tgt, provider), weights)
    tgt_surfaces = tgt.surfaces
    spans = [
        EditSpan(op.src_start, op.src_end, tgt_surfaces[op.tgt_start:op.tgt_end])
        for op in merge_ops(alignment)
        if op.kind is not OpKind.MATCH
    ]
    return EditScript(tuple(spans), len(src_annot))


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


def extract_line(
    line: str,
    lineno: int = 0,
    provider=None,
    weights: Optional[CostWeights] = None,
) -> tuple[Sentence, Sentence, EditScript]:
    """Parse one ``source<TAB>target`` line, tokenize both sides, and extract spans.

    Raises:
        PairLineError: the line is not exactly two tab-separated fields.
    """
    src_text, tgt_text = parse_pair_line(line, lineno)
    src, tgt = tokenize(src_text), tokenize(tgt_text)
    return src, tgt, extract_spans(src, tgt, provider, weights)
