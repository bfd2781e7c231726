"""Minimum-cost token alignment and edit-span extraction.

A Damerau-Levenshtein dynamic program over annotated tokens, with the
adjacent-transposition extension and a substitution cost discounted by
lemma agreement, POS agreement, and character-level similarity. Extraction
walks the table's best path back from its end, and each maximal run of
non-match steps on that path becomes one edit span over source gap positions.
"""

from __future__ import annotations

import math
import os
from enum import Enum
from functools import lru_cache
from itertools import groupby
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from editspan._value import Value
from editspan.codec import EditScript, EditSpan
from editspan.errors import BudgetError, ConfigError, DataError
from editspan.text import (
    AnnotatedToken,
    Sentence,
    annotate,
    parse_pair_line,
    read_lines,
    tokenize,
)

# The largest band ``align`` fills, as rows times the widest row; past it,
# ``align`` raises BudgetError (a DataError) before allocating. A 1000 x 1000
# table fits.
MAX_BAND_CELLS = 1 << 20
# The largest weight accepted. A path through n x m tokens has at most n + m
# ops, so at most 2 * MAX_BAND_CELLS within the budget, of at most 2 * MAX_WEIGHT
# each: every path total, and every bound the band is priced with, stays finite.
MAX_WEIGHT = 1e300
# The relative margin of the band's stopping rule. It exceeds the rounding of
# any path sum of at most 2 * MAX_BAND_CELLS terms by orders of magnitude.
_BAND_MARGIN = 1e-6
# A window of more than _START_ROWS rows starts at a half-width of one plus three
# cheapest SUBs in excursions per unmatched word, at most _START_CAP (README, "Aligner").
_START_ROWS = 8
_START_CAP = 8


class CostWeights(Value):
    """Alignment cost model.

    Tokens with identical surfaces match at no cost. Substituting one token
    for another starts from the base cost ``insert_cost + delete_cost`` and
    subtracts, in this order, ``w_lemma`` if the lemmas agree, ``w_pos`` if
    the POS tags agree, and ``w_char`` times the surfaces' character
    similarity, ``1 - char_levenshtein / longer length``; a result below
    ``sub_floor`` is raised to it. Substituting one token is therefore never
    dearer than deleting and inserting, and never free.
    """

    _FIELDS = (
        "w_lemma", "w_pos", "w_char", "insert_cost", "delete_cost", "transpose_cost", "sub_floor",
    )

    def __init__(
        self,
        w_lemma: float = 0.5,
        w_pos: float = 0.4,
        w_char: float = 0.6,
        insert_cost: float = 1.0,
        delete_cost: float = 1.0,
        transpose_cost: float = 1.1,
        sub_floor: float = 0.1,
    ) -> None:
        self.__dict__.update(
            w_lemma=w_lemma, w_pos=w_pos, w_char=w_char, insert_cost=insert_cost,
            delete_cost=delete_cost, transpose_cost=transpose_cost, sub_floor=sub_floor,
        )
        for name, value in self.__dict__.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value > MAX_WEIGHT:
                raise ValueError(f"{name} must be at most {MAX_WEIGHT:g}")
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
        values = {}
        for key, value in mapping.items():
            if key not in cls._FIELDS:
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
    def from_file(cls, path: str | os.PathLike[str]) -> "CostWeights":
        return cls.from_mapping(read_kv_config(path))


def read_kv_config(path: str | os.PathLike[str]) -> dict[str, str]:
    """Read a flat config of ``key = value`` lines; ``#`` comments allowed.

    The lines come from ``read_lines``, so a leading byte-order mark is
    skipped, and bytes that are not UTF-8 are a ``ConfigError``.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path, ConfigError), 1):
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


# The longest token whose masks are cached per token. Words are far shorter,
# and a cached token holds at most 64 masks of at most 64 bits each.
_MASK_CACHE_CUTOFF = 64


@lru_cache(maxsize=4096)
def _token_masks(a: str) -> dict[str, int]:
    # bit i of masks[c] says a[i] == c
    masks = {}
    bit = 1
    for c in a:
        masks[c] = masks.get(c, 0) | bit
        bit <<= 1
    return masks


def _char_mask(a: str, c: str) -> int:
    # masks[c] of _token_masks in time linear in a: the 0/1 digits come from C
    # string operations, and base 2 lies outside the int-from-str digit limit
    return int("1".join(map("0".__mul__, map(len, a[::-1].split(c)))), 2)


@lru_cache(maxsize=1 << 16)
def char_levenshtein(a: str, b: str) -> int:
    """Unweighted character-level edit distance."""
    # Bit-parallel Levenshtein (Myers 1999, in Hyyrö's global-distance form):
    # bit i of pv/mv says the column delta D[i+1][j] - D[i][j] is +1/-1, and
    # one step of big-int operations advances the whole column by one
    # character of b. No vector is masked to len(a) bits: carries and shifts
    # move bits only upward and ints act as two's complement, so the low
    # len(a) bits are those of the masked form, while the bits above grow by
    # at most one a step. The distance is read once, from the last column:
    # D[len(a)][len(b)] = len(b) + the +1 deltas - the -1 deltas.
    if len(a) < len(b):
        a, b = b, a  # scan the shorter string: one loop step per character
    if len(a) <= _MASK_CACHE_CUTOFF:
        peq = _token_masks(a)
    else:
        # only b's characters are looked up, so only they get a mask; a mask
        # per character of a would cost memory quadratic in a's distinct ones
        peq = {c: _char_mask(a, c) for c in set(b)}
    pv, mv = -1, 0
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = ph << 1 | 1
        pv = mh << 1 | ~(xv | ph)
        mv = ph & xv
    mask = (1 << len(a)) - 1
    return len(b) + (pv & mask).bit_count() - (mv & mask).bit_count()


_char_distance_cached = char_levenshtein  # the name the cache is read by, in tests and perfbench


def _fill_band(
    src: Sequence[AnnotatedToken],
    tgt: Sequence[AnnotatedToken],
    w: CostWeights,
) -> tuple[Callable[[int, int], Iterator[tuple[OpKind, int, int]]], int, int, float]:
    """The band fill ``align`` and span extraction share: ``(walk, n, m, total)``.

    ``n`` and ``m`` are the source and target lengths before the common
    surface suffix, and ``total`` is the alignment's cost. ``walk(i, j)``
    walks the best path back from cell ``(i, j)`` to the origin, yielding
    ``(kind, i, j)`` for each step: the last op of the best path to cell
    ``(i, j)``. Rows past ``n`` are the common suffix, all MATCH. A row of
    the common prefix is MATCH on the diagonal; off it, the walk fills that
    row first.
    """
    t_surf = [a.surface for a in tgt]
    # The common surface suffix always aligns as MATCH ops (README, "Aligner"),
    # so the table covers only what precedes it. A prefix trim is not exact,
    # but the rows of the common prefix cost known sums, so a row is filled
    # only if the walk needs its backpointers.
    n, m = len(src), len(tgt)
    while n and m and src[n - 1].surface == t_surf[m - 1]:
        n -= 1
        m -= 1
    p = 0
    while p < n and p < m and src[p].surface == t_surf[p]:
        p += 1
    ins_c, del_c = w.insert_cost, w.delete_cost
    d = m - n
    # A path through a cell off band k takes the |d| one-way steps every path
    # takes plus k + 1 insert-delete excursions; at k >= min(n, m) the band
    # is the whole table.
    gap = d * ins_c if d >= 0 else -d * del_c
    excursion = ins_c + del_c
    whole = min(n, m)

    # Any band that passes the test below is exact, so the first one may start
    # wider than k = 1: a word on one side of the window and not the other costs
    # about three of the cheapest SUBs (three quarters of an excursion at the default
    # weights). The cap keeps that pass linear; a start past the budget falls back to 1.
    k = 1
    if n - p > _START_ROWS:
        s_win, t_win = {a.surface for a in src[p:n]}, set(t_surf[p:m])
        cheap = max(w.sub_floor, w.base_sub - w.w_lemma - w.w_pos - w.w_char) / excursion
        k = min(_START_CAP, whole, 1 + int(3 * max(len(s_win - t_win), len(t_win - s_win)) * cheap))
        if (n + 1) * min(m + 1, abs(d) + 2 * k + 1) > MAX_BAND_CELLS:
            k = 1
    while True:
        lo, hi = min(0, d) - k, max(0, d) + k
        cells = (n + 1) * min(m + 1, hi - lo + 1)  # at least the band's cells
        if cells > MAX_BAND_CELLS:
            raise BudgetError(
                f"aligning {len(src)} x {len(tgt)} tokens needs a band of {cells} cells, "
                f"more than the budget of {MAX_BAND_CELLS}"
            )
        # Cell (i, j) of row i sits at index j - i - lo, so its diagonal
        # neighbour (i-1, j-1) and transposition source (i-2, j-2) share its
        # index in their rows and (i-1, j) sits one to the right. The extra
        # last slot stays infinite. Every row of the common prefix costs the
        # DEL chain left of the diagonal and the INS chain right of it, each
        # summed from 0.0 as the fill would (README, "Aligner").
        chain = [math.inf] * (hi - lo + 2)
        chain[-lo] = c = 0.0
        for t in range(1 - lo, hi - lo + 1):
            chain[t] = c = c + ins_c
        c = 0.0
        for t in range(-lo - 1, -1, -1):
            chain[t] = c = c + del_c
        back: list = [[None] + [OpKind.INS] * min(m, hi)] + [None] * n
        total = _fill_rows(src, tgt, t_surf, w, m, chain, lo, p + 1, n, back)[m - n - lo]
        # Accept when every path leaving the band costs more than the band's
        # result plus the margin. Otherwise the smallest band that passes this
        # test for this result is final, as a wider band's result is no larger.
        limit = total + total * _BAND_MARGIN
        if k >= whole or gap + (k + 1) * excursion > limit:
            break
        while k < whole and gap + (k + 1) * excursion <= limit:
            k += 1

    def walk(i: int, j: int) -> Iterator[tuple[OpKind, int, int]]:
        MATCH = OpKind.MATCH
        while i or j:
            if i > n:
                kind = MATCH
            elif back[i] is None and i == j:  # the common prefix's diagonal
                break
            else:
                if back[i] is None:
                    _fill_rows(src, tgt, t_surf, w, m, chain, lo, i, i, back)
                kind = back[i][j - max(0, i + lo)]
            yield kind, i, j
            di, dj = _STEP[kind]
            i -= di
            j -= dj
        for k in range(i, 0, -1):
            yield MATCH, k, k

    return walk, n, m, total


def _fill_rows(
    src: Sequence[AnnotatedToken], tgt: Sequence[AnnotatedToken], t_surf: list[str],
    w: CostWeights, m: int, chain: list[float], lo: int, first: int, last: int, back: list,
) -> list[float]:
    """Fill rows ``first..last`` of the band from diagonal ``lo`` into ``back``;
    return row ``last``'s costs.

    Rows ``first - 1`` and ``first - 2`` lie in the common prefix and cost
    ``chain``. A cell reads no slot off the table but the extra last one, so
    ``chain``'s slots off the table, which are not infinite, are never read.
    """
    MATCH, SUB, TRANS, DEL, INS = OpKind.MATCH, OpKind.SUB, OpKind.TRANS, OpKind.DEL, OpKind.INS
    ins_c, del_c, trans_c, floor = w.insert_cost, w.delete_cost, w.transpose_cost, w.sub_floor
    base, w_lemma, w_pos, w_char = w.base_sub, w.w_lemma, w.w_pos, w.w_char
    inf = math.inf
    width = len(chain)
    hi = lo + width - 2
    prev = prev2 = chain
    sp = src[first - 2].surface if first > 1 else None  # the previous source surface
    for i in range(first, last + 1):
        a = src[i - 1]
        sa, la, pa = a.surface, a.lemma, a.pos
        na = len(sa)
        off = i + lo  # column of index 0 in this row
        row = [inf] * width
        if off <= 0:
            left = row[-off] = prev[1 - off] + del_c
            brow: list[Optional[OpKind]] = [DEL]
            j0 = 1
        else:
            left = inf
            brow = []
            j0 = off
        j1 = min(m, i + hi)
        tp = t_surf[j0 - 2] if j0 > 1 else None  # the previous target surface
        for t, b, tb in zip(range(j0 - off, j1 - off + 1), tgt[j0 - 1:j1], t_surf[j0 - 1:j1]):
            diag = prev[t]
            dl = prev[t + 1] + del_c
            il = left + ins_c
            if sa == tb:
                # a transposition here would swap equal tokens: dearer than two matches
                best, bop = diag, MATCH
            else:
                # SUB costs at least sub_floor; where DEL or INS is cheaper
                # than that, SUB cannot win and its cost is not needed
                best, bop = diag + floor, SUB
                cap = dl if dl < il else il
                if best > cap:
                    best = inf
                else:
                    # the SUB price of CostWeights, first with the length
                    # difference in place of the character distance: a lower
                    # bound that rules SUB out without the distance (README, "Aligner")
                    c = base
                    if la == b.lemma:
                        c -= w_lemma
                    if pa == b.pos:
                        c -= w_pos
                    nb = len(tb)
                    longest = na if na > nb else nb
                    # with w_char == 0 the subtracted term is exactly 0.0
                    if diag + (c - w_char * (1.0 - abs(na - nb) / longest)) > cap:
                        best = inf
                    else:
                        if w_char:
                            c -= w_char * (1.0 - char_levenshtein(sa, tb) / longest)
                        best = diag + (floor if c < floor else c)
                if sa == tp and sp == tb:
                    c = prev2[t] + trans_c
                    if c < best:
                        best, bop = c, TRANS
            if dl < best:
                best, bop = dl, DEL
            if il < best:
                best, bop = il, INS
            row[t] = best
            brow.append(bop)
            left = best
            tp = tb
        back[i] = brow
        prev2, prev = prev, row
        sp = sa
    return prev


def align(
    src: Sequence[AnnotatedToken],
    tgt: Sequence[AnnotatedToken],
    weights: Optional[CostWeights] = None,
) -> Alignment:
    """Minimum-cost alignment of two annotated token sequences.

    An exact banded dynamic program over the tokens before the common
    suffix, which aligns as MATCH ops: it fills only the diagonals near the
    length difference, in at most two passes, in O(len(src) * k) time and
    memory for a band of half-width k (README, "Aligner"). Transposition
    applies only to adjacent pairs whose surfaces match crosswise. Cost ties
    are broken by preferring MATCH, then SUB, TRANS, DEL, INS, which makes the
    result a deterministic function of the inputs and weights.

    Raises:
        BudgetError: the band to fill, sized as rows times its widest row, is
            larger than ``MAX_BAND_CELLS``.
    """
    walk, _, _, total = _fill_band(src, tgt, weights or DEFAULT_WEIGHTS)
    ops: list[AlignOp] = []
    for kind, i, j in walk(len(src), len(tgt)):
        di, dj = _STEP[kind]
        ops.append(AlignOp(kind, i - di, i, j - dj, j))
    ops.reverse()
    return Alignment(tuple(ops), total)


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

    Aligns the annotated sentences and walks the best path back from its
    end; each maximal run of non-MATCH steps on it becomes one span over
    source gap positions. Applying the result to ``src`` reproduces ``tgt``
    exactly.
    """
    return _extract_annotated(annotate(src, provider), tgt, provider, weights)


def _extract_annotated(
    src_annot: Sequence[AnnotatedToken],
    tgt: Sentence,
    provider=None,
    weights: Optional[CostWeights] = None,
) -> EditScript:
    """``extract_spans`` for a source that is already annotated.

    Walks the table back from the end of the trimmed pair and emits one span
    per maximal run of non-MATCH steps: the spans ``merge_ops`` would give.
    """
    w = weights or DEFAULT_WEIGHTS
    walk, n, m, _ = _fill_band(src_annot, annotate(tgt, provider), w)
    MATCH = OpKind.MATCH
    surfaces = tgt.surfaces
    # Each run is a nonempty slice of the tiling walk, so its span changes
    # something, its replacement is target tokens, and the spans are disjoint.
    span = EditSpan._trusted
    spans: list[EditSpan] = []
    run_i = -1  # the source end of the current edit run, or -1 outside one
    for kind, i, j in walk(n, m):
        if kind is MATCH:
            if run_i >= 0:
                spans.append(span(start=i, end=run_i, replacement=surfaces[j:run_j]))
                run_i = -1
        elif run_i < 0:
            run_i, run_j = i, j
    if run_i >= 0:
        spans.append(span(start=0, end=run_i, replacement=surfaces[:run_j]))
    spans.reverse()
    return EditScript._trusted(spans=tuple(spans), source_len=len(src_annot))


def extract_line(
    line: str,
    lineno: int = 0,
    provider=None,
    weights: Optional[CostWeights] = None,
) -> tuple[Sentence, Sentence, EditScript]:
    """Parse one ``source<TAB>target`` line, tokenize both sides, and extract spans.

    Raises:
        PairLineError: the line is not exactly two tab-separated fields.
        DataError: a side is missing from a sidecar provider, or the pair is
            too long to align (a ``BudgetError``); the message names the line.
    """
    src_text, tgt_text = parse_pair_line(line, lineno)
    src, tgt = tokenize(src_text), tokenize(tgt_text)
    try:
        return src, tgt, extract_spans(src, tgt, provider, weights)
    except DataError as exc:
        raise type(exc)(f"line {lineno}: {exc}") from None
