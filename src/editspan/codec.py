"""Serialization, tolerant parsing, and application of edit scripts.

Wire format: the literal string ``None`` encodes the empty script; otherwise
each span renders as ``<start> <end> <replacement tokens...>`` and spans are
joined with ``", "``. A deletion renders as just the two positions
(``12 13``). Positions are gaps between tokens: gap 0 sits before the first
token and gap N after the last of an N-token sentence.

Parsing is total: malformed fragments are dropped and reported through a
``ParseReport`` as ``(fragment index, reason code)`` pairs, never raised.
"""

from __future__ import annotations

import re
import unicodedata
from operator import attrgetter
from typing import Optional

from editspan._value import Value
from editspan.errors import DataError
from editspan.text import Sentence, _are_tokens

NONE_SENTINEL = "None"

# a fragment's head: two whole integer tokens, then the rest of the fragment
_HEAD = re.compile(r"\s*(-?\d+)\s+(-?\d+)(?!\S)(.*)", re.S)
# a comma starts a new fragment only when two integers follow it
_BOUNDARY = re.compile(r",(?=\s*-?\d+\s+-?\d+)")


class EditSpan(Value):
    """One edit: replace source tokens in ``[start, end)`` with ``replacement``.

    ``start == end`` with a non-empty replacement is an insertion at that gap;
    ``start < end`` with an empty replacement is a deletion. A span that
    changes nothing (``start == end`` and no replacement) is not representable.
    """

    def __init__(self, start: int, end: int, replacement: tuple[str, ...] = ()) -> None:
        if isinstance(replacement, str):  # tuple() would split it into characters
            raise ValueError(f"replacement must be a sequence of tokens, not {replacement!r}")
        replacement = tuple(replacement)
        if start < 0:
            raise ValueError(f"span start must be non-negative: {start}")
        if end < start:
            raise ValueError(f"span end {end} precedes start {start}")
        if start == end and not replacement:
            raise ValueError("a span must insert, delete, or replace something")
        if not _are_tokens(replacement):
            raise ValueError(
                f"replacement tokens must be non-empty with no whitespace: {replacement!r}"
            )
        self.__dict__.update(start=start, end=end, replacement=replacement)


class EditScript(Value):
    """A sorted, non-overlapping set of spans for a source of ``source_len`` tokens."""

    def __init__(self, spans: tuple[EditSpan, ...] = (), source_len: int = 0) -> None:
        spans = tuple(spans)
        if source_len < 0:
            raise ValueError(f"source length must be non-negative: {source_len}")
        for span in spans:
            if span.end > source_len:
                raise ValueError(
                    f"span {span.start} {span.end} exceeds source length {source_len}"
                )
        for a, b in zip(spans, spans[1:]):
            if (a.start, a.end) > (b.start, b.end):
                raise ValueError("spans must be sorted ascending by (start, end)")
            # at most one span may begin at any gap, and ranges may not overlap
            if a.start == b.start or a.end > b.start:
                raise ValueError(
                    f"spans {a.start} {a.end} and {b.start} {b.end} overlap"
                )
        self.__dict__.update(spans=spans, source_len=source_len)


class ParseReport(Value):
    """Parse outcome: the surviving script plus each dropped fragment's (index, code)."""

    def __init__(self, script: EditScript, discarded: tuple[tuple[int, str], ...] = ()) -> None:
        self.__dict__.update(script=script, discarded=discarded)

    @property
    def ignored(self) -> int:
        return len(self.discarded)


def serialize(script: EditScript) -> str:
    """Render a script in wire format; the empty script becomes ``None``."""
    if not script.spans:
        return NONE_SENTINEL
    return ", ".join(
        " ".join((str(s.start), str(s.end), *s.replacement)) for s in script.spans
    )


def split_fragments(text: str) -> list[str]:
    """Split serialized span text on fragment boundaries.

    A comma opens a new fragment only when, after optional whitespace, two
    integers follow; any other comma stays inside the current fragment's
    replacement. Whitespace-only input has no fragments.
    """
    if not text.strip():
        return []
    return _BOUNDARY.split(text)


def _position(token: str, digits: int) -> Optional[int]:
    """The value of a ``-?\\d+`` token, or None if its magnitude has more than
    ``digits`` significant digits.

    Decided from the digit count before ``int``, which refuses strings longer
    than ``sys.get_int_max_str_digits()``; leading zeros do not count.
    """
    sign = "-" if token[0] == "-" else ""
    magnitude = token[len(sign):]
    if len(magnitude) <= digits:
        return int(token)
    if any(unicodedata.decimal(c) for c in magnitude[:-digits]):
        return None
    return int(sign + magnitude[-digits:])


def _starts_before(starts: list[int], gap: int) -> int:
    """How many accepted spans start before ``gap``, read from the Fenwick tree."""
    count = 0
    while gap:
        count += starts[gap]
        gap &= gap - 1
    return count


def parse(text: str, source_len: int) -> ParseReport:
    """Parse serialized span text against a source of ``source_len`` tokens.

    Total over arbitrary input. The trimmed string ``None`` is the empty
    script. A fragment is discarded at the first check it fails, in this
    order, as ``(its index in split_fragments(text), code)``: ``no_positions``
    (no two leading integers); ``bad_positions`` (outside ``[0, source_len]``,
    reversed, or more digits than ``source_len``); ``noop`` (changes nothing);
    ``overlap`` (clashes with an earlier span; first in scan order wins).
    Surviving spans are sorted by (start, end).
    """
    if source_len < 0:
        raise ValueError(f"source length must be non-negative: {source_len}")
    if text.strip() == NONE_SENTINEL:
        return ParseReport(EditScript((), source_len))
    digits = len(str(source_len))
    discarded: list[tuple[int, str]] = []
    accepted: list[EditSpan] = []
    # spans are accepted in scan order and sorted once at the end; a fragment
    # clashes if an accepted span starts at or covers its start gap (marked in
    # ``taken``) or starts strictly inside it (counted by the Fenwick tree)
    taken = bytearray(source_len + 1)
    starts = [0] * (source_len + 2)
    for idx, fragment in enumerate(split_fragments(text)):
        head = _HEAD.match(fragment)
        if head is None:
            reason = "no_positions"
        else:
            start, end = _position(head[1], digits), _position(head[2], digits)
            replacement = tuple(head[3].split())
            if start is None or end is None or start < 0 or end < start or end > source_len:
                reason = "bad_positions"
            elif start == end and not replacement:
                reason = "noop"
            elif taken[start] or (
                end > start + 1 and _starts_before(starts, end) > _starts_before(starts, start)
            ):
                reason = "overlap"
            else:
                # checked above; the replacement is whitespace-split tokens
                accepted.append(EditSpan._trusted(start=start, end=end, replacement=replacement))
                taken[start:max(end, start + 1)] = b"\1" * max(end - start, 1)
                at = start + 1
                while at < len(starts):
                    starts[at] += 1
                    at += at & -at
                continue
        discarded.append((idx, reason))
    accepted.sort(key=attrgetter("start"))
    # the tests above leave spans in range, with distinct starts and no overlap
    script = EditScript._trusted(spans=tuple(accepted), source_len=source_len)
    return ParseReport(script, tuple(discarded))


def apply_edits(script: EditScript, src: Sentence) -> Sentence:
    """Apply a script to its source sentence in one left-to-right pass.

    Raises:
        DataError: the script was built for a different source length.
    """
    if script.source_len != len(src):
        raise DataError(
            f"script expects a {script.source_len}-token source, got {len(src)} tokens"
        )
    source = src.surfaces
    surfaces: list[str] = []
    at = 0
    # spans are sorted ascending and disjoint: copy the source up to each span,
    # then its replacement, and carry on after it
    for span in script.spans:
        surfaces += source[at:span.start]
        surfaces += span.replacement
        at = span.end
    surfaces += source[at:]
    # source surfaces and span replacements were checked when they were built
    return Sentence._trusted(surfaces=tuple(surfaces))
