"""Whitespace tokenization, detokenization, and pluggable token annotation.

Text is treated as pre-tokenized: tokens are whitespace-delimited, and token
or gap indices are only comparable between strings tokenized identically.
Linguistic annotation (lemma, coarse POS) comes from a provider so the
signal can be a cheap heuristic or an external tagger's output shipped in a
sidecar file. Every input file is read through ``read_lines``, which owns the
rules for turning its bytes into lines, and every output file is written
through ``atomic_output``.
"""

from __future__ import annotations

import os
import stat
import sys
import unicodedata
from contextlib import contextmanager, suppress
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Optional, Protocol, Sequence, TextIO

from editspan._value import Value
from editspan.errors import ConfigError, DataError, EditSpanError, PairLineError

POS_TAGS = frozenset({
    "NOUN", "VERB", "ADJ", "ADV", "PRON", "DET",
    "ADP", "CONJ", "NUM", "PUNCT", "OTHER",
})

# collapse tags from richer tagsets (e.g. UPOS in sidecar files) onto ours
_POS_ALIASES = {"PROPN": "NOUN", "AUX": "VERB", "CCONJ": "CONJ", "SCONJ": "CONJ"}


def read_lines(
    path: str | os.PathLike[str], error: type[EditSpanError] = DataError
) -> Iterator[str]:
    """Yield the lines of the UTF-8 text file ``path``, each with its ``"\\n"``.

    One leading byte-order mark is skipped. ``"\\n"``, ``"\\r\\n"`` and a lone
    ``"\\r"`` each end a line (Python's universal newlines), and every ending
    is read as ``"\\n"``; the last line may have none. Bytes that do not
    decode raise ``error`` naming the file, instead of a bare
    ``UnicodeDecodeError``.
    """
    # not "utf-8-sig": it reads a file holding only b"\xef" or b"\xef\xbb" as empty
    with open(path, encoding="utf-8") as handle:
        try:
            first = handle.readline().removeprefix("\ufeff")
            if first:  # a file holding only a byte-order mark has no lines
                yield first
            yield from handle
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not valid UTF-8 text ({exc.reason})") from None


def _writer_of(found: os.stat_result) -> Optional[int]:
    """The lowest descriptor of this process open for writing on the file ``found``.

    Descriptors 1 and 2 are looked at where ``/dev/fd`` cannot be listed.
    """
    try:
        fds = sorted(map(int, os.listdir("/dev/fd")))
    except OSError:
        fds = [1, 2]
    for fd in fds:
        try:
            held = os.fstat(fd)
        except OSError:  # closed, such as the one that listed /dev/fd
            continue
        if os.path.samestat(found, held):
            import fcntl  # only here: a run whose -o no descriptor holds needs none

            if fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE != os.O_RDONLY:
                return fd
    return None


@contextmanager
def atomic_output(path: str | os.PathLike[str]) -> Iterator[TextIO]:
    """Open ``path`` for writing UTF-8 text with LF newlines, all or nothing.

    A regular file, or a path where there is nothing, gets a new file beside
    the file ``path`` resolves to, which replaces that file only when the
    block exits normally. On an exception the new file is removed and
    whatever was there before is left as it was. Anything else (a device, a
    pipe, ``/dev/stdout``) cannot be replaced, so it is written in place, as
    is a path that ends in ``/``, ``.`` or ``..``, which ``open`` refuses. A
    file one of this process's descriptors writes to (stdout, stderr,
    ``/dev/fd/N``, or the same file by name) is written through the lowest
    such descriptor. An error opening either file names ``path`` as given.
    """
    try:
        found = os.stat(path or os.curdir)  # realpath, too, takes "" for the working directory
    except OSError:  # nothing there: opening the new file reports the real error
        found = None
    fd = None if found is None else _writer_of(found)
    if fd is not None:
        # replacing it would drop what the shell writes there before and after
        sys.stdout.flush()
        sys.stderr.flush()
        with open(os.dup(fd), "w", encoding="utf-8", newline="\n") as handle:
            yield handle  # at the descriptor's own offset, and O_APPEND holds
        return
    # a path that ends in "/", "." or ".." names a directory, though realpath drops that
    in_place = os.path.basename(path) in ("", ".", "..") or (
        found is not None and not stat.S_ISREG(found.st_mode)
    )
    if not in_place:  # the new file goes beside the file that path resolves to
        head, name = os.path.split(os.path.realpath(path))
    # not named after the target, whose name may be as long as a name can be
    opened = path if in_place else os.path.join(head, f".editspan-{os.urandom(6).hex()}.tmp")
    try:
        handle = open(opened, "w" if in_place else "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    if in_place:
        with handle:
            yield handle
        return
    try:
        with handle:
            if found is not None:
                os.chmod(opened, stat.S_IMODE(found.st_mode))
            yield handle
        os.replace(opened, os.path.join(head, name))
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(opened)
        raise


def normalize_pos(tag: str) -> str:
    """Map an arbitrary POS tag onto the coarse closed tagset."""
    t = tag.strip().upper()
    t = _POS_ALIASES.get(t, t)
    return t if t in POS_TAGS else "OTHER"


class AnnotatedToken(NamedTuple):
    """A token surface plus the linguistic signal used for alignment costs.

    Attributes:
        surface: the token text.
        lemma: non-empty lowercase lemma.
        pos: coarse POS tag from ``POS_TAGS``.
    """

    surface: str
    lemma: str
    pos: str


def _are_tokens(surfaces: tuple[str, ...]) -> bool:
    """Whether every surface is non-empty and free of whitespace (as ``str.split`` sees it)."""
    return tuple(" ".join(surfaces).split()) == surfaces


class Sentence(Value):
    """An immutable tokenized sentence: its token surfaces in order.

    Every surface is non-empty and free of whitespace, so joining with single
    spaces and splitting again gives the same tokens back.
    """

    def __init__(self, surfaces: tuple[str, ...]) -> None:
        if not _are_tokens(surfaces):
            raise ValueError(
                "sentence surfaces must be a tuple of non-empty tokens with no "
                f"whitespace: {surfaces!r}"
            )
        self.__dict__["surfaces"] = surfaces

    def __len__(self) -> int:
        return len(self.surfaces)


def tokenize(text: str) -> Sentence:
    """Split on runs of whitespace; empty input yields an empty sentence."""
    # str.split() yields only non-empty tokens free of whitespace
    return Sentence._trusted(surfaces=tuple(text.split()))


def detokenize(sentence: Sentence) -> str:
    """Join surfaces with single spaces. Inverse of tokenize up to whitespace."""
    return " ".join(sentence.surfaces)


class AnnotationProvider(Protocol):
    """Strategy interface: token surfaces in, one ``AnnotatedToken`` per surface out."""

    name: str

    def annotate(self, surfaces: Sequence[str]) -> tuple[AnnotatedToken, ...]:
        ...


@lru_cache(maxsize=1 << 16)
def _naive_token(surface: str) -> AnnotatedToken:
    if surface.isdigit():
        pos = "NUM"
    # no letter is punctuation, so a word skips the per-character walk
    elif surface and not surface.isalpha() and all(
        unicodedata.category(c).startswith("P") for c in surface
    ):
        pos = "PUNCT"
    else:
        pos = "OTHER"
    return AnnotatedToken(surface, surface.lower(), pos)


class NaiveProvider(Value):
    """Heuristic annotation with no external resources.

    Lemma is the lowercased surface. POS is NUM when every character is a
    digit (``str.isdigit``), PUNCT when the surface is non-empty and every
    character's Unicode category is punctuation (``P*``), and OTHER otherwise.
    Equal surfaces share one ``AnnotatedToken`` while it stays in a bounded
    cache.
    """

    name = "naive"

    def annotate(self, surfaces: Sequence[str]) -> tuple[AnnotatedToken, ...]:
        return tuple(map(_naive_token, surfaces))


class SidecarProvider(Value):
    """Annotation read from a companion file produced by an external tagger.

    The file holds one token per line as ``surface<TAB>lemma<TAB>pos`` with a
    blank line between sentences. Sentences are looked up by their exact
    surface sequence; when a sentence occurs twice, its later block replaces
    the earlier one. Equal rows share one ``AnnotatedToken``.

    The annotations are checked once, when the provider is built: ``from_file``
    checks each row as it reads it, and a mapping is checked as ``annotate``
    checks other providers' output.
    """

    name = "sidecar"

    def __init__(
        self, annotations: Mapping[tuple[str, ...], tuple[AnnotatedToken, ...]]
    ) -> None:
        for surfaces, annotated in annotations.items():
            _check_annotations(self.name, surfaces, annotated)
        self.__dict__["annotations"] = annotations

    @classmethod
    def from_file(cls, path: str | os.PathLike[str]) -> "SidecarProvider":
        mapping: dict[tuple[str, ...], tuple[AnnotatedToken, ...]] = {}
        tokens: dict[str, AnnotatedToken] = {}
        block: list[AnnotatedToken] = []
        for lineno, raw in enumerate(read_lines(path), 1):
            line = raw.rstrip("\n")
            token = tokens.get(line)
            if token is None:
                if not line.strip():
                    if block:
                        mapping[tuple(t.surface for t in block)] = tuple(block)
                        block = []
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise DataError(
                        f"{path}: line {lineno}: expected surface<TAB>lemma<TAB>pos"
                    )
                surface, lemma, pos = parts
                if not lemma.strip():
                    raise DataError(f"{path}: line {lineno}: empty lemma")
                token = tokens[line] = AnnotatedToken(
                    surface, lemma.strip().lower(), normalize_pos(pos)
                )
            block.append(token)
        if block:
            mapping[tuple(t.surface for t in block)] = tuple(block)
        # each row was checked above, and is keyed by its own surfaces
        return cls._trusted(annotations=mapping)

    def annotate(self, surfaces: Sequence[str]) -> tuple[AnnotatedToken, ...]:
        if not surfaces:
            return ()
        key = tuple(surfaces)
        annotated = self.annotations.get(key)
        if annotated is None:
            raise DataError(f"no sidecar annotations for sentence: {' '.join(key)!r}")
        return annotated


def make_provider(
    name: str, annotations_path: str | os.PathLike[str] | None = None
) -> AnnotationProvider:
    """Build a registered provider by name.

    Raises:
        ConfigError: unknown name, ``sidecar`` without an annotations file, or
            ``naive`` with one.
    """
    if name == "naive":
        if annotations_path is not None:
            raise ConfigError("the naive provider takes no annotations file")
        return NaiveProvider()
    if name == "sidecar":
        if annotations_path is None:
            raise ConfigError("the sidecar provider requires an annotations file")
        return SidecarProvider.from_file(annotations_path)
    raise ConfigError(f"unknown annotation provider: {name!r}")


def annotate(
    sentence: Sentence, provider: Optional[AnnotationProvider] = None
) -> tuple[AnnotatedToken, ...]:
    """Annotate every token of ``sentence`` with ``provider``, by default a ``NaiveProvider``.

    Each annotation must carry its token's surface, a non-empty lemma and a
    tag from ``POS_TAGS``, so a misbehaving provider fails loudly. The
    built-in providers' output is valid by construction, so only other
    providers' output is checked here.
    """
    if provider is None:
        provider = NaiveProvider()
    surfaces = sentence.surfaces
    annotated = provider.annotate(surfaces)
    # a NaiveProvider's tokens are valid, and a SidecarProvider's were checked when built
    if provider.__class__ not in (NaiveProvider, SidecarProvider):
        _check_annotations(provider.name, surfaces, annotated)
    return annotated


def _check_annotations(name: str, surfaces: Sequence[str], annotated: Sequence) -> None:
    """Raise ``ValueError`` unless ``annotated`` is one valid annotation per surface."""
    if len(annotated) != len(surfaces) or any(
        a.surface != s or not a.lemma or a.pos not in POS_TAGS
        for a, s in zip(annotated, surfaces)
    ):
        raise ValueError(
            f"provider {name!r} did not annotate tokens one-to-one "
            "with a non-empty lemma and a known POS tag"
        )


def parse_pair_line(line: str, lineno: int = 0) -> tuple[str, str]:
    """Split one ``source<TAB>target`` line, rejecting anything else."""
    parts = line.rstrip("\r\n").split("\t")
    if len(parts) != 2:
        raise PairLineError(
            f"line {lineno}: expected source<TAB>target, got {len(parts)} fields"
        )
    return parts[0], parts[1]
