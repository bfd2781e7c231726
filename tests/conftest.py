"""Shared fixtures: known-good sentence pairs, corpus generators, oracles, and
the environment of a fresh interpreter that imports this checkout."""

from __future__ import annotations

import math
import os
import random
from typing import Sequence

import editspan
from editspan.alignment import CostWeights
from editspan.text import AnnotatedToken
from reference import reference_discounted_sub

# insert + replace + delete in one pair
SCHOLARS_SRC = (
    "Through thousands of years , most Chinese scholars are greatly affected "
    "by the Confucianism ."
)
SCHOLARS_TGT = (
    "Through the thousands of years , most Chinese scholars have been greatly "
    "affected by Confucianism ."
)
SCHOLARS_SPANS = "1 1 the, 8 9 have been, 12 13"

# single insertion into a long sentence
CASH_SRC = (
    "Since we do not to bring cash to pay for the transportation fee , "
    "enormous time has been saved for everybody ."
)
CASH_TGT = (
    "Since we do not need to bring cash to pay for the transportation fee , "
    "enormous time has been saved for everybody ."
)
CASH_SPANS = "4 4 need"

# two serializations with the same effect; only the first is canonical
PRIVACY_SRC = "This technology could also be seen as invasion of human privacy ."
PRIVACY_TGT = "This technology could also be seen as invading human privacy ."
PRIVACY_CANONICAL = "7 9 invading"
PRIVACY_SPLIT = "7 8 invading, 8 9"

# no pure-digit tokens: a replacement that put two integers right after a
# comma token would be indistinguishable from a fragment boundary
VOCAB = (
    "the", "a", "cat", "dogs", "run", "quickly", "over", "fence",
    ",", ".", "naïve", "café", "4th", "x2", "¿qué?", "…",
)


def checkout_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports this checkout's ``editspan``."""
    src_dir = os.path.dirname(os.path.dirname(editspan.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def random_pair(
    rng: random.Random,
    max_len: int = 40,
    max_edits: int = 3,
    vocab: tuple[str, ...] = VOCAB,
    tag: str | None = None,
) -> tuple[str, str]:
    """One synthetic sentence pair: a source and a sparsely edited target.

    ``tag`` prepends a shared marker token to both sides, which keeps
    generated sources unique without disturbing the edit structure.
    """
    n = rng.randint(1, max_len)
    src = [rng.choice(vocab) for _ in range(n)]
    tgt = list(src)
    for _ in range(rng.randint(0, max_edits)):
        kind = rng.choice(("insert", "delete", "replace"))
        if kind == "delete" and tgt:
            i = rng.randrange(len(tgt))
            del tgt[i:i + rng.randint(1, 3)]
        elif kind == "replace" and tgt:
            i = rng.randrange(len(tgt))
            width = rng.randint(1, min(3, len(tgt) - i))
            tgt[i:i + width] = [rng.choice(vocab) for _ in range(rng.randint(1, 3))]
        else:
            i = rng.randint(0, len(tgt))
            tgt[i:i] = [rng.choice(vocab) for _ in range(rng.randint(1, 3))]
    if tag is not None:
        src.insert(0, tag)
        tgt.insert(0, tag)
    return " ".join(src), " ".join(tgt)


def random_pairs(
    seed: int,
    count: int,
    max_len: int = 40,
    max_edits: int = 3,
    tagged: bool = False,
) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [
        random_pair(rng, max_len, max_edits, tag=f"u{i}" if tagged else None)
        for i in range(count)
    ]


def exhaustive_min_cost(
    src: Sequence[AnnotatedToken],
    tgt: Sequence[AnnotatedToken],
    weights: CostWeights,
) -> float:
    """Oracle: minimum alignment cost by enumerating every operation sequence.

    Walks the full lattice of delete/insert/substitute steps (plus adjacent
    crosswise-equal transpositions) with no memoization, so it shares no
    machinery with the dynamic program it checks. Costs accumulate along each
    path left to right, which keeps float sums comparable exactly.
    """
    n, m = len(src), len(tgt)
    best = [math.inf]

    def walk(i: int, j: int, acc: float) -> None:
        if i == n and j == m:
            if acc < best[0]:
                best[0] = acc
            return
        if i < n:
            walk(i + 1, j, acc + weights.delete_cost)
        if j < m:
            walk(i, j + 1, acc + weights.insert_cost)
        if i < n and j < m:
            a, b = src[i], tgt[j]
            sub = 0.0 if a.surface == b.surface else reference_discounted_sub(
                a.surface, b.surface, a.lemma == b.lemma, a.pos == b.pos, weights
            )
            walk(i + 1, j + 1, acc + sub)
        if (
            i + 1 < n
            and j + 1 < m
            and src[i].surface == tgt[j + 1].surface
            and src[i + 1].surface == tgt[j].surface
        ):
            walk(i + 2, j + 2, acc + weights.transpose_cost)

    walk(0, 0, 0.0)
    return best[0]
