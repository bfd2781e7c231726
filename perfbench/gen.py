"""Seeded input generator for the benchmark workloads.

Everything here is a pure function of the workload seed (the vocabulary is a
fixed part of the workload definition, drawn from its own constant seed), so
the same seed always writes the same bytes. Nothing imports editspan: the
program under test sees only the files written here.
"""

from __future__ import annotations

import difflib
import json
import random
from pathlib import Path

VOCAB_SEED = 20230519
# Plain Zipf (weight 1/rank) over 5000 words. Extracting 3000 short pairs
# makes 1.50M char-distance lookups with 365,604 cache misses, close to the
# figures the benchmark was specified against (1.51M and 365,776).
VOCAB_SIZE = 5000

# punctuation takes high ranks, as in real text; no pure-digit tokens, because
# two integers after a comma would read as a span boundary
PUNCT = {0: ",", 1: ".", 9: "'s", 17: "(", 18: ")", 24: "?", 31: ";", 40: ":",
         55: "n't", 70: "!", 90: '"', 130: "--"}
_LETTERS = "etaoinshrdlcumwfgypbvkjxqz"
_LETTER_W = (127, 91, 82, 75, 70, 67, 63, 61, 60, 43, 40, 28, 28, 24, 24, 22,
             20, 20, 19, 15, 10, 8, 2, 2, 1, 1)
_WORD_LEN_W = (3, 17, 22, 18, 13, 10, 8, 6, 4, 3, 2, 1, 1, 1)  # lengths 1..14
_POS = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "CONJ", "PROPN", "AUX")
_POS_W = (34, 20, 12, 6, 6, 6, 8, 4, 3, 1)

TASK_MAX_EDITS = {"gec": 3, "paraphrase": 6, "style": 4, "simplify": 5}

# The hypothesis mix is an assumption, not a measured decoder's failure rates:
# gold spans most often, every kind of noise the codec must survive present,
# and loops of 20-60 copies of one fragment ("tens of times").
HYP_KINDS = ("gold", "off_by_one", "split", "malformed", "out_of_range", "none", "loop")
_HYP_W = (40, 10, 10, 10, 10, 8, 12)


class Vocab:
    """A generated vocabulary with Zipf weights and fixed lemma/POS per word."""

    def __init__(self, seed: int = VOCAB_SEED, size: int = VOCAB_SIZE) -> None:
        rng = random.Random(seed)
        words: list[str] = []
        seen = set(PUNCT.values())
        while len(words) + len(PUNCT) < size:
            n = rng.choices(range(1, 15), _WORD_LEN_W)[0]
            w = "".join(rng.choices(_LETTERS, _LETTER_W, k=n))
            if w not in seen:
                seen.add(w)
                words.append(w)
        it = iter(words)
        self.words = [PUNCT[r] if r in PUNCT else next(it) for r in range(size)]
        cum, total = [], 0.0
        for rank in range(size):
            total += 1.0 / (rank + 1)
            cum.append(total)
        self.cum = cum
        # sidecar annotation: a function of the word alone, so a sentence's
        # block is the same wherever and however often it is written
        self.annot = {}
        for w in self.words:
            if w in PUNCT.values():
                self.annot[w] = (w, "PUNCT")
                continue
            pos = rng.choices(_POS, _POS_W)[0]
            lemma = w
            for suffix in ("ing", "ed", "s"):
                if w.endswith(suffix) and len(w) > len(suffix) + 2:
                    lemma = w[: -len(suffix)]
                    break
            self.annot[w] = (lemma, pos)

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


def edit_pair(rng: random.Random, vocab: Vocab, n: int, n_edits: int) -> tuple[list[str], list[str]]:
    """The edit model of ``tests/conftest.py::random_pair`` over a Zipf vocabulary."""
    src = vocab.draw(rng, n)
    tgt = list(src)
    for _ in range(n_edits):
        kind = rng.choice(("insert", "delete", "replace"))
        if kind == "delete" and tgt:
            i = rng.randrange(len(tgt))
            del tgt[i:i + rng.randint(1, 3)]
        elif kind == "replace" and tgt:
            i = rng.randrange(len(tgt))
            width = rng.randint(1, min(3, len(tgt) - i))
            tgt[i:i + width] = vocab.draw(rng, rng.randint(1, 3))
        else:
            i = rng.randint(0, len(tgt))
            tgt[i:i] = vocab.draw(rng, rng.randint(1, 3))
    return src, tgt


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` evenly spaced values from ``lo`` to ``hi``, in seeded order.

    Fixed lengths keep the total work of a corpus nearly the same from seed to
    seed, so throughput and latency stay comparable across seeds.
    """
    if count == 1:
        return [hi]
    values = [lo + i * (hi - lo) // (count - 1) for i in range(count)]
    rng.shuffle(values)
    return values


def short_pairs(rng, vocab, count, max_len=40, max_edits=3):
    return [edit_pair(rng, vocab, n, rng.randint(0, max_edits))
            for n in stratified(rng, 1, max_len, count)]


def long_pairs(rng, vocab, count, lo=200, hi=800):
    # ascending, not shuffled: with so few pairs the order decides how warm the
    # char-distance cache is when each pair starts, and it must not vary by seed
    return [edit_pair(rng, vocab, n, rng.randint(1, 3))
            for n in sorted(stratified(rng, lo, hi, count))]


def gold_spans(src: list[str], tgt: list[str]) -> list[tuple[int, int, list[str]]]:
    """A correct (not necessarily canonical) span list turning ``src`` into ``tgt``."""
    ops = difflib.SequenceMatcher(None, src, tgt, autojunk=False).get_opcodes()
    return [(i1, i2, tgt[j1:j2]) for tag, i1, i2, j1, j2 in ops if tag != "equal"]


def fmt(spans) -> str:
    if not spans:
        return "None"
    return ", ".join(" ".join([str(s), str(e), *rep]) for s, e, rep in spans)


def hypothesis(rng, vocab, src, tgt) -> tuple[str, str]:
    """One model-style hypothesis for a pair, and the kind of noise it carries."""
    gold = gold_spans(src, tgt)
    n = len(src)
    kind = rng.choices(HYP_KINDS, _HYP_W)[0]
    if kind == "gold" or (not gold and kind in ("off_by_one", "split")):
        return fmt(gold), "gold"
    if kind == "off_by_one":
        k = rng.randrange(len(gold))
        s, e, rep = gold[k]
        d = rng.choice((-1, 1))
        spans = list(gold)
        spans[k] = (max(0, s + d), max(0, e + d), rep)
        return fmt(spans), kind
    if kind == "split":
        parts = []
        for s, e, rep in gold:
            if e - s >= 2:
                parts += [(s, s + 1, rep), (s + 1, e, [])]
            elif len(rep) >= 2:
                parts += [(s, e, rep[:1]), (e, e, rep[1:])]
            else:
                parts.append((s, e, rep))
        return fmt(parts), kind
    if kind == "malformed":
        junk = rng.choice(("x y z", "", "3", "-1 2 " + vocab.draw(rng, 1)[0],
                           " ".join(vocab.draw(rng, 2)) + " 4 5", f"{n} {n}"))
        frags = [fmt([g]) for g in gold]
        frags.insert(rng.randint(0, len(frags)), junk)
        return ", ".join(frags), kind
    if kind == "out_of_range":
        bad = rng.choice(((n + 2, n + 4, vocab.draw(rng, 1)), (3, 1, []), (n, n + 1, [])))
        frags = [fmt([g]) for g in gold] + [fmt([bad])]
        rng.shuffle(frags)
        return ", ".join(frags), kind
    if kind == "none":
        return "None", kind
    # repetition loop: one fragment emitted tens of times
    frag = fmt([gold[0]]) if gold else fmt([(0, 0, vocab.draw(rng, 1))])
    return ", ".join([frag] * rng.randint(20, 60)), "loop"


def _write(path: Path, lines) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")


def _tsv(pairs) -> list[str]:
    return [" ".join(s) + "\t" + " ".join(t) for s, t in pairs]


def write_pairs(out: Path, pairs, setup_pair) -> None:
    _write(out / "pairs.tsv", _tsv(pairs))
    _write(out / "one.tsv", _tsv([setup_pair]))


def write_decode(out: Path, rng, vocab, pairs, setup_pair) -> None:
    hyps = [hypothesis(rng, vocab, s, t) for s, t in pairs]
    _write(out / "sources.txt", (" ".join(s) for s, _ in pairs))
    _write(out / "targets.txt", (" ".join(t) for _, t in pairs))
    _write(out / "hyps.txt", (h for h, _ in hyps))
    _write(out / "kinds.txt", (k for _, k in hyps))
    s, t = setup_pair
    _write(out / "one_sources.txt", [" ".join(s)])
    _write(out / "one_targets.txt", [" ".join(t)])
    _write(out / "one_hyps.txt", [fmt(gold_spans(s, t))])


def write_dataset(out: Path, rng, vocab, per_task_lines: int, open_lines: int) -> None:
    sentences: dict[tuple[str, ...], None] = {}
    for task, max_edits in TASK_MAX_EDITS.items():
        pairs = short_pairs(rng, vocab, per_task_lines, max_edits=max_edits)
        for s, t in pairs:
            sentences[tuple(s)] = sentences[tuple(t)] = None
        _write(out / f"{task}.tsv", _tsv(pairs))
        _write(out / f"one_{task}.tsv", _tsv(pairs[:1]))
    records = []
    for _ in range(open_lines):
        records.append(json.dumps({
            "instruction": " ".join(vocab.draw(rng, rng.randint(4, 12))),
            "input": " ".join(vocab.draw(rng, rng.randint(0, 20))),
            "output": " ".join(vocab.draw(rng, rng.randint(5, 40))),
        }, ensure_ascii=False))
    _write(out / "open.jsonl", records)
    _write(out / "one_open.jsonl", records[:1])
    sidecar = []
    for sent in sentences:
        if not sent:
            continue
        sidecar.extend(f"{w}\t{vocab.annot[w][0]}\t{vocab.annot[w][1]}" for w in sent)
        sidecar.append("")
    _write(out / "sidecar.tsv", sidecar)


def setup_pair(rng, vocab) -> tuple[list[str], list[str]]:
    return edit_pair(rng, vocab, 8, 1)
