"""The value-type contract every record type of the package keeps.

Each type is immutable, builds the same from positional and keyword
arguments, compares and hashes by its fields against its own class only,
has a dataclass-style ``repr``, and survives a ``pickle`` round trip (the
``--jobs`` pool ships the provider, the weights, ``PairStats`` and
``DatasetRecord`` between processes). A value the library builds without its
checks, because its fields are valid by construction, is the same value.
"""

from __future__ import annotations

import pickle

import pytest

from editspan import dataset
from editspan import (
    apply_edits,
    extract_spans,
    parse,
    tokenize,
)
from editspan import (
    AnnotatedToken,
    CompressionStat,
    CostWeights,
    DatasetRecord,
    EditScore,
    EditScript,
    EditSpan,
    MixSpec,
    NaiveProvider,
    PairStats,
    ParseReport,
    Sentence,
    SidecarProvider,
)
from reference import ValidationReport

_SPAN = EditSpan(1, 2, ("goes",))
_SCRIPT = EditScript((_SPAN,), 5)
_ANNOTATIONS = {("a",): (AnnotatedToken("a", "a", "DET"),)}

# id: (class, positional args, the same as keywords, repr, positional args of an unequal value)
CASES = {
    "CostWeights": (
        CostWeights, (), {},
        "CostWeights(w_lemma=0.5, w_pos=0.4, w_char=0.6, insert_cost=1.0, "
        "delete_cost=1.0, transpose_cost=1.1, sub_floor=0.1)",
        (0.5, 0.4, 0.6, 1.0, 1.0, 5.0),
    ),
    "CostWeights-all": (
        CostWeights, (0.1, 0.2, 0.3, 2.0, 3.0, 4.0, 0.5),
        dict(w_lemma=0.1, w_pos=0.2, w_char=0.3, insert_cost=2.0, delete_cost=3.0,
             transpose_cost=4.0, sub_floor=0.5),
        "CostWeights(w_lemma=0.1, w_pos=0.2, w_char=0.3, insert_cost=2.0, "
        "delete_cost=3.0, transpose_cost=4.0, sub_floor=0.5)",
        (),
    ),
    "EditSpan": (
        EditSpan, (1, 2, ("goes",)), dict(start=1, end=2, replacement=["goes"]),
        "EditSpan(start=1, end=2, replacement=('goes',))",
        (1, 2, ("go",)),
    ),
    "EditSpan-deletion": (
        EditSpan, (0, 1), dict(start=0, end=1),
        "EditSpan(start=0, end=1, replacement=())",
        (0, 2),
    ),
    "EditScript": (
        EditScript, ((_SPAN,), 5), dict(spans=[_SPAN], source_len=5),
        "EditScript(spans=(EditSpan(start=1, end=2, replacement=('goes',)),), source_len=5)",
        ((), 5),
    ),
    "EditScript-empty": (
        EditScript, (), {}, "EditScript(spans=(), source_len=0)", ((), 1),
    ),
    "ParseReport": (
        ParseReport, (_SCRIPT, ((0, "noop"),)), dict(script=_SCRIPT, discarded=((0, "noop"),)),
        "ParseReport(script=EditScript(spans=(EditSpan(start=1, end=2, "
        "replacement=('goes',)),), source_len=5), discarded=((0, 'noop'),))",
        (_SCRIPT,),
    ),
    "Sentence": (
        Sentence, (("She", "go"),), dict(surfaces=("She", "go")),
        "Sentence(surfaces=('She', 'go'))",
        (("She", "goes"),),
    ),
    "NaiveProvider": (NaiveProvider, (), {}, "NaiveProvider()", None),
    "SidecarProvider": (
        SidecarProvider, (_ANNOTATIONS,), dict(annotations=_ANNOTATIONS),
        "SidecarProvider(annotations={('a',): (AnnotatedToken(surface='a', lemma='a', "
        "pos='DET'),)})",
        ({},),
    ),
    "CompressionStat": (
        CompressionStat, (3, 4), dict(span_tokens=3, target_tokens=4),
        "CompressionStat(span_tokens=3, target_tokens=4)",
        (3, 5),
    ),
    "EditScore": (
        EditScore, (1, 2, 3), dict(tp=1, fp=2, fn=3), "EditScore(tp=1, fp=2, fn=3)", (1, 2, 4),
    ),
    "PairStats": (
        PairStats, (True, 0.5, 1, 0, 2, 3),
        dict(agree=True, ratio=0.5, tp=1, fp=0, fn=2, ignored=3),
        "PairStats(agree=True, ratio=0.5, tp=1, fp=0, fn=2, ignored=3, over_budget=False)",
        (True, 0.5, 1, 0, 2, 3, True),
    ),
    "DatasetRecord": (
        DatasetRecord, ("Fix it.", "a b", "1 2 c", "gec"),
        dict(instruction="Fix it.", input="a b", output="1 2 c", task="gec"),
        "DatasetRecord(instruction='Fix it.', input='a b', output='1 2 c', task='gec')",
        ("Fix it.", "a b", "1 2 c", "style"),
    ),
    "MixSpec": (
        MixSpec, (), {}, "MixSpec(per_task_count=3000, open_ended_count=13000, seed=0)",
        (3000, 13000, 1),
    ),
    "MixSpec-all": (
        MixSpec, (5, 6, 7), dict(per_task_count=5, open_ended_count=6, seed=7),
        "MixSpec(per_task_count=5, open_ended_count=6, seed=7)",
        (5, 6, 8),
    ),
    "ValidationReport": (
        ValidationReport, (2, 1, ((0, "bad"),)),
        dict(total=2, checked=1, failures=((0, "bad"),)),
        "ValidationReport(total=2, checked=1, failures=((0, 'bad'),))",
        (2, 1, ()),
    ),
}


@pytest.mark.parametrize(("cls", "args", "kwargs", "text", "other"), CASES.values(), ids=CASES)
def test_value_type_contract(cls, args, kwargs, text, other):
    value = cls(*args)
    assert cls(**kwargs) == value
    assert repr(value) == repr(cls(**kwargs)) == text
    if other is not None:
        assert cls(*other) != value
    # equal only to its own class: not to a subclass with the same fields
    twin = type("Twin", (cls,), {})(*args)
    assert twin != value and value != twin
    assert value != tuple(vars(value).values())
    if cls is SidecarProvider:  # its mapping is not hashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(cls(**kwargs)) == hash(value)
        assert len({value, cls(*args)}) == 1

    for name in [*vars(value), "name", "unknown"]:
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name, None) == before
    assert repr(value) == text

    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is cls
    assert restored == value
    assert repr(restored) == text


def test_field_name_tuples_match_the_constructors():
    # from_mapping and the dataset reader check keys against these tuples
    assert CostWeights._FIELDS == tuple(vars(CostWeights()))
    assert dataset._FIELDS == tuple(vars(DatasetRecord("", "", "", "gec")))


def _sidecar_from_file(tmp_path):
    path = tmp_path / "annotations.tsv"
    path.write_text("She\tshe\tPRON\ngo\tgo\tVERB\n\nx\tx\tX\n", encoding="utf-8")
    return SidecarProvider.from_file(path)


# id: builds, from a tmp_path, a value the library constructs without its checks
TRUSTED = {
    "tokenize": lambda tmp_path: tokenize(" She  go\tto school . "),
    "tokenize-empty": lambda tmp_path: tokenize(" \t "),
    "apply_edits": lambda tmp_path: apply_edits(_SCRIPT, Sentence(tuple("abcde"))),
    "parse-span": lambda tmp_path: parse("4 4 z, 1 2 goes  on", 5).script.spans[0],
    "parse-script": lambda tmp_path: parse("4 4 z, 1 2 goes  on, 2 3", 5).script,
    "parse-report": lambda tmp_path: parse("4 4 z, x, 1 2 goes", 5),
    "extract-span": lambda tmp_path: extract_spans(
        tokenize("She go to school"), tokenize("She goes to the school")
    ).spans[0],
    "extract-script": lambda tmp_path: extract_spans(
        tokenize("a b c d"), tokenize("x a c d e")
    ),
    "sidecar-from-file": _sidecar_from_file,
}


@pytest.mark.parametrize("build", TRUSTED.values(), ids=TRUSTED)
def test_trusted_values_are_the_checked_ones(build, tmp_path):
    value = build(tmp_path)
    # the same fields, in the same order, through the checked constructor
    checked = type(value)(**vars(value))
    assert list(vars(value)) == list(vars(checked))
    assert value == checked and checked == value
    assert repr(value) == repr(checked)
    if not isinstance(value, SidecarProvider):
        assert hash(value) == hash(checked)
    for name in vars(value):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    restored = pickle.loads(pickle.dumps(value))
    assert restored == checked and repr(restored) == repr(checked)
