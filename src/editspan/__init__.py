"""Edit-span tooling for sentence rewriting corpora.

Extracts compact edit scripts from sentence pairs, serializes and parses
them tolerantly, applies them deterministically, scores them, and assembles
mixed instruction datasets.

Each public name is imported from its module on first use (PEP 562), so
``import editspan`` loads no submodule and a command loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the module that defines it
_HOMES = {
    "alignment": "AlignOp Alignment CostWeights OpKind align char_levenshtein extract_line "
                 "extract_spans merge_ops read_kv_config",
    "codec": "EditScript EditSpan NONE_SENTINEL ParseReport apply_edits parse serialize "
             "split_fragments",
    "dataset": "DatasetRecord build_task_records mix_and_sample read_dataset_jsonl "
               "read_open_ended_jsonl write_jsonl",
    "errors": "BudgetError ConfigError DataError EditSpanError PairLineError",
    "metrics": "CompressionStat EditScore PairStats compression edit_f05 pair_stats reduce_stats",
    "tasks": "MixSpec OPEN_ENDED_TASK TASK_INSTRUCTIONS",
    "text": "AnnotatedToken AnnotationProvider NaiveProvider POS_TAGS Sentence SidecarProvider "
            "annotate detokenize make_provider normalize_pos parse_pair_line tokenize",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
