"""The rewriting tasks and the sampling settings of the instruction dataset.

Kept apart from ``editspan.dataset`` so that the command line can build its
parser, which names every task and shows the sampling defaults, without
loading the code that builds a dataset.
"""

from __future__ import annotations

from editspan._value import Value

TASK_INSTRUCTIONS: dict[str, str] = {
    "gec": "Rewrite the input text into grammatically correct text.",
    "paraphrase": "Rewrite the input text into paraphrased text.",
    "style": "Rewrite the input text into formal text.",
    "simplify": "Rewrite the input text into simpler text.",
}

OPEN_ENDED_TASK = "open_ended"
TASK_LABELS = tuple(TASK_INSTRUCTIONS) + (OPEN_ENDED_TASK,)


class MixSpec(Value):
    """Sampling counts and seed for the final mix.

    The class attributes are the defaults, which the command line reads.
    """

    per_task_count = 3000
    open_ended_count = 13000
    seed = 0

    def __init__(
        self,
        per_task_count: int = per_task_count,
        open_ended_count: int = open_ended_count,
        seed: int = seed,
    ) -> None:
        if per_task_count < 0 or open_ended_count < 0:
            raise ValueError("sample counts must be non-negative")
        self.__dict__.update(
            per_task_count=per_task_count, open_ended_count=open_ended_count, seed=seed
        )
