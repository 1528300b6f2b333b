"""Dataset substrates: synthetic bAbI tasks and Zipfian word streams."""

from .babi import (
    Example,
    TASK_NAMES,
    build_vocabulary,
    generate_example,
    generate_mixed,
    generate_task,
    vectorize,
)
from .babi_format import dump_examples, dumps_examples, load_examples, loads_examples
from .corpus import ZipfCorpus
from .vocab import Vocabulary, tokenize

__all__ = [
    "dump_examples",
    "dumps_examples",
    "load_examples",
    "loads_examples",
    "Example",
    "TASK_NAMES",
    "generate_example",
    "generate_task",
    "generate_mixed",
    "build_vocabulary",
    "vectorize",
    "ZipfCorpus",
    "Vocabulary",
    "tokenize",
]
