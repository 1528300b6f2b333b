"""Read and write the authentic bAbI text file format.

Facebook distributes the bAbI tasks as plain text where each line is

    <line-number> <sentence>

for story sentences, and

    <line-number> <question>\t<answer>\t<supporting line numbers>

for questions.  Line numbers restart at 1 for each new story.  This
module serializes the synthetic :class:`~repro.data.babi.Example`
values into exactly that format and parses it back, so the rest of the
pipeline (vectorization, training, zero-skip evaluation) can run
unchanged on the *real* bAbI files when they are available.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .babi import Example

__all__ = ["dump_examples", "dumps_examples", "load_examples", "loads_examples"]


def dumps_examples(examples: Iterable[Example]) -> str:
    """Serialize examples to bAbI-format text.

    Each example becomes one self-contained story: its sentences at
    lines 1..n followed by the question line with answer and
    1-based supporting line numbers.
    """
    lines: list[str] = []
    for example in examples:
        for index, sentence in enumerate(example.story, start=1):
            lines.append(f"{index} {' '.join(sentence)} .")
        supporting = " ".join(str(i + 1) for i in example.supporting)
        question_number = len(example.story) + 1
        lines.append(
            f"{question_number} {' '.join(example.question)} ?"
            f"\t{example.answer}\t{supporting}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def dump_examples(examples: Iterable[Example], path: str | Path) -> None:
    """Write examples to a bAbI-format file."""
    Path(path).write_text(dumps_examples(examples), encoding="utf-8")


def loads_examples(text: str, task_id: int = 0) -> list[Example]:
    """Parse bAbI-format text into examples.

    Handles the real files' structure: a story may contain *several*
    questions, each of which becomes its own example carrying the
    story lines seen so far (question lines are part of the numbering
    but are not story sentences, matching the official format).

    Args:
        text: file contents.
        task_id: task number to stamp on the parsed examples (the real
            files encode it in the filename, not the contents).
    """
    examples: list[Example] = []
    story: list[list[str]] = []
    # Maps the file's 1-based line number to an index into ``story``
    # (question lines occupy numbers but are not story sentences).
    line_to_story_index: dict[int, int] = {}

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        number_text, _, rest = line.partition(" ")
        try:
            number = int(number_text)
        except ValueError as error:
            raise ValueError(f"malformed bAbI line (no number): {raw_line!r}") from error
        if number == 1:
            story = []
            line_to_story_index = {}

        if "\t" in rest:
            question_part, answer, *support_part = rest.split("\t")
            question = _tokenize(question_part)
            supporting = []
            if support_part and support_part[0].strip():
                for token in support_part[0].split():
                    referenced = int(token)
                    if referenced not in line_to_story_index:
                        raise ValueError(
                            f"supporting fact {referenced} refers to a "
                            f"non-story line: {raw_line!r}"
                        )
                    supporting.append(line_to_story_index[referenced])
            examples.append(
                Example(
                    story=[list(s) for s in story],
                    question=question,
                    answer=answer.strip(),
                    supporting=supporting,
                    task_id=task_id,
                )
            )
        else:
            line_to_story_index[number] = len(story)
            story.append(_tokenize(rest))
    return examples


def load_examples(path: str | Path, task_id: int = 0) -> list[Example]:
    """Parse a bAbI-format file into examples."""
    return loads_examples(Path(path).read_text(encoding="utf-8"), task_id=task_id)


def _tokenize(text: str) -> list[str]:
    """Lowercase and strip the trailing punctuation bAbI files carry."""
    tokens = []
    for token in text.strip().split():
        token = token.strip().lower().strip(".?!,")
        if token:
            tokens.append(token)
    return tokens
