"""Synthetic bAbI-style question-answering tasks (Weston et al. 2015).

The paper's accuracy/sparsity results (Figs. 6 and 7) are measured on
Facebook's 20 bAbI tasks.  bAbI itself is template-generated synthetic
data; this module regenerates the same *task structures* from seeded
simulations so the trained memory network exhibits the same
sparse-attention behaviour zero-skipping exploits (see DESIGN.md §2).

Every task is a generator function producing :class:`Example` values:
a tokenized story, a question, a single answer token (multi-answer
tasks join with commas, exactly as bAbI does), and the indices of the
supporting facts.

All twenty task families are implemented:

====  =========================  ====  =========================
 1    single supporting fact      11   basic coreference
 2    two supporting facts        12   conjunction
 3    three supporting facts      13   compound coreference
 4    two-argument relations      14   time reasoning
 5    three-argument relations    15   basic deduction
 6    yes/no questions            16   basic induction
 7    counting                    17   positional reasoning
 8    lists / sets                18   size reasoning
 9    simple negation             19   path finding
10    indefinite knowledge        20   agent's motivation
====  =========================  ====  =========================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .vocab import Vocabulary

__all__ = [
    "Example",
    "SCALABLE_TASKS",
    "TASK_NAMES",
    "generate_example",
    "generate_task",
    "generate_mixed",
    "build_vocabulary",
    "vectorize",
]

ACTORS = ("mary", "john", "daniel", "sandra", "fred", "bill", "julie", "jeff")
LOCATIONS = (
    "kitchen", "bathroom", "bedroom", "garden", "office", "hallway",
    "park", "school", "cinema",
)
OBJECTS = ("football", "apple", "milk", "book", "knife")
MOVE_VERBS = ("went to", "moved to", "travelled to", "journeyed to")
GRAB_VERBS = ("grabbed", "took", "picked up")
DROP_VERBS = ("dropped", "discarded", "put down")
NUMBER_WORDS = ("none", "one", "two", "three", "four", "five")

TASK_NAMES = {
    1: "single-supporting-fact",
    2: "two-supporting-facts",
    3: "three-supporting-facts",
    4: "two-arg-relations",
    5: "three-arg-relations",
    6: "yes-no-questions",
    7: "counting",
    8: "lists-sets",
    9: "simple-negation",
    10: "indefinite-knowledge",
    11: "basic-coreference",
    12: "conjunction",
    13: "compound-coreference",
    14: "time-reasoning",
    15: "basic-deduction",
    16: "basic-induction",
    17: "positional-reasoning",
    18: "size-reasoning",
    19: "path-finding",
    20: "agents-motivation",
}


@dataclass
class Example:
    """One story/question/answer triple.

    Attributes:
        story: tokenized sentences, oldest first.
        question: tokenized question.
        answer: the answer token (comma-joined when multi-valued).
        supporting: indices into ``story`` of the facts that determine
            the answer.
        task_id: which bAbI task family generated it.
    """

    story: list[list[str]]
    question: list[str]
    answer: str
    supporting: list[int]
    task_id: int

    @property
    def num_sentences(self) -> int:
        return len(self.story)


def _sentence(text: str) -> list[str]:
    return text.split()


def _choice(rng: np.random.Generator, items) -> object:
    return items[int(rng.integers(len(items)))]


def _distinct(rng: np.random.Generator, items, k: int) -> list:
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[int(i)] for i in idx]


# --- location world (tasks 1-3, 6-13) -----------------------------------------------


@dataclass
class _World:
    """Mutable actor/object state driven by the generators."""

    locations: dict[str, str] = field(default_factory=dict)
    holding: dict[str, list[str]] = field(default_factory=dict)
    object_site: dict[str, str] = field(default_factory=dict)
    # Story indices of the facts that currently determine each answer.
    actor_fact: dict[str, int] = field(default_factory=dict)
    object_facts: dict[str, list[int]] = field(default_factory=dict)

    def move(self, actor: str, location: str, index: int) -> None:
        self.locations[actor] = location
        self.actor_fact[actor] = index
        for obj in self.holding.get(actor, []):
            self.object_site[obj] = location
            self.object_facts[obj] = self.object_facts.get(obj, []) + [index]

    def grab(self, actor: str, obj: str, index: int) -> None:
        self.holding.setdefault(actor, []).append(obj)
        self.object_site[obj] = self.locations[actor]
        self.object_facts[obj] = [index, self.actor_fact[actor]]

    def drop(self, actor: str, obj: str, index: int) -> None:
        self.holding[actor].remove(obj)
        # The object stays where it was dropped; that fact plus the
        # actor's position fact pin it down.
        self.object_facts[obj] = [index, self.actor_fact[actor]]


def _simulate_moves(
    rng: np.random.Generator,
    length: int,
    with_objects: bool = False,
) -> tuple[list[list[str]], _World]:
    """Random walk of actors (optionally carrying objects)."""
    world = _World()
    actors = _distinct(rng, ACTORS, 4)
    story: list[list[str]] = []
    for index in range(length):
        actor = _choice(rng, actors)
        can_grab = (
            with_objects
            and actor in world.locations
            and len(world.holding.get(actor, [])) < 2
            and len(world.object_site) < len(OBJECTS)
        )
        can_drop = with_objects and world.holding.get(actor)
        roll = rng.random()
        if can_grab and roll < 0.3:
            taken = set()
            for held in world.holding.values():
                taken.update(held)
            taken.update(world.object_site)
            obj = _choice(rng, [o for o in OBJECTS if o not in taken])
            story.append(_sentence(f"{actor} {_choice(rng, GRAB_VERBS)} the {obj}"))
            world.grab(actor, obj, index)
        elif can_drop and roll < 0.45:
            obj = _choice(rng, world.holding[actor])
            story.append(_sentence(f"{actor} {_choice(rng, DROP_VERBS)} the {obj}"))
            world.drop(actor, obj, index)
        else:
            location = _choice(rng, LOCATIONS[:6])
            story.append(_sentence(f"{actor} {_choice(rng, MOVE_VERBS)} the {location}"))
            world.move(actor, location, index)
    return story, world




def _scaled(rng: np.random.Generator, lo: int, hi: int, scale: float) -> int:
    """Random story length in [lo, hi) stretched by ``scale``."""
    if scale <= 0:
        raise ValueError(f"story_scale must be positive, got {scale}")
    return max(1, int(round(int(rng.integers(lo, hi)) * scale)))

# --- the twenty tasks ------------------------------------------------------------


def _task_1(rng: np.random.Generator, story_scale: float = 1.0) -> Example:
    """Where is actor X?  One move sentence answers it."""
    story, world = _simulate_moves(rng, _scaled(rng, 4, 11, story_scale))
    actor = _choice(rng, sorted(world.locations))
    return Example(
        story=story,
        question=_sentence(f"where is {actor}"),
        answer=world.locations[actor],
        supporting=[world.actor_fact[actor]],
        task_id=1,
    )


def _task_2(rng: np.random.Generator, story_scale: float = 1.0) -> Example:
    """Where is object O?  Needs the grab fact and the holder's move."""
    while True:
        story, world = _simulate_moves(
            rng, _scaled(rng, 6, 14, story_scale), with_objects=True
        )
        placed = sorted(world.object_site)
        if placed:
            obj = _choice(rng, placed)
            return Example(
                story=story,
                question=_sentence(f"where is the {obj}"),
                answer=world.object_site[obj],
                supporting=sorted(set(world.object_facts[obj]))[-2:],
                task_id=2,
            )


def _task_3(rng: np.random.Generator) -> Example:
    """Where was object O before location L?  Needs three facts: the
    grab plus the two moves that carried the object through ``loc_b``
    into ``loc_c``."""
    actor = _choice(rng, ACTORS[:4])
    obj = _choice(rng, OBJECTS)
    loc_a, loc_b, loc_c = _distinct(rng, LOCATIONS[:6], 3)
    distractors, _ = _simulate_moves(rng, int(rng.integers(2, 6)))
    story = list(distractors)
    base = len(story)
    story.append(_sentence(f"{actor} {_choice(rng, MOVE_VERBS)} the {loc_a}"))
    story.append(_sentence(f"{actor} {_choice(rng, GRAB_VERBS)} the {obj}"))
    story.append(_sentence(f"{actor} {_choice(rng, MOVE_VERBS)} the {loc_b}"))
    story.append(_sentence(f"{actor} {_choice(rng, MOVE_VERBS)} the {loc_c}"))
    return Example(
        story=story,
        question=_sentence(f"where was the {obj} before the {loc_c}"),
        answer=loc_b,
        supporting=[base + 1, base + 2, base + 3],
        task_id=3,
    )


_DIRECTIONS = {"north": "south", "south": "north", "east": "west", "west": "east"}


def _task_4(rng: np.random.Generator) -> Example:
    """Two-argument relations: what is north of the bedroom?"""
    loc_a, loc_b, loc_c = _distinct(rng, LOCATIONS[:6], 3)
    d1, d2 = _distinct(rng, sorted(_DIRECTIONS), 2)
    story = [
        _sentence(f"the {loc_a} is {d1} of the {loc_b}"),
        _sentence(f"the {loc_c} is {d2} of the {loc_b}"),
    ]
    if rng.random() < 0.5:
        question = _sentence(f"what is {d1} of the {loc_b}")
        answer, supporting = loc_a, [0]
    else:
        question = _sentence(f"what is the {loc_a} {d1} of")
        answer, supporting = loc_b, [0]
    return Example(story, question, answer, supporting, task_id=4)


def _task_5(rng: np.random.Generator) -> Example:
    """Three-argument relations: who gave the cake to Fred?"""
    gifts = ("cake", "football", "apple", "milk")
    story = []
    events = []
    for _ in range(int(rng.integers(2, 5))):
        giver, receiver = _distinct(rng, ACTORS[:5], 2)
        obj = _choice(rng, gifts)
        story.append(_sentence(f"{giver} gave the {obj} to {receiver}"))
        events.append((giver, obj, receiver))
    index = int(rng.integers(len(events)))
    giver, obj, receiver = events[index]
    kind = rng.random()
    if kind < 1 / 3:
        question, answer = f"who gave the {obj} to {receiver}", giver
    elif kind < 2 / 3:
        question, answer = f"what did {giver} give to {receiver}", obj
    else:
        question, answer = f"who did {giver} give the {obj} to", receiver
    # Ask about the last matching event so the answer is unique.
    for later in range(len(events) - 1, index, -1):
        g, o, r = events[later]
        if (kind < 1 / 3 and (o, r) == (obj, receiver)) or (
            1 / 3 <= kind < 2 / 3 and (g, r) == (giver, receiver)
        ) or (kind >= 2 / 3 and (g, o) == (giver, obj)):
            index = later
            answer = g if kind < 1 / 3 else o if kind < 2 / 3 else r
            break
    return Example(story, _sentence(question), answer, [index], task_id=5)


def _task_6(rng: np.random.Generator, story_scale: float = 1.0) -> Example:
    """Yes/no: is actor X in location L?"""
    story, world = _simulate_moves(rng, _scaled(rng, 4, 10, story_scale))
    actor = _choice(rng, sorted(world.locations))
    actual = world.locations[actor]
    if rng.random() < 0.5:
        asked, answer = actual, "yes"
    else:
        asked = _choice(rng, [loc for loc in LOCATIONS[:6] if loc != actual])
        answer = "no"
    return Example(
        story,
        _sentence(f"is {actor} in the {asked}"),
        answer,
        [world.actor_fact[actor]],
        task_id=6,
    )


def _task_7(rng: np.random.Generator, story_scale: float = 1.0) -> Example:
    """Counting: how many objects is X carrying?"""
    story, world = _simulate_moves(
        rng, _scaled(rng, 6, 14, story_scale), with_objects=True
    )
    actor = _choice(rng, sorted(world.locations))
    count = len(world.holding.get(actor, []))
    supporting = [
        i for i, s in enumerate(story)
        if s[0] == actor and " ".join(s[1:-2]) in GRAB_VERBS + DROP_VERBS
    ]
    return Example(
        story,
        _sentence(f"how many objects is {actor} carrying"),
        NUMBER_WORDS[count],
        supporting or [world.actor_fact[actor]],
        task_id=7,
    )


def _task_8(rng: np.random.Generator, story_scale: float = 1.0) -> Example:
    """Lists/sets: what is X carrying?  (comma-joined answer)"""
    story, world = _simulate_moves(
        rng, _scaled(rng, 6, 14, story_scale), with_objects=True
    )
    actor = _choice(rng, sorted(world.locations))
    held = world.holding.get(actor, [])
    answer = ",".join(sorted(held)) if held else "nothing"
    supporting = [
        i for i, s in enumerate(story)
        if s[0] == actor and " ".join(s[1:-2]) in GRAB_VERBS + DROP_VERBS
    ]
    return Example(
        story,
        _sentence(f"what is {actor} carrying"),
        answer,
        supporting or [world.actor_fact[actor]],
        task_id=8,
    )


def _task_9(rng: np.random.Generator, story_scale: float = 1.0) -> Example:
    """Simple negation: X is no longer in the kitchen."""
    actors = _distinct(rng, ACTORS[:5], 3)
    story: list[list[str]] = []
    state: dict[str, tuple[str, bool, int]] = {}  # actor -> (loc, present?, idx)
    for _ in range(_scaled(rng, 4, 9, story_scale)):
        actor = _choice(rng, actors)
        if actor in state and state[actor][1] and rng.random() < 0.35:
            loc = state[actor][0]
            story.append(_sentence(f"{actor} is no longer in the {loc}"))
            state[actor] = (loc, False, len(story) - 1)
        else:
            loc = _choice(rng, LOCATIONS[:6])
            story.append(_sentence(f"{actor} is in the {loc}"))
            state[actor] = (loc, True, len(story) - 1)
    actor = _choice(rng, sorted(state))
    loc, present, index = state[actor]
    answer = "yes" if present else "no"
    return Example(
        story, _sentence(f"is {actor} in the {loc}"), answer, [index], task_id=9
    )


def _task_10(rng: np.random.Generator) -> Example:
    """Indefinite knowledge: X is either in the A or the B -> maybe."""
    actors = _distinct(rng, ACTORS[:5], 3)
    story: list[list[str]] = []
    state: dict[str, tuple[tuple[str, ...], int]] = {}
    for _ in range(int(rng.integers(3, 8))):
        actor = _choice(rng, actors)
        if rng.random() < 0.5:
            pair = tuple(_distinct(rng, LOCATIONS[:6], 2))
            story.append(
                _sentence(f"{actor} is either in the {pair[0]} or the {pair[1]}")
            )
            state[actor] = (pair, len(story) - 1)
        else:
            loc = _choice(rng, LOCATIONS[:6])
            story.append(_sentence(f"{actor} is in the {loc}"))
            state[actor] = ((loc,), len(story) - 1)
    actor = _choice(rng, sorted(state))
    places, index = state[actor]
    roll = rng.random()
    if len(places) == 1:
        if roll < 0.5:
            asked, answer = places[0], "yes"
        else:
            asked = _choice(rng, [loc for loc in LOCATIONS[:6] if loc not in places])
            answer = "no"
    else:
        if roll < 0.5:
            asked, answer = _choice(rng, places), "maybe"
        else:
            asked = _choice(rng, [loc for loc in LOCATIONS[:6] if loc not in places])
            answer = "no"
    return Example(
        story, _sentence(f"is {actor} in the {asked}"), answer, [index], task_id=10
    )


def _task_11(rng: np.random.Generator) -> Example:
    """Basic coreference: afterwards she went to the garden."""
    actor = _choice(rng, ACTORS[:6])
    pronoun = "she" if actor in ("mary", "sandra", "julie") else "he"
    loc_a, loc_b = _distinct(rng, LOCATIONS[:6], 2)
    others, _ = _simulate_moves(rng, int(rng.integers(1, 4)))
    story = list(others)
    base = len(story)
    story.append(_sentence(f"{actor} {_choice(rng, MOVE_VERBS)} the {loc_a}"))
    story.append(_sentence(f"afterwards {pronoun} {_choice(rng, MOVE_VERBS)} the {loc_b}"))
    return Example(
        story,
        _sentence(f"where is {actor}"),
        loc_b,
        [base, base + 1],
        task_id=11,
    )


def _task_12(rng: np.random.Generator, story_scale: float = 1.0) -> Example:
    """Conjunction: Mary and John went to the office."""
    story: list[list[str]] = []
    state: dict[str, tuple[str, int]] = {}
    for _ in range(_scaled(rng, 3, 7, story_scale)):
        pair = _distinct(rng, ACTORS[:6], 2)
        loc = _choice(rng, LOCATIONS[:6])
        story.append(
            _sentence(f"{pair[0]} and {pair[1]} {_choice(rng, MOVE_VERBS)} the {loc}")
        )
        for actor in pair:
            state[actor] = (loc, len(story) - 1)
    actor = _choice(rng, sorted(state))
    loc, index = state[actor]
    return Example(story, _sentence(f"where is {actor}"), loc, [index], task_id=12)


def _task_13(rng: np.random.Generator) -> Example:
    """Compound coreference: then they went to the garden."""
    pair = _distinct(rng, ACTORS[:6], 2)
    loc_a, loc_b = _distinct(rng, LOCATIONS[:6], 2)
    others, _ = _simulate_moves(rng, int(rng.integers(1, 4)))
    story = list(others)
    base = len(story)
    story.append(
        _sentence(f"{pair[0]} and {pair[1]} {_choice(rng, MOVE_VERBS)} the {loc_a}")
    )
    story.append(_sentence(f"then they {_choice(rng, MOVE_VERBS)} the {loc_b}"))
    actor = _choice(rng, pair)
    return Example(
        story, _sentence(f"where is {actor}"), loc_b, [base, base + 1], task_id=13
    )


_TIME_SLOTS = ("yesterday", "this morning", "this afternoon", "this evening")


def _task_14(rng: np.random.Generator) -> Example:
    """Time reasoning: where was X yesterday?"""
    actor = _choice(rng, ACTORS[:6])
    slots = list(_TIME_SLOTS)
    locs = _distinct(rng, LOCATIONS[3:9], len(slots))
    order = rng.permutation(len(slots))
    story = []
    slot_index = {}
    for position in order:
        slot, loc = slots[int(position)], locs[int(position)]
        story.append(_sentence(f"{slot} {actor} {_choice(rng, MOVE_VERBS)} the {loc}"))
        slot_index[slot] = len(story) - 1
    asked = int(rng.integers(len(slots)))
    slot, answer = slots[asked], locs[asked]
    return Example(
        story,
        _sentence(f"where was {actor} {slot}"),
        answer,
        [slot_index[slot]],
        task_id=14,
    )


_SPECIES = ("mice", "cats", "wolves", "sheep")
_FEARS = {"mice": "cats", "sheep": "wolves", "cats": "wolves", "wolves": "mice"}
_SINGULAR = {"mice": "mouse", "cats": "cat", "wolves": "wolf", "sheep": "sheep"}
_PET_NAMES = ("gertrude", "emily", "winona", "jessica")


def _task_15(rng: np.random.Generator) -> Example:
    """Basic deduction: Gertrude is a mouse; mice fear cats."""
    story = [
        _sentence(f"{species} are afraid of {_FEARS[species]}")
        for species in _SPECIES
    ]
    assignments = {}
    for name in _PET_NAMES:
        species = _choice(rng, _SPECIES)
        story.append(_sentence(f"{name} is a {_SINGULAR[species]}"))
        assignments[name] = (species, len(story) - 1)
    name = _choice(rng, _PET_NAMES)
    species, index = assignments[name]
    rule_index = _SPECIES.index(species)
    return Example(
        story,
        _sentence(f"what is {name} afraid of"),
        _FEARS[species],
        [rule_index, index],
        task_id=15,
    )


_BIRDS = ("swan", "lion", "frog", "rhino")
_COLORS = ("white", "yellow", "green", "gray")
_EXEMPLARS = ("lily", "bernhard", "greg", "brian")


def _task_16(rng: np.random.Generator) -> Example:
    """Basic induction: Lily is a swan; Lily is white; Bernhard is a swan."""
    species_color = {
        species: color
        for species, color in zip(_BIRDS, rng.permutation(_COLORS))
    }
    story = []
    witness_facts = {}
    for name, species in zip(_EXEMPLARS[:-1], _BIRDS[:-1]):
        story.append(_sentence(f"{name} is a {species}"))
        story.append(_sentence(f"{name} is {species_color[species]}"))
        witness_facts[species] = [len(story) - 2, len(story) - 1]
    target = _EXEMPLARS[-1]
    species = _choice(rng, _BIRDS[:-1])
    story.append(_sentence(f"{target} is a {species}"))
    supporting = witness_facts[species] + [len(story) - 1]
    return Example(
        story,
        _sentence(f"what color is {target}"),
        species_color[species],
        supporting,
        task_id=16,
    )


_SHAPES = ("triangle", "square", "circle", "rectangle")


def _task_17(rng: np.random.Generator) -> Example:
    """Positional reasoning over a 2-D arrangement of shapes."""
    shapes = _distinct(rng, _SHAPES, 3)
    positions = {shapes[0]: (0, 0)}
    story = []
    for prev, shape in zip(shapes, shapes[1:]):
        dx, dy = 0, 0
        relation = _choice(rng, ("above", "below", "left of", "right of"))
        if relation == "above":
            dy = 1
        elif relation == "below":
            dy = -1
        elif relation == "left of":
            dx = -1
        else:
            dx = 1
        px, py = positions[prev]
        positions[shape] = (px + dx, py + dy)
        story.append(_sentence(f"the {shape} is {relation} the {prev}"))
    a, b = _distinct(rng, shapes, 2)
    relation = _choice(rng, ("above", "below", "left of", "right of"))
    (ax, ay), (bx, by) = positions[a], positions[b]
    truth = {
        "above": ay > by,
        "below": ay < by,
        "left of": ax < bx,
        "right of": ax > bx,
    }[relation]
    return Example(
        story,
        _sentence(f"is the {a} {relation} the {b}"),
        "yes" if truth else "no",
        list(range(len(story))),
        task_id=17,
    )


_CONTAINERS = ("box", "suitcase", "chest", "chocolate", "crate")


def _task_18(rng: np.random.Generator) -> Example:
    """Size reasoning: does the chocolate fit in the box?"""
    order = list(rng.permutation(_CONTAINERS))  # big -> small
    story = [
        _sentence(f"the {big} is bigger than the {small}")
        for big, small in zip(order, order[1:])
    ]
    a, b = _distinct(rng, order, 2)
    fits = order.index(a) > order.index(b)  # a smaller than b -> fits
    question = _sentence(f"does the {a} fit in the {b}")
    lo, hi = sorted((order.index(a), order.index(b)))
    return Example(
        story,
        question,
        "yes" if fits else "no",
        list(range(lo, hi)),
        task_id=18,
    )


_GRID_MOVES = {"north": (0, 1), "south": (0, -1), "east": (1, 0), "west": (-1, 0)}
_MOVE_LETTER = {"north": "n", "south": "s", "east": "e", "west": "w"}


def _task_19(rng: np.random.Generator) -> Example:
    """Path finding: how do you go from the kitchen to the office?"""
    rooms = _distinct(rng, LOCATIONS[:6], 3)
    positions = {rooms[0]: (0, 0)}
    story = []
    for prev, room in zip(rooms, rooms[1:]):
        direction = _choice(rng, sorted(_GRID_MOVES))
        dx, dy = _GRID_MOVES[direction]
        px, py = positions[prev]
        candidate = (px + dx, py + dy)
        while candidate in positions.values():
            direction = _choice(rng, sorted(_GRID_MOVES))
            dx, dy = _GRID_MOVES[direction]
            candidate = (px + dx, py + dy)
        positions[room] = candidate
        story.append(_sentence(f"the {room} is {direction} of the {prev}"))
    start, goal = rooms[0], rooms[2]
    (sx, sy), (gx, gy) = positions[start], positions[goal]
    moves = []
    dx, dy = gx - sx, gy - sy
    moves.extend(["e" if dx > 0 else "w"] * abs(dx))
    moves.extend(["n" if dy > 0 else "s"] * abs(dy))
    return Example(
        story,
        _sentence(f"how do you go from the {start} to the {goal}"),
        ",".join(moves),
        list(range(len(story))),
        task_id=19,
    )


_MOTIVES = {
    "hungry": ("kitchen", "apple"),
    "thirsty": ("kitchen", "milk"),
    "tired": ("bedroom", "bed"),
    "bored": ("garden", "football"),
}


def _task_20(rng: np.random.Generator) -> Example:
    """Agent's motivation: why did John go to the kitchen?"""
    actor = _choice(rng, ACTORS[:6])
    motive = _choice(rng, sorted(_MOTIVES))
    place, thing = _MOTIVES[motive]
    story = [
        _sentence(f"{actor} is {motive}"),
        _sentence(f"{actor} {_choice(rng, MOVE_VERBS)} the {place}"),
        _sentence(f"{actor} {_choice(rng, GRAB_VERBS)} the {thing}"),
    ]
    kind = rng.random()
    if kind < 1 / 3:
        question = f"why did {actor} go to the {place}"
        answer, supporting = motive, [0]
    elif kind < 2 / 3:
        question = f"why did {actor} get the {thing}"
        answer, supporting = motive, [0]
    else:
        story = story[:1]
        question = f"where will {actor} go"
        answer, supporting = place, [0]
    return Example(story, _sentence(question), answer, supporting, task_id=20)


_GENERATORS = {
    1: _task_1, 2: _task_2, 3: _task_3, 4: _task_4, 5: _task_5,
    6: _task_6, 7: _task_7, 8: _task_8, 9: _task_9, 10: _task_10,
    11: _task_11, 12: _task_12, 13: _task_13, 14: _task_14, 15: _task_15,
    16: _task_16, 17: _task_17, 18: _task_18, 19: _task_19, 20: _task_20,
}


# --- public API -----------------------------------------------------------------


#: Tasks whose story length scales with ``story_scale`` (the others have
#: structurally fixed story shapes, e.g. the four deduction rules).
SCALABLE_TASKS = frozenset({1, 2, 6, 7, 8, 9, 12})


def generate_example(
    task_id: int, rng: np.random.Generator, story_scale: float = 1.0
) -> Example:
    """Generate a single example of one task family.

    Args:
        story_scale: stretch factor for the story length of the
            :data:`SCALABLE_TASKS` (the paper's Fig. 6 uses stories of
            up to 50 sentences; scale ~4 reaches that regime).
    """
    if task_id not in _GENERATORS:
        raise ValueError(f"task_id must be 1..20, got {task_id}")
    if story_scale <= 0:
        raise ValueError(f"story_scale must be positive, got {story_scale}")
    if task_id in SCALABLE_TASKS:
        return _GENERATORS[task_id](rng, story_scale=story_scale)
    return _GENERATORS[task_id](rng)


def generate_task(
    task_id: int, num_examples: int, seed: int = 0, story_scale: float = 1.0
) -> list[Example]:
    """Generate a deterministic set of examples for one task."""
    if num_examples < 0:
        raise ValueError("num_examples must be non-negative")
    rng = np.random.default_rng((seed, task_id))
    return [
        generate_example(task_id, rng, story_scale=story_scale)
        for _ in range(num_examples)
    ]


def generate_mixed(
    num_examples: int, seed: int = 0, task_ids: tuple[int, ...] | None = None
) -> list[Example]:
    """Round-robin examples across task families (the joint setting)."""
    task_ids = task_ids if task_ids is not None else tuple(range(1, 21))
    rng = np.random.default_rng(seed)
    return [
        generate_example(task_ids[i % len(task_ids)], rng)
        for i in range(num_examples)
    ]


def build_vocabulary(examples: list[Example]) -> Vocabulary:
    """Index every word (and answer token) in a set of examples."""
    vocab = Vocabulary()
    for example in examples:
        for sentence in example.story:
            for token in sentence:
                vocab.add(token)
        for token in example.question:
            vocab.add(token)
        vocab.add(example.answer)
    return vocab


def vectorize(
    examples: list[Example],
    vocab: Vocabulary,
    max_words: int,
    max_sentences: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode examples as padded integer arrays for the model/engine.

    Stories longer than ``max_sentences`` keep their most recent
    sentences (the MemN2N convention of capping memory at the last N
    sentences).

    Returns:
        ``(stories, questions, answers)`` with shapes
        ``(n, max_sentences, max_words)``, ``(n, max_words)``, ``(n,)``.
    """
    n = len(examples)
    stories = np.zeros((n, max_sentences, max_words), dtype=np.int64)
    questions = np.zeros((n, max_words), dtype=np.int64)
    answers = np.zeros(n, dtype=np.int64)
    for row, example in enumerate(examples):
        recent = example.story[-max_sentences:]
        for s, sentence in enumerate(recent):
            stories[row, s] = vocab.encode(sentence, width=max_words)
        questions[row] = vocab.encode(example.question, width=max_words)
        answers[row] = vocab.add(example.answer) if example.answer not in vocab \
            else vocab.id_of(example.answer)
    return stories, questions, answers
