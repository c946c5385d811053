"""Exact rationals and the two-player normal-form game data model.

All payoffs and probabilities are `fractions.Fraction` values (arbitrary
precision, always stored reduced with a positive denominator), so every
comparison in the solver is exact. Floating-point payoffs are rejected.

Every type here is immutable after construction; all functions are pure.

The records of the package (profiles, games, dilemma parameters, reports)
derive from Record: plain immutable classes with the `__init__`, equality,
hash and repr of a frozen dataclass over the fields they annotate. A record
that normalizes or checks its fields does so in `__post_init__`. They are not
dataclasses, so dataclasses.replace, fields and asdict do not apply to them.
The package imports dataclasses only to raise FrozenInstanceError: importing
it loads inspect and ast, a cost every start of the command-line tool would
pay.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Literal, Sequence

Rat = Fraction

Player = Literal[1, 2]


class InvalidGameError(ValueError):
    """A game value violates the structural invariants."""


def rat(num: int, den: int = 1) -> Rat:
    """Build the reduced rational num/den. Raises ZeroDivisionError if den is 0."""
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (num, den)):
        raise TypeError("rational components must be integers")
    return Fraction(num, den)


def as_rat(value: int | Rat) -> Rat:
    """Coerce an int or Fraction to Fraction, rejecting floats and other types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Rational)):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    return Fraction(value)


class Record:
    """An immutable record whose fields are its class annotations, in order.

    Each subclass gets `__match_args__` from its own annotations, so class
    patterns bind the fields positionally, and an `__init__` that takes the
    fields in that order. A class-level value is its field's default. The
    `__init__` is a straight-line function built from source at class
    creation, as dataclasses builds one, so it keeps a real signature and
    Python's own argument errors. It stores each field straight into the
    instance `__dict__`, which skips the frozen `__setattr__`, and then calls
    `__post_init__` if the class defines one; that method replaces the
    fields it normalizes with object.__setattr__. Any later assignment or
    deletion raises FrozenInstanceError. Equality is same class and equal
    field tuples, the hash is the field tuple's, and the repr is
    `Name(field=value, ...)`. Instances keep a `__dict__`, so pickle and copy
    work on them as on any plain object.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__ = tuple(cls.__annotations__)
        # A default is read from the class when the def runs, so a field
        # without one after a field with one is a SyntaxError, as in a def.
        params = [f"{n}=_cls.{n}" if n in vars(cls) else n for n in names]
        body = ["_d = self.__dict__", *(f"_d[{n!r}] = {n}" for n in names)]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        source = f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body)
        namespace: dict = {"_cls": cls}
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class PureProfile(Record):
    """A pure strategy pair: row index for player 1, column index for player 2."""

    i: int
    j: int


class MixedProfile(Record):
    """A pair of exact probability vectors over the two strategy sets.

    Each vector is checked on integers: it is non-empty, an entry is negative
    when its numerator is (denominators are positive), and the numerators
    scaled by the LCM L of the denominators sum to L exactly when the entries
    sum to 1.
    """

    x: tuple[Rat, ...]
    y: tuple[Rat, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(as_rat(p) for p in self.x))
        object.__setattr__(self, "y", tuple(as_rat(p) for p in self.y))
        for name, vec in (("x", self.x), ("y", self.y)):
            if not vec:
                raise ValueError(f"{name} must be non-empty")
            if any(p.numerator < 0 for p in vec):
                raise ValueError(f"{name} has a negative entry")
            scale = math.lcm(*[p.denominator for p in vec])
            if sum([p.numerator * (scale // p.denominator) for p in vec]) != scale:
                raise ValueError(f"{name} does not sum to 1")

    def support(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Indices with positive probability, per player."""
        return (
            tuple(i for i, p in enumerate(self.x) if p > 0),
            tuple(j for j, p in enumerate(self.y) if p > 0),
        )


def _freeze_matrix(rows: Iterable[Iterable[object]]) -> tuple[tuple[Rat, ...], ...]:
    return tuple(tuple(as_rat(v) for v in row) for row in rows)


class Game(Record):
    """A bimatrix game: labelled strategy sets and one payoff matrix per player.

    u1[i][j] is player 1's payoff and u2[i][j] player 2's when player 1 plays
    row i and player 2 plays column j. Construction normalizes the fields to
    nested tuples of Fraction but does not validate shape; use validate_game
    (or make_game, which raises) for that.
    """

    labels1: tuple[str, ...]
    labels2: tuple[str, ...]
    u1: tuple[tuple[Rat, ...], ...]
    u2: tuple[tuple[Rat, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels1", tuple(self.labels1))
        object.__setattr__(self, "labels2", tuple(self.labels2))
        object.__setattr__(self, "u1", _freeze_matrix(self.u1))
        object.__setattr__(self, "u2", _freeze_matrix(self.u2))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.labels1), len(self.labels2))


def validate_game(g: Game) -> list[str]:
    """Check every Game invariant; return the list of violations (empty = valid)."""
    problems: list[str] = []
    for player, labels in ((1, g.labels1), (2, g.labels2)):
        if not labels:
            problems.append(f"player {player} has no strategies")
        seen: set[str] = set()
        for label in labels:
            if not isinstance(label, str):
                problems.append(f"player {player} has a strategy label that is not a string: {label!r}")
                continue
            if not label:
                problems.append(f"player {player} has an empty strategy label")
            if label in seen:
                problems.append(f"player {player} has duplicate strategy label {label!r}")
            seen.add(label)
    rows, cols = len(g.labels1), len(g.labels2)
    for name, matrix in (("u1", g.u1), ("u2", g.u2)):
        if len(matrix) != rows:
            problems.append(f"{name} has {len(matrix)} rows, expected {rows}")
        for i, row in enumerate(matrix):
            if len(row) != cols:
                problems.append(f"{name} row {i} has {len(row)} entries, expected {cols}")
    return problems


def make_game(
    labels1: Sequence[str],
    labels2: Sequence[str],
    u1: Iterable[Iterable[object]],
    u2: Iterable[Iterable[object]],
) -> Game:
    """Construct a Game and raise InvalidGameError on any invariant violation."""
    g = Game(labels1, labels2, u1, u2)
    problems = validate_game(g)
    if problems:
        raise InvalidGameError("; ".join(problems))
    return g


def check_index(index: object) -> None:
    """Raise TypeError for a bool strategy index: True equals 1 but is refused, as in rat."""
    if isinstance(index, bool):
        raise TypeError("strategy index must be an int, not bool")


def check_profile(g: Game, p: PureProfile) -> None:
    """Raise TypeError for a bool index and IndexError unless p indexes into g."""
    check_index(p.i)
    check_index(p.j)
    rows, cols = g.shape
    if not (0 <= p.i < rows and 0 <= p.j < cols):
        raise IndexError(f"profile ({p.i}, {p.j}) out of range for a {rows}x{cols} game")


def check_player(player: object) -> None:
    """Raise ValueError unless player is 1 or 2; True equals 1 but is refused, as in rat."""
    if isinstance(player, bool) or player not in (1, 2):
        raise ValueError("player must be 1 or 2")


def payoff(g: Game, player: Player, p: PureProfile) -> Rat:
    """The given player's payoff at a pure profile."""
    check_player(player)
    check_profile(g, p)
    return g.u1[p.i][p.j] if player == 1 else g.u2[p.i][p.j]
