"""Pattern compilation: event-name regexes to three-verdict finite-state machines.

Patterns are regular expressions whose atoms are event names, with
juxtaposition for sequencing, ``|`` for alternatives, postfix ``*``/``+``/``?``
for repetition, parentheses for grouping, and ``ε`` for the empty word.
Each occurrence of an event name in the pattern is a *position*, numbered
from 1 in reading order; position 0 stands for the start.  The
recursive-descent parser records, as it reads, each position's event name
and its *follow* positions (those that may come right after it in a word
of the language), so there is no syntax tree and no epsilon move: this is
the position automaton of Glushkov and of McNaughton and Yamada.  The
subset construction over the declared alphabet then makes it
deterministic, and each deterministic state gets a verdict:

* ``match``   — the state is accepting (the word read is in the language);
* ``fail``    — no accepting state is reachable (no continuation can match);
* ``unknown`` — otherwise.
"""

from __future__ import annotations

import re
from typing import Iterable

from .bindings import InputError, _IDENTIFIER
from .machines import FsmMachine, Verdict

__all__ = [
    "PatternSyntaxError",
    "UnknownEventInPattern",
    "compile_regex",
]

EPSILON = "ε"

_TOKEN_RE = re.compile(_IDENTIFIER + r"|[()|*+?]|" + EPSILON)


class PatternSyntaxError(InputError):
    """The pattern text is not a well-formed expression."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownEventInPattern(InputError):
    """The pattern mentions an event name outside the declared alphabet."""

    def __init__(self, name: str):
        super().__init__("pattern mentions undeclared event %r" % name)
        self.event = name


def tokenize(pattern: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(pattern):
        if pattern[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(pattern, pos)
        if not m:
            raise PatternSyntaxError("unexpected character %r" % pattern[pos], pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


#: Deepest nesting of parenthesized groups a pattern may have; the parser
#: recurses once per group, so a deeper pattern is a syntax error rather
#: than a blown stack.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over a pattern's tokens, recording positions as it reads.

    ``labels[p]`` is position ``p``'s event name (``labels[0]``, the start,
    has none) and ``follow[p]`` the positions that may come right after it.
    Each ``parse_*`` method reads one construct and returns its ``(nullable,
    first, last)``: whether it takes the empty word, the positions a
    non-empty word of it may start with, and those it may end with.  A
    sequence links its left part's ``last`` to its right part's ``first``,
    and ``*`` and ``+`` link a construct's ``last`` back to its ``first``.
    Methods, not nested functions, so that no reference cycle outlives a
    parse.
    """

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.tokens = tokenize(pattern)
        self.index = 0
        self.depth = 0
        self.labels: list[str] = [""]
        self.follow: list[set[int]] = [set()]

    def peek(self) -> str | None:
        return self.tokens[self.index][0] if self.index < len(self.tokens) else None

    def here(self) -> int:
        return self.tokens[self.index][1] if self.index < len(self.tokens) else len(self.pattern)

    def link(self, sources: set[int], targets: set[int]) -> None:
        for position in sources:
            self.follow[position] |= targets

    def parse_alt(self) -> tuple[bool, set[int], set[int]]:
        nullable, first, last = self.parse_seq()
        while self.peek() == "|":
            self.index += 1
            part_nullable, part_first, part_last = self.parse_seq()
            nullable, first, last = nullable or part_nullable, first | part_first, last | part_last
        return nullable, first, last

    def parse_seq(self) -> tuple[bool, set[int], set[int]]:
        nullable, first, last = True, set(), set()
        start = self.index
        while self.peek() not in (None, ")", "|"):
            part_nullable, part_first, part_last = self.parse_postfix()
            self.link(last, part_first)
            if nullable:
                first = first | part_first
            last = last | part_last if part_nullable else part_last
            nullable = nullable and part_nullable
        if self.index == start:
            raise PatternSyntaxError("expected an event name, ε or group", self.here())
        return nullable, first, last

    def parse_postfix(self) -> tuple[bool, set[int], set[int]]:
        nullable, first, last = self.parse_atom()
        while (op := self.peek()) in ("*", "+", "?"):
            self.index += 1
            if op != "?":
                self.link(last, first)
            nullable = nullable or op != "+"
        return nullable, first, last

    def parse_atom(self) -> tuple[bool, set[int], set[int]]:
        tok = self.peek()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise PatternSyntaxError("groups nested deeper than %d" % MAX_NESTING, self.here())
            self.index += 1
            self.depth += 1
            construct = self.parse_alt()
            if self.peek() != ")":
                raise PatternSyntaxError("expected ')'", self.here())
            self.index += 1
            self.depth -= 1
            return construct
        if tok == EPSILON:
            self.index += 1
            return True, set(), set()
        if tok in ")|*+?":
            raise PatternSyntaxError("unexpected %r" % tok, self.here())
        self.index += 1
        self.labels.append(tok)
        self.follow.append(set())
        position = {len(self.labels) - 1}
        return False, position, position


def _parse(pattern: str) -> tuple[list[str], list[set[int]], set[int]]:
    """Parse pattern text into its positions (see the module docstring for the syntax).

    Returns ``labels`` and ``follow`` as :class:`_Parser` records them, with
    ``follow[0]`` the positions a word may start with, and the accepting
    positions: the pattern's ``last``, and the start too when the pattern
    takes the empty word.
    """
    parser = _Parser(pattern)
    if not parser.tokens:
        raise PatternSyntaxError("empty pattern", 0)
    nullable, first, last = parser.parse_alt()
    if parser.peek() is not None:
        raise PatternSyntaxError("unexpected %r" % parser.peek(), parser.here())
    parser.follow[0] = first
    return parser.labels, parser.follow, last | {0} if nullable else last


def compile_regex(pattern: str, alphabet: Iterable[str]) -> FsmMachine:
    """Compile pattern text into an :class:`FsmMachine` over ``alphabet``.

    Raises :class:`PatternSyntaxError` for malformed patterns and
    :class:`UnknownEventInPattern` when an atom is not a declared event; a
    syntax error anywhere wins over an undeclared name.
    The states are the integers of the subset construction over positions,
    numbered breadth-first over the sorted alphabet from ``{0}``, the
    initial state ``0``; a state is ``match`` when its subset holds an
    accepting position.  The table is total: a move no position follows
    lands in the empty subset, the sink.  That sink is the only ``fail``
    state: the grammar has no pattern for the empty language, so from every
    position some word reaches the end of the pattern, and every non-empty
    subset can still match.
    """
    names = sorted(set(alphabet))
    labels, follow, accepting = _parse(pattern)
    unknown = set(labels[1:]).difference(names)
    if unknown:
        raise UnknownEventInPattern(min(unknown))

    # ``order`` is the breadth-first queue: the loop reaches each subset
    # appended to it.
    order: list[frozenset[int]] = [frozenset({0})]
    ids: dict[frozenset[int], int] = {order[0]: 0}
    table: dict[tuple[int, str], int] = {}
    for source, subset in enumerate(order):
        moves: dict[str, set[int]] = {}
        for position in subset:
            for target in follow[position]:
                moves.setdefault(labels[target], set()).add(target)
        for name in names:
            target_subset = frozenset(moves.get(name, ()))
            target = ids.setdefault(target_subset, len(order))
            if target == len(order):
                order.append(target_subset)
            table[source, name] = target

    verdicts = {ids[frozenset()]: Verdict.FAIL} if frozenset() in ids else {}
    for state, subset in enumerate(order):
        if not accepting.isdisjoint(subset):
            verdicts[state] = Verdict.MATCH
    return FsmMachine(0, table, verdicts, names)
