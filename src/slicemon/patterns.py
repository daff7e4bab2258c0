"""Pattern compilation: event-name regexes to three-verdict finite-state machines.

Patterns are regular expressions whose atoms are event names, with
juxtaposition for sequencing, ``|`` for alternatives, postfix ``*``/``+``/``?``
for repetition, parentheses for grouping, and ``ε`` for the empty word.
The recursive-descent parser builds the nondeterministic automaton with
epsilon moves as it reads, one Thompson fragment per construct, so there is
no syntax tree.  The subset construction over the declared alphabet then
makes it deterministic, and each deterministic state gets a verdict:

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


class _NfaBuilder:
    """A nondeterministic automaton with epsilon moves, built by Thompson's rules.

    Each of ``lit``, ``empty``, ``seq``, ``alt`` and ``repeat`` adds the edges
    of one construct and returns its ``(start, accept)`` fragment.
    """

    def __init__(self):
        self.count = 0
        self.eps: dict[int, list[int]] = {}
        self.sym: dict[int, list[tuple[str, int]]] = {}

    def fresh(self) -> int:
        self.count += 1
        return self.count - 1

    def link_eps(self, a: int, b: int) -> None:
        self.eps.setdefault(a, []).append(b)

    def lit(self, name: str) -> tuple[int, int]:
        start, accept = self.fresh(), self.fresh()
        self.sym.setdefault(start, []).append((name, accept))
        return start, accept

    def empty(self) -> tuple[int, int]:
        start, accept = self.fresh(), self.fresh()
        self.link_eps(start, accept)
        return start, accept

    def seq(self, parts: list[tuple[int, int]]) -> tuple[int, int]:
        start, accept = parts[0]
        for nstart, naccept in parts[1:]:
            self.link_eps(accept, nstart)
            accept = naccept
        return start, accept

    def alt(self, parts: list[tuple[int, int]]) -> tuple[int, int]:
        start, accept = self.fresh(), self.fresh()
        for pstart, paccept in parts:
            self.link_eps(start, pstart)
            self.link_eps(paccept, accept)
        return start, accept

    def repeat(self, inner: tuple[int, int], op: str) -> tuple[int, int]:
        """Postfix repetition: ``*`` (min 0), ``+`` (min 1) or ``?`` (optional)."""
        istart, iaccept = inner
        start, accept = self.fresh(), self.fresh()
        self.link_eps(start, istart)
        self.link_eps(iaccept, accept)
        if op in ("*", "?"):
            self.link_eps(start, accept)
        if op in ("*", "+"):
            self.link_eps(iaccept, istart)
        return start, accept

    def closure(self, states: Iterable[int]) -> frozenset[int]:
        seen = set(states)
        work = list(seen)
        while work:
            state = work.pop()
            for target in self.eps.get(state, ()):
                if target not in seen:
                    seen.add(target)
                    work.append(target)
        return frozenset(seen)


class _Parser:
    """Recursive descent over a pattern's tokens, building into ``nfa`` as it reads.

    Each ``parse_*`` method reads one construct and returns its ``(start,
    accept)`` fragment; ``names`` collects the event names read.  Methods,
    not nested functions, so that no reference cycle outlives a parse.
    """

    def __init__(self, pattern: str, nfa: _NfaBuilder):
        self.pattern = pattern
        self.tokens = tokenize(pattern)
        self.index = 0
        self.nfa = nfa
        self.names: set[str] = set()

    def peek(self) -> str | None:
        return self.tokens[self.index][0] if self.index < len(self.tokens) else None

    def here(self) -> int:
        return self.tokens[self.index][1] if self.index < len(self.tokens) else len(self.pattern)

    def parse_alt(self) -> tuple[int, int]:
        parts = [self.parse_seq()]
        while self.peek() == "|":
            self.index += 1
            parts.append(self.parse_seq())
        return parts[0] if len(parts) == 1 else self.nfa.alt(parts)

    def parse_seq(self) -> tuple[int, int]:
        parts = []
        while True:
            tok = self.peek()
            if tok is None or tok in ")|":
                break
            parts.append(self.parse_postfix())
        if not parts:
            raise PatternSyntaxError("expected an event name, ε or group", self.here())
        return self.nfa.seq(parts)

    def parse_postfix(self) -> tuple[int, int]:
        fragment = self.parse_atom()
        while self.peek() in ("*", "+", "?"):
            fragment = self.nfa.repeat(fragment, self.tokens[self.index][0])
            self.index += 1
        return fragment

    def parse_atom(self) -> tuple[int, int]:
        tok = self.peek()
        if tok == "(":
            self.index += 1
            fragment = self.parse_alt()
            if self.peek() != ")":
                raise PatternSyntaxError("expected ')'", self.here())
            self.index += 1
            return fragment
        if tok == EPSILON:
            self.index += 1
            return self.nfa.empty()
        if tok in ")|*+?":
            raise PatternSyntaxError("unexpected %r" % tok, self.here())
        self.index += 1
        self.names.add(tok)
        return self.nfa.lit(tok)


def _parse(pattern: str, nfa: _NfaBuilder) -> tuple[tuple[int, int], set[str]]:
    """Parse pattern text straight into ``nfa``.

    Returns the whole pattern's ``(start, accept)`` fragment and the event
    names it mentions (see the module docstring for the syntax).
    """
    parser = _Parser(pattern, nfa)
    if not parser.tokens:
        raise PatternSyntaxError("empty pattern", 0)
    fragment = parser.parse_alt()
    tok = parser.peek()
    if tok is not None:
        raise PatternSyntaxError("unexpected %r" % tok, parser.here())
    return fragment, parser.names


def compile_regex(pattern: str, alphabet: Iterable[str]) -> FsmMachine:
    """Compile pattern text into an :class:`FsmMachine` over ``alphabet``.

    Raises :class:`PatternSyntaxError` for malformed patterns and
    :class:`UnknownEventInPattern` when an atom is not a declared event; a
    syntax error anywhere wins over an undeclared name.
    The states are the integers of the subset construction, with ``0``
    initial.  The table is total: missing moves land in a non-live sink
    (verdict ``fail``), and states from which no accepting state is reachable
    are labeled ``fail`` as well.
    """
    names = sorted(set(alphabet))
    nfa = _NfaBuilder()
    (nfa_start, nfa_accept), mentioned = _parse(pattern, nfa)
    unknown = mentioned.difference(names)
    if unknown:
        raise UnknownEventInPattern(min(unknown))

    # Subset construction, keeping the empty subset as an explicit sink so the
    # transition function is total over the alphabet.  ``order`` is the
    # breadth-first queue: the loop reaches each subset appended to it.
    start = nfa.closure([nfa_start])
    ids: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    table: dict[tuple[int, str], int] = {}
    reverse: dict[int, set[int]] = {}
    for source, subset in enumerate(order):
        moves: dict[str, list[int]] = {}
        for state in subset:
            for label, target in nfa.sym.get(state, ()):
                moves.setdefault(label, []).append(target)
        for name in names:
            moved = moves.get(name)
            target_subset = nfa.closure(moved) if moved else frozenset()
            target = ids.get(target_subset)
            if target is None:
                target = ids[target_subset] = len(order)
                order.append(target_subset)
            table[source, name] = target
            reverse.setdefault(target, set()).add(source)

    accepting = [state for state, subset in enumerate(order) if nfa_accept in subset]

    # Verdict liveness: walk the reversed transition graph from accepting
    # states; anything unreached can never match again.
    live = set(accepting)
    work = list(accepting)
    while work:
        state = work.pop()
        for source in reverse.get(state, ()):
            if source not in live:
                live.add(source)
                work.append(source)

    labels = {state: Verdict.FAIL for state in range(len(order)) if state not in live}
    labels.update((state, Verdict.MATCH) for state in accepting)
    return FsmMachine(0, table, labels, names)
