"""Pattern compilation: event-name regexes to three-verdict finite-state machines.

Patterns are regular expressions whose atoms are event names, with
juxtaposition for sequencing, ``|`` for alternatives, postfix ``*``/``+``/``?``
for repetition, parentheses for grouping, and ``ε`` for the empty word.
Compilation goes the classic route — syntax tree, then a nondeterministic
automaton with epsilon moves, then the subset construction over the declared
alphabet — and finally labels each deterministic state with a verdict:

* ``match``   — the state is accepting (the word read is in the language);
* ``fail``    — no accepting state is reachable (no continuation can match);
* ``unknown`` — otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .machines import FsmMachine, Verdict

__all__ = [
    "PatternSyntaxError",
    "UnknownEventInPattern",
    "compile_regex",
]

EPSILON = "ε"

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[()|*+?]|" + EPSILON)


class PatternSyntaxError(ValueError):
    """The pattern text is not a well-formed expression."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownEventInPattern(ValueError):
    """The pattern mentions an event name outside the declared alphabet."""

    def __init__(self, name: str):
        super().__init__("pattern mentions undeclared event %r" % name)
        self.event = name


# -- syntax tree ----------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    name: str


@dataclass(frozen=True)
class Eps:
    pass


@dataclass(frozen=True)
class Seq:
    parts: tuple


@dataclass(frozen=True)
class Alt:
    parts: tuple


@dataclass(frozen=True)
class Repeat:
    """Postfix repetition: ``*`` (min 0), ``+`` (min 1) or ``?`` (optional)."""

    inner: object
    op: str


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


def parse_pattern(pattern: str):
    """Parse pattern text into a syntax tree (see module docstring for syntax)."""
    tokens = tokenize(pattern)
    index = 0

    def peek() -> str | None:
        return tokens[index][0] if index < len(tokens) else None

    def here() -> int:
        return tokens[index][1] if index < len(tokens) else len(pattern)

    def parse_alt():
        nonlocal index
        parts = [parse_seq()]
        while peek() == "|":
            index += 1
            parts.append(parse_seq())
        return parts[0] if len(parts) == 1 else Alt(tuple(parts))

    def parse_seq():
        nonlocal index
        parts = []
        while True:
            tok = peek()
            if tok is None or tok in ")|":
                break
            parts.append(parse_postfix())
        if not parts:
            raise PatternSyntaxError("expected an event name, ε or group", here())
        return parts[0] if len(parts) == 1 else Seq(tuple(parts))

    def parse_postfix():
        nonlocal index
        node = parse_atom()
        while peek() in ("*", "+", "?"):
            node = Repeat(node, tokens[index][0])
            index += 1
        return node

    def parse_atom():
        nonlocal index
        tok = peek()
        if tok is None:
            raise PatternSyntaxError("unexpected end of pattern", here())
        if tok == "(":
            index += 1
            node = parse_alt()
            if peek() != ")":
                raise PatternSyntaxError("expected ')'", here())
            index += 1
            return node
        if tok == EPSILON:
            index += 1
            return Eps()
        if tok in ")|*+?":
            raise PatternSyntaxError("unexpected %r" % tok, here())
        index += 1
        return Lit(tok)

    if not tokens:
        raise PatternSyntaxError("empty pattern", 0)
    tree = parse_alt()
    if index < len(tokens):
        raise PatternSyntaxError("unexpected %r" % tokens[index][0], tokens[index][1])
    return tree


# -- nondeterministic automaton ---------------------------------------------------


class _NfaBuilder:
    """Accumulates epsilon/symbol edges while translating the syntax tree."""

    def __init__(self):
        self.count = 0
        self.eps: dict[int, list[int]] = {}
        self.sym: dict[int, list[tuple[str, int]]] = {}

    def fresh(self) -> int:
        self.count += 1
        return self.count - 1

    def link_eps(self, a: int, b: int) -> None:
        self.eps.setdefault(a, []).append(b)

    def link_sym(self, a: int, name: str, b: int) -> None:
        self.sym.setdefault(a, []).append((name, b))

    def build(self, node) -> tuple[int, int]:
        """Translate a tree node into a (start, accept) state pair."""
        if isinstance(node, Lit):
            start, accept = self.fresh(), self.fresh()
            self.link_sym(start, node.name, accept)
            return start, accept
        if isinstance(node, Eps):
            start, accept = self.fresh(), self.fresh()
            self.link_eps(start, accept)
            return start, accept
        if isinstance(node, Seq):
            start, accept = self.build(node.parts[0])
            for part in node.parts[1:]:
                nstart, naccept = self.build(part)
                self.link_eps(accept, nstart)
                accept = naccept
            return start, accept
        if isinstance(node, Alt):
            start, accept = self.fresh(), self.fresh()
            for part in node.parts:
                pstart, paccept = self.build(part)
                self.link_eps(start, pstart)
                self.link_eps(paccept, accept)
            return start, accept
        if isinstance(node, Repeat):
            istart, iaccept = self.build(node.inner)
            start, accept = self.fresh(), self.fresh()
            self.link_eps(start, istart)
            self.link_eps(iaccept, accept)
            if node.op in ("*", "?"):
                self.link_eps(start, accept)
            if node.op in ("*", "+"):
                self.link_eps(iaccept, istart)
            return start, accept
        raise TypeError("not a pattern node: %r" % (node,))

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


def literals(node) -> set[str]:
    """Event names mentioned in a syntax tree."""
    if isinstance(node, Lit):
        return {node.name}
    if isinstance(node, Eps):
        return set()
    if isinstance(node, (Seq, Alt)):
        out: set[str] = set()
        for part in node.parts:
            out |= literals(part)
        return out
    if isinstance(node, Repeat):
        return literals(node.inner)
    raise TypeError("not a pattern node: %r" % (node,))


def compile_regex(pattern: str, alphabet: Iterable[str]) -> FsmMachine:
    """Compile pattern text into an :class:`FsmMachine` over ``alphabet``.

    Raises :class:`PatternSyntaxError` for malformed patterns and
    :class:`UnknownEventInPattern` when an atom is not a declared event.
    The states are the integers of the subset construction, with ``0``
    initial.  The table is total: missing moves land in a non-live sink
    (verdict ``fail``), and states from which no accepting state is reachable
    are labeled ``fail`` as well.
    """
    names = sorted(set(alphabet))
    tree = parse_pattern(pattern)
    for name in sorted(literals(tree)):
        if name not in names:
            raise UnknownEventInPattern(name)

    builder = _NfaBuilder()
    nfa_start, nfa_accept = builder.build(tree)

    # Subset construction, keeping the empty subset as an explicit sink so the
    # transition function is total over the alphabet.
    start = builder.closure([nfa_start])
    ids: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    transitions: list[dict[str, int]] = []
    pending = [start]
    while pending:
        subset = pending.pop(0)
        row: dict[str, int] = {}
        for name in names:
            moved = [
                target
                for state in subset
                for (label, target) in builder.sym.get(state, ())
                if label == name
            ]
            target_subset = builder.closure(moved) if moved else frozenset()
            if target_subset not in ids:
                ids[target_subset] = len(order)
                order.append(target_subset)
                pending.append(target_subset)
            row[name] = ids[target_subset]
        transitions.append(row)

    accepting = frozenset(
        ids[subset] for subset in order if nfa_accept in subset
    )

    # Verdict liveness: walk the reversed transition graph from accepting
    # states; anything unreached can never match again.
    reverse: dict[int, set[int]] = {}
    for source, row in enumerate(transitions):
        for target in row.values():
            reverse.setdefault(target, set()).add(source)
    live = set(accepting)
    work = list(accepting)
    while work:
        state = work.pop()
        for source in reverse.get(state, ()):
            if source not in live:
                live.add(source)
                work.append(source)

    labels = {
        state: Verdict.FAIL for state in range(len(order)) if state not in live
    }
    labels.update((state, Verdict.MATCH) for state in accepting)
    table = {
        (source, name): target
        for source, row in enumerate(transitions)
        for name, target in row.items()
    }
    return FsmMachine(0, table, labels, names)
