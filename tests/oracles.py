"""Independent reference implementations the production code is tested against.

Everything here deliberately takes a different route from the package:

* lattice operations are recomputed on plain dicts, and the closure uses the
  fold-of-pairwise-products formulation rather than worklist saturation;
* pattern verdicts come from expression derivatives (rewriting the pattern
  itself per consumed symbol), not from any automaton construction;
* the nesting property is decided by grammar membership (span dynamic
  programming) and a symbol stack, not by the production counter stack.

The engines are checked at their contract: by the states, verdicts,
reports and slices they produce, against each other and against the
definitions, and by their ``RunStats`` counts.  Nothing here wraps or
restates a private method of an engine; :func:`feed_counting` reads the
counts per event, and :func:`parked` reads which bindings a table holds
parked.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable

from slicemon.bindings import EMPTY, ParamInstance

# ---------------------------------------------------------------------------
# Plain-dict lattice reference
# ---------------------------------------------------------------------------


def bf_less_informative(a: dict, b: dict) -> bool:
    return all(name in b and b[name] == value for name, value in a.items())


def bf_compatible(a: dict, b: dict) -> bool:
    return all(b.get(name, value) == value for name, value in a.items())


def bf_join(a: dict, b: dict) -> dict | None:
    if not bf_compatible(a, b):
        return None
    merged = dict(a)
    merged.update(b)
    return merged


def to_instance(d: dict) -> ParamInstance:
    return ParamInstance(d)


def from_instance(inst: ParamInstance) -> dict:
    return dict(inst)


def bf_join_sets(xs: list[dict], ys: list[dict]) -> list[dict]:
    out: list[dict] = []
    for x in xs:
        for y in ys:
            j = bf_join(x, y)
            if j is not None and j not in out:
                out.append(j)
    return out


def bf_join_closure(instances: list[dict]) -> list[dict]:
    """Fold of pairwise products: closure(T) = {{}, t1} ⊔ {{}, t2} ⊔ ..."""
    acc: list[dict] = [{}]
    for inst in instances:
        acc = bf_join_sets(acc, [{}, inst])
    return acc


def bf_max_below(query: dict, closed: list[dict]) -> dict:
    """Unique maximum of the query's down-set within a join-closed family."""
    best: dict | None = None
    for member in closed:
        if bf_less_informative(member, query):
            if best is None or len(member) > len(best):
                best = member
    assert best is not None, "closed families contain the empty binding"
    # Uniqueness sanity: any other down-set member must sit below the best.
    for member in closed:
        if bf_less_informative(member, query):
            assert bf_less_informative(member, best)
    return best


#: Parameter names with shared prefixes: name order and canonical-encoding
#: order disagree on them ("a" < "a1" as names, but "a1=1" < "a=1").
PREFIX_NAMES = ("a", "a1", "a_b", "ab")


def random_binding(rng: random.Random, params=("x", "y", "z"), values=("1", "2", "3")) -> ParamInstance:
    chosen = rng.sample(params, rng.randint(0, len(params)))
    return ParamInstance({name: rng.choice(values) for name in chosen})


def feed_counting(
    engine, events, fields=("monitor_steps", "compat_checks")
) -> tuple[list[int], ...]:
    """Feed events one at a time; return per-event differences of ``RunStats`` fields.

    By default the fields are monitor steps and compat checks.
    """
    stats = engine.stats
    counts: tuple[list[int], ...] = tuple([] for _ in fields)
    for event in events:
        before = [getattr(stats, field) for field in fields]
        engine.feed(event)
        for per_event, field, old in zip(counts, fields, before):
            per_event.append(getattr(stats, field) - old)
    return counts


def parked(engine) -> set[ParamInstance]:
    """The bindings an engine holds parked.

    They are the bindings whose state is in ``engine._parking``, less the
    empty binding before its first step (``engine._started``): it may
    start in a sink, and the first ground event still defines it, which
    may report.
    """
    parking, started = engine._parking, engine._started
    return {
        binding for binding, state in engine.delta.items()
        if state in parking and (binding or started)
    }


# Helpers over ParamInstance for the law checks and the mutants; the package
# itself never needs them (its tables grow by joins with one binding at a
# time, and its index cuts item tuples with getters).


def restrict(binding: ParamInstance, names: Iterable[str]) -> ParamInstance:
    """Sub-binding of ``binding`` on ``names`` (names it does not bind are ignored)."""
    keep = set(names)
    return ParamInstance(item for item in binding if item[0] in keep)


def join_sets(
    left: Iterable[ParamInstance], right: Iterable[ParamInstance]
) -> set[ParamInstance]:
    """Pairwise joins of two binding sets (dropping undefined combinations)."""
    right_list = list(right)
    out: set[ParamInstance] = set()
    for a in left:
        for b in right_list:
            joined = a.join(b)
            if joined is not None:
                out.add(joined)
    return out


def is_join_closed(instances: Iterable[ParamInstance]) -> bool:
    """True when the set contains the empty binding and all pairwise joins."""
    members = set(instances)
    if EMPTY not in members:
        return False
    listed = list(members)
    for i, a in enumerate(listed):
        for b in listed[i:]:
            joined = a.join(b)
            if joined is not None and joined not in members:
                return False
    return True


# ---------------------------------------------------------------------------
# Derivative-based three-verdict classifier for patterns
# ---------------------------------------------------------------------------
#
# Expressions are canonical nested tuples, normalized on construction so
# repeated derivation only ever visits finitely many distinct expressions:
# alternatives are flattened/deduplicated/sorted, sequences are flattened,
# and the empty-language expression is absorbed everywhere it annihilates.

NULL = ("null",)
EPS = ("eps",)


def rlit(name: str):
    return ("lit", name)


def rseq(parts) -> tuple:
    flat: list = []
    for part in parts:
        if part == NULL:
            return NULL
        if part == EPS:
            continue
        if part[0] == "seq":
            flat.extend(part[1])
        else:
            flat.append(part)
    if not flat:
        return EPS
    if len(flat) == 1:
        return flat[0]
    return ("seq", tuple(flat))


def ralt(parts) -> tuple:
    flat: set = set()
    for part in parts:
        if part == NULL:
            continue
        if part[0] == "alt":
            flat.update(part[1])
        else:
            flat.add(part)
    if not flat:
        return NULL
    if len(flat) == 1:
        return next(iter(flat))
    return ("alt", tuple(sorted(flat)))


def rstar(part) -> tuple:
    if part in (NULL, EPS):
        return EPS
    if part[0] == "star":
        return part
    return ("star", part)


def nullable(expr) -> bool:
    kind = expr[0]
    if kind == "eps" or kind == "star":
        return True
    if kind == "null" or kind == "lit":
        return False
    if kind == "seq":
        return all(nullable(p) for p in expr[1])
    return any(nullable(p) for p in expr[1])  # alt


def derivative(expr, symbol: str):
    kind = expr[0]
    if kind in ("eps", "null"):
        return NULL
    if kind == "lit":
        return EPS if expr[1] == symbol else NULL
    if kind == "seq":
        parts = expr[1]
        head, rest = parts[0], rseq(parts[1:])
        with_head = rseq((derivative(head, symbol), rest))
        if nullable(head):
            return ralt((with_head, derivative(rest, symbol)))
        return with_head
    if kind == "alt":
        return ralt(tuple(derivative(p, symbol) for p in expr[1]))
    # star
    return rseq((derivative(expr[1], symbol), expr))


def classify(expr, word, alphabet) -> str:
    """Three-verdict classification by rewriting the expression itself.

    match: the consumed word's residual expression accepts the empty word.
    fail:  breadth-first search over extension classes (each class is one
    residual expression; the visited set makes this equivalent to trying
    every extension up to the class count in length) finds no accepting
    residual.  Otherwise unknown.
    """
    state = expr
    for symbol in word:
        state = derivative(state, symbol)
    if nullable(state):
        return "match"
    seen = {state}
    frontier = [state]
    while frontier:
        successors = []
        for current in frontier:
            for symbol in alphabet:
                nxt = derivative(current, symbol)
                if nxt in seen:
                    continue
                if nullable(nxt):
                    return "unknown"
                seen.add(nxt)
                successors.append(nxt)
        frontier = successors
    return "fail"


class DerivativeClassifier:
    """The same derivative semantics with the state space precomputed.

    :func:`classify` re-runs a breadth-first search per word, which is fine
    for unit-test sample sizes but not for sweeping every word to length 6
    over hundreds of patterns.  This helper explores the (finite) set of
    derivative expressions once, marks accepting ones, and computes liveness
    by reverse reachability; verdicts then cost one walk per word.  The unit
    suite cross-checks it against plain :func:`classify`.
    """

    def __init__(self, expr, alphabet):
        self.alphabet = tuple(alphabet)
        states = [expr]
        index = {expr: 0}
        edges: list[tuple[int, ...]] = []
        frontier = [expr]
        while frontier:
            successors = []
            for current in frontier:
                row = []
                for symbol in self.alphabet:
                    nxt = derivative(current, symbol)
                    if nxt not in index:
                        index[nxt] = len(states)
                        states.append(nxt)
                        successors.append(nxt)
                    row.append(index[nxt])
                edges.append(tuple(row))
            frontier = successors
        self.edges = edges
        self.accepting = {i for i, state in enumerate(states) if nullable(state)}
        # live = can reach an accepting state (in any number of steps)
        reverse: dict[int, set[int]] = {i: set() for i in range(len(states))}
        for src, row in enumerate(edges):
            for dst in row:
                reverse[dst].add(src)
        live = set(self.accepting)
        work = list(live)
        while work:
            node = work.pop()
            for parent in reverse[node]:
                if parent not in live:
                    live.add(parent)
                    work.append(parent)
        self.live = live
        self._position = {symbol: i for i, symbol in enumerate(self.alphabet)}

    def verdict(self, word) -> str:
        state = 0
        position = self._position
        for symbol in word:
            state = self.edges[state][position[symbol]]
        if state in self.accepting:
            return "match"
        return "unknown" if state in self.live else "fail"


# -- random pattern generation (shared by unit and acceptance suites) -----------
#
# Generator trees keep the surface operators (+ ? are not collapsed) so they
# can be rendered to pattern text; to_expr() maps them onto the canonical
# derivative expressions.


def random_pattern_tree(rng: random.Random, alphabet, max_leaves=6, max_depth=3):
    def gen(depth: int, budget: int):
        if budget <= 1 or depth >= max_depth:
            return ("lit", rng.choice(alphabet)) if rng.random() > 0.1 else ("eps",)
        roll = rng.random()
        if roll < 0.35:
            left = rng.randint(1, budget - 1)
            return ("cat", gen(depth + 1, left), gen(depth + 1, budget - left))
        if roll < 0.6:
            left = rng.randint(1, budget - 1)
            return ("or", gen(depth + 1, left), gen(depth + 1, budget - left))
        if roll < 0.75:
            return ("star", gen(depth + 1, budget))
        if roll < 0.85:
            return ("plus", gen(depth + 1, budget))
        if roll < 0.95:
            return ("opt", gen(depth + 1, budget))
        return ("lit", rng.choice(alphabet))

    return gen(0, rng.randint(1, max_leaves))


def render_pattern(tree) -> str:
    kind = tree[0]
    if kind == "lit":
        return tree[1]
    if kind == "eps":
        return "ε"
    if kind == "cat":
        return " ".join(
            "(%s)" % render_pattern(p) if p[0] == "or" else render_pattern(p)
            for p in tree[1:]
        )
    if kind == "or":
        return " | ".join(render_pattern(p) for p in tree[1:])
    inner = tree[1]
    body = render_pattern(inner)
    if inner[0] not in ("lit", "eps"):
        body = "(%s)" % body
    return body + {"star": "*", "plus": "+", "opt": "?"}[kind]


def to_expr(tree):
    kind = tree[0]
    if kind == "lit":
        return rlit(tree[1])
    if kind == "eps":
        return EPS
    if kind == "cat":
        return rseq(tuple(to_expr(p) for p in tree[1:]))
    if kind == "or":
        return ralt(tuple(to_expr(p) for p in tree[1:]))
    if kind == "star":
        return rstar(to_expr(tree[1]))
    if kind == "plus":
        inner = to_expr(tree[1])
        return rseq((inner, rstar(inner)))
    if kind == "opt":
        return ralt((EPS, to_expr(tree[1])))
    raise ValueError(tree)


def all_words(alphabet, up_to: int):
    frontier = [()]
    yield ()
    for _ in range(up_to):
        frontier = [word + (s,) for word in frontier for s in alphabet]
        yield from frontier


# ---------------------------------------------------------------------------
# Nesting-grammar reference for the balance machine
# ---------------------------------------------------------------------------


def grammar_member(word: tuple[str, ...], enter="begin", exit="end", inc="acquire", dec="release") -> bool:
    """Span DP for membership in S -> S enter S exit | S inc S dec | ε."""
    closer_to_opener = {exit: enter, dec: inc}

    @lru_cache(maxsize=None)
    def spans(i: int, j: int) -> bool:
        if i == j:
            return True
        opener = closer_to_opener.get(word[j - 1])
        if opener is None:
            return False
        return any(
            word[p] == opener and spans(i, p) and spans(p + 1, j - 1)
            for p in range(i, j - 1)
        )

    result = spans(0, len(word))
    spans.cache_clear()
    return result


def stack_verdict(word, enter="begin", exit="end", inc="acquire", dec="release") -> str:
    """Symbol-stack reference: push openers, pop on matching closers."""
    stack: list[str] = []
    for symbol in word:
        if symbol == enter:
            stack.append("section")
        elif symbol == inc:
            stack.append("op")
        elif symbol == exit:
            if not stack or stack[-1] != "section":
                return "fail"
            stack.pop()
        elif symbol == dec:
            if not stack or stack[-1] != "op":
                return "fail"
            stack.pop()
    return "match" if not stack else "unknown"
