"""Partial parameter bindings and their join semilattice.

A binding assigns values to finitely many named parameters.  Bindings are
ordered by information content: ``a`` is less informative than ``b`` when ``b``
binds every parameter ``a`` binds, to the same value.  Two bindings are
compatible when they agree on every shared parameter; exactly then their
*join* (the union of the two assignments) exists.  The empty binding is the
bottom element and is compatible with everything.

A binding is stored only as its name-sorted tuple of ``(name, value)``
items, which serves as its hash, equality and encoding source.  The order is
a subset test on those tuples, the join merges two of them, and the
sub-bindings of a binding are the sub-tuples of its items.

Everything downstream (slicing tables, monitor state tables) indexes on
bindings, so this module also fixes their canonical encoding
(``name=value`` pairs, name-sorted, comma-joined) and the deterministic
ordering used whenever a set of bindings is listed: ascending domain size,
then ascending canonical encoding.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Iterable, Iterator, Mapping

__all__ = [
    "BindingFormatError",
    "CapExceeded",
    "DEFAULT_DOMAIN_CAP",
    "EMPTY",
    "ParamInstance",
    "binding_order",
    "join_closure",
    "joins_with",
    "max_below",
    "ordered",
    "strict_subinstances_desc",
]

#: Parameter names are identifiers; values are any non-empty run of
#: characters containing no whitespace, ``=`` or ``,`` (the separators of the
#: canonical encoding, so every binding reads back from its encoding).
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VALUE_RE = re.compile(r"[^\s=,]+\Z")

#: Largest binding domain for which sub-binding enumeration (2^n candidates)
#: is permitted.  Lookups on wider bindings raise :class:`CapExceeded`.
DEFAULT_DOMAIN_CAP = 10


class BindingFormatError(ValueError):
    """A binding's text, or one of its parameter names or values, is malformed."""


class CapExceeded(Exception):
    """A binding's domain is too wide for sub-binding enumeration."""

    def __init__(self, size: int, cap: int):
        super().__init__(
            "binding has %d parameters, exceeding the enumeration cap of %d"
            % (size, cap)
        )
        self.size = size
        self.cap = cap


class ParamInstance:
    """An immutable assignment of values to a finite set of parameter names.

    Instances are canonical (items are kept name-sorted), hashable, and cheap
    to compare.  The empty assignment — module constant :data:`EMPTY` — is the
    least informative binding.
    """

    __slots__ = ("_items", "_hash", "_enc")

    def __init__(self, mapping: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        items = tuple(sorted(dict(mapping).items()))
        for name, value in items:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise BindingFormatError("bad parameter name: %r" % (name,))
            if not isinstance(value, str) or not _VALUE_RE.match(value):
                raise BindingFormatError("bad parameter value: %r" % (value,))
        self._items = items
        self._hash = hash(items)
        self._enc = None

    @classmethod
    def _wrap(cls, items: tuple[tuple[str, str], ...]) -> "ParamInstance":
        # Internal fast path: items must already be validated and name-sorted.
        self = object.__new__(cls)
        self._items = items
        self._hash = hash(items)
        self._enc = None
        return self

    @classmethod
    def parse(cls, text: str) -> "ParamInstance":
        """Parse a canonical encoding like ``"a=1,b=2"`` ("" is the empty binding)."""
        text = text.strip()
        if not text:
            return EMPTY
        mapping: dict[str, str] = {}
        for chunk in text.split(","):
            name, eq, value = chunk.strip().partition("=")
            if not eq:
                raise BindingFormatError("expected name=value, got %r" % chunk)
            if name in mapping:
                raise BindingFormatError("parameter %r bound twice" % name)
            mapping[name] = value
        return cls(mapping)

    def encode(self) -> str:
        """Canonical encoding: name-sorted ``name=value`` pairs, comma-joined."""
        if self._enc is None:
            self._enc = ",".join("%s=%s" % item for item in self._items)
        return self._enc

    # -- basic container behaviour ------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    @property
    def names(self) -> tuple[str, ...]:
        """Bound parameter names, sorted."""
        return tuple(name for name, _ in self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamInstance):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "ParamInstance(%r)" % self.encode()

    def __bool__(self) -> bool:
        return bool(self._items)

    # -- lattice structure ---------------------------------------------------

    def less_informative(self, other: "ParamInstance") -> bool:
        """True when ``other`` binds every parameter this binding binds, equally.

        This is the (non-strict) lattice order; every binding is less
        informative than itself.
        """
        if len(self._items) > len(other._items):
            return False
        items = other._items
        for item in self._items:
            if item not in items:
                return False
        return True

    def compatible(self, other: "ParamInstance") -> bool:
        """True when the two bindings agree on every shared parameter."""
        return self.join(other) is not None

    def join(self, other: "ParamInstance") -> "ParamInstance | None":
        """Least binding more informative than both, or None when incompatible."""
        left, right = self._items, other._items
        if not right:
            return self
        if not left:
            return other
        # Merge the two name-sorted item tuples, stopping at the first name
        # they bind to different values.
        merged = []
        i = j = 0
        while i < len(left) and j < len(right):
            mine, theirs = left[i], right[j]
            if mine[0] == theirs[0]:
                if mine[1] != theirs[1]:
                    return None
                merged.append(mine)
                i += 1
                j += 1
            elif mine[0] < theirs[0]:
                merged.append(mine)
                i += 1
            else:
                merged.append(theirs)
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        if len(merged) == len(left):
            return self
        if len(merged) == len(right):
            return other
        return ParamInstance._wrap(tuple(merged))

    def restrict(self, names: Iterable[str]) -> "ParamInstance":
        """Sub-binding on the given names (names not bound here are ignored)."""
        keep = names if isinstance(names, (set, frozenset)) else set(names)
        return ParamInstance._wrap(
            tuple(item for item in self._items if item[0] in keep)
        )


#: The empty binding — bottom of the lattice.
EMPTY = ParamInstance()


def binding_order(instance: ParamInstance) -> tuple[int, str]:
    """Sort key fixing the deterministic order: (domain size, encoding)."""
    return (len(instance), instance.encode())


def ordered(instances: Iterable[ParamInstance]) -> list[ParamInstance]:
    """Sorted list of bindings in the canonical iteration order."""
    return sorted(instances, key=binding_order)


def joins_with(
    instance: ParamInstance, instances: Iterable[ParamInstance]
) -> set[ParamInstance]:
    """All defined joins of ``instance`` with members of ``instances``.

    When ``instances`` contains the empty binding the result contains
    ``instance`` itself; incompatible members contribute nothing.
    """
    out: set[ParamInstance] = set()
    for member in instances:
        joined = instance.join(member)
        if joined is not None:
            out.add(joined)
    return out


def join_closure(instances: Iterable[ParamInstance]) -> set[ParamInstance]:
    """Smallest join-closed superset (always includes the empty binding).

    Saturates by repeated binary joins; the result is the table domain an
    online slicer reaches after feeding events carrying ``instances``.
    """
    closed: set[ParamInstance] = {EMPTY}
    closed.update(instances)
    work = list(closed)
    while work:
        candidate = work.pop()
        for member in list(closed):
            joined = candidate.join(member)
            if joined is not None and joined not in closed:
                closed.add(joined)
                work.append(joined)
    return closed


def strict_subinstances_desc(
    instance: ParamInstance, cap: int = DEFAULT_DOMAIN_CAP
) -> Iterator[ParamInstance]:
    """Yield every strictly less informative binding, most informative first.

    Order is descending domain size; within one size it is
    :func:`itertools.combinations` order over the name-sorted items.  The
    final binding yielded is always the empty one.  A domain wider than
    ``cap`` raises :class:`CapExceeded` (the enumeration is exponential in
    the domain size).
    """
    items = instance._items
    if len(items) > cap:
        raise CapExceeded(len(items), cap)
    wrap = ParamInstance._wrap
    for size in range(len(items) - 1, -1, -1):
        for combo in combinations(items, size):
            yield wrap(combo)


def max_below(
    instance: ParamInstance,
    members: Iterable[ParamInstance],
    cap: int = DEFAULT_DOMAIN_CAP,
) -> ParamInstance:
    """Most informative member that is at-or-below ``instance``.

    ``members`` must be join-closed (which makes the maximum unique) and
    therefore contain the empty binding, so the scan always terminates with
    an answer.  ``instance`` itself is returned when it is a member.  Two
    distinct members below ``instance`` of one size would have a larger join
    below it in ``members``, so the first member met, size by size, is the
    maximum whatever the order within a size.
    """
    membership = members if hasattr(members, "__contains__") else set(members)
    if instance in membership:
        return instance
    for sub in strict_subinstances_desc(instance, cap):
        if sub in membership:
            return sub
    raise ValueError(
        "binding set is missing the empty binding (not join-closed): %r"
        % (instance,)
    )
