"""Partial parameter bindings and their join semilattice.

A binding assigns values to finitely many named parameters.  Bindings are
ordered by information content: ``a`` is less informative than ``b`` when ``b``
binds every parameter ``a`` binds, to the same value.  Two bindings are
compatible when they agree on every shared parameter; exactly then their
*join* (the union of the two assignments) exists.  The empty binding is the
bottom element and is compatible with everything.

A binding is its name-sorted tuple of ``(name, value)`` items:
:class:`ParamInstance` subclasses ``tuple`` and adds no state, so a binding
hashes, compares, iterates and measures its length with tuple's own code, and
equals (and hashes like) the plain tuple of its items.  The order is a subset
test on those tuples, and the join merges two of them.  The most informative
member of a join-closed set below a binding (its slice source) is the widest
member below it, so one scan of the set finds it, however many parameters the
binding has.

Everything downstream (slicing tables, monitor state tables) indexes on
bindings, so this module also fixes their canonical encoding
(``name=value`` pairs, name-sorted, comma-joined) and the deterministic
ordering used whenever a set of bindings is listed: ascending domain size,
then ascending canonical encoding.
"""

from __future__ import annotations

import re
from functools import partial
from operator import itemgetter
from typing import Iterable, Mapping

__all__ = [
    "BindingFormatError",
    "EMPTY",
    "InputError",
    "ParamInstance",
    "binding_order",
    "join_closure",
    "joins_with",
    "max_below",
    "ordered",
]

#: Parameter, event, state and property names are identifiers; values are
#: any non-empty run of characters containing no whitespace, ``=``, ``,`` or
#: ``#`` (the separators of the canonical encoding, and the start of a
#: comment, so every binding reads back from its encoding and from its
#: rendered trace line).
_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_IDENTIFIER + r"\Z")
_VALUE_RE = re.compile(r"[^\s=,#]+\Z")
_name_of = itemgetter(0)


class InputError(ValueError):
    """Malformed or unreadable input: a trace, a property file, a pattern or a binding.

    Every error slicemon raises for bad input derives from it, and the
    command line reports exactly these as bad input (exit code 1).
    """


class BindingFormatError(InputError):
    """A binding's text, or one of its parameter names or values, is malformed."""


class ParamInstance(tuple):
    """An immutable assignment of values to a finite set of parameter names.

    A binding is the tuple of its ``(name, value)`` items, sorted by name.
    Being that tuple, it hashes and compares like it: a binding equals, and
    is found in a dict or set under, its plain item tuple.  The empty
    assignment — module constant :data:`EMPTY` — is the least informative
    binding.  Tuple operations that build a new tuple (slicing, ``+``)
    return plain tuples; the methods below return bindings.
    """

    __slots__ = ()

    def __new__(cls, mapping: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        items = tuple(sorted(dict(mapping).items()))
        for name, value in items:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise BindingFormatError("bad parameter name %r" % (name,))
            if not isinstance(value, str) or not _VALUE_RE.match(value):
                raise BindingFormatError("bad parameter value %r" % (value,))
        return tuple.__new__(cls, items)

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
                raise BindingFormatError("expected param=value, got %r" % chunk)
            if name in mapping:
                raise BindingFormatError("parameter %r bound twice" % name)
            mapping[name] = value
        return cls(mapping)

    def encode(self) -> str:
        """Canonical encoding: name-sorted ``name=value`` pairs, comma-joined."""
        return ",".join(map("=".join, self))

    @property
    def names(self) -> tuple[str, ...]:
        """Bound parameter names, sorted."""
        return tuple(map(_name_of, self))

    @property
    def domain(self) -> frozenset[str]:
        """Bound parameter names as a set."""
        return frozenset(map(_name_of, self))

    def __repr__(self) -> str:
        return "ParamInstance(%r)" % self.encode()

    def __reduce__(self):
        # Copies and unpickled bindings, under every pickle protocol, are
        # built by the constructor and so validated.
        return (self.__class__, (tuple(self),))

    # -- lattice structure ---------------------------------------------------

    def less_informative(self, other: "ParamInstance") -> bool:
        """True when ``other`` binds every parameter this binding binds, equally.

        This is the (non-strict) lattice order; every binding is less
        informative than itself.
        """
        if len(self) > len(other):
            return False
        for item in self:
            if item not in other:
                return False
        return True

    def join(self, other: "ParamInstance") -> "ParamInstance | None":
        """Least binding more informative than both, or None when incompatible."""
        left, right = self, other
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
        return ParamInstance._wrap(merged)


#: Internal fast path: the binding of items that are already validated and
#: name-sorted, given as any iterable.
ParamInstance._wrap = partial(tuple.__new__, ParamInstance)

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

    The result is the table domain an online slicer reaches after feeding
    events carrying ``instances``, and it is built the same way, one pass per
    binding: a binding not yet in the set adds its joins with every member.
    The set stays join-closed, because ``(b⊔m)⊔(b⊔n) = b⊔(m⊔n)``.
    """
    closed: set[ParamInstance] = {EMPTY}
    for instance in instances:
        if instance not in closed:
            closed |= joins_with(instance, closed)
    return closed


def max_below(
    instance: ParamInstance, members: Iterable[ParamInstance]
) -> ParamInstance:
    """Most informative member that is at-or-below ``instance``, in one scan.

    ``members`` must be join-closed, and so contain the empty binding, which
    guarantees an answer.  The members below ``instance`` are then closed
    under join too (a join of two bindings below ``instance`` is below it),
    so the join of them all is a member and strictly wider than any other:
    the maximum is unique, and it is the widest member below ``instance``.
    The scan keeps the first member of the largest size it meets, which
    matters only for a set that is not join-closed.  ``instance`` itself is
    returned when it is a member.
    """
    best = None
    size = -1
    for member in members:
        if len(member) > size and member.less_informative(instance):
            best, size = member, len(member)
    if best is None:
        raise ValueError(
            "binding set is missing the empty binding (not join-closed): %r"
            % (instance,)
        )
    return best
