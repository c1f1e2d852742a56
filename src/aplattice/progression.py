"""Arithmetic progressions inside {1,..,n}, as (base, step, length) triples.

A ``Progression`` is its triple, a validating named tuple equal and hash-equal
to the plain tuple; iterating it yields the fields, ``elements()`` and ``in``
give the members.  Canonical form makes set equality match field equality:

* the empty progression is the singleton value ``EMPTY`` = (base 0, step 0, length 0);
* one-element progressions always carry step 0;
* progressions of length >= 2 carry step >= 1.

Order, meet and join are closed forms on the fields; no member set is ever
built.  p <= q is a bounds check plus two divisibility tests; the meet
intersects two residue classes by the Chinese remainder theorem and clips
the result to the common range; the join spans the smallest to the largest
member with step gcd(r, s, |a - b|).  The private kernels ``_leq_fields``,
``_meet_fields`` and ``_join_fields`` take any triples, so the lattice layer
runs the same arithmetic on its ids without building objects.  They
compare with ``if``/conditional expressions rather than min() and max(),
whose calls would cost more than the arithmetic itself.

A ``Progression`` never knows its ambient n; the lattice layer enforces
that all members fit inside {1,..,n} when a lattice is built.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

_Fields = tuple[int, int, int]  # (base, step, length) of a canonical progression


class Progression(namedtuple("Progression", "base step length")):
    __slots__ = ()

    def __new__(cls, base: int, step: int, length: int):
        self = tuple.__new__(cls, (base, step, length))
        # plain ints only: bool and float fields are rejected, not coerced
        if not type(base) is type(step) is type(length) is int:
            raise ValueError(f"fields must be integers, got {self!r}")
        if length < 0:
            raise ValueError("length must be >= 0")
        if length == 0 and (base, step) != (0, 0):
            raise ValueError("the empty progression is (0, 0, 0)")
        if length >= 1 and base < 1:
            raise ValueError("base must be >= 1")
        if length == 1 and step != 0:
            raise ValueError("singletons carry step 0")
        if length >= 2 and step < 1:
            raise ValueError("length >= 2 needs step >= 1")
        return self

    @classmethod
    def _make(cls, iterable):  # namedtuple's _make and _replace skip __new__
        return cls(*iterable)

    def __reduce__(self):  # pickle protocols 0 and 1 would also skip __new__
        return (Progression, tuple(self))

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    @property
    def last(self) -> int:
        if self.is_empty:
            raise ValueError("empty progression has no last element")
        return self.base + (self.length - 1) * self.step

    def elements(self) -> tuple[int, ...]:
        """The members in increasing order; empty tuple for EMPTY."""
        return _members(self)

    def __contains__(self, x: int) -> bool:
        return _leq_fields((x, 0, 1), self)  # {x} <= self

    def __str__(self):
        return "{" + ",".join(map(str, _members(self))) + "}"


EMPTY = Progression(0, 0, 0)


def _members(p: _Fields) -> tuple[int, ...]:
    """The members of a canonical triple in increasing order."""
    base, step, length = p
    return tuple(range(base, base + length * step, step)) if step else (base,) * length


def _of_fields(fields: _Fields) -> Progression:
    return EMPTY if fields[2] == 0 else Progression(*fields)


def _leq_fields(p: _Fields, q: _Fields) -> bool:
    """Containment of canonical (base, step, length) triples: p lies in the
    bounds of q, and both its base offset and its step are multiples of q's
    step (a singleton q has step 0 and the bounds alone decide)."""
    a, r, k = p
    b, s, m = q
    if k == 0:
        return True
    if m == 0 or a < b or a + (k - 1) * r > b + (m - 1) * s:
        return False
    return s == 0 or ((a - b) % s == 0 and r % s == 0)


def _meet_fields(p: _Fields, q: _Fields) -> _Fields:
    """Intersection of canonical triples.

    Members of p are a mod r, members of q are b mod s.  Both classes meet
    iff g = gcd(r, s) divides b - a, and then in one class mod lcm(r, s),
    found by CRT with the inverse of r/g mod s/g; clipping that class to
    [max base, min last] gives the answer.  When the range is a single
    point (always the case for a singleton), membership decides.
    """
    a, r, k = p
    b, s, m = q
    if k == 0 or m == 0:
        return (0, 0, 0)
    lo = a if a > b else b
    hi = a + (k - 1) * r
    last = b + (m - 1) * s
    if last < hi:
        hi = last
    if lo > hi:
        return (0, 0, 0)
    if lo == hi:
        if (r and (lo - a) % r) or (s and (lo - b) % s):
            return (0, 0, 0)
        return (lo, 0, 1)
    g = gcd(r, s)
    if (b - a) % g:
        return (0, 0, 0)
    sg = s // g
    step = r * sg
    x = a + r * ((b - a) // g * pow(r // g, -1, sg) % sg)
    first = lo + (x - lo) % step
    if first > hi:
        return (0, 0, 0)
    length = (hi - first) // step + 1
    return (first, step if length > 1 else 0, length)


def _join_fields(p: _Fields, q: _Fields) -> _Fields:
    """Smallest progression containing both canonical triples: it runs from
    the smallest to the largest member, and its step is the gcd of all
    differences in the union, which is gcd(r, s, |a - b|)."""
    a, r, k = p
    b, s, m = q
    if k == 0:
        return q
    if m == 0:
        return p
    lo = a if a < b else b
    hi = a + (k - 1) * r
    last = b + (m - 1) * s
    if last > hi:
        hi = last
    if lo == hi:
        return (lo, 0, 1)
    step = gcd(r, s, a - b)
    return (lo, step, (hi - lo) // step + 1)


def leq(p: Progression, q: Progression) -> bool:
    """Set containment p <= q."""
    return _leq_fields(p, q)


def meet(p: Progression, q: Progression) -> Progression:
    """Set intersection, which is again a progression."""
    return _of_fields(_meet_fields(p, q))


def join_in_ambient(p: Progression, q: Progression) -> Progression:
    """The minimal progression containing both p and q.

    Base is the smallest member, last element the largest, and the step is
    the gcd of all pairwise differences within the union.  The result fits
    inside {1,..,n} whenever p and q do, so it is the join in any L(n)
    containing both.
    """
    return _of_fields(_join_fields(p, q))


def render(p: _Fields, n: int) -> str:
    """Digits ("1234", "14") for n <= 9, braces otherwise; p may be a triple."""
    members = _members(p)
    if members and n <= 9:
        return "".join(map(str, members))
    return "{" + ",".join(map(str, members)) + "}"
