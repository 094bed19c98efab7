"""Target spaces, their ring presentations, and invariant keys.

Two targets are supported, projective space P^r and the quadric P1 x P1.
Each carries the presentation of its quantum cohomology ring as data
(Kontsevich-Manin 1994; Fulton-Pandharipande 1997, section 10):

    Q*(P^r)   = Q[h, q] / (h^(r+1) - q),
    Q*(P1xP1) = Q[h, v, q_h, q_v] / (h^2 - q_h, v^2 - q_v).

``words`` gives each basis class as its exponents of the generators, and
its codimension is their sum.  On P^r the basis is h0, ..., hr, h^i the
class of a generic codimension-i linear subspace, with word (i,).  On
P1 x P1 the words are over (v, h): T0 = 1, T1 = v (vertical rule),
T2 = h (horizontal rule) and T3 = vh (point class).  ``index`` is the n
with c1 = n * (sum of the generators), r + 1 or 2, so c1(beta) is n times
the total degree; it is also the power in g^n = q_g, and ``params`` names
the q_g.  A degree is an integer on P^r and a pair (d, e) on P1 x P1;
``pairings(degree)`` gives its pairing with each generator, (d,) or
(e, d), and ``degrees(total)`` lists the degrees of a total.

An invariant key records a target, a degree and the multiset of basis
classes fed into the invariant, stored as an exponent vector of occurrence
counts.  Because only the counts are stored, keys are invariant under
permutation of the input classes by construction.  ``validate_degree``
(the sign by ``_degree_parts``, which ``partitions`` shares) and
``_checked_exponents`` (which ``gw.collected_invariant`` shares) check a
key's input and return the tuples it stores.  ``_at_least`` is the rule
for an order or exponent argument: an ``int``, not a bool, and not below
its least value.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Union

ExponentVector = tuple[int, ...]


class _Record:
    """A frozen value record, built without importing ``dataclasses``: the
    one base of every public value type, the targets and ``InvariantKey``
    here, ``MarkSet`` and ``WeightedPartition`` (``partitions``),
    ``TruncatedSeries`` (``series``), ``RingElement`` and
    ``BigQuantumElement`` (``rings``).

    ``__match_args__`` names the fields.  A subclass's ``__init__`` stores
    each one with ``object.__setattr__``, and its ``_values`` returns them
    as a tuple in that order.  Each class writes both itself: a shared
    loop over the names made building a key about 0.5 us slower, and
    hashing one about 1.5 us (CPython 3.11).  ``repr`` shows the fields by
    name, ``==`` and ``hash`` use the tuple, and assigning or deleting any
    attribute raises ``AttributeError``.  A class whose tuple holds a
    mapping writes its own ``__hash__``.  ``__slots__ = ()`` adds no
    ``__dict__``, so a subclass that names its ``__slots__`` has none.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Presented(_Record):
    """What a target derives from its ``words`` and ``prefix``."""

    @property
    def basis_size(self) -> int:
        return len(self.words)

    def codim(self, index: int) -> int:
        if type(index) is not int or not 0 <= index < len(self.words):
            raise ValueError(f"basis index {index} out of range for {self}")
        return sum(self.words[index])

    def basis_name(self, index: int) -> str:
        return f"{self.prefix}{index}"


class ProjectiveSpace(_Presented):
    """P^r for r >= 1."""
    __match_args__ = ("r",)

    prefix = "h"
    params = ("q",)

    def __init__(self, r: int) -> None:
        if isinstance(r, bool) or not isinstance(r, int):
            raise ValueError(f"projective space needs an integer r, got {r!r}")
        if r < 1:
            raise ValueError(f"projective space needs r >= 1, got r={r}")
        object.__setattr__(self, "r", r)
        # Plain attributes, so the invariants' gate reads them without a call.
        object.__setattr__(self, "index", r + 1)
        object.__setattr__(self, "dimension", r)

    def _values(self) -> tuple[int]:
        return (self.r,)

    @cached_property
    def words(self) -> tuple[tuple[int], ...]:
        # Built on first use: naming a target costs O(1), whatever its r.
        return tuple((i,) for i in range(self.r + 1))

    def pairings(self, degree: int) -> tuple[int]:
        return (degree,)

    def degrees(self, total: int) -> list[int]:
        return [total]

    def __str__(self) -> str:
        return f"P^{self.r}"


class P1xP1(_Presented):
    """The quadric surface P1 x P1."""

    prefix = "T"
    params = ("q_v", "q_h")
    words = ((0, 0), (1, 0), (0, 1), (1, 1))
    index = 2
    dimension = 2

    def pairings(self, degree: tuple[int, int]) -> tuple[int, int]:
        d, e = degree
        return (e, d)

    def degrees(self, total: int) -> list[tuple[int, int]]:
        return [(d, total - d) for d in range(total + 1)]

    def __str__(self) -> str:
        return "P1xP1"


TargetSpace = Union[ProjectiveSpace, P1xP1]

P1XP1 = P1xP1()

Degree = Union[int, tuple[int, int]]


def validate_degree(target: TargetSpace, degree: Degree) -> Degree:
    """Check the degree shape for the given target, an int on P^r and a
    pair of ints on P1 x P1 (returned as a tuple), and its sign.  An int
    here is of type ``int`` exactly: a bool is refused."""
    if isinstance(target, ProjectiveSpace):
        if type(degree) is not int:
            raise ValueError(f"P^r expects an integer degree, got {degree!r}")
        _degree_parts(degree)
        return degree
    pair = _pair(degree)
    if pair is None:
        raise ValueError(
            f"P1xP1 expects a pair of integer degrees, got {degree!r}")
    return _degree_parts(pair)


def _pair(degree) -> tuple[int, int] | None:
    """``degree`` as (d, e) when it is a pair of ints (not bools), else
    None."""
    try:
        d, e = degree
    except (TypeError, ValueError):
        return None
    return (d, e) if type(d) is type(e) is int else None


def _degree_parts(degree: Degree) -> tuple[int, ...]:
    """(d,) for a degree, (d, e) for a bidegree; any other shape, a bool
    and a negative part are refused."""
    if type(degree) is int:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        return (degree,)
    pair = _pair(degree)
    if pair is None:
        raise ValueError(f"a degree is an integer or a pair of integers, "
                         f"got {degree!r}")
    d, e = pair
    if d < 0 or e < 0:
        raise ValueError(f"bidegree components must be >= 0, got ({d}, {e})")
    return pair


def _at_least(value: int, least: int, name: str) -> None:
    """Refuse ``value`` unless it is of type ``int`` exactly (a bool or a
    float is refused) and at least ``least``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def exponents_from_classes(target: TargetSpace, classes: Iterable[int]) -> ExponentVector:
    """Occurrence counts of each basis index among ``classes``."""
    counts = [0] * target.basis_size
    for idx in classes:
        target.codim(idx)  # range check
        counts[idx] += 1
    return tuple(counts)


def total_codim(target: TargetSpace, exponents: ExponentVector) -> int:
    """Sum of input codimensions recorded by an exponent vector, which
    ``_checked_exponents`` has already checked."""
    return sum(sum(word) * a for word, a in zip(target.words, exponents) if a)


def _checked_exponents(target: TargetSpace,
                       exponents: ExponentVector) -> ExponentVector:
    """The exponent vector as a tuple, once it is checked: one entry per
    basis class, each an int (not a bool), none negative."""
    if len(exponents) != target.basis_size:
        raise ValueError(
            f"exponent vector length {len(exponents)} does not "
            f"match basis size {target.basis_size} of {target}")
    if not {int}.issuperset(map(type, exponents)):
        raise ValueError(f"exponents must be integers, got {exponents}")
    if min(exponents) < 0:  # every basis has at least two classes
        raise ValueError(f"exponents must be >= 0, got {exponents}")
    return tuple(exponents)


class InvariantKey(_Record):
    """One Gromov-Witten invariant: target, degree, input class counts."""
    __match_args__ = ("target", "degree", "exponents")

    def __init__(self, target: TargetSpace, degree: Degree,
                 exponents: ExponentVector) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "degree", validate_degree(target, degree))
        object.__setattr__(self, "exponents",
                           _checked_exponents(target, exponents))

    def _values(self) -> tuple:
        return (self.target, self.degree, self.exponents)

    @classmethod
    def from_classes(cls, target: TargetSpace, degree: Degree,
                     classes: Iterable[int]) -> "InvariantKey":
        return cls(target, degree, exponents_from_classes(target, classes))

    @property
    def n_marks(self) -> int:
        return sum(self.exponents)

    @property
    def codim_sum(self) -> int:
        return total_codim(self.target, self.exponents)

    def __str__(self) -> str:
        names = [self.target.basis_name(i) + (f"^{a}" if a > 1 else "")
                 for i, a in enumerate(self.exponents) if a]
        body = "*".join(names) if names else "1"
        return f"I_{self.degree}({body}) on {self.target}"


def parse_basis_class(target: TargetSpace, name: str) -> int:
    """Parse a basis class name such as ``h2`` or ``T3`` into its index: the
    target's prefix in either case, then ASCII decimal digits."""
    text = name.strip()
    digits = text[1:]
    if (text[:1].lower() == target.prefix.lower() and digits.isascii()
            and digits.isdigit() and int(digits) < target.basis_size):
        return int(digits)
    raise ValueError(f"unknown basis class {name!r} for {target}")
