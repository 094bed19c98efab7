"""Weighted partitions indexing boundary divisors of the moduli spaces.

A boundary divisor of a space of stable maps is labeled by a split of the
mark set into two twigs together with a split of the (bi)degree.  A side
carrying degree zero must hold at least two marks: together with the node
that gives the three special points a degree-zero twig needs, so the full
Kontsevich three-point condition is met without counting the node here.

``enumerate_partitions`` lists the divisors appearing in one pinned
boundary relation D(ij|kl): the pinned pair (i, j) always sits on the A
side, which fixes the orientation and prevents double counting across
complements.  It and ``count_pinned_partitions`` check the pins by
``_pinned`` and the degree by ``targets._degree_parts``.
"""

from __future__ import annotations

from math import prod
from typing import Iterator, Sequence

from .exact import multinomial
from .targets import _Record, _degree_parts


class MarkSet(_Record):
    """An ordered set of distinct mark labels."""
    __match_args__ = ("labels",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        if len(set(labels)) != len(labels):
            raise ValueError("mark labels must be distinct")
        object.__setattr__(self, "labels", labels)

    def _values(self) -> tuple[tuple[str, ...]]:
        return (self.labels,)

    @classmethod
    def standard(cls, n: int) -> "MarkSet":
        """m1, m2, p1, ..., p(n-2): the naming used by the curve counts."""
        if n < 2:
            raise ValueError(f"a standard mark set needs n >= 2, got {n}")
        return cls(("m1", "m2") + tuple(f"p{i}" for i in range(1, n - 1)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"mark {label!r} is not in the mark set") from None

    def __iter__(self):
        return iter(self.labels)


class WeightedPartition(_Record):
    """A two-twig boundary label: mark split (A, B) plus degree split.

    ``e_a``/``e_b`` are None for a plain degree and integers for a
    bidegree.  Stability demands at least two marks on a side whose total
    degree vanishes.
    """
    __match_args__ = ("a", "b", "d_a", "d_b", "e_a", "e_b")

    def __init__(self, a: tuple[str, ...], b: tuple[str, ...], d_a: int,
                 d_b: int, e_a: int | None = None,
                 e_b: int | None = None) -> None:
        values = (a, b, d_a, d_b, e_a, e_b)
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)
        if (self.e_a is None) != (self.e_b is None):
            raise ValueError("either both or neither bidegree side is set")
        for side, total in (("A", self.total_a), ("B", self.total_b)):
            if total < 0:
                raise ValueError(f"negative degree on side {side}")
        if self.total_a == 0 and len(self.a) < 2:
            raise ValueError("unstable: degree-zero side A has < 2 marks")
        if self.total_b == 0 and len(self.b) < 2:
            raise ValueError("unstable: degree-zero side B has < 2 marks")

    def _values(self) -> tuple:
        return (self.a, self.b, self.d_a, self.d_b, self.e_a, self.e_b)

    @property
    def total_a(self) -> int:
        return self.d_a + (self.e_a or 0)

    @property
    def total_b(self) -> int:
        return self.d_b + (self.e_b or 0)

    def to_json(self) -> dict:
        record = {"A": list(self.a), "B": list(self.b),
                  "dA": self.d_a, "dB": self.d_b}
        if self.e_a is not None:
            record["eA"] = self.e_a
            record["eB"] = self.e_b
        return record


def _pinned(marks: MarkSet, pins: tuple[Sequence[str], Sequence[str]]
            ) -> tuple[str, str, str, str]:
    """The pinned marks (i, j, k, l), once they are checked to be four
    distinct members of the mark set."""
    (i, j), (k, l) = pins
    if len({marks.index(p) for p in (i, j, k, l)}) != 4:
        raise ValueError("the four pinned marks must be distinct")
    return i, j, k, l


def _degree_splits(degree) -> Iterator[tuple[int, int, int | None, int | None]]:
    parts = _degree_parts(degree)
    if len(parts) == 1:
        (d,) = parts
        for da in range(d + 1):
            yield da, d - da, None, None
        return
    d, e = parts
    for da in range(d + 1):
        for ea in range(e + 1):
            yield da, d - da, ea, e - ea


def enumerate_partitions(marks: MarkSet, degree,
                         pins: tuple[Sequence[str], Sequence[str]]
                         ) -> list[WeightedPartition]:
    """All stable weighted partitions with the pins (i, j | k, l) honored.

    The four pinned marks must be distinct members of the mark set; i and j
    go to side A, k and l to side B, the remaining marks are distributed
    freely.  The result is in canonical order: degree split ascending, then
    the A side in mark-set order.
    """
    pinned = i, j, k, l = _pinned(marks, pins)
    degrees = list(_degree_splits(degree))
    spare = [m for m in marks if m not in pinned]
    order = {label: pos for pos, label in enumerate(marks)}.__getitem__
    sides = []
    for mask in range(1 << len(spare)):
        side_a = [m for t, m in enumerate(spare) if mask >> t & 1]
        side_b = [m for t, m in enumerate(spare) if not mask >> t & 1]
        sides.append((tuple(sorted([i, j] + side_a, key=order)),
                      tuple(sorted([k, l] + side_b, key=order))))
    # The degree splits come in ascending order, so one sort of the mark
    # splits puts the whole list in canonical order.
    sides.sort(key=lambda ab: list(map(order, ab[0])))
    return [WeightedPartition(a, b, da, db, ea, eb)
            for da, db, ea, eb in degrees for a, b in sides]


def count_pinned_partitions(marks: MarkSet, degree,
                            pins: tuple[Sequence[str], Sequence[str]]) -> int:
    """Closed-form count of the pinned enumeration: with both pinned pairs
    present, stability never bites, so the count factors as the number of
    degree splits, (d + 1)(e + 1) or d + 1, times 2^(n - 4) for the n - 4
    spare marks."""
    _pinned(marks, pins)
    splits = prod(part + 1 for part in _degree_parts(degree))
    return splits * 2 ** (marks.size - 4)


def stratum_dimension(n: int, delta: int) -> int:
    """Dimension of the locus of stable n-pointed rational curves with
    delta nodes: n - 3 - delta."""
    if type(n) is not int or type(delta) is not int:
        raise ValueError(f"mark and node counts must be integers, got "
                         f"{n!r} and {delta!r}")
    if n < 3:
        raise ValueError(f"need n >= 3 marks, got {n}")
    if not 0 <= delta <= n - 3:
        raise ValueError(
            f"node count must satisfy 0 <= delta <= n - 3, got {delta}")
    return n - 3 - delta


def boundary_divisor_count_m0n(n: int) -> int:
    """Number of boundary divisors of the n-pointed curve space:
    unordered splits A | B with both sides of size >= 2, i.e.
    2^(n-1) - 1 - n."""
    if type(n) is not int:
        raise ValueError(f"mark count must be an integer, got {n!r}")
    if n < 4:
        raise ValueError(f"boundary divisors need n >= 4, got {n}")
    return 2 ** (n - 1) - 1 - n


def count_labeled_configurations(n: int, shape: Sequence[int]) -> int:
    """Number of ways to distribute n labeled marks over twigs of the
    given sizes: the multinomial n! / prod(size!)."""
    sizes = list(shape)
    if any(s < 0 for s in sizes):
        raise ValueError(f"twig sizes must be >= 0, got {shape}")
    if sum(sizes) != n:
        raise ValueError(f"twig sizes {shape} must sum to n={n}")
    return multinomial(sizes)
