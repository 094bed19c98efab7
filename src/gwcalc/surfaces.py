"""Counts of rational curves on the plane and on the quadric surface.

``n_d(d)`` is the number of rational degree-d plane curves through 3d-1
general points, computed by Kontsevich's recursion from the single seed
N_1 = 1.  ``n_de(d, e)`` is the analogous count of bidegree-(d, e) rational
curves in P1 x P1 through 2d+2e-1 general points, seeded by the rule counts
N_(1,0) = N_(0,1) = 1 and N_(d,0) = N_(0,d) = 0 for d > 1.

Both recursions arise from a balance equation between two equivalent
boundary divisors of a moduli space of stable maps.  The unknown count
appears exactly once, with coefficient one, in the term where one twig
carries degree zero and both line conditions; the implementation moves
every other term to the right-hand side.

Each recursion is one function, its bottom-up filler: ``_fill_nd`` fills
its table in rising degree, ``_fill_nde`` in rising d + e, so no call
stack grows with the degree.  Every new entry gets one binomial row, built
incrementally, and every unordered split of its degree is visited once:
the symmetry C(n, k) = C(n, n - k) turns the binomials of a split's mirror
into entries of the same row, so the two terms share one product of lower
counts.  A filler also checks the degree and answers the base cases, and
fills whatever table it is handed: the public counts differ only in that
table, the shared memo for ``n_d`` and ``n_de`` and a caller's dict for
the raw variants.

The memo tables are write-once per key and the functions are deterministic,
so concurrent callers always observe identical values.  Every bidegree
table is keyed by (min, max), since the count is symmetric in the
bidegree.  The test suite checks both orientations against an unpaired
reference recursion, whose sums for (d, e) and (e, d) differ.
"""

from __future__ import annotations

from .targets import _pair, validate_degree

_ND_CACHE: dict[int, int] = {}
_NDE_CACHE: dict[tuple[int, int], int] = {}


def clear_caches() -> None:
    """Drop all memoized curve counts (cold start for tests and timing)."""
    _ND_CACHE.clear()
    _NDE_CACHE.clear()


def seed_caches(nd: dict[int, int] | None = None,
                nde: dict[tuple[int, int], int] | None = None) -> None:
    """Pre-populate the memo tables, e.g. from a persisted cache file.

    Entries are trusted as-is; the persistent cache is a convenience for
    batch workflows, not a source of verification.  The keys the tables
    never read are left out: N_d below d = 2 and N_(d,e) with a side below
    1, which the recursions give themselves.
    """
    if nd:
        _ND_CACHE.update((d, value) for d, value in nd.items() if d >= 2)
    if nde:
        for (d, e), value in nde.items():
            if min(d, e) >= 1:
                _NDE_CACHE[(min(d, e), max(d, e))] = value


def cache_snapshot() -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Copies of the current memo tables, for persistence."""
    return dict(_ND_CACHE), dict(_NDE_CACHE)


def _binomial_row(n: int, top: int) -> list[int]:
    """C(n, 0), ..., C(n, top), built by C(n, j+1) = C(n, j) (n-j) / (j+1).

    Entries past n come out zero, as the recursions need.
    """
    row = [1]
    value = 1
    for j in range(top):
        value = value * (n - j) // (j + 1)
        row.append(value)
    return row


def _fill_nd(d: int, table: dict[int, int]) -> int:
    """N_d from the plane recursion, filling ``table`` in rising degree.

    The balance equation for degree k reads

        N_k + sum C(3k-4, 3a-1) a^2 N_a * a b * N_b
            = sum C(3k-4, 3a-2) a N_a * a b * b N_b

    with both sums over a + b = k, a, b >= 1.  Because
    C(3k-4, 3b-2) = C(3k-4, 3a-2) and C(3k-4, 3b-1) = C(3k-4, 3a-3), the
    terms for a and b share one product N_a N_b, so each unordered split
    is visited once; the split a = b is its own mirror and counted once.
    Entries already in ``table`` are reused, missing ones are written;
    N_1 = 1 is never read from or written to it.
    """
    if d < 1:
        raise ValueError(f"plane curve count needs degree >= 1, got {d}")
    if d == 1:
        return 1
    value = table.get(d)
    if value is not None:
        return value
    counts = [0, 1]
    for k in range(2, d + 1):
        value = table.get(k)
        if value is None:
            half = k // 2
            row = _binomial_row(3 * k - 4, 3 * half - 1)
            value = 0
            for a in range(1, half + 1):
                b = k - a
                j = 3 * a
                if a == b:
                    weight = (row[j - 2] - row[j - 1]) * a ** 4
                else:
                    weight = a * b * (2 * a * b * row[j - 2]
                                      - a * a * row[j - 1]
                                      - b * b * row[j - 3])
                value += weight * (counts[a] * counts[b])
            table[k] = value
        counts.append(value)
    return counts[d]


def _fill_nde(d: int, e: int, table: dict[tuple[int, int], int]) -> int:
    """N_(d,e) from the bidegree recursion, filling ``table[(p, q)]`` with
    p <= q for every entry of the box up to (min(d, e), max(d, e)) in
    rising p + q.

    The count is symmetric in the bidegree, so the box is taken with its
    shorter side first and each entry with p > q is read back from its
    mirror (q, p): that lies in the box with the same degree sum and a
    smaller first index.  On the axes the count is the rule count, never
    stored: N_(0,1) = N_(1,0) = 1 and N_(0,k) = N_(k,0) = 0 for k > 1.

    The sum for (p, q) runs over splits A + B = (p, q) with both parts
    nonzero.  With s = |A| = d_A + e_A and m = 2(p+q) - 4, the split
    contributes

        <A, B> (C(m, 2s-2) d_A e_B - C(m, 2s-1) d_A e_A) N_A N_B,

    where <A, B> = d_A e_B + e_A d_B is the intersection pairing.  Since
    C(m, 2|B|-2) = C(m, 2s-2) and C(m, 2|B|-1) = C(m, 2s-3), the terms of
    (A, B) and (B, A) share one product N_A N_B and are summed together;
    the split A = B is counted once.  Splits with a zero count (a part of
    bidegree (0, k) or (k, 0) with k > 1, or the undefined (0, 0)) are
    skipped before any product is formed.
    """
    if d < 0 or e < 0:
        raise ValueError(f"bidegree components must be >= 0, got ({d}, {e})")
    if d + e < 1:
        raise ValueError("the bidegree (0, 0) count is not defined")
    if d > e:
        d, e = e, d
    if d == 0:
        # A bidegree (0, k) curve is a union of k rules, fixed by k points;
        # 2k - 1 > k general points are incompatible unless k = 1.
        return 1 if e == 1 else 0
    value = table.get((d, e))
    if value is not None:
        return value
    # Rule counts on the axes; the (0, 0) corner is never a factor.
    counts = [[0] * (e + 1) for _ in range(d + 1)]
    counts[0][1] = counts[1][0] = 1
    for total in range(2, d + e + 1):
        m = 2 * total - 4
        row = None
        for p in range(max(1, total - e), min(d, total - 1) + 1):
            q = total - p
            slot = (p, q) if p <= q else (q, p)
            value = table.get(slot)
            if value is None:
                if row is None:
                    # shifted by one so that C(m, -1) = 0 sits at row[0]
                    row = [0] + _binomial_row(m, m + 1)
                value = 0
                for x in range(p // 2 + 1):
                    mirror = 2 * x == p
                    for y in range((q // 2 if mirror else q) + 1):
                        xb, yb = p - x, q - y
                        na, nb = counts[x][y], counts[xb][yb]
                        if not (na and nb):
                            continue
                        pairing = x * yb + y * xb
                        i = 2 * (x + y)     # row[i] = C(m, 2s - 1)
                        if mirror and 2 * y == q:
                            weight = pairing * x * y * (row[i - 1] - row[i])
                        else:
                            weight = pairing * (pairing * row[i - 1]
                                                - x * y * row[i]
                                                - xb * yb * row[i - 2])
                        if weight:
                            value += weight * (na * nb)
                table[slot] = value
            counts[p][q] = value
    return counts[d][e]


def n_d_raw(d: int, cache: dict[int, int] | None = None) -> int:
    """Degree-d plane curve count filled into ``cache`` instead of the
    shared memo table; ``cache=None`` starts from a fresh table."""
    return _fill_nd(d, {} if cache is None else cache)


def n_d(d: int) -> int:
    """Number of rational degree-d plane curves through 3d-1 general points."""
    return _fill_nd(d, _ND_CACHE)


def n_de_raw(d: int, e: int, cache: dict[tuple[int, int], int] | None = None) -> int:
    """Bidegree-(d, e) count filled into ``cache`` instead of the shared
    memo table; ``cache=None`` starts from a fresh table.  The entries go
    under the same (min, max) keys as in the shared table."""
    return _fill_nde(d, e, {} if cache is None else cache)


def n_de(d: int, e: int) -> int:
    """Number of rational bidegree-(d, e) curves in P1 x P1 through
    2d+2e-1 general points."""
    return _fill_nde(d, e, _NDE_CACHE)


def required_points(target, degree) -> int:
    """Number of general point conditions that make the count finite on a
    surface target: c1(beta) - 1 = index * (total degree) - 1, which is
    3d-1 on the plane and 2d+2e-1 on the quadric."""
    if target.dimension != 2:
        raise ValueError(
            f"required_points is defined for P^2 and P1xP1, got {target}")
    pairings = target.pairings(validate_degree(target, degree))
    if sum(pairings) < 1:
        raise ValueError(
            f"plane curve count needs degree >= 1, got {degree}"
            if len(pairings) == 1 else f"invalid bidegree {degree}")
    return target.index * sum(pairings) - 1


def genus_nodal_p2(d: int, delta: int) -> int:
    """Genus of a nodal degree-d plane curve with delta nodes:
    (d-1)(d-2)/2 - delta."""
    if type(d) is not int or type(delta) is not int:
        raise ValueError(f"degree and node count must be integers, got "
                         f"{d!r} and {delta!r}")
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if delta < 0:
        raise ValueError(f"node count must be >= 0, got {delta}")
    g = (d - 1) * (d - 2) // 2 - delta
    if g < 0:
        raise ValueError(
            f"inconsistent input: degree {d} admits at most "
            f"{(d - 1) * (d - 2) // 2} nodes")
    return g


def genus_smooth_p1x1(d: int, e: int) -> int:
    """Genus of a smooth bidegree-(d, e) curve in P1 x P1: (d-1)(e-1)."""
    if type(d) is not int or type(e) is not int:
        raise ValueError(f"genus formula needs integers d, e, got "
                         f"({d!r}, {e!r})")
    if d < 1 or e < 1:
        raise ValueError(f"genus formula needs d, e >= 1, got ({d}, {e})")
    return (d - 1) * (e - 1)


def bidegree_intersection(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Intersection number of curves of bidegrees a and b in P1 x P1:
    d_A e_B + e_A d_B.

    This is the sum form demanded by every identity that uses it, e.g.
    (d, e) o (1, 1) = d + e.
    """
    pair_a, pair_b = _pair(a), _pair(b)
    if pair_a is None or pair_b is None:
        raise ValueError(
            f"bidegrees must be pairs of integers, got {a!r} and {b!r}")
    (da, ea), (db, eb) = pair_a, pair_b
    return da * eb + ea * db
