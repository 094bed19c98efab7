"""Oracles the benchmark checks every operation against, outside timing.

* Golden tables: N_1..N_12 and the bidegree table for d, e <= 3, from the
  literature (Kontsevich-Manin), plus four classical P^3 counts.
* ``reference.json``: a sha256 digest of the exact value of every input in
  the workloads' finite domains.  ``make_reference.py`` wrote it once and
  cross-checked each value by an independent route when it did (see there).
* Independent recomputation: ``n_de_raw`` in the other orientation, with
  a private memo kept for the whole run; P1xP1 invariants from those
  counts times their divisor factors.
* Identities: WDVV residuals must be the zero series; small quantum
  products must match the ring presentations written out below.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

ND_GOLDEN = [1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392,
             19385778269260800, 40739017561997799680,
             120278021410937387514880, 482113680618029292368686080]
NDE_GOLDEN = {
    (0, 1): 1, (0, 2): 0, (0, 3): 0,
    (1, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1,
    (2, 0): 0, (2, 1): 1, (2, 2): 12, (2, 3): 96,
    (3, 0): 0, (3, 1): 1, (3, 2): 96, (3, 3): 3510,
}
# Lines meeting 4 lines, conics meeting 8 lines, twisted cubics meeting 12
# lines and through 6 points, in P^3.
PR_GOLDEN = {(3, 1, (0, 0, 4, 0)): 2, (3, 2, (0, 0, 8, 0)): 92,
             (3, 3, (0, 0, 12, 0)): 80160, (3, 3, (0, 0, 0, 6)): 1}


def digest(value) -> str:
    """Digest of an exact value: ints and Fractions in hexadecimal (no
    decimal conversion, so Python's int-to-str digit limit never applies),
    text and bytes as they are."""
    if isinstance(value, Fraction):
        text = f"{value.numerator:x}/{value.denominator:x}"
    elif isinstance(value, int):
        text = f"{value:x}"
    elif isinstance(value, str):
        text = value
    else:
        return hashlib.sha256(value).hexdigest()[:20]
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference() -> dict[str, dict[str, str]]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def expect_digest(table: dict[str, str], key: str, value) -> bool:
    return key in table and table[key] == digest(value)


# -- small quantum rings, from their presentations --------------------------

def small_product(target: str, a: tuple, b: tuple) -> dict:
    """Expected coefficients of (c1 q^m1 T_i) * (c2 q^m2 T_j).

    P^r: h^i h^j = q^((i+j) // (r+1)) h^((i+j) mod (r+1)) in
    Q[h, q]/(h^(r+1) - q).  P1xP1: T1 = v, T2 = h, T3 = vh in
    Q[h, v, q_h, q_v]/(h^2 - q_h, v^2 - q_v), monomials (q_v, q_h).
    """
    (i, c1, m1), (j, c2, m2) = a, b
    mono = tuple(x + y for x, y in zip(m1, m2))
    basis, carry = _reduce(target, _word(target, i), _word(target, j))
    mono = tuple(x + y for x, y in zip(mono, carry))
    return {basis: {mono: Fraction(c1 * c2)}}


def small_power(target: str, a: tuple, n: int) -> dict:
    i, c, m = a
    word = tuple(x * n for x in _word(target, i))
    basis, carry = _reduce(target, word, (0,) * len(word))
    mono = tuple(x * n + y for x, y in zip(m, carry))
    return {basis: {mono: Fraction(c ** n)}}


_P1X1_WORDS = ((0, 0), (1, 0), (0, 1), (1, 1))   # T_i as (v, h) exponents


def _word(target: str, i: int) -> tuple[int, ...]:
    """Exponents of the generators (h for P^r; v, h for P1xP1) in T_i."""
    return _P1X1_WORDS[i] if target == "p1xp1" else (i,)


def _reduce(target: str, x: tuple, y: tuple) -> tuple[int, tuple]:
    """Basis index and parameter monomial of the product of two words."""
    if target == "p1xp1":
        v, h = x[0] + y[0], x[1] + y[1]
        return _P1X1_WORDS.index((v % 2, h % 2)), (v // 2, h // 2)
    r = int(target[1:])
    total = x[0] + y[0]
    return total % (r + 1), (total // (r + 1),)
