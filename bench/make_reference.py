"""Write reference.json: a digest of the exact value of every input in the
benchmark's domains, each value cross-checked by an independent route
before it is written.

    PYTHONPATH=src python3 bench/make_reference.py

It was run once, on a commit whose tier-1 suite passed, and its output is
committed.  Run it again only when a domain in gen.py grows; it refuses to
write anything if a cross-check fails.  The routes:

* N_d, d <= 220: golden N_1..N_12, ``n_d_raw`` with a private memo, and the
  P^2 WDVV residual over the whole table, with the table as count source.
* N_(d,e), d, e <= 26: golden table, ``n_de_raw`` in both orientations with
  private memos, and the P1xP1 WDVV residual at order 12.
* P^r invariants: an independent implementation of the reconstruction
  below, which pins the two *smallest* remaining classes where gwcalc pins
  the two largest, so the two recursions expand different relations; plus
  four classical P^3 counts.
* Structure constants phi_ijk: rebuilt coefficient by coefficient from the
  independent invariants (P^r) or from the raw counts and the divisor
  axiom (P1xP1).
* Big quantum products: rebuilt from the checked phi_ijk and the Poincare
  pairing, plus associativity at low order.
* CLI outputs: every command exits 0; ``nd``/``nde`` plain output equals the
  checked counts and ``wdvv`` reports a zero residual.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from fractions import Fraction

import gen
import oracle
from gwcalc import cli, gw, potentials, rings, surfaces
from gwcalc.targets import P1XP1, InvariantKey, ProjectiveSpace

FULL = gen.SIZES["full"]
TARGETS = {"p2": ProjectiveSpace(2), "p3": ProjectiveSpace(3),
           "p1xp1": P1XP1}


def require(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"cross-check failed: {what}")


# -- curve counts ------------------------------------------------------------

def nd_table() -> dict[int, int]:
    top = FULL["nd"][1]
    nd = {d: surfaces.n_d(d) for d in range(1, top + 1)}
    private: dict = {}
    for d, value in nd.items():
        require(surfaces.n_d_raw(d, private) == value, f"n_d_raw({d})")
        if d <= len(oracle.ND_GOLDEN):
            require(value == oracle.ND_GOLDEN[d - 1], f"golden N_{d}")
    # N_top enters the coefficient of x^(3 top - 4) in G222.
    residual = potentials.wdvv_residual_p2(3 * top - 4, nd=nd.__getitem__)
    require(residual.is_zero(), "P^2 WDVV over the N_d table")
    return nd


def nde_table() -> dict[tuple[int, int], int]:
    top = FULL["nde"][1]
    table = {}
    forward: dict = {}
    backward: dict = {}
    for d in range(top + 1):
        for e in range(top + 1):
            if d + e == 0:
                continue
            value = surfaces.n_de(d, e)
            require(surfaces.n_de_raw(d, e, forward) == value
                    and surfaces.n_de_raw(e, d, backward) == value,
                    f"n_de_raw orientations at ({d}, {e})")
            if (d, e) in oracle.NDE_GOLDEN:
                require(value == oracle.NDE_GOLDEN[(d, e)], f"golden ({d},{e})")
            table[(d, e)] = value
    residual = potentials.wdvv_residual_p1x1(
        12, nde=lambda d, e: table[(d, e)])
    require(residual.is_zero(), "P1xP1 WDVV over the N_(d,e) table")
    return table


# -- an independent P^r reconstruction ---------------------------------------

class AltPr:
    """Genus-0 invariants of P^r from the relation D(m1,m2|p1,p2) =
    D(m1,p1|m2,p2) with the smallest class h^c split as h^1 u h^(c-1) on
    m1, m2 and the two smallest remaining classes on p1, p2.

    The unknown is the left-hand term with degree 0 and no free marks on
    the m side.  Every other term has lower degree, fewer marks, or (the
    right-hand degree-0 term) the same degree and marks with a larger sum
    of squared codimensions, which is bounded, so the recursion ends.
    """

    def __init__(self, r: int) -> None:
        self.r = r
        self.memo: dict = {}

    def value(self, d: int, exps: tuple) -> int:
        r = self.r
        n = sum(exps)
        if sum(i * a for i, a in enumerate(exps)) != r * d + r + d + n - 3:
            return 0
        if d == 0:
            return 1 if n == 3 else 0
        if exps[0]:
            return 0
        mult = d ** exps[1]
        exps = (0, 0) + tuple(exps[2:])
        n = sum(exps)
        if n < 3:
            return mult if d == 1 and n == 2 and exps[r] == 2 else 0
        key = (d, exps)
        if key not in self.memo:
            self.memo[key] = self.split(d, exps)
        return mult * self.memo[key]

    def split(self, d: int, exps: tuple) -> int:
        r = self.r
        classes = sorted(i for i, a in enumerate(exps) for _ in range(a))
        c, b1, b2 = classes[:3]
        free = list(exps)
        for i in (c, b1, b2):
            free[i] -= 1
        total = 0
        for da in range(d + 1):
            db = d - da
            for sub, ways in submultisets(free):
                comp = [f - s for f, s in zip(free, sub)]
                for i in range(r + 1):
                    j = r - i
                    unknown = da == 0 and not any(sub) and i == r - c
                    if not unknown:
                        left = self.value(da, bump(sub, (1, c - 1, i)))
                        if left:
                            total -= ways * left * self.value(
                                db, bump(comp, (b1, b2, j)))
                    left = self.value(da, bump(sub, (1, b1, i)))
                    if left:
                        total += ways * left * self.value(
                            db, bump(comp, (c - 1, b2, j)))
        return total


def bump(exps, extra) -> tuple:
    out = list(exps)
    for i in extra:
        out[i] += 1
    return tuple(out)


def submultisets(exps):
    out = [((), 1)]
    for count in exps:
        out = [(prefix + (take,), ways * math.comb(count, take))
               for prefix, ways in out for take in range(count + 1)]
    return out


def pr_table(alt: dict[int, AltPr]) -> dict[str, int]:
    table = {}
    domain = {}
    for size in gen.SIZES.values():
        domain.update(gen.pr_domain(size["pr"]))
    for (r, d), keys in sorted(domain.items()):
        for exps in keys:
            value = gw.gw_invariant(InvariantKey(ProjectiveSpace(r), d, exps))
            require(value.denominator == 1, f"integrality {r} {d} {exps}")
            value = value.numerator
            require(alt[r].value(d, exps) == value,
                    f"alternative reconstruction at P^{r} d={d} {exps}")
            golden = oracle.PR_GOLDEN.get((r, d, exps))
            require(golden is None or golden == value, f"golden {r} {d} {exps}")
            table[gen.pr_key_text(r, d, exps)] = value
    return table


# -- structure constants and big products -------------------------------------

def collected(target: str, exps: tuple, alt, nde: dict) -> int:
    """Collected invariant from the independent sources."""
    n = sum(exps)
    if target != "p1xp1":
        r = int(target[1:])
        num = sum(i * a for i, a in enumerate(exps)) - r - n + 3
        if num < 0 or num % (r + 1):
            return 0
        return alt[r].value(num // (r + 1), exps)
    a0, a1, a2, a3 = exps
    num = a1 + a2 + 2 * a3 - n + 1
    if num < 0 or num % 2:
        return 0
    total = num // 2
    if total == 0:
        return 1 if n == 3 and a1 <= 1 and a2 <= 1 else 0
    if a0:
        return 0
    return sum(e ** a1 * d ** a2 * nde[(d, e)]
               for d in range(total + 1) for e in [total - d])


def phi_table(alt, nde) -> tuple[dict[str, str], dict]:
    table = {}
    series = {}
    for target, t in TARGETS.items():
        m = t.basis_size
        hi = max(FULL["phi_order"][target][1], FULL["bigq_order"][1])
        for order in range(0, hi + 1):
            for ijk in sorted({tuple(sorted((i, j, k))) for i in range(m)
                               for j in range(m) for k in range(m)}):
                value = potentials.phi_ijk(t, *ijk, order)
                expected = {}
                for a in exponent_vectors(m, order):
                    c = collected(target, bump(a, ijk), alt, nde)
                    if c:
                        expected[a] = Fraction(
                            c, math.prod(math.factorial(x) for x in a))
                require(value.terms == expected,
                        f"phi {target} {ijk} order {order}")
                series[(target, ijk, order)] = value
                if order <= FULL["phi_order"][target][1]:
                    key = f"{target}|{','.join(map(str, ijk))}|{order}"
                    table[key] = value.render()
    return table, series


def exponent_vectors(m: int, total: int):
    if m == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in exponent_vectors(m - 1, total - head):
            yield (head,) + tail


def big_qmul_table(phi: dict) -> dict[str, str]:
    table = {}
    basis = rings.BigQuantumElement.basis
    for target, t in TARGETS.items():
        m = t.basis_size
        pairs = ({(0, 3), (1, 2), (2, 1), (3, 0)} if target == "p1xp1"
                 else {(e, m - 1 - e) for e in range(m)})
        for order in range(2, FULL["bigq_order"][1] + 1):
            for i in range(m):
                for j in range(i, m):
                    product = rings.big_qmul(basis(t, i, order),
                                             basis(t, j, order))
                    for e, f in pairs:
                        require(product.components[f].terms ==
                                phi[(target, tuple(sorted((i, j, e))), order)
                                    ].terms,
                                f"big_qmul {target} {i} {j} {order}")
                    table[f"{target}|{i},{j}|{order}"] = product.render()
            if order <= 4:
                for i in range(m):
                    a, b, c = (basis(t, i, order), basis(t, 1, order),
                               basis(t, m - 1, order))
                    require(rings.big_qmul(rings.big_qmul(a, b), c)
                            == rings.big_qmul(a, rings.big_qmul(b, c)),
                            f"associativity {target} order {order}")
    return table


# -- CLI -----------------------------------------------------------------------

def cli_table(nd: dict, nde: dict) -> dict[str, bytes]:
    os.environ.pop("GW_CACHE", None)
    commands = [argv for group in gen.cli_light_domain().values()
                for argv in group]
    for size in gen.SIZES.values():
        commands += gen.cli_cache_commands(size)
    table = {}
    for argv in commands:
        for fmt in gen.FORMATS:
            full = ["--format", fmt] + argv
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(full)
            text = buffer.getvalue()
            require(code == 0, f"exit code of {' '.join(full)}")
            if fmt == "plain":
                check_plain(argv, text, nd, nde)
            table[" ".join(full)] = text.encode("utf-8")
    return table


def check_plain(argv, text: str, nd: dict, nde: dict) -> None:
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "nd":
        top = int(argv[2])
        if "--upto" in argv:
            want = "".join(f"{d}\t{nd[d]}\n" for d in range(1, top + 1))
        else:
            want = f"{nd[top]}\n"
        require(text == want, " ".join(argv))
    elif argv[0] == "nde" and "--upto" not in argv:
        require(text == f"{nde[(int(opts['--d']), int(opts['--e']))]}\n",
                " ".join(argv))
    elif argv[0] == "wdvv":
        require(text.startswith("ZERO"), " ".join(argv))


def main() -> int:
    nd = nd_table()
    print(f"N_d: {len(nd)} values checked", flush=True)
    nde = nde_table()
    print(f"N_(d,e): {len(nde)} values checked", flush=True)
    alt = {r: AltPr(r) for r in (2, 3, 4, 5)}
    pr = pr_table(alt)
    print(f"P^r invariants: {len(pr)} values checked", flush=True)
    phi_text, phi = phi_table(alt, nde)
    print(f"phi_ijk: {len(phi_text)} series checked", flush=True)
    bigq = big_qmul_table(phi)
    print(f"big_qmul: {len(bigq)} products checked", flush=True)
    clis = cli_table(nd, nde)
    print(f"CLI: {len(clis)} outputs checked", flush=True)
    reference = {
        "nd": {str(d): oracle.digest(v) for d, v in nd.items()},
        "nde": {f"{d},{e}": oracle.digest(v) for (d, e), v in nde.items()
                if d <= e},
        "pr": {k: oracle.digest(v) for k, v in pr.items()},
        "phi": {k: oracle.digest(v) for k, v in phi_text.items()},
        "big_qmul": {k: oracle.digest(v) for k, v in bigq.items()},
        "cli": {k: oracle.digest(v) for k, v in clis.items()},
    }
    with open(oracle.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {oracle.REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
