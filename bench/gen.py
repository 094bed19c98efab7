"""Seeded input generation for the four benchmark workloads.

Every workload draws its operations from a finite *domain* (the set of
inputs the reference table in ``reference.json`` covers) in sessions of a
fixed shape.  Sizes inside a session are stratified: for k operations of a
kind, the i-th size comes from the i-th of k equal slices of the size
range.  Sessions come in blocks (the sessions an untraced run repeats);
inside a block each slice, and the list of keys of each stratum, is cut
again into one piece per session, and every session gets its own piece,
at a seeded point in the middle half of it.  Neighbouring pieces take
mirrored points (u and 1 - u), so a point drawn high in one is matched by
a low one in the next.  Each seed therefore draws other inputs, but every block has the
same spread of sizes and nearly the same total cost, which keeps medians
and tail percentiles steady from seed to seed.

The program sees only the generated inputs; nothing here imports gwcalc.
"""

from __future__ import annotations

import itertools
import random

# Per-size settings.  "full" is what the benchmark measures; "tiny" is the
# self-test's seconds-long variant.  Every tiny range lies inside the full
# domain, so one reference table covers both.
SIZES = {
    "full": {
        # N_d ceiling: cold n_d(220) takes about 0.5 s; see README.md.
        "nd": (40, 220), "nde": (4, 26),
        # (r, lowest degree, highest degree) strata of admissible P^r keys.
        "pr": ((3, 2, 8), (4, 2, 7), (5, 2, 5)), "p1x1_total": 10,
        "p2_order": (40, 150), "p1x1_order": (6, 12), "general_order": (3, 5),
        "phi_order": {"p2": (2, 8), "p3": (2, 6), "p1xp1": (2, 8)},
        "bigq_order": (4, 10), "star_exponent": (1, 24),
        "nd_upto": (100, 200), "nde_upto": (12, 20),
        # Sessions an untraced run plays over and over: 160 counts, 636
        # invariants, 320 quantum and 104 cli ops, each set 2-11 s at the
        # reference speed (speed.py), so a 30-second run repeats every op
        # about twice or more.
        "run_sessions": {"counts": 16, "invariants": 12, "quantum": 16,
                         "cli": 8},
        # Sessions a traced run plays, untraced and then traced: fixed work,
        # so per-layer totals compare across versions.  About 10 s
        # untraced on a 2-core host, at least 100 ops each.
        "trace_sessions": {"counts": 10, "invariants": 20, "quantum": 40,
                           "cli": 8},
    },
    "tiny": {
        "nd": (5, 25), "nde": (2, 6),
        "pr": ((3, 1, 3), (4, 1, 2), (5, 1, 1)), "p1x1_total": 4,
        "p2_order": (8, 20), "p1x1_order": (3, 5), "general_order": (2, 3),
        "phi_order": {"p2": (2, 4), "p3": (2, 3), "p1xp1": (2, 4)},
        "bigq_order": (2, 4), "star_exponent": (1, 6),
        "nd_upto": (10, 20), "nde_upto": (3, 5),
        "run_sessions": {"counts": 2, "invariants": 1, "quantum": 2,
                         "cli": 1},
        "trace_sessions": {"counts": 2, "invariants": 1, "quantum": 2,
                           "cli": 1},
    },
}

WORKLOADS = ("counts", "invariants", "quantum", "cli")
FORMATS = ("plain", "csv", "json")
BASIS_SIZE = {"p2": 3, "p3": 4, "p4": 5, "p1xp1": 4}


class Draws:
    """The seeded choices of one run of one workload.

    ``rng`` serves choices whose spread does not matter (formats, orders of
    ops); ``u(name, index)`` is session ``index``'s point in [0, 1) of the
    stratified, mirrored grid of its block (see above), used for sizes and
    keys.
    """

    def __init__(self, workload: str, seed: int, block: int) -> None:
        self.key = f"{workload}:{seed}"
        self.rng = random.Random(self.key)
        self.block = block
        self.grids: dict[tuple[str, int], list[float]] = {}

    def u(self, name: str, index: int) -> float:
        number, at = divmod(index, self.block)
        grid = self.grids.get((name, number))
        if grid is None:
            rng = random.Random(f"{self.key}:{name}:{number}")
            offsets = []
            for piece in range(self.block):
                offsets.append(rng.uniform(0.25, 0.75) if piece % 2 == 0
                               else 1.0 - offsets[-1])
            grid = [(piece + x) / self.block
                    for piece, x in enumerate(offsets)]
            rng.shuffle(grid)
            self.grids[(name, number)] = grid
        return grid[at]

    def pick(self, name: str, index: int, items):
        return items[int(self.u(name, index) * len(items))]

    def stratified_pick(self, name: str, index: int, k: int, items) -> list:
        """k items, one from each of k equal slices of the list."""
        return [items[min(len(items) - 1,
                          int((i + self.u(f"{name}{i}", index))
                              * len(items) / k))]
                for i in range(k)]

    def stratified(self, name: str, index: int, k: int, lo: int,
                   hi: int) -> list[int]:
        """k integers in [lo, hi], one from each of k equal slices."""
        return self.stratified_pick(name, index, k, range(lo, hi + 1))


# -- P^r invariant keys ------------------------------------------------------

def admissible_pr(r: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors over h0..hr with classes of codimension >= 2 only
    that pass the dimension gate in degree d >= 1, with at least two marks.

    With a_i classes h^i the gate reads sum (i - 1) a_i = (r+1) d + r - 3.
    """
    need = (r + 1) * d + r - 3
    out: list[tuple[int, ...]] = []

    def rec(i: int, left: int, acc: list[int]) -> None:
        if i > r:
            if left == 0 and sum(acc) >= 2:
                out.append((0, 0) + tuple(acc))
            return
        for a in range(left // (i - 1) + 1):
            rec(i + 1, left - a * (i - 1), acc + [a])

    rec(2, need, [])
    return out


def pr_domain(strata) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """Admissible keys per (r, d) stratum, ordered by mark count."""
    return {(r, d): sorted(admissible_pr(r, d), key=lambda k: (sum(k), k))
            for r, low, high in strata for d in range(low, high + 1)}


def pr_key_text(r: int, d: int, exps: tuple[int, ...]) -> str:
    return f"{r}|{d}|" + ",".join(map(str, exps))


# -- session generators ------------------------------------------------------

def counts_session(draws: Draws, index: int, size: dict) -> list[tuple]:
    """6 cold N_d and 4 cold N_(d,e), sizes stratified over the ranges.
    Bidegrees are stratified over the pairs (big, small) of the range
    ranked by (big + 1)(small + 1), which tracks their cost; each is asked
    for in a seeded orientation."""
    ops: list[tuple] = [("n_d", d) for d in
                        draws.stratified("nd", index, 6, *size["nd"])]
    for big, small in draws.stratified_pick("nde", index, 4,
                                            bidegrees(*size["nde"])):
        pair = (big, small) if draws.rng.random() < 0.5 else (small, big)
        ops.append(("n_de",) + pair)
    draws.rng.shuffle(ops)
    return ops


def bidegrees(lo: int, hi: int) -> list[tuple[int, int]]:
    pairs = [(big, small) for big in range(lo, hi + 1)
             for small in range(lo, big + 1)]
    return sorted(pairs, key=lambda p: ((p[0] + 1) * (p[1] + 1), p))


def invariants_session(draws: Draws, index: int, size: dict,
                       domain) -> list[tuple]:
    """Two queries per (r, d) stratum, plus divisor and fundamental-class
    reductions, gate rejections, P1xP1 keys and collected queries.  Keys
    of a stratum are ordered by mark count, so the sequence spreads the
    picks over cheap and costly keys alike.

    A session climbs in degree, as a user working up from small cases
    would: P^r queries run in ascending degree, the others are slotted in
    at seeded points.  Lower-degree answers are then reused as
    sub-invariants instead of being asked for after they are already
    memoised, so most queries do reconstruction work and the median op is
    one of them rather than a memo hit.
    """
    rng = draws.rng
    strata = sorted(domain)
    slots = itertools.count()

    def key(name: str):
        # The strata, whose costs differ by orders of magnitude, are taken
        # in turn, the same for every seed; the key inside one is seeded.
        r, d = strata[(index + next(slots)) % len(strata)]
        return r, d, list(draws.pick(name, index, domain[(r, d)]))

    ops: list[tuple] = []
    for r, d in strata:
        keys = domain[(r, d)]
        u = draws.u(f"gw{r},{d}", index)
        for shift in (0.0, 0.5):
            ops.append(("gw", r, d, keys[int((u + shift) % 1.0 * len(keys))]))
    for i in range(6):                       # divisor reduction fires
        r, d, exps = key(f"h1_{i}")
        exps[1] = 1 + i % 3
        ops.append(("gw", r, d, tuple(exps)))
    for i in range(3):                       # fundamental-class reduction
        r, d, exps = key(f"h0_{i}")
        low = [c for c in range(2, r) if exps[c]]
        if low:                              # keep the key admissible
            exps[low[0]] -= 1
            exps[low[0] + 1] += 1
        exps[0] = 1
        ops.append(("gw", r, d, tuple(exps)))
    for i in range(4):                       # the dimension gate fires
        r, d, exps = key(f"gate{i}")
        exps[2 + i % (r - 1)] += 1
        ops.append(("gw", r, d, tuple(exps)))
    for i in range(2):                       # the degree is only for ordering
        r, d, exps = key(f"collected{i}")
        ops.append(("collected_pr", r, tuple(exps), d))
    rng.shuffle(ops)
    ops.sort(key=lambda op: op[2] if op[0] == "gw" else op[3])
    for i in range(3):
        at = rng.randint(0, len(ops))
        ops.insert(at, ("p1x1",) + p1x1_key(draws, index, f"p1x1_{i}", size))
    at = rng.randint(0, len(ops))
    ops.insert(at, ("collected_p1x1",
                    p1x1_key(draws, index, "collected_p1x1", size)[2]))
    return ops


def p1x1_key(draws: Draws, index: int, name: str, size: dict) -> tuple:
    total = 1 + int(draws.u(name, index) * size["p1x1_total"])
    d = draws.rng.randint(0, total)
    exps = (0, draws.rng.randint(0, 3), draws.rng.randint(0, 3),
            2 * total - 1)
    return d, total - d, exps


def quantum_session(draws: Draws, index: int, size: dict) -> list[tuple]:
    """Twenty series-layer operations: WDVV residuals, structure constants,
    big and small quantum products, small quantum powers.  Orders, index
    tuples and targets are stratified over the block of sessions, so every
    seed gets the same cost mix over a run; the rng only orders the ops
    and picks ring coefficients."""
    rng = draws.rng
    ops: list[tuple] = []
    ops += [("wdvv_p2", o) for o in
            draws.stratified("p2", index, 2, *size["p2_order"])]
    ops += [("wdvv_p1x1", o) for o in
            draws.stratified("p1x1", index, 2, *size["p1x1_order"])]
    for i, order in enumerate(draws.stratified("general", index, 2,
                                               *size["general_order"])):
        r = 2 + i
        ops.append(("wdvv_general", r,
                    draws.pick(f"general_ijkl{i}", index,
                               index_tuples(r + 1, 4)),
                    order))
    for i, target in enumerate(("p2", "p3", "p1xp1", "p1xp1")):
        triples = sorted({tuple(sorted(t))
                          for t in index_tuples(BASIS_SIZE[target], 3)})
        lo, hi = size["phi_order"][target]
        order = lo + int(draws.u(f"phi{i}", index) * (hi - lo + 1))
        ops.append(("phi", target, draws.pick(f"phi_ijk{i}", index, triples),
                    order))
    orders = draws.stratified("bigq", index, 4, *size["bigq_order"])
    for i, (target, order) in enumerate(zip(("p2", "p3", "p1xp1", "p1xp1"),
                                            orders)):
        pair = draws.pick(f"bigq_pair{i}", index,
                          index_tuples(BASIS_SIZE[target], 2))
        ops.append(("big_qmul", target, *pair, order))
    targets = ("p2", "p3", "p4", "p1xp1")
    for i in range(3):
        target = draws.pick(f"small{i}", index, targets)
        ops.append(("small_qmul", target, ring_term(rng, target),
                    ring_term(rng, target)))
    for i in range(3):
        target = draws.pick(f"star_target{i}", index, targets)
        lo, hi = size["star_exponent"]
        power = lo + int(draws.u(f"star{i}", index) * (hi - lo + 1))
        ops.append(("star_power", target, ring_term(rng, target), power))
    rng.shuffle(ops)
    return ops


def index_tuples(m: int, k: int) -> list[tuple[int, ...]]:
    """All k-tuples over range(m), in lexicographic order."""
    return list(itertools.product(range(m), repeat=k))


def ring_term(rng: random.Random, target: str) -> tuple:
    """(basis index, coefficient, deformation-parameter monomial)."""
    nparams = 2 if target == "p1xp1" else 1
    return (rng.randrange(BASIS_SIZE[target]), rng.choice((-3, -1, 1, 2, 5)),
            tuple(rng.randint(0, 2) for _ in range(nparams)))


# -- CLI ---------------------------------------------------------------------

def cli_light_domain() -> dict[str, list[list[str]]]:
    """Light-compute command lines for each of the seven subcommands."""
    cmds: dict[str, list[list[str]]] = {}
    cmds["nd"] = ([["nd", "--d", str(d)] for d in range(1, 41)]
                  + [["nd", "--d", str(d), "--upto"] for d in range(1, 31)])
    cmds["nde"] = ([["nde", "--d", str(d), "--e", str(e)]
                    for d in range(9) for e in range(9) if d + e]
                   + [["nde", "--upto", str(u)] for u in range(7)])
    gw = []
    for r, top in ((2, 5), (3, 3), (4, 2)):
        for d in range(1, top + 1):
            for exps in admissible_pr(r, d):
                classes = ",".join(f"h{i}:{a}" for i, a in enumerate(exps) if a)
                gw.append(["gw", "--target", f"p{r}", "--degree", str(d),
                           "--classes", classes])
                gw.append(["gw", "--target", f"p{r}", "--collected",
                           "--classes", classes + ",h1:1"])
    for d in range(4):
        for e in range(4):
            if d + e:
                pts = f"T3:{2 * (d + e) - 1}"
                gw.append(["gw", "--target", "p1xp1", "--degree", f"{d},{e}",
                           "--classes", pts + ",T1:1"])
                gw.append(["gw", "--target", "p1xp1", "--collected",
                           "--classes", pts + ",T2:2"])
    cmds["gw"] = gw
    qmul = []
    for target in ("p2", "p3", "p1xp1"):
        names = [("T" if target == "p1xp1" else "h") + str(i)
                 for i in range(BASIS_SIZE[target])]
        for a in names:
            for b in names:
                qmul.append(["qmul", "--target", target, "--small", a, b])
                if a <= b:
                    for order in (1, 2, 3):
                        qmul.append(["qmul", "--target", target, "--big",
                                     "--order", str(order), a, b])
    cmds["qmul"] = qmul
    cmds["wdvv"] = ([["wdvv", "--target", "p2", "--order", str(o)]
                     for o in range(4, 31)]
                    + [["wdvv", "--target", "p1xp1", "--order", str(o)]
                       for o in range(2, 7)])
    pot = [["potential", "--target", t] for t in ("p1", "p2", "p3", "p1xp1")]
    pot += [["potential", "--target", t, "--quantum", "--order", str(o)]
            for t, top in (("p1", 10), ("p2", 12), ("p1xp1", 6))
            for o in range(2, top + 1)]
    cmds["potential"] = pot
    parts = []
    for marks in range(4, 8):
        for degree in ("0", "1", "2", "1,0", "1,1"):
            base = ["partitions", "--marks", str(marks), "--degree", degree,
                    "--pins", "m1,m2:p1,p2"]
            parts += [base, base + ["--count"]]
    cmds["partitions"] = parts
    return cmds


def cli_cache_commands(size: dict) -> list[list[str]]:
    lo, hi = size["nd_upto"]
    cmds = [["nd", "--d", str(d), "--upto"] for d in range(lo, hi + 1)]
    lo, hi = size["nde_upto"]
    return cmds + [["nde", "--upto", str(u)] for u in range(lo, hi + 1)]


def cli_session(draws: Draws, index: int, size: dict, light) -> list[tuple]:
    """One light call per subcommand plus three GW_CACHE pairs (cold write,
    then warm read of the same file): two ``nd --upto`` and one
    ``nde --upto``, formats drawn from all three.

    The two cold ``nd --upto`` calls are about 15% of the ops, so the 90th
    percentile falls inside their size range rather than on the edge of a
    cluster.
    """
    rng = draws.rng
    ops: list[tuple] = []
    for name in sorted(light):
        argv = ["--format", rng.choice(FORMATS)] + rng.choice(light[name])
        ops.append(("light", argv))
    pairs = [["nd", "--d", str(d), "--upto"]
             for d in draws.stratified("nd", index, 2, *size["nd_upto"])]
    lo, hi = size["nde_upto"]
    upto = lo + int(draws.u("nde", index) * (hi - lo + 1))
    pairs.append(["nde", "--upto", str(upto)])
    rng.shuffle(ops)
    for argv in pairs:
        argv = ["--format", rng.choice(FORMATS)] + argv
        at = rng.randint(0, len(ops))
        ops[at:at] = [("cold", argv), ("warm", argv)]
    return ops
