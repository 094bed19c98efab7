"""Degree-1 invariants of P^r by Schubert calculus, shared by the tests.

A degree-1 map is a line, so I_1(h^a_1 ... h^a_n) with every a_i >= 2 is
the number of lines meeting n general linear subspaces of codimensions
a_1, ..., a_n: the degree of the product of the special Schubert classes
sigma_(a_i - 1) on the Grassmannian G(2, r + 1) of lines in P^r.  Pieri's
rule multiplies them on two-row partitions in a 2 x (r - 1) box, and the
count is the coefficient of the point class sigma_(r-1, r-1).  Nothing
here uses the reconstruction, its memo or its gate.  (Griffiths-Harris,
Principles of Algebraic Geometry, 1978, section 1.5; Fulton, Young
Tableaux, 1997, chapter 9.)
"""


def pieri(r, shape, k):
    """The shapes of sigma_k * sigma_shape on G(2, r + 1), each with
    coefficient one: (m1, m2) in the 2 x (r - 1) box with
    m1 + m2 = l1 + l2 + k and m2 <= l1 <= m1, l2 <= m2."""
    l1, l2 = shape
    total = l1 + l2 + k
    return [(m1, total - m1)
            for m1 in range(max(l1, total - l1), min(r - 1, total - l2) + 1)]


def lines_meeting(r, codims):
    """I_1 of the classes h^a, a in ``codims`` (each 1..r), on P^r: the
    number of lines meeting general linear subspaces of those
    codimensions, zero unless the a - 1 sum to 2r - 2 = dim G(2, r + 1)."""
    if sum(codims) - len(codims) != 2 * r - 2:
        return 0
    shapes = {(0, 0): 1}
    for a in codims:
        grown = {}
        for shape, ways in shapes.items():
            for bigger in pieri(r, shape, a - 1):
                grown[bigger] = grown.get(bigger, 0) + ways
        shapes = grown
    return shapes.get((r - 1, r - 1), 0)
