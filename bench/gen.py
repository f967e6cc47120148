"""Seeded input generation for the benchmark, in plain Python.

Nothing here imports ``cutpoint``: inputs are generated before the program is
imported, so set-up time measures only the program.  A machine is a plain
dict::

    {"model": "gfa" | "pfa" | "mcqfa" | "qfa", "n": states,
     "letters": {symbol: matrix, or a list of Kraus matrices for qfa},
     "initial": 1-based basis index, a vector, or (qfa) a density matrix,
     "final": row vector (gfa/pfa) or 1-based accept states (mcqfa/qfa)}

Scalars are ``Fraction`` (real) or ``(re, im)`` pairs of ``Fraction``.

Sizes are drawn by stratified sampling: a deck of K questions takes one value
from each of K equal slices of the size range, with a seeded jitter inside
the slice.  Every seed then gets the same spread of sizes, which keeps the
run-to-run spread of the timings small while the inputs themselves change.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: generators (m, n) of primitive Pythagorean triples
TRIPLES = [(2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (6, 1), (8, 3)]


def triple_cs(m: int, n: int) -> tuple[Fraction, Fraction]:
    """Exact (cos, sin) of the angle of the triple generated by (m, n)."""
    h = m * m + n * n
    return Fraction(m * m - n * n, h), Fraction(2 * m * n, h)


def stratified(rng, k: int, lo: float, hi: float, log: bool = True) -> list[float]:
    """k values, one per equal slice of [lo, hi] (in log space if ``log``),
    jittered inside the slice and returned in slice order."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = []
    for i in range(k):
        t = a + (i + rng.random()) * (b - a) / k
        out.append(math.exp(t) if log else t)
    return out


# exact linear algebra over Fraction (lists of rows)

def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(a):
    """Gauss-Jordan inverse of a nonsingular Fraction matrix."""
    n = len(a)
    m = [list(r) + e for r, e in zip(a, identity(n))]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [r[n:] for r in m]


def cayley_orthogonal(rng, n: int):
    """Dense exact rational orthogonal matrix (I - S)(I + S)^-1 for a random
    integer skew-symmetric S with entries in [-1, 1]."""
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-1, 1)
            s[i][j], s[j][i] = v, -v
    plus = [[Fraction(int(i == j) + s[i][j]) for j in range(n)] for i in range(n)]
    minus = [[Fraction(int(i == j) - s[i][j]) for j in range(n)] for i in range(n)]
    return matmul(minus, inverse(plus))


def givens_orthogonal(rng, n: int, triples=TRIPLES):
    """Exact rational orthogonal matrix: one Pythagorean rotation on each
    neighbouring coordinate pair, with random signs.  Denominators stay the
    product of n - 1 hypotenuses, so step costs are predictable."""
    u = identity(n)
    for i in range(n - 1):
        c, s = triple_cs(*rng.choice(triples))
        if rng.random() < 0.5:
            s = -s
        g = identity(n)
        g[i][i], g[i][i + 1], g[i + 1][i], g[i + 1][i + 1] = c, -s, s, c
        u = matmul(g, u)
    return u


def unit_phase(rng):
    """A Gaussian rational of modulus 1: (a + bi)/h from a triple, or +-1, +-i."""
    if rng.random() < 0.3:
        return rng.choice([(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
                           (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))])
    c, s = triple_cs(*rng.choice(TRIPLES[:3]))
    return (c, s if rng.random() < 0.5 else -s)


def with_phases(rng, u):
    """u @ diag(phases): a unitary with Gaussian-rational entries."""
    phases = [unit_phase(rng) for _ in u]
    return [[(x * ph[0], x * ph[1]) for x, ph in zip(row, phases)] for row in u]


def scale(c, m):
    return [[c * x for x in row] for row in m]


def kraus_weights(rng, triples) -> list[Fraction]:
    """Two rational weights whose squares sum to 1."""
    return list(triple_cs(*rng.choice(triples)))


def random_fraction(rng, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def stochastic(rng, n: int, den: int):
    """Left-stochastic matrix (columns sum to 1) with denominator ``den``."""
    cols = []
    for _ in range(n):
        cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        cols.append([Fraction(p, den) for p in parts])
    return [list(r) for r in zip(*cols)]


def dense_density(rng, n: int):
    """Dense rank-n density matrix U diag(p) U^T with rational orthogonal U.

    Validating it expands every principal minor, whose cost drops when
    entries are zero and grows with their bit size; of five candidates with
    no zero entry the one of median total bit size is returned, so the cost
    of loading it varies little from seed to seed."""
    candidates = []
    while len(candidates) < 5:
        u = cayley_orthogonal(rng, n)
        w = [rng.randint(1, 4) for _ in range(n)]
        p = [Fraction(x, sum(w)) for x in w]
        d = [[p[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        rho = matmul(matmul(u, d), [list(c) for c in zip(*u)])
        if all(x != 0 for row in rho for x in row):
            bits = sum(x.numerator.bit_length() + x.denominator.bit_length()
                       for row in rho for x in row)
            candidates.append((bits, rho))
    candidates.sort(key=lambda c: c[0])
    return candidates[2][1]


# machines

def px_machine(x: Fraction) -> dict:
    """Data of the three-state unary PFA family member with parameter x."""
    z, o = Fraction(0), Fraction(1)
    a = [[z, z, x], [o, z, x], [z, o, 1 - 2 * x]]
    return {"model": "pfa", "n": 3, "letters": {"a": a}, "initial": 1,
            "final": [z, z, o]}


def two_state_pfa(x: Fraction, y: Fraction) -> dict:
    a = [[1 - x, y], [x, 1 - y]]
    return {"model": "pfa", "n": 2, "letters": {"a": a}, "initial": 1,
            "final": [Fraction(0), Fraction(1)]}


def random_gfa(rng, n: int, alphabet) -> dict:
    letters = {s: [[random_fraction(rng, 3, 4) for _ in range(n)] for _ in range(n)]
               for s in alphabet}
    final = [random_fraction(rng, 2, 3) for _ in range(n)]
    return {"model": "gfa", "n": n, "letters": letters, "initial": 1, "final": final}


def random_pfa(rng, n: int, alphabet) -> dict:
    letters = {s: stochastic(rng, n, rng.choice([4, 6, 10])) for s in alphabet}
    final = [Fraction(rng.randint(0, 1)) for _ in range(n)]
    final[-1] = Fraction(1)
    return {"model": "pfa", "n": n, "letters": letters, "initial": 1, "final": final}


def random_mcqfa(rng, n: int, alphabet, complex_: bool) -> dict:
    letters = {}
    for s in alphabet:
        u = givens_orthogonal(rng, n)
        letters[s] = with_phases(rng, u) if complex_ else u
    accept = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    return {"model": "mcqfa", "n": n, "letters": letters, "initial": 1, "final": accept}


def random_qfa(rng, n: int, alphabet, dense: bool = False, triples=TRIPLES) -> dict:
    """Exact QFA: each symbol has Kraus elements c_k U_k with sum c_k^2 = 1
    and rational orthogonal U_k; ``dense`` also makes the initial density
    matrix dense (its validation checks every principal minor).  ``triples``
    fixes the rotations, and with them how fast the entries grow per step."""
    letters = {}
    for s in alphabet:
        ws = kraus_weights(rng, triples[:4])
        if dense:
            us = [cayley_orthogonal(rng, n) for _ in ws]
        else:
            us = [givens_orthogonal(rng, n, triples) for _ in ws]
        letters[s] = [scale(w, u) for w, u in zip(ws, us)]
    initial = dense_density(rng, n) if dense else 1
    accept = sorted(rng.sample(range(1, n + 1), max(1, n // 2)))
    return {"model": "qfa", "n": n, "letters": letters, "initial": initial, "final": accept}
