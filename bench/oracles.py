"""Independent exact oracles the benchmark checks every answer against.

None of these call ``cutpoint``.  Values are computed fraction-free: the
state is a list of Python integers over one common denominator, and a model
is a sparse integer matrix per symbol acting on that list (a quantum state
is carried as its real and imaginary parts, a density matrix as its
row-major vectorisation under the superoperator sum_E conj(E) (x) E).  An
answer is accepted only when it is a ``Fraction`` equal to the oracle value,
compared by cross-multiplication, never by a tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _pair(x) -> tuple[Fraction, Fraction]:
    if isinstance(x, tuple):
        return Fraction(x[0]), Fraction(x[1])
    return Fraction(x), Fraction(0)


def _lcm_den(pairs) -> int:
    d = 1
    for re, im in pairs:
        d = math.lcm(d, re.denominator, im.denominator)
    return d


class LinearOracle:
    """Fraction-free evaluator of a machine given as benchmark data."""

    def __init__(self, machine: dict):
        model, n = machine["model"], machine["n"]
        self.model = model
        init = machine["initial"]
        if model == "qfa":
            steps = {s: _superoperator(es) for s, es in machine["letters"].items()}
            if isinstance(init, int):
                init = [[Fraction(int(i == j == init - 1)) for j in range(n)] for i in range(n)]
            x0 = [_pair(v) for row in init for v in row]
            self.dim = n * n
        else:
            steps = {s: _integer(m) for s, m in machine["letters"].items()}
            if isinstance(init, int):
                init = [Fraction(int(i == init - 1)) for i in range(n)]
            x0 = [_pair(v) for v in init]
            self.dim = n
        self.real = all(b == 0 for m, _ in steps.values() for row in m for _, b in row)
        self.real = self.real and all(im == 0 for _, im in x0)
        self.steps = {s: (self._rows(m), d) for s, (m, d) in steps.items()}
        d0 = _lcm_den(x0)
        self.x0 = [int(re * d0) for re, _ in x0]
        if not self.real:
            self.x0 += [int(im * d0) for _, im in x0]
        self.d0 = d0
        if model in ("gfa", "pfa"):
            f = [Fraction(v) for v in machine["final"]]
            self.fden = _lcm_den((v, Fraction(0)) for v in f)
            self.fnum = [int(v * self.fden) for v in f]
        else:
            self.accept = [q - 1 for q in machine["final"]]
            self.n = n

    def _rows(self, m):
        """Sparse rows of an integer (re, im) matrix acting on [re parts, im parts]."""
        dim = self.dim
        re_rows, im_rows = [], []
        for i in range(dim):
            re_row, im_row = [], []
            for j in range(dim):
                a, b = m[i][j]
                if a:
                    re_row.append((j, a))
                    im_row.append((dim + j, a))
                if b:
                    re_row.append((dim + j, -b))
                    im_row.append((j, b))
            re_rows.append(re_row)
            im_rows.append(im_row)
        return re_rows if self.real else re_rows + im_rows

    def _step(self, symbol, x):
        rows, d = self.steps[symbol]
        return [sum(c * x[j] for j, c in row) for row in rows], d

    def _readout(self, x, den) -> tuple[int, int]:
        if self.model in ("gfa", "pfa"):
            return sum(f * v for f, v in zip(self.fnum, x)), den * self.fden
        if self.model == "mcqfa":
            num = sum(x[q] * x[q] for q in self.accept)
            if not self.real:
                num += sum(x[self.dim + q] ** 2 for q in self.accept)
            return num, den * den
        return sum(x[q * self.n + q] for q in self.accept), den

    def value(self, word) -> tuple[int, int]:
        """(numerator, denominator) of the value on ``word``, not reduced."""
        x, den = self.x0, self.d0
        for s in word:
            x, d = self._step(s, x)
            den *= d
        return self._readout(x, den)

    def unary(self, limit: int):
        """Yield (numerator, denominator) on a^0 .. a^limit."""
        (symbol,) = self.steps
        x, den = self.x0, self.d0
        for m in range(limit + 1):
            yield self._readout(x, den)
            if m < limit:
                x, d = self._step(symbol, x)
                den *= d


def _integer(m):
    """(integer (re, im) matrix, d) with m = integer matrix / d."""
    pairs = [[_pair(v) for v in row] for row in m]
    d = _lcm_den(v for row in pairs for v in row)
    return [[(int(a * d), int(b * d)) for a, b in row] for row in pairs], d


def _superoperator(elements):
    """Integer matrix and denominator of rho -> sum_E E rho E^dagger on
    row-major vec(rho): entry ((i, j), (k, l)) is sum_E E[i][k] conj(E[j][l])."""
    d = _lcm_den(_pair(v) for e in elements for row in e for v in row)
    es = [[[(int(a * d), int(b * d)) for a, b in map(_pair, row)] for row in e] for e in elements]
    n = len(es[0])
    out = []
    for i in range(n):
        for j in range(n):
            row = []
            for k in range(n):
                for l in range(n):
                    re = im = 0
                    for e in es:
                        a, b = e[i][k]
                        c, dd = e[j][l]
                        re += a * c + b * dd  # (a + bi)(c - dd i)
                        im += b * c - a * dd
                    row.append((re, im))
            out.append(row)
    return out, d * d


def equal(answer, num: int, den: int) -> bool:
    """True iff ``answer`` is a Fraction equal to num/den."""
    return type(answer) is Fraction and answer.numerator * den == num * answer.denominator


def rotation_pairs(m: int, n: int, squared: bool = False):
    """(N_k, h^k) with cos(k theta) = N_k / h^k by the integer recurrence
    N_k = 2 a N_{k-1} - h^2 N_{k-2}; ``squared`` yields cos^2 instead."""
    a, h = m * m - n * n, m * m + n * n
    prev, cur, power = 1, a, 1
    yield (1, 1)
    while True:
        power *= h
        yield (cur * cur, power * power) if squared else (cur, power)
        prev, cur = cur, 2 * a * cur - h * h * prev


def density_first_hits(m: int, n: int, bins: int, limit: int) -> list:
    hits = [None] * bins
    left = bins
    for k, (num, den) in enumerate(rotation_pairs(m, n)):
        if k > limit or not left:
            break
        idx = min((num + den) * bins // (2 * den), bins - 1)
        if hits[idx] is None:
            hits[idx] = k
            left -= 1
    return hits


def above(num: int, den: int, cut: Fraction) -> bool:
    """num/den > cut for den > 0."""
    return num * cut.denominator > cut.numerator * den


# one-state machines

def one_state_member(numbers: dict, cutpoint: Fraction, direction: str, mode: str,
                     counts: dict) -> bool:
    """Direct product: prod numbers[a]^counts[a] compared to the cutpoint."""
    num = den = 1
    for a, k in counts.items():
        if k:
            v = numbers[a]
            num *= v.numerator ** k
            den *= v.denominator ** k
    lhs, rhs = num * cutpoint.denominator, cutpoint.numerator * den
    if mode == "inclusive":
        return lhs == rhs
    return lhs < rhs if direction == "less" else lhs > rhs


def parikh_classes(alphabet, max_len: int) -> list[tuple]:
    """All letter-count vectors of total length <= max_len."""
    out = [()]
    for _ in alphabet:
        out = [c + (k,) for c in out for k in range(max_len + 1 - sum(c))]
    return out


def descriptor_member(doc: dict, counts: dict) -> bool:
    """Membership in the language of a descriptor document, read from the
    document format's definition (solution / parity / indicator parts)."""
    present = {a for a, k in counts.items() if k}
    if doc["form"] == "indicator":
        return bool(present & set(doc["indicator"]["z"]))
    x = set(doc["parity"]["x"])
    in_x = present <= x
    par = sum(counts.get(a, 0) for a in doc["parity"]["y"]) % 2 == doc["parity"]["i"]
    sol_doc = doc["solution"]
    if sol_doc["threshold"] == "inf":
        sol = True
    else:
        num = den = 1
        for a, c in sol_doc["letters"].items():
            c = Fraction(c)
            k = counts.get(a, 0)
            num *= c.numerator ** k
            den *= c.denominator ** k
        tau = Fraction(sol_doc["threshold"])
        lhs, rhs = num * tau.denominator, tau.numerator * den
        sol = lhs == rhs if sol_doc["relation"] == "=" else lhs < rhs
    if doc["form"] == "vee":
        return not in_x or par or sol
    return in_x and par and sol


# unary language names

def parse_name(text: str) -> tuple[str, int | None]:
    text = text.strip()
    if "(" not in text:
        return text, None
    head, _, rest = text.partition("(")
    return head, int(rest.rstrip(")"))


def name_member(kind: str, n, m: int) -> bool:
    even = m % 2 == 0
    table = {
        "Empty": lambda: False, "All": lambda: True,
        "EpsilonOnly": lambda: m == 0, "APlus": lambda: m >= 1,
        "Even": lambda: even, "CoEven": lambda: not even,
        "Less": lambda: m <= n, "CoLess": lambda: m > n,
        "LessAndEven": lambda: m <= n and even, "LessAndCoEven": lambda: m <= n and not even,
        "CoLessAndEven": lambda: m > n and even, "CoLessAndCoEven": lambda: m > n and not even,
        "LessOrEven": lambda: m <= n or even, "LessOrCoEven": lambda: m <= n or not even,
        "CoLessOrEven": lambda: m > n or even, "CoLessOrCoEven": lambda: m > n or not even,
    }
    return table[kind]()


def check_two_state_name(name: str, oracle: LinearOracle, cutpoint: Fraction) -> bool:
    """Brute force: the name's membership agrees with value > cutpoint on
    a^m for every m <= 2n + 2 (n the name's parameter, at least 3)."""
    kind, n = parse_name(name)
    limit = 2 * max(n or 0, 3) + 2
    return all(
        name_member(kind, n, m) == above(num, den, cutpoint)
        for m, (num, den) in enumerate(oracle.unary(limit))
    )


# Chomsky verdicts by construction

def log_verdict(exponent_vectors: list[dict]) -> str:
    """Verdict of a strict one-state language from the prime-exponent
    vectors of its nonzero numbers' magnitudes (ignoring magnitude 1)."""
    vs = [v for v in exponent_vectors if v]
    signs = {_log_sign(v) for v in vs}
    if len(signs) <= 1:
        return "Regular"
    ref = vs[0]
    p0 = next(iter(ref))
    for v in vs[1:]:
        if set(v) != set(ref) or any(
            Fraction(v[p], v[p0]) != Fraction(ref[p], ref[p0]) for p in ref
        ):
            return "NonContextFree"
    return "ContextFreeNonRegular"


def _log_sign(v: dict) -> int:
    num = den = 1
    for p, e in v.items():
        if e > 0:
            num *= p**e
        else:
            den *= p ** (-e)
    return 1 if num > den else -1


def sympy_exponents(r: Fraction):
    """Prime-exponent vector of a positive rational by ``sympy.factorint``;
    None when sympy is not installed."""
    try:
        from sympy import factorint
    except ImportError:
        return None
    out = dict(factorint(r.numerator))
    for p, e in factorint(r.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e}


# binary64 check of the exclusive-to-zero transform

def float_mcqfa_value(doc: dict, word) -> float:
    def scal(x):
        return complex(x[0], x[1]) if isinstance(x, list) else complex(x)

    def apply(m, v):
        return [sum(scal(a) * b for a, b in zip(row, v)) for row in m]

    v = [scal(x) for x in doc["initial"]]
    for s in word:
        v = apply(doc["transitions"][s], v)
    if "right_marker" in doc:
        v = apply(doc["right_marker"], v)
    return sum(abs(v[q - 1]) ** 2 for q in doc["final"])
