"""Exact rational and complex-rational scalars, small dense matrices, the
integer-row kernel, and number-theoretic predicates.

Scalars come in four kinds: exact rationals (``fractions.Fraction``), exact
complex numbers with rational parts (``GaussianRational``), binary64 reals
(``float``), and binary64 complex (``complex``).  ``Matrix`` and
``GaussianRational`` carry values across the library boundary and do no
arithmetic: a ``Matrix`` is homogeneous in scalar kind, so exact and
approximate kinds never mix silently, and exact to binary64 means building a
``Matrix`` from ``float(x)`` or ``complex(x)``.  Exact arithmetic happens in
one place, on integer rows over one common denominator (:func:`scaled`,
:func:`int_matmul`).

The module also holds two decorators the whole package uses:
:func:`record`, which makes a class a frozen value record, and
:func:`unlimited_digits`.
"""

from __future__ import annotations

import cmath
import math
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import reduce, wraps
from operator import mul
from typing import Iterable, Optional, Sequence, Union

KIND_RATIONAL = "rational"
KIND_COMPLEX_RATIONAL = "complex-rational"
KIND_FLOAT = "float"
KIND_COMPLEX_FLOAT = "complex-float"

EXACT_KINDS = (KIND_RATIONAL, KIND_COMPLEX_RATIONAL)

#: default tolerance for structural validation of binary64 matrices
VALIDATION_TOL = 1e-12


class ScalarMixError(TypeError):
    """Raised when exact and approximate scalars meet without an explicit coercion."""


_REQUIRED = object()


def record(cls):
    """``cls`` as a frozen value record.  The fields are the annotated class
    attributes in definition order, after those of record bases; a class
    attribute is the field's default.  Instances take the fields positionally
    or by keyword, then run ``__post_init__``; they are equal when their
    classes are the same and their field values equal, hash their field
    values, and refuse every assignment and deletion.  An ``__eq__``,
    ``__hash__`` or ``__repr__`` of ``cls`` itself is kept.  Every record
    shares the functions below, so defining one compiles no code."""
    fields = dict(zip(getattr(cls, "_record_names", ()), getattr(cls, "_record_defaults", ())))
    own = vars(cls)
    for name in own.get("__annotations__", {}):
        fields[name] = own.get(name, _REQUIRED)
    cls._record_names, cls._record_defaults = tuple(fields), tuple(fields.values())
    cls.__init__ = _record_init
    cls.__setattr__ = cls.__delattr__ = _record_frozen
    for name, method in (("__eq__", _record_eq), ("__hash__", _record_hash),
                         ("__repr__", _record_repr)):
        if own.get(name) is None:
            setattr(cls, name, method)
    if not hasattr(cls, "__post_init__"):
        cls.__post_init__ = _record_no_checks
    return cls


def _record_init(self, *args, **kwargs):
    cls = type(self)
    names, n = cls._record_names, len(args)
    # one attribute at a time in field order, as a dataclass sets them, keeps
    # the instance's values inline and its attribute reads fast
    for name, value in zip(names, args):
        object.__setattr__(self, name, value)
    for name, default in zip(names[n:], cls._record_defaults[n:]):
        value = kwargs.pop(name, default)
        if value is _REQUIRED:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        object.__setattr__(self, name, value)
    if kwargs or n > len(names):
        raise TypeError(f"{cls.__name__}() takes the arguments {names}, got {n} positional "
                        f"and the keywords {sorted(kwargs)} left over")
    self.__post_init__()


def _record_no_checks(self):
    pass


def _record_values(r) -> tuple:
    return tuple([getattr(r, name) for name in r._record_names])


def _record_eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    return _record_values(self) == _record_values(other)


def _record_hash(self):
    return hash(_record_values(self))


def _record_repr(self):
    inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_names)
    return f"{type(self).__qualname__}({inner})"


def _record_frozen(self, name, *value):
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is frozen")


def unlimited_digits(fn):
    """``fn`` with the interpreter's limit on the digits of an int/str conversion
    lifted for the call and restored after it, also after an exception: exact
    values have no size limit.  A call made with the limit already lifted,
    such as one nested in another lifted call, runs as it is.  Builds before
    3.10.7 have no limit to lift."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return fn

    @wraps(fn)
    def call(*args, **kwargs):
        limit = sys.get_int_max_str_digits()
        if not limit:
            return fn(*args, **kwargs)
        sys.set_int_max_str_digits(0)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(limit)

    return call


@record
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!s}, {self.im!s})"


Scalar = Union[Fraction, GaussianRational, float, complex]


def scalar_kind(x: Scalar) -> str:
    """Classify a scalar value into one of the four kinds (ints count as rational)."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, (int, Fraction)):
        return KIND_RATIONAL
    if isinstance(x, GaussianRational):
        return KIND_COMPLEX_RATIONAL
    if isinstance(x, float):
        return KIND_FLOAT
    if isinstance(x, complex):
        return KIND_COMPLEX_FLOAT
    raise TypeError(f"unsupported scalar type: {type(x).__name__}")


def join_kinds(a: str, b: str) -> str:
    """Combined kind of two scalar kinds; real embeds in complex within one
    exactness class, but exact and approximate never join implicitly."""
    if a == b:
        return a
    pair = {a, b}
    if pair == {KIND_RATIONAL, KIND_COMPLEX_RATIONAL}:
        return KIND_COMPLEX_RATIONAL
    if pair == {KIND_FLOAT, KIND_COMPLEX_FLOAT}:
        return KIND_COMPLEX_FLOAT
    raise ScalarMixError(f"cannot mix scalar kinds {a} and {b}; convert explicitly")


def is_exact_kind(kind: str) -> bool:
    return kind in EXACT_KINDS


def scalar_real(x: Scalar):
    if isinstance(x, GaussianRational):
        return x.re
    if isinstance(x, complex):
        return x.real
    return x


def scalar_imag(x: Scalar):
    if isinstance(x, GaussianRational):
        return x.im
    if isinstance(x, complex):
        return x.imag
    return 0


def scalar_to_float(x: Scalar):
    """Exact-to-approximate coercion; complex kinds map to ``complex``."""
    if isinstance(x, GaussianRational):
        return complex(x)
    if isinstance(x, complex):
        return x
    return float(x)


def _coerce_entry(x, kind: str):
    if kind == KIND_RATIONAL and isinstance(x, int):
        return Fraction(x)
    return x


class Matrix:
    """An immutable dense matrix with a homogeneous scalar kind.

    Row vectors are 1 x n matrices and column vectors n x 1; there is no
    separate vector type.  Integer entries are absorbed into the rational kind.
    """

    __slots__ = ("data", "rows", "cols", "kind")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        kind = scalar_kind(rows[0][0])
        for r in rows:
            for x in r:
                kind = join_kinds(kind, scalar_kind(x))
        data = tuple(tuple(_coerce_entry(x, kind) for x in r) for r in rows)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # construction helpers

    @classmethod
    def column(cls, entries: Iterable[Scalar]) -> "Matrix":
        return cls([[x] for x in entries])

    @classmethod
    def row(cls, entries: Iterable[Scalar]) -> "Matrix":
        return cls([list(entries)])

    # access

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def col_values(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def flat(self):
        for r in self.data:
            yield from r

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_exact(self) -> bool:
        return is_exact_kind(self.kind)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self) -> "Matrix":
        return Matrix([list(c) for c in zip(*self.data)])

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix[{self.rows}x{self.cols} {self.kind}]({body})"


def one_zero(kind: str):
    """The scalars one and zero of a kind."""
    if kind == KIND_RATIONAL:
        return Fraction(1), Fraction(0)
    if kind == KIND_COMPLEX_RATIONAL:
        return GaussianRational(Fraction(1), Fraction(0)), GaussianRational(Fraction(0), Fraction(0))
    if kind == KIND_FLOAT:
        return 1.0, 0.0
    if kind == KIND_COMPLEX_FLOAT:
        return complex(1.0), complex(0.0)
    raise ValueError(f"unknown scalar kind {kind}")


# fraction-free form: integer rows over one common denominator

def scaled(matrices: Sequence[Matrix], realify: bool = False) -> tuple[list, Union[int, float]]:
    """Integer rows of matrices over one common denominator.

    Returns ``(parts, d)`` with ``matrices[k] == parts[k] / d``, d the lcm of
    the denominators of every entry.  Binary64 entries stay floats and d is
    1.0, so the type of d tells the two apart and one code path serves both.
    With ``realify`` a matrix A + iB becomes the real matrix
    [[A, -B], [B, A]]: realify(E F) = realify(E) realify(F) and
    realify(E^dagger) = realify(E)^T, so complex steps run as real ones.
    """
    parts = []
    for m in matrices:
        rows = [list(map(scalar_real, r)) for r in m.data]
        if realify:
            imag = [list(map(scalar_imag, r)) for r in m.data]
            rows = [r + [-x for x in s] for r, s in zip(rows, imag)] + [
                s + r for r, s in zip(rows, imag)
            ]
        parts.append(rows)
    if not matrices[0].is_exact:
        return [[[float(x) for x in r] for r in rows] for rows in parts], 1.0
    d = math.lcm(*(x.denominator for rows in parts for r in rows for x in r))
    return [
        [[x.numerator * (d // x.denominator) for x in r] for r in rows] for rows in parts
    ], d


def quotient(x, d):
    """x / d as a normalised Fraction for an exact scale d, in binary64 otherwise."""
    return Fraction(x, d) if isinstance(d, int) else x / d


def unscaled(rows: list, d, realify: bool = False) -> Matrix:
    """The matrix ``rows / d``: inverts :func:`scaled`, reading a realified
    matrix through its first block column (or its one column [a; b])."""
    if not realify:
        return Matrix([[quotient(x, d) for x in r] for r in rows])
    n, w = len(rows) // 2, max(1, len(rows[0]) // 2)
    make = GaussianRational if isinstance(d, int) else complex
    return Matrix([
        [make(quotient(a, d), quotient(b, d)) for a, b in zip(re[:w], im[:w])]
        for re, im in zip(rows[:n], rows[n:])
    ])


def int_matmul(a: list, b: list) -> list:
    """Product of two matrices given as lists of rows, on plain integers (or
    binary64 floats), with no normalisation."""
    cols = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in cols] for r in a]


# matrix validation

@unlimited_digits
def validate_matrix(kind: str, m, tol=0) -> list[str]:
    """Check a structural property and return human-readable violations.

    ``kind`` is one of ``stochastic`` (left stochastic; a column is a
    one-column stochastic matrix), ``unitary``, ``density``, or ``kraus-set``
    (a list of matrices; one matrix is a one-element set, so a unit column
    passes and any other column reports its real squared norm).  ``tol = 0``
    demands exact scalars.  Every check is exact, with binary64 entries
    (which must be finite) at their dyadic values and ``tol`` as
    ``Fraction(tol)``: an entry passes within ``tol`` of its target, and a
    density matrix rho when (rho + rho^H)/2 + tol*I is positive semidefinite.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    if isinstance(m, Matrix):
        elements = [m]
    elif kind == "kraus-set":
        elements = list(m)
        if not elements:
            return ["empty operation-element list"]
        if any(e.shape != elements[0].shape for e in elements):
            return ["operation elements have mismatched shapes"]
    else:
        raise TypeError("expected a Matrix")
    if tol == 0 and not all(e.is_exact for e in elements):
        raise ValueError("tol=0 requires exact scalars")
    tol = Fraction(tol) if tol else 0  # an int 0 keeps exact checks on integers
    if kind == "kraus-set":
        if elements[0].cols == 1 < elements[0].rows:  # columns: E†E is one squared norm
            return _gram_violations(elements, tol, "squared norm {real}, not 1")
        return _gram_violations(elements, tol, "stacked columns not orthonormal: (E†E)[{i},{j}] = {x}")
    if kind == "unitary":
        if not m.is_square:
            return [f"unitary matrix must be square, got {m.shape}"]
        return _gram_violations(elements, tol, "(M†M)[{i},{j}] = {x}, expected {target}")
    if kind == "stochastic":
        return _validate_stochastic(m, tol)
    if kind == "density":
        return _validate_density(m, tol)
    raise ValueError(f"unknown validation kind {kind!r}")


def _near(re, im, tol) -> bool:
    """|re + i im| <= tol for exact values; tol 0 compares with ==."""
    if not tol:
        return re == 0 and im == 0
    return re * re + im * im <= tol * tol


def exact_matrix(m: Matrix) -> Matrix:
    """m with each binary64 entry replaced by its exact dyadic value; a
    non-finite entry raises ``ValueError``."""
    if m.is_exact:
        return m
    if not all(map(cmath.isfinite, m.flat())):
        raise ValueError("matrix entries must be finite")
    if m.kind == KIND_COMPLEX_FLOAT:
        return Matrix([[GaussianRational(x.real, x.imag) for x in r] for r in m.data])
    return Matrix([[Fraction(x) for x in r] for r in m.data])


def _shown(x, kind: str):
    """An exact value as a matrix of ``kind`` reports it."""
    return x if is_exact_kind(kind) else scalar_to_float(x)


def _validate_stochastic(m: Matrix, tol) -> list[str]:
    if m.kind not in (KIND_RATIONAL, KIND_FLOAT):
        return [f"stochastic matrix must have real entries, got kind {m.kind}"]
    (rows,), d = scaled([exact_matrix(m)])
    bound = tol * d
    issues = [f"negative entry {m[i, j]} at ({i + 1},{j + 1})"
              for i, r in enumerate(rows) for j, x in enumerate(r) if x < -bound]
    for j, col in enumerate(zip(*rows)):
        s = sum(col)
        if not _near(s - d, 0, bound):
            issues.append(f"column {j + 1} sums to {_shown(Fraction(s, d), m.kind)}, not 1")
    return issues


def _gram_violations(elements: list, tol, message: str) -> list[str]:
    """Entries of sum E†E off the identity, each formatted by ``message``.
    On the integer rows X of the realified elements over one d,
    X^T X = d^2 realify(sum E†E); its first n columns hold the real parts
    over the imaginary parts.  Only a reported entry becomes exact scalars."""
    kind = reduce(join_kinds, (e.kind for e in elements))
    cmplx = kind in (KIND_COMPLEX_RATIONAL, KIND_COMPLEX_FLOAT)
    parts, d = scaled([exact_matrix(e) for e in elements], realify=cmplx)
    x = [r for rows in parts for r in rows]
    n, d2 = elements[0].cols, d * d
    bound = tol * d2
    gram = int_matmul(list(zip(*x)), [r[:n] for r in x])
    issues = []
    for i in range(n):
        for j in range(n):
            target = 1 if i == j else 0
            re, im = gram[i][j], gram[i + n][j] if cmplx else 0
            if not _near(re - target * d2, im, bound):
                value = Fraction(re, d2)
                if cmplx:
                    value = GaussianRational(value, Fraction(im, d2))
                issues.append(message.format(i=i + 1, j=j + 1, x=_shown(value, kind), target=target,
                                             real=_shown(Fraction(re, d2), kind)))
    return issues


def _validate_density(m: Matrix, tol) -> list[str]:
    if not m.is_square:
        return [f"density matrix must be square, got {m.shape}"]
    # integer real and imaginary parts of B = d (rho + tol I), tol's denominator in d
    n, cmplx = m.rows, m.kind in (KIND_COMPLEX_RATIONAL, KIND_COMPLEX_FLOAT)
    (rows, ((t, *_), *_)), d = scaled([exact_matrix(m), Matrix([[tol]])], realify=cmplx)
    re = [r[:n] for r in rows[:n]]
    im = [r[:n] for r in rows[n:]] if cmplx else [[0] * n for _ in re]
    issues, tr = [], [sum(a[i][i] for i in range(n)) for a in (re, im)]
    if not _near(tr[0] - d, tr[1], t):
        trace = Fraction(tr[0], d)
        if cmplx:
            trace = GaussianRational(trace, Fraction(tr[1], d))
        issues.append(f"trace is {_shown(trace, m.kind)}, not 1")
    for i in range(n):
        re[i][i] += t
        for j in range(i, n):
            if not _near(re[i][j] - re[j][i], im[i][j] + im[j][i], t):
                issues.append(f"not Hermitian at ({i + 1},{j + 1})")
    # B + B^H = 2d((rho + rho^H)/2 + tol I) is PSD iff all Re(x^H rho x) >= -tol |x|^2;
    # for a Hermitian rho it is 2B, whose minors over (2d)^k are B's over d^k
    herm_re = [[x + y for x, y in zip(r, c)] for r, c in zip(re, zip(*re))]
    herm_im = [[x - y for x, y in zip(r, c)] for r, c in zip(im, zip(*im))]
    return issues + _psd_violations(herm_re, herm_im, 2 * d, m.kind)


def _psd_violations(re: list, im: list, d: int, kind: str) -> list[str]:
    # A principal minor of a block-diagonal matrix is a product of minors of
    # its blocks, so each block of linked rows is checked alone, and every
    # value reported is a negative principal minor of the whole matrix.  The
    # matrix is Hermitian, so one triangle tells which rows are linked.
    n, issues, block = len(re), [], list(range(len(re)))
    for i in range(n):
        for j in range(i):
            if re[i][j] or im[i][j]:
                block = [block[j] if b == block[i] else b for b in block]
    for b in dict.fromkeys(block):
        found = _elimination_minors(re, im, d, [i for i in range(n) if block[i] == b])
        issues += [
            f"principal minor on rows {sorted(r + 1 for r in sub)} is {_shown(val, kind)}, negative"
            for sub, val in found
        ]
    return issues


def _elimination_minors(re: list, im: list, d: int, rows) -> list:
    # Fraction-free symmetric elimination (Bareiss, Math. Comp. 22, 1968) of
    # the Hermitian integer matrix H = re + i im = d (rho + tol I) on the rows
    # and columns `rows`, in place, largest pivot first.  With S the rows
    # eliminated so far and lam = det(H[S]) > 0, entry (i, j) holds
    # det(H[S+i, S+j]) by Sylvester's identity, so each update divides
    # exactly by the previous pivot, the diagonal stays real, and a minor of
    # H over d^size is one of rho + tol I.  Each step sets aside the rows j
    # with det(H[S+j]) < 0, then eliminates the largest pivot while it is
    # positive.  An entry x of the zero block left makes the minor on
    # S+{k,i}, -|x|^2 / lam, negative.  Returns (rows, minor) pairs.
    rest, kept, lam, found = list(rows), [], 1, []
    while rest:
        scale = d ** (len(kept) + 1)
        found += [(kept + [j], Fraction(re[j][j], scale)) for j in rest if re[j][j] < 0]
        rest = [j for j in rest if re[j][j] >= 0]
        if not rest:
            break
        k = max(rest, key=lambda j: re[j][j])
        q = re[k][k]
        if q == 0:
            break
        rest.remove(k)
        rk, ik = re[k], im[k]
        for i in rest:
            ar, ai, ri, ii = re[i][k], im[i][k], re[i], im[i]
            for j in rest:
                ri[j] = (q * ri[j] - ar * rk[j] + ai * ik[j]) // lam
                ii[j] = (q * ii[j] - ar * ik[j] - ai * rk[j]) // lam
        kept.append(k)
        lam = q
    for x, k in enumerate(rest):
        for i in rest[x + 1:]:
            if re[i][k] or im[i][k]:
                abs2 = re[i][k] ** 2 + im[i][k] ** 2
                found.append((kept + [k, i], Fraction(-abs2, lam * d ** (len(kept) + 2))))
                break
    return found


# number theory

def exponent_vectors(bases) -> list[dict[int, int]]:
    """Exponent vectors of positive rationals over one pairwise-coprime base.

    The numerators and denominators are refined by gcd splitting (Bach,
    Driscoll & Shallit, J. Algorithms 15, 1993) into integers > 1 that are
    pairwise coprime; each rational is a product of their powers, returned
    as a base element -> nonzero exponent map (1 maps to {}).  Nothing is
    factored, so there is no size bound.
    """
    rationals = [Fraction(b) for b in bases]
    if any(r <= 0 for r in rationals):
        raise ValueError("bases must be positive")
    coprime: list[int] = []
    todo = [n for r in rationals for n in (r.numerator, r.denominator) if n > 1]
    while todo:
        # each split replaces x and b by g > 1 and their parts prime to g,
        # so the product of the pending and kept numbers falls and the loop
        # ends; removing every power of g at once keeps a high power of one
        # number from coming round once per factor
        x = todo.pop()
        for k, b in enumerate(coprime):
            g = math.gcd(x, b)
            if g > 1:
                del coprime[k]
                parts = (g, _divide_out(b, g)[0], _divide_out(x, g)[0])
                todo += [y for y in parts if y > 1]
                break
        else:
            coprime.append(x)

    def exponents(n: int) -> dict[int, int]:
        out = {}
        for b in coprime:
            n, e = _divide_out(n, b)
            if e:
                out[b] = e
        return out

    vectors = []
    for r in rationals:
        # numerator and denominator are coprime, so they share no base element
        v = exponents(r.numerator)
        v.update((b, -e) for b, e in exponents(r.denominator).items())
        vectors.append(v)
    return vectors


def _exponent_ratio(v: dict, w: dict) -> Optional[Fraction]:
    """The rational t with v = t * w for exponent vectors v and nonzero w, or
    None when v is no rational multiple of w."""
    p, e = next(iter(w.items()))
    t = Fraction(v.get(p, 0), e)
    return t if v == {q: t * f for q, f in w.items() if t} else None


def _divide_out(n: int, b: int) -> tuple[int, int]:
    """n / b^e and the largest e with b^e dividing n; b > 1."""
    e = 0
    while n % b == 0:
        n //= b
        e += 1
    return n, e


class PowerSign:
    """The sign of prod_k b_k^n_k - tau for positive rationals b_k (keyed by
    any hashable k) and tau, and integer counts n_k >= 0: the sign of
    S = sum_k n_k log b_k - log tau, found on one precision ladder.

    1. Binary64.  L = log1p(b - 1) for 1/2 <= b <= 2 is within
       16u|L| + 2^-1060 of log b (u = 2^-53), else log(num) - log(den) is
       within 16u(log num + log den + 2); each libm call may be 2 ulp off.
       Rounding the counts (any below 2^1024), the m products and m sums
       adds (m + 3)u(sum_k n_k |L_k| + |L_tau|).  The bound is twice the
       total, which covers rounding the bound; |S'| above it gives the sign.
    2. Exact tie: S = 0 iff vec(tau) = sum_k n_k vec(b_k) over one coprime
       base (:func:`exponent_vectors`).
    3. Decimal.  At p digits the correctly rounded ln of num/den (rounded)
       is within 10^(1-p)(1 + |D|) of log b, and S' within
       10^(1-p)((m + 3)T + N + 1) of S, with T = sum_k n_k |D_k| + |D_tau|
       and N = sum_k n_k.  p doubles from 40 until |S'| exceeds ten times
       that.  S != 0, so this ends, at a p polynomial in the input's bit
       size (Baker & Wustholz, J. reine angew. Math. 442, 1993).
    """

    def __init__(self, bases, tau):
        self.bases = {k: Fraction(b) for k, b in bases.items()}
        self.tau = Fraction(tau)
        if self.tau <= 0 or any(b <= 0 for b in self.bases.values()):
            raise ValueError("bases and tau must be positive")
        slack = (len(self.bases) + 3) * 2.0**-52
        # each key maps to its binary64 log and that log's share of the bound
        self.logs = {k: _binary64_log(b, slack) for k, b in self.bases.items()}
        self.log_tau = _binary64_log(self.tau, slack)
        self._vectors = None

    def sign(self, counts) -> int:
        """-1, 0 or 1 as prod_k b_k^n_k is below, at or above tau; ``counts``
        maps keys to n_k, a missing key counting 0."""
        log, bound = self.log_tau
        s = -log
        try:
            for k, (log, weight) in self.logs.items():
                n = counts.get(k, 0)
                if n:
                    s += n * log
                    bound += n * weight
        except OverflowError:
            bound = math.inf
        if abs(s) > bound:
            return 1 if s > 0 else -1
        if self._vectors is None:
            *vecs, vec_tau = exponent_vectors([*self.bases.values(), self.tau])
            self._vectors = list(zip(self.bases, vecs)), vec_tau
        vecs, vec_tau = self._vectors
        total = {}
        for k, vec in vecs:
            n = counts.get(k, 0)
            for q, e in vec.items():
                total[q] = total.get(q, 0) + n * e
        if {q: e for q, e in total.items() if e} == vec_tau:
            return 0
        used = [(counts.get(k, 0), b) for k, b in self.bases.items()] + [(-1, self.tau)]
        prec = 40
        while True:
            with localcontext(Context(prec=prec)):
                terms = [n * (Decimal(b.numerator) / b.denominator).ln() for n, b in used]
                s, size = sum(terms), sum(map(abs, terms))
                if abs(s) > ((len(used) + 2) * size + sum(n for n, _ in used) + 2).scaleb(2 - prec):
                    return 1 if s > 0 else -1
            prec *= 2


def _binary64_log(b: Fraction, slack: float) -> tuple[float, float]:
    """log b in binary64 and its weight in the bound of :class:`PowerSign`."""
    num, den = b.numerator, b.denominator
    if den <= 2 * num and num <= 2 * den:
        log = math.log1p(b - 1)
        err = 16 * 2.0**-53 * abs(log) + 2.0**-1060
    else:
        ln, ld = math.log(num), math.log(den)
        log, err = ln - ld, 16 * 2.0**-53 * (ln + ld + 2)
    return log, 2 * err + slack * abs(log)


def logs_same_sign(bases) -> bool:
    """True iff the logs of the given positive rationals that are nonzero all
    share a sign, i.e. ignoring bases equal to 1, all are > 1 or all are < 1."""
    seen_pos = seen_neg = False
    for b in bases:
        b = Fraction(b)
        if b <= 0:
            raise ValueError("bases must be positive")
        if b > 1:
            seen_pos = True
        elif b < 1:
            seen_neg = True
    return not (seen_pos and seen_neg)


def logs_rationally_equivalent(bases) -> bool:
    """True iff the logs of the positive rational bases are pairwise rational
    multiples of one common real.

    Decided exactly and for any size of input: the logs of pairwise-coprime
    integers > 1 are linearly independent over Q, so the logs are rationally
    dependent exactly when the exponent vectors of the bases over a common
    coprime base (excluding 1, whose log is 0) are pairwise parallel.
    """
    vectors = [v for v in exponent_vectors(bases) if v]
    return all(_exponent_ratio(v, vectors[0]) is not None for v in vectors[1:])
