"""Exact rational and complex-rational scalars, small dense matrices, and
number-theoretic predicates.

Scalars come in four kinds: exact rationals (``fractions.Fraction``), exact
complex numbers with rational parts (``GaussianRational``), binary64 reals
(``float``), and binary64 complex (``complex``).  Matrices are homogeneous in
scalar kind; exact and approximate kinds never mix silently.  The one
sanctioned direction is the explicit ``Matrix.to_float()`` coercion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

KIND_RATIONAL = "rational"
KIND_COMPLEX_RATIONAL = "complex-rational"
KIND_FLOAT = "float"
KIND_COMPLEX_FLOAT = "complex-float"

EXACT_KINDS = (KIND_RATIONAL, KIND_COMPLEX_RATIONAL)
APPROX_KINDS = (KIND_FLOAT, KIND_COMPLEX_FLOAT)

#: default tolerance for structural validation of binary64 matrices
VALIDATION_TOL = 1e-12


class ScalarMixError(TypeError):
    """Raised when exact and approximate scalars meet without an explicit coercion."""


class FactorBoundError(ValueError):
    """Raised when trial division hits a prime factor above the configured bound."""


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __repr__(self):
        return f"GaussianRational({self.re!s}, {self.im!s})"


def _as_gaussian(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(Fraction(x), Fraction(0))
    return NotImplemented


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


def scalar_conj(x: Scalar) -> Scalar:
    if isinstance(x, GaussianRational):
        return x.conjugate()
    if isinstance(x, complex):
        return x.conjugate()
    return x


def scalar_abs_squared(x: Scalar):
    if isinstance(x, GaussianRational):
        return x.abs_squared()
    if isinstance(x, complex):
        return x.real * x.real + x.imag * x.imag
    return x * x


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
    def identity(cls, n: int, kind: str = KIND_RATIONAL) -> "Matrix":
        one, zero = _one_zero(kind)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, kind: str = KIND_RATIONAL) -> "Matrix":
        _, zero = _one_zero(kind)
        return cls([[zero] * cols for _ in range(rows)])

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

    # arithmetic

    def _check_kind(self, other: "Matrix") -> None:
        join_kinds(self.kind, other.kind)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        self._check_kind(other)
        bt = list(zip(*other.data))
        return Matrix(
            [[_dot(row, col) for col in bt] for row in self.data]
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"dimension mismatch: {self.shape} + {other.shape}")
        self._check_kind(other)
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"dimension mismatch: {self.shape} - {other.shape}")
        self._check_kind(other)
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def scale(self, c: Scalar) -> "Matrix":
        join_kinds(self.kind, scalar_kind(c))
        return Matrix([[c * x for x in r] for r in self.data])

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in r] for r in self.data])

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

    def conj_transpose(self) -> "Matrix":
        return Matrix([[scalar_conj(x) for x in c] for c in zip(*self.data)])

    def trace(self) -> Scalar:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return _ksum(self.data[i][i] for i in range(self.rows))

    def to_float(self) -> "Matrix":
        """Explicit exact-to-binary64 coercion (identity on approximate matrices)."""
        return Matrix([[scalar_to_float(x) for x in r] for r in self.data])

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix[{self.rows}x{self.cols} {self.kind}]({body})"


def _one_zero(kind: str):
    if kind == KIND_RATIONAL:
        return Fraction(1), Fraction(0)
    if kind == KIND_COMPLEX_RATIONAL:
        return GaussianRational(Fraction(1), Fraction(0)), GaussianRational(Fraction(0), Fraction(0))
    if kind == KIND_FLOAT:
        return 1.0, 0.0
    if kind == KIND_COMPLEX_FLOAT:
        return complex(1.0), complex(0.0)
    raise ValueError(f"unknown scalar kind {kind}")


def _dot(u, v):
    it = iter(a * b for a, b in zip(u, v))
    total = next(it)
    for x in it:
        total = total + x
    return total


def _ksum(values):
    total = None
    for x in values:
        total = x if total is None else total + x
    return total


def mat_pow(m: Matrix, k: int) -> Matrix:
    """k-th power of a square matrix by repeated squaring; k = 0 gives the identity."""
    if not m.is_square:
        raise ValueError("matrix power needs a square matrix")
    if k < 0:
        raise ValueError("negative exponent")
    result = Matrix.identity(m.rows, m.kind)
    base = m
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    join_kinds(a.kind, b.kind)
    out = []
    for ra in a.data:
        for rb in b.data:
            out.append([x * y for x in ra for y in rb])
    return Matrix(out)


# matrix validation

def validate_matrix(kind: str, m, tol=0) -> list[str]:
    """Check a structural property and return human-readable violations.

    ``kind`` is one of ``stochastic`` (left stochastic), ``unitary``,
    ``projector`` (0/1 diagonal), ``density``, or ``kraus-set`` (``m`` is then
    a list of matrices).  ``tol = 0`` demands exact scalars.
    """
    if tol < 0:
        raise ValueError("negative tolerance")
    if kind == "kraus-set":
        return _validate_kraus(m, tol)
    if not isinstance(m, Matrix):
        raise TypeError("expected a Matrix")
    if tol == 0 and not m.is_exact:
        raise ValueError("tol=0 requires exact scalars")
    if kind == "stochastic":
        return _validate_stochastic(m, tol)
    if kind == "unitary":
        return _validate_unitary(m, tol)
    if kind == "projector":
        return _validate_projector(m, tol)
    if kind == "density":
        return _validate_density(m, tol)
    raise ValueError(f"unknown validation kind {kind!r}")


def _near(x, target, tol) -> bool:
    if isinstance(x, (complex, GaussianRational)):
        dre = scalar_real(x) - scalar_real(target)
        dim = scalar_imag(x) - scalar_imag(target)
        return dre * dre + dim * dim <= tol * tol if tol else (dre == 0 and dim == 0)
    return abs(x - target) <= tol


def _validate_stochastic(m: Matrix, tol) -> list[str]:
    issues = []
    if not m.is_square:
        return [f"stochastic matrix must be square, got {m.shape}"]
    if m.kind not in (KIND_RATIONAL, KIND_FLOAT):
        return [f"stochastic matrix must have real entries, got kind {m.kind}"]
    for i, r in enumerate(m.data):
        for j, x in enumerate(r):
            if x < -tol:
                issues.append(f"negative entry {x} at ({i + 1},{j + 1})")
    for j in range(m.cols):
        s = _ksum(m.col_values(j))
        if not _near(s, 1, tol):
            issues.append(f"column {j + 1} sums to {s}, not 1")
    return issues


def _validate_unitary(m: Matrix, tol) -> list[str]:
    if not m.is_square:
        return [f"unitary matrix must be square, got {m.shape}"]
    gram = m.conj_transpose() @ m
    issues = []
    for i in range(gram.rows):
        for j in range(gram.cols):
            target = 1 if i == j else 0
            if not _near(gram[i, j], target, tol):
                issues.append(
                    f"(M†M)[{i + 1},{j + 1}] = {gram[i, j]}, expected {target}"
                )
    return issues


def _validate_projector(m: Matrix, tol) -> list[str]:
    if not m.is_square:
        return [f"projector must be square, got {m.shape}"]
    issues = []
    for i in range(m.rows):
        for j in range(m.cols):
            x = m[i, j]
            if i != j:
                if not _near(x, 0, tol):
                    issues.append(f"off-diagonal entry {x} at ({i + 1},{j + 1})")
            elif not (_near(x, 0, tol) or _near(x, 1, tol)):
                issues.append(f"diagonal entry {x} at ({i + 1},{i + 1}) is not 0 or 1")
    return issues


def _validate_density(m: Matrix, tol) -> list[str]:
    if not m.is_square:
        return [f"density matrix must be square, got {m.shape}"]
    issues = []
    tr = m.trace()
    if not _near(tr, 1, tol):
        issues.append(f"trace is {tr}, not 1")
    for i in range(m.rows):
        for j in range(i, m.cols):
            if not _near(m[i, j], scalar_conj(m[j, i]), tol):
                issues.append(f"not Hermitian at ({i + 1},{j + 1})")
    issues.extend(_psd_violations(m, tol))
    return issues


def _psd_violations(m: Matrix, tol) -> list[str]:
    # All principal minors of a Hermitian matrix are >= 0 iff it is positive
    # semidefinite; leading minors alone would wrongly accept e.g. diag(0, -1).
    n = m.rows
    issues = []
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        minor = _det([[m[i, j] for j in idx] for i in idx])
        val = scalar_real(minor)
        if val < -tol:
            issues.append(
                f"principal minor on rows {[i + 1 for i in idx]} is {val}, negative"
            )
    return issues


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = None
    for j in range(n):
        if a[0][j] == 0:
            continue
        sub = [[a[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = a[0][j] * _det(sub)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        x = a[0][0]
        return x - x
    return total


def _validate_kraus(elements, tol) -> list[str]:
    elements = list(elements)
    if not elements:
        return ["empty operation-element list"]
    shape = elements[0].shape
    if any(e.shape != shape for e in elements):
        return ["operation elements have mismatched shapes"]
    if tol == 0 and any(not e.is_exact for e in elements):
        raise ValueError("tol=0 requires exact scalars")
    stacked = Matrix([list(r) for e in elements for r in e.data])
    gram = stacked.conj_transpose() @ stacked
    issues = []
    for i in range(gram.rows):
        for j in range(gram.cols):
            target = 1 if i == j else 0
            if not _near(gram[i, j], target, tol):
                issues.append(
                    f"stacked columns not orthonormal: (E†E)[{i + 1},{j + 1}] = {gram[i, j]}"
                )
    return issues


def complete_to_unitary(first_row) -> Matrix:
    """Extend a unit-norm row to a unitary matrix.

    Runs deterministic Gram-Schmidt over the standard basis vectors in order,
    skipping those that are (numerically) dependent on the rows collected so
    far.  Always computed in binary64: a generic completion involves square
    roots that leave the rationals.
    """
    if isinstance(first_row, Matrix):
        if first_row.rows != 1:
            raise ValueError("first_row must be a 1 x n row vector")
        entries = list(first_row.data[0])
    else:
        entries = list(first_row)
    n = len(entries)
    cmplx = any(isinstance(x, (complex, GaussianRational)) for x in entries)
    cast = complex if cmplx else float
    row = [cast(scalar_to_float(x)) for x in entries]
    norm = math.sqrt(sum((abs(x) ** 2 for x in row)))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"first row has norm {norm}, expected 1")
    rows = [[x / norm for x in row]]
    for i in range(n):
        if len(rows) == n:
            break
        cand = [cast(1.0) if j == i else cast(0.0) for j in range(n)]
        for _ in range(2):  # re-orthogonalize once for numerical robustness
            for r in rows:
                coeff = sum(c * _cconj(x) for c, x in zip(cand, r))
                cand = [c - coeff * x for c, x in zip(cand, r)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in cand))
        if norm < 1e-7:
            continue
        rows.append([x / norm for x in cand])
    if len(rows) != n:
        raise ValueError("failed to complete an orthonormal basis")
    return Matrix(rows)


def _cconj(x):
    return x.conjugate() if isinstance(x, complex) else x


# number theory

DEFAULT_FACTOR_BOUND = 10**6


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division.

    Raises FactorBoundError if a prime factor above ``bound`` remains; we
    refuse to guess rather than return a pseudo-factorization.
    """
    if n <= 0:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    for p in _trial_divisors(bound):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if n > bound:
            raise FactorBoundError(f"prime factor {n} exceeds trial-division bound {bound}")
        out[n] = out.get(n, 0) + 1
    return out


def _trial_divisors(bound):
    yield 2
    yield 3
    p = 5
    while p <= bound:
        yield p
        yield p + 2
        p += 6


def prime_exponents(r, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Factor a positive rational into a prime -> exponent map; 1 maps to {}."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("prime_exponents needs a positive rational")
    out = dict(factorize(r.numerator, bound))
    for p, e in factorize(r.denominator, bound).items():
        out[p] = out.get(p, 0) - e
        if out[p] == 0:
            del out[p]
    return out


def rational_from_exponents(exps: dict[int, int]) -> Fraction:
    r = Fraction(1)
    for p, e in exps.items():
        r *= Fraction(p) ** e
    return r


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


def logs_rationally_equivalent(bases, bound: int = DEFAULT_FACTOR_BOUND) -> bool:
    """True iff the logs of the positive rational bases are pairwise rational
    multiples of one common real.

    Decided exactly: log p / log q is irrational for distinct primes, so the
    logs are rationally dependent exactly when the prime-exponent vectors of
    the bases (excluding 1, whose log is 0) are pairwise parallel.
    """
    vectors = []
    for b in bases:
        b = Fraction(b)
        if b <= 0:
            raise ValueError("bases must be positive")
        if b != 1:
            vectors.append(prime_exponents(b, bound))
    if len(vectors) <= 1:
        return True
    ref = vectors[0]
    ref_prime = next(iter(ref))
    ref_exp = ref[ref_prime]
    for v in vectors[1:]:
        if set(v) != set(ref):
            return False
        ratio = Fraction(v[ref_prime], ref_exp)
        if any(Fraction(v[p]) != ratio * ref[p] for p in ref):
            return False
    return True
