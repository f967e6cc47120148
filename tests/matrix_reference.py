"""Reference matrix arithmetic for the tests, entry by entry on
``Matrix.data`` and ``GaussianRational``'s ``.re`` / ``.im``: the library's
containers do no arithmetic, and its kernel works on integer rows.  A
rational meets a Gaussian rational as one with imaginary part 0; binary64
values use Python's own arithmetic."""

from functools import reduce

from cutpoint.exactmath import GaussianRational, Matrix, join_kinds, one_zero, scalar_to_float


def _gaussian(*xs):
    return any(isinstance(x, GaussianRational) for x in xs)


def _parts(x):
    return (x.re, x.im) if isinstance(x, GaussianRational) else (x, 0)


def gadd(a, b):
    if not _gaussian(a, b):
        return a + b
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    return GaussianRational(ar + br, ai + bi)


def gmul(a, b):
    if not _gaussian(a, b):
        return a * b
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    return GaussianRational(ar * br - ai * bi, ar * bi + ai * br)


def gconj(a):
    return GaussianRational(a.re, -a.im) if _gaussian(a) else a.conjugate()


def gabs2(a):
    re, im = _parts(a) if _gaussian(a) else (a.real, a.imag)
    return re * re + im * im


def identity(n: int, kind: str = "rational") -> Matrix:
    one, zero = one_zero(kind)
    return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    join_kinds(a.kind, b.kind)
    return Matrix([[reduce(gadd, map(gmul, r, c)) for c in zip(*b.data)] for r in a.data])


def add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix([[gadd(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)])


def scale(a: Matrix, c) -> Matrix:
    return Matrix([[gmul(c, x) for x in r] for r in a.data])


def conj_transpose(a: Matrix) -> Matrix:
    return Matrix([[gconj(x) for x in c] for c in zip(*a.data)])


def to_float(a: Matrix) -> Matrix:
    return Matrix([[scalar_to_float(x) for x in r] for r in a.data])


def mat_pow(a: Matrix, k: int) -> Matrix:
    return reduce(matmul, [a] * k, identity(a.rows, a.kind))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Block (i, j) of the result is a[i, j] * b."""
    return Matrix([[gmul(x, y) for x in ra for y in rb] for ra in a.data for rb in b.data])
