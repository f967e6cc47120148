import math
import random
import re
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutpoint.exactmath import (
    GaussianRational,
    Matrix,
    ScalarMixError,
    _exponent_ratio,
    exponent_vectors,
    int_matmul,
    logs_rationally_equivalent,
    logs_same_sign,
    scalar_kind,
    scalar_real,
    scaled,
    unlimited_digits,
    unscaled,
    validate_matrix,
)
from cutpoint.verify import _power_rows
from matrix_reference import add, conj_transpose, gabs2, gadd, gconj, gmul, identity, matmul, scale

F = Fraction


def G(re, im=0):
    return GaussianRational(F(re), F(im))


class TestGaussianRational:
    def test_conjugate_and_abs(self):
        z = G(F(3, 5), F(4, 5))
        assert gconj(z) == G(F(3, 5), F(-4, 5))
        assert gabs2(z) == 1
        assert complex(z) == complex(0.6, 0.8)

    def test_interop_with_rationals(self):
        assert G(3, 0) == 3 and hash(G(3, 0)) == hash(3)
        assert G(F(1, 2)) == F(1, 2) and hash(G(F(1, 2))) == hash(F(1, 2))
        assert G(3, 1) != 3
        assert len({G(2), F(2), 2}) == 1


class TestScalarKinds:
    def test_kind_detection(self):
        assert scalar_kind(F(1, 2)) == "rational"
        assert scalar_kind(3) == "rational"
        assert scalar_kind(G(1)) == "complex-rational"
        assert scalar_kind(0.5) == "float"
        assert scalar_kind(1 + 2j) == "complex-float"

    def test_matrix_kind_is_homogeneous(self):
        m = Matrix([[F(1, 2), 1], [0, F(3)]])
        assert m.kind == "rational"
        assert all(isinstance(x, Fraction) for x in m.flat())

    def test_exact_approx_mix_is_rejected(self):
        with pytest.raises(ScalarMixError):
            Matrix([[F(1, 2), 0.5]])
        a = Matrix([[F(1)]])
        b = Matrix([[1.0]])
        with pytest.raises(ScalarMixError):
            matmul(a, b)

    def test_explicit_coercion(self):
        # exact -> binary64 is a new Matrix built from float(x) or complex(x)
        m = Matrix([[float(x) for x in r] for r in Matrix([[F(3, 5)]]).data])
        assert m.kind == "float"
        assert m[0, 0] == 0.6
        z = Matrix([[complex(x) for x in r] for r in Matrix([[G(F(3, 5), 1)]]).data])
        assert z.kind == "complex-float"
        assert z[0, 0] == 0.6 + 1j

    def test_real_complex_promotion_within_exact(self):
        m = Matrix([[F(1), G(0, 1)]])
        assert m.kind == "complex-rational"


class TestMatrixOps:
    """Matrix is an immutable container; products run on its integer rows."""

    def test_matmul_and_shapes(self):
        a = Matrix([[1, 2], [3, 4]])
        v = Matrix.column([1, 0])
        assert v.shape == (2, 1) and Matrix.row([1, 0]).shape == (1, 2)
        (ra, rv), d = scaled([a, v])
        assert d == 1 and int_matmul(ra, rv) == [[1], [3]]
        for ragged_or_empty in ([[1, 2], [3]], [[]]):
            with pytest.raises(ValueError):
                Matrix(ragged_or_empty)

    def test_identity_and_equality(self):
        assert _power_rows(Matrix([[1, 1], [0, 1]]), 0) == ([[1, 0], [0, 1]], 1)
        assert identity(2) == Matrix([[1, 0], [0, 1]])
        assert hash(identity(2)) == hash(Matrix([[1, 0], [0, 1]]))
        assert Matrix([[1, 0]]) != Matrix([[1], [0]])
        with pytest.raises(AttributeError):
            identity(2).rows = 3

    def test_conj_transpose(self):
        # transpose does not conjugate; the adjoint is the reference's
        m = Matrix([[G(1, 2), G(0, 1)]])
        assert m.transpose() == Matrix([[G(1, 2)], [G(0, 1)]])
        assert conj_transpose(m)[0, 0] == G(1, -2)

    def test_trace(self):
        # the density check reports the trace from the integer rows it sums
        assert validate_matrix("density", Matrix([[1, 9], [7, 2]]))[0] == "trace is 3, not 1"
        half_third = Matrix([[F(1, 3), 0], [0, F(1, 2)]])
        assert validate_matrix("density", half_third)[0] == "trace is 5/6, not 1"

    def test_scaled_round_trip(self):
        m = Matrix([[F(1, 2), F(-1, 3)], [0, F(5, 6)]])
        (rows,), d = scaled([m])
        assert (rows, d) == ([[3, -2], [0, 5]], 6)
        assert unscaled(rows, d) == m
        z = Matrix([[G(F(1, 2), 1)], [G(0, F(-1, 4))]])
        (rows,), d = scaled([z], realify=True)
        assert (rows, d) == ([[2, -4], [0, 1], [4, 2], [-1, 0]], 4)
        assert unscaled(rows, d, realify=True) == z
        (rows,), d = scaled([Matrix([[0.5, 0.25]])])
        assert (rows, d) == ([[0.5, 0.25]], 1.0) and isinstance(d, float)


class TestMatPow:
    """The integer-row squaring oracle of the rotation-recurrence criterion."""

    def test_three_state_square_reaches_final(self):
        a = Matrix(
            [[0, 0, F(1, 2)], [1, 0, F(1, 2)], [0, 1, 0]]
        )
        p, d = _power_rows(a, 2)
        assert F(p[2][0], d) == 1

    def test_rotation_square_entry(self):
        r = Matrix([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])
        p, d = _power_rows(r, 2)
        assert F(p[0][0], d) == F(-7, 25)

    @settings(max_examples=50)
    @given(st.lists(st.integers(-9, 9), min_size=9, max_size=9), st.integers(0, 12))
    def test_matches_successive_products(self, entries, k):
        a = [entries[i:i + 3] for i in (0, 3, 6)]
        p = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(k):
            p = int_matmul(p, a)
        assert _power_rows(Matrix(a), k) == (p, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            _power_rows(Matrix([[1, 2]]), 2)


class TestValidateMatrix:
    def test_stochastic_accepts_three_state_matrix(self):
        a = Matrix([[0, 0, F(1, 2)], [1, 0, F(1, 2)], [0, 1, 0]])
        assert validate_matrix("stochastic", a) == []

    def test_stochastic_flags_bad_column(self):
        a = Matrix([[F(1, 2), 0], [F(2, 5), 1]])
        issues = validate_matrix("stochastic", a)
        assert any("column 1" in v for v in issues)

    def test_unitary_rejects_shear(self):
        assert validate_matrix("unitary", Matrix([[1, 1], [0, 1]])) != []

    def test_unitary_accepts_rotation(self):
        r = Matrix([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])
        assert validate_matrix("unitary", r) == []

    def test_kraus_reset_pair(self):
        es = [Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]])]
        assert validate_matrix("kraus-set", es) == []

    def test_kraus_incomplete(self):
        assert validate_matrix("kraus-set", [Matrix([[1, 0], [0, 0]])]) != []

    def test_density_accepts_pure_state(self):
        rho = Matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        assert validate_matrix("density", rho) == []

    def test_density_needs_unit_trace(self):
        assert validate_matrix("density", identity(2)) == ["trace is 2, not 1"]
        rho = Matrix([[G(F(1, 2), 1), G(0)], [G(0), G(F(1, 3))]])
        assert validate_matrix("density", rho)[0] == "trace is GaussianRational(5/6, 1), not 1"
        rho = Matrix([[0.5 + 0.25j, 0j], [0j, 0.25 + 0j]])
        assert validate_matrix("density", rho, 1e-12)[0] == "trace is (0.75+0.25j), not 1"

    def test_density_psd_checks_all_principal_minors(self):
        # diag(0, -1, 2) has unit trace and nonnegative leading principal
        # minors (0, 0, 0) yet is not positive semidefinite; the check must
        # look at all principal minors to catch it
        bad = Matrix([[0, 0, 0], [0, -1, 0], [0, 0, 2]])
        issues = validate_matrix("density", bad)
        assert any("minor" in v for v in issues)

    def test_density_rejects_negative_definite_block(self):
        bad = Matrix([[F(3, 2), 0], [0, F(-1, 2)]])
        assert validate_matrix("density", bad) != []

    def test_float_tolerance(self):
        r = Matrix([[0.6, -0.8], [0.8, 0.6 + 1e-15]])
        assert validate_matrix("unitary", r, 1e-12) == []
        with pytest.raises(ValueError):
            validate_matrix("unitary", r, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            validate_matrix("hermitian", identity(2))

    @pytest.mark.parametrize("tol", [-1e-12, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        r = Matrix([[0.6, -0.8], [0.8, 0.6]])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            validate_matrix("unitary", r, tol)

    @pytest.mark.parametrize("kind, bad", [
        (kind, bad)
        for kind in ("stochastic", "unitary", "density", "kraus-set")
        for bad in (math.nan, math.inf, -math.inf, complex(1, math.inf))
        if not (kind == "stochastic" and isinstance(bad, complex))  # no complex stochastic
    ])
    def test_non_finite_entry_rejected(self, kind, bad):
        m = Matrix([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            validate_matrix(kind, m, 1e-12)

    def test_stochastic_column(self):
        assert validate_matrix("stochastic", Matrix.column([F(1, 3), F(2, 3)])) == []
        assert validate_matrix("stochastic", Matrix.column([F(1, 2), F(1, 3)])) == [
            "column 1 sums to 5/6, not 1"
        ]

    def test_one_matrix_is_a_one_element_kraus_set(self):
        assert validate_matrix("kraus-set", Matrix.column([F(3, 5), F(4, 5)])) == []
        assert validate_matrix("kraus-set", Matrix.column([1, 1])) == ["squared norm 2, not 1"]
        # the squared norm is real, so a complex column reports a real value
        assert validate_matrix("kraus-set", Matrix.column([G(1), G(0, 1)])) == [
            "squared norm 2, not 1"
        ]
        assert validate_matrix("kraus-set", Matrix.column([1.0, 1j]), 1e-12) == [
            "squared norm 2.0, not 1"
        ]


#: moduli-1 phases, so that products of Givens rotations and phases stay unitary
PHASES = [G(1), G(-1), G(0, 1), G(0, -1), G(F(3, 5), F(4, 5))]

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def exact_square(draw, gaussian, n):
    """A unitary from Givens rotations by 3-4-5 angles (times phases when
    ``gaussian``), with one entry perhaps moved; or a random matrix."""
    entry = st.builds(G, small, small) if gaussian else small
    if draw(st.booleans()):
        return Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    u = identity(n)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        p, q = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        g = [list(r) for r in identity(n).data]
        g[p][p], g[p][q], g[q][p], g[q][q] = F(3, 5), F(-4, 5), F(4, 5), F(3, 5)
        u = matmul(Matrix(g), u)
    if gaussian:
        u = matmul(u, Matrix([[draw(st.sampled_from(PHASES)) if i == j else G(0) for j in range(n)]
                              for i in range(n)]))
    rows = [list(r) for r in u.data]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = gadd(rows[i][j], draw(entry))
    return Matrix(rows)


def _gram_messages(elements, message):
    """The Gram violations computed by reference arithmetic on the stacked elements."""
    stacked = Matrix([list(r) for e in elements for r in e.data])
    gram = matmul(conj_transpose(stacked), stacked)
    return [
        message.format(i=i + 1, j=j + 1, x=gram[i, j], target=int(i == j))
        for i in range(gram.rows)
        for j in range(gram.cols)
        if gram[i, j] != int(i == j)
    ]


class TestGramChecks:
    @settings(max_examples=100)
    @given(st.data(), st.booleans(), st.integers(1, 4))
    def test_unitary_matches_matrix_arithmetic(self, data, gaussian, n):
        m = data.draw(exact_square(gaussian, n))
        expected = _gram_messages([m], "(M†M)[{i},{j}] = {x}, expected {target}")
        assert validate_matrix("unitary", m) == expected

    @settings(max_examples=100)
    @given(st.data(), st.booleans(), st.integers(1, 4))
    def test_kraus_set_matches_matrix_arithmetic(self, data, gaussian, n):
        # weights 3/5 and 4/5 make c1 U1, c2 U2 a Kraus set when U1, U2 are unitary
        us = [data.draw(exact_square(gaussian, n)) for _ in range(2)]
        es = [scale(u, G(c) if gaussian else c) for u, c in zip(us, (F(3, 5), F(4, 5)))]
        message = "stacked columns not orthonormal: (E†E)[{i},{j}] = {x}"
        assert validate_matrix("kraus-set", es) == _gram_messages(es, message)

    @settings(max_examples=100)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.fractions(-1, 3, max_denominator=6), min_size=n, max_size=n),
        min_size=n, max_size=n)), st.booleans())
    def test_stochastic_matches_matrix_arithmetic(self, rows, normalise):
        if normalise:  # rescale each nonzero column to sum 1; negative entries stay
            sums = [sum(c) for c in zip(*rows)]
            rows = [[x / s if s else x for x, s in zip(r, sums)] for r in rows]
        m = Matrix(rows)
        expected = [
            f"negative entry {m[i, j]} at ({i + 1},{j + 1})"
            for i in range(m.rows)
            for j in range(m.cols)
            if m[i, j] < 0
        ]
        ones = Matrix([[1] * m.rows])
        for j, s in enumerate(matmul(ones, m).data[0]):
            if s != 1:
                expected.append(f"column {j + 1} sums to {s}, not 1")
        assert validate_matrix("stochastic", m) == expected


class TestUnlimitedDigits:
    def test_lifts_the_limit_for_the_call(self, digit_limit):
        big = 10**5000
        assert unlimited_digits(str)(big) == "1" + "0" * 5000
        assert sys.get_int_max_str_digits() == 4300
        with pytest.raises(ValueError):
            str(big)

    def test_restores_the_limit_after_an_exception(self, digit_limit):
        def fail():
            assert sys.get_int_max_str_digits() == 0
            raise KeyError("inside")

        with pytest.raises(KeyError):
            unlimited_digits(fail)()
        assert sys.get_int_max_str_digits() == 4300

    def test_a_nested_call_sets_no_limit(self, digit_limit, monkeypatch):
        set_limit, sets = sys.set_int_max_str_digits, []
        monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: sets.append(n) or set_limit(n))
        inner = unlimited_digits(sys.get_int_max_str_digits)
        assert unlimited_digits(lambda: (inner(), sys.get_int_max_str_digits()))() == (0, 0)
        assert sys.get_int_max_str_digits() == 4300
        assert sets == [0, 4300]


def _from_exponents(vector: dict) -> Fraction:
    r = F(1)
    for b, e in vector.items():
        r *= F(b) ** e
    return r


#: primes on both sides of the old trial-division bound of 10^6, up to 2^61 - 1
PRIMES = [2, 3, 5, 7, 999_983, 1_000_003, 1_000_000_000_039, 2**61 - 1]

prime_vectors = st.dictionaries(st.sampled_from(PRIMES), st.integers(-3, 3), max_size=4)


class TestExponentVectors:
    def test_examples(self):
        assert exponent_vectors([12]) == [{12: 1}]
        assert exponent_vectors([1]) == [{}]
        assert exponent_vectors([F(8, 27)]) == [{8: 1, 27: -1}]
        assert exponent_vectors([12, 18]) == [{2: 2, 3: 1}, {2: 1, 3: 2}]
        assert exponent_vectors([F(4), F(1, 8)]) == [{2: 2}, {2: -3}]

    def test_round_trip_random_rationals(self):
        rng = random.Random(555)
        rs = [F(rng.randint(1, 5000), rng.randint(1, 5000)) for _ in range(100)]
        assert [_from_exponents(v) for v in exponent_vectors(rs)] == rs

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            exponent_vectors([F(-2)])
        with pytest.raises(ValueError):
            exponent_vectors([0])

    def test_primes_above_old_bound_are_answered(self):
        p, q = 1_000_003, 1_000_033
        assert exponent_vectors([p * q, F(1, p)]) == [{p: 1, q: 1}, {p: -1}]
        assert not logs_rationally_equivalent([F(p * q), F(1, p)])
        assert logs_rationally_equivalent([F(p * q) ** 2, F(1, p * q)])

    @given(st.lists(prime_vectors, min_size=1, max_size=5))
    def test_base_is_pairwise_coprime_and_reconstructs(self, vectors):
        bases = [_from_exponents(v) for v in vectors]
        out = exponent_vectors(bases)
        base = set().union(*out)
        assert all(b > 1 for b in base)
        assert all(math.gcd(a, b) == 1 for a, b in combinations(base, 2))
        assert [_from_exponents(v) for v in out] == bases

    @given(
        st.one_of(
            st.lists(prime_vectors, min_size=1, max_size=4),
            # powers of one common vector: rationally equivalent by construction
            prime_vectors.flatmap(
                lambda v: st.lists(
                    st.integers(-3, 3).map(lambda k: {p: k * e for p, e in v.items()}),
                    min_size=1,
                    max_size=4,
                )
            ),
        )
    )
    def test_rational_equivalence_matches_prime_vectors(self, vectors):
        nonzero = [{p: e for p, e in v.items() if e} for v in vectors]
        nonzero = [v for v in nonzero if v]
        # parallel iff every 2x2 minor of the prime-exponent matrix vanishes
        primes = set().union(*nonzero)
        expected = all(
            u.get(p, 0) * v.get(q, 0) == u.get(q, 0) * v.get(p, 0)
            for u, v in combinations(nonzero, 2)
            for p, q in combinations(primes, 2)
        )
        bases = [_from_exponents(v) for v in vectors]
        assert logs_rationally_equivalent(bases) == expected


def _det(a):
    if len(a) == 1:
        return a[0][0]
    total = 0
    for j, x in enumerate(a[0]):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total = gadd(total, gmul((-1) ** j, gmul(x, _det(minor))))
    return total


def _negative_minors(m: Matrix, tol=0) -> dict:
    """Brute-force oracle: every principal minor of m below -tol."""
    out = {}
    for size in range(1, m.rows + 1):
        for idx in combinations(range(m.rows), size):
            val = scalar_real(_det([[m[i, j] for j in idx] for i in idx]))
            if val < -tol:
                out[tuple(i + 1 for i in idx)] = val
    return out


MINOR = re.compile(r"principal minor on rows \[(.*)\] is (.*), negative")


@st.composite
def hermitian(draw, gaussian):
    n = draw(st.integers(1, 4))
    entry = st.builds(G, small, small) if gaussian else small
    if draw(st.booleans()):  # B^H B is positive semidefinite, singular when B is short
        k = draw(st.integers(1, n))
        b = Matrix([[draw(entry) for _ in range(n)] for _ in range(k)])
        return matmul(conj_transpose(b), b)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = G(draw(small)) if gaussian else draw(small)
        for j in range(i + 1, n):
            rows[i][j] = draw(entry)
            rows[j][i] = gconj(rows[i][j])
    return Matrix(rows)


@st.composite
def non_hermitian(draw, gaussian):
    """B^H B, which takes several pivots to eliminate and is singular when
    B is short, with a few entries moved off Hermitian symmetry."""
    n = draw(st.integers(1, 5))
    entry = st.builds(G, small, small) if gaussian else small
    b = Matrix([[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, n)))])
    rows = [list(r) for r in matmul(conj_transpose(b), b).data]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = gadd(rows[i][j], draw(entry))
    return Matrix(rows)


@st.composite
def binary64_hermitian(draw):
    """Hermitian binary64 matrices, real or complex, n <= 5, entries in
    [-1, 1]: random ones, or Gram matrices B^H B scaled into range, which are
    PSD up to rounding and singular when B is short."""
    n, cmplx = draw(st.integers(1, 5)), draw(st.booleans())
    unit = st.floats(-1, 1)
    entry, diag = (st.builds(complex, unit, unit), complex) if cmplx else (unit, float)
    if draw(st.booleans()):
        b = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, n)))]
        a = [[sum(r[i].conjugate() * r[j] for r in b) / (2 * n) for j in range(n)] for i in range(n)]
    else:
        a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return Matrix([
        [a[i][j] if i < j else a[j][i].conjugate() if i > j else diag(a[i][i].real)
         for j in range(n)]
        for i in range(n)
    ])


class TestPsdElimination:
    @settings(max_examples=200)
    @given(st.booleans().flatmap(hermitian))
    def test_matches_all_principal_minors(self, m):
        oracle = _negative_minors(m)
        reported = [MINOR.fullmatch(v) for v in validate_matrix("density", m)]
        reported = [r for r in reported if r]
        assert (not reported) == (not oracle)
        for r in reported:
            rows = tuple(int(i) for i in r.group(1).split(", "))
            val = F(r.group(2))
            assert val < 0
            assert scalar_real(_det([[m[i - 1, j - 1] for j in rows] for i in rows])) == val

    def test_zero_pivot_with_nonzero_column(self):
        # the leading pivot is 0 but the entry below it is not: the 2x2
        # minor 0 * 1 - |x|^2 is negative
        m = Matrix([[0, G(1, 1)], [G(1, -1), 1]])
        assert validate_matrix("density", m) == ["principal minor on rows [1, 2] is -2, negative"]

    @settings(max_examples=200)
    @given(binary64_hermitian())
    def test_binary64_flags_exactly_the_negative_shifted_minors(self, m):
        # the oracle takes the binary64 entries at their exact values and
        # expands every principal minor of rho + tol*I
        tol = F(1e-12)
        exact = Matrix([
            [gadd(G(x.real, x.imag) if isinstance(x, complex) else F(x), tol if i == j else 0)
             for j, x in enumerate(r)]
            for i, r in enumerate(m.data)
        ])
        oracle = _negative_minors(exact)
        reported = [MINOR.fullmatch(v) for v in validate_matrix("density", m, 1e-12)]
        reported = [r for r in reported if r]
        assert (not reported) == (not oracle)
        for r in reported:
            rows = tuple(int(i) for i in r.group(1).split(", "))
            assert float(r.group(2)) == float(oracle[rows])

    def test_binary64_boundary_is_rho_plus_tol_psd(self):
        ok = Matrix([[1 + 1e-12, 0.0], [0.0, -1e-12]])
        assert validate_matrix("density", ok, 1e-12) == []
        bad = Matrix([[1 + 2e-12, 0.0], [0.0, -2e-12]])
        assert validate_matrix("density", bad, 1e-12) == [
            "principal minor on rows [2] is -1e-12, negative"
        ]

    def test_float_tolerance(self):
        eps = 1e-14
        ok = Matrix([[0.5, 0.5], [0.5, 0.5 + eps]])
        assert validate_matrix("density", ok, 1e-12) == []
        bad = Matrix([[1.0, 0.0], [0.0, -1e-6]])
        issues = validate_matrix("density", bad, 1e-12)
        assert "principal minor on rows [2] is -9.99999e-07, negative" in issues

    @pytest.mark.parametrize("amp", [1e-12, 1e-10, 1e-7, 1e-6])
    def test_float_pure_state_with_small_amplitude(self, amp):
        # |psi><psi| for psi = (amp, sqrt(1 - amp^2)): the leading pivot
        # amp^2 is below tol, but every minor is within rounding of 0
        psi = [amp, math.sqrt(1 - amp * amp)]
        rho = Matrix([[x * y for y in psi] for x in psi])
        assert validate_matrix("density", rho, 1e-12) == []

    def test_float_small_negative_eigenvalue_is_below_tol(self):
        # every principal minor of rho is above -tol (the only negative one,
        # on rows [1, 2], is -1e-13), but the least eigenvalue is -8.4e-8
        x = math.sqrt(2e-13)
        rho = Matrix([[1e-6, x, 0.0], [x, 1e-7, 0.0], [0.0, 0.0, 1 - 1.1e-6]])
        assert [rows for rows, _ in self._minors(rho.data)] == ["1, 2"]

    @staticmethod
    def _minors(rho):
        found = [MINOR.fullmatch(v) for v in validate_matrix("density", Matrix(rho), 1e-12)]
        return [(r.group(1), float(r.group(2))) for r in found if r]

    def test_float_negative_block_is_checked_alone(self):
        # the 3x3 block on rows 4-6 has minor -8.8e-10; behind the unlinked
        # pivots 0.6 and 0.3, or behind 1e-3, it would shrink above -tol
        a, r = 1.2e-3, -0.6
        rho = [[0.0] * 6 for _ in range(6)]
        rho[0][0], rho[1][1], rho[2][2] = 0.6, 0.3, 1e-3
        for i in range(3, 6):
            for j in range(3, 6):
                rho[i][j] = a if i == j else a * r
        assert self._minors(rho) == [("4, 5, 6", pytest.approx(-8.84736e-10))]

    def test_float_negative_block_found_smallest_pivot_first(self):
        # the 2x2 block on rows 7, 8 has minor -1e-8, well below -tol, and a
        # weak coupling links it to six pivots 1/6: rho + tol*I is not PSD
        x = math.sqrt(1e-6 + 1e-8)
        rho = [[(1 / 6 if i == j < 6 else 0.0) + 1e-7 / 8 for j in range(8)] for i in range(8)]
        rho[6][6] += 1e-3
        rho[7][7] += 1e-3
        rho[6][7] += x
        rho[7][6] += x
        assert self._minors(rho) != []

    def test_dense_exact_n16_is_fast(self, best_of_three):
        rng = random.Random(16)
        b = Matrix([[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(16)] for _ in range(16)])
        gram = matmul(conj_transpose(b), b)
        rho = scale(gram, 1 / sum(gram[i, i] for i in range(16)))
        seconds, issues = best_of_three(lambda: validate_matrix("density", rho))
        assert issues == []
        assert seconds < 0.1

    @staticmethod
    def _binary64_mixture(n):
        rng = random.Random(n)
        b = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        gram = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        tr = sum(gram[i][i] for i in range(n))
        return Matrix([[gram[min(i, j)][max(i, j)] / tr for j in range(n)] for i in range(n)])

    def test_dense_binary64_n16_is_fast(self, best_of_three):
        rho = self._binary64_mixture(16)
        seconds, issues = best_of_three(lambda: validate_matrix("density", rho, 1e-12))
        assert issues == []
        assert seconds < 0.1

    def test_dense_binary64_n32_is_fast(self, best_of_three):
        rho = self._binary64_mixture(32)
        seconds, issues = best_of_three(lambda: validate_matrix("density", rho, 1e-12))
        assert issues == []
        assert seconds < 0.2

    def test_near_hermitian_complex_n16_is_fast(self, best_of_three):
        # within tol of Hermitian but not exactly so: each off-diagonal pair
        # scaled by 1 +- 1e-15, diagonal imaginary parts up to 1e-14
        n, rng = 16, random.Random(16)
        b = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        gram = [[sum(r[i].conjugate() * r[j] for r in b) for j in range(n)] for i in range(n)]
        tr = sum(gram[i][i].real for i in range(n))
        rho = Matrix([
            [gram[i][j] / tr * (1 + 1e-15) if i < j
             else gram[j][i].conjugate() / tr * (1 - 1e-15) if i > j
             else complex(gram[i][i].real / tr, rng.uniform(-1e-14, 1e-14))
             for j in range(n)]
            for i in range(n)
        ])
        seconds, issues = best_of_three(lambda: validate_matrix("density", rho, 1e-12))
        assert issues == []
        assert seconds < 0.1

    @settings(max_examples=100)
    @given(st.booleans().flatmap(non_hermitian))
    def test_non_hermitian_is_checked_on_its_hermitian_part(self, m):
        # Re(x^H rho x) is x^H H x for the Hermitian part H = (rho + rho^H)/2,
        # so rho is checked as H is: the reported minors are exactly H's
        half = scale(add(m, conj_transpose(m)), F(1, 2))
        minors = [v for v in validate_matrix("density", m) if MINOR.fullmatch(v)]
        assert minors == [v for v in validate_matrix("density", half) if MINOR.fullmatch(v)]
        oracle = _negative_minors(half)
        assert (not minors) == (not oracle)
        for r in map(MINOR.fullmatch, minors):
            rows = tuple(int(i) for i in r.group(1).split(", "))
            assert oracle.get(rows) == F(r.group(2))


class TestLogPredicates:
    def test_same_sign_examples(self):
        assert logs_same_sign([F(2), F(3), F(1)])
        assert not logs_same_sign([F(1, 2), F(2)])
        assert logs_same_sign([F(1, 2), F(1, 3)])
        assert logs_same_sign([])
        assert logs_same_sign([F(1), F(1)])

    def test_rational_equivalence_examples(self):
        assert logs_rationally_equivalent([F(4), F(8)])
        assert not logs_rationally_equivalent([F(2), F(3)])
        assert logs_rationally_equivalent([F(1, 2), F(2)])

    def test_ones_are_always_compatible(self):
        assert logs_rationally_equivalent([F(1), F(5), F(25)])
        assert logs_rationally_equivalent([F(1)])

    def test_mixed_prime_support(self):
        assert logs_rationally_equivalent([F(2, 3), F(9, 4)])  # (2/3) and (2/3)^-2
        assert not logs_rationally_equivalent([F(2, 3), F(3, 4)])

    def test_exponent_ratio(self):
        assert _exponent_ratio({2: 3, 3: -6}, {2: -1, 3: 2}) == -3
        assert _exponent_ratio({2: 1}, {2: 2}) == F(1, 2)
        assert _exponent_ratio({}, {5: 1}) == 0
        assert _exponent_ratio({2: 1}, {2: 1, 3: 1}) is None
        assert _exponent_ratio({2: 1, 3: 1}, {2: 1}) is None
        assert _exponent_ratio({2: 1, 3: 1}, {2: 1, 3: 2}) is None

    def test_invariant_under_rational_powers(self):
        rng = random.Random(31337)
        primes = [2, 3, 5]
        for _ in range(50):
            bases = []
            for _ in range(rng.randint(1, 4)):
                b = F(1)
                for p in primes:
                    b *= F(p) ** rng.randint(-2, 2)
                bases.append(b)
            before = logs_rationally_equivalent(bases)
            k = rng.randrange(len(bases))
            q = rng.choice([2, 3, -1, -2])
            bases[k] = bases[k] ** q
            if bases[k] != 1:  # numbers other than 1 keep a nonzero log
                assert logs_rationally_equivalent(bases) == before

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            logs_same_sign([F(0)])
        with pytest.raises(ValueError):
            logs_rationally_equivalent([F(-2)])
