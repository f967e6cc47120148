import functools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutpoint.automata import (
    Gfa,
    Mcqfa,
    Pfa,
    Qfa,
    UnknownSymbolError,
    basis_density,
    basis_state,
    trace_run,
    unary_values,
    validate,
    value,
)
from cutpoint.constructions import (
    PythTriple,
    rotation_automaton,
    rotation_matrix,
    three_state_pfa,
)
from cutpoint.exactmath import (
    KIND_COMPLEX_FLOAT,
    KIND_FLOAT,
    GaussianRational,
    Matrix,
    ScalarMixError,
    scalar_real,
)
from matrix_reference import add, conj_transpose, gabs2, identity, kron, matmul, scale, to_float

F = Fraction
G = GaussianRational


def swap_matrix():
    return Matrix([[0, 1], [1, 0]])


def reset_qfa():
    # both operation elements dump everything onto the first state
    es = (Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]]))
    return Qfa(
        state_count=2,
        alphabet=("a",),
        transitions={"a": es},
        initial=2,
        accept_states=frozenset({1}),
    )


class TestGfaEvaluation:
    def test_empty_word_is_final_dot_initial(self):
        aut = rotation_automaton(PythTriple(2, 1))
        assert value(aut, "") == 1

    def test_three_state_machine_square(self):
        assert value(three_state_pfa(F(1, 2)), "aa") == 1

    def test_trace_of_three_state_machine(self):
        states = trace_run(three_state_pfa(F(1, 2)), "aa")
        assert [tuple(s.col_values(0)) for s in states] == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]

    def test_trace_of_empty_word(self):
        aut = three_state_pfa(F(1, 4))
        assert trace_run(aut, "") == [aut.initial]

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            value(three_state_pfa(F(1, 2)), "ab")

    def test_markers_wrap_the_run(self):
        # left marker swaps the start, right marker swaps the final weights
        aut = Gfa(
            state_count=2,
            alphabet=("a",),
            transitions={"a": Matrix([[F(2), F(0)], [F(0), F(3)]])},
            initial=basis_state(2, 1),
            final=Matrix.row([F(1), F(0)]),
            left_marker=swap_matrix(),
            right_marker=swap_matrix(),
        )
        # initial becomes e2, final row becomes (0 1): value = 3^k
        assert [value(aut, "a" * k) for k in range(3)] == [1, 3, 9]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Gfa(2, ("a",), {"a": identity(3)}, basis_state(2, 1), Matrix.row([1, 0]))

    def test_complex_entries_rejected(self):
        with pytest.raises(ValueError):
            Gfa(
                1,
                ("a",),
                {"a": Matrix([[GaussianRational(F(1), F(1))]])},
                Matrix.column([F(1)]),
                Matrix.row([F(1)]),
            )


class TestPfa:
    def test_validate_accepts_three_state_family(self):
        assert validate(three_state_pfa(F(1, 4))) == []

    def test_validate_flags_bad_column_sum(self):
        bad = Pfa(
            2,
            ("a",),
            {"a": Matrix([[F(1, 2), F(0)], [F(2, 5), F(1)]])},
            basis_state(2, 1),
            Matrix.row([F(1), F(0)]),
        )
        assert any("column" in v for v in validate(bad))

    def test_validate_reports_a_column_sum_of_any_length(self, digit_limit):
        bad = Pfa(1, ("a",), {"a": Matrix([[1 - F(1, 10**4400)]])}, 1, Matrix.row([1]))
        assert validate(bad) == [
            f"transition 'a': column 1 sums to {'9' * 4400}/1{'0' * 4400}, not 1"
        ]
        assert sys.get_int_max_str_digits() == 4300

    def test_validate_flags_fractional_final_without_marker(self):
        bad = Pfa(
            2,
            ("a",),
            {"a": identity(2)},
            basis_state(2, 1),
            Matrix.row([F(1, 2), F(0)]),
        )
        assert any("final" in v for v in validate(bad))

    def test_fractional_final_allowed_with_right_marker(self):
        ok = Pfa(
            2,
            ("a",),
            {"a": identity(2)},
            basis_state(2, 1),
            Matrix.row([F(1, 2), F(1, 2)]),
            right_marker=Matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]),
        )
        assert validate(ok) == []

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_validate_names_the_bad_marker(self, side):
        bad = Pfa(
            2,
            ("a",),
            {"a": identity(2)},
            basis_state(2, 1),
            Matrix.row([F(1), F(0)]),
            **{f"{side}_marker": Matrix([[1, 1], [0, 1]])},
        )
        issues = validate(bad)
        assert issues and all(v.startswith(f"{side} marker: ") for v in issues)

    def test_values_stay_probabilities(self):
        rng = random.Random(2024)
        for _ in range(20):
            d = rng.randint(1, 5)
            x, y = F(rng.randint(0, d), d), F(rng.randint(0, d), d)
            p = Pfa(
                2,
                ("a",),
                {"a": Matrix([[1 - x, y], [x, 1 - y]])},
                basis_state(2, rng.randint(1, 2)),
                Matrix.row([F(rng.randint(0, 1)), F(rng.randint(0, 1))]),
            )
            for m, v in enumerate(unary_values(p, 30)):
                assert 0 <= v <= 1
            for state in trace_run(p, "a" * 5):
                col = state.col_values(0)
                assert sum(col) == 1 and all(c >= 0 for c in col)

    def test_pfa_evaluated_as_gfa_is_identical(self):
        p = three_state_pfa(F(3, 10))
        g = p.as_gfa()
        assert type(g) is Gfa
        for m in range(40):
            assert value(p, "a" * m) == value(g, "a" * m)


class TestMcqfa:
    def test_rotation_probability(self):
        aut = rotation_automaton(PythTriple(2, 1), model="mcqfa")
        assert value(aut, "a") == F(9, 25)

    def test_intermediate_norms_stay_one(self):
        aut = rotation_automaton(PythTriple(3, 2), model="mcqfa")
        for state in trace_run(aut, "a" * 20):
            assert sum(x * x for x in state.col_values(0)) == 1

    def test_values_in_unit_interval(self):
        aut = rotation_automaton(PythTriple(2, 1), model="mcqfa")
        assert all(0 <= v <= 1 for v in unary_values(aut, 100))

    def test_validate_flags_non_unitary(self):
        bad = Mcqfa(
            2,
            ("a",),
            {"a": Matrix([[1, 1], [0, 1]])},
            basis_state(2, 1),
            frozenset({1}),
        )
        assert any("unitary" in v.lower() or "expected" in v for v in validate(bad))

    def test_validate_flags_non_unit_initial(self):
        bad = Mcqfa(
            2,
            ("a",),
            {"a": identity(2)},
            Matrix.column([F(1), F(1)]),
            frozenset({1}),
        )
        assert any("norm" in v for v in validate(bad))

    def test_markers_wrap_the_run(self):
        # left marker rotates e1 to (3/5, 4/5); right marker swaps the states
        u = rotation_matrix(PythTriple(2, 1))
        aut = Mcqfa(
            2,
            ("a",),
            {"a": u},
            basis_state(2, 1),
            frozenset({1}),
            left_marker=u,
            right_marker=swap_matrix(),
        )
        # "": swap (3/5, 4/5) -> (4/5, 3/5); "a": swap (-7/25, 24/25)
        assert [value(aut, "a" * k) for k in range(2)] == [F(16, 25), F(576, 625)]
        assert list(unary_values(aut, 1)) == [F(16, 25), F(576, 625)]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_validate_names_the_bad_marker(self, side):
        bad = Mcqfa(
            2,
            ("a",),
            {"a": identity(2)},
            basis_state(2, 1),
            frozenset({1}),
            **{f"{side}_marker": Matrix([[1, 1], [0, 1]])},
        )
        issues = validate(bad)
        assert issues and all(v.startswith(f"{side} marker: ") for v in issues)

    def test_empty_accept_set_gives_zero(self):
        aut = Mcqfa(2, ("a",), {"a": swap_matrix()}, basis_state(2, 1), frozenset())
        assert value(aut, "aaa") == 0

    def test_tensor_square_reproduces_probability(self):
        # running the conjugate tensor square and summing the accept-diagonal
        # entries must agree with the direct measurement probability
        aut = rotation_automaton(PythTriple(2, 1), model="mcqfa")
        u = aut.transitions["a"]
        pair = kron(u, u)  # real machine: conjugate equals itself
        v = kron(aut.initial, aut.initial)
        for k, direct in enumerate(unary_values(aut, 50)):
            diag_sum = sum(v[(j - 1) * 3, 0] for j in aut.accept_states)
            assert diag_sum == direct
            v = matmul(pair, v)

    def test_complex_exact_machine(self):
        i = GaussianRational(F(0), F(1))
        one = GaussianRational(F(1), F(0))
        zero = GaussianRational(F(0), F(0))
        # phase gate never moves probability off the accept state
        aut = Mcqfa(
            2,
            ("a",),
            {"a": Matrix([[i, zero], [zero, one]])},
            Matrix.column([one, zero]),
            frozenset({1}),
        )
        assert validate(aut) == []
        assert [value(aut, "a" * k) for k in range(4)] == [1, 1, 1, 1]

    def test_complex_rotation_with_phase_stays_exact(self):
        i = GaussianRational(F(0), F(1))
        one = GaussianRational(F(1), F(0))
        zero = GaussianRational(F(0), F(0))
        phase = Matrix([[i, zero], [zero, one]])
        from cutpoint.constructions import PythTriple, rotation_matrix

        u = matmul(phase, scale(rotation_matrix(PythTriple(2, 1)), one))
        aut = Mcqfa(2, ("a",), {"a": u}, Matrix.column([one, zero]), frozenset({1}))
        assert validate(aut) == []
        exact = list(unary_values(aut, 40))
        assert all(isinstance(v, Fraction) and 0 <= v <= 1 for v in exact)
        for state in trace_run(aut, "a" * 15):
            norm = sum(gabs2(x) for x in state.col_values(0))
            assert norm == 1
        # independent binary64 simulation of the same machine
        uf = [[complex(x) for x in row] for row in u.data]
        vec = [1 + 0j, 0j]
        for k, expected in enumerate(exact):
            assert abs(abs(vec[0]) ** 2 - float(expected)) < 1e-12, k
            vec = [
                uf[0][0] * vec[0] + uf[0][1] * vec[1],
                uf[1][0] * vec[0] + uf[1][1] * vec[1],
            ]


class TestQfa:
    def test_reset_channel_traces(self):
        aut = reset_qfa()
        states = trace_run(aut, "a")
        assert states[0] == basis_density(2, 2)
        assert states[1] == basis_density(2, 1)

    def test_reset_channel_value(self):
        aut = reset_qfa()
        assert value(aut, "") == 0
        assert value(aut, "a") == 1

    def test_validate_accepts_reset_channel(self):
        assert validate(reset_qfa()) == []

    def test_validate_flags_incomplete_kraus_set(self):
        bad = Qfa(
            2,
            ("a",),
            {"a": (Matrix([[1, 0], [0, 0]]),)},
            1,
            frozenset({1}),
        )
        assert any("orthonormal" in v for v in validate(bad))

    def test_markers_wrap_the_run(self):
        # left marker swaps |1><1| to |2><2|; right marker is the rotation
        # with cosine 3/5, which leaves 16/25 of e2 and 9/25 of e1 on state 1
        swap = (swap_matrix(),)
        rot = (rotation_matrix(PythTriple(2, 1)),)
        es = reset_qfa().transitions["a"]
        aut = Qfa(2, ("a",), {"a": es}, 1, frozenset({1}), left_marker=swap, right_marker=rot)
        assert validate(aut) == []
        assert [value(aut, "a" * k) for k in range(3)] == [F(16, 25), F(9, 25), F(9, 25)]
        assert list(unary_values(aut, 2)) == [F(16, 25), F(9, 25), F(9, 25)]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_validate_names_the_bad_marker(self, side):
        bad = Qfa(
            2,
            ("a",),
            {"a": (identity(2),)},
            1,
            frozenset({1}),
            **{f"{side}_marker": (Matrix([[1, 0], [0, 0]]),)},
        )
        issues = validate(bad)
        assert issues and all(v.startswith(f"{side} marker: ") for v in issues)

    def test_density_states_stay_valid(self):
        from cutpoint.exactmath import validate_matrix

        # a symmetric mixing channel
        h = F(1, 2)
        es = (
            scale(Matrix([[h, h], [h, h]]), F(1)),
            Matrix([[h, -h], [-h, h]]),
        )
        aut = Qfa(2, ("a",), {"a": es}, 1, frozenset({2}))
        assert validate(aut) == []
        for rho in trace_run(aut, "aaa"):
            assert rho[0, 0] + rho[1, 1] == 1
            assert validate_matrix("density", rho) == []

    def test_basis_index_initial_state(self):
        aut = reset_qfa()
        assert aut.initial == basis_density(2, 2)


#: the default tolerance of binary64 machines
TOL = 1e-12


@st.composite
def near_unit_vector(draw, squared):
    """Binary64 entries whose sum (``squared``: sum of squares) is 1, or
    within 0.1% of tol from 1 +- tol, up to rounding and a move of one entry
    by a few ulps; PFA entries may dip just below -tol."""
    n = draw(st.integers(1, 9))
    low = -1.0 if squared else -2 * TOL
    # a first entry of at least 1/2 keeps the total away from 0
    rest = st.lists(st.floats(low, 1), min_size=n - 1, max_size=n - 1)
    xs = [draw(st.floats(0.5, 1))] + draw(rest)
    total = sum(x * x for x in xs) if squared else sum(xs)
    target = 1 + draw(st.sampled_from([-1, 0, 1])) * TOL * draw(st.floats(0.999, 1.001))
    scale = math.sqrt(target / total) if squared else target / total
    xs = [x * scale for x in xs]
    i, steps = draw(st.integers(0, n - 1)), draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        xs[i] = math.nextafter(xs[i], math.copysign(math.inf, steps))
    return xs


def _initial_issues(aut):
    return [v for v in validate(aut) if v.startswith("initial state: ")]


class TestBinary64InitialObjects:
    def test_pfa_initial_vector_within_tol_passes(self):
        # the exact sum is 1 + 9.9995e-13, within tol; summed in binary64 it
        # reads 1 + 1.00009e-12
        col = [0.029796603059272366, 0.19158913152172216, 0.1392337970447834,
               0.051473941392497446, 0.09193680301699403, 0.10242113974360254,
               0.13105488485682415, 0.14783218547545549, 0.11466151388984838]
        aut = Pfa(9, ("a",), {"a": identity(9, KIND_FLOAT)}, Matrix.column(col),
                  Matrix.row([1.0] + [0.0] * 8))
        assert validate(aut) == []

    def test_mcqfa_initial_norm_beyond_tol_fails(self):
        # the exact squared norm exceeds 1 + tol by 1.7e-18; summed in
        # binary64 it reads 1 + 9.9987e-13
        v = [0.13582251211915117, -0.5926985268025772, -0.27203764724792096,
             -0.7117604604141233, 0.22283013036748114]
        aut = Mcqfa(5, ("a",), {"a": identity(5, KIND_FLOAT)}, Matrix.column(v),
                    frozenset({1}))
        assert validate(aut) == ["initial state: squared norm 1.000000000001, not 1"]

    @settings(max_examples=300)
    @given(near_unit_vector(squared=False))
    def test_pfa_flags_exactly_the_exact_rule(self, col):
        n, tol = len(col), F(TOL)
        aut = Pfa(n, ("a",), {"a": identity(n, KIND_FLOAT)}, Matrix.column(col),
                  Matrix.row([1.0] + [0.0] * (n - 1)))
        exact = [F(x) for x in col]
        ok = all(x >= -tol for x in exact) and abs(sum(exact) - 1) <= tol
        assert (not _initial_issues(aut)) == ok

    @settings(max_examples=300)
    @given(near_unit_vector(squared=True))
    def test_mcqfa_flags_exactly_the_exact_rule(self, v):
        n = len(v)
        aut = Mcqfa(n, ("a",), {"a": identity(n, KIND_FLOAT)}, Matrix.column(v),
                    frozenset({1}))
        ok = abs(sum(F(x) ** 2 for x in v) - 1) <= F(TOL)
        assert (not _initial_issues(aut)) == ok

    def test_exact_initial_objects_name_the_part(self):
        pfa = Pfa(2, ("a",), {"a": identity(2)}, Matrix.column([1, -1]), Matrix.row([1, 0]))
        assert validate(pfa) == [
            "initial state: negative entry -1 at (2,1)",
            "initial state: column 1 sums to 0, not 1",
        ]
        mcqfa = Mcqfa(2, ("a",), {"a": identity(2)}, Matrix.column([1, 1]), frozenset({1}))
        assert validate(mcqfa) == ["initial state: squared norm 2, not 1"]
        mcqfa = Mcqfa(2, ("a",), {"a": identity(2, KIND_COMPLEX_FLOAT)},
                      Matrix.column([0.5, 0.5j]), frozenset({1}))
        assert validate(mcqfa) == ["initial state: squared norm 0.5, not 1"]


class TestConstructionHelpers:
    def test_basis_state_bounds(self):
        with pytest.raises(ValueError):
            basis_state(2, 0)
        with pytest.raises(ValueError):
            basis_state(2, 3)

    @pytest.mark.parametrize("cls", [Gfa, Mcqfa])
    def test_basis_index_initial_takes_the_kind_of_the_steps(self, cls):
        u = to_float(Matrix([[0, 1], [1, 0]]))
        final = Matrix.row([0.0, 1.0]) if cls is Gfa else frozenset({2})
        aut = cls(2, ("a",), {"a": u}, 2, final)
        assert aut.initial == to_float(basis_state(2, 2))
        assert value(aut, "") == 1.0

    def test_basis_index_built_after_the_shape_check(self):
        # a huge claimed state count fails on the transition shapes at once,
        # before a basis object of that size is allocated
        for cls, final in ((Pfa, Matrix.row([1])), (Qfa, frozenset({1}))):
            step = (identity(1),) if cls is Qfa else identity(1)
            with pytest.raises(ValueError, match="transition matrices must be"):
                cls(10**30, ("a",), {"a": step}, 10**30, final)

    def test_alphabet_transition_consistency(self):
        with pytest.raises(ValueError):
            Gfa(1, ("a", "b"), {"a": identity(1)}, Matrix.column([1]), Matrix.row([1]))
        with pytest.raises(ValueError):
            Gfa(
                1,
                ("a",),
                {"a": identity(1), "b": identity(1)},
                Matrix.column([1]),
                Matrix.row([1]),
            )


# reference evaluation by Matrix steps, independent of the integer kernel


def _ref_step(aut, op, state):
    if isinstance(aut, Qfa):
        return functools.reduce(add, (matmul(matmul(e, state), conj_transpose(e)) for e in op))
    return matmul(op, state)


def _ref_states(aut, word):
    state = aut.initial
    if aut.left_marker is not None:
        state = _ref_step(aut, aut.left_marker, state)
    states = [state]
    for s in word:
        states.append(_ref_step(aut, aut.transitions[s], states[-1]))
    return states


def _ref_accepting_value(aut, state):
    if aut.right_marker is not None:
        state = _ref_step(aut, aut.right_marker, state)
    if isinstance(aut, Gfa):
        return matmul(aut.final, state)[0, 0]
    zero = F(0) if aut.is_exact else 0.0
    if isinstance(aut, Mcqfa):
        terms = (gabs2(state[q - 1, 0]) for q in sorted(aut.accept_states))
    else:
        terms = (scalar_real(state[q - 1, q - 1]) for q in sorted(aut.accept_states))
    return sum(terms, zero)


def _ref_value(aut, word):
    return _ref_accepting_value(aut, _ref_states(aut, word)[-1])


small = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 5))
gaussian_small = st.builds(GaussianRational, small, small)


@st.composite
def machines(draw):
    """Exact machines of every model with arbitrary (unvalidated) entries,
    Gaussian-rational for the quantum models half of the time, with and
    without markers."""
    model = draw(st.sampled_from(["gfa", "pfa", "mcqfa", "qfa"]))
    n = draw(st.integers(1, 3))
    gaussian = model in ("mcqfa", "qfa") and draw(st.booleans())
    entry = gaussian_small if gaussian else small

    def mat(rows, cols):
        return Matrix([[draw(entry) for _ in range(cols)] for _ in range(rows)])

    def op():
        if model == "qfa":
            return tuple(mat(n, n) for _ in range(draw(st.integers(1, 2))))
        return mat(n, n)

    alphabet = draw(st.sampled_from([("a",), ("a", "b")]))
    transitions = {s: op() for s in alphabet}
    initial = mat(n, n) if model == "qfa" else mat(n, 1)
    left = op() if draw(st.booleans()) else None
    right = op() if draw(st.booleans()) else None
    if model in ("gfa", "pfa"):
        cls = Pfa if model == "pfa" else Gfa
        return cls(n, alphabet, transitions, initial, mat(1, n), left, right)
    accept = frozenset(draw(st.sets(st.integers(1, n))))
    cls = Mcqfa if model == "mcqfa" else Qfa
    return cls(n, alphabet, transitions, initial, accept, left, right)


class TestScaledEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(machines(), st.lists(st.sampled_from("ab"), max_size=4), st.integers(0, 4))
    def test_matches_matrix_steps(self, aut, word, limit):
        word = [s for s in word if s in aut.alphabet]
        got = value(aut, word)
        assert type(got) is Fraction
        assert got == _ref_value(aut, word)
        assert trace_run(aut, word) == _ref_states(aut, word)
        assert aut.initial_state() == _ref_states(aut, [])[0]
        assert aut.accepting_value(aut.initial) == _ref_accepting_value(aut, aut.initial)
        if len(aut.alphabet) == 1:
            values = list(unary_values(aut, limit))
            assert all(type(v) is Fraction for v in values)
            assert values == [_ref_value(aut, "a" * m) for m in range(limit + 1)]

    def test_accepting_value_rejects_an_object_of_another_kind(self):
        with pytest.raises(ScalarMixError):
            rotation_automaton(PythTriple(2, 1)).accepting_value(Matrix.column([1.0, 0.0]))
        mc = rotation_automaton(PythTriple(2, 1), model="mcqfa")
        with pytest.raises(ScalarMixError):
            mc.accepting_value(Matrix.column([G(F(0), F(1)), G(F(0), F(0))]))

    def test_accepting_value_rejects_an_object_of_another_size(self):
        three = Gfa(3, ("a",), {"a": identity(3)}, 1, Matrix.row([1, 2, 3]))
        with pytest.raises(ValueError):
            three.accepting_value(Matrix.column([1, 1]))
        mc = Mcqfa(3, ("a",), {"a": identity(3)}, 1, frozenset({3}))
        with pytest.raises(ValueError):
            mc.accepting_value(Matrix.column([0, 1]))

    def test_unary_values_stream(self):
        # the first value comes before any later step is taken or stored
        aut = rotation_automaton(PythTriple(2, 1))
        values = unary_values(aut, 10**12)
        assert next(values) == 1
        assert next(values) == value(aut, "a") == F(3, 5)

    def test_binary64_complex_machine_within_tolerance(self):
        # a complex QFA with markers, exact and in binary64: the realified
        # float steps stay within 1e-12, the tolerance of the other binary64 tests
        i, one, zero = G(F(0), F(1)), G(F(1), F(0)), G(F(0), F(0))
        u = matmul(Matrix([[i, zero], [zero, one]]), scale(rotation_matrix(PythTriple(2, 1)), one))
        v = scale(rotation_matrix(PythTriple(3, 2)), one)
        es = (scale(u, F(3, 5)), scale(v, F(4, 5)))
        aut = Qfa(2, ("a",), {"a": es}, 1, frozenset({1}), left_marker=(v,), right_marker=(u,))
        approx = Qfa(2, ("a",), {"a": tuple(to_float(e) for e in es)},
                     to_float(basis_density(2, 1)), frozenset({1}),
                     left_marker=(to_float(v),), right_marker=(to_float(u),))
        assert validate(aut) == [] and validate(approx) == []
        for exact, sim in zip(unary_values(aut, 60), unary_values(approx, 60)):
            assert type(sim) is float
            assert abs(sim - float(exact)) < 1e-12
