import math
import random
import warnings
from collections import Counter
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutpoint import langsem
from cutpoint.automata import Mcqfa, Pfa, basis_state, unary_values, validate
from cutpoint.constructions import (
    OneStateGfaSpec,
    PythTriple,
    TwoStatePfaAnalysis,
    analyze_two_state_pfa,
    build_one_state,
    classify_two_state_pfa,
    decompose_one_state,
    exclusive_to_zero,
    exclusive_zero_value,
    modn_mcqfa,
    normalize_one_state,
    one_state_accepts,
    rotation_automaton,
    rotation_cosine_pairs,
    rotation_cosines,
    rotation_matrix,
    three_state_closed_form,
    three_state_params,
    three_state_pfa,
    _last_flip,
)
from cutpoint.exactmath import GaussianRational, Matrix, PowerSign, scalar_to_float, validate_matrix
from cutpoint.langsem import (
    IndicatorDescriptor,
    IndicatorOnly,
    InclusiveForm,
    LambdaForm,
    ParityDescriptor,
    SolutionDescriptor,
    VForm,
    desc_member,
    named_member,
)
from matrix_reference import conj_transpose, identity, kron, mat_pow, matmul, scale, to_float

F = Fraction


class TestPythTriple:
    def test_accepts_primitive_generators(self):
        assert PythTriple(2, 1).legs == (3, 4)
        assert PythTriple(3, 2).legs == (5, 12)
        assert PythTriple(4, 1).hypotenuse == 17

    @pytest.mark.parametrize("m,n", [(2, 2), (1, 1), (4, 2), (3, 1), (9, 3), (1, 2)])
    def test_rejects_non_primitive(self, m, n):
        with pytest.raises(ValueError):
            PythTriple(m, n)

    def test_cosine_never_degenerate(self):
        for m in range(2, 12):
            for n in range(1, m):
                if math.gcd(m, n) == 1 and (m - n) % 2 == 1:
                    c = PythTriple(m, n).cosine
                    assert c not in (0, 1, -1, F(1, 2), F(-1, 2))


class TestRotation:
    def test_matrix_for_345(self):
        assert rotation_matrix(PythTriple(2, 1)) == Matrix(
            [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]
        )

    def test_matrix_for_51213(self):
        assert rotation_matrix(PythTriple(3, 2)) == Matrix(
            [[F(5, 13), F(-12, 13)], [F(12, 13), F(5, 13)]]
        )

    def test_single_step_value(self):
        assert rotation_automaton(PythTriple(2, 1)).value("a") == F(3, 5)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            rotation_automaton(PythTriple(2, 1), model="dfa")

    def test_cosine_recurrence_matches_matrix_powers(self):
        t = PythTriple(3, 2)
        r = rotation_matrix(t)
        for k, c in zip(range(60), rotation_cosines(t)):
            assert mat_pow(r, k)[0, 0] == c

    def test_cosine_pairs_stay_reduced(self):
        t = PythTriple(2, 1)
        for k, (num, den) in zip(range(200), rotation_cosine_pairs(t)):
            assert den == 5**k
            assert math.gcd(num, 5) == 1 or num in (1,)

    def test_quantum_value_is_square_of_generalized_value(self):
        g = rotation_automaton(PythTriple(2, 1))
        q = rotation_automaton(PythTriple(2, 1), model="mcqfa")
        for vg, vq in zip(unary_values(g, 100), unary_values(q, 100)):
            assert vq == vg * vg

    def test_models_validate(self):
        assert validate(rotation_automaton(PythTriple(4, 3))) == []
        assert validate(rotation_automaton(PythTriple(4, 3), model="mcqfa")) == []


class TestThreeStateFamily:
    def test_matrix_shape_and_stochasticity(self):
        for x in (F(1, 10), F(1, 4), F(1, 2)):
            assert validate(three_state_pfa(x)) == []

    def test_domain(self):
        with pytest.raises(ValueError):
            three_state_pfa(F(0))
        with pytest.raises(ValueError):
            three_state_pfa(F(3, 5))

    def test_first_values(self):
        vals = list(unary_values(three_state_pfa(F(1, 2)), 4))
        assert vals == [0, 0, 1, 0, F(1, 2)]

    def test_params_distinguished_cutpoint(self):
        assert three_state_params(F(1, 2)).cutpoint == F(2, 5)
        assert three_state_params(F(1, 4)).cutpoint == F(4, 7)

    def test_params_angle_range_and_special_value(self):
        # arccos(-1/2) = 2 pi / 3
        assert three_state_params(F(1, 4)).angle == pytest.approx(2 * math.pi / 3)
        for x in (F(1, 100), F(1, 3), F(1, 2)):
            p = three_state_params(x)
            assert math.pi / 2 < p.angle <= 3 * math.pi / 4
            assert p.amplitude > 0
            assert 0 < p.cutpoint < 1

    def test_params_amplitude_and_phase_for_half(self):
        p = three_state_params(F(1, 2))
        assert p.amplitude == pytest.approx(1.2649111, abs=1e-7)
        assert p.phase == pytest.approx(1.8925469, abs=1e-7)

    def test_closed_form_initial_conditions(self):
        assert three_state_closed_form(F(1, 2), 0) == pytest.approx(0.0, abs=1e-9)
        assert three_state_closed_form(F(1, 2), 2) == pytest.approx(1.0, abs=1e-9)
        assert three_state_closed_form(F(1, 2), 4) == pytest.approx(0.5, abs=1e-9)

    def test_closed_form_tracks_exact_values(self):
        x = F(3, 10)
        for m, exact in enumerate(unary_values(three_state_pfa(x), 120)):
            assert three_state_closed_form(x, m) == pytest.approx(
                float(exact), abs=1e-9
            )


def two_state(x, y, v0, f, left=None, right=None):
    return Pfa(
        state_count=2,
        alphabet=("a",),
        transitions={"a": Matrix([[1 - F(x), F(y)], [F(x), 1 - F(y)]])},
        initial=Matrix.column([F(v) for v in v0]),
        final=Matrix.row([F(w) for w in f]),
        left_marker=left,
        right_marker=right,
    )


def _scan_name(limit, swing, decay, lam):
    """Reference for the general case: scan the exact bits of
    limit + swing * decay^m > lam up to the first m with
    |swing| |decay|^m < |limit - lam|, then read each parity class's one
    switch back into a name.  Returns the name and that horizon."""
    gap, term, horizon = abs(limit - lam), abs(swing), 0
    while term >= gap:
        term *= abs(decay)
        horizon += 1
    bits = [limit + swing * decay**m > lam for m in range(horizon)]
    tail = limit > lam
    patterns = []
    for par in (0, 1):
        members = [(m, bits[m]) for m in range(par, horizon, 2)]
        trues = [m for m, b in members if b]
        falses = [m for m, b in members if not b]
        if tail and not falses:
            patterns.append(("all", None))
        elif tail:
            boundary = max(falses)
            assert all(b == (m > boundary) for m, b in members)
            patterns.append(("suffix", boundary + 2))
        elif not trues:
            patterns.append(("none", None))
        else:
            boundary = max(trues)
            assert all(b == (m <= boundary) for m, b in members)
            patterns.append(("prefix", boundary))
    (even_kind, e), (odd_kind, o) = patterns
    if even_kind == odd_kind in ("prefix", "suffix"):
        assert abs(e - o) == 1
    name = {
        ("all", "all"): lambda: langsem.ALL,
        ("none", "none"): lambda: langsem.EMPTY,
        ("all", "none"): lambda: langsem.EVEN,
        ("none", "all"): lambda: langsem.CO_EVEN,
        ("prefix", "none"): lambda: langsem.UnaryName("LessAndEven", e),
        ("none", "prefix"): lambda: langsem.UnaryName("LessAndCoEven", o),
        ("suffix", "none"): lambda: langsem.UnaryName("CoLessAndEven", e - 1),
        ("none", "suffix"): lambda: langsem.UnaryName("CoLessAndCoEven", o - 1),
        ("all", "suffix"): lambda: langsem.UnaryName("CoLessOrEven", o - 1),
        ("suffix", "all"): lambda: langsem.UnaryName("CoLessOrCoEven", e - 1),
        ("all", "prefix"): lambda: langsem.UnaryName("LessOrEven", o),
        ("prefix", "all"): lambda: langsem.UnaryName("LessOrCoEven", e),
        ("prefix", "prefix"): lambda: langsem.less(max(e, o)),
        ("suffix", "suffix"): lambda: langsem.co_less(min(e, o) - 1),
    }[even_kind, odd_kind]()
    return name, horizon


small_prob = st.integers(1, 12).flatmap(
    lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))
)


@st.composite
def stochastic_2x2(draw):
    a, b = draw(small_prob), draw(small_prob)
    return Matrix([[1 - a, b], [a, 1 - b]])


@st.composite
def two_state_questions(draw):
    """A random exact two-state unary PFA, stochastic initial vector, markers
    half of the time, and a cutpoint drawn at random, on a value a^k (k <= 8)
    or on the limit."""
    u = draw(small_prob)
    left = draw(st.none() | stochastic_2x2())
    right = draw(st.none() | stochastic_2x2())
    weight = small_prob if right is not None else st.sampled_from([F(0), F(1)])
    p = Pfa(
        2,
        ("a",),
        {"a": draw(stochastic_2x2())},
        Matrix.column([u, 1 - u]),
        Matrix.row([draw(weight), draw(weight)]),
        left_marker=left,
        right_marker=right,
    )
    where = draw(st.sampled_from(["random", "value", "limit"]))
    if where == "value":
        lam = p.value("a" * draw(st.integers(0, 8)))
    elif where == "limit" and analyze_two_state_pfa(p, 0).limit is not None:
        lam = analyze_two_state_pfa(p, 0).limit
    else:
        lam = draw(st.builds(Fraction, st.integers(0, 200), st.just(201)))
    return p, lam


class TestTwoStateClassifier:
    @settings(max_examples=400, deadline=None)
    @given(two_state_questions())
    def test_general_case_matches_the_bit_scan(self, question):
        p, lam = question
        got = analyze_two_state_pfa(p, lam)
        assert type(got) is TwoStatePfaAnalysis
        horizon = 2
        if got.case in ("monotone", "oscillating"):
            name, horizon = _scan_name(got.limit, got.swing, got.decay, lam)
            assert got.language == name
        for m, v in enumerate(unary_values(p, horizon + 3)):
            assert named_member(got.language, m) == (v > lam), (m, got)

    def test_slow_decay_tiny_gap_is_fast(self, best_of_three):
        # x = y = 1/10^4: the last flip is at m = 65605
        p = two_state(F(1, 10**4), F(1, 10**4), (1, 0), (0, 1))
        lam = F(1, 2) - F(1, 10**6)
        seconds, name = best_of_three(lambda: classify_two_state_pfa(p, lam))
        assert name == langsem.co_less(65605)
        assert seconds < 2

    @pytest.mark.parametrize(
        "x, last",
        [(F(1, 10**5), 656111), (F(1, 2 * 10**9), 13122363370)],  # decay 1 - 10^-9
    )
    def test_threshold_time_is_polynomial(self, best_of_three, x, last):
        p = two_state(x, x, (1, 0), (0, 1))
        lam = F(1, 2) - F(1, 10**6)
        seconds, name = best_of_three(lambda: classify_two_state_pfa(p, lam))
        assert name == langsem.co_less(last)
        assert seconds < 0.1

    @pytest.mark.parametrize("e, limit", [(300, 0.1), (400, 1.0)])
    def test_threshold_near_decay_one_is_fast(self, best_of_three, e, limit):
        # decay 1 - 10^-e puts K near 0.69 * 10^e, far past binary64's reach
        decay, gap = 1 - F(1, 10**e), F(1, 2)
        seconds, k = best_of_three(lambda: _last_flip(F(1), decay, gap, False))
        assert seconds < limit
        test = PowerSign({0: decay}, gap)
        assert test.sign({0: k}) >= 0 > test.sign({0: k + 1})
        with localcontext(Context(prec=2 * e + 40)):
            ratio = Decimal(gap.numerator).ln() - Decimal(gap.denominator).ln()
            ratio /= (Decimal(decay.numerator) / decay.denominator).ln()
        assert k == int(ratio)

    def test_swap_machine_gives_co_even(self):
        p = two_state(1, 1, (1, 0), (0, 1))
        assert classify_two_state_pfa(p, F(1, 2)) == langsem.CO_EVEN

    def test_identity_machine_gives_all(self):
        p = two_state(0, 0, (1, 0), (1, 0))
        assert classify_two_state_pfa(p, F(1, 2)) == langsem.ALL

    def test_damped_monotone_gives_less(self):
        p = two_state(F(1, 4), F(1, 4), (1, 0), (1, 0))
        assert classify_two_state_pfa(p, F(3, 5)) == langsem.less(2)

    def test_split_at_zero_gives_epsilon_only(self):
        # value 1 on the empty word, 1/2 forever after
        p = two_state(F(1, 2), F(1, 2), (1, 0), (1, 0))
        assert classify_two_state_pfa(p, F(3, 4)) == langsem.EPSILON_ONLY
        assert classify_two_state_pfa(p, F(1, 2)) == langsem.EPSILON_ONLY
        assert classify_two_state_pfa(p, F(1, 4)) == langsem.ALL

    def test_split_at_zero_gives_a_plus(self):
        p = two_state(F(1, 2), F(1, 2), (0, 1), (1, 0))
        assert classify_two_state_pfa(p, F(1, 4)) == langsem.A_PLUS

    def test_cutpoint_on_limit_monotone(self):
        p = two_state(F(1, 4), F(1, 4), (1, 0), (1, 0))
        # limit is 1/2, approached from above
        assert classify_two_state_pfa(p, F(1, 2)) == langsem.ALL

    def test_cutpoint_on_limit_oscillating(self):
        p = two_state(1, F(1, 2), (1, 0), (1, 0))
        a = analyze_two_state_pfa(p, p.value(""))
        assert a.case == "on-limit" or a.limit != p.value("")
        # limit = y/(x+y) = 1/3; cutpoint exactly there
        assert classify_two_state_pfa(p, F(1, 3)) == langsem.EVEN

    def test_oscillating_union_form(self):
        p = two_state(1, F(1, 2), (1, 0), (1, 0))
        # limit 1/3, oscillation sign alternates, low cutpoint keeps evens
        # and eventually all odds
        name = classify_two_state_pfa(p, F(1, 4))
        assert name.kind in ("CoLessOrEven", "All")
        for m, v in enumerate(unary_values(p, 50)):
            assert named_member(name, m) == (v > F(1, 4))

    def test_markers_are_folded_in(self):
        swap = Matrix([[F(0), F(1)], [F(1), F(0)]])
        p = two_state(1, 1, (1, 0), (0, 1), left=swap, right=swap)
        # double swap restores the unmarked machine's even/odd split shifted
        # by the marker effect; verify against direct evaluation
        name = classify_two_state_pfa(p, F(1, 2))
        for m, v in enumerate(unary_values(p, 20)):
            assert named_member(name, m) == (v > F(1, 2))

    def test_random_machines_agree_with_enumeration(self):
        rng = random.Random(1212)
        for _ in range(60):
            d1, d2 = rng.randint(1, 5), rng.randint(1, 5)
            x, y = F(rng.randint(0, d1), d1), F(rng.randint(0, d2), d2)
            v0 = (1, 0) if rng.random() < 0.5 else (F(1, 3), F(2, 3))
            f = (rng.randint(0, 1), rng.randint(0, 1))
            p = two_state(x, y, v0, f)
            lam = F(rng.randint(0, 11), 12)
            name = classify_two_state_pfa(p, lam)
            for m, v in enumerate(unary_values(p, 150)):
                assert named_member(name, m) == (v > lam), (x, y, v0, f, lam, name, m)

    def test_exact_cutpoint_hits(self):
        # engineered so that the cutpoint equals the limit exactly
        p = two_state(F(1, 3), F(1, 6), (1, 0), (1, 0))
        a = analyze_two_state_pfa(p, F(1, 3))
        assert a.limit == F(1, 3)
        name = a.language
        for m, v in enumerate(unary_values(p, 60)):
            assert named_member(name, m) == (v > F(1, 3))

    def test_agreement_far_beyond_the_stabilization_horizon(self):
        rng = random.Random(777)
        for _ in range(20):
            d1, d2 = rng.randint(1, 6), rng.randint(1, 6)
            x, y = F(rng.randint(0, d1), d1), F(rng.randint(0, d2), d2)
            p = two_state(x, y, (1, 0), (rng.randint(0, 1), rng.randint(0, 1)))
            lam = F(rng.randint(0, 23), 24)
            name = classify_two_state_pfa(p, lam)
            for m, v in enumerate(unary_values(p, 1000)):
                assert named_member(name, m) == (v > lam), (x, y, lam, name, m)

    def test_cutpoint_exactly_on_a_value(self):
        # value sequence 1/2 + (1/2)^(m+1); put the cutpoint exactly on the
        # m=3 value so that a^3 falls out under the strict comparison
        p = two_state(F(1, 4), F(1, 4), (1, 0), (1, 0))
        lam = p.value("aaa")
        assert lam == F(1, 2) + F(1, 16)
        name = classify_two_state_pfa(p, lam)
        for m, v in enumerate(unary_values(p, 60)):
            assert named_member(name, m) == (v > lam)

    def test_cutpoint_on_oscillating_value(self):
        p = two_state(1, F(1, 2), (1, 0), (1, 0))
        for probe in range(5):
            lam = p.value("a" * probe)
            name = classify_two_state_pfa(p, lam)
            for m, v in enumerate(unary_values(p, 80)):
                assert named_member(name, m) == (v > lam), (probe, m, name)

    def test_tiny_gap_between_limit_and_cutpoint(self):
        # slow decay and a cutpoint a hair away from the limit forces a long
        # exact stabilization scan
        p = two_state(F(1, 12), F(1, 12), (1, 0), (1, 0))
        lam = F(1, 2) + F(1, 10**9)
        name = classify_two_state_pfa(p, lam)
        for m, v in enumerate(unary_values(p, 300)):
            assert named_member(name, m) == (v > lam)

    @staticmethod
    def _right_marked():
        return Pfa(
            2,
            ("a",),
            {"a": Matrix([[F(2, 3), F(1, 5)], [F(1, 3), F(4, 5)]])},
            Matrix.column([F(1, 3), F(2, 3)]),
            Matrix.row([F(1, 11), F(9, 13)]),
            right_marker=Matrix([[F(3, 7), F(1, 2)], [F(4, 7), F(1, 2)]]),
        )

    def test_cutpoint_exactly_on_a_marked_limit(self):
        # the exact tie must be seen as one: on a zero gap the search for the
        # last flip would never end
        p = self._right_marked()
        lam = analyze_two_state_pfa(p, 0).limit
        assert lam == F(3265, 8008)
        got = analyze_two_state_pfa(p, lam)
        assert (got.case, got.language) == ("on-limit", langsem.EMPTY)
        assert not any(v > lam for v in unary_values(p, 60))

    def test_state_with_a_foreign_denominator_reads_out_in_lowest_terms(self):
        # 17 divides no scale of the machine, so a readout that trusts the
        # machine's own denominators would leave this value unreduced
        v = self._right_marked().accepting_value(Matrix.column([F(5, 17), F(12, 17)]))
        want = F(6879, 17017)
        assert type(v) is Fraction
        assert (v.numerator, v.denominator) == (want.numerator, want.denominator)

    def test_wrong_state_count_rejected(self):
        with pytest.raises(ValueError):
            classify_two_state_pfa(three_state_pfa(F(1, 2)), F(1, 2))

    def test_invalid_machine_rejected(self):
        bad = Pfa(
            2,
            ("a",),
            {"a": Matrix([[F(1, 2), F(0)], [F(2, 5), F(1)]])},
            basis_state(2, 1),
            Matrix.row([F(1), F(0)]),
        )
        with pytest.raises(ValueError):
            classify_two_state_pfa(bad, F(1, 2))


class TestOneStateDecomposition:
    def test_more_bs_than_as_example(self):
        spec = OneStateGfaSpec({"a": F(1, 2), "b": F(2)}, F(1), "greater")
        d = decompose_one_state(spec)
        assert isinstance(d, LambdaForm)
        assert d.solution.coefficients == {"a": F(2), "b": F(1, 2)}
        assert d.solution.threshold == 1
        assert d.parity.bit == 0 and not d.parity.subset
        assert desc_member(d, "abb") and not desc_member(d, "ab")

    def test_negative_number_odd_lengths(self):
        spec = OneStateGfaSpec({"a": F(-2)}, F(0), "less")
        d = decompose_one_state(spec)
        assert isinstance(d, LambdaForm)
        assert d.solution.threshold == math.inf
        assert d.parity.subset == {"a"} and d.parity.bit == 1
        assert [desc_member(d, "a" * m) for m in range(5)] == [
            False,
            True,
            False,
            True,
            False,
        ]

    def test_positive_cutpoint_gives_union_form(self):
        spec = OneStateGfaSpec({"a": F(3), "b": F(0)}, F(2), "less")
        d = decompose_one_state(spec)
        assert isinstance(d, VForm)
        assert d.indicator.subset == {"b"}
        assert desc_member(d, "b")  # zero transition dives below the cutpoint
        assert not desc_member(d, "a")  # 3 not < 2
        assert desc_member(d, "")  # 1 < 2

    def test_inclusive_zero_cutpoint_is_indicator(self):
        spec = OneStateGfaSpec({"a": F(2), "b": F(0)}, F(0), mode="inclusive")
        d = decompose_one_state(spec)
        assert isinstance(d, IndicatorOnly)
        assert d.indicator.subset == {"b"}

    def test_inclusive_equality_language(self):
        spec = OneStateGfaSpec({"a": F(2), "b": F(1, 2)}, F(1), mode="inclusive")
        d = decompose_one_state(spec)
        assert isinstance(d, InclusiveForm)
        assert desc_member(d, "ab") and desc_member(d, "")
        assert not desc_member(d, "a")

    @pytest.mark.parametrize(
        "lam,direction,expected",
        [
            (F(-1), "less", [False, False]),  # nothing is below a negative cutpoint
            (F(1, 2), "less", [False, True]),  # only the zero products
            (F(2), "less", [True, True]),
            (F(1, 2), "greater", [True, False]),  # only the empty word
            (F(0), "greater", [True, False]),
            (F(-1), "greater", [True, True]),
        ],
    )
    def test_all_zero_numbers(self, lam, direction, expected):
        # with every transition number zero the value is 1 on the empty word
        # and 0 elsewhere
        spec = OneStateGfaSpec({"a": F(0), "b": F(0)}, lam, direction)
        d = decompose_one_state(spec)
        got = [desc_member(d, ""), desc_member(d, "ab")]
        assert got == expected
        assert got == [one_state_accepts(spec, ""), one_state_accepts(spec, "ab")]

    def test_decomposition_matches_direct_acceptance(self):
        rng = random.Random(6510)
        words = []
        for length in range(7):
            for _ in range(8):
                words.append("".join(rng.choice("abc") for _ in range(length)))
        for _ in range(80):
            numbers = {
                a: F(0) if rng.random() < 0.3 else F(rng.randint(-8, 8), rng.randint(1, 4))
                for a in "abc"
            }
            lam = F(rng.randint(-8, 8), rng.randint(1, 4))
            mode = "inclusive" if rng.random() < 0.4 else "strict"
            spec = OneStateGfaSpec(numbers, lam, rng.choice(["less", "greater"]), mode)
            d = decompose_one_state(spec)
            for w in words:
                assert desc_member(d, w) == one_state_accepts(spec, w), (spec, w)

    @pytest.mark.parametrize(
        "cut, mode, counts, expected",
        [
            (F(7, 5), "strict", (10**12, 10**12 - 1), False),  # 3/2 < 7/5 fails
            (F(7, 5), "strict", (10**12 - 1, 10**12), True),  # 2/3 < 7/5
            (F(3, 2), "inclusive", (10**12 + 1, 10**12), True),  # an exact tie
            (F(3, 2), "inclusive", (10**12, 10**12), False),
        ],
    )
    def test_huge_counts_are_fast(self, best_of_three, cut, mode, counts, expected):
        spec = OneStateGfaSpec({"a": F(3, 2), "b": F(2, 3)}, cut, "less", mode)
        word = Counter(dict(zip("ab", counts)))
        seconds, got = best_of_three(lambda: one_state_accepts(spec, word))
        assert got is expected
        assert seconds < 0.1


class TestOneStateBuild:
    def test_odd_length_machine(self):
        d = LambdaForm(
            ("a",),
            SolutionDescriptor(("a",), {"a": F(2)}, math.inf),
            ParityDescriptor(("a",), frozenset({"a"}), 1),
        )
        spec = build_one_state(d)
        assert spec.numbers == {"a": F(-1, 2)}
        assert spec.cutpoint == 0 and spec.direction == "less"

    def test_union_form_machine(self):
        d = VForm(
            SolutionDescriptor(("a",), {"a": F(2)}, F(4)),
            ParityDescriptor(("a",), frozenset(), 1),
            IndicatorDescriptor(("a", "b"), frozenset({"b"})),
        )
        spec = build_one_state(d)
        assert spec.numbers == {"a": F(2), "b": F(0)}
        assert spec.cutpoint == 4 and spec.direction == "less"

    def test_inclusive_singleton_machine(self):
        d = InclusiveForm(
            ("a",),
            SolutionDescriptor(("a",), {"a": F(2)}, F(4), relation="="),
            ParityDescriptor(("a",), frozenset(), 0),
        )
        spec = build_one_state(d)
        assert spec.mode == "inclusive" and spec.cutpoint == 4
        assert [one_state_accepts(spec, "a" * m) for m in range(4)] == [
            False,
            False,
            True,
            False,
        ]

    def test_indicator_machine(self):
        d = IndicatorOnly(IndicatorDescriptor(("a", "b"), frozenset({"b"})))
        spec = build_one_state(d)
        assert spec.mode == "inclusive" and spec.cutpoint == 0
        assert one_state_accepts(spec, "ab") and not one_state_accepts(spec, "aa")

    def test_round_trip_preserves_language(self):
        rng = random.Random(20)
        words = [
            "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
            for _ in range(60)
        ]
        for _ in range(60):
            k = rng.randint(0, 3)
            x = tuple(sorted(rng.sample(("a", "b", "c"), k)))
            y = frozenset(a for a in x if rng.random() < 0.5)
            bit = rng.randint(0, 1)
            coeffs = {a: F(rng.randint(1, 6), rng.randint(1, 6)) for a in x}
            tau = F(rng.randint(1, 6), rng.randint(1, 6))
            form = rng.choice(["lambda", "vee", "inclusive"])
            if form == "lambda":
                threshold = math.inf if rng.random() < 0.3 else tau
                d = LambdaForm(
                    ("a", "b", "c"),
                    SolutionDescriptor(x, coeffs, threshold),
                    ParityDescriptor(x, y, bit),
                )
            elif form == "vee":
                d = VForm(
                    SolutionDescriptor(x, coeffs, tau),
                    ParityDescriptor(x, y, bit),
                    IndicatorDescriptor(("a", "b", "c"), frozenset("abc") - set(x)),
                )
            else:
                d = InclusiveForm(
                    ("a", "b", "c"),
                    SolutionDescriptor(x, coeffs, tau, relation="="),
                    ParityDescriptor(x, y, bit),
                )
            d2 = decompose_one_state(build_one_state(d))
            for w in words:
                assert desc_member(d, w) == desc_member(d2, w), (d, w)

    def test_approx_coefficients_rejected(self):
        d = LambdaForm(
            ("a",),
            SolutionDescriptor(("a",), {"a": 0.7}, 1.0, exact=False),
            ParityDescriptor(("a",), frozenset(), 0),
        )
        with pytest.raises(ValueError):
            build_one_state(d)


class TestNormalizeOneState:
    def test_weight_folds_into_cutpoint(self):
        spec = normalize_one_state({"a": F(3)}, F(1, 2), F(4), F(3), "less")
        assert spec.cutpoint == F(3, 2)
        assert spec.direction == "less"

    def test_negative_weight_flips_direction(self):
        spec = normalize_one_state({"a": F(3)}, F(1), F(-2), F(4), "less")
        assert spec.cutpoint == F(-2)
        assert spec.direction == "greater"

    def test_zero_weight_short_circuits(self):
        everything = normalize_one_state({"a": F(3)}, F(0), F(1), F(1), "less")
        nothing = normalize_one_state({"a": F(3)}, F(0), F(1), F(-1), "less")
        assert desc_member(everything, "aaa") and desc_member(everything, "")
        assert not desc_member(nothing, "aaa") and not desc_member(nothing, "")

    def test_zero_weight_inclusive(self):
        everything = normalize_one_state(
            {"a": F(3)}, F(0), F(1), F(0), mode="inclusive"
        )
        nothing = normalize_one_state({"a": F(3)}, F(0), F(1), F(2), mode="inclusive")
        assert desc_member(everything, "a") and desc_member(everything, "")
        assert not desc_member(nothing, "a")


class TestExclusiveToZero:
    def setup_method(self):
        self.mc = rotation_automaton(PythTriple(2, 1), model="mcqfa")

    def test_dimensions_and_validation(self):
        built = exclusive_to_zero(self.mc, F(1, 2))
        assert built.state_count == 5
        assert built.accept_states == {1}
        assert built.right_marker is not None
        assert validate(built) == []

    def test_known_values(self):
        built = exclusive_to_zero(self.mc, F(1, 2))
        assert built.value("") == pytest.approx(1 / 10, abs=1e-12)
        assert built.value("a") == pytest.approx(49 / 6250, abs=1e-12)

    def test_exact_formula(self):
        assert exclusive_zero_value(self.mc, F(1, 2), "") == F(1, 10)
        assert exclusive_zero_value(self.mc, F(1, 2), "a") == F(49, 6250)

    def test_simulation_matches_formula(self):
        for lam in (F(1, 4), F(3, 4)):
            built = exclusive_to_zero(self.mc, lam)
            for k, sim in enumerate(unary_values(built, 60)):
                exact = exclusive_zero_value(self.mc, lam, "a" * k)
                assert sim == pytest.approx(float(exact), abs=1e-9)

    def test_value_vanishes_exactly_on_cutpoint(self):
        # a machine that actually hits its cutpoint: the swap rotation has
        # value 1, 0, 1, 0, ...
        swap = Mcqfa(
            2,
            ("a",),
            {"a": Matrix([[F(0), F(-1)], [F(1), F(0)]])},
            basis_state(2, 1),
            frozenset({1}),
        )
        for k in range(6):
            v = exclusive_zero_value(swap, F(1), "a" * k)
            assert (v == 0) == (k % 2 == 0)

    def test_complex_machine_transform(self):
        from cutpoint.exactmath import GaussianRational

        i = GaussianRational(F(0), F(1))
        one = GaussianRational(F(1), F(0))
        zero = GaussianRational(F(0), F(0))
        phase = Matrix([[i, zero], [zero, one]])
        u = matmul(phase, scale(rotation_matrix(PythTriple(2, 1)), one))
        mc = Mcqfa(2, ("a",), {"a": u}, Matrix.column([one, zero]), frozenset({1}))
        assert validate(mc) == []
        built = exclusive_to_zero(mc, F(1, 3))
        assert built.kind == "complex-float"
        assert validate(built) == []
        for k, sim in enumerate(unary_values(built, 50)):
            exact = exclusive_zero_value(mc, F(1, 3), "a" * k)
            assert sim == pytest.approx(float(exact), abs=1e-9)

    def test_marker_is_a_symmetric_involution(self):
        # without an old right marker the end-marker is the reflection itself
        h = exclusive_to_zero(self.mc, F(1, 2)).right_marker.data
        for i, row in enumerate(h):
            for j, x in enumerate(row):
                assert x == pytest.approx(h[j][i], abs=1e-15)
                square = sum(row[k] * h[k][j] for k in range(len(h)))
                assert square == pytest.approx(float(i == j), abs=1e-15)

    def test_empty_accept_at_cutpoint_one_flips_the_flag(self):
        # r = -e_1, so the reflection is exactly diag(-1, 1, ..., 1)
        mc = Mcqfa(2, ("a",), dict(self.mc.transitions), self.mc.initial, frozenset())
        h = exclusive_to_zero(mc, F(1)).right_marker.data
        assert h == tuple(tuple(-1.0 if i == j == 0 else float(i == j) for j in range(5))
                          for i in range(5))

    def test_zero_cutpoint_returns_machine_unchanged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = exclusive_to_zero(self.mc, F(0))
        assert out is self.mc

    def test_out_of_range_cutpoint(self):
        with pytest.raises(ValueError):
            exclusive_to_zero(self.mc, F(3, 2))

    @pytest.mark.parametrize("left, right", [(True, False), (False, True), (True, True)],
                             ids=["left", "right", "both"])
    def test_end_markers_are_folded_in(self, left, right):
        # an initial state other than a basis state counts as a left marker
        mc = Mcqfa(
            2,
            ("a",),
            {"a": rotation_matrix(PythTriple(2, 1))},
            Matrix.column([F(3, 5), F(4, 5)]) if left else 1,
            frozenset({2}),
            right_marker=rotation_matrix(PythTriple(3, 2)) if right else None,
        )
        built = exclusive_to_zero(mc, F(1, 2))
        assert validate(built) == []
        for k, sim in enumerate(unary_values(built, 40)):
            exact = exclusive_zero_value(mc, F(1, 2), "a" * k)
            assert sim == pytest.approx(float(exact), abs=1e-9)

    def test_random_exact_machines(self):
        # every size, accept set and marker combination, on random exact
        # unitaries, real and Gaussian, with cutpoints in (0, 1]
        rng = random.Random(1958)
        cases = product((1, 2, 3), ("empty", "partial", "full"), (False, True), (False, True))
        for case, (n, accepting, left, right) in enumerate(cases):
            if accepting == "partial" and n == 1:
                continue
            gaussian = rng.random() < 0.5
            partial = rng.randint(1, n - 1) if n > 1 else None
            size = {"empty": 0, "partial": partial, "full": n}[accepting]
            accept = frozenset(rng.sample(range(1, n + 1), size))
            mc = Mcqfa(
                n,
                ("a",),
                {"a": _exact_unitary(rng, n, gaussian)},
                1,
                accept,
                left_marker=_exact_unitary(rng, n, gaussian) if left else None,
                right_marker=_exact_unitary(rng, n, gaussian) if right else None,
            )
            assert validate(mc) == []
            lam = F(1) if case % 4 == 0 else F(rng.randint(1, 999), 1000)
            built = exclusive_to_zero(mc, lam)
            assert validate(built) == [], (n, accepting, left, right)

            # the marker's first row is r = c (-lam, 1 on the accept diagonal,
            # 0 elsewhere), times 1 (+) conj(R) (x) R after a right marker R
            c = 1 / math.sqrt(lam * lam + len(accept))
            diag = {(q - 1) * (n + 1) for q in accept}
            row = [-lam] + [F(i in diag) for i in range(n * n)]
            if right:
                r = mc.right_marker
                square = kron(conj_transpose(r).transpose(), r)
                row[1:] = matmul(Matrix.row(row[1:]), square).data[0]
            for x, y in zip(built.right_marker.data[0], row):
                assert abs(x - c * scalar_to_float(y)) <= 1e-15, (n, accepting, left, right, lam)

            for k in range(21):
                exact = exclusive_zero_value(mc, lam, "a" * k)
                assert built.value("a" * k) == pytest.approx(float(exact), abs=1e-9)

    def test_ten_state_marker_is_a_fast_reflection(self, best_of_three):
        rng = random.Random(10)
        mc = Mcqfa(10, ("a",), {"a": to_float(_exact_unitary(rng, 10, False))}, 1,
                   frozenset({1, 4, 7}))
        seconds, built = best_of_three(lambda: exclusive_to_zero(mc, F(1, 3)))
        assert built.state_count == 101
        assert validate_matrix("unitary", built.right_marker, 1e-12) == []
        assert seconds < 0.1


def _exact_unitary(rng, n, gaussian) -> Matrix:
    """A product of triple rotations in random coordinate planes, a random
    permutation with sign flips and, for a Gaussian unitary, an i phase."""
    u = identity(n)
    for _ in range(2 * (n - 1)):
        i, j = rng.sample(range(n), 2)
        triple = PythTriple(*rng.choice([(2, 1), (3, 2), (4, 1)]))
        (c, minus_s), (s, _) = rotation_matrix(triple).data
        g = [list(r) for r in identity(n).data]
        g[i][i], g[i][j], g[j][i], g[j][j] = c, minus_s, s, c
        u = matmul(Matrix(g), u)
    perm = rng.sample(range(n), n)
    u = matmul(Matrix([[F(rng.choice((-1, 1))) if j == perm[i] else F(0) for j in range(n)]
                       for i in range(n)]), u)
    if not gaussian:
        return u
    one, zero = GaussianRational(F(1), F(0)), GaussianRational(F(0), F(0))
    k = rng.randrange(n)
    phase = Matrix([[(GaussianRational(F(0), F(1)) if i == k else one) if i == j else zero
                     for j in range(n)] for i in range(n)])
    return matmul(phase, scale(u, one))


class TestModN:
    def test_small_values(self):
        assert modn_mcqfa(2).value("a") == pytest.approx(0.0, abs=1e-12)
        assert modn_mcqfa(4).value("aaaa") == pytest.approx(1.0, abs=1e-12)

    def test_enum_bits_mod_five(self):
        bits = langsem.enum_unary(
            modn_mcqfa(5), langsem.CutpointSpec(F(1), "inclusive"), 10
        )
        assert bits == "10000100001"

    def test_validates_as_unitary(self):
        for n in range(2, 7):
            assert validate(modn_mcqfa(n)) == []

    def test_domain(self):
        with pytest.raises(ValueError):
            modn_mcqfa(1)
