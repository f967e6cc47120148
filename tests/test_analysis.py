import random
from fractions import Fraction

import pytest

from cutpoint import analysis
from cutpoint.analysis import (
    ChomskyVerdict,
    SeparationWitness,
    aperiodicity_check,
    chomsky_classify,
    chomsky_classify_gfa,
    decimate,
    density_report,
    separate,
    three_state_separation,
)
from cutpoint.automata import Gfa, basis_state, unary_values
from cutpoint.constructions import (
    OneStateGfaSpec,
    PythTriple,
    modn_mcqfa,
    rotation_automaton,
    three_state_pfa,
)
from cutpoint.exactmath import Matrix
from cutpoint.langsem import CutpointSpec, SolutionDescriptor

F = Fraction


def sol(coeffs, tau=F(1), relation="<"):
    return SolutionDescriptor(tuple(sorted(coeffs)), coeffs, tau, relation)


def exact_root(value: Fraction, k: int) -> Fraction:
    num = round(value.numerator ** (1 / k))
    den = round(value.denominator ** (1 / k))
    assert Fraction(num, den) ** k == value
    return Fraction(num, den)


class TestChomskyClassify:
    def test_fixed_verdicts(self):
        assert (
            chomsky_classify(sol({"a": F(1, 2), "b": F(2)}))
            == ChomskyVerdict.CONTEXT_FREE_NONREGULAR
        )
        assert chomsky_classify(sol({"a": F(2), "b": F(3)})) == ChomskyVerdict.REGULAR
        assert (
            chomsky_classify(sol({"a": F(2), "b": F(1, 3)}))
            == ChomskyVerdict.NON_CONTEXT_FREE
        )

    def test_all_negative_logs_regular(self):
        assert chomsky_classify(sol({"a": F(1, 2), "b": F(1, 3)})) == ChomskyVerdict.REGULAR

    def test_unit_bases_are_ignored(self):
        assert (
            chomsky_classify(sol({"a": F(1), "b": F(1)})) == ChomskyVerdict.REGULAR
        )
        assert (
            chomsky_classify(sol({"a": F(1), "b": F(2), "c": F(1, 2)}))
            == ChomskyVerdict.CONTEXT_FREE_NONREGULAR
        )

    def test_approximate_coefficients_rejected(self):
        d = SolutionDescriptor(("a",), {"a": 0.5}, 1.0, exact=False)
        with pytest.raises(ValueError):
            chomsky_classify(d)

    def test_verdict_invariant_under_decimation_and_rescaling(self):
        rng = random.Random(314)
        for _ in range(100):
            letters = tuple("abcd"[: rng.randint(1, 4)])
            coeffs = {}
            for a in letters:
                b = F(1)
                for p in (2, 3, 5):
                    b *= F(p) ** rng.randint(-2, 2)
                coeffs[a] = b
            d = sol(coeffs, F(rng.randint(1, 9), rng.randint(1, 9)))
            verdict = chomsky_classify(d)
            assert chomsky_classify(decimate(d)) == verdict
            q = rng.choice([2, 3])
            powered = SolutionDescriptor(
                d.alphabet,
                {a: c**q for a, c in d.coefficients.items()},
                d.threshold**q,
            )
            assert chomsky_classify(powered) == verdict

    def test_verdict_invariant_under_exact_roots(self):
        base = {"a": F(4, 9), "b": F(9, 4), "c": F(16, 81)}
        d = sol(dict(base), F(4))
        rooted = SolutionDescriptor(
            d.alphabet,
            {a: exact_root(c, 2) for a, c in base.items()},
            exact_root(F(4), 2),
        )
        assert chomsky_classify(d) == chomsky_classify(rooted)


class TestChomskyClassifyGfa:
    def test_context_free_example(self):
        spec = OneStateGfaSpec({"a": F(1, 2), "b": F(2)}, F(1), "greater")
        assert chomsky_classify_gfa(spec) == ChomskyVerdict.CONTEXT_FREE_NONREGULAR

    def test_regular_with_negative_numbers(self):
        spec = OneStateGfaSpec({"a": F(-2), "b": F(-3)}, F(-1), "less")
        assert chomsky_classify_gfa(spec) == ChomskyVerdict.REGULAR

    def test_non_context_free(self):
        spec = OneStateGfaSpec({"a": F(2), "b": F(1, 3)}, F(1), "greater")
        assert chomsky_classify_gfa(spec) == ChomskyVerdict.NON_CONTEXT_FREE

    def test_zero_numbers_fall_out(self):
        spec = OneStateGfaSpec({"a": F(2), "b": F(0)}, F(1), "less")
        assert chomsky_classify_gfa(spec) == ChomskyVerdict.REGULAR

    def test_inclusive_mode_rejected(self):
        spec = OneStateGfaSpec({"a": F(2)}, F(1), mode="inclusive")
        with pytest.raises(ValueError):
            chomsky_classify_gfa(spec)


class TestDecimate:
    def test_drops_unit_bases(self):
        d = sol({"a": F(2), "b": F(1), "c": F(1, 2)})
        assert decimate(d).alphabet == ("a", "c")

    def test_all_units_leave_empty_descriptor(self):
        d = decimate(sol({"a": F(1)}, F(2)))
        assert d.alphabet == ()
        assert d.threshold == 2

    def test_no_units_unchanged(self):
        d = sol({"a": F(2), "b": F(3)})
        assert decimate(d) == d

    def test_approx_mode_drops_zeros(self):
        d = SolutionDescriptor(("a", "b"), {"a": 0.0, "b": 1.5}, 2.0, exact=False)
        assert decimate(d).alphabet == ("b",)


class TestSeparate:
    def test_rotation_cutpoints_separate_at_twelve(self):
        aut = rotation_automaton(PythTriple(2, 1))
        w = separate(
            aut, CutpointSpec(F(1, 10)), aut, CutpointSpec(F(1, 5)), 100
        )
        assert w.m == 12
        assert w.value_a == F(32125393, 244140625)
        assert w.member_a and not w.member_b

    def test_early_witness_with_a_huge_horizon(self):
        # values are streamed, so the horizon costs nothing past the witness
        aut = rotation_automaton(PythTriple(2, 1))
        w = separate(aut, CutpointSpec(F(1, 10)), aut, CutpointSpec(F(1, 5)), 10**12)
        assert w.m == 12

    def test_one_machine_is_evaluated_once(self, monkeypatch):
        calls = []

        def counting(aut, limit):
            calls.append(aut)
            return unary_values(aut, limit)

        monkeypatch.setattr(analysis, "unary_values", counting)
        a, b = rotation_automaton(PythTriple(2, 1)), rotation_automaton(PythTriple(2, 1))
        for aut_b in (a, b):
            calls.clear()
            w = separate(a, CutpointSpec(F(1, 10)), aut_b, CutpointSpec(F(1, 5)), 100)
            assert (w.m, w.value_a, w.value_b) == (12, F(32125393, 244140625), w.value_a)
            assert w.member_a and not w.member_b
            assert len(calls) == 1

    def test_identical_pairs_never_separate(self):
        aut = rotation_automaton(PythTriple(2, 1))
        assert separate(aut, CutpointSpec(F(1, 10)), aut, CutpointSpec(F(1, 10)), 50) is None

    def test_three_state_machines_separate_at_four(self):
        # the smallest length distinguishing the x=1/4 and x=1/2 machines at
        # their distinguished cutpoints: both values are 1/2 there, which is
        # below 4/7 but above 2/5
        w = separate(
            three_state_pfa(F(1, 4)),
            CutpointSpec(F(4, 7)),
            three_state_pfa(F(1, 2)),
            CutpointSpec(F(2, 5)),
            100,
        )
        assert w.m == 4
        assert w.value_a == F(1, 2) and w.value_b == F(1, 2)
        assert not w.member_a and w.member_b

    def test_symmetry_up_to_swapped_flags(self):
        a = three_state_pfa(F(1, 4))
        b = three_state_pfa(F(1, 2))
        ca, cb = CutpointSpec(F(4, 7)), CutpointSpec(F(2, 5))
        w1 = separate(a, ca, b, cb, 100)
        w2 = separate(b, cb, a, ca, 100)
        assert w1.m == w2.m
        assert (w1.member_a, w1.member_b) == (w2.member_b, w2.member_a)

    def test_non_unary_rejected(self):
        aut = Gfa(
            1,
            ("a", "b"),
            {"a": Matrix([[1]]), "b": Matrix([[1]])},
            Matrix.column([F(1)]),
            Matrix.row([F(1)]),
        )
        with pytest.raises(ValueError):
            separate(aut, CutpointSpec(F(0)), aut, CutpointSpec(F(1)), 5)

    def test_witness_invariant(self):
        with pytest.raises(ValueError):
            SeparationWitness(3, F(1), F(1), True, True)


class TestThreeStateSeparation:
    def test_fixed_pair(self):
        res = three_state_separation(F(1, 4), F(1, 2))
        assert res.candidate == 12
        assert res.witness.m == 12
        assert not res.witness.member_a and res.witness.member_b

    def test_equal_parameters_rejected(self):
        with pytest.raises(ValueError):
            three_state_separation(F(1, 4), F(1, 4))
        with pytest.raises(ValueError):
            three_state_separation(F(1, 2), F(1, 4))

    def test_random_pairs_always_verified(self):
        rng = random.Random(5150)
        for _ in range(10):
            a, b = sorted(rng.sample(range(1, 13), 2))
            res = three_state_separation(F(a, 24), F(b, 24))
            assert res.witness.m in (res.candidate, res.candidate + 1)
            assert res.witness.member_a != res.witness.member_b


class TestAperiodicity:
    def test_rotation_is_aperiodic(self):
        assert aperiodicity_check(rotation_automaton(PythTriple(2, 1)), 500)

    def test_identity_machine_repeats_immediately(self):
        aut = Gfa(
            2,
            ("a",),
            {"a": Matrix([[1, 0], [0, 1]])},
            basis_state(2, 1),
            basis_state(2, 1).transpose(),
        )
        assert not aperiodicity_check(aut, 1)

    def test_quarter_turn_repeats_with_period_four(self):
        aut = Gfa(
            2,
            ("a",),
            {"a": Matrix([[F(0), F(-1)], [F(1), F(0)]])},
            basis_state(2, 1),
            basis_state(2, 1).transpose(),
        )
        assert not aperiodicity_check(aut, 8)

    def test_approximate_machines_rejected(self):
        with pytest.raises(ValueError):
            aperiodicity_check(modn_mcqfa(4), 10)


class TestDensity:
    def test_single_bin_hits_at_zero(self):
        report = density_report(PythTriple(2, 1), 1, 10)
        assert report.first_hit == (0,)
        assert report.all_hit

    def test_four_bins_all_hit_quickly(self):
        report = density_report(PythTriple(2, 1), 4, 100)
        assert report.all_hit
        assert report.first_hit[3] == 0  # cos(0) = 1 lands in the top bin

    def test_first_hits_are_exact_bin_members(self):
        report = density_report(PythTriple(2, 1), 10, 1000)
        from cutpoint.constructions import rotation_cosines
        import itertools

        values = list(itertools.islice(rotation_cosines(PythTriple(2, 1)), 1001))
        for i, k in enumerate(report.first_hit):
            assert k is not None
            lo = F(-1) + F(2 * i, 10)
            hi = lo + F(2, 10)
            v = values[k]
            assert lo <= v and (v < hi or (i == 9 and v <= hi))
            # and no earlier index lands in the bin
            for j in range(k):
                vj = values[j]
                assert not (lo <= vj and (vj < hi or (i == 9 and vj <= hi)))

    def test_misses_reported(self):
        report = density_report(PythTriple(2, 1), 100, 3)
        assert len(report.misses) == 96  # only k = 0..3 scanned
        assert not report.all_hit

    def test_width(self):
        assert density_report(PythTriple(2, 1), 8, 1).width == F(1, 4)
