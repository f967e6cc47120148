import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from cutpoint import exactmath, langsem
from cutpoint.constructions import (
    OneStateGfaSpec,
    PythTriple,
    decompose_one_state,
    modn_mcqfa,
    one_state_accepts,
    rotation_automaton,
    three_state_pfa,
)
from cutpoint.langsem import (
    CutpointSpec,
    IndicatorDescriptor,
    IndicatorOnly,
    InclusiveForm,
    LambdaForm,
    ParikhVector,
    ParityDescriptor,
    SolutionDescriptor,
    VForm,
    cut_member,
    desc_member,
    enum_unary,
    named_member,
    parikh,
    parse_unary_name,
    unary_name_of_descriptor,
)

F = Fraction


class TestCutMember:
    def test_strict(self):
        assert cut_member(F(3, 5), CutpointSpec(F(2, 5)))
        assert not cut_member(F(2, 5), CutpointSpec(F(2, 5)))

    def test_inclusive_exact(self):
        assert cut_member(F(2, 5), CutpointSpec(F(2, 5), "inclusive"))
        assert not cut_member(F(1, 5), CutpointSpec(F(2, 5), "inclusive"))

    def test_exclusive_exact(self):
        assert cut_member(F(1, 5), CutpointSpec(F(2, 5), "exclusive"))
        assert not cut_member(F(2, 5), CutpointSpec(F(2, 5), "exclusive"))

    def test_inclusive_tolerance_for_floats(self):
        assert cut_member(1.0 - 1e-12, CutpointSpec(F(1), "inclusive"))
        assert not cut_member(1.0 - 1e-6, CutpointSpec(F(1), "inclusive"))

    def test_modn_machine_hits_one_at_period(self):
        v = modn_mcqfa(4).value("a" * 4)
        assert cut_member(v, CutpointSpec(F(1), "inclusive"))

    def test_inclusive_exclusive_complement(self):
        rng = random.Random(11)
        for _ in range(200):
            v = F(rng.randint(-8, 8), rng.randint(1, 8))
            lam = F(rng.randint(-8, 8), rng.randint(1, 8))
            inc = cut_member(v, CutpointSpec(lam, "inclusive"))
            exc = cut_member(v, CutpointSpec(lam, "exclusive"))
            assert inc != exc

    def test_complex_value_rejected(self):
        with pytest.raises(ValueError):
            cut_member(1 + 0j, CutpointSpec(F(0)))


class TestCutpointSpecValue:
    @pytest.mark.parametrize(
        "value", ["1/2", True, None, 1 + 0j, exactmath.GaussianRational(1, 0)],
        ids=["str", "bool", "none", "complex", "gaussian"],
    )
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError, match="cutpoint must be an int, Fraction or float"):
            CutpointSpec(value)

    @pytest.mark.parametrize("mode", ["strict", "inclusive", "exclusive"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, value, mode):
        with pytest.raises(ValueError, match="cutpoint must be finite"):
            CutpointSpec(value, mode)

    def test_accepted_values(self):
        assert type(CutpointSpec(2).value) is F and CutpointSpec(2).value == 2
        assert CutpointSpec(F(1, 3)).value == F(1, 3)
        assert CutpointSpec(-0.25).value == -0.25


class TestEnumUnary:
    def test_rotation_high_cutpoint(self):
        aut = rotation_automaton(PythTriple(2, 1))
        assert enum_unary(aut, CutpointSpec(F(9, 10)), 4) == "10000"

    def test_rotation_unreachable_low_cutpoint(self):
        aut = rotation_automaton(PythTriple(2, 1))
        assert enum_unary(aut, CutpointSpec(F(-1)), 4) == "11111"

    def test_three_state_machine(self):
        assert enum_unary(three_state_pfa(F(1, 2)), CutpointSpec(F(2, 5)), 4) == "00101"

    def test_bits_match_recomputed_membership(self):
        aut = three_state_pfa(F(1, 4))
        cp = CutpointSpec(F(4, 7))
        bits = enum_unary(aut, cp, 60)
        for m, bit in enumerate(bits):
            assert (bit == "1") == cut_member(aut.value("a" * m), cp)

    def test_non_unary_rejected(self):
        from cutpoint.automata import Gfa
        from cutpoint.exactmath import Matrix

        aut = Gfa(
            1,
            ("a", "b"),
            {"a": Matrix([[1]]), "b": Matrix([[1]])},
            Matrix.column([F(1)]),
            Matrix.row([F(1)]),
        )
        with pytest.raises(ValueError):
            enum_unary(aut, CutpointSpec(F(0)), 3)

    def test_quantum_channel_machine(self):
        from cutpoint.automata import Qfa
        from cutpoint.exactmath import Matrix

        es = (Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]]))
        aut = Qfa(2, ("a",), {"a": es}, 2, frozenset({1}))
        # value 0 on the empty word, then the channel resets onto the accept
        # state forever
        assert enum_unary(aut, CutpointSpec(F(1, 2)), 5) == "011111"

    def test_pfa_cutpoint_range_enforced(self):
        with pytest.raises(ValueError):
            enum_unary(three_state_pfa(F(1, 2)), CutpointSpec(F(-1)), 3)
        with pytest.raises(ValueError):
            enum_unary(three_state_pfa(F(1, 2)), CutpointSpec(F(1)), 3)
        # inclusive mode allows the endpoint 1
        enum_unary(three_state_pfa(F(1, 2)), CutpointSpec(F(1), "inclusive"), 3)


class TestParikh:
    def test_examples(self):
        assert parikh("abb", "ab").counts == (1, 2)
        assert parikh("", "ab").counts == (0, 0)
        assert parikh("aab", "ab").counts == (2, 1)

    def test_alphabet_inferred(self):
        v = parikh("baa")
        assert v.alphabet == ("a", "b")
        assert v.count("a") == 2

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            parikh("abc", "ab")

    @pytest.mark.parametrize("counts", [(True, 2.5), (-1, 0), (F(1), 0), (0, None)])
    def test_counts_must_be_nonnegative_integers(self, counts):
        with pytest.raises(ValueError, match="is not a nonnegative integer"):
            ParikhVector(("a", "b"), counts)


AB_SPEC = OneStateGfaSpec({"a": F(2), "b": F(1, 2)}, F(1), "less")
#: the three ways a word meets an alphabet, each as a function of the word
COUNTING = {
    "desc_member": lambda w: desc_member(decompose_one_state(AB_SPEC), w),
    "one_state_accepts": lambda w: one_state_accepts(AB_SPEC, w),
    "parikh": lambda w: parikh(w, "ab"),
}


class TestLettersOutsideAlphabet:
    @pytest.mark.parametrize("counting", sorted(COUNTING))
    @pytest.mark.parametrize(
        "word",
        [
            lambda: "abca",
            lambda: list("abca"),
            lambda: tuple("abca"),
            lambda: (a for a in "abca"),
            lambda: Counter({"a": 2, "c": 0}),
        ],
        ids=["str", "list", "tuple", "generator", "counter-zero"],
    )
    def test_exact_message(self, counting, word):
        with pytest.raises(ValueError) as err:
            COUNTING[counting](word())
        assert str(err.value) == "letters ['c'] outside alphabet ('a', 'b')"

    def test_multi_character_letters_follow_counter(self):
        spec = OneStateGfaSpec({"ab": F(2), "c": F(3)}, F(6), mode="inclusive")
        counting = {
            "desc_member": lambda w: desc_member(decompose_one_state(spec), w),
            "one_state_accepts": lambda w: one_state_accepts(spec, w),
            "parikh": lambda w: parikh(w, ("ab", "c")),
        }
        for name, count in counting.items():
            assert count(["ab", "c"]) == count(Counter(["ab", "c"])), name
            # a string is a sequence of characters, as Counter("abc") reads it
            with pytest.raises(ValueError) as err:
                count("abc")
            assert str(err.value) == "letters ['a', 'b'] outside alphabet ('ab', 'c')"
        assert one_state_accepts(spec, ["ab", "c"])
        assert parikh(["ab", "c", "c"], ("ab", "c")).counts == (1, 2)
        # a letter that is a substring of another: "ab" is still the letters
        # a and b, product 2 * 3 = 6, not 2 * 5 * 3
        nested = OneStateGfaSpec({"a": F(2), "ab": F(5), "b": F(3)}, F(6), mode="inclusive")
        assert one_state_accepts(nested, "ab")
        assert desc_member(decompose_one_state(nested), "ab")
        assert parikh("ab", ("a", "ab", "b")).counts == (1, 0, 1)


class TestImpossibleCounts:
    @pytest.mark.parametrize("counting", sorted(COUNTING))
    @pytest.mark.parametrize(
        "counts",
        [Counter(a=-1), {"a": -2}, {"a": 1.5, "b": 0}, Counter(a=F(1))],
        ids=["counter-negative", "dict-negative", "dict-float", "counter-fraction"],
    )
    def test_impossible_counts_rejected(self, counting, counts):
        with pytest.raises(ValueError, match="is not a nonnegative integer"):
            COUNTING[counting](counts)


def _one_of_each_form(sigma="abc"):
    """One descriptor of each form over the letters of ``sigma``, with X its
    first two letters."""
    sigma = tuple(sigma)
    x = sigma[:2]
    sol = SolutionDescriptor(x, dict(zip(x, (F(3, 2), F(2, 5)))), F(7, 3))
    return [
        LambdaForm(sigma, sol, ParityDescriptor(x, frozenset(x[1:]), 0)),
        VForm(
            sol,
            ParityDescriptor(x, frozenset(x[:1]), 1),
            IndicatorDescriptor(sigma, frozenset(sigma[2:])),
        ),
        InclusiveForm(
            sigma,
            SolutionDescriptor(x, dict(zip(x, (F(2), F(1, 2)))), F(1), relation="="),
            ParityDescriptor(x, frozenset(), 0),
        ),
        IndicatorOnly(IndicatorDescriptor(sigma, frozenset(sigma[1:]))),
    ]


def _machines(sigma: str) -> list:
    """A one-state machine and one descriptor of each form over ``sigma``,
    each with its membership function; fresh objects, so fresh memos."""
    numbers = {a: F(k + 2, 3) * (-1) ** k for k, a in enumerate(sigma)}
    spec = OneStateGfaSpec(numbers, F(5, 4), "greater")
    return [(one_state_accepts, spec)] + [(desc_member, d) for d in _one_of_each_form(sigma)]


class _Word(str):
    pass


def _direct(numbers, cut, direction, mode, word) -> bool:
    value = F(1)
    for a in word:
        value *= numbers[a]
    if mode == "inclusive":
        return value == cut
    return value < cut if direction == "less" else value > cut


class TestClassMemo:
    WORDS = ["".join(w) for n in range(9) for w in product("abc", repeat=n)]

    @pytest.fixture
    def sign_tests(self, monkeypatch):
        """The number of PowerSign sign tests run so far."""
        calls = [0]
        sign = exactmath.PowerSign.sign

        def counted(self, counts):
            calls[0] += 1
            return sign(self, counts)

        monkeypatch.setattr(exactmath.PowerSign, "sign", counted)
        return calls

    def test_one_sign_test_per_parikh_class(self, sign_tests):
        assert len(self.WORDS) == 9841
        classes = {tuple(map(w.count, "abc")) for w in self.WORDS}
        assert len(classes) == 165
        for d in _one_of_each_form():
            start = sign_tests[0]
            verdicts = [desc_member(d, w) for w in self.WORDS]
            assert sign_tests[0] - start <= len(classes), type(d).__name__
            assert verdicts == [desc_member(d, Counter(w)) for w in self.WORDS]
        spec = OneStateGfaSpec({"a": F(3, 2), "b": F(-2, 5), "c": F(5)}, F(7, 3))
        start = sign_tests[0]
        for w in self.WORDS:
            one_state_accepts(spec, w)
        assert 0 < sign_tests[0] - start <= len(classes)

    def test_full_memo_still_answers(self, monkeypatch):
        monkeypatch.setattr(langsem, "_MEMO_CAP", 20)
        words = [w for w in self.WORDS if len(w) <= 6]
        spec = OneStateGfaSpec({"a": F(3, 2), "b": F(-2, 5), "c": F(0)}, F(-1, 3), "greater")
        for d in _one_of_each_form() + [decompose_one_state(spec)]:
            for _ in range(2):
                for w in words:
                    assert desc_member(d, w) == desc_member(d, Counter(w)), (d, w)
            assert len(d._memo.verdicts) == 20
        for _ in range(2):
            for w in words:
                assert one_state_accepts(spec, w) == _direct(
                    spec.numbers, spec.cutpoint, spec.direction, spec.mode, w
                )
        assert len(spec._memo.verdicts) == 20

    @pytest.mark.parametrize(
        "numbers, cut, direction, mode",
        [
            ({"a": F(3, 2), "b": F(-2, 5), "c": F(5, 4)}, F(7, 5), "less", "strict"),
            ({"a": F(-3), "b": F(1, 3), "c": F(0)}, F(-1, 2), "greater", "strict"),
            ({"a": F(2), "b": F(-1, 2), "c": F(4)}, F(-2), "less", "inclusive"),
        ],
    )
    def test_mixed_inputs_match_direct_products(self, numbers, cut, direction, mode):
        spec = OneStateGfaSpec(numbers, cut, direction, mode)
        d = decompose_one_state(spec)
        forms = [str, Counter, list]
        for i, w in enumerate(w for w in self.WORDS if len(w) <= 6):
            want = _direct(numbers, cut, direction, mode, w)
            assert one_state_accepts(spec, forms[i % 3](w)) == want, w
            assert desc_member(d, forms[(i + 1) % 3](w)) == want, w

    @pytest.mark.parametrize("sigma", ["a", "ab", "abc", "abcd", "abcde"])
    def test_str_words_agree_with_counter_and_list(self, sigma):
        # two to four letters take a spelled-out count, one and five the
        # generic one; each input form runs on its own objects' memos
        words = ["".join(w) for n in range(6) for w in product(sigma, repeat=n)]
        by_form = {
            form: [[member(m, form(w)) for w in words] for member, m in _machines(sigma)]
            for form in (str, Counter, list, _Word)
        }
        assert by_form[str] == by_form[Counter] == by_form[list] == by_form[_Word]

    @pytest.mark.parametrize("sigma", ["a", "ab", "abc", "abcd", "abcde"])
    def test_str_words_with_outside_letters(self, sigma):
        for member, m in _machines(sigma):
            with pytest.raises(ValueError) as err:
                member(m, sigma[:2] + "x")
            assert str(err.value) == f"letters ['x'] outside alphabet {tuple(sigma)}"

    def test_str_words_bypass_the_general_count(self, monkeypatch):
        def general(self, word):
            raise AssertionError("str word over one-character letters was not counted directly")

        monkeypatch.setattr(langsem._ClassMemo, "counts", general)
        for sigma in ("a", "ab", "abcde"):
            words = ("", sigma, sigma[::-1] * 2)
            for member, m in _machines(sigma):
                assert [member(m, w) for w in words] == [member(m, Counter(w)) for w in words]
        with pytest.raises(AssertionError):
            one_state_accepts(AB_SPEC, _Word("ab"))


def more_bs_than_as():
    x = ("a", "b")
    sol = SolutionDescriptor(x, {"a": F(2), "b": F(1, 2)}, F(1))
    return LambdaForm(x, sol, ParityDescriptor(x, frozenset(), 0))


class TestDescriptors:
    def test_lambda_form_counts_letters(self):
        d = more_bs_than_as()
        assert desc_member(d, "abb")
        assert not desc_member(d, "ab")
        assert not desc_member(d, "aab")
        assert desc_member(d, "b")
        assert not desc_member(d, "")

    def test_inclusive_form_equality_language(self):
        x = ("a", "b")
        sol = SolutionDescriptor(x, {"a": F(2), "b": F(1, 2)}, F(1), relation="=")
        d = InclusiveForm(x, sol, ParityDescriptor(x, frozenset(), 0))
        assert desc_member(d, "ab")
        assert desc_member(d, "")
        assert not desc_member(d, "abb")

    def test_vee_form_catches_outside_letters(self):
        sigma = ("a", "b")
        sol = SolutionDescriptor(("a",), {"a": F(2)}, F(4))
        d = VForm(
            sol,
            ParityDescriptor(("a",), frozenset(), 1),
            IndicatorDescriptor(sigma, frozenset({"b"})),
        )
        assert desc_member(d, "a")  # 2 < 4
        assert not desc_member(d, "aa")  # 4 not < 4, even parity empty, no b
        assert desc_member(d, "aab")  # contains b

    def test_indicator_only(self):
        d = IndicatorOnly(IndicatorDescriptor(("a", "b"), frozenset({"b"})))
        assert desc_member(d, "ab")
        assert not desc_member(d, "aa")
        assert not desc_member(d, "")

    def test_unbounded_threshold_accepts_everything_in_x(self):
        x = ("a",)
        sol = SolutionDescriptor(x, {"a": F(5)}, math.inf)
        d = LambdaForm(x, sol, ParityDescriptor(x, frozenset({"a"}), 1))
        assert [desc_member(d, "a" * m) for m in range(4)] == [False, True, False, True]

    def test_anagram_invariance(self):
        rng = random.Random(808)
        d = more_bs_than_as()
        for _ in range(50):
            word = [rng.choice("ab") for _ in range(rng.randint(0, 10))]
            member = desc_member(d, word)
            for _ in range(5):
                rng.shuffle(word)
                assert desc_member(d, word) == member

    def test_counter_input_matches_word_input(self):
        d = more_bs_than_as()
        for w in ("", "a", "abba", "bbb"):
            assert desc_member(d, Counter(w)) == desc_member(d, w)

    def test_letters_outside_sigma_rejected(self):
        with pytest.raises(ValueError):
            desc_member(more_bs_than_as(), "abc")

    def test_non_descriptor_rejected(self):
        with pytest.raises(TypeError, match="not a language descriptor: object"):
            desc_member(object(), "a")

    def test_equality_with_unbounded_threshold_rejected(self):
        with pytest.raises(ValueError):
            SolutionDescriptor(("a",), {"a": F(2)}, math.inf, relation="=")

    def test_vee_form_needs_finite_threshold(self):
        sol = SolutionDescriptor(("a",), {"a": F(2)}, math.inf)
        with pytest.raises(ValueError):
            VForm(
                sol,
                ParityDescriptor(("a",), frozenset(), 0),
                IndicatorDescriptor(("a", "b"), frozenset({"b"})),
            )

    def test_exact_agrees_with_float_logs_on_clear_margins(self):
        rng = random.Random(4242)
        for _ in range(300):
            letters = ("a", "b", "c")
            coeffs = {a: F(rng.randint(1, 9), rng.randint(1, 9)) for a in letters}
            tau = F(rng.randint(1, 9), rng.randint(1, 9))
            sol = SolutionDescriptor(letters, coeffs, tau)
            counts = Counter(
                {a: rng.randint(0, 6) for a in letters}
            )
            total = sum(math.log(float(coeffs[a])) * counts[a] for a in letters)
            margin = total - math.log(float(tau))
            if abs(margin) > 1e-6:
                assert sol.member(counts) == (margin < 0)

    def test_approx_mode_uses_binary64(self):
        sol = SolutionDescriptor(
            ("a", "b"), {"a": 1.0, "b": -1.0}, 0.0, exact=False
        )
        d = LambdaForm(
            ("a", "b"), sol, ParityDescriptor(("a", "b"), frozenset(), 0)
        )
        assert desc_member(d, "abb")  # 1 - 2 < 0
        assert not desc_member(d, "ab")


class TestNamedLanguages:
    def test_examples(self):
        assert named_member(langsem.UnaryName("LessAndEven", 4), 2)
        assert named_member(langsem.complement(langsem.EVEN), 3)
        assert not named_member(langsem.mod_n(4), 6)

    @pytest.mark.parametrize(
        "name,expected",
        [
            (langsem.EMPTY, []),
            (langsem.ALL, list(range(9))),
            (langsem.EPSILON_ONLY, [0]),
            (langsem.A_PLUS, list(range(1, 9))),
            (langsem.EVEN, [0, 2, 4, 6, 8]),
            (langsem.CO_EVEN, [1, 3, 5, 7]),
            (langsem.less(3), [0, 1, 2, 3]),
            (langsem.co_less(3), [4, 5, 6, 7, 8]),
            (langsem.UnaryName("LessAndEven", 5), [0, 2, 4]),
            (langsem.UnaryName("LessAndCoEven", 5), [1, 3, 5]),
            (langsem.UnaryName("CoLessAndEven", 3), [4, 6, 8]),
            (langsem.UnaryName("CoLessAndCoEven", 3), [5, 7]),
            (langsem.UnaryName("LessOrEven", 3), [0, 1, 2, 3, 4, 6, 8]),
            (langsem.UnaryName("LessOrCoEven", 3), [0, 1, 2, 3, 5, 7]),
            (langsem.UnaryName("CoLessOrEven", 3), [0, 2, 4, 5, 6, 7, 8]),
            (langsem.UnaryName("CoLessOrCoEven", 3), [1, 3, 4, 5, 6, 7, 8]),
            (langsem.singleton_length(2), [2]),
            (langsem.mod_n(3), [0, 3, 6]),
            (langsem.complement(langsem.less(2)), list(range(3, 9))),
        ],
    )
    def test_membership_tables(self, name, expected):
        assert [m for m in range(9) if named_member(name, m)] == expected

    def test_str_and_parse_round_trip(self):
        names = [
            langsem.EMPTY,
            langsem.CO_EVEN,
            langsem.less(7),
            langsem.UnaryName("CoLessOrCoEven", 2),
            langsem.complement(langsem.UnaryName("LessAndEven", 3)),
            langsem.mod_n(5),
        ]
        for name in names:
            assert parse_unary_name(str(name)) == name

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_unary_name("Sometimes(3)")

    def test_constructor_validates_parameters(self):
        with pytest.raises(ValueError):
            langsem.UnaryName("Less")  # missing parameter
        with pytest.raises(ValueError):
            langsem.less(-1)
        with pytest.raises(ValueError):
            langsem.mod_n(0)
        with pytest.raises(ValueError):
            langsem.UnaryName("Even", 2)
        with pytest.raises(ValueError):
            langsem.UnaryName("Sometimes")
        with pytest.raises(ValueError):
            langsem.UnaryName("Complement")


class TestUnaryNameOfDescriptor:
    def test_indicator_cases(self):
        aplus = IndicatorOnly(IndicatorDescriptor(("a",), frozenset({"a"})))
        empty = IndicatorOnly(IndicatorDescriptor(("a",), frozenset()))
        assert unary_name_of_descriptor(aplus) == langsem.A_PLUS
        assert unary_name_of_descriptor(empty) == langsem.EMPTY

    def test_singleton(self):
        x = ("a",)
        sol = SolutionDescriptor(x, {"a": F(2)}, F(8), relation="=")
        d = InclusiveForm(x, sol, ParityDescriptor(x, frozenset(), 0))
        assert unary_name_of_descriptor(d) == langsem.singleton_length(3)

    def test_parity_filter_can_empty_a_singleton(self):
        x = ("a",)
        sol = SolutionDescriptor(x, {"a": F(2)}, F(8), relation="=")
        d = InclusiveForm(x, sol, ParityDescriptor(x, frozenset({"a"}), 0))
        assert unary_name_of_descriptor(d) == langsem.EMPTY

    def test_near_one_base_is_decided_without_powers(self, best_of_three):
        # 2 is no power of 100001/100000, and a power scan would pass 2
        # only after about 69000 products
        spec = OneStateGfaSpec({"a": F(100001, 100000)}, 2, mode="inclusive")
        seconds, name = best_of_three(lambda: unary_name_of_descriptor(decompose_one_state(spec)))
        assert name == langsem.EMPTY
        assert seconds < 0.1

    @pytest.mark.parametrize(
        "base, tau, expected",
        [
            (F(100001, 100000), F(100001, 100000) ** 50, langsem.singleton_length(50)),
            (F(4, 9), F(27, 8), langsem.EMPTY),  # (2/3)^-3: a negative exponent
            (F(4, 9), F(8, 27), langsem.EMPTY),  # (2/3)^3: half an exponent of 4/9
            (F(4, 9), F(16, 81), langsem.singleton_length(2)),
            (F(12), F(72), langsem.EMPTY),  # 72 = 12 * 6
            (F(6), F(1), langsem.singleton_length(0)),
        ],
    )
    def test_exact_log_cases(self, base, tau, expected):
        x = ("a",)
        sol = SolutionDescriptor(x, {"a": base}, tau, relation="=")
        d = InclusiveForm(x, sol, ParityDescriptor(x, frozenset(), 0))
        assert unary_name_of_descriptor(d) == expected

    def test_all_and_parities(self):
        x = ("a",)
        one = SolutionDescriptor(x, {"a": F(1)}, F(1), relation="=")
        assert (
            unary_name_of_descriptor(
                InclusiveForm(x, one, ParityDescriptor(x, frozenset(), 0))
            )
            == langsem.ALL
        )
        assert (
            unary_name_of_descriptor(
                InclusiveForm(x, one, ParityDescriptor(x, frozenset({"a"}), 0))
            )
            == langsem.EVEN
        )
        assert (
            unary_name_of_descriptor(
                InclusiveForm(x, one, ParityDescriptor(x, frozenset({"a"}), 1))
            )
            == langsem.CO_EVEN
        )
