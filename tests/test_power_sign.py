"""The exact sign test of products of rational powers against the exact
product it replaces, on exact ties, near-ties and random questions."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutpoint.constructions import OneStateGfaSpec, one_state_accepts
from cutpoint.exactmath import PowerSign
from cutpoint.langsem import EQUALS, LESS, SolutionDescriptor

F = Fraction
LETTERS = "abc"


def power_product(bases, counts) -> Fraction:
    """The oracle: the exact product of the bases raised to the counts."""
    out = F(1)
    for k, b in bases.items():
        out *= b ** counts.get(k, 0)
    return out


def sign(x) -> int:
    return (x > 0) - (x < 0)


# bases over {2, 3, 5} make many count vectors meet on one product (exact
# ties); (10^k +- 1)/10^k makes products that differ by a factor near 1
smooth = st.builds(
    lambda a, b, c: F(2) ** a * F(3) ** b * F(5) ** c,
    *[st.integers(-3, 3)] * 3,
)
def near_one(digits: int):
    return st.builds(
        lambda k, s: F(10**k + s, 10**k), st.integers(1, digits), st.sampled_from([-1, 1])
    )


@st.composite
def power_questions(draw):
    """Bases, counts and a tau that is the product of the bases at counts
    off by at most one per letter, sometimes nudged by a factor so near 1
    that only many digits of the logarithms tell the sign."""
    bases = {a: draw(smooth | near_one(30)) for a in LETTERS[: draw(st.integers(0, 3))]}
    counts = {a: draw(st.integers(0, 60)) for a in bases}
    shifted = {a: max(0, n + draw(st.integers(-1, 1))) for a, n in counts.items()}
    tau = power_product(bases, shifted)
    if draw(st.booleans()):
        tau *= draw(near_one(60) | smooth)
    return bases, counts, tau


class TestPowerSign:
    @settings(max_examples=300, deadline=None)
    @given(power_questions())
    def test_matches_the_exact_product(self, question):
        bases, counts, tau = question
        want = sign(power_product(bases, counts) - tau)
        assert PowerSign(bases, tau).sign(counts) == want

    @settings(max_examples=200, deadline=None)
    @given(power_questions(), st.sampled_from([LESS, EQUALS]))
    def test_solution_membership(self, question, relation):
        bases, counts, tau = question
        d = SolutionDescriptor(tuple(bases), bases, tau, relation)
        product = power_product(bases, counts)
        want = product < tau if relation == LESS else product == tau
        assert d.member(Counter(counts)) == want

    @settings(max_examples=200, deadline=None)
    @given(
        power_questions(),
        st.data(),
        st.sampled_from(["less", "greater"]),
        st.sampled_from(["strict", "inclusive"]),
    )
    def test_one_state_acceptance(self, question, data, direction, mode):
        bases, counts, tau = question
        numbers = {
            a: data.draw(st.sampled_from([b, -b, F(0)]), label=a) for a, b in bases.items()
        }
        cut = data.draw(st.sampled_from([tau, -tau, F(0)]), label="cutpoint")
        spec = OneStateGfaSpec(numbers, cut, direction, mode)
        product = power_product(numbers, counts)
        if mode == "inclusive":
            want = product == cut
        else:
            want = product < cut if direction == "less" else product > cut
        assert one_state_accepts(spec, Counter(counts)) == want

    def test_ties_by_exponent_vectors(self):
        # (4/9)^x (27/8)^y = 2^(2x - 3y) 3^(3y - 2x) is 3/2 when 2x + 1 = 3y
        test = PowerSign({"a": F(4, 9), "b": F(27, 8)}, F(3, 2))
        assert test.sign({"a": 4, "b": 3}) == 0
        assert test.sign({"a": 4, "b": 2}) == -1
        assert test.sign({"a": 3, "b": 3}) == 1

    def test_near_one_base_needs_decimal_logs(self):
        b = F(10**30 + 1, 10**30)
        test = PowerSign({"a": b}, b**7 * F(10**70 + 1, 10**70))
        assert [test.sign({"a": m}) for m in range(5, 10)] == [-1, -1, -1, 1, 1]

    def test_tie_with_a_high_power_is_fast(self, best_of_three):
        # the exponent vector of tau needs each power of a factor divided
        # out at once, not one gcd split per power
        b = F(100001, 100000)
        tau = b**3000
        seconds, got = best_of_three(lambda: PowerSign({"a": b}, tau).sign({"a": 3000}))
        assert got == 0
        assert seconds < 1

    def test_counts_above_binary64_integers(self):
        n = 2**60 + 1
        test = PowerSign({"a": F(3, 2), "b": F(2, 3)}, F(3, 2))
        assert test.sign({"a": n, "b": n - 1}) == 0
        assert test.sign({"a": n, "b": n}) == -1
        assert test.sign({"a": 10**400}) == 1

    def test_bases_must_be_positive(self):
        with pytest.raises(ValueError):
            PowerSign({"a": F(0)}, F(1))
        with pytest.raises(ValueError):
            PowerSign({"a": F(2)}, F(-1))
