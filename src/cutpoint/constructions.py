"""Concrete automaton families and the complete small-machine classifiers.

The rotation family turns a primitive Pythagorean triple into an exact
rational rotation matrix whose angle is an irrational fraction of pi, so the
accepting-value sequence never repeats.  The three-state probabilistic family
realizes a damped oscillation around an exact rational limit.  The two-state
probabilistic classifier and the one-state decomposition translate machines
into named languages and descriptors, both decided exactly.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Optional, Union

from . import langsem
from .automata import Gfa, Mcqfa, Pfa, basis_state
from .exactmath import Matrix, PowerSign, record, scalar_to_float
from .langsem import (
    EQUALS,
    IndicatorDescriptor,
    IndicatorOnly,
    InclusiveForm,
    LambdaForm,
    LanguageDescriptor,
    ParityDescriptor,
    SolutionDescriptor,
    UnaryName,
    VForm,
)


@record
class PythTriple:
    """Generator pair (m, n) of a primitive Pythagorean triple.

    Primitivity (coprime, opposite parity) guarantees that the rotation by
    theta with cos theta = (m^2 - n^2) / (m^2 + n^2) has theta/pi irrational,
    since the only rational cosines at rational angles are 0, +-1/2, +-1.
    """

    m: int
    n: int

    def __post_init__(self):
        if not (self.m > self.n >= 1):
            raise ValueError("need m > n >= 1")
        if math.gcd(self.m, self.n) != 1 or (self.m - self.n) % 2 == 0:
            raise ValueError(f"({self.m}, {self.n}) does not generate a primitive triple")

    @property
    def legs(self) -> tuple[int, int]:
        return (self.m**2 - self.n**2, 2 * self.m * self.n)

    @property
    def hypotenuse(self) -> int:
        return self.m**2 + self.n**2

    @property
    def cosine(self) -> Fraction:
        return Fraction(self.legs[0], self.hypotenuse)

    @property
    def sine(self) -> Fraction:
        return Fraction(self.legs[1], self.hypotenuse)


def rotation_matrix(t: PythTriple) -> Matrix:
    c, s = t.cosine, t.sine
    return Matrix([[c, -s], [s, c]])


def rotation_automaton(t: PythTriple, model: str = "gfa") -> Union[Gfa, Mcqfa]:
    """Two-state rotation machine on {a}.

    As a generalized automaton the accepting value on a^k is cos(k theta); as
    a measure-once quantum automaton (the same matrix is real unitary) the
    accepting probability is cos^2(k theta).
    """
    r = rotation_matrix(t)
    if model == "gfa":
        return Gfa(
            state_count=2,
            alphabet=("a",),
            transitions={"a": r},
            initial=basis_state(2, 1),
            final=basis_state(2, 1).transpose(),
        )
    if model == "mcqfa":
        return Mcqfa(
            state_count=2,
            alphabet=("a",),
            transitions={"a": r},
            initial=basis_state(2, 1),
            accept_states=frozenset({1}),
        )
    raise ValueError(f"unknown model {model!r}; expected 'gfa' or 'mcqfa'")


def rotation_cosine_pairs(t: PythTriple) -> Iterator[tuple[int, int]]:
    """Yield (numerator, denominator) of cos(k theta) for k = 0, 1, 2, ...

    cos(k theta) = N_k / h^k with the integer recurrence
    N_k = 2 a N_{k-1} - h^2 N_{k-2}, N_0 = 1, N_1 = a, where a / h is the
    cosine of the triple.  N_k stays coprime to h (mod h it equals
    a (2a)^(k-1), and gcd(2a, h) = 1 for a primitive triple since h is odd),
    so the pair is always in lowest terms and no gcd is ever computed.
    """
    a = t.legs[0]
    h = t.hypotenuse
    h2 = h * h
    prev, cur = 1, a
    power = 1
    yield prev, power
    while True:
        power *= h
        yield cur, power
        prev, cur = cur, 2 * a * cur - h2 * prev


def rotation_cosines(t: PythTriple) -> Iterator[Fraction]:
    """Exact cos(k theta) for k = 0, 1, 2, ... via the three-term recurrence."""
    for num, den in rotation_cosine_pairs(t):
        yield Fraction(num, den)


# three-state unary PFA family

def three_state_pfa(x) -> Pfa:
    """The three-state unary PFA with parameter x in (0, 1/2]: a cycle through
    the states with a damped return, final state q3."""
    x = Fraction(x)
    if not 0 < x <= Fraction(1, 2):
        raise ValueError("parameter must lie in (0, 1/2]")
    a = Matrix(
        [
            [Fraction(0), Fraction(0), x],
            [Fraction(1), Fraction(0), x],
            [Fraction(0), Fraction(1), 1 - 2 * x],
        ]
    )
    return Pfa(
        state_count=3,
        alphabet=("a",),
        transitions={"a": a},
        initial=basis_state(3, 1),
        final=basis_state(3, 3).transpose(),
    )


@record
class ThreeStateParams:
    """Closed-form quantities of the three-state family.

    The accepting value on a^m is mean + amplitude * x^(m/2) *
    cos(m * angle + phase).  ``cutpoint`` holds the limit value 1/(3x+1) as
    an exact rational (``mean`` is its binary64 mirror).
    """

    x: Fraction
    cutpoint: Fraction
    mean: float
    amplitude: float
    angle: float
    phase: float


def three_state_params(x) -> ThreeStateParams:
    x = Fraction(x)
    if not 0 < x <= Fraction(1, 2):
        raise ValueError("parameter must lie in (0, 1/2]")
    lam = 1 / (3 * x + 1)
    var = x - x * x
    amplitude = 1.0 / math.sqrt(float((3 * x + 1) * var))
    angle = math.acos(-math.sqrt(float(x)))
    phase = math.acos(-math.sqrt(float(var / (3 * x + 1))))
    return ThreeStateParams(
        x=x,
        cutpoint=lam,
        mean=float(lam),
        amplitude=amplitude,
        angle=angle,
        phase=phase,
    )


def three_state_closed_form(x, m: int) -> float:
    """Binary64 closed form of the accepting value on a^m."""
    p = three_state_params(x)
    return p.mean + p.amplitude * float(p.x) ** (m / 2) * math.cos(m * p.angle + p.phase)


# two-state unary PFA classification

@record
class TwoStatePfaAnalysis:
    """Exact decomposition of a two-state unary PFA's value sequence.

    Away from the degenerate cases the value on a^m is limit + swing * decay^m
    with |decay| < 1; ``language`` names the resulting strict-cutpoint
    language.
    """

    case: str
    x: Fraction
    y: Fraction
    offset: Optional[Fraction]
    limit: Optional[Fraction]
    swing: Optional[Fraction]
    decay: Optional[Fraction]
    language: UnaryName


def analyze_two_state_pfa(p: Pfa, cutpoint) -> TwoStatePfaAnalysis:
    """Name the language a two-state unary PFA recognizes with a strict
    cutpoint, deciding every comparison exactly.

    In the general case the value on a^m is limit + swing * decay^m with
    0 < |decay| < 1, and |swing| |decay|^m falls strictly.  So a^m can lie on
    the other side of the cutpoint from the tail (limit > cutpoint) only for
    m <= K, the largest m with |swing| |decay|^m >= |limit - cutpoint| (> if
    the tail is false, since a value equal to the cutpoint then is no flip).
    Within a parity class the sign of swing * decay^m is fixed, so a class
    that opposes the tail flips exactly on its indices up to K.  The name
    follows from the tail and the last flipped index k0 (even) or k1 (odd):
    All, CoLessOrCoEven(k0+1), CoLessOrEven(k1+1) or CoLess(min+1) for a
    true tail, Empty, LessAndEven(k0), LessAndCoEven(k1) or Less(max) for a
    false one.
    """
    lam = Fraction(cutpoint)
    if p.state_count != 2:
        raise ValueError("classifier needs a two-state machine")
    if len(p.alphabet) != 1:
        raise ValueError("classifier needs a unary alphabet")
    if not p.is_exact:
        raise ValueError("classifier needs exact rational entries")
    issues = p.validate()
    if issues:
        raise ValueError(f"invalid probabilistic machine: {issues[0]}")
    a = p.transitions[p.alphabet[0]]
    v = p.initial_state()
    x, y = a[1, 0], a[0, 1]
    f0 = p.accepting_value(v)
    b0 = f0 > lam

    if x == 0 and y == 0:
        return TwoStatePfaAnalysis(
            "identity", x, y, None, None, None, None, langsem.ALL if b0 else langsem.EMPTY
        )
    if x == 1 and y == 1:
        f1 = p.value(p.alphabet[:1])
        name = {
            (True, True): langsem.ALL,
            (True, False): langsem.EVEN,
            (False, True): langsem.CO_EVEN,
            (False, False): langsem.EMPTY,
        }[(b0, f1 > lam)]
        return TwoStatePfaAnalysis("alternating", x, y, None, None, None, None, name)

    stationary = y / (x + y)
    offset = v[0, 0] - stationary
    # the state after a^m is the stationary vector plus decay^m (offset, -offset)
    limit = p.accepting_value(Matrix.column([stationary, x / (x + y)]))
    swing = p.accepting_value(Matrix.column([offset, -offset]))
    decay = 1 - (x + y)

    tail = limit > lam
    if swing == 0 or decay == 0:
        name = {
            (True, True): langsem.ALL,
            (True, False): langsem.EPSILON_ONLY,
            (False, True): langsem.A_PLUS,
            (False, False): langsem.EMPTY,
        }[(b0, tail)]
        case = "constant" if swing == 0 else "split-at-zero"
        return TwoStatePfaAnalysis(case, x, y, offset, limit, swing, decay, name)

    if limit == lam:
        if decay > 0:
            name = langsem.ALL if swing > 0 else langsem.EMPTY
        else:
            name = langsem.EVEN if swing > 0 else langsem.CO_EVEN
        return TwoStatePfaAnalysis(
            "on-limit", x, y, offset, limit, swing, decay, name
        )

    last = _last_flip(abs(swing), abs(decay), abs(limit - lam), strict=not tail)
    # k[par]: the last index of that parity whose value lies on the far side
    # of the cutpoint from the tail, or None if the class never flips
    k = [None, None]
    for par in (0, 1):
        if last >= par and (swing * decay**par > 0) != tail:
            k[par] = last - (last - par) % 2
    k0, k1 = k
    if tail:
        if k0 is None:
            name = langsem.ALL if k1 is None else UnaryName("CoLessOrEven", k1 + 1)
        elif k1 is None:
            name = UnaryName("CoLessOrCoEven", k0 + 1)
        else:
            name = langsem.co_less(min(k0, k1) + 1)
    elif k0 is None:
        name = langsem.EMPTY if k1 is None else UnaryName("LessAndCoEven", k1)
    elif k1 is None:
        name = UnaryName("LessAndEven", k0)
    else:
        name = langsem.less(max(k0, k1))
    case = "monotone" if decay > 0 else "oscillating"
    return TwoStatePfaAnalysis(case, x, y, offset, limit, swing, decay, name)


def classify_two_state_pfa(p: Pfa, cutpoint) -> UnaryName:
    return analyze_two_state_pfa(p, cutpoint).language


def _last_flip(swing: Fraction, decay: Fraction, gap: Fraction, strict: bool) -> int:
    """The largest m >= 0 with swing * decay^m >= gap (> gap if ``strict``),
    or -1 if there is none; swing, gap > 0 and 0 < decay < 1.

    The condition holds on an initial run of m.  Its end is near
    K = log(gap / swing) / log(decay); exact sign tests of
    decay^m - gap / swing bracket it, galloping outward from that estimate
    and then bisecting.  Binary64 is off by about K 2^-52, so from K = 2^40
    the estimate takes correctly rounded decimal logs, with digits for K and
    for those log(decay) loses when decay is near 1.
    """
    tau = gap / swing
    test = PowerSign({0: decay}, tau)
    least = 1 if strict else 0

    def holds(m: int) -> bool:
        return test.sign({0: m}) >= least

    if not holds(0):
        return -1
    (ln_tau, _), (ln_decay, _) = test.log_tau, test.logs[0]
    if ln_tau > 2**40 * ln_decay:  # K below 2^40; both logs are <= 0
        k = ln_tau / ln_decay
    else:
        # tau <= 1 and |log decay| >= 1 - decay: p digits put K within
        # 10^(2 - p) (1 + K) / |log decay|, and K below log(1 / tau) / (1 - decay)
        near = 1 - decay
        lost = near.denominator.bit_length() - near.numerator.bit_length() + 1
        prec = 40 + 2 * lost // 3 + tau.denominator.bit_length().bit_length()
        with localcontext(Context(prec=prec)):
            ln_tau, ln_decay = ((Decimal(b.numerator) / b.denominator).ln() for b in (tau, decay))
            k = ln_tau / ln_decay
    lo = max(0, int(k))
    hi, step = lo + 1, 1
    while not holds(lo):
        lo, hi, step = max(0, lo - step), lo, 2 * step
    while holds(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


# one-state generalized automata

DIRECTION_LESS = "less"
DIRECTION_GREATER = "greater"


@record
class OneStateGfaSpec:
    """A one-state machine: one transition number per letter, a cutpoint, and
    the acceptance condition (strict directional comparison, or equality for
    the inclusive mode, which ignores the direction)."""

    numbers: dict
    cutpoint: Fraction
    direction: str = DIRECTION_LESS
    mode: str = langsem.STRICT

    def __post_init__(self):
        object.__setattr__(
            self, "numbers", {a: Fraction(v) for a, v in self.numbers.items()}
        )
        object.__setattr__(self, "cutpoint", Fraction(self.cutpoint))
        if self.direction not in (DIRECTION_LESS, DIRECTION_GREATER):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.mode not in (langsem.STRICT, langsem.INCLUSIVE):
            raise ValueError(f"unknown mode {self.mode!r}")

    @cached_property
    def alphabet(self) -> tuple:
        return tuple(sorted(self.numbers))

    @cached_property
    def _memo(self) -> langsem._ClassMemo:
        """Verdicts per Parikh class, built on first use."""
        return langsem._ClassMemo(self.alphabet)

    @cached_property
    def _acceptance(self) -> tuple:
        """The zero letters, the negative letters, the cutpoint's sign and
        the sign test of the magnitudes (None for cutpoint 0)."""
        lam, nums = self.cutpoint, self.numbers
        sign = (lam > 0) - (lam < 0)
        test = PowerSign({a: abs(c) for a, c in nums.items() if c}, abs(lam)) if sign else None
        return [a for a in nums if not nums[a]], [a for a in nums if nums[a] < 0], sign, test


def one_state_accepts(spec: OneStateGfaSpec, word) -> bool:
    """Direct evaluation of the acceptance condition: the product of the
    per-letter numbers raised to the letter counts, compared to the cutpoint
    (with the empty product equal to 1, including 0^0 = 1).  A ``Counter`` of
    letter counts is accepted in place of the word.  Each machine decides
    each Parikh class once and reuses the verdict.

    The product is never formed: a used zero letter makes it 0, the negative
    letters give its sign, and :class:`exactmath.PowerSign` compares its
    magnitude with that of the cutpoint."""
    return spec._memo.member(spec, word, _accepts)


def _accepts(spec: OneStateGfaSpec, counts) -> bool:
    zeros, negatives, cut_sign, magnitude = spec._acceptance
    if any(counts[a] for a in zeros):
        # the product is 0; order is the sign of 0 - cutpoint
        order = -cut_sign
    else:
        sign = -1 if sum(counts[a] for a in negatives) % 2 else 1
        order = sign if sign != cut_sign else sign * magnitude.sign(counts)
    if spec.mode == langsem.INCLUSIVE:
        return order == 0
    return order < 0 if spec.direction == DIRECTION_LESS else order > 0


def decompose_one_state(spec: OneStateGfaSpec) -> LanguageDescriptor:
    """Translate a one-state machine into a language descriptor with the same
    membership on every word.

    X collects the letters with nonzero numbers and Y those with negative
    numbers.  A strict condition whose cutpoint lies on the sign's far side
    becomes an intersection form; otherwise words leaving X^* or with the odd
    parity are accepted outright and a union form results.  The inclusive
    mode yields an equality form, or a bare indicator when the cutpoint is 0.
    """
    sigma = spec.alphabet
    lam = spec.cutpoint
    x_letters = tuple(a for a in sigma if spec.numbers[a] != 0)
    y_letters = frozenset(a for a in x_letters if spec.numbers[a] < 0)
    magnitudes = {a: abs(spec.numbers[a]) for a in x_letters}

    if spec.mode == langsem.INCLUSIVE:
        if lam == 0:
            zeros = frozenset(a for a in sigma if spec.numbers[a] == 0)
            return IndicatorOnly(IndicatorDescriptor(sigma, zeros))
        sol = SolutionDescriptor(x_letters, magnitudes, abs(lam), relation=EQUALS)
        bit = 0 if lam > 0 else 1
        return InclusiveForm(sigma, sol, ParityDescriptor(x_letters, y_letters, bit))

    # "less" favours negative products (odd parity), "greater" positive ones
    bit = 1 if spec.direction == DIRECTION_LESS else 0
    parity = ParityDescriptor(x_letters, y_letters, bit)
    if lam <= 0 if bit else lam >= 0:
        # the cutpoint is on the far side of the accepted sign: words in X^*
        # with the accepted parity whose product exceeds |cutpoint| in size
        sol = SolutionDescriptor(
            x_letters,
            {a: 1 / c for a, c in magnitudes.items()},
            math.inf if lam == 0 else 1 / abs(lam),
        )
        return LambdaForm(sigma, sol, parity)
    sol = SolutionDescriptor(x_letters, magnitudes, abs(lam))
    return VForm(
        sol, parity, IndicatorDescriptor(sigma, frozenset(sigma) - set(x_letters))
    )


def build_one_state(d: LanguageDescriptor) -> OneStateGfaSpec:
    """Inverse of the decomposition: a one-state machine whose acceptance
    condition denotes the descriptor's language.

    Intersection forms invert the solution bases (number magnitudes 1/c with
    cutpoint magnitude 1/tau); union and equality forms keep them; letters in
    Y get the negative sign, letters outside X the number 0.
    """
    if isinstance(d, IndicatorOnly):
        numbers = {
            a: Fraction(0) if a in d.indicator.subset else Fraction(1) for a in d.sigma
        }
        return OneStateGfaSpec(numbers, Fraction(0), mode=langsem.INCLUSIVE)
    if not isinstance(d, (LambdaForm, VForm, InclusiveForm)):
        raise TypeError(f"not a language descriptor: {type(d).__name__}")

    sol = d.solution
    if not sol.exact:
        raise ValueError("building a machine needs exact solution coefficients")
    bit = d.parity.bit
    invert = isinstance(d, LambdaForm)
    numbers = {a: Fraction(0) for a in d.sigma}
    for a, c in sol.coefficients.items():
        magnitude = 1 / c if invert else c
        numbers[a] = -magnitude if a in d.parity.subset else magnitude

    if isinstance(d, InclusiveForm):
        lam = -sol.threshold if bit else sol.threshold
        return OneStateGfaSpec(numbers, lam, mode=langsem.INCLUSIVE)
    if invert:
        magnitude = Fraction(0) if sol.threshold == math.inf else 1 / sol.threshold
        lam = -magnitude if bit else magnitude
    else:
        lam = sol.threshold if bit else -sol.threshold
    return OneStateGfaSpec(numbers, lam, DIRECTION_LESS if bit else DIRECTION_GREATER)


def normalize_one_state(
    numbers,
    initial,
    final,
    cutpoint,
    direction: str = DIRECTION_LESS,
    mode: str = langsem.STRICT,
) -> Union[OneStateGfaSpec, LanguageDescriptor]:
    """Fold nontrivial initial/final weights of a one-state machine into the
    cutpoint: the acceptance condition is unchanged under dividing by
    final * initial, flipping the direction if that factor is negative.

    A zero factor makes the value identically zero; the result is then the
    trivial descriptor (empty language or all words) directly.
    """
    weight = Fraction(initial) * Fraction(final)
    lam = Fraction(cutpoint)
    sigma = tuple(sorted(numbers))
    if weight == 0:
        if mode == langsem.INCLUSIVE:
            everything = lam == 0
        elif direction == DIRECTION_LESS:
            everything = lam > 0
        else:
            everything = lam < 0
        return _trivial_descriptor(sigma, everything)
    lam = lam / weight
    if weight < 0 and mode == langsem.STRICT:
        direction = (
            DIRECTION_GREATER if direction == DIRECTION_LESS else DIRECTION_LESS
        )
    return OneStateGfaSpec(dict(numbers), lam, direction, mode)


def _trivial_descriptor(sigma, everything: bool) -> LanguageDescriptor:
    if not everything:
        return IndicatorOnly(IndicatorDescriptor(sigma, frozenset()))
    sol = SolutionDescriptor((), {}, Fraction(2))
    return VForm(
        sol,
        ParityDescriptor((), frozenset(), 0),
        IndicatorDescriptor(sigma, frozenset(sigma)),
    )


# measure-once quantum constructions

def exclusive_to_zero(mc: Mcqfa, cutpoint) -> Mcqfa:
    """Rebuild an exclusive-cutpoint quantum machine as one with exclusive
    cutpoint 0.

    The new machine runs the conjugate tensor square conj(U) (x) U of each
    step on a state space extended by one flag coordinate, from the initial
    state with the left marker folded in.  Its right end-marker applies the
    old right marker's square 1 (+) conj(R) (x) R, then the Householder
    reflection whose first row r reads the accept diagonal against the old
    cutpoint; its accepting probability is
    (f - cutpoint)^2 / (2 (cutpoint^2 + |accept|)), which is positive exactly
    where f differs from the cutpoint.  Cutpoint 0 already is the target
    form: the machine itself is returned.

    The output is a binary64 machine: the 1/sqrt(2) split and
    c = 1/sqrt(cutpoint^2 + |accept|) are irrational.  Use
    :func:`exclusive_zero_value` for the exact value when the input machine
    is exact.
    """
    lam = Fraction(cutpoint)
    if lam == 0:
        return mc
    if not 0 < lam <= 1:
        raise ValueError("cutpoint must lie in (0, 1]")
    n = mc.state_count
    accept = sorted(mc.accept_states)
    cast = complex if mc.kind in ("complex-rational", "complex-float") else float

    def square(matrix: Matrix) -> list:
        """Binary64 rows of conj(A) (x) A."""
        rows = [[cast(scalar_to_float(v)) for v in row] for row in matrix.data]
        return [[x.conjugate() * y for x in ra for y in rb] for ra in rows for rb in rows]

    def flagged(matrix: Matrix) -> list:
        """Binary64 rows of 1 (+) conj(A) (x) A."""
        return [[cast(1.0)] + [cast(0.0)] * (n * n)] + [[cast(0.0)] + r for r in square(matrix)]

    half = 1 / math.sqrt(2.0)
    initial = Matrix.column([cast(half)] + [half * x for (x,) in square(mc.initial_state())])
    transitions = {s: Matrix(flagged(u)) for s, u in mc.transitions.items()}

    c = 1 / math.sqrt(float(lam * lam + len(accept)))
    # r = (-c lam, c on the diagonal tensor coordinates |q_j> (x) |q_j>
    # shifted by the flag coordinate, 0 elsewhere) is a unit row; the
    # reflection I - 2 w w^T / (w^T w) with w = e_1 - r is symmetric and
    # orthogonal, and its first row is r
    diag = {1 + (j - 1) * (n + 1) for j in accept}
    w = [1 + c * float(lam)] + [-c if i in diag else 0.0 for i in range(1, n * n + 1)]
    t = 2 / sum(x * x for x in w)
    if mc.right_marker is None:
        marker = [[cast(float(i == j) - t * x * y) for j, y in enumerate(w)] for i, x in enumerate(w)]
    else:
        # (I - t w w^T) F = F - t w (w^T F), and w has 1 + |accept| nonzero
        # entries, so the fold costs O(N^2), not a dense O(N^3) product
        f = flagged(mc.right_marker)
        used = [(x, row) for x, row in zip(w, f) if x]
        wf = [sum(x * row[j] for x, row in used) for j in range(len(w))]
        marker = [[a - t * x * b for a, b in zip(row, wf)] for x, row in zip(w, f)]

    return Mcqfa(
        state_count=n * n + 1,
        alphabet=mc.alphabet,
        transitions=transitions,
        initial=initial,
        accept_states=frozenset({1}),
        right_marker=Matrix(marker),
    )


def exclusive_zero_value(mc: Mcqfa, cutpoint, word) -> Fraction:
    """Exact accepting value of the exclusive-to-zero transform: zero exactly
    when the original machine's value equals the cutpoint."""
    lam = Fraction(cutpoint)
    if not mc.is_exact:
        raise ValueError("exact evaluation needs an exact machine")
    f = mc.value(word)
    c_squared = 1 / (lam * lam + len(mc.accept_states))
    return c_squared / 2 * (f - lam) ** 2


def modn_mcqfa(n: int) -> Mcqfa:
    """Two-state quantum machine rotating by pi/n per letter; the accepting
    probability on a^k is cos^2(k pi / n), so the inclusive cutpoint 1 picks
    out exactly the multiples of n."""
    if n < 2:
        raise ValueError("modulus must be at least 2")
    theta = math.pi / n
    u = Matrix(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    return Mcqfa(
        state_count=2,
        alphabet=("a",),
        transitions={"a": u},
        initial=Matrix.column([1.0, 0.0]),
        accept_states=frozenset({1}),
    )
