"""Language classification and finite-horizon witnesses.

The uncountability arguments behind the small machines rest on finitary
facts: a separating word length between two cutpoint languages, pairwise
distinct values up to a horizon, a value sequence visiting every subinterval
of [-1, 1].  This module computes those witnesses in exact arithmetic, and
decides the regular / context-free / neither trichotomy for solution
languages from the exponent vectors of their coefficient bases over a
gcd-refined coprime base, with no bound on their size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automata import Automaton, is_unary, unary_values
from .constructions import (
    OneStateGfaSpec,
    PythTriple,
    decompose_one_state,
    rotation_cosine_pairs,
    three_state_params,
    three_state_pfa,
)
from .exactmath import logs_rationally_equivalent, logs_same_sign
from .langsem import (
    STRICT,
    CutpointSpec,
    IndicatorOnly,
    SolutionDescriptor,
    cut_member,
)


class ChomskyVerdict(enum.Enum):
    REGULAR = "Regular"
    CONTEXT_FREE_NONREGULAR = "ContextFreeNonRegular"
    NON_CONTEXT_FREE = "NonContextFree"

    def __str__(self):
        return self.value


def decimate(d: SolutionDescriptor) -> SolutionDescriptor:
    """Drop the letters whose coefficient is zero (base 1 in exact mode);
    the remaining condition is unchanged."""
    if d.exact:
        keep = [a for a in d.alphabet if d.coefficients[a] != 1]
    else:
        keep = [a for a in d.alphabet if d.coefficients[a] != 0.0]
    return SolutionDescriptor(
        tuple(keep),
        {a: d.coefficients[a] for a in keep},
        d.threshold,
        d.relation,
        d.exact,
    )


def chomsky_classify(d: SolutionDescriptor) -> ChomskyVerdict:
    """Place a solution language in the Chomsky hierarchy.

    After decimation the language is regular exactly when the remaining
    coefficients share a sign, and a nonregular one is context-free exactly
    when the coefficients are rationally equivalent; with exact rational
    bases both are decided exactly, the second from exponent vectors over a
    gcd-refined coprime base, with no bound on the size of the numbers.
    Approximate coefficients are rejected: the question is not decidable for
    arbitrary reals.
    """
    if not d.exact:
        raise ValueError("classification needs exact rational coefficient bases")
    bases = list(decimate(d).coefficients.values())
    if logs_same_sign(bases):
        return ChomskyVerdict.REGULAR
    if logs_rationally_equivalent(bases):
        return ChomskyVerdict.CONTEXT_FREE_NONREGULAR
    return ChomskyVerdict.NON_CONTEXT_FREE


def chomsky_classify_gfa(spec: OneStateGfaSpec) -> ChomskyVerdict:
    """Classify the language of a one-state machine with a strict cutpoint by
    applying the solution-language criterion to its decomposition."""
    if spec.mode != STRICT:
        raise ValueError("classification is defined for the strict mode")
    d = decompose_one_state(spec)
    if isinstance(d, IndicatorOnly):
        return ChomskyVerdict.REGULAR
    return chomsky_classify(d.solution)


@dataclass(frozen=True)
class SeparationWitness:
    """A word length on which two cutpoint languages disagree, with both
    accepting values and memberships."""

    m: int
    value_a: object
    value_b: object
    member_a: bool
    member_b: bool

    def __post_init__(self):
        if self.member_a == self.member_b:
            raise ValueError("not a separation: memberships agree")


def separate(
    aut_a: Automaton,
    cp_a: CutpointSpec,
    aut_b: Automaton,
    cp_b: CutpointSpec,
    limit: int,
) -> Optional[SeparationWitness]:
    """The smallest m <= limit with a^m in exactly one of the two cutpoint
    languages, or None if none exists up to the horizon."""
    if not is_unary(aut_a) or not is_unary(aut_b):
        raise ValueError("separation needs unary automata")
    for m, (va, vb) in enumerate(
        zip(unary_values(aut_a, limit), unary_values(aut_b, limit))
    ):
        ma, mb = cut_member(va, cp_a), cut_member(vb, cp_b)
        if ma != mb:
            return SeparationWitness(m, va, vb, ma, mb)
    return None


class SeparationAnomaly(RuntimeError):
    """The guaranteed witness at m or m+1 failed exact verification."""


@dataclass(frozen=True)
class ThreeStateSeparation:
    """Outcome of the three-state separation procedure: the candidate length
    from the angle inequality plus the exactly verified witness."""

    candidate: int
    witness: SeparationWitness


def three_state_separation(x1, x2) -> ThreeStateSeparation:
    """Separate the languages of the three-state machines with parameters
    x1 < x2 at their distinguished cutpoints.

    The candidate length m is the largest with
    m (angle2 - angle1) + phase2 - phase1 <= pi, computed in binary64; a^m or
    a^(m+1) then falls in exactly one language, which is verified by exact
    evaluation (trying m-1 and m+2 as well to absorb rounding of the
    candidate).
    """
    x1, x2 = Fraction(x1), Fraction(x2)
    if not 0 < x1 < x2 <= Fraction(1, 2):
        raise ValueError("need parameters 0 < x1 < x2 <= 1/2")
    p1, p2 = three_state_params(x1), three_state_params(x2)
    dtheta = p2.angle - p1.angle
    dgamma = p2.phase - p1.phase
    candidate = max(math.floor((math.pi - dgamma) / dtheta), 0)

    aut1, aut2 = three_state_pfa(x1), three_state_pfa(x2)
    values1 = list(unary_values(aut1, candidate + 2))
    values2 = list(unary_values(aut2, candidate + 2))

    for m in (candidate, candidate + 1, candidate - 1, candidate + 2):
        if m < 0:
            continue
        in1 = values1[m] > p1.cutpoint
        in2 = values2[m] > p2.cutpoint
        if in1 != in2:
            return ThreeStateSeparation(
                candidate,
                SeparationWitness(m, values1[m], values2[m], in1, in2),
            )
    raise SeparationAnomaly(
        f"no exact witness near candidate {candidate} for parameters {x1}, {x2}"
    )


def aperiodicity_check(aut: Automaton, limit: int) -> bool:
    """True iff the accepting values on a^0 .. a^limit are pairwise distinct.

    Exact machines only: binary64 value collisions would be meaningless this
    close to aperiodicity.
    """
    if not is_unary(aut):
        raise ValueError("aperiodicity check needs a unary automaton")
    if not aut.is_exact:
        raise ValueError("aperiodicity check needs exact scalars")
    seen = set()
    for v in unary_values(aut, limit):
        if v in seen:
            return False
        seen.add(v)
    return True


@dataclass(frozen=True)
class DensityReport:
    """First-hit indices for the rotation value sequence over equal bins
    tiling [-1, 1]; None marks a bin never hit within the horizon."""

    bins: int
    horizon: int
    first_hit: tuple

    @property
    def width(self) -> Fraction:
        return Fraction(2, self.bins)

    @property
    def misses(self) -> tuple:
        return tuple(i for i, hit in enumerate(self.first_hit) if hit is None)

    @property
    def all_hit(self) -> bool:
        return not self.misses


def density_report(t: PythTriple, bins: int, limit: int) -> DensityReport:
    """Scan cos(k theta) for k <= limit and record the first k landing in each
    of ``bins`` equal subintervals of [-1, 1].

    The interval test is exact: with cos(k theta) = N / D the bin index is
    floor((N + D) * bins / (2 D)), pure integer arithmetic.  The scan stops
    early once every bin has been hit.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    first_hit: list[Optional[int]] = [None] * bins
    remaining = bins
    for k, (num, den) in enumerate(rotation_cosine_pairs(t)):
        if k > limit:
            break
        idx = (num + den) * bins // (2 * den)
        if idx == bins:  # the value 1 belongs to the last (closed) bin
            idx -= 1
        if first_hit[idx] is None:
            first_hit[idx] = k
            remaining -= 1
            if remaining == 0:
                break
    return DensityReport(bins, limit, tuple(first_hit))
