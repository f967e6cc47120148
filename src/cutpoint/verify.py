"""The desk-scale verification suite.

Each check pairs a construction with an independent oracle (exact matrix
powers against closed forms, classifiers against brute-force enumeration,
built machines against direct simulation) and reports pass/fail with a time
budget.  All randomness is seeded, so a run is deterministic and side-effect
free.  The same checks back the package's acceptance tests and the
``cutpoint verify`` command.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import langsem
from .analysis import (
    ChomskyVerdict,
    aperiodicity_check,
    chomsky_classify,
    decimate,
    density_report,
    separate,
    three_state_separation,
)
from .automata import Pfa, basis_state, unary_values
from .constructions import (
    OneStateGfaSpec,
    PythTriple,
    build_one_state,
    classify_two_state_pfa,
    decompose_one_state,
    exclusive_to_zero,
    exclusive_zero_value,
    modn_mcqfa,
    one_state_accepts,
    rotation_automaton,
    rotation_cosine_pairs,
    rotation_matrix,
    three_state_closed_form,
    three_state_params,
    three_state_pfa,
)
from .exactmath import Matrix, mat_pow
from .langsem import (
    INCLUSIVE,
    CutpointSpec,
    SolutionDescriptor,
    desc_member,
    named_member,
    unary_name_of_descriptor,
)


@dataclass
class CheckResult:
    criterion: str
    suite: str
    budget: float
    ok: bool
    elapsed: float
    detail: str

    @property
    def within_budget(self) -> bool:
        return self.elapsed < self.budget


THREE_STATE_XS = [
    Fraction(1, 10),
    Fraction(1, 5),
    Fraction(1, 4),
    Fraction(3, 10),
    Fraction(2, 5),
    Fraction(1, 2),
]


def check_three_state_initial_values():
    """Exact first three values of every three-state machine are 0, 0, 1."""
    for x in THREE_STATE_XS:
        got = list(unary_values(three_state_pfa(x), 2))
        if got != [0, 0, 1]:
            return False, f"x={x}: values a^0..a^2 are {got}, expected [0, 0, 1]"
    return True, f"0, 0, 1 confirmed exactly for {len(THREE_STATE_XS)} parameters"


def check_three_state_closed_form():
    """Binary64 closed form tracks the exact matrix-power values to 1e-9."""
    worst = 0.0
    for x in THREE_STATE_XS:
        for m, exact in enumerate(unary_values(three_state_pfa(x), 300)):
            diff = abs(three_state_closed_form(x, m) - float(exact))
            worst = max(worst, diff)
            if diff > 1e-9:
                return False, f"x={x}, m={m}: |closed - exact| = {diff:.3e} > 1e-9"
    return True, f"m <= 300, 6 parameters; worst deviation {worst:.3e}"


def check_rotation_recurrence():
    """Three-term cosine recurrence equals matrix-power entry (1,1) exactly.

    The full range compares against iterated integer matrix products over the
    common denominator h^k (the same exact power without per-step
    normalization); repeated-squaring mat_pow is checked at sampled indices.
    """
    sampled = (0, 1, 2, 3, 7, 64, 1000, 9999, 10000)
    for pair in ((2, 1), (3, 2)):
        t = PythTriple(*pair)
        a, b = t.legs
        m11, m12, m21, m22 = 1, 0, 0, 1
        at_sampled = {}
        for k, (num, den) in enumerate(
            itertools.islice(rotation_cosine_pairs(t), 10001)
        ):
            if m11 != num:
                return False, f"triple {pair}, k={k}: recurrence {num} != matrix {m11}"
            if k in sampled:
                at_sampled[k] = Fraction(num, den)
            if k < 10000:
                m11, m12, m21, m22 = (
                    m11 * a + m12 * b,
                    m12 * a - m11 * b,
                    m21 * a + m22 * b,
                    m22 * a - m21 * b,
                )
        r = rotation_matrix(t)
        for k in sampled:
            if mat_pow(r, k)[0, 0] != at_sampled[k]:
                return False, f"triple {pair}: repeated squaring disagrees at k={k}"
    return True, "exact agreement for k <= 10000, triples (2,1) and (3,2)"


def check_rotation_aperiodicity():
    """Rotation values are pairwise distinct over the horizon."""
    aut = rotation_automaton(PythTriple(2, 1))
    if not aperiodicity_check(aut, 2000):
        return False, "a value repeats within k <= 2000"
    return True, "2001 pairwise distinct exact values"


def check_rotation_density():
    """Every one of 100 bins of [-1, 1] is hit by cos(k theta), k <= 50000."""
    report = density_report(PythTriple(2, 1), 100, 50000)
    if not report.all_hit:
        return False, f"bins never hit: {report.misses}"
    latest = max(report.first_hit)
    return True, f"all 100 bins hit; last first-hit at k={latest}"


def check_rotation_separation():
    """Cutpoints 1/10 and 1/5 on the rotation machine separate at m = 12."""
    aut = rotation_automaton(PythTriple(2, 1))
    w = separate(
        aut,
        CutpointSpec(Fraction(1, 10)),
        aut,
        CutpointSpec(Fraction(1, 5)),
        100,
    )
    if w is None:
        return False, "no separation found up to m = 100"
    expected = Fraction(32125393, 244140625)
    if w.m != 12 or w.value_a != expected:
        return False, f"got m={w.m}, value={w.value_a}; expected m=12, value={expected}"
    return True, f"minimal m=12 with exact value {expected}"


def check_three_state_separation():
    """The separation procedure yields exactly verified witnesses."""
    res = three_state_separation(Fraction(1, 4), Fraction(1, 2))
    if res.candidate != 12 or res.witness.m != 12:
        return False, f"expected candidate and witness 12, got {res.candidate}, {res.witness.m}"
    lam1, lam2 = three_state_params(Fraction(1, 4)).cutpoint, three_state_params(
        Fraction(1, 2)
    ).cutpoint
    if (lam1, lam2) != (Fraction(4, 7), Fraction(2, 5)):
        return False, f"distinguished cutpoints are {lam1}, {lam2}"
    if res.witness.member_a or not res.witness.member_b:
        return False, "a^12 should lie in the x=1/2 language only"

    rng = random.Random(20240917)
    done = 0
    while done < 20:
        d1, d2 = rng.randint(2, 10), rng.randint(2, 10)
        x1 = Fraction(rng.randint(1, d1), 2 * d1)
        x2 = Fraction(rng.randint(1, d2), 2 * d2)
        if x1 == x2:
            continue
        x1, x2 = min(x1, x2), max(x1, x2)
        res = three_state_separation(x1, x2)
        if res.witness.m not in (res.candidate, res.candidate + 1):
            return False, (
                f"witness {res.witness.m} not at candidate {res.candidate} "
                f"or its successor (x1={x1}, x2={x2})"
            )
        done += 1
    return True, "fixed pair at m=12; 20 random pairs verified at m or m+1"


def _random_stochastic_column(rng) -> list[Fraction]:
    d = rng.randint(1, 6)
    p = Fraction(rng.randint(0, d), d)
    return [p, 1 - p]


def _random_two_state_pfa(rng) -> Pfa:
    d1, d2 = rng.randint(1, 6), rng.randint(1, 6)
    x = Fraction(rng.randint(0, d1), d1)
    y = Fraction(rng.randint(0, d2), d2)
    a = Matrix([[1 - x, y], [x, 1 - y]])
    with_left = rng.random() < 0.5
    with_right = rng.random() < 0.5
    if rng.random() < 0.5:
        initial = basis_state(2, rng.randint(1, 2))
    else:
        initial = Matrix.column(_random_stochastic_column(rng))
    final = Matrix.row([Fraction(rng.randint(0, 1)), Fraction(rng.randint(0, 1))])

    def marker():
        c1, c2 = _random_stochastic_column(rng), _random_stochastic_column(rng)
        return Matrix([[c1[0], c2[0]], [c1[1], c2[1]]])

    return Pfa(
        state_count=2,
        alphabet=("a",),
        transitions={"a": a},
        initial=initial,
        final=final,
        left_marker=marker() if with_left else None,
        right_marker=marker() if with_right else None,
    )


def check_two_state_classification():
    """The named language agrees with exact evaluation for m <= 200 on 200
    random two-state machines with random cutpoints."""
    rng = random.Random(52771)
    for trial in range(200):
        p = _random_two_state_pfa(rng)
        d = rng.randint(1, 20)
        lam = Fraction(rng.randint(0, d - 1), d)
        name = classify_two_state_pfa(p, lam)
        for m, v in enumerate(unary_values(p, 200)):
            if named_member(name, m) != (v > lam):
                return False, (
                    f"trial {trial}: language {name} wrong at m={m} "
                    f"(value {v}, cutpoint {lam})"
                )
    return True, "200 random machines, all memberships to m=200 agree"


def _all_words(alphabet: str, max_len: int) -> list[Counter]:
    out = []
    for length in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=length):
            out.append(Counter(w))
    return out


def _random_fraction(rng, magnitude: int, max_den: int) -> Fraction:
    d = rng.randint(1, max_den)
    return Fraction(rng.randint(-magnitude * d, magnitude * d), d)


def _random_one_state_spec(rng, letters="abc") -> OneStateGfaSpec:
    numbers = {}
    for a in letters:
        if rng.random() < 0.25:
            numbers[a] = Fraction(0)
        else:
            numbers[a] = _random_fraction(rng, 4, 4)
    lam = _random_fraction(rng, 2, 4)
    direction = rng.choice(["less", "greater"])
    return OneStateGfaSpec(numbers, lam, direction)


def _random_positive_base(rng) -> Fraction:
    if rng.random() < 0.2:
        return Fraction(1)
    return Fraction(rng.randint(1, 8), rng.randint(1, 8))


def _random_descriptor(rng):
    sigma = ("a", "b", "c")
    k = rng.randint(0, 3)
    x = tuple(sorted(rng.sample(sigma, k)))
    y = frozenset(a for a in x if rng.random() < 0.4)
    bit = rng.randint(0, 1)
    coeffs = {a: _random_positive_base(rng) for a in x}
    tau = Fraction(rng.randint(1, 8), rng.randint(1, 8))
    form = rng.choice(["lambda", "vee", "inclusive"])
    if form == "lambda":
        threshold = math.inf if rng.random() < 0.3 else tau
        sol = SolutionDescriptor(x, coeffs, threshold)
        return langsem.LambdaForm(sigma, sol, langsem.ParityDescriptor(x, y, bit))
    if form == "vee":
        sol = SolutionDescriptor(x, coeffs, tau)
        return langsem.VForm(
            sol,
            langsem.ParityDescriptor(x, y, bit),
            langsem.IndicatorDescriptor(sigma, frozenset(sigma) - set(x)),
        )
    sol = SolutionDescriptor(x, coeffs, tau, relation=langsem.EQUALS)
    return langsem.InclusiveForm(sigma, sol, langsem.ParityDescriptor(x, y, bit))


def check_one_state_round_trips():
    """Decomposition matches direct acceptance on every word of length <= 8,
    and building a machine from a descriptor preserves its language."""
    words = _all_words("abc", 8)
    rng = random.Random(90125)
    for trial in range(200):
        spec = _random_one_state_spec(rng)
        d = decompose_one_state(spec)
        for w in words:
            if desc_member(d, w) != one_state_accepts(spec, w):
                return False, f"trial {trial}: decomposition differs on counts {dict(w)}"
    for trial in range(100):
        d = _random_descriptor(rng)
        d2 = decompose_one_state(build_one_state(d))
        for w in words:
            if desc_member(d, w) != desc_member(d2, w):
                return False, (
                    f"round trip {trial}: languages differ on counts {dict(w)}"
                )
    return True, "200 decompositions and 100 build round trips over 9841 words"


def check_one_state_inclusive_unary():
    """A unary one-state machine with an inclusive cutpoint recognizes one of
    the six possible languages, confirmed by enumeration."""
    rng = random.Random(61440)
    allowed = {"Empty", "All", "APlus", "Even", "CoEven", "SingletonLength"}
    seen = set()
    for trial in range(200):
        # bias toward the degenerate numbers and cutpoints that produce the
        # full, a-plus, and parity languages
        number = (
            Fraction(rng.choice([0, 1, -1]))
            if rng.random() < 0.3
            else _random_fraction(rng, 4, 4)
        )
        lam = (
            Fraction(rng.choice([0, 1, -1]))
            if rng.random() < 0.3
            else _random_fraction(rng, 2, 4)
        )
        spec = OneStateGfaSpec({"a": number}, lam, mode=INCLUSIVE)
        name = unary_name_of_descriptor(decompose_one_state(spec))
        if name.kind not in allowed:
            return False, f"trial {trial}: unexpected language {name}"
        seen.add(name.kind)
        for m in range(65):
            if named_member(name, m) != one_state_accepts(spec, "a" * m):
                return False, f"trial {trial}: {name} wrong at length {m}"
    return True, f"200 machines all land in the six languages; kinds seen: {sorted(seen)}"


def check_mcqfa_exclusive_transform():
    """The exclusive-to-zero machine matches its closed form in binary64 and
    its exact value vanishes precisely where the original value equals the
    cutpoint (never, for these cutpoints)."""
    mc = rotation_automaton(PythTriple(2, 1), model="mcqfa")
    exact_values = list(unary_values(mc, 2000))
    for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        built = exclusive_to_zero(mc, lam)
        c_squared = 1 / (lam * lam + 1)
        for k, sim in enumerate(unary_values(built, 100)):
            expected = float(c_squared) / 2 * (float(exact_values[k]) - float(lam)) ** 2
            if abs(sim - expected) > 1e-9:
                return False, (
                    f"lambda={lam}, k={k}: |simulated - formula| = {abs(sim - expected):.3e}"
                )
        for k in (0, 1, 5, 12):
            direct = exclusive_zero_value(mc, lam, "a" * k)
            if direct != c_squared / 2 * (exact_values[k] - lam) ** 2:
                return False, f"lambda={lam}, k={k}: exact value disagrees with formula"
        # the exact transformed value is zero iff the rotation value equals
        # the cutpoint; these values never do
        for k, f in enumerate(exact_values):
            transformed = c_squared / 2 * (f - lam) ** 2
            if (transformed == 0) != (f == lam):
                return False, f"lambda={lam}, k={k}: zero test inconsistent"
            if f == lam:
                return False, f"lambda={lam}: cos^2(k theta) hits the cutpoint at k={k}"
    return True, "3 cutpoints: binary64 within 1e-9 for k <= 100; never zero for k <= 2000"


def check_chomsky_verdicts():
    """Fixed verdicts plus invariance under decimation and power rescaling."""
    fixed = [
        ({"a": Fraction(1, 2), "b": Fraction(2)}, ChomskyVerdict.CONTEXT_FREE_NONREGULAR),
        ({"a": Fraction(2), "b": Fraction(3)}, ChomskyVerdict.REGULAR),
        ({"a": Fraction(2), "b": Fraction(1, 3)}, ChomskyVerdict.NON_CONTEXT_FREE),
    ]
    for coeffs, expected in fixed:
        d = SolutionDescriptor(tuple(sorted(coeffs)), coeffs, Fraction(1))
        got = chomsky_classify(d)
        if got != expected:
            return False, f"bases {coeffs}: got {got}, expected {expected}"

    rng = random.Random(777003)
    smooth = [Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2), Fraction(1, 3),
              Fraction(2, 3), Fraction(3, 2), Fraction(4, 9), Fraction(1)]
    for trial in range(100):
        n_letters = rng.randint(1, 4)
        letters = tuple("abcd"[:n_letters])
        style = rng.random()
        if style < 0.35:
            base = rng.choice([Fraction(2, 3), Fraction(2), Fraction(6)])
            coeffs = {a: base ** rng.randint(-2, 2) for a in letters}
        else:
            coeffs = {a: rng.choice(smooth) for a in letters}
        d = SolutionDescriptor(letters, coeffs, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        verdict = chomsky_classify(d)
        if chomsky_classify(decimate(d)) != verdict:
            return False, f"trial {trial}: decimation changes the verdict"
        q = rng.choice([2, 3])
        rescaled = SolutionDescriptor(
            letters,
            {a: c**q for a, c in d.coefficients.items()},
            d.threshold**q,
        )
        if chomsky_classify(rescaled) != verdict:
            return False, f"trial {trial}: rescaling by power {q} changes the verdict"
    return True, "3 fixed verdicts; 100 random descriptors invariant"


def check_modn_machines():
    """With inclusive cutpoint 1 the mod-n machine accepts exactly the
    multiples of n."""
    cp = CutpointSpec(Fraction(1), INCLUSIVE)
    for n in range(2, 9):
        bits = langsem.enum_unary(modn_mcqfa(n), cp, 100, eps=1e-6)
        expected = "".join("1" if k % n == 0 else "0" for k in range(101))
        if bits != expected:
            return False, f"n={n}: bits differ from multiples of {n}"
    return True, "n = 2..8 accept exactly the multiples of n for k <= 100"


CRITERIA = [
    ("three-state-initial-values", "px", 1.0, check_three_state_initial_values),
    ("three-state-closed-form", "px", 5.0, check_three_state_closed_form),
    ("rotation-recurrence", "rotation", 10.0, check_rotation_recurrence),
    ("rotation-aperiodicity", "rotation", 5.0, check_rotation_aperiodicity),
    ("rotation-density", "rotation", 30.0, check_rotation_density),
    ("rotation-separation", "rotation", 1.0, check_rotation_separation),
    ("three-state-separation", "px", 30.0, check_three_state_separation),
    ("two-state-classification", "px", 60.0, check_two_state_classification),
    ("one-state-round-trips", "onestate", 120.0, check_one_state_round_trips),
    ("one-state-inclusive-unary", "onestate", 10.0, check_one_state_inclusive_unary),
    ("mcqfa-exclusive-transform", "mcqfa", 30.0, check_mcqfa_exclusive_transform),
    ("chomsky-verdicts", "onestate", 5.0, check_chomsky_verdicts),
    ("modn-machines", "mcqfa", 5.0, check_modn_machines),
]

SUITES = ("all", "rotation", "px", "onestate", "mcqfa")


def run_checks(suite: str = "all") -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    return [_run(*entry) for entry in CRITERIA if suite in ("all", entry[1])]


def run_criterion(name: str) -> CheckResult:
    for entry in CRITERIA:
        if entry[0] == name:
            return _run(*entry)
    raise ValueError(f"unknown criterion {name!r}")


def _run(name: str, group: str, budget: float, func) -> CheckResult:
    start = time.perf_counter()
    ok, detail = func()
    return CheckResult(name, group, budget, ok, time.perf_counter() - start, detail)
