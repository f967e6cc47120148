"""Cutpoint semantics and language descriptors.

A cutpoint turns an automaton into a language: the words whose accepting
value is above the cutpoint (strict), equal to it (inclusive), or different
from it (exclusive).  The descriptors here name the Parikh-closed languages a
one-state generalized automaton can recognize: a *solution* component (a
linear inequality or equation on letter counts, kept as exact rational bases
whose power product is never formed: the exact sign test
:class:`exactmath.PowerSign` compares it with the threshold through
logarithms with an error bound and an exact tie test), a *parity* component
on a subset of letters, and an *indicator* component (words containing at
least one letter from a set).

``UnaryName`` enumerates the regular languages over a one-letter alphabet
that two-state probabilistic automata can recognize with a strict cutpoint.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from functools import cached_property
from fractions import Fraction
from typing import Optional, Union

from .automata import Automaton, Gfa, Pfa, unary_values
from .exactmath import (
    GaussianRational,
    PowerSign,
    _exponent_ratio,
    exponent_vectors,
    record,
    scalar_kind,
)

#: default tolerance for inclusive/exclusive comparison of binary64 values
VALUE_TOL = 1e-9

STRICT = "strict"
INCLUSIVE = "inclusive"
EXCLUSIVE = "exclusive"


@record
class CutpointSpec:
    """A cutpoint value together with the comparison mode.  The value is an
    ``int`` (kept as a ``Fraction``), a ``Fraction`` or a finite ``float``."""

    value: Union[Fraction, float]
    mode: str = STRICT

    def __post_init__(self):
        if self.mode not in (STRICT, INCLUSIVE, EXCLUSIVE):
            raise ValueError(f"unknown cutpoint mode {self.mode!r}")
        value = self.value
        if isinstance(value, bool) or not isinstance(value, (int, Fraction, float)):
            kind = type(value).__name__
            raise TypeError(f"cutpoint must be an int, Fraction or float, not {kind}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"cutpoint must be finite, got {value}")
        if isinstance(value, int):
            object.__setattr__(self, "value", Fraction(value))


def cut_member(v, cp: CutpointSpec, eps: float = VALUE_TOL) -> bool:
    """Membership of a value relative to a cutpoint.

    Exact scalars compare exactly.  Approximate scalars use a strict
    comparison in strict mode and the tolerance ``eps`` for the inclusive and
    exclusive modes.
    """
    if isinstance(v, (complex, GaussianRational)):
        raise ValueError("cutpoint comparison needs a real value")
    exact = scalar_kind(v) == "rational" and scalar_kind(cp.value) == "rational"
    if cp.mode == STRICT:
        return v > cp.value
    equal = v == cp.value if exact else abs(v - cp.value) <= eps
    return equal if cp.mode == INCLUSIVE else not equal


def check_cutpoint_range(aut: Automaton, cp: CutpointSpec) -> None:
    """Enforce the admissible cutpoint range: probabilistic and quantum models
    need value in [0, 1) for strict mode and [0, 1] otherwise; generalized
    automata are unrestricted."""
    if isinstance(aut, Gfa) and not isinstance(aut, Pfa):
        return
    hi_ok = cp.value <= 1 if cp.mode != STRICT else cp.value < 1
    if cp.value < 0 or not hi_ok:
        bound = "[0, 1)" if cp.mode == STRICT else "[0, 1]"
        raise ValueError(f"cutpoint {cp.value} outside {bound} for this model")


def enum_unary(aut: Automaton, cp: CutpointSpec, limit: int, eps: float = VALUE_TOL) -> str:
    """Membership bits of a^0 .. a^limit as a string of '0'/'1'."""
    check_cutpoint_range(aut, cp)
    return "".join(
        "1" if cut_member(v, cp, eps) else "0" for v in unary_values(aut, limit)
    )


# Parikh vectors

def _check_count(letter, n) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"count {n!r} of letter {letter!r} is not a nonnegative integer")


@record
class ParikhVector:
    alphabet: tuple
    counts: tuple

    def __post_init__(self):
        if len(self.alphabet) != len(self.counts):
            raise ValueError("alphabet and counts length mismatch")
        for a, n in zip(self.alphabet, self.counts):
            _check_count(a, n)

    def count(self, letter) -> int:
        return self.counts[self.alphabet.index(letter)]


def parikh(word, alphabet=None) -> ParikhVector:
    """Letter-occurrence counts of a word; the alphabet defaults to the sorted
    letters occurring in the word."""
    if not isinstance(word, (str, list, tuple, Mapping)):
        word = tuple(word)
    alphabet = tuple(sorted(set(word)) if alphabet is None else alphabet)
    memo = _ClassMemo(alphabet)
    counts = dict(zip(memo.letters, memo.counts(word)))
    return ParikhVector(alphabet, tuple(counts[a] for a in alphabet))


#: Parikh classes whose verdicts one machine or descriptor keeps; past the cap
#: a new class is decided on every call
_MEMO_CAP = 4096


def _char_counter(letters: tuple):
    """The counts of ``letters``, each one character, in a ``str`` word: one
    ``str.count`` per letter, spelled out for two to four letters because a
    tuple display is faster than ``tuple(map(...))``."""
    if len(letters) == 2:
        a, b = letters
        return lambda w: (w.count(a), w.count(b))
    if len(letters) == 3:
        a, b, c = letters
        return lambda w: (w.count(a), w.count(b), w.count(c))
    if len(letters) == 4:
        a, b, c, d = letters
        return lambda w: (w.count(a), w.count(b), w.count(c), w.count(d))
    return lambda w: tuple(map(w.count, letters))


class _ClassMemo:
    """Membership decided once per Parikh class.

    The languages of one-state machines are Parikh-closed, so a verdict is a
    function of the letter counts alone: a word is reduced to the tuple of its
    counts in alphabet order, and that tuple keys the stored verdicts.  Each
    machine or descriptor builds its memo lazily; the memo is not a field, so
    equality, hashing and results are unchanged, and concurrent callers can
    at worst decide one class twice or store a few verdicts past the cap.
    """

    __slots__ = ("alphabet", "letters", "known", "count_chars", "verdicts")

    def __init__(self, alphabet: tuple):
        self.alphabet = alphabet
        self.letters = tuple(dict.fromkeys(alphabet))
        self.known = frozenset(self.letters)
        # a string word is a sequence of characters, so str.count counts the
        # letters exactly when each is one character
        by_char = all(isinstance(a, str) and len(a) == 1 for a in self.letters)
        self.count_chars = _char_counter(self.letters) if by_char else None
        self.verdicts = {}

    def counts(self, word) -> tuple:
        """Occurrences of each letter in ``word``, a word or a mapping of
        letter counts read as ``Counter(word)`` reads it; letters outside the
        alphabet are an error, even with count 0 in a mapping, and so is a
        count that is not a nonnegative ``int``."""
        if isinstance(word, Counter):
            self._check_counts(word)
            return tuple(word[a] for a in self.letters)
        by_char = self.count_chars is not None and isinstance(word, str)
        if not (by_char or isinstance(word, (list, tuple))):
            return self.counts(Counter(word) if isinstance(word, Mapping) else tuple(word))
        counts = tuple(map(word.count, self.letters))
        if sum(counts) != len(word):
            self._outside(word)
        return counts

    def _check_counts(self, counter: Counter) -> None:
        if not self.known.issuperset(counter):
            self._outside(counter)
        for a, n in counter.items():
            _check_count(a, n)

    def _outside(self, letters):
        unknown = set(letters) - self.known
        raise ValueError(f"letters {sorted(unknown)} outside alphabet {self.alphabet}")

    def member(self, owner, word, decide) -> bool:
        """``decide(owner, counts)`` on the class of ``word``, looked up
        first among the stored verdicts.  A ``str`` word over one-character
        letters is counted directly, one ``str.count`` per letter; a
        ``Counter`` is already a class and is decided directly."""
        if type(word) is str and self.count_chars is not None:
            key = self.count_chars(word)
            if sum(key) != len(word):
                self._outside(word)
        elif isinstance(word, Counter):
            self._check_counts(word)
            return decide(owner, word)
        else:
            key = self.counts(word)
        verdicts = self.verdicts
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = decide(owner, dict(zip(self.letters, key)))
            if len(verdicts) < _MEMO_CAP:
                verdicts[key] = verdict
        return verdict


# descriptors

LESS = "<"
EQUALS = "="


@record
class SolutionDescriptor:
    """A linear condition on letter counts.

    In exact mode each coefficient is stored as a positive rational base
    ``c`` standing for the coefficient ``log c``, and the threshold as a
    positive rational ``tau`` standing for ``log tau`` (``math.inf`` means an
    unbounded threshold).  Membership is then the sign of
    prod_a c_a^n_a - tau, decided exactly by :class:`exactmath.PowerSign`
    without forming the product.  In approximate mode the coefficients and
    threshold are the binary64 values themselves.
    """

    alphabet: tuple
    coefficients: dict
    threshold: Union[Fraction, float]
    relation: str = LESS
    exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if set(self.coefficients) != set(self.alphabet):
            raise ValueError("coefficients must cover exactly the alphabet")
        if self.relation not in (LESS, EQUALS):
            raise ValueError(f"unknown relation {self.relation!r}")
        unbounded = self.threshold == math.inf
        if unbounded and self.relation == EQUALS:
            raise ValueError("equality relation cannot have an unbounded threshold")
        if self.exact:
            coeffs = {a: Fraction(c) for a, c in self.coefficients.items()}
            if any(c <= 0 for c in coeffs.values()):
                raise ValueError("exact coefficient bases must be positive rationals")
            object.__setattr__(self, "coefficients", coeffs)
            if unbounded:
                object.__setattr__(self, "threshold", math.inf)
            else:
                tau = Fraction(self.threshold)
                if tau <= 0:
                    raise ValueError("exact threshold base must be a positive rational")
                object.__setattr__(self, "threshold", tau)
        else:
            object.__setattr__(
                self, "coefficients", {a: float(c) for a, c in self.coefficients.items()}
            )
            object.__setattr__(
                self, "threshold", math.inf if unbounded else float(self.threshold)
            )

    def member(self, counts: Mapping) -> bool:
        """Solution membership for a word already reduced to letter counts;
        the word must lie in alphabet^*."""
        if any(c not in self.coefficients and n > 0 for c, n in counts.items()):
            return False
        if not self.exact:
            if self.threshold == math.inf:
                return True
            total = sum(b * counts.get(a, 0) for a, b in self.coefficients.items())
            return total < self.threshold if self.relation == LESS else total == self.threshold
        test = self._power_sign
        if test is None:
            return True
        sign = test.sign(counts)
        return sign < 0 if self.relation == LESS else sign == 0

    @cached_property
    def _power_sign(self) -> Optional[PowerSign]:
        """The exact sign test, None for an unbounded threshold."""
        if self.threshold != math.inf:
            return PowerSign(self.coefficients, self.threshold)
        return None


@record
class ParityDescriptor:
    """Words over ``alphabet`` whose number of letters from ``subset`` has the
    given parity bit."""

    alphabet: tuple
    subset: frozenset
    bit: int

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "subset", frozenset(self.subset))
        if not self.subset <= set(self.alphabet):
            raise ValueError("parity subset must lie inside its alphabet")
        if self.bit not in (0, 1):
            raise ValueError("parity bit must be 0 or 1")

    def member(self, counts: Mapping) -> bool:
        if any(c not in self.alphabet and n > 0 for c, n in counts.items()):
            return False
        return sum(counts.get(a, 0) for a in self.subset) % 2 == self.bit


@record
class IndicatorDescriptor:
    """Words over ``sigma`` containing at least one letter from ``subset``."""

    sigma: tuple
    subset: frozenset

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "subset", frozenset(self.subset))
        if not self.subset <= set(self.sigma):
            raise ValueError("indicator subset must lie inside the alphabet")

    def member(self, counts: Mapping) -> bool:
        return any(counts.get(a, 0) > 0 for a in self.subset)


class _ClassVerdicts:
    """A descriptor's memo of verdicts per Parikh class over its ``sigma``,
    built on first use."""

    @cached_property
    def _memo(self) -> _ClassMemo:
        return _ClassMemo(self.sigma)


@record
class LambdaForm(_ClassVerdicts):
    """Solution-and-parity intersection over a sub-alphabet X of sigma."""

    sigma: tuple
    solution: SolutionDescriptor
    parity: ParityDescriptor

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        _check_shared_x(self.solution, self.parity, self.sigma)


@record
class VForm(_ClassVerdicts):
    """Solution-or-parity-or-indicator union; the indicator catches words with
    letters outside X, so the solution threshold must be finite."""

    solution: SolutionDescriptor
    parity: ParityDescriptor
    indicator: IndicatorDescriptor

    def __post_init__(self):
        _check_shared_x(self.solution, self.parity, self.indicator.sigma)
        if self.solution.threshold == math.inf:
            raise ValueError("union form needs a finite solution threshold")
        expected = set(self.indicator.sigma) - set(self.solution.alphabet)
        if set(self.indicator.subset) != expected:
            raise ValueError("indicator subset must be the letters outside X")

    @property
    def sigma(self) -> tuple:
        return self.indicator.sigma


@record
class InclusiveForm(_ClassVerdicts):
    """Equality-solution-and-parity intersection."""

    sigma: tuple
    solution: SolutionDescriptor
    parity: ParityDescriptor

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        if self.solution.relation != EQUALS:
            raise ValueError("inclusive form needs an equality solution component")
        _check_shared_x(self.solution, self.parity, self.sigma)


@record
class IndicatorOnly(_ClassVerdicts):
    indicator: IndicatorDescriptor

    @property
    def sigma(self) -> tuple:
        return self.indicator.sigma


LanguageDescriptor = Union[LambdaForm, VForm, InclusiveForm, IndicatorOnly]


def _check_shared_x(sol: SolutionDescriptor, par: ParityDescriptor, sigma) -> None:
    if tuple(sol.alphabet) != tuple(par.alphabet):
        raise ValueError("solution and parity components must share the sub-alphabet X")
    if not set(sol.alphabet) <= set(sigma):
        raise ValueError("sub-alphabet X must lie inside sigma")


def desc_member(d: LanguageDescriptor, word) -> bool:
    """Membership of a word in the language a descriptor denotes.

    Only letter counts matter, so membership is invariant under permuting the
    word; a ``Counter`` of letter counts is accepted in place of the word.
    Letters outside the descriptor's alphabet are an error.  Each descriptor
    decides each Parikh class once and reuses the verdict.
    """
    if not isinstance(d, _ClassVerdicts):
        raise TypeError(f"not a language descriptor: {type(d).__name__}")
    return d._memo.member(d, word, _descriptor_verdict)


def _descriptor_verdict(d: LanguageDescriptor, counts) -> bool:
    if isinstance(d, VForm):
        return (
            d.indicator.member(counts)
            or d.parity.member(counts)
            or d.solution.member(counts)
        )
    if isinstance(d, IndicatorOnly):
        return d.indicator.member(counts)
    return d.solution.member(counts) and d.parity.member(counts)


# named unary regular languages

@record
class UnaryName:
    """A named regular language over a one-letter alphabet.

    ``kind`` selects the family; ``n`` is the numeric parameter for the
    Less/CoLess/Singleton/Mod families and ``inner`` the wrapped name for
    complements.
    """

    kind: str
    n: Optional[int] = None
    inner: Optional["UnaryName"] = None

    def __post_init__(self):
        if self.kind == "Complement":
            if not isinstance(self.inner, UnaryName) or self.n is not None:
                raise ValueError("complement wraps exactly one inner name")
        elif self.kind not in _MEMBER:
            raise ValueError(f"unknown unary language name {self.kind!r}")
        elif self.kind in _PARAMETRIC:
            floor = 1 if self.kind == "ModN" else 0
            if self.inner is not None or not isinstance(self.n, int) or self.n < floor:
                raise ValueError(f"{self.kind} needs an integer parameter >= {floor}")
        elif self.n is not None or self.inner is not None:
            raise ValueError(f"{self.kind} takes no parameters")

    def __str__(self):
        if self.kind == "Complement":
            return f"Complement({self.inner})"
        if self.n is not None:
            return f"{self.kind}({self.n})"
        return self.kind


#: membership of a^m in each named family with parameter n (None for the
#: families that take none); a complement negates its inner name
_MEMBER = {
    "Empty": lambda m, n: False,
    "All": lambda m, n: True,
    "EpsilonOnly": lambda m, n: m == 0,
    "APlus": lambda m, n: m >= 1,
    "Even": lambda m, n: m % 2 == 0,
    "CoEven": lambda m, n: m % 2 == 1,
    "Less": lambda m, n: m <= n,
    "CoLess": lambda m, n: m > n,
    "LessAndEven": lambda m, n: m <= n and m % 2 == 0,
    "LessAndCoEven": lambda m, n: m <= n and m % 2 == 1,
    "CoLessAndEven": lambda m, n: m > n and m % 2 == 0,
    "CoLessAndCoEven": lambda m, n: m > n and m % 2 == 1,
    "LessOrEven": lambda m, n: m <= n or m % 2 == 0,
    "LessOrCoEven": lambda m, n: m <= n or m % 2 == 1,
    "CoLessOrEven": lambda m, n: m > n or m % 2 == 0,
    "CoLessOrCoEven": lambda m, n: m > n or m % 2 == 1,
    "SingletonLength": lambda m, n: m == n,
    "ModN": lambda m, n: m % n == 0,
}
_PLAIN = {"Empty", "All", "EpsilonOnly", "APlus", "Even", "CoEven"}
_PARAMETRIC = _MEMBER.keys() - _PLAIN

EMPTY = UnaryName("Empty")
ALL = UnaryName("All")
EPSILON_ONLY = UnaryName("EpsilonOnly")
A_PLUS = UnaryName("APlus")
EVEN = UnaryName("Even")
CO_EVEN = UnaryName("CoEven")


def less(n: int) -> UnaryName:
    return UnaryName("Less", n)


def co_less(n: int) -> UnaryName:
    return UnaryName("CoLess", n)


def singleton_length(n: int) -> UnaryName:
    return UnaryName("SingletonLength", n)


def mod_n(n: int) -> UnaryName:
    return UnaryName("ModN", n)


def complement(inner: UnaryName) -> UnaryName:
    return UnaryName("Complement", inner=inner)


def named_member(name: UnaryName, m: int) -> bool:
    """Membership of the word a^m in a named unary regular language."""
    if m < 0:
        raise ValueError("word length must be nonnegative")
    if name.kind == "Complement":
        return not named_member(name.inner, m)
    return _MEMBER[name.kind](m, name.n)


def parse_unary_name(text: str) -> UnaryName:
    """Inverse of str(UnaryName), e.g. 'CoLessAndEven(3)' or 'Complement(Even)'."""
    text = text.strip()
    if "(" not in text:
        if text in _PLAIN:
            return UnaryName(text)
        raise ValueError(f"unknown unary language name {text!r}")
    head, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise ValueError(f"malformed name {text!r}")
    arg = rest[:-1]
    if head == "Complement":
        return complement(parse_unary_name(arg))
    if head in _PARAMETRIC:
        return UnaryName(head, int(arg))
    raise ValueError(f"unknown unary language name {head!r}")


def unary_name_of_descriptor(d: LanguageDescriptor) -> UnaryName:
    """Identify the unary regular language denoted by a descriptor produced
    from a one-state inclusive-cutpoint machine.

    Only descriptors over a one-letter alphabet built from an equality
    solution component (or a bare indicator) are supported.
    """
    if isinstance(d, IndicatorOnly):
        if len(d.sigma) != 1:
            raise ValueError("descriptor is not unary")
        return A_PLUS if d.indicator.subset else EMPTY
    if not isinstance(d, InclusiveForm):
        raise ValueError("expected an inclusive or indicator descriptor")
    if len(d.sigma) != 1:
        raise ValueError("descriptor is not unary")
    letter = d.sigma[0]
    x = d.solution.alphabet
    if not x:
        # only the empty word is over an empty X; it belongs iff both
        # components accept it
        ok = d.solution.threshold == 1 and d.parity.bit == 0
        return singleton_length(0) if ok else EMPTY
    base = d.solution.coefficients[letter]
    tau = d.solution.threshold
    parity_all = not d.parity.subset and d.parity.bit == 0
    parity_none = not d.parity.subset and d.parity.bit == 1
    if parity_none:
        return EMPTY
    if base == 1:
        if tau != 1:
            return EMPTY
        if parity_all:
            return ALL
        return EVEN if d.parity.bit == 0 else CO_EVEN
    n = _exact_log(tau, base)
    if n is None:
        return EMPTY
    if not parity_all and n % 2 != d.parity.bit:
        return EMPTY
    return singleton_length(n)


def _exact_log(tau: Fraction, base: Fraction) -> Optional[int]:
    """The nonnegative integer n with base**n == tau, or None; base != 1.

    Over one coprime base, base**n == tau exactly when the exponent vector
    of tau is n times that of base, so no power is ever formed.
    """
    n = _exponent_ratio(*exponent_vectors([tau, base]))
    if n is None or n.denominator != 1 or n < 0:
        return None
    return int(n)
