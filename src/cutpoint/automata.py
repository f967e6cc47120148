"""The four machine models and their accepting-value semantics.

All four models are one kind of object: a linear representation read
through a cutpoint.  A machine holds an initial object, one linear step per
symbol and a readout that turns the object reached at the end of the word
into its accepting value.  :class:`Automaton` is that core; it holds the
alphabet and shape checks, the scalar kind, the end-markers, word checking,
evaluation and the validation loop.  Each model supplies only its own pieces:

=====  ==================  ===================================  =====================
model  object              step per symbol (validated as)       readout
=====  ==================  ===================================  =====================
Gfa    column vector v     v -> A v (any real matrix)           f v, f a final row
Pfa    column vector v     v -> A v (left stochastic)           f v
Mcqfa  unit vector v       v -> U v (unitary)                   sum of |v_q|^2
Qfa    density matrix rho  rho -> sum_E E rho E^dagger (Kraus)  sum of rho_qq
=====  ==================  ===================================  =====================

The quantum readouts sum over the accept states q.  Optional end-markers are
steps of the same kind: the left marker is applied to the initial object
before the word is read, the right marker to the object reached after it.

Automata are immutable after construction and evaluation is pure, so a single
machine can be evaluated concurrently over many words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exactmath import (
    KIND_COMPLEX_FLOAT,
    KIND_COMPLEX_RATIONAL,
    VALIDATION_TOL,
    Matrix,
    is_exact_kind,
    join_kinds,
    scalar_abs_squared,
    scalar_real,
    validate_matrix,
)


class UnknownSymbolError(ValueError):
    """A word contains a symbol outside the automaton's alphabet."""


class Automaton:
    """The linear-representation core shared by every model.

    A model is a frozen dataclass with the fields ``state_count``,
    ``alphabet``, ``transitions``, ``initial``, its final part,
    ``left_marker`` and ``right_marker``, and supplies:

    - ``_readout(state)``: the accepting value of the object reached
    - ``_check_final()``: construction checks of the final part
    - ``_step(op, state)`` when a step is not ``op @ state``
    - ``_step_kind``: the :func:`validate_matrix` kind every transition and
      marker must pass, or None when any matrix will do
    - ``_density``: the object is an n x n matrix, not an n x 1 column
    - ``_validate_ends(tol)``: violations of the initial object and final part
    """

    _step_kind = None
    _density = False

    def __post_init__(self):
        object.__setattr__(self, "alphabet", _check_alphabet(self.alphabet, self.transitions))
        n = self.state_count
        shape = (n, n) if self._density else (n, 1)
        if self.initial.shape != shape:
            raise ValueError(f"initial state must be {n} x {shape[1]}, got {self.initial.shape}")
        kind = self.initial.kind
        for _, op in self._steps():
            for m in op if isinstance(op, tuple) else (op,):
                if m.shape != (n, n):
                    raise ValueError(f"transition matrices must be {n} x {n}, got {m.shape}")
                kind = join_kinds(kind, m.kind)
        object.__setattr__(self, "_kind", kind)
        self._check_final()

    def _steps(self) -> list:
        """(label, op) for every transition and end-marker."""
        out = [(f"transition {s!r}", op) for s, op in self.transitions.items()]
        if self.left_marker is not None:
            out.append(("left marker", self.left_marker))
        if self.right_marker is not None:
            out.append(("right marker", self.right_marker))
        return out

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def is_exact(self) -> bool:
        return is_exact_kind(self.kind)

    @staticmethod
    def _step(op, state):
        return op @ state

    def initial_state(self):
        """The initial object with the left marker applied."""
        if self.left_marker is None:
            return self.initial
        return self._step(self.left_marker, self.initial)

    def accepting_value(self, state):
        """Accepting value of an object reached after a word: the right
        marker is applied, then the model's readout."""
        if self.right_marker is not None:
            state = self._step(self.right_marker, state)
        return self._readout(state)

    def _check_word(self, word) -> list:
        word = list(word)
        for s in word:
            if s not in self.transitions:
                raise UnknownSymbolError(f"symbol {s!r} not in alphabet {self.alphabet}")
        return word

    def value(self, word):
        state = self.initial_state()
        for s in self._check_word(word):
            state = self._step(self.transitions[s], state)
        return self.accepting_value(state)

    def trace(self, word) -> list[Matrix]:
        states = [self.initial_state()]
        for s in self._check_word(word):
            states.append(self._step(self.transitions[s], states[-1]))
        return states

    def unary_values(self, limit: int):
        """Yield the accepting value on a^m for m = 0..limit."""
        if not is_unary(self):
            raise ValueError(f"automaton is not unary: alphabet {self.alphabet}")
        op = self.transitions[self.alphabet[0]]
        state = self.initial_state()
        for m in range(limit + 1):
            yield self.accepting_value(state)
            if m < limit:
                state = self._step(op, state)

    def validate(self, tol=None) -> list[str]:
        if tol is None:
            tol = 0 if self.is_exact else VALIDATION_TOL
        issues = []
        if self._step_kind is not None:
            for label, op in self._steps():
                issues.extend(f"{label}: {v}" for v in validate_matrix(self._step_kind, op, tol))
        return issues + self._validate_ends(tol)

    def _validate_ends(self, tol) -> list[str]:
        return []


def _check_alphabet(alphabet, transitions):
    alphabet = tuple(alphabet)
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("duplicate symbols in alphabet")
    missing = [s for s in alphabet if s not in transitions]
    if missing:
        raise ValueError(f"missing transitions for symbols {missing}")
    extra = [s for s in transitions if s not in alphabet]
    if extra:
        raise ValueError(f"transitions for symbols outside the alphabet: {extra}")
    return alphabet


def _check_accept_states(aut) -> None:
    """Final-part check of the models that measure a set of accept states."""
    object.__setattr__(aut, "accept_states", frozenset(aut.accept_states))
    if any(not 1 <= q <= aut.state_count for q in aut.accept_states):
        raise ValueError("accept states must be 1-based state indices")


@dataclass(frozen=True)
class Gfa(Automaton):
    """Generalized finite automaton: arbitrary real transition matrices."""

    state_count: int
    alphabet: tuple
    transitions: dict
    initial: Matrix
    final: Matrix
    left_marker: Optional[Matrix] = None
    right_marker: Optional[Matrix] = None

    def _readout(self, v: Matrix):
        return (self.final @ v)[0, 0]

    def _check_final(self):
        n = self.state_count
        if self.final.shape != (1, n):
            raise ValueError(f"final vector must be 1 x {n}, got {self.final.shape}")
        kind = join_kinds(self.kind, self.final.kind)
        if kind in (KIND_COMPLEX_RATIONAL, KIND_COMPLEX_FLOAT):
            raise ValueError("generalized automata use real scalars")
        object.__setattr__(self, "_kind", kind)

    def as_gfa(self) -> "Gfa":
        """Forget any stochasticity constraints; evaluation is unchanged."""
        return Gfa(
            self.state_count,
            self.alphabet,
            dict(self.transitions),
            self.initial,
            self.final,
            self.left_marker,
            self.right_marker,
        )


class Pfa(Gfa):
    """Probabilistic automaton: left-stochastic matrices, stochastic initial
    vector, final vector with entries in [0, 1] (0/1 when there is no right
    marker)."""

    _step_kind = "stochastic"

    def _validate_ends(self, tol) -> list[str]:
        issues = []
        col = [self.initial[i, 0] for i in range(self.state_count)]
        if any(x < -tol for x in col):
            issues.append("initial vector has a negative entry")
        if abs(sum(col) - 1) > tol:
            issues.append(f"initial vector sums to {sum(col)}, not 1")
        frow = [self.final[0, j] for j in range(self.state_count)]
        if self.right_marker is None:
            if any(abs(x) > tol and abs(x - 1) > tol for x in frow):
                issues.append("final vector entries must be 0 or 1 without a right marker")
        elif any(x < -tol or x > 1 + tol for x in frow):
            issues.append("final vector entries must lie in [0, 1]")
        return issues


@dataclass(frozen=True)
class Mcqfa(Automaton):
    """Measure-once quantum automaton: one unitary per symbol, a single
    projective measurement on the accept states at the end of the input.

    ``initial`` may be any unit vector; a machine whose initial state is not a
    basis state is understood as carrying a left end-marker.  ``accept_states``
    holds 1-based state indices.
    """

    state_count: int
    alphabet: tuple
    transitions: dict
    initial: Matrix
    accept_states: frozenset = field(default_factory=frozenset)
    left_marker: Optional[Matrix] = None
    right_marker: Optional[Matrix] = None

    _step_kind = "unitary"
    _check_final = _check_accept_states

    def _readout(self, v: Matrix):
        zero = Fraction(0) if self.is_exact else 0.0
        return sum((scalar_abs_squared(v[q - 1, 0]) for q in sorted(self.accept_states)), zero)

    def _validate_ends(self, tol) -> list[str]:
        norm = sum(scalar_abs_squared(self.initial[i, 0]) for i in range(self.state_count))
        if abs(norm - 1) > tol:
            return [f"initial state has squared norm {norm}, not 1"]
        return []


@dataclass(frozen=True)
class Qfa(Automaton):
    """General quantum automaton: one superoperator (list of operation
    elements) per symbol acting on a density matrix; the accepting value is
    the probability mass on the accept states at the end.  ``initial`` may be
    given as a 1-based basis index.
    """

    state_count: int
    alphabet: tuple
    transitions: dict
    initial: Matrix
    accept_states: frozenset = field(default_factory=frozenset)
    left_marker: Optional[tuple] = None
    right_marker: Optional[tuple] = None

    _step_kind = "kraus-set"
    _density = True
    _check_final = _check_accept_states

    def __post_init__(self):
        object.__setattr__(
            self, "transitions", {s: tuple(es) for s, es in self.transitions.items()}
        )
        for name in ("left_marker", "right_marker"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if isinstance(self.initial, int):
            object.__setattr__(self, "initial", basis_density(self.state_count, self.initial))
        super().__post_init__()

    @staticmethod
    def _step(elements, rho: Matrix) -> Matrix:
        total = None
        for e in elements:
            term = e @ rho @ e.conj_transpose()
            total = term if total is None else total + term
        return total

    def _readout(self, rho: Matrix):
        zero = Fraction(0) if self.is_exact else 0.0
        return sum((scalar_real(rho[q - 1, q - 1]) for q in sorted(self.accept_states)), zero)

    def _validate_ends(self, tol) -> list[str]:
        return [f"initial state: {v}" for v in validate_matrix("density", self.initial, tol)]


def basis_state(n: int, index: int) -> Matrix:
    """Column vector |q_index> (1-based) as an exact rational matrix."""
    if not 1 <= index <= n:
        raise ValueError(f"basis index {index} out of range 1..{n}")
    return Matrix.column([Fraction(1 if i + 1 == index else 0) for i in range(n)])


def basis_density(n: int, index: int) -> Matrix:
    """Density matrix |q_index><q_index| (1-based) as an exact rational matrix."""
    v = basis_state(n, index)
    return v @ v.transpose()


def is_unary(aut: Automaton) -> bool:
    return len(aut.alphabet) == 1


def value(aut: Automaton, word):
    """Accepting value (generalized) or accepting probability of the automaton
    on the word, with end-markers applied when present."""
    return aut.value(word)


def trace_run(aut: Automaton, word) -> list[Matrix]:
    """States after each symbol: a list of length |word| + 1 starting from the
    marker-adjusted initial object."""
    return aut.trace(word)


def validate(aut: Automaton, tol=None) -> list[str]:
    """Model-appropriate structural violations; the default tolerance is 0 for
    exact machines and 1e-12 for binary64 ones."""
    return aut.validate(tol)


def unary_values(aut: Automaton, limit: int):
    """Iterate the accepting value on a^m for m = 0..limit (incremental, one
    step per m)."""
    return aut.unary_values(limit)
