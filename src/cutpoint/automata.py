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

Evaluation is fraction-free: every matrix is turned once per call into
integer rows over one common denominator (:func:`exactmath.scaled`; complex
matrices are realified), each step multiplies integers only and multiplies
the object's denominator by the step's, and each readout builds one
``Fraction``.  Binary64 machines run the same code on floats with scale 1.

Automata are immutable after construction and evaluation is pure, so a single
machine can be evaluated concurrently over many words.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .exactmath import (
    KIND_COMPLEX_FLOAT,
    KIND_COMPLEX_RATIONAL,
    KIND_RATIONAL,
    VALIDATION_TOL,
    Matrix,
    ScalarMixError,
    exact_matrix,
    int_matmul,
    is_exact_kind,
    join_kinds,
    one_zero,
    quotient,
    record,
    scaled,
    unscaled,
    validate_matrix,
)


class UnknownSymbolError(ValueError):
    """A word contains a symbol outside the automaton's alphabet."""


class Automaton:
    """The linear-representation core shared by every model.

    A model is a frozen record with the fields ``state_count``,
    ``alphabet``, ``transitions``, ``initial``, its final part,
    ``left_marker`` and ``right_marker``.  ``initial`` may be given as a
    1-based basis index; the basis object is built in the kind of the steps,
    once their shapes are checked.  A model supplies:

    - ``_reader()``: the accepting value as a function of the scaled object
      reached, with the final part converted once
    - ``_check_final()``: construction checks of the final part
    - ``_step(op, state)`` when a step is not ``v -> A v``
    - ``_step_kind``: the :func:`validate_matrix` kind every transition and
      marker must pass, or None when any matrix will do
    - ``_initial_kind``: the :func:`validate_matrix` kind the initial object
      must pass, or None
    - ``_density``: the object is an n x n matrix, not an n x 1 column
    - ``_validate_final(tol)``: violations of the final part, when it has a
      rule of its own

    Steps and readouts work on the scaled form: an object is a pair
    (integer rows, denominator) and a step is a pair (integer matrices,
    denominator) with one matrix per operation element.
    """

    _step_kind = None
    _initial_kind = None
    _density = False

    def __post_init__(self):
        object.__setattr__(self, "alphabet", _check_alphabet(self.alphabet, self.transitions))
        n = self.state_count
        kind = None
        for _, op in self._steps():
            for m in op if isinstance(op, tuple) else (op,):
                if m.shape != (n, n):
                    raise ValueError(f"transition matrices must be {n} x {n}, got {m.shape}")
                kind = m.kind if kind is None else join_kinds(kind, m.kind)
        # the steps fix n before an initial basis object of that size is built
        if isinstance(self.initial, int):
            basis = basis_density if self._density else basis_state
            object.__setattr__(self, "initial", basis(n, self.initial, kind or KIND_RATIONAL))
        shape = (n, n) if self._density else (n, 1)
        if self.initial.shape != shape:
            raise ValueError(f"initial state must be {n} x {shape[1]}, got {self.initial.shape}")
        kind = self.initial.kind if kind is None else join_kinds(kind, self.initial.kind)
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

    # the scaled form

    @property
    def _realify(self) -> bool:
        return self.kind in (KIND_COMPLEX_RATIONAL, KIND_COMPLEX_FLOAT)

    def _scaled_op(self, op):
        """A transition or marker (a matrix or a tuple of operation elements)
        as (integer matrices, d)."""
        return scaled(op if isinstance(op, tuple) else (op,), self._realify)

    def _scaled_state(self, m: Matrix):
        (x,), den = scaled((m,), self._realify)
        # a column's realification is carried by its first column [a; b]
        return (x if self._density else [r[:1] for r in x]), den

    @staticmethod
    def _step(op, state):
        (a,), d = op
        x, den = state
        return int_matmul(a, x), den * d

    def _start(self):
        """The scaled initial object with the left marker applied."""
        state = self._scaled_state(self.initial)
        if self.left_marker is None:
            return state
        return self._step(self._scaled_op(self.left_marker), state)

    def _acceptor(self):
        """Accepting value of a scaled object: the right marker is applied,
        then the model's readout."""
        right = None if self.right_marker is None else self._scaled_op(self.right_marker)
        read = self._reader()

        def accept(state):
            if right is not None:
                state = self._step(right, state)
            return read(*state)

        return accept

    def _states(self, word):
        """Yield the scaled object after each prefix of the word."""
        word = self._check_word(word)
        ops = {s: self._scaled_op(self.transitions[s]) for s in set(word)}
        state = self._start()
        yield state
        for s in word:
            state = self._step(ops[s], state)
            yield state

    def _check_word(self, word) -> list:
        word = list(word)
        for s in word:
            if s not in self.transitions:
                raise UnknownSymbolError(f"symbol {s!r} not in alphabet {self.alphabet}")
        return word

    # evaluation

    def initial_state(self) -> Matrix:
        """The initial object with the left marker applied."""
        return unscaled(*self._start(), self._realify)

    def accepting_value(self, state: Matrix):
        """Accepting value of an object reached after a word: the right
        marker is applied, then the model's readout."""
        if join_kinds(self.kind, state.kind) != self.kind:
            raise ScalarMixError(f"a {state.kind} object on a {self.kind} machine")
        if state.shape != self.initial.shape:
            raise ValueError(f"object must be {self.initial.shape}, got {state.shape}")
        return self._acceptor()(self._scaled_state(state))

    def value(self, word):
        for state in self._states(word):
            pass
        return self._acceptor()(state)

    def trace(self, word) -> list[Matrix]:
        return [unscaled(x, den, self._realify) for x, den in self._states(word)]

    def unary_values(self, limit: int):
        """Yield the accepting value on a^m for m = 0..limit."""
        if not is_unary(self):
            raise ValueError(f"automaton is not unary: alphabet {self.alphabet}")
        if limit < 0:
            return
        accept, op = self._acceptor(), self._scaled_op(self.transitions[self.alphabet[0]])
        state = self._start()
        yield accept(state)
        for _ in range(limit):
            state = self._step(op, state)
            yield accept(state)

    def validate(self, tol=None) -> list[str]:
        if tol is None:
            tol = 0 if self.is_exact else VALIDATION_TOL
        parts = [(label, self._step_kind, op) for label, op in self._steps()]
        parts.append(("initial state", self._initial_kind, self.initial))
        issues = [f"{label}: {v}" for label, kind, part in parts if kind is not None
                  for v in validate_matrix(kind, part, tol)]
        return issues + self._validate_final(tol)

    def _validate_final(self, tol) -> list[str]:
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


@record
class Gfa(Automaton):
    """Generalized finite automaton: arbitrary real transition matrices."""

    state_count: int
    alphabet: tuple
    transitions: dict
    initial: Matrix
    final: Matrix
    left_marker: Optional[Matrix] = None
    right_marker: Optional[Matrix] = None

    def _reader(self):
        (f,), fd = scaled((self.final,))
        return lambda x, den: quotient(int_matmul(f, x)[0][0], den * fd)

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

    _step_kind = _initial_kind = "stochastic"

    def _validate_final(self, tol) -> list[str]:
        tol, frow = Fraction(tol), exact_matrix(self.final).data[0]
        if self.right_marker is None:
            if any(abs(x) > tol and abs(x - 1) > tol for x in frow):
                return ["final vector entries must be 0 or 1 without a right marker"]
        elif any(x < -tol or x > 1 + tol for x in frow):
            return ["final vector entries must lie in [0, 1]"]
        return []


@record
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
    accept_states: frozenset = frozenset()
    left_marker: Optional[Matrix] = None
    right_marker: Optional[Matrix] = None

    _step_kind = "unitary"
    _initial_kind = "kraus-set"  # a unit column v is a one-element set: v^dagger v = 1
    _check_final = _check_accept_states

    def _reader(self):
        # rows q and n + q of a realified column hold Re v_q and Im v_q; one
        # nonzero entry x gives (x/den)^2, whose gcd runs on half the bits
        n, accept = self.state_count, sorted(self.accept_states)

        def read(x, den):
            parts = [r[0] for q in accept for r in x[q - 1::n] if r[0]]
            if len(parts) == 1 and isinstance(den, int):
                return Fraction(parts[0], den) ** 2
            return quotient(sum(v * v for v in parts), den * den)

        return read


@record
class Qfa(Automaton):
    """General quantum automaton: one superoperator (list of operation
    elements) per symbol acting on a density matrix; the accepting value is
    the probability mass on the accept states at the end.
    """

    state_count: int
    alphabet: tuple
    transitions: dict
    initial: Matrix
    accept_states: frozenset = frozenset()
    left_marker: Optional[tuple] = None
    right_marker: Optional[tuple] = None

    _step_kind = "kraus-set"
    _initial_kind = "density"
    _density = True
    _check_final = _check_accept_states

    def __post_init__(self):
        object.__setattr__(
            self, "transitions", {s: tuple(es) for s, es in self.transitions.items()}
        )
        for name in ("left_marker", "right_marker"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        super().__post_init__()

    @staticmethod
    def _step(op, state):
        # rho -> sum_E E rho E^T on realified rows; the denominator gains d^2
        elements, d = op
        x, den = state
        total = None
        for e in elements:
            term = int_matmul(int_matmul(e, x), list(zip(*e)))
            total = term if total is None else [
                [a + b for a, b in zip(r, t)] for r, t in zip(total, term)
            ]
        return total, den * d * d

    def _reader(self):
        # the diagonal of a realified density matrix holds Re rho_qq
        accept = sorted(self.accept_states)
        return lambda x, den: quotient(sum(x[q - 1][q - 1] for q in accept), den)


def basis_state(n: int, index: int, kind: str = KIND_RATIONAL) -> Matrix:
    """Column vector |q_index> (1-based) with entries of the given kind."""
    if not 1 <= index <= n:
        raise ValueError(f"basis index {index} out of range 1..{n}")
    one, zero = one_zero(kind)
    return Matrix.column([one if i + 1 == index else zero for i in range(n)])


def basis_density(n: int, index: int, kind: str = KIND_RATIONAL) -> Matrix:
    """Density matrix |q_index><q_index| (1-based) with entries of the given kind."""
    _, zero = one_zero(kind)
    v = basis_state(n, index, kind).col_values(0)
    return Matrix([[x if i == j else zero for j in range(n)] for i, x in enumerate(v)])


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
