"""JSON document formats for automata, descriptors, and one-state machines.

Exactness survives serialization: rational scalars travel as "p/q" strings
(bare integers allowed), binary64 scalars as plain numbers, complex scalars
as two-element [re, im] arrays.  A document declares its scalar kind up
front and entries that do not fit it are rejected rather than coerced.

State indices in documents (initial basis state, accept lists) are 1-based.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .automata import Automaton, Gfa, Mcqfa, Pfa, Qfa, basis_density, basis_state
from .constructions import OneStateGfaSpec
from .exactmath import (
    KIND_COMPLEX_FLOAT,
    KIND_COMPLEX_RATIONAL,
    KIND_FLOAT,
    KIND_RATIONAL,
    GaussianRational,
    Matrix,
)
from .langsem import (
    IndicatorDescriptor,
    IndicatorOnly,
    InclusiveForm,
    LambdaForm,
    LanguageDescriptor,
    ParityDescriptor,
    SolutionDescriptor,
    VForm,
)


class DocumentError(ValueError):
    """Malformed document text or structure (CLI exit code 2)."""


class ValidationFailure(ValueError):
    """A well-formed document describing an invalid machine (CLI exit code 1)."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


MODELS = ("gfa", "pfa", "mcqfa", "qfa")
SCALARS = (KIND_RATIONAL, KIND_FLOAT, KIND_COMPLEX_RATIONAL, KIND_COMPLEX_FLOAT)


def parse_rational(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DocumentError(f"expected an exact rational ('p/q' or integer), got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise DocumentError(f"bad rational {value!r}: {e}") from None


def format_rational(value: Fraction):
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else str(value)


def _parse_scalar(value, kind: str):
    if kind == KIND_RATIONAL:
        return parse_rational(value)
    if kind == KIND_FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DocumentError(f"expected a number, got {value!r}")
        return float(value)
    if kind == KIND_COMPLEX_RATIONAL:
        if isinstance(value, (list, tuple)):
            if len(value) != 2:
                raise DocumentError(f"complex entry must be [re, im], got {value!r}")
            return GaussianRational(parse_rational(value[0]), parse_rational(value[1]))
        return GaussianRational(parse_rational(value), Fraction(0))
    if kind == KIND_COMPLEX_FLOAT:
        if isinstance(value, (list, tuple)):
            if len(value) != 2:
                raise DocumentError(f"complex entry must be [re, im], got {value!r}")
            return complex(_parse_scalar(value[0], KIND_FLOAT), _parse_scalar(value[1], KIND_FLOAT))
        return complex(_parse_scalar(value, KIND_FLOAT), 0.0)
    raise DocumentError(f"unknown scalar kind {kind!r}")


def _format_scalar(value):
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, float):
        return value
    if isinstance(value, GaussianRational):
        return [format_rational(value.re), format_rational(value.im)]
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"cannot serialize scalar {value!r}")


def _parse_matrix(obj, kind: str, what: str) -> Matrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise DocumentError(f"{what} must be a non-empty list of rows")
    try:
        return Matrix([[_parse_scalar(x, kind) for x in row] for row in obj])
    except ValueError as e:
        raise DocumentError(f"{what}: {e}") from None


def _format_matrix(m: Matrix):
    return [[_format_scalar(x) for x in row] for row in m.data]


def parse_automaton(document, validate: bool = True) -> Automaton:
    """Build an automaton from a JSON document (text or already-decoded dict).

    Malformed documents raise DocumentError; structurally sound documents
    describing an invalid machine raise ValidationFailure with the violation
    list, unless ``validate`` is off.
    """
    doc = _load(document)
    model = _field(doc, "model", str)
    if model not in MODELS:
        raise DocumentError(f"unknown model {model!r}; expected one of {MODELS}")
    n = _field(doc, "states", int)
    if n < 1:
        raise DocumentError("states must be positive")
    alphabet = _field(doc, "alphabet", list)
    if not alphabet or not all(isinstance(s, str) and s for s in alphabet):
        raise DocumentError("alphabet must be a list of non-empty strings")
    kind = doc.get("scalar", KIND_RATIONAL)
    if kind not in SCALARS:
        raise DocumentError(f"unknown scalar kind {kind!r}; expected one of {SCALARS}")
    if model in ("gfa", "pfa") and kind not in (KIND_RATIONAL, KIND_FLOAT):
        raise DocumentError(f"model {model!r} uses real scalars, not {kind!r}")
    transitions = _field(doc, "transitions", dict)
    missing = [s for s in alphabet if s not in transitions]
    if missing:
        raise DocumentError(f"missing transitions for symbols {missing}")

    try:
        if model == "qfa":
            aut = _parse_qfa(doc, n, tuple(alphabet), kind)
        elif model == "mcqfa":
            aut = _parse_mcqfa(doc, n, tuple(alphabet), kind)
        else:
            aut = _parse_generalized(doc, n, tuple(alphabet), kind, model)
    except DocumentError:
        raise
    except ValueError as e:
        raise DocumentError(str(e)) from None

    if validate:
        violations = aut.validate()
        if violations:
            raise ValidationFailure(violations)
    return aut


def _load(document) -> dict:
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise DocumentError(f"invalid JSON: {e}") from None
    if not isinstance(document, dict):
        raise DocumentError("document must be a JSON object")
    return document


_REQUIRED = object()


def _field(doc: dict, name: str, typ, default=_REQUIRED):
    if name not in doc:
        if default is _REQUIRED:
            raise DocumentError(f"missing field {name!r}")
        return default
    value = doc[name]
    if not isinstance(value, typ) or (isinstance(value, bool) and typ is not bool):
        raise DocumentError(f"field {name!r} must be of type {typ.__name__}")
    return value


def _letters(doc: dict, name: str, default=_REQUIRED) -> tuple:
    value = _field(doc, name, list, default)
    if not all(isinstance(s, str) for s in value):
        raise DocumentError(f"field {name!r} must be a list of letters (strings)")
    return tuple(value)


def _parse_generalized(doc, n, alphabet, kind, model):
    final = doc.get("final")
    if not isinstance(final, list):
        raise DocumentError("final must be a row vector for generalized models")
    cls = Pfa if model == "pfa" else Gfa
    return cls(
        final=Matrix.row([_parse_scalar(x, kind) for x in final]),
        **_parse_vector_parts(doc, n, alphabet, kind),
    )


def _parse_mcqfa(doc, n, alphabet, kind):
    return Mcqfa(accept_states=_accept_list(doc, n), **_parse_vector_parts(doc, n, alphabet, kind))


def _parse_vector_parts(doc, n, alphabet, kind) -> dict:
    """Constructor fields shared by the models that run a column vector:
    everything but the final part."""
    transitions = {
        s: _parse_matrix(doc["transitions"][s], kind, f"transition {s!r}") for s in alphabet
    }
    initial = doc.get("initial", 1)
    if isinstance(initial, int) and not isinstance(initial, bool):
        if not 1 <= initial <= n:
            raise DocumentError(f"initial basis index {initial} out of range 1..{n}")
        init = _cast_matrix(basis_state(n, initial), kind)
    elif isinstance(initial, list):
        init = Matrix.column([_parse_scalar(x, kind) for x in initial])
    else:
        raise DocumentError("initial must be a basis index or a vector")
    return dict(
        state_count=n,
        alphabet=alphabet,
        transitions=transitions,
        initial=init,
        left_marker=_opt_matrix(doc, "left_marker", kind),
        right_marker=_opt_matrix(doc, "right_marker", kind),
    )


def _cast_matrix(m: Matrix, kind: str) -> Matrix:
    """Recast an exact rational 0/1 matrix into the document's scalar kind."""
    if kind == KIND_RATIONAL:
        return m
    if kind == KIND_FLOAT:
        return m.to_float()
    if kind == KIND_COMPLEX_RATIONAL:
        return Matrix([[GaussianRational(x, Fraction(0)) for x in r] for r in m.data])
    return Matrix([[complex(float(x)) for x in r] for r in m.data])


def _parse_qfa(doc, n, alphabet, kind):
    transitions = {
        s: _parse_kraus(doc["transitions"][s], kind, f"transition {s!r}") for s in alphabet
    }
    initial = doc.get("initial", 1)
    if isinstance(initial, int) and not isinstance(initial, bool):
        if not 1 <= initial <= n:
            raise DocumentError(f"initial basis index {initial} out of range 1..{n}")
        init = _cast_matrix(basis_density(n, initial), kind)
    elif isinstance(initial, list):
        init = _parse_matrix(initial, kind, "initial density matrix")
    else:
        raise DocumentError("initial must be a basis index or a density matrix")
    left = doc.get("left_marker")
    right = doc.get("right_marker")
    return Qfa(
        state_count=n,
        alphabet=alphabet,
        transitions=transitions,
        initial=init,
        accept_states=_accept_list(doc, n),
        left_marker=_parse_kraus(left, kind, "left marker") if left is not None else None,
        right_marker=_parse_kraus(right, kind, "right marker") if right is not None else None,
    )


def _parse_kraus(obj, kind, what) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise DocumentError(f"{what} must be a non-empty list of matrices")
    if not all(isinstance(e, list) and e and isinstance(e[0], list) for e in obj):
        raise DocumentError(f"{what} must be a list of matrices (lists of rows)")
    return tuple(_parse_matrix(e, kind, what) for e in obj)


def _accept_list(doc, n) -> frozenset:
    final = doc.get("final", [])
    if not isinstance(final, list) or not all(
        isinstance(q, int) and not isinstance(q, bool) for q in final
    ):
        raise DocumentError("final must be a list of accept-state indices")
    bad = [q for q in final if not 1 <= q <= n]
    if bad:
        raise DocumentError(f"accept states {bad} out of range 1..{n}")
    return frozenset(final)


def _opt_matrix(doc, name, kind):
    obj = doc.get(name)
    if obj is None:
        return None
    return _parse_matrix(obj, kind, name.replace("_", " "))


def serialize_automaton(aut: Automaton) -> dict:
    """Document form of an automaton; parse_automaton inverts it exactly."""
    if isinstance(aut, Qfa):
        initial = _format_matrix(aut.initial)

        def fmt(elements):
            return [_format_matrix(e) for e in elements]

    else:
        initial = [_format_scalar(x) for x in aut.initial.col_values(0)]
        fmt = _format_matrix
    if isinstance(aut, Gfa):
        model = "pfa" if isinstance(aut, Pfa) else "gfa"
        final = [_format_scalar(x) for x in aut.final.flat()]
    else:
        model = "qfa" if isinstance(aut, Qfa) else "mcqfa"
        final = sorted(aut.accept_states)
    doc = {
        "model": model,
        "states": aut.state_count,
        "alphabet": list(aut.alphabet),
        "scalar": aut.kind,
        "transitions": {s: fmt(op) for s, op in aut.transitions.items()},
        "initial": initial,
        "final": final,
    }
    for name in ("left_marker", "right_marker"):
        if getattr(aut, name) is not None:
            doc[name] = fmt(getattr(aut, name))
    return doc


# language descriptors

def serialize_descriptor(d: LanguageDescriptor) -> dict:
    if isinstance(d, IndicatorOnly):
        return {
            "form": "indicator",
            "alphabet": list(d.sigma),
            "indicator": {"z": sorted(d.indicator.subset)},
        }
    sol = {
        "letters": {
            a: _format_scalar(c) for a, c in sorted(d.solution.coefficients.items())
        },
        "threshold": "inf"
        if d.solution.threshold == math.inf
        else _format_scalar(d.solution.threshold),
        "relation": d.solution.relation,
        "exact": d.solution.exact,
    }
    par = {"x": list(d.parity.alphabet), "y": sorted(d.parity.subset), "i": d.parity.bit}
    if isinstance(d, LambdaForm):
        return {"form": "lambda", "alphabet": list(d.sigma), "solution": sol, "parity": par}
    if isinstance(d, InclusiveForm):
        return {"form": "inclusive", "alphabet": list(d.sigma), "solution": sol, "parity": par}
    if isinstance(d, VForm):
        return {
            "form": "vee",
            "alphabet": list(d.sigma),
            "solution": sol,
            "parity": par,
            "indicator": {"z": sorted(d.indicator.subset)},
        }
    raise TypeError(f"not a language descriptor: {type(d).__name__}")


def parse_descriptor(document) -> LanguageDescriptor:
    doc = _load(document)
    form = _field(doc, "form", str)
    sigma = _letters(doc, "alphabet")
    if form == "indicator":
        z = frozenset(_letters(_field(doc, "indicator", dict), "z", ()))
        try:
            return IndicatorOnly(IndicatorDescriptor(sigma, z))
        except ValueError as e:
            raise DocumentError(str(e)) from None
    sol_doc = _field(doc, "solution", dict)
    par_doc = _field(doc, "parity", dict)
    kind = KIND_RATIONAL if _field(sol_doc, "exact", bool, True) else KIND_FLOAT
    letters = _field(sol_doc, "letters", dict)
    threshold = sol_doc.get("threshold", "inf")
    threshold = math.inf if threshold == "inf" else _parse_scalar(threshold, kind)
    relation = _field(sol_doc, "relation", str, "<")
    x = _letters(par_doc, "x", sorted(letters))
    y = frozenset(_letters(par_doc, "y", ()))
    bit = _field(par_doc, "i", int, 0)
    coeffs = {a: _parse_scalar(c, kind) for a, c in letters.items()}
    try:
        sol = SolutionDescriptor(x, coeffs, threshold, relation, kind == KIND_RATIONAL)
        par = ParityDescriptor(x, y, bit)
        if form == "lambda":
            return LambdaForm(sigma, sol, par)
        if form == "inclusive":
            return InclusiveForm(sigma, sol, par)
        if form == "vee":
            ind = IndicatorDescriptor(sigma, frozenset(sigma) - set(x))
            return VForm(sol, par, ind)
    except ValueError as e:
        raise DocumentError(str(e)) from None
    raise DocumentError(f"unknown descriptor form {form!r}")


# one-state machine specs

def serialize_one_state(spec: OneStateGfaSpec) -> dict:
    return {
        "numbers": {a: format_rational(v) for a, v in sorted(spec.numbers.items())},
        "cutpoint": format_rational(spec.cutpoint),
        "direction": spec.direction,
        "mode": spec.mode,
    }


def parse_one_state(document) -> OneStateGfaSpec:
    doc = _load(document)
    numbers = _field(doc, "numbers", dict)
    try:
        return OneStateGfaSpec(
            {a: parse_rational(v) for a, v in numbers.items()},
            parse_rational(_field_any(doc, "cutpoint")),
            doc.get("direction", "less"),
            doc.get("mode", "strict"),
        )
    except ValueError as e:
        raise DocumentError(str(e)) from None


def _field_any(doc, name):
    if name not in doc:
        raise DocumentError(f"missing field {name!r}")
    return doc[name]
