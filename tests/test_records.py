"""The value-record contract every frozen class in the package keeps, and the
import it costs: fields in order, construction by position or keyword,
equality by class and field values, the reprs of the dataclasses they
replaced, immutability, and an ``import cutpoint.cli`` that loads neither
``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import cutpoint
from cutpoint.analysis import SeparationWitness
from cutpoint.automata import Mcqfa, basis_state
from cutpoint.cli import CommandOutcome
from cutpoint.constructions import (
    OneStateGfaSpec,
    PythTriple,
    one_state_accepts,
    rotation_automaton,
    three_state_pfa,
)
from cutpoint.exactmath import Matrix, record
from cutpoint.langsem import CutpointSpec, ParikhVector, ParityDescriptor, UnaryName
from cutpoint.verify import CheckResult


def test_pfa_and_gfa_on_the_same_fields_are_unequal():
    pfa = three_state_pfa(F(1, 3))
    gfa = pfa.as_gfa()
    assert pfa == three_state_pfa(F(1, 3)) and gfa == pfa.as_gfa()
    assert pfa != gfa and gfa != pfa
    assert repr(pfa) == "P" + repr(gfa)[1:]


@pytest.mark.parametrize(
    "make",
    [
        lambda: CutpointSpec(F(1, 2), "inclusive"),
        lambda: PythTriple(4, 1),
        lambda: UnaryName("Complement", inner=UnaryName("ModN", 3)),
        lambda: ParikhVector(("a", "b"), (2, 0)),
        lambda: ParityDescriptor(["a", "b"], {"a"}, 1),
        lambda: SeparationWitness(3, F(1, 2), F(1, 3), True, False),
    ],
)
def test_equal_records_hash_equal(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != object() and not a == "text"


def test_int_and_fraction_cutpoints_are_one_record():
    one = CutpointSpec(1)
    assert one == CutpointSpec(F(1)) and hash(one) == hash(CutpointSpec(F(1)))


@pytest.mark.parametrize(
    "obj",
    [
        CutpointSpec(F(1, 2)),
        rotation_automaton(PythTriple(2, 1)),
        CheckResult("c", "quick", 1.0, True, 0.1, "detail"),
        CommandOutcome(0, "out"),
    ],
    ids=["CutpointSpec", "Gfa", "CheckResult", "CommandOutcome"],
)
def test_records_refuse_assignment_and_deletion(obj):
    field = next(iter(vars(obj)))
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, field, 0)
    with pytest.raises(AttributeError):
        obj.extra = 0
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert repr(obj) == before and not hasattr(obj, "extra")


def test_reprs_are_the_dataclass_reprs():
    assert repr(CutpointSpec(F(1, 2))) == "CutpointSpec(value=Fraction(1, 2), mode='strict')"
    assert repr(CutpointSpec(3, "exclusive")) == (
        "CutpointSpec(value=Fraction(3, 1), mode='exclusive')"
    )
    assert repr(PythTriple(2, 1)) == "PythTriple(m=2, n=1)"
    assert repr(UnaryName("Complement", inner=UnaryName("ModN", 3))) == (
        "UnaryName(kind='Complement', n=None, inner=UnaryName(kind='ModN', n=3, inner=None))"
    )
    assert repr(SeparationWitness(8, F(164833, 390625), 0.5, True, False)) == (
        "SeparationWitness(m=8, value_a=Fraction(164833, 390625), value_b=0.5, "
        "member_a=True, member_b=False)"
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: PythTriple(2),
        lambda: PythTriple(n=1),
        lambda: CutpointSpec(),
        lambda: PythTriple(2, 1, 3),
        lambda: PythTriple(2, 1, k=3),
        lambda: PythTriple(2, m=1),
        lambda: CutpointSpec(F(1), "strict", mode="strict"),
    ],
    ids=["missing", "missing-first", "missing-all", "extra-positional", "unknown-keyword",
         "repeated", "repeated-default"],
)
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_keywords_and_defaults():
    assert PythTriple(n=1, m=2) == PythTriple(2, 1)
    assert CutpointSpec(mode="strict", value=F(1, 3)) == CutpointSpec(F(1, 3))
    identity = Matrix([[1, 0], [0, 1]])
    mc = Mcqfa(2, ("a",), {"a": identity}, basis_state(2, 1))
    assert mc.accept_states == frozenset() and type(mc.accept_states) is frozenset
    assert mc.left_marker is None and mc.right_marker is None
    assert mc == Mcqfa(2, ("a",), {"a": identity}, 1, frozenset())


def test_class_memo_never_changes_equality():
    spec = OneStateGfaSpec({"a": F(2), "b": F(-1, 3)}, F(1, 2))
    twin = OneStateGfaSpec({"a": F(2), "b": F(-1, 3)}, F(1, 2))
    before = repr(spec)
    assert one_state_accepts(spec, "ab") == one_state_accepts(spec, "ba")
    assert spec._memo.verdicts and "_memo" not in vars(twin)
    assert spec == twin and twin == spec and repr(spec) == before


def test_fields_of_record_bases_come_first():
    @record
    class Base:
        a: int
        b: int = 2

        def __eq__(self, other):
            return "own"

    @record
    class Derived(Base):
        c: int = 3

    assert repr(Derived(1, c=4)).endswith("<locals>.Derived(a=1, b=2, c=4)")
    assert (Base(1) == Base(2)) == "own"
    assert Derived(1) == Derived(1, 2) and Derived(1) != Derived(1, c=4)


def test_import_loads_neither_dataclasses_nor_inspect():
    src = Path(cutpoint.__file__).resolve().parent.parent
    code = "import sys, cutpoint.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
