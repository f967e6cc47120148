import json
import math
import sys
from fractions import Fraction

import pytest

from cutpoint.automata import Gfa, Mcqfa, Pfa, Qfa, unary_values, value
from cutpoint.constructions import (
    OneStateGfaSpec,
    PythTriple,
    decompose_one_state,
    modn_mcqfa,
    rotation_automaton,
    three_state_pfa,
)
from cutpoint.documents import (
    DocumentError,
    ValidationFailure,
    parse_automaton,
    parse_descriptor,
    parse_one_state,
    parse_rational,
    serialize_automaton,
    serialize_descriptor,
    serialize_one_state,
)
from cutpoint.exactmath import GaussianRational, Matrix

F = Fraction


def rotation_doc():
    return {
        "model": "gfa",
        "states": 2,
        "alphabet": ["a"],
        "scalar": "rational",
        "transitions": {"a": [["3/5", "-4/5"], ["4/5", "3/5"]]},
        "initial": [1, 0],
        "final": [1, 0],
    }


class TestScalarParsing:
    def test_rational_strings_and_integers(self):
        assert parse_rational("3/5") == F(3, 5)
        assert parse_rational(7) == 7
        assert parse_rational("-2/7") == F(-2, 7)

    def test_rejects_floats_in_exact_position(self):
        with pytest.raises(DocumentError):
            parse_rational(0.5)
        with pytest.raises(DocumentError):
            parse_rational("abc")


class TestAutomatonRoundTrips:
    @pytest.mark.parametrize(
        "aut",
        [
            rotation_automaton(PythTriple(2, 1)),
            rotation_automaton(PythTriple(3, 2), model="mcqfa"),
            three_state_pfa(F(1, 4)),
            modn_mcqfa(5),
        ],
        ids=["gfa", "mcqfa", "pfa", "mcqfa-float"],
    )
    def test_parse_inverts_serialize(self, aut):
        doc = serialize_automaton(aut)
        back = parse_automaton(json.dumps(doc))
        assert type(back) is type(aut)
        for m in range(21):
            assert value(back, "a" * m) == value(aut, "a" * m)

    def test_qfa_round_trip(self):
        es = (Matrix([[F(1), F(0)], [F(0), F(0)]]), Matrix([[F(0), F(1)], [F(0), F(0)]]))
        aut = Qfa(2, ("a",), {"a": es}, 1, frozenset({1}))
        back = parse_automaton(json.dumps(serialize_automaton(aut)))
        assert isinstance(back, Qfa)
        assert [value(back, "a" * m) for m in range(4)] == [
            value(aut, "a" * m) for m in range(4)
        ]

    def test_complex_rational_round_trip(self):
        i = GaussianRational(F(0), F(1))
        one = GaussianRational(F(1), F(0))
        zero = GaussianRational(F(0), F(0))
        aut = Mcqfa(
            2,
            ("a",),
            {"a": Matrix([[i, zero], [zero, one]])},
            Matrix.column([one, zero]),
            frozenset({1}),
        )
        doc = serialize_automaton(aut)
        assert doc["scalar"] == "complex-rational"
        back = parse_automaton(json.dumps(doc))
        assert back.transitions["a"][0, 0] == i

    def test_binary_alphabet_round_trip(self):
        import random

        aut = Gfa(
            2,
            ("a", "b"),
            {
                "a": Matrix([[F(1, 2), F(-1, 3)], [F(2), F(0)]]),
                "b": Matrix([[F(0), F(5)], [F(-1, 7), F(1)]]),
            },
            Matrix.column([F(1, 3), F(2, 3)]),
            Matrix.row([F(4), F(-1, 2)]),
        )
        back = parse_automaton(json.dumps(serialize_automaton(aut)))
        rng = random.Random(9)
        for _ in range(40):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 20)))
            assert value(back, w) == value(aut, w)

    def test_markers_survive(self):
        p = Pfa(
            2,
            ("a",),
            {"a": Matrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])},
            Matrix.column([F(1), F(0)]),
            Matrix.row([F(1), F(0)]),
            left_marker=Matrix([[F(0), F(1)], [F(1), F(0)]]),
            right_marker=Matrix([[F(0), F(1)], [F(1), F(0)]]),
        )
        back = parse_automaton(json.dumps(serialize_automaton(p)))
        assert back.left_marker == p.left_marker
        assert back.right_marker == p.right_marker
        for m in range(10):
            assert value(back, "a" * m) == value(p, "a" * m)


class TestAutomatonParsing:
    def test_rotation_document(self):
        aut = parse_automaton(rotation_doc())
        assert [v for v in unary_values(aut, 2)] == [1, F(3, 5), F(-7, 25)]

    def test_basis_index_initial(self):
        doc = rotation_doc()
        doc["initial"] = 1
        aut = parse_automaton(doc)
        assert aut.value("") == 1

    def test_bad_json_is_a_document_error(self):
        with pytest.raises(DocumentError):
            parse_automaton("{not json")

    def test_missing_field(self):
        doc = rotation_doc()
        del doc["transitions"]
        with pytest.raises(DocumentError):
            parse_automaton(doc)

    def test_unknown_model(self):
        doc = rotation_doc()
        doc["model"] = "dfa"
        with pytest.raises(DocumentError):
            parse_automaton(doc)

    def test_float_entries_rejected_in_rational_documents(self):
        doc = rotation_doc()
        doc["transitions"]["a"][0][0] = 0.6
        with pytest.raises(DocumentError):
            parse_automaton(doc)

    def test_string_entries_rejected_in_float_documents(self):
        doc = rotation_doc()
        doc["scalar"] = "float"
        with pytest.raises(DocumentError):
            parse_automaton(doc)

    def test_stochastic_violation_is_a_validation_failure(self):
        doc = {
            "model": "pfa",
            "states": 2,
            "alphabet": ["a"],
            "scalar": "float",
            "transitions": {"a": [[0.5, 0.2], [0.4, 0.8]]},
            "initial": 1,
            "final": [1.0, 0.0],
        }
        with pytest.raises(ValidationFailure) as exc:
            parse_automaton(doc)
        assert any("column" in v for v in exc.value.violations)
        # the machine is still constructible when validation is skipped
        aut = parse_automaton(doc, validate=False)
        assert isinstance(aut, Pfa)

    def test_non_unitary_mcqfa_fails_validation(self):
        doc = {
            "model": "mcqfa",
            "states": 2,
            "alphabet": ["a"],
            "scalar": "rational",
            "transitions": {"a": [[1, 1], [0, 1]]},
            "initial": 1,
            "final": [1],
        }
        with pytest.raises(ValidationFailure):
            parse_automaton(doc)

    def test_qfa_reset_pair_document(self):
        doc = {
            "model": "qfa",
            "states": 2,
            "alphabet": ["a"],
            "scalar": "rational",
            "transitions": {"a": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]},
            "initial": 2,
            "final": [1],
        }
        aut = parse_automaton(doc)
        assert value(aut, "a") == 1

    def test_accept_list_bounds(self):
        doc = {
            "model": "mcqfa",
            "states": 2,
            "alphabet": ["a"],
            "scalar": "rational",
            "transitions": {"a": [[1, 0], [0, 1]]},
            "initial": 1,
            "final": [3],
        }
        with pytest.raises(DocumentError):
            parse_automaton(doc)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "int401"])
    @pytest.mark.parametrize("model, scalar, part", [
        ("pfa", "float", "transition"),
        ("pfa", "float", "initial"),
        ("pfa", "float", "final"),
        ("mcqfa", "complex-float", "transition"),
        ("mcqfa", "complex-float", "initial"),
        ("qfa", "complex-float", "transition"),
        ("qfa", "complex-float", "initial"),
    ])
    def test_non_finite_binary64_entries_rejected(self, bad, model, scalar, part):
        # the bad number goes in as JSON text, as the imaginary part of a
        # complex entry
        slot, eye = "SLOT", [[1.0, 0.0], [0.0, 1.0]]
        step = [[1.0, 0.0], [0.0, slot]] if part == "transition" else eye
        doc = {"model": model, "states": 2, "alphabet": ["a"], "scalar": scalar,
               "transitions": {"a": [step] if model == "qfa" else step},
               "initial": [[1.0, 0.0], [0.0, 0.0]] if model == "qfa" else [1.0, 0.0],
               "final": [1.0, 0.0] if model == "pfa" else [1]}
        if part == "initial" and model == "qfa":
            doc["initial"][1][1] = slot
        elif part in ("initial", "final"):
            doc[part][1] = slot
        entry = f"[0.0, {bad}]" if scalar == "complex-float" else bad
        with pytest.raises(DocumentError, match="finite binary64 number"):
            parse_automaton(json.dumps(doc).replace(f'"{slot}"', entry))

    def test_complex_scalars_rejected_for_generalized_models(self):
        doc = rotation_doc()
        doc["scalar"] = "complex-rational"
        with pytest.raises(DocumentError):
            parse_automaton(doc)


class TestLongExactValues:
    def test_parse_5001_digit_entry(self, digit_limit):
        doc = dict(rotation_doc(), final=["1" + "0" * 5000, 0])
        assert parse_automaton(doc, validate=False).final[0, 0] == 10**5000
        with pytest.raises(DocumentError):
            parse_automaton(dict(doc, final=["1" + "0" * 5000, "1/0"]))
        assert sys.get_int_max_str_digits() == 4300

    def test_serialize_4772_digit_denominator(self, digit_limit):
        aut = three_state_pfa(F(1, 10**4771))
        assert parse_automaton(json.dumps(serialize_automaton(aut))) == aut
        assert sys.get_int_max_str_digits() == 4300


class TestDescriptorDocuments:
    def test_round_trip_all_forms(self):
        specs = [
            OneStateGfaSpec({"a": F(1, 2), "b": F(2)}, F(1), "greater"),
            OneStateGfaSpec({"a": F(-2)}, F(0), "less"),
            OneStateGfaSpec({"a": F(3), "b": F(0)}, F(2), "less"),
            OneStateGfaSpec({"a": F(2), "b": F(1, 2)}, F(1), mode="inclusive"),
            OneStateGfaSpec({"a": F(2), "b": F(0)}, F(0), mode="inclusive"),
        ]
        words = ["", "a", "b", "ab", "abb", "aab", "bb", "aabb"]
        from cutpoint.langsem import desc_member

        for spec in specs:
            d = decompose_one_state(spec)
            back = parse_descriptor(json.dumps(serialize_descriptor(d)))
            for w in words:
                if set(w) <= set(d.sigma):
                    assert desc_member(back, w) == desc_member(d, w)

    def test_infinite_threshold_serialized_as_inf(self):
        d = decompose_one_state(OneStateGfaSpec({"a": F(-2)}, F(0), "less"))
        doc = serialize_descriptor(d)
        assert doc["solution"]["threshold"] == "inf"
        back = parse_descriptor(doc)
        assert back.solution.threshold == math.inf

    def test_malformed_descriptor(self):
        with pytest.raises(DocumentError):
            parse_descriptor({"form": "circle", "alphabet": ["a"]})

    def test_one_state_spec_round_trip(self):
        spec = OneStateGfaSpec({"a": F(-1, 2), "b": F(3)}, F(-2, 7), "greater")
        back = parse_one_state(json.dumps(serialize_one_state(spec)))
        assert back == spec
