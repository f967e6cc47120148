import io
import json
import sys
from fractions import Fraction
from itertools import islice

import pytest

from cutpoint.cli import build_parser, emit_csv, run
from cutpoint.constructions import PythTriple, rotation_automaton, rotation_cosines, three_state_pfa
from cutpoint.documents import parse_automaton, serialize_automaton

F = Fraction


@pytest.fixture
def rotation_file(tmp_path):
    doc = serialize_automaton(rotation_automaton(PythTriple(2, 1)))
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def px_file(tmp_path):
    doc = serialize_automaton(three_state_pfa(F(1, 2)))
    path = tmp_path / "px.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mcqfa_file(tmp_path):
    doc = serialize_automaton(rotation_automaton(PythTriple(2, 1), model="mcqfa"))
    path = tmp_path / "mcqfa.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestEval:
    def test_word(self, rotation_file):
        out = run(["eval", rotation_file, "--word", "aa"])
        assert out.exit_code == 0
        assert out.data["value_exact"] == "-7/25"

    def test_length(self, px_file):
        out = run(["eval", px_file, "--length", "4"])
        assert out.exit_code == 0
        assert out.data["value_exact"] == "1/2"

    def test_empty_word(self, rotation_file):
        out = run(["eval", rotation_file, "--word", ""])
        assert out.data["value_exact"] == "1"

    def test_missing_word_and_length(self, rotation_file):
        assert run(["eval", rotation_file]).exit_code == 2


class TestLongExactValues:
    """Exact values have no size limit: a command lifts the interpreter's
    digit limit for its run and restores it afterwards."""

    def test_long_rotation_value(self, rotation_file, digit_limit):
        out = run(["eval", rotation_file, "--length", "7000"])  # denominator 5^7000
        assert out.exit_code == 0
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        expected = next(islice(rotation_cosines(PythTriple(2, 1)), 7000, None))
        assert F(out.data["value_exact"]) == expected

    def test_px_with_4772_digit_denominator(self, tmp_path, digit_limit):
        x = "1/1" + "0" * 4771
        built = run(["construct", "px", "--x", x])
        assert built.exit_code == 0
        path = tmp_path / "px.json"
        path.write_text(built.report)
        out = run(["eval", str(path), "--word", "aaa"])
        assert out.exit_code == 0
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        assert F(out.data["value_exact"]) == three_state_pfa(F(x)).value("aaa")


class TestEnum:
    def test_strict_bits(self, px_file):
        out = run(["enum", px_file, "--cutpoint", "2/5", "--max", "4"])
        assert out.exit_code == 0
        assert out.report == "00101"

    def test_decimal_cutpoint_parses_exactly(self, rotation_file):
        out = run(["enum", rotation_file, "--cutpoint", "0.9", "--max", "4"])
        assert out.report == "10000"

    def test_json_report(self, px_file):
        out = run(["enum", px_file, "--cutpoint", "2/5", "--max", "4", "--json"])
        assert json.loads(out.report) == {"bits": "00101"}


class TestCsv:
    def test_rows(self, px_file):
        out = run(["csv", px_file, "--max", "2"])
        assert out.exit_code == 0
        assert out.report.splitlines() == [
            "m,value_exact,value_float",
            "0,0,0.0",
            "1,0,0.0",
            "2,1,1.0",
        ]

    def test_rotation_values(self, rotation_file):
        out = run(["csv", rotation_file, "--max", "1"])
        assert out.report.splitlines()[1:] == ["0,1,1.0", "1,3/5,0.6"]

    def test_float_machine_has_empty_exact_column(self, tmp_path):
        from cutpoint.constructions import modn_mcqfa

        path = tmp_path / "modn.json"
        path.write_text(json.dumps(serialize_automaton(modn_mcqfa(4))))
        out = run(["csv", str(path), "--max", "0"])
        assert out.report.splitlines()[1] == "0,,1.0"

    def test_emit_csv_returns_row_count(self):
        sink = io.StringIO()
        assert emit_csv(three_state_pfa(F(1, 2)), 5, sink) == 6


class TestConstruct:
    def test_rotation_output_parses_and_validates(self):
        out = run(["construct", "rotation", "--triple", "2,1"])
        assert out.exit_code == 0
        aut = parse_automaton(out.report)
        assert aut.value("a") == F(3, 5)

    def test_rotation_mcqfa(self):
        out = run(["construct", "rotation", "--triple", "3,2", "--model", "mcqfa"])
        aut = parse_automaton(out.report)
        assert aut.value("a") == F(25, 169)

    def test_px_output(self):
        out = run(["construct", "px", "--x", "1/2"])
        aut = parse_automaton(out.report)
        assert aut.value("aa") == 1

    def test_modn_output(self):
        out = run(["construct", "modn", "--n", "4"])
        aut = parse_automaton(out.report)
        assert aut.value("aaaa") == pytest.approx(1.0)

    def test_bad_triple(self):
        assert run(["construct", "rotation", "--triple", "4,2"]).exit_code == 2

    def test_missing_parameter(self):
        assert run(["construct", "px"]).exit_code == 2

    def test_bad_parameter_names_its_option(self):
        out = run(["construct", "px", "--x", "abc"])
        assert out.exit_code == 2
        assert out.report == "error: bad --x 'abc'; use p/q, an integer, or a decimal"


class TestTransform:
    def test_exclusive_to_zero(self, mcqfa_file):
        out = run(
            ["transform", "exclusive-to-zero", mcqfa_file, "--cutpoint", "1/2"]
        )
        assert out.exit_code == 0
        built = parse_automaton(out.report)
        assert built.state_count == 5
        assert built.value("") == pytest.approx(0.1, abs=1e-9)

    def test_zero_cutpoint_notice(self, mcqfa_file):
        out = run(["transform", "exclusive-to-zero", mcqfa_file, "--cutpoint", "0"])
        assert out.exit_code == 0
        assert "notice" in out.data

    def test_rejects_generalized_machine(self, rotation_file):
        out = run(["transform", "exclusive-to-zero", rotation_file, "--cutpoint", "1/2"])
        assert out.exit_code == 2


class TestClassify2Pfa:
    def test_swap_machine(self, tmp_path):
        doc = {
            "model": "pfa",
            "states": 2,
            "alphabet": ["a"],
            "scalar": "rational",
            "transitions": {"a": [[0, 1], [1, 0]]},
            "initial": [1, 0],
            "final": [0, 1],
        }
        path = tmp_path / "swap.json"
        path.write_text(json.dumps(doc))
        out = run(["classify-2pfa", str(path), "--cutpoint", "1/2"])
        assert out.exit_code == 0
        assert out.report == "CoEven"

    def test_rejects_gfa(self, rotation_file):
        assert run(["classify-2pfa", rotation_file, "--cutpoint", "0"]).exit_code == 2


class TestOneStateCommands:
    def test_decompose_build_round_trip(self, tmp_path):
        out = run(
            [
                "decompose-1gfa",
                "--numbers",
                "a=1/2",
                "b=2",
                "--cutpoint",
                "1",
                "--direction",
                "gt",
            ]
        )
        assert out.exit_code == 0
        desc = json.loads(out.report)
        assert desc["form"] == "lambda"
        descfile = tmp_path / "desc.json"
        descfile.write_text(out.report)
        out2 = run(["build-1gfa", str(descfile)])
        assert out2.exit_code == 0
        spec = json.loads(out2.report)
        assert spec["numbers"] == {"a": "1/2", "b": 2}
        assert spec["direction"] == "greater"

    def test_decompose_inclusive(self):
        out = run(
            [
                "decompose-1gfa",
                "--numbers",
                "a=2",
                "b=1/2",
                "--cutpoint",
                "1",
                "--inclusive",
            ]
        )
        assert json.loads(out.report)["form"] == "inclusive"

    def test_bad_number_format(self):
        out = run(["decompose-1gfa", "--numbers", "a:2", "--cutpoint", "1"])
        assert out.exit_code == 2

    @pytest.mark.parametrize("command", ["decompose-1gfa", "chomsky"])
    def test_repeated_letter_is_refused(self, command):
        out = run([command, "--numbers", "a=1", "a=2", "--cutpoint", "1"])
        assert out.exit_code == 2
        assert out.report == "error: duplicate letter 'a' in --numbers"


class TestChomsky:
    def test_from_numbers(self):
        out = run(
            [
                "chomsky",
                "--numbers",
                "a=1/2",
                "b=2",
                "--cutpoint",
                "1",
                "--direction",
                "gt",
            ]
        )
        assert out.exit_code == 0
        assert out.report == "ContextFreeNonRegular"

    def test_from_descriptor_file(self, tmp_path):
        desc = run(
            ["decompose-1gfa", "--numbers", "a=2", "b=3", "--cutpoint", "1", "--direction", "gt"]
        ).report
        path = tmp_path / "d.json"
        path.write_text(desc)
        out = run(["chomsky", str(path)])
        assert out.report == "Regular"

    def test_needs_input(self):
        assert run(["chomsky"]).exit_code == 2

    def test_numbers_without_cutpoint(self):
        out = run(["chomsky", "--numbers", "a=2"])
        assert out.exit_code == 2
        assert "cutpoint" in out.report

    @pytest.mark.parametrize(
        "numbers, verdict",
        [
            (["a=1000003", "b=1/2"], "NonContextFree"),
            (["a=1000000000039", "b=1/2"], "NonContextFree"),
            # a semiprime near 10^12 and its inverse square
            ([f"a={999_983 * 999_979}", f"b=1/{(999_983 * 999_979) ** 2}"], "ContextFreeNonRegular"),
        ],
    )
    def test_large_numbers_are_answered(self, numbers, verdict):
        out = run(["chomsky", "--numbers", *numbers, "--cutpoint", "1", "--direction", "gt"])
        assert out.exit_code == 0
        assert out.report == verdict


class TestSeparate:
    def test_rotation_witness(self, rotation_file):
        out = run(
            [
                "separate",
                rotation_file,
                rotation_file,
                "--cutpoint-a",
                "1/10",
                "--cutpoint-b",
                "1/5",
                "--max",
                "100",
            ]
        )
        assert out.exit_code == 0
        assert out.data["witness"]["m"] == 12
        assert out.data["witness"]["value_a_exact"] == "32125393/244140625"

    def test_no_witness_exits_three(self, rotation_file):
        out = run(
            [
                "separate",
                rotation_file,
                rotation_file,
                "--cutpoint-a",
                "1/10",
                "--cutpoint-b",
                "1/10",
                "--max",
                "50",
            ]
        )
        assert out.exit_code == 3


class TestDensity:
    def test_report(self):
        out = run(["density", "--triple", "2,1", "--bins", "4", "--max", "100"])
        assert out.exit_code == 0
        assert out.data["misses"] == []
        assert out.data["first_hit"][3] == 0


class TestVerifyCommand:
    def test_single_fast_suite(self):
        out = run(["verify", "--suite", "mcqfa"])
        assert out.exit_code == 0
        assert out.report.count("PASS") == 2

    def test_runs_are_deterministic(self):
        first = run(["verify", "--suite", "mcqfa", "--json"])
        second = run(["verify", "--suite", "mcqfa", "--json"])
        strip = lambda rs: [
            {k: v for k, v in r.items() if k != "elapsed" and k != "within_budget"}
            for r in rs
        ]
        assert strip(json.loads(first.report)["results"]) == strip(
            json.loads(second.report)["results"]
        )

    def test_json_structure(self):
        out = run(["verify", "--suite", "mcqfa", "--json"])
        data = json.loads(out.report)
        assert {r["criterion"] for r in data["results"]} == {
            "mcqfa-exclusive-transform",
            "modn-machines",
        }
        assert all(r["ok"] for r in data["results"])


class TestJsonReports:
    def test_every_reporting_command_emits_valid_json(self, rotation_file, px_file, tmp_path):
        desc = run(
            ["decompose-1gfa", "--numbers", "a=2", "--cutpoint", "1", "--json"]
        )
        descfile = tmp_path / "d.json"
        descfile.write_text(desc.report)
        invocations = [
            ["eval", rotation_file, "--word", "a"],
            ["enum", px_file, "--cutpoint", "2/5", "--max", "3"],
            ["csv", px_file, "--max", "2"],
            ["construct", "rotation", "--triple", "2,1"],
            ["classify-2pfa", px_file, "--cutpoint", "1/2"],
            ["decompose-1gfa", "--numbers", "a=2", "--cutpoint", "1"],
            ["build-1gfa", str(descfile)],
            ["chomsky", "--numbers", "a=2", "b=3", "--cutpoint", "1"],
            [
                "separate",
                rotation_file,
                rotation_file,
                "--cutpoint-a",
                "1/10",
                "--cutpoint-b",
                "1/5",
                "--max",
                "50",
            ],
            ["density", "--triple", "2,1", "--bins", "4", "--max", "50"],
        ]
        for argv in invocations:
            if argv[0] == "classify-2pfa":
                continue  # px machine has 3 states; swap in a valid target below
            out = run(argv + ["--json"])
            assert out.exit_code == 0, (argv, out.report)
            json.loads(out.report)

    def test_classify_json(self, tmp_path):
        doc = {
            "model": "pfa",
            "states": 2,
            "alphabet": ["a"],
            "scalar": "rational",
            "transitions": {"a": [[0, 1], [1, 0]]},
            "initial": [1, 0],
            "final": [0, 1],
        }
        path = tmp_path / "swap.json"
        path.write_text(json.dumps(doc))
        out = run(["classify-2pfa", str(path), "--cutpoint", "1/2", "--json"])
        assert json.loads(out.report) == {"language": "CoEven"}


def _lambda_descriptor():
    return json.loads(
        run(["decompose-1gfa", "--numbers", "a=2", "b=1/3", "--cutpoint", "1", "--direction", "gt"]).report
    )


class TestMalformedDescriptors:
    """Descriptor fields of the wrong type are malformed input (exit 2) for
    both commands that read descriptors, never an uncaught exception."""

    def _run_both(self, tmp_path, doc):
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(doc))
        return [run([command, str(path)]) for command in ("build-1gfa", "chomsky")]

    def test_parity_subset_not_a_list(self, tmp_path):
        doc = _lambda_descriptor()
        doc["parity"] = {"y": 5}
        for out in self._run_both(tmp_path, doc):
            assert out.exit_code == 2
            assert "'y'" in out.report

    def test_indicator_subset_not_a_list(self, tmp_path):
        doc = {"form": "indicator", "alphabet": ["a", "b"], "indicator": {"z": 5}}
        for out in self._run_both(tmp_path, doc):
            assert out.exit_code == 2
            assert "'z'" in out.report

    def test_inexact_coefficient_not_a_number(self, tmp_path):
        doc = _lambda_descriptor()
        doc["solution"]["exact"] = False
        doc["solution"]["letters"]["a"] = [1]
        for out in self._run_both(tmp_path, doc):
            assert out.exit_code == 2
            assert "[1]" in out.report


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["eval", "{rot}", "--length", "-1"], "--length"),
            (["enum", "{rot}", "--cutpoint", "1/2", "--max", "-1"], "--max"),
            (["csv", "{rot}", "--max", "-1"], "--max"),
            (["separate", "{rot}", "{rot}", "--cutpoint-a", "1/10", "--cutpoint-b", "1/5",
              "--max", "-1"], "--max"),
            (["density", "--triple", "2,1", "--bins", "4", "--max", "-1"], "--max"),
        ],
        ids=["eval", "enum", "csv", "separate", "density"],
    )
    def test_negative_count_exits_two(self, rotation_file, argv, flag):
        out = run([a.format(rot=rotation_file) for a in argv])
        assert out.exit_code == 2
        assert out.report == f"error: {flag} must be nonnegative"

    @pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
    def test_bad_epsilon_exits_two(self, rotation_file, eps):
        out = run(["enum", rotation_file, "--cutpoint", "1/2", "--max", "3",
                   "--mode", "inclusive", "--epsilon", eps])
        assert out.exit_code == 2
        assert out.report == "error: --epsilon must be finite and nonnegative"

    def test_cached_parser_gives_fresh_outcomes(self, rotation_file, capsys):
        # a usage error, then a good command, with and without --json
        good = ["eval", rotation_file, "--word", "aa"]
        argvs = [["eval", "--bogus"], good, good + ["--json"], good]
        cached = [run(argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(run(argv))
        capsys.readouterr()
        assert cached == fresh
        assert [o.exit_code for o in cached] == [2, 0, 0, 0]
        assert cached[2].report.startswith("{") and not cached[3].report.startswith("{")

    def test_unknown_command_exits_two(self, capsys):
        assert run(["frobnicate"]).exit_code == 2
        capsys.readouterr()

    def test_missing_file(self):
        out = run(["eval", "/nonexistent/path.json", "--word", "a"])
        assert out.exit_code == 2

    def test_invalid_machine_exits_one(self, tmp_path):
        doc = {
            "model": "pfa",
            "states": 2,
            "alphabet": ["a"],
            "scalar": "float",
            "transitions": {"a": [[0.5, 0.2], [0.4, 0.8]]},
            "initial": 1,
            "final": [1.0, 0.0],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = run(["eval", str(path), "--word", "a"])
        assert out.exit_code == 1
        assert out.data["violations"]

    @pytest.mark.parametrize("model", ["pfa", "qfa"])
    def test_huge_claimed_state_count_is_rejected_at_once(self, tmp_path, model, best_of_three):
        # the initial object is built only after the transition shapes have
        # been checked against "states"
        doc = serialize_automaton(three_state_pfa(F(1, 2)))
        if model == "qfa":
            doc = {**doc, "model": "qfa", "final": [3],
                   "transitions": {"a": [doc["transitions"]["a"]]}}
        doc["states"] = doc["initial"] = 10**30
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        seconds, out = best_of_three(lambda: run(["eval", str(path), "--word", "a"]))
        assert seconds < 0.1
        assert out.exit_code == 2
        assert "transition matrices must be" in out.report

    @pytest.mark.parametrize("model, scalar, step", [
        ("pfa", "float", "[[Infinity, 0.0], [0.0, 1.0]]"),
        ("pfa", "float", "[[1%s, 0.0], [0.0, 1.0]]" % ("0" * 400)),
        ("gfa", "float", "[[NaN, 0.0], [0.0, 1.0]]"),
        ("gfa", "float", "[[1e400, 0.0], [0.0, 1.0]]"),
        ("qfa", "complex-float", "[[[[1.0, Infinity], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]"),
    ], ids=["inf", "int401", "nan", "1e400", "complex-inf"])
    def test_non_finite_binary64_entry_exits_two(self, tmp_path, model, scalar, step):
        doc = {"model": model, "states": 2, "alphabet": ["a"], "scalar": scalar,
               "transitions": {"a": "STEP"}, "initial": 1,
               "final": [1] if model == "qfa" else [1.0, 0.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"STEP"', step))
        out = run(["eval", str(path), "--word", "a"])
        assert out.exit_code == 2
        assert "finite binary64 number" in out.report

    @pytest.mark.parametrize("argv", [
        ["construct", "px", "--x", "1e-999999999"],
        ["enum", "{rot}", "--cutpoint", "1e-999999999", "--max", "3"],
        ["decompose-1gfa", "--numbers", "a=1E999999999", "--cutpoint", "1"],
        ["eval", "{exp_doc}", "--word", "a"],
        ["build-1gfa", "{exp_desc}"],
    ], ids=["x", "cutpoint", "numbers", "document", "descriptor"])
    def test_exponent_is_refused_at_once(self, tmp_path, rotation_file, argv, best_of_three):
        # an exponent would need a power of ten with 10^9 digits
        doc = serialize_automaton(three_state_pfa(F(1, 2)))
        doc["final"][0] = "1e-999999999"
        desc = _lambda_descriptor()
        desc["solution"]["letters"]["a"] = "2e999999999"
        paths = {"rot": rotation_file, "exp_doc": tmp_path / "doc.json", "exp_desc": tmp_path / "desc.json"}
        paths["exp_doc"].write_text(json.dumps(doc))
        paths["exp_desc"].write_text(json.dumps(desc))
        seconds, out = best_of_three(lambda: run([a.format(**paths) for a in argv]))
        assert seconds < 0.1
        assert out.exit_code == 2
        assert "use p/q, an integer, or a decimal" in out.report

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert run(["eval", str(path), "--word", "a"]).exit_code == 2
