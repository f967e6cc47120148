"""The public surface: the names ``cutpoint`` exports, the names README's
Library snippet imports, and ``Matrix`` and ``GaussianRational`` as
containers that do no arithmetic."""

import ast
import re
import types
from pathlib import Path

import cutpoint
from cutpoint import exactmath
from cutpoint.exactmath import GaussianRational, Matrix

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = set("""
    Automaton ChomskyVerdict CutpointSpec DensityReport GaussianRational Gfa InclusiveForm
    IndicatorDescriptor IndicatorOnly LambdaForm LanguageDescriptor Matrix Mcqfa OneStateGfaSpec
    ParikhVector ParityDescriptor Pfa PythTriple Qfa SeparationWitness SolutionDescriptor
    ThreeStateParams TwoStatePfaAnalysis UnaryName VForm analyze_two_state_pfa aperiodicity_check
    basis_density basis_state build_one_state chomsky_classify chomsky_classify_gfa
    classify_two_state_pfa cut_member decimate decompose_one_state
    density_report desc_member enum_unary exclusive_to_zero exclusive_zero_value
    logs_rationally_equivalent logs_same_sign modn_mcqfa named_member normalize_one_state
    one_state_accepts parikh rotation_automaton rotation_cosines separate three_state_closed_form
    three_state_params three_state_pfa three_state_separation trace_run unary_values validate
    validate_matrix value
""".split())

ARITHMETIC = """__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __matmul__ __rmatmul__
    __truediv__ __rtruediv__ __pow__ __neg__ __abs__""".split()


def test_cutpoint_exports():
    exported = {name for name, v in vars(cutpoint).items()
                if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == PUBLIC
    snippet = re.search(r"## Library\s+```python\n(.*?)```", README.read_text("utf-8"), re.S)[1]
    imported = [alias.name for node in ast.walk(ast.parse(snippet))
                if isinstance(node, ast.ImportFrom) and node.module == "cutpoint"
                for alias in node.names]
    assert imported and set(imported) <= PUBLIC


def test_containers_do_no_arithmetic():
    assert {n for n in dir(Matrix) if not n.startswith("_")} == set(
        "col_values cols column data flat is_exact is_square kind row rows shape transpose".split())
    assert {n for n in dir(GaussianRational(1, 2)) if not n.startswith("_")} == {"re", "im"}
    for cls in (Matrix, GaussianRational):
        assert [op for op in ARITHMETIC if hasattr(cls, op)] == []
    for name in ("mat_pow", "kron", "scalar_conj", "scalar_abs_squared", "_as_gaussian",
                 "complete_to_unitary"):
        assert not hasattr(exactmath, name)
