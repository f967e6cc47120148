"""Cutpoint languages of generalized, probabilistic, and quantum finite
automata: exact simulation, concrete machine families, and classification."""

from .analysis import (
    ChomskyVerdict,
    DensityReport,
    SeparationWitness,
    aperiodicity_check,
    chomsky_classify,
    chomsky_classify_gfa,
    decimate,
    density_report,
    separate,
    three_state_separation,
)
from .automata import (
    Automaton,
    Gfa,
    Mcqfa,
    Pfa,
    Qfa,
    basis_density,
    basis_state,
    trace_run,
    unary_values,
    validate,
    value,
)
from .constructions import (
    OneStateGfaSpec,
    PythTriple,
    ThreeStateParams,
    TwoStatePfaAnalysis,
    analyze_two_state_pfa,
    build_one_state,
    classify_two_state_pfa,
    decompose_one_state,
    exclusive_to_zero,
    exclusive_zero_value,
    modn_mcqfa,
    normalize_one_state,
    one_state_accepts,
    rotation_automaton,
    rotation_cosines,
    three_state_closed_form,
    three_state_params,
    three_state_pfa,
)
from .exactmath import (
    GaussianRational,
    Matrix,
    complete_to_unitary,
    kron,
    logs_rationally_equivalent,
    logs_same_sign,
    mat_pow,
    validate_matrix,
)
from .langsem import (
    CutpointSpec,
    IndicatorDescriptor,
    IndicatorOnly,
    InclusiveForm,
    LambdaForm,
    LanguageDescriptor,
    ParikhVector,
    ParityDescriptor,
    SolutionDescriptor,
    UnaryName,
    VForm,
    cut_member,
    desc_member,
    enum_unary,
    named_member,
    parikh,
)

__version__ = "0.1.0"
