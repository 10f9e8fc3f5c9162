"""Exact compositional modeling of behavioral systems.

Two carriers (finite sets, finite-dimensional rational vector spaces) support
systems-as-inclusions, equation representations interpreted through
equalizers, pullback interconnection, powerset duality, generalized systems
with their adjunction, and a resistive-circuit front end. All arithmetic is
exact.
"""

from .booldual import (
    BoolHom,
    BoolPushout,
    BoolSystem,
    BoolSystemMorphism,
    DualityReport,
    PowerLattice,
    bool_morphism_of,
    bool_system_of,
    duality_classify,
    functor_F,
    functor_G,
    pushout_bool,
    system_morphism_of,
    system_of_bool,
)
from .carriers import (
    Factorization,
    MapClass,
    classify_map,
    compose,
    equalizer,
    identity,
    image_factorize,
    product,
    pullback,
)
from .circuits import (
    Circuit,
    CompiledCircuit,
    EmergenceReport,
    GlueResult,
    GlueSpec,
    Resistor,
    Wire,
    compile_circuit,
    emergence_report,
    glue,
    parse_glue,
    parse_netlist,
)
from .equations import (
    EquationMorphism,
    EquationPullback,
    EquationRep,
    PreservationReport,
    arr_eq,
    arr_eq_morphism,
    check_preservation,
    kernel_rep,
    pullback_equations,
)
from .errors import (
    BehaviorEscapes,
    DomainError,
    GlueError,
    InvalidHom,
    MismatchError,
    NonInjectiveInclusion,
    NotEpi,
    ParseError,
)
from .finset import FinMap, FinObj
from .generalized import (
    AdjunctionReport,
    GenEquation,
    GenEquationMorphism,
    GeneralizedSystem,
    GenSystemMorphism,
    adjunction_check,
    diagonal,
    embed_equation,
    image_system,
    obj_eq,
)
from .systems import (
    BehaviorLattice,
    MorphismClass,
    System,
    SystemMorphism,
    SystemPullback,
    behavior_image,
    classify_morphism,
    factors_through,
    full_system,
    interconnect_shared,
    make_morphism,
    product_systems,
    project_latent,
    pullback_systems,
    system_from_behavior,
    systems_equal,
    terminal_system,
)
from .vect import LinMap, Subspace, VectObj

__version__ = "0.1.0"
