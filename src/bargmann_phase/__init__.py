"""Geometric phase of two-mode optical beams from the Bargmann invariant.

The invariant Tr(rho1 rho2 rho3) of three states of a two-mode beam is
computed three ways: exactly in a truncated Fock space (the oracle), in
closed form for coherent states, and through the diagonal coherent-state
(P) representation evaluated distributionally. A transcribed reference
closed form in the phase-space centers is carried alongside and audited
against the exact routes.
"""
from .coherent import (
    CoherentLabel,
    bargmann_triple_coherent,
    label_map_matrix,
    overlap,
    polarizer_label_map,
)
from .fock import (
    DISPLACEMENT_GUARD_RATIO,
    METHOD_COHERENT_CLOSED_FORM,
    METHOD_FOCK_ORACLE,
    METHOD_PHASE_SPACE_PAIRING,
    METHOD_PRINTED_CLOSED_FORM,
    UNDEFINED_PHASE_CUTOFF,
    DensityOperator,
    PhaseResult,
    TruncationDim,
    TruncationLeakageWarning,
    chain_invariant,
    coherent_state,
    displaced_fock_state,
    displacement_operator,
    evolve,
    evolve_state,
    mode_annihilation,
    polarizer_generator,
    polarizer_unitary,
    principal_phase,
    triple_overlap,
    triple_product_trace,
)
from .geomphase import (
    ClosedFormTerms,
    PhaseScenario,
    ReconciliationReport,
    ReconciliationRow,
    StateSpec,
    TriangleConfig,
    closed_form_audit,
    closed_form_terms,
    geometric_phase,
    method_reconciliation,
    phase_space_trace,
    phase_space_trace_evolved,
    random_evolved_scenarios,
    random_independent_scenarios,
    run_reconciliation,
)
from .pdistribution import (
    DeltaDerivativeTerm,
    PhaseSpacePoint,
    QuasiProbability,
    fock_element_function,
    gaussian_smear_function,
    mehta_p_function,
    pair,
    reconstruct_density_element,
)

__version__ = "0.1.0"
