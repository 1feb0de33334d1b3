"""Geometric phase of two-mode optical beams from the Bargmann invariant.

The invariant Tr(rho1 rho2 rho3) of three states of a two-mode beam is
computed three ways: exactly in a truncated Fock space (the oracle), in
closed form for coherent states, and through the diagonal coherent-state
(P) representation evaluated distributionally. A transcribed reference
closed form in the phase-space centers is carried alongside and audited
against the exact routes.
"""
from .coherent import CoherentLabel, bargmann_triple_coherent, overlap
from .fock import (
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
    evolve,
    polarizer_unitary,
    principal_phase,
    triple_product_trace,
)
from .geomphase import (
    PhaseScenario,
    ReconciliationReport,
    ReconciliationRow,
    StateSpec,
    closed_form_audit,
    method_reconciliation,
    phase_space_trace,
    random_evolved_scenarios,
    random_independent_scenarios,
    run_reconciliation,
)
from .pdistribution import PhaseSpacePoint, QuasiProbability, mehta_p_function

__version__ = "0.1.0"
