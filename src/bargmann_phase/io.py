"""Serialization for command output and P-object round trips.

CSV columns and the JSON schema tag are stable interfaces; numbers are
written in scientific notation with 12 significant digits so identical
inputs produce identical bytes.
"""
from __future__ import annotations

import csv
import itertools

from .geomphase import PhaseScenario, ReconciliationRow
from .pdistribution import DeltaDerivativeTerm, PhaseSpacePoint, QuasiProbability

__all__ = [
    "SCHEMA",
    "SWEEP_COLUMNS",
    "format_float",
    "scenario_to_dict",
    "row_to_dict",
    "sweep_row",
    "write_sweep_csv",
    "sweep_document",
    "phase_document",
    "validation_document",
    "pfunc_document",
    "pfunc_from_document",
]

SCHEMA = "bargmann-phase/1"

SWEEP_COLUMNS = (
    "theta1",
    "theta2",
    "phase_fock",
    "phase_pairing",
    "phase_printed",
    "abs_delta_max",
    "flag",
)


def format_float(x) -> str:
    """12 significant digits, scientific; nan encodes an undefined phase."""
    if x is None:
        return "nan"
    return f"{float(x):.11e}"


def _round_trip(x) -> float | None:
    # JSON carries floats; round through the fixed precision so CSV and
    # JSON views of the same run cannot disagree.
    return None if x is None else float(format_float(x))


def scenario_to_dict(scenario: PhaseScenario) -> dict:
    def mode_pair(vertex):
        return [vertex[0].q, vertex[0].p, vertex[1].q, vertex[1].p]

    doc = {
        "kind": "evolved" if scenario.is_evolved else "independent",
        "occupation": list(scenario.occupation),
        "vertex_a": mode_pair(scenario.vertex_a),
    }
    if scenario.is_evolved:
        doc["theta1"] = scenario.theta1
        doc["theta2"] = scenario.theta2
    else:
        doc["vertex_b"] = mode_pair(scenario.vertex_b)
        doc["vertex_c"] = mode_pair(scenario.vertex_c)
    return doc


def row_to_dict(row: ReconciliationRow) -> dict:
    methods = {}
    for name, res in row.results.items():
        methods[name] = {
            "invariant": [res.invariant.real, res.invariant.imag],
            "phase": _round_trip(res.phase),
        }
    return {
        "scenario": scenario_to_dict(row.scenario),
        "methods": methods,
        "deltas": {k: _round_trip(v) for k, v in sorted(row.deltas.items())},
        "abs_delta_max": _round_trip(row.abs_delta_max),
        "flag": row.flag,
    }


def sweep_row(row: ReconciliationRow) -> dict:
    scenario = row.scenario
    return {
        "theta1": scenario.theta1,
        "theta2": scenario.theta2,
        "phase_fock": row.phase_of("fock_oracle"),
        "phase_pairing": row.phase_of("phase_space_pairing"),
        "phase_printed": row.phase_of("printed_closed_form"),
        "abs_delta_max": row.abs_delta_max,
        "flag": row.flag,
    }


def write_sweep_csv(rows, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                format_float(row["theta1"]),
                format_float(row["theta2"]),
                format_float(row["phase_fock"]),
                format_float(row["phase_pairing"]),
                format_float(row["phase_printed"]),
                format_float(row["abs_delta_max"]),
                row["flag"],
            ]
        )


def sweep_document(rows, n_max: int, tolerance: float) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "sweep",
        "n_max": n_max,
        "tolerance": tolerance,
        "rows": [
            {
                "theta1": _round_trip(r["theta1"]),
                "theta2": _round_trip(r["theta2"]),
                "phase_fock": _round_trip(r["phase_fock"]),
                "phase_pairing": _round_trip(r["phase_pairing"]),
                "phase_printed": _round_trip(r["phase_printed"]),
                "abs_delta_max": _round_trip(r["abs_delta_max"]),
                "flag": r["flag"],
            }
            for r in rows
        ],
    }


def phase_document(row: ReconciliationRow, n_max: int, tolerance: float) -> dict:
    doc = {"schema": SCHEMA, "kind": "phase", "n_max": n_max, "tolerance": tolerance}
    doc.update(row_to_dict(row))
    return doc


def validation_document(checks, n_max: int, seed: int) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "validation",
        "n_max": n_max,
        "seed": seed,
        "all_passed": all(c.passed for c in checks),
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "value": c.value,
                "threshold": c.threshold,
                "detail": c.detail,
            }
            for c in checks
        ],
    }


# Per-mode (q, p) delta-derivative factors of the schema's terms, coefficients in
# the absorbed-measure convention: (coefficient, (dq, dp)). |1> is
# (1/4)(d_q^2 + d_p^2), which is the d_z d_zbar of mehta_p_function.
_MODE_FACTORS = {0: ((1.0, (0, 0)),), 1: ((0.25, (2, 0)), (0.25, (0, 2)))}


def _delta_terms(occupation, shift) -> tuple:
    """The (q, p) terms of the P of D(shift)|occupation>, in the schema's order."""
    if any(n not in _MODE_FACTORS for n in occupation):
        raise ValueError(f"unsupported occupation {occupation}; modes must be 0 or 1")
    return tuple(
        DeltaDerivativeTerm(w1 * w2, shift[0], shift[1], (*o1, *o2))
        for (w1, o1), (w2, o2) in itertools.product(*(_MODE_FACTORS[n] for n in occupation))
    )


def pfunc_document(
    occupation: tuple[int, int],
    shift: tuple[PhaseSpacePoint, PhaseSpacePoint],
    p: QuasiProbability,
) -> dict:
    """The P object p of D(shift)|occupation> as a document; its terms are written
    as the (q, p) delta derivatives of the schema."""
    return {
        "schema": SCHEMA,
        "kind": "pfunc",
        "occupation": list(occupation),
        "shift": [shift[0].q, shift[0].p, shift[1].q, shift[1].p],
        "envelope": p.envelope,
        "terms": [
            {
                "coeff": [t.coeff.real, t.coeff.imag],
                "center": list(t.centers),
                "orders": list(t.orders),
            }
            for t in _delta_terms(occupation, shift)
        ],
    }


def _numbers(obj, name: str, length: int, kind=float) -> list:
    """obj[name] as a list of `length` numbers of the given kind, unchanged by
    the conversion (so 1.5 is no int); a ValueError names the field otherwise."""
    if name not in obj:
        raise ValueError(f"pfunc document lacks the field {name!r}")
    value = obj[name]
    if isinstance(value, list) and len(value) == length:
        try:
            numbers = [kind(x) for x in value]
        except (TypeError, ValueError):
            numbers = None
        if numbers == value:
            return numbers
    raise ValueError(f"pfunc field {name!r} must be {length} {kind.__name__} values, got {value!r}")


def pfunc_from_document(doc) -> tuple[tuple[int, int], tuple[PhaseSpacePoint, PhaseSpacePoint], QuasiProbability]:
    """Parse a pfunc document; verifies the terms match the metadata.

    The occupation and shift are what downstream consumers (the matrix
    oracle in particular) need; the explicit term list must agree with
    the one they generate, otherwise the document is inconsistent.
    Malformed documents raise ValueError naming the offending field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a pfunc document is a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    if doc.get("kind") != "pfunc":
        raise ValueError(f"expected a pfunc document, got kind {doc.get('kind')!r}")
    # the phase-space route pairs enveloped P objects only
    if doc.get("envelope", True) is not True:
        raise ValueError(f"pfunc field 'envelope' must be true, got {doc['envelope']!r}")
    occupation = tuple(_numbers(doc, "occupation", 2, int))
    s = _numbers(doc, "shift", 4)
    shift = (PhaseSpacePoint(s[0], s[1]), PhaseSpacePoint(s[2], s[3]))
    if not isinstance(doc.get("terms"), list):
        raise ValueError(f"pfunc field 'terms' must be a list of terms, got {doc.get('terms')!r}")
    terms = []
    for t in doc["terms"]:
        if not isinstance(t, dict):
            raise ValueError(f"each pfunc term is a JSON object, got {t!r}")
        coeff, c = _numbers(t, "coeff", 2), _numbers(t, "center", 4)
        center1, center2 = PhaseSpacePoint(c[0], c[1]), PhaseSpacePoint(c[2], c[3])
        orders = tuple(_numbers(t, "orders", 4, int))
        terms.append(DeltaDerivativeTerm(complex(coeff[0], coeff[1]), center1, center2, orders))
    expected = _delta_terms(occupation, shift)
    if len(expected) != len(terms):
        raise ValueError("pfunc terms do not match the declared state")
    for have, want in zip(terms, expected):
        if have.orders != want.orders or abs(have.coeff - want.coeff) > 1e-12:
            raise ValueError("pfunc terms do not match the declared state")
        for hc, wc in zip(have.centers, want.centers):
            if abs(hc - wc) > 1e-9:
                raise ValueError("pfunc centers do not match the declared shift")
    return occupation, shift, QuasiProbability.from_delta_terms(terms)
