"""Serialization for command output and P-object round trips.

CSV columns and the JSON schema tag are stable interfaces; numbers are
written in scientific notation with 12 significant digits so identical
inputs produce identical bytes.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import operator

from .geomphase import PhaseScenario, ReconciliationRow
from .pdistribution import PhaseSpacePoint

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


# One CSV line of a sweep row: format_float of the six numbers (nan for None)
# and the flag. No field needs quoting: numbers in this format and the flags
# hold no comma, quote or line break.
_SWEEP_LINE = "{:.11e},{:.11e},{:.11e},{:.11e},{:.11e},{:.11e},{}\n"
_sweep_values = operator.itemgetter(*SWEEP_COLUMNS)


def write_sweep_csv(rows, fh):
    fh.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        values = _sweep_values(row)
        if None in values:
            values = [math.nan if v is None else v for v in values]
        fh.write(_SWEEP_LINE.format(*values))


def sweep_document(rows, n_max: int, tolerance: float) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "sweep",
        "n_max": n_max,
        "tolerance": tolerance,
        "rows": [
            {**{name: _round_trip(r[name]) for name in SWEEP_COLUMNS[:-1]}, "flag": r["flag"]}
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
        "checks": [dataclasses.asdict(c) for c in checks],
    }


# Per-mode (q, p) delta-derivative factors of the schema's terms, coefficients in
# the absorbed-measure convention: (coefficient, (dq, dp)). |1> is
# (1/4)(d_q^2 + d_p^2), which is the d_z d_zbar of mehta_p_function.
_MODE_FACTORS = {0: ((1.0, (0, 0)),), 1: ((0.25, (2, 0)), (0.25, (0, 2)))}


def _delta_terms(occupation) -> list:
    """(coeff, orders) of each (q, p) term of the P of |occupation>, in the schema's
    order; a displaced state's terms sit at its shift."""
    if any(n not in _MODE_FACTORS for n in occupation):
        raise ValueError(f"unsupported occupation {occupation}; modes must be 0 or 1")
    return [
        (w1 * w2, (*o1, *o2))
        for (w1, o1), (w2, o2) in itertools.product(*(_MODE_FACTORS[n] for n in occupation))
    ]


def pfunc_document(occupation: tuple[int, int], shift: tuple[PhaseSpacePoint, PhaseSpacePoint]) -> dict:
    """The P object of D(shift)|occupation> as a document; its terms are written
    as the (q, p) delta derivatives of the schema, with the envelope that
    mehta_p_function always attaches."""
    center = [shift[0].q, shift[0].p, shift[1].q, shift[1].p]
    return {
        "schema": SCHEMA,
        "kind": "pfunc",
        "occupation": list(occupation),
        "shift": center,
        "envelope": True,
        "terms": [
            {"coeff": [coeff, 0.0], "center": list(center), "orders": list(orders)}
            for coeff, orders in _delta_terms(occupation)
        ],
    }


def _numbers(obj, name: str, length: int, kind=float) -> list:
    """obj[name] as a list of `length` finite numbers of the given kind, unchanged
    by the conversion (so 1.5 is no int); a ValueError names the field otherwise."""
    if name not in obj:
        raise ValueError(f"pfunc document lacks the field {name!r}")
    value = obj[name]
    # JSON true and false are no numbers, though bool is an int subclass; json.load
    # reads NaN and Infinity, and a list of NaN equals itself
    if isinstance(value, list) and len(value) == length and not any(
            isinstance(x, bool) or (isinstance(x, float) and not math.isfinite(x)) for x in value):
        try:
            numbers = [kind(x) for x in value]
        except (TypeError, ValueError, OverflowError):
            numbers = None
        if numbers == value:
            return numbers
    raise ValueError(
        f"pfunc field {name!r} must be {length} finite {kind.__name__} values, got {value!r}")


def pfunc_from_document(doc) -> tuple[tuple[int, int], tuple[PhaseSpacePoint, PhaseSpacePoint]]:
    """Parse a pfunc document into its occupation and shift; verifies the terms
    match them.

    The occupation and shift are what the routes read, and they determine the
    P object (mehta_p_function); the explicit term list must agree with the
    one they generate, otherwise the document is inconsistent. Malformed
    documents raise ValueError naming the offending field.
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
        coeff = _numbers(t, "coeff", 2)
        terms.append((complex(*coeff), _numbers(t, "center", 4), tuple(_numbers(t, "orders", 4, int))))
    expected = _delta_terms(occupation)
    # written so that a NaN fails them, though _numbers lets none through
    if len(terms) != len(expected) or not all(
            orders == want_orders and abs(coeff - want) <= 1e-12
            for (coeff, _, orders), (want, want_orders) in zip(terms, expected)):
        raise ValueError("pfunc terms do not match the declared state")
    if not all(abs(x - y) <= 1e-9 for _, center, _ in terms for x, y in zip(center, s)):
        raise ValueError("pfunc centers do not match the declared shift")
    return occupation, shift
