"""Closed forms for two-mode coherent states.

A label z = (z1, z2) stands for the product coherent state |z1>|z2>.
All results here are exact analytic expressions; the truncated Fock
module reproduces them up to leakage and serves as the numerical check.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .fock import METHOD_COHERENT_CLOSED_FORM, PhaseResult, phase_result, principal_phase

__all__ = [
    "CoherentLabel",
    "overlap",
    "bargmann_triple_coherent",
]


@dataclass(frozen=True)
class CoherentLabel:
    """Complex amplitude pair labelling a two-mode coherent state."""

    z1: complex
    z2: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.z1) and cmath.isfinite(self.z2)):
            raise ValueError("coherent labels must be finite")

    @property
    def norm_sq(self) -> float:
        return abs(self.z1) ** 2 + abs(self.z2) ** 2


def overlap(a: CoherentLabel, b: CoherentLabel) -> complex:
    """<a|b> = exp{-(|a|^2 + |b|^2)/2 + conj(a1) b1 + conj(a2) b2}.

    The exponent's real part is at most 0 in exact arithmetic. On huge labels
    a squared norm can overflow, or the real part can round far above exp's
    range; either gives a non-finite overlap, which method_reconciliation
    rejects.
    """
    try:
        exponent = (
            -0.5 * (a.norm_sq + b.norm_sq)
            + a.z1.conjugate() * b.z1
            + a.z2.conjugate() * b.z2
        )
        return cmath.exp(complex(exponent))
    except (OverflowError, ValueError):
        return complex(math.nan, math.nan)


def bargmann_triple_coherent(
    a: CoherentLabel, b: CoherentLabel, c: CoherentLabel
) -> PhaseResult:
    """Bargmann invariant of three coherent states, in closed form.

    The invariant is <a|b><b|c><c|a>; its modulus is
    exp{-(|a-b|^2 + |b-c|^2 + |c-a|^2) / 2} and its phase is

        Im[ conj(a1) b1 + conj(b1) c1 + conj(c1) a1 ] + (mode 2 term)

    which equals twice the sum of the signed areas of the two phase-plane
    triangles (a_i, b_i, c_i). The phase is computed from the bilinear sum
    directly so that exactly representable inputs give exact phases.
    """
    bilinear = (
        a.z1.conjugate() * b.z1
        + b.z1.conjugate() * c.z1
        + c.z1.conjugate() * a.z1
        + a.z2.conjugate() * b.z2
        + b.z2.conjugate() * c.z2
        + c.z2.conjugate() * a.z2
    )
    invariant = overlap(a, b) * overlap(b, c) * overlap(c, a)
    return phase_result(
        invariant,
        METHOD_COHERENT_CLOSED_FORM,
        phase=principal_phase(bilinear.imag),
    )
