"""Closed forms for two-mode coherent states.

A label z = (z1, z2) stands for the product coherent state |z1>|z2>.
All results here are exact analytic expressions; the truncated Fock
module reproduces them up to leakage and serves as the numerical check.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import METHOD_COHERENT_CLOSED_FORM, PhaseResult, phase_result, principal_phase

__all__ = [
    "CoherentLabel",
    "overlap",
    "label_map_matrix",
    "polarizer_label_map",
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

    def as_array(self) -> np.ndarray:
        return np.array([self.z1, self.z2])


def overlap(a: CoherentLabel, b: CoherentLabel) -> complex:
    """<a|b> = exp{-(|a|^2 + |b|^2)/2 + conj(a1) b1 + conj(a2) b2}."""
    exponent = (
        -0.5 * (a.norm_sq + b.norm_sq)
        + np.conjugate(a.z1) * b.z1
        + np.conjugate(a.z2) * b.z2
    )
    return cmath.exp(complex(exponent))


def label_map_matrix(theta: float) -> np.ndarray:
    """2x2 matrix of the label map induced by the polarizer at angle theta.

    Acting on (z1, z2) it gives (z1 cos t - i z2 sin t, z2 cos t - i z1 sin t),
    the label of U_p†(theta)|z1, z2>. Unitary, and a group homomorphism in
    theta: M(s) M(t) = M(s + t).
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def polarizer_label_map(theta: float, v: CoherentLabel) -> CoherentLabel:
    """Label of the polarizer-evolved coherent state (u† |v> convention).

    Matches fock.evolve_state exactly: evolving the state vector of |v>
    yields the state vector of this label, with no residual phase.
    """
    w1, w2 = label_map_matrix(theta) @ v.as_array()
    return CoherentLabel(z1=complex(w1), z2=complex(w2))


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
        np.conjugate(a.z1) * b.z1
        + np.conjugate(b.z1) * c.z1
        + np.conjugate(c.z1) * a.z1
        + np.conjugate(a.z2) * b.z2
        + np.conjugate(b.z2) * c.z2
        + np.conjugate(c.z2) * a.z2
    )
    invariant = overlap(a, b) * overlap(b, c) * overlap(c, a)
    return phase_result(
        invariant,
        METHOD_COHERENT_CLOSED_FORM,
        phase=principal_phase(float(np.imag(bilinear))),
    )
