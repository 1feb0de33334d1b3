"""Diagonal coherent-state (P) representations of low Fock states.

A state rho is written rho = integral P(z1, z2) |z1, z2><z1, z2| d^2z1 d^2z2
with z = q + ip per mode. For Fock states the weight P is a finite sum of
derivatives of delta functions times a divergent Gaussian envelope
exp{+|z - center|^2}; the envelope is attached per term and recentres
under displacement, so a displaced state's P is the rigidly translated P.

Normalization convention: the flat measure constants are absorbed into the
term coefficients, so that pairing P against a test function f,
integral P(x) f(x) dx, reproduces matrix elements directly: f(z) = <m|z><z|n>
gives <m|rho|n>, and f = 1 gives Tr rho = 1.

P objects are born in Wirtinger form (z, conj z) per mode, where
(1/4)(d_q^2 + d_p^2) = d_z d_zbar: mehta_p_function builds every supported
state as one WirtingerTerm. The pfunc schema's (q, p) terms are written and
checked in module io.

The Bargmann invariant reads a state's occupation and centers directly
(module geomphase) and builds no P object. The general engine that pairs P
objects of any number of terms with Gaussian test functions is the tests'
reference for that route (tests/oracles.py). See docs/derivations.md.

Two-mode states are tensor products of the per-mode factors. Occupations
above 1 are outside the supported family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

__all__ = [
    "PhaseSpacePoint",
    "WirtingerTerm",
    "QuasiProbability",
    "mehta_p_function",
]

@dataclass(frozen=True)
class PhaseSpacePoint:
    """Point (q, p) in a single mode's phase plane; z = q + ip."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError("phase-space coordinates must be finite")

    @classmethod
    def from_complex(cls, z: complex) -> "PhaseSpacePoint":
        return cls(q=z.real, p=z.imag)

    def to_complex(self) -> complex:
        return complex(self.q, self.p)

    def shifted(self, dq: float, dp: float) -> "PhaseSpacePoint":
        return PhaseSpacePoint(self.q + dq, self.p + dp)


ORIGIN = PhaseSpacePoint(0.0, 0.0)


class WirtingerTerm(NamedTuple):
    """A P term in Wirtinger form: paired with f it gives coeff times d^z_vars d^zbar_vars
    of envelope * f at the centers (c1, c2), so coeff holds the sign (-1)^order of the
    delta derivatives. The vars name the differentiated modes, 0 and 1."""

    coeff: complex
    centers: tuple[complex, complex]
    z_vars: tuple
    zbar_vars: tuple


@dataclass(frozen=True)
class QuasiProbability:
    """Finite delta-derivative representation of a P distribution, as WirtingerTerms."""

    terms: tuple[WirtingerTerm, ...]
    envelope: bool = True

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a QuasiProbability needs at least one term")

    def shifted(self, d1: PhaseSpacePoint, d2: PhaseSpacePoint) -> "QuasiProbability":
        """Rigid translation by a displacement (d1 on mode 1, d2 on mode 2)."""
        d = (d1.to_complex(), d2.to_complex())
        return replace(self, terms=tuple(
            t._replace(centers=(t.centers[0] + d[0], t.centers[1] + d[1])) for t in self.terms
        ))

    def scaled(self, factor: complex) -> "QuasiProbability":
        return replace(self, terms=tuple(t._replace(coeff=t.coeff * factor) for t in self.terms))

    def combined(self, other: "QuasiProbability") -> "QuasiProbability":
        """Formal sum; pairing is linear over it."""
        if self.envelope != other.envelope:
            raise ValueError("cannot combine representations with different envelopes")
        return QuasiProbability(terms=self.terms + other.terms, envelope=self.envelope)


def mehta_p_function(
    occupation: tuple[int, int],
    shift: tuple[PhaseSpacePoint, PhaseSpacePoint] = (ORIGIN, ORIGIN),
) -> QuasiProbability:
    """P representation of a (displaced) two-mode Fock state |n1, n2>.

    Supported occupations are {0, 1} per mode. The shift places the state
    at phase-space centers (c1, c2), matching the displaced Fock state
    D(c1, c2)|n1, n2> with c = q + ip. The P is one Wirtinger term with
    coefficient 1: d_z d_zbar on each occupied mode.
    """
    if any(n not in (0, 1) for n in occupation):
        raise ValueError(f"unsupported occupation {occupation}; modes must be 0 or 1")
    modes = tuple(mode for mode, n in enumerate(occupation) if n)
    centers = (shift[0].to_complex(), shift[1].to_complex())
    return QuasiProbability(terms=(WirtingerTerm(1.0, centers, modes, modes),))
