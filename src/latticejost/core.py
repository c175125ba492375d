"""Domain types for compactly supported lattice potentials and the z <-> lambda map.

The spectral parameter of the half-line difference operator lives on two
charts: the energy lambda, whose continuous band is [0, 4], and the complex
variable z with lambda = 2 - z - 1/z.  Energies below the band map to
z in (0, 1), energies above the band to z in (-1, 0), and the band itself
to the upper unit semicircle.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import TrailingZeroError, ZeroArgumentError

__all__ = [
    "Potential",
    "SpectralPoint",
    "NumericConfig",
    "validate_potential",
    "lambda_to_z",
    "z_to_lambda",
    "load_potential",
]


@dataclass(frozen=True)
class Potential:
    """Real potential supported on lattice sites 1..b with a nonzero last value.

    ``b = 0`` is the trivial potential (empty value tuple).
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"potential entries must be finite, got {v!r}")
        if self.values and self.values[-1] == 0:
            raise TrailingZeroError(
                "last potential entry is zero; trim the list or fix the value"
            )

    @property
    def b(self) -> int:
        return len(self.values)

    def scaled(self, t: float) -> "Potential":
        return Potential(tuple(t * v for v in self.values))

    def negated(self) -> "Potential":
        return Potential(tuple(-v for v in self.values))


def validate_potential(values: Sequence[float]) -> Potential:
    """Build a :class:`Potential`, rejecting a trailing zero entry.

    No silent trimming: a list ending in 0 raises :class:`TrailingZeroError`
    so the caller can decide whether trimming is intended.
    """
    return Potential(tuple(float(v) for v in values))


@dataclass(frozen=True)
class SpectralPoint:
    """A point (z, lambda) on the spectral curve lambda = 2 - z - 1/z."""

    z: complex
    lam: complex

    def __post_init__(self) -> None:
        if self.z == 0:
            raise ZeroArgumentError("z = 0 is not on the spectral curve")

    @classmethod
    def from_z(cls, z: complex) -> "SpectralPoint":
        return cls(z, z_to_lambda(z))

    @classmethod
    def from_lambda(cls, lam: float) -> "SpectralPoint":
        return cls(lambda_to_z(lam), lam)


@dataclass(frozen=True)
class NumericConfig:
    """The precision mode, and the two thresholds that it alone sets.

    tau_real:    |Im z| below which a root is snapped to the real axis;
                 also how far below 1, at least 4 ulps, |z| of a nonreal
                 root must be for it to count as inside the unit circle.
    tau_cluster: pairwise distance below which roots with |z| >= 1 merge
                 into one multiple root; the zeros inside the unit disk
                 are bound states, real and simple, and never merge.

    Standard precision uses 1e-9 and 1e-6; extended scales both by 1e-10,
    as its 40-digit root refinement makes tighter decisions meaningful.  No
    threshold decides the edge (exceptional) zeros at z = +-1: there is one
    exactly where f0(+-1) = 0 on the exact coefficients.
    """

    precision_mode: str = "standard"

    def __post_init__(self) -> None:
        if self.precision_mode not in ("standard", "extended"):
            raise ValueError(f"unknown precision mode {self.precision_mode!r}")

    @classmethod
    def extended(cls) -> "NumericConfig":
        return cls("extended")

    @property
    def tau_real(self) -> float:
        return 1e-9 * 1e-10 if self.is_extended else 1e-9

    @property
    def tau_cluster(self) -> float:
        return 1e-6 * 1e-10 if self.is_extended else 1e-6

    @property
    def is_extended(self) -> bool:
        return self.precision_mode == "extended"


def lambda_to_z(lam: float) -> complex:
    """Map an energy to the unit-disk chart, z = 1 - lam/2 + sqrt(lam(lam-4))/2.

    Principal branch of the square root.  Band edges map exactly:
    lambda = 0 -> z = 1 and lambda = 4 -> z = -1.  Off the band the disk
    root is 1 / the other, reciprocal, root, whose two terms share a sign,
    and sqrt(|lam|) sqrt(|lam - 4|) stays in range: nothing cancels.
    """
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    if 0.0 < lam < 4.0:
        z = 1.0 - lam / 2.0 + 0.5 * cmath.sqrt(complex(lam * (lam - 4.0)))
        # in-band points lie on the unit circle; renormalize the modulus
        return z / abs(z)
    big = 0.5 * abs(lam - 2.0) + 0.5 * math.sqrt(abs(lam)) * math.sqrt(abs(lam - 4.0))
    return complex(math.copysign(1.0 / big, 2.0 - lam))


def z_to_lambda(z: complex) -> complex:
    """Inverse chart map, lambda = 2 - z - 1/z, computed as -(1 - z)^2 / z.

    That form has no cancellation near z = 1, where 2 - z - 1/z loses every
    digit (it gives 0 at z = 1 - 2^-30).
    """
    if z == 0:
        raise ZeroArgumentError("z = 0 has no finite energy")
    return -((1.0 - z) ** 2) / z


def load_potential(source: str | Path) -> Potential:
    """Parse a potential from a file path or an inline string.

    Accepted formats: a JSON array of reals, or plain text with one real
    per line.  An inline string is parsed with the same two rules.  A JSON
    entry must be a number: null, true, a string, an array or an object
    raises ValueError.
    """
    text: str
    path = Path(source) if not isinstance(source, Path) else source
    try:
        exists = path.exists()
    except OSError:
        exists = False
    if exists and path.is_file():
        text = path.read_text(encoding="utf-8")
    else:
        text = str(source)
    text = text.strip()
    if not text:
        return Potential(())
    try:
        # an int too large for a float parses to inf, which Potential rejects
        data = json.loads(text, parse_int=float)
    except json.JSONDecodeError:
        data = None
    if data is not None:
        if not isinstance(data, list) or any(type(x) is not float for x in data):
            raise ValueError("potential JSON must be an array of reals")
        return validate_potential(data)
    values = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        values.append(float(line))
    return validate_potential(values)
