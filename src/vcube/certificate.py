"""An integrity certificate and its text form.

A certificate holds what a peel claims and nothing the rest derives: the
radius parameters (alpha, from which r0 follows), the sampler's T and
seed, the transcript of centers with their ball and sphere counts, the
separator and the claimed value.  `integrity.verify_certificate` audits
one; this module only defines and serializes it.  `RadiusParams` reads
its residual off the radius equation, so the equation's gap is defined
here, and `integrity.solve_radius` bisects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .cube import (
    Family,
    _hex_digits,
    _hex_family,
    format_mask,
    parse_mask,
    read_header,
)
from .errors import DomainError, ParseError


def _radius_target(n: int) -> float:
    return math.sqrt(math.log(n)) / math.sqrt(n)


@dataclass(frozen=True)
class RadiusParams:
    """Solved deletion radius for one dimension; r0 derives from alpha."""

    n: int
    alpha: float

    @property
    def r0(self) -> int:
        return max(0, math.floor(self.n / 2 - self.alpha * math.sqrt(self.n)))

    @property
    def residual(self) -> float:
        return abs(_radius_gap(self.alpha, _radius_target(self.n)))


@dataclass(frozen=True)
class PeelConfig:
    """Sampler settings: candidate centers per step and the RNG seed."""

    samples: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.samples < 0:
            raise DomainError(f"samples must be >= 0, got {self.samples}")


@dataclass(frozen=True)
class PeelStep:
    center: int
    ball_hits: int
    sphere_hits: int


@dataclass(frozen=True)
class IntegrityCertificate:
    """Complete peel transcript plus the claimed integrity upper bound."""

    params: RadiusParams
    config: PeelConfig
    steps: Tuple[PeelStep, ...]
    separator: Family
    value: int

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def separator_size(self) -> int:
        return self.separator.size

    @property
    def max_component(self) -> int:
        """The claimed largest component: value minus the separator."""
        return self.value - self.separator.size


def _radius_gap(alpha: float, target: float) -> float:
    return math.exp(-2.0 * alpha * alpha) / alpha - target


# ---------------------------------------------------------------------------
# Certificate serialization.
#
#   n=<n> alpha=<repr> r0=<r0, as alpha gives it> seed=<seed> T=<samples>
#   <i> <center bitstring> <ball_hits> <sphere_hits>     (i = 0, 1, ...)
#   separator=<hex characteristic vector>                (once)
#   value=<claimed value>                                (once, last)
# ---------------------------------------------------------------------------


def certificate_to_text(cert: IntegrityCertificate) -> str:
    lines = [
        f"n={cert.n} alpha={cert.params.alpha!r} r0={cert.params.r0} "
        f"seed={cert.config.seed} T={cert.config.samples}"
    ]
    for i, s in enumerate(cert.steps):
        lines.append(
            f"{i} {format_mask(s.center, cert.n)} "
            f"{s.ball_hits} {s.sphere_hits}"
        )
    lines.append(f"separator={_hex_digits(cert.separator)}")
    lines.append(f"value={cert.value}")
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> IntegrityCertificate:
    head, body = read_header(text, alpha=float, r0=int, seed=int, T=int)
    n, alpha = head["n"], head["alpha"]
    if n < 3:
        raise ParseError(f"n={n} is below 3", lineno=1)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ParseError(f"alpha={alpha!r} is not a positive number", lineno=1)
    params = RadiusParams(n, alpha)
    if head["r0"] != params.r0:
        raise ParseError(f"r0 should be {params.r0} for this alpha", lineno=1)
    steps = []
    separator = value = None
    lineno = 1
    for lineno, ln in body:
        if separator is not None:
            if value is not None or not ln.startswith("value="):
                raise ParseError("value= must come once, last", lineno=lineno)
            try:
                value = int(ln[len("value=") :])
            except ValueError:
                raise ParseError("bad claimed value", lineno=lineno) from None
            continue
        if ln.startswith("separator="):
            separator = _hex_family(ln[len("separator=") :], n, lineno)
            continue
        parts = ln.split()
        if len(parts) != 4:
            raise ParseError("expected 'i center ball sphere'", lineno=lineno)
        try:
            idx, ball_hits, sphere_hits = (int(parts[i]) for i in (0, 2, 3))
            center = parse_mask(parts[1], n)
        except (ValueError, DomainError) as exc:
            raise ParseError(str(exc), lineno=lineno) from None
        if idx != len(steps):
            raise ParseError(f"expected step {len(steps)}", lineno=lineno)
        steps.append(PeelStep(center, ball_hits, sphere_hits))
    if value is None:
        raise ParseError(
            "certificate truncated: missing separator or value", lineno=lineno
        )
    config = PeelConfig(samples=head["T"], seed=head["seed"])
    return IntegrityCertificate(params, config, tuple(steps), separator, value)
