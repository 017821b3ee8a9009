"""Greedy sphere-peeling for hypercube integrity upper bounds.

The radius r0 = floor(n/2 - alpha*sqrt(n)) comes from solving
exp(-2*alpha^2)/alpha = sqrt(ln n)/sqrt(n).  Peeling repeatedly picks a
center whose radius-r0 sphere is cheap relative to its ball within the
still-alive family, removes the ball, and charges only the sphere to the
separator.  A certificate stores the transcript (centers and their
ball/sphere counts), the separator and the claimed value; the audit
replays it with the peel's own step function, re-deriving every count
and separator bit, and derives the separator size and largest component.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .cube import (
    Family,
    _ball_bits,
    _byte_len,
    _component_index_lists,
    _gosper,
    _hex_family,
    _layer_bits,
    binom_leq,
    flood_component_sizes,
    format_mask,
    layer,
    log_binom,
    log_binom_leq,
    max_dim,
    parse_mask,
    read_header,
    translate_bits,
)
from .errors import (
    BudgetError,
    DomainError,
    ParseError,
    SolverError,
    VerificationError,
)

RESIDUAL_TOL = 1e-12


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


def solve_radius(n: int) -> RadiusParams:
    """Bisect the radius equation; the gap function is strictly decreasing."""
    if n < 3:
        raise DomainError(f"radius solver needs n >= 3, got n={n}")
    target = _radius_target(n)
    lo, hi = 1e-6, math.sqrt(math.log(n))
    if _radius_gap(lo, target) <= 0 or _radius_gap(hi, target) >= 0:
        raise SolverError(f"no sign change on [{lo}, {hi}] for n={n}")
    alpha = lo
    for _ in range(500):
        alpha = 0.5 * (lo + hi)
        gap = _radius_gap(alpha, target)
        if abs(gap) <= RESIDUAL_TOL:
            break
        if gap > 0:
            lo = alpha
        else:
            hi = alpha
    params = RadiusParams(n, alpha)
    if params.residual > RESIDUAL_TOL:
        raise SolverError(
            f"bisection stalled at residual {params.residual:.3e} for n={n}"
        )
    if params.r0 < 2:
        warnings.warn(
            f"deletion radius r0={params.r0} for n={n}; peeling degrades "
            f"toward single-vertex removal",
            stacklevel=2,
        )
    return params


def census(family: Family, x: int, r0: int) -> Tuple[int, int]:
    """(|ball ∩ F|, |sphere ∩ F|) at radius r0 around x."""
    n = family.n
    if not 0 <= r0 <= n:
        raise DomainError(f"radius r0={r0} outside [0, {n}]")
    return _peel_step(family.bits, x, n, r0)[2:]


def _sparse_census_limit(n: int) -> int:
    """Live-member count under which scanning a member list beats
    translating the full 2^n-bit vector (measured crossover ~ n*2^n/1000).
    Both census paths count exactly, so the switch never changes a
    certificate."""
    return (n << n) >> 10


def _choose_center(
    alive: int,
    alive_count: int,
    n: int,
    r0: int,
    samples: int,
    rng: random.Random,
) -> int:
    """Argmin of sphere/ball over sampled centers plus one member of F.

    Candidates whose ball misses F entirely rank last so the returned
    center always removes at least one vertex; ties break toward the
    numerically smallest mask.  Ratios compare exactly as fractions.
    """
    ball0 = _ball_bits(n, r0)
    sphere0 = _layer_bits(n, r0)
    members = None
    if alive_count <= _sparse_census_limit(n):
        members = list(Family(n, alive))
    pool = [rng.getrandbits(n) for _ in range(samples)]
    if members is None:
        pool.append(Family(n, alive).select(rng.randrange(alive_count)))
    else:
        pool.append(members[rng.randrange(alive_count)])
    best = None
    for x in pool:
        if members is None:
            shifted = translate_bits(alive, x, n)
            b = (shifted & ball0).bit_count()
            s = (shifted & sphere0).bit_count()
        else:
            b = s = 0
            for v in members:
                d = (v ^ x).bit_count()
                if d <= r0:
                    b += 1
                    if d == r0:
                        s += 1
        key = (b == 0, Fraction(s, b if b else 1), x)
        if best is None or key < best:
            best = key
    return best[2]


def choose_center(
    family: Family, r0: int, cfg: PeelConfig, rng: Optional[random.Random] = None
) -> int:
    """Public face of the center chooser: returns the winning mask."""
    if not family.bits:
        raise DomainError("cannot choose a center for the empty family")
    if rng is None:
        rng = random.Random(cfg.seed)
    return _choose_center(
        family.bits, family.size, family.n, r0, cfg.samples, rng
    )


def _peel_step(alive: int, x: int, n: int, r0: int) -> Tuple[int, ...]:
    """Remove the radius-r0 ball around x from the alive set.

    Returns (alive minus the ball, sphere ∩ alive, |ball ∩ alive|,
    |sphere ∩ alive|).  The peel and the audit both call this.
    """
    ball = translate_bits(_ball_bits(n, r0), x, n) & alive
    sphere = translate_bits(_layer_bits(n, r0), x, n) & alive
    return alive ^ ball, sphere, ball.bit_count(), sphere.bit_count()


def _max_component_via_bfs(bits: int, n: int) -> int:
    return max(map(len, _component_index_lists(bits, n)), default=0)


def peel(n: int, cfg: PeelConfig = PeelConfig()) -> IntegrityCertificate:
    """Run the greedy sphere-peeling process to completion.

    Deterministic for a fixed (n, cfg): one RNG seeded once drives every
    sampling decision.  The per-step ball removals partition the cube, so
    the loop terminates after at most 2^n steps.
    """
    if n < 3:
        raise DomainError(f"peeling needs n >= 3, got n={n}")
    if n > max_dim():
        raise DomainError(f"n={n} is over the dimension cap {max_dim()}")
    params = solve_radius(n)
    r0 = params.r0
    rng = random.Random(cfg.seed)
    alive = full = (1 << (1 << n)) - 1
    alive_count = 1 << n
    sep = 0
    steps: List[PeelStep] = []
    while alive:
        x = _choose_center(alive, alive_count, n, r0, cfg.samples, rng)
        alive, sphere, ball_hits, sphere_hits = _peel_step(alive, x, n, r0)
        sep |= sphere
        alive_count -= ball_hits
        steps.append(PeelStep(x, ball_hits, sphere_hits))
    separator = Family(n, sep)
    max_comp = _max_component_via_bfs(sep ^ full, n)
    return IntegrityCertificate(
        params, cfg, tuple(steps), separator, separator.size + max_comp
    )


def verify_certificate(cert: IntegrityCertificate) -> int:
    """Replay the peel transcript from the full cube; return the value.

    After the alpha check, an O(steps) pre-filter on the recorded counts
    bounds the replay before any big-integer work.  The replay re-runs
    each step with the peel's own step function: the recomputed counts
    must equal the recorded ones, and the rebuilt separator must equal
    the stored one bit for bit.  That puts every component of Q_n minus
    the separator inside one recorded ball, so only the largest one is
    recomputed (by BFS) and checked against the C(n,<=r0) cap and the
    claimed value.  Raises VerificationError naming the first offender.
    """
    n = cert.n
    params = cert.params
    r0 = params.r0
    if params.residual > 1e-9:
        raise VerificationError(
            f"alpha={params.alpha!r} does not solve the radius equation"
        )
    ball_total = 0
    for i, step in enumerate(cert.steps):
        if step.center < 0 or step.center >> n:
            raise VerificationError(f"step {i} center does not fit n={n}")
        if step.ball_hits < 1:
            raise VerificationError(f"step {i} removed no vertices")
        ball_total += step.ball_hits
    if ball_total != 1 << n:
        raise VerificationError(
            f"ball removals sum to {ball_total}, expected 2^{n}"
        )
    if cert.separator.n != n:
        raise VerificationError("separator dimension mismatch")
    alive = full = (1 << (1 << n)) - 1
    sep = 0
    for i, step in enumerate(cert.steps):
        alive, sphere, ball_hits, sphere_hits = _peel_step(
            alive, step.center, n, r0
        )
        if (ball_hits, sphere_hits) != (step.ball_hits, step.sphere_hits):
            raise VerificationError(
                f"step {i} replays as ball {ball_hits}, sphere "
                f"{sphere_hits}; recorded {step.ball_hits}, {step.sphere_hits}"
            )
        sep |= sphere
    if alive:
        raise VerificationError("vertices survive the last step")
    if sep != cert.separator.bits:
        raise VerificationError(
            f"separator differs from the replayed sphere charges in "
            f"{(sep ^ cert.separator.bits).bit_count()} vertices"
        )
    max_comp = _max_component_via_bfs(sep ^ full, n)
    cap = binom_leq(n, r0)
    if max_comp > cap:
        raise VerificationError(
            f"largest component has {max_comp} vertices, over the "
            f"C(n,<=r0) cap {cap}"
        )
    audited = cert.separator.size + max_comp
    if audited != cert.value:
        raise VerificationError(
            f"audited value {audited} (separator {cert.separator.size} + "
            f"component {max_comp}) contradicts the claimed {cert.value}"
        )
    return audited


# ---------------------------------------------------------------------------
# Exact oracle and baselines.
# ---------------------------------------------------------------------------


def exact_integrity(n: int) -> int:
    """I(Q_n) by exhausting removal sets in increasing size.

    Every candidate of size s scores at least s+1 while vertices remain,
    so sizes at or past the incumbent are skipped entirely.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    if n > 4:
        raise BudgetError(
            f"exact integrity enumerates 2^(2^n) removal sets; n={n} is "
            f"over the n <= 4 guard"
        )
    size = 1 << n
    full = (1 << size) - 1
    best = size  # removing everything
    for s in range(size):
        if s + 1 >= best:
            break
        for v in _gosper(size, s):
            best = min(best, s + max(flood_component_sizes(full ^ v, n)))
    return best


def middle_layer_baseline(n: int) -> int:
    """Integrity value of the trivial cut: remove the middle layer.

    Measured by actual removal and component sizing, not a closed form.
    """
    if n < 2:
        raise DomainError(f"baseline needs n >= 2, got n={n}")
    cut = layer(n, n // 2)
    alive = cut.complement().bits
    sizes = flood_component_sizes(alive, n)
    return cut.size + (max(sizes) if sizes else 0)


# ---------------------------------------------------------------------------
# Log-domain density audit.
#
# ball_ratio(n)   = C(n,<=r0) * sqrt(n) / (2^n * sqrt(ln n))
# sphere_ratio(n) = C(n,r0)   * n       / (2^n * ln n)
# Both should sit in a bounded band if r0 tracks the intended scaling.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityRow:
    n: int
    alpha: float
    r0: int
    ball_ratio: float
    sphere_ratio: float


def density_audit(dims: Sequence[int]) -> List[DensityRow]:
    """Normalized ball/sphere densities at the solved radius, per n."""
    rows = []
    for n in dims:
        if n < 8:
            raise DomainError(f"density audit needs n >= 8, got n={n}")
        params = solve_radius(n)
        ln2 = math.log(2)
        lln = math.log(math.log(n))
        log_ball = (
            log_binom_leq(n, params.r0)
            + 0.5 * math.log(n)
            - n * ln2
            - 0.5 * lln
        )
        log_sphere = (
            log_binom(n, params.r0) + math.log(n) - n * ln2 - lln
        )
        rows.append(
            DensityRow(
                n=n,
                alpha=params.alpha,
                r0=params.r0,
                ball_ratio=math.exp(log_ball),
                sphere_ratio=math.exp(log_sphere),
            )
        )
    return rows


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
    width = max(1, _byte_len(cert.n) * 2)
    lines.append(f"separator={cert.separator.bits:0{width}x}")
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
