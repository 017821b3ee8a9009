"""Greedy sphere-peeling for hypercube integrity upper bounds.

The radius r0 = floor(n/2 - alpha*sqrt(n)) comes from solving
exp(-2*alpha^2)/alpha = sqrt(ln n)/sqrt(n).  Peeling repeatedly picks,
among sampled centers, one whose radius-r0 sphere is cheap relative to
its ball within the still-alive family, removes the ball, and charges
only the sphere to the separator.  The largest component of the cube
minus the separator is C(n, <= r0-1), in closed form.  The certificate
(`certificate.py`) stores the sampler's seed and T, the transcript
(centers and their ball/sphere counts), the separator and the claimed
value.  The audit checks the value against `integrity_lower_bound`,
replays the peel's own sampler draws and block step, and recomputes the
largest component: the isolated vertices word-parallel, then a BFS of
the rest.

The sets live in `_BlockState`, a bit matrix with one row per top part
and one column per low part of a vertex, kept in both orientations.  A
candidate's census reads the rows near its top part, masked by balls
around its low part, and the far rings from the columns near its low
part, masked by balls around its top part; one rule (`_near_rings`)
sets where rows give way to columns, from n and r0 alone, and one
reader (`_read`) reads the rings of either.  Each orientation holds 2^n
bits.  One memo rule (`_masks`) gives every mask: per low part, 2^10 at
most, and per top part, keyed on at most its low 2L - h bits so that
those memos stay below the low-part one's size; neither a census nor a
remove translates anything while h <= L, that is n <= 20.
"""

from __future__ import annotations

import math
import random
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Dict, Iterator, List, Sequence, Tuple

from .cube import (
    Family,
    _ball_bits,
    _blocks,
    _check_mask,
    _gosper,
    _join,
    _transpose,
    binom_leq,
    log_binom,
    log_binom_leq,
    max_dim,
    translate_bits,
)
from .graph import (
    _component_index_lists,
    _drop_isolated,
    flood_component_sizes,
)
from .certificate import (
    IntegrityCertificate,
    PeelConfig,
    PeelStep,
    RadiusParams,
    _radius_gap,
    _radius_target,
    # not used here: the CLI and the benchmark call them through this module
    certificate_from_text,
    certificate_to_text,
)
from .errors import (
    Budget,
    BudgetError,
    DomainError,
    SolverError,
    VerificationError,
)

RESIDUAL_TOL = 1e-12

# Sampler draws one audit may replay, steps * (T + 1): a few seconds.
REPLAY_DRAW_BUDGET = 10**7


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
    """(|ball ∩ F|, |sphere ∩ F|) at radius r0 around x, every ring read
    from the row blocks: columns would cost a transpose of the family."""
    n = family.n
    if not 0 <= r0 <= n:
        raise DomainError(f"radius r0={r0} outside [0, {n}]")
    _check_mask(x, n)
    state = _BlockState(family.bits, n, r0)
    low = state.low
    rows = state._rows(x & ((1 << low) - 1))
    b, inner = _read(state.blocks, x >> low, state.rings, rows)
    return b, b - inner


def _block_split(n: int) -> Tuple[int, int]:
    """(h, L) with h + L = n: the peel keeps 2^h blocks of 2^L bits.

    L <= 10 bounds the peel's mask memo; h >= 1 keeps every mask
    translate below dimension n, for n >= 1 (Q_0 is one block of 1 bit).
    """
    h = min(max(n // 3, n - 10, 1), n)
    return h, n - h


def _near_rings(h: int, low: int, r0: int) -> int:
    """The split rule: the census reads row blocks at top distance up to
    `near` and columns past it.

    Rows cost one read per h-bit e with |e| <= near, columns one per L-bit
    e with |e| <= r0 - near - 1, and the column upkeep (the transpose, and
    each remove's clearing of the columns with memoised balls, no
    translate) is counted as h besides.  The least total wins; ties go to
    rows only, near = min(r0, h), which is every n <= 15 at the solved
    radius, and every h <= 2, so n = 1 (L = 0) never reads columns.
    """
    top = min(r0, h)

    def reads(near: int) -> int:
        rows = binom_leq(h, near)
        if near == top:
            return rows
        return rows + binom_leq(low, min(r0 - near - 1, low)) + h

    return min(range(top, -1, -1), key=reads)


def _top_key_width(h: int, low: int) -> int:
    """Bits of the top part that key the top-part memos: all h while
    h <= L (n <= 20), then three fewer for each top bit past L, down to
    0.  So 2^k keys of 2^h-bit masks never pass the 4^L bits they take at
    n = 20, and shrink past it while the rows and columns grow."""
    return max(0, min(h, 3 * low - 2 * h))


def _masks(memo: Dict[int, Tuple[int, ...]], base: Sequence[int], part: int,
           key: int, dim: int) -> Tuple[int, ...]:
    """The masks of `base` translated by `part` in Q_dim, then a 0 that is
    never translated: the one rule of every mask memo, which memoises the
    translates on part & key and translates them by the rest of part."""
    k = part & key
    masks = memo.get(k)
    if masks is None:
        masks = memo[k] = (*(translate_bits(m, k, dim) for m in base), 0)
    if part != k:
        masks = (*(translate_bits(m, part ^ k, dim) for m in masks[:-1]), 0)
    return masks


def _read(matrix: List[int], at: int, rings: List[List[int]],
          masks: Sequence[int]) -> Tuple[int, int]:
    """(ball, inner) popcounts of rows or columns matrix[at ^ e], e in ring
    d, under masks[d] and masks[d + 1].  A ring whose inner mask is 0 lies
    on the sphere, so its inner reads are skipped: 45 of 56 at n = 18."""
    b = inner = 0
    for ring, outer, inside in zip(rings, masks, masks[1:]):
        if inside:
            for e in ring:
                block = matrix[at ^ e]
                b += (block & outer).bit_count()
                inner += (block & inside).bit_count()
        else:
            for e in ring:
                b += (matrix[at ^ e] & outer).bit_count()
    return b, inner


class _BlockState:
    """A vertex set of Q_n and its separator, as a bit matrix in two
    orientations: 2^h row blocks of 2^L bits, and 2^L columns of 2^h bits.

    With n = h + L (`_block_split`), row block yh and column yl both hold
    vertex (yh, yl).  A center x = (xh, xl) meets block xh ^ e, for
    |e| = d <= r0, in the radius-(r0 - d) ball around xl in Q_L, and its
    radius-r0 sphere in that ball minus the radius-(r0 - d - 1) one.  So
    the high part is a list index and the low part a mask, T_xl(B_L(r)),
    where B_L(r) is `_ball_bits(L, min(r, L))`, the low 2^L bits of
    B_n(r): no 2^n-bit table is built, and no 2^n-bit vector is
    translated or searched after construction.

    The far rings, at top distance d > `near` (`_near_rings`), meet few
    low vertices per block, so the census reads them from the columns
    instead: column xl ^ e, for |e| = j <= r0 - near - 1, meets the ball
    in T_xh(B_h(r0 - j) minus B_h(near)).  The first census builds the
    columns, 2^n bits in all like the rows, by `_transpose`: one join of
    the rows and word-parallel coordinate swaps.  From then on `remove`
    clears its ball from the columns too, T_xh(B_h(r0 - j)) from column
    xl ^ e.  The audit never takes a census, and the public `census`
    reads every ring from the rows, so both keep the rows alone.

    Every mask tuple comes from `_masks`, outermost first and ending in
    0, and `_read` reads each ring under its entries d and d + 1.  `base`
    holds B_L(r0 - d) for d = 0..r0 and `masks` its translates per xl, so
    each xl is translated once per state: at most 2^10 * (r0 + 1) ints of
    2^10 bits, about 1 MiB at n = 18.  `top_base` holds the balls
    B_h(r0 - j) and `far_base` the far-ring masks; `top_masks` and
    `far_masks` memoise their translates on the bits of xh in `key`, the
    low `_top_key_width`, so neither a census nor a remove translates
    while h <= L, that is n <= 20.  `rings[d]` lists the h-bit e with
    |e| = d, `row_rings` those the census reads as rows (d <= near), and
    `low_rings[j]` the L-bit e with |e| = j; `far` says whether the
    census reads columns at all.  `counts` holds each block's popcount
    and `size` their sum; `sep` holds the separator's blocks.
    """

    __slots__ = ("n", "r0", "low", "blocks", "counts", "size", "sep",
                 "rings", "base", "masks", "row_rings", "far", "cols",
                 "low_rings", "top_base", "top_masks", "far_base",
                 "far_masks", "key")

    def __init__(self, bits: int, n: int, r0: int):
        h, low = _block_split(n)
        self.n, self.r0, self.low = n, r0, low
        self.blocks = _blocks(bits, h, low)
        self.counts = [block.bit_count() for block in self.blocks]
        self.size = sum(self.counts)
        self.sep = [0] * (1 << h)
        self.rings = [list(_gosper(h, d)) for d in range(min(r0, h) + 1)]
        self.base = [_ball_bits(low, min(r, low)) for r in range(r0, -1, -1)]
        self.masks: Dict[int, Tuple[int, ...]] = {}
        self.row_rings = self.rings[:_near_rings(h, low, r0) + 1]
        self.far = len(self.row_rings) < len(self.rings)
        self.cols = None  # built by the first census

    def _rows(self, xl: int) -> Tuple[int, ...]:
        """The row masks around low part xl: T_xl(B_L(r0 - d)) for
        d = 0..r0, then 0, memoised on all L bits."""
        low = self.low
        return _masks(self.masks, self.base, xl, (1 << low) - 1, low)

    def _columns(self) -> None:
        """Build the columns and the top-part tables the first census
        needs."""
        h, low, r0 = self.n - self.low, self.low, self.r0
        far = r0 + 1 - len(self.row_rings)  # r0 - near
        self.cols = _transpose(self.blocks, low)
        self.low_rings = [list(_gosper(low, j))
                          for j in range(min(r0, low) + 1)]
        self.top_base = [_ball_bits(h, min(r, h)) for r in range(r0, -1, -1)]
        inner = self.top_base[far]
        self.far_base = [ball & ~inner for ball in self.top_base[:far]]
        self.top_masks, self.far_masks = {}, {}
        self.key = (1 << _top_key_width(h, low)) - 1

    def census(self, x: int) -> Tuple[int, int]:
        """(ball, sphere) counts of the set at radius r0 around x.

        The sphere count is b minus the same sum at radius r0 - 1.
        """
        low = self.low
        xh, xl = x >> low, x & ((1 << low) - 1)
        # the memo lookup of `_rows`, inlined: a census is the hot path
        rows = self.masks.get(xl) or self._rows(xl)
        b, inner = _read(self.blocks, xh, self.row_rings, rows)
        if self.far:
            if self.cols is None:
                self._columns()
            far = _masks(self.far_masks, self.far_base, xh, self.key,
                         self.n - low)
            far_b, far_inner = _read(self.cols, xl, self.low_rings, far)
            b += far_b
            inner += far_inner
        return b, b - inner

    def remove(self, x: int) -> Tuple[int, int]:
        """Take the radius-r0 ball around x out of the set and charge its
        sphere to the separator; returns the (ball, sphere) counts.  The
        peel and the audit both call this."""
        low = self.low
        xh, xl = x >> low, x & ((1 << low) - 1)
        rows = self._rows(xl)
        blocks, counts, sep = self.blocks, self.counts, self.sep
        b = s = 0
        for ring, outer, inside in zip(self.rings, rows, rows[1:]):
            for e in ring:
                k = xh ^ e
                hit = blocks[k] & outer
                if hit:
                    shell = hit & ~inside
                    blocks[k] ^= hit
                    c = hit.bit_count()
                    counts[k] -= c
                    sep[k] |= shell
                    b += c
                    s += shell.bit_count()
        self.size -= b
        cols = self.cols
        if cols is not None:
            balls = _masks(self.top_masks, self.top_base, xh, self.key,
                           self.n - low)
            for ring, ball in zip(self.low_rings, balls):
                for e in ring:
                    k = xl ^ e
                    hit = cols[k] & ball
                    if hit:
                        cols[k] ^= hit
        return b, s

    def member(self, j: int) -> int:
        """The j-th smallest member: its block from the running popcounts,
        then `Family.select` inside that block."""
        ends = list(accumulate(self.counts))
        k = bisect_right(ends, j)
        rank = j - ends[k] + self.counts[k]
        return k << self.low | Family(self.low, self.blocks[k]).select(rank)

    def separator(self) -> int:
        return _join(self.sep, self.low)


def _draws(rng: random.Random, n: int, samples: int, size: int) -> Iterator[int]:
    """One step's sampler draws: `samples` uniform centers of Q_n, then
    the rank, uniform in [0, size), of one member of the alive set.  The
    peel draws its pool from here, and the audit replays it."""
    for _ in range(samples):
        yield rng.getrandbits(n)
    yield rng.randrange(size)


def _choose_center(
    state: _BlockState, samples: int, rng: random.Random
) -> int:
    """Argmin of sphere/ball over the step's `_draws`: the uniform
    centers and the member of the drawn rank.

    The key of a center with census (b, s) is (b == 0, s * 4^n // b, x):
    an empty ball ranks last, so the center removes a vertex.  Ball
    counts are at most 2^n, so different ratios differ by more than 4^-n
    and the floor keeps their order; ties break toward the smallest mask.
    """
    *pool, j = _draws(rng, state.n, samples, state.size)
    pool.append(state.member(j))
    shift = 2 * state.n

    def key(x: int) -> Tuple[bool, int, int]:
        b, s = state.census(x)
        return b == 0, (s << shift) // (b or 1), x

    return min(pool, key=key)


def choose_center(family: Family, r0: int, cfg: PeelConfig) -> int:
    """Public face of the center chooser: returns the winning mask.

    Where the split rule reads columns (at the solved radius, n >= 16),
    the first census builds them for the family: about n word-parallel
    passes over its 2^n-bit vector, more than a census costs.
    """
    if not family.bits:
        raise DomainError("cannot choose a center for the empty family")
    if not 0 <= r0 <= family.n:
        raise DomainError(f"radius r0={r0} outside [0, {family.n}]")
    state = _BlockState(family.bits, family.n, r0)
    return _choose_center(state, cfg.samples, random.Random(cfg.seed))


def peel(n: int, cfg: PeelConfig = PeelConfig()) -> IntegrityCertificate:
    """Run the greedy sphere-peeling process to completion.

    Deterministic for a fixed (n, cfg): one RNG seeded once drives every
    sampling decision.  The per-step ball removals partition the cube, so
    the loop terminates after at most 2^n steps.

    The largest component of Q_n minus the separator is C(n, <= r0-1),
    or 0 when r0 = 0.  A vertex v off the separator leaves at the step j
    whose ball takes it, inside the interior I_j = B(x_j, r0-1) ∩ alive_j.
    A neighbour u of v lies within r0 of x_j.  If u is alive at step j,
    that step takes u too, into I_j or onto the separator.  If u left
    earlier, at step i, and were off the separator, it would lie in I_i
    and step i would have taken its neighbour v.  So every component lies
    inside one interior, of at most C(n, <= r0-1) vertices; step 0's
    interior is a whole Hamming ball, connected and off the separator,
    and attains that.  The audit recomputes this value by BFS.
    """
    if n < 3:
        raise DomainError(f"peeling needs n >= 3, got n={n}")
    if n > max_dim():
        raise DomainError(f"n={n} is over the dimension cap {max_dim()}")
    params = solve_radius(n)
    r0 = params.r0
    rng = random.Random(cfg.seed)
    state = _BlockState((1 << (1 << n)) - 1, n, r0)
    steps: List[PeelStep] = []
    while state.size:
        x = _choose_center(state, cfg.samples, rng)
        steps.append(PeelStep(x, *state.remove(x)))
    separator = Family(n, state.separator())
    max_comp = binom_leq(n, r0 - 1) if r0 else 0
    return IntegrityCertificate(
        params, cfg, tuple(steps), separator, separator.size + max_comp
    )


def verify_certificate(cert: IntegrityCertificate) -> int:
    """Replay the peel transcript from the full cube; return the value.

    After the alpha check, an O(steps) pre-filter bounds the replay before
    any big-integer work: the claimed value must reach
    `integrity_lower_bound(n)`, which no correct certificate can miss, the
    recorded counts must be sane, and the replay may take at most
    REPLAY_DRAW_BUDGET draws (else BudgetError).  Each step's center must
    be among its `_draws` from the header's seed and T, and the peel's own
    block step must recompute its counts; the separator must come out bit
    for bit.  That puts every component of Q_n minus the separator inside
    one recorded ball, so only the largest one is recomputed (by BFS) and
    checked against the C(n,<=r0) cap and the claimed value.  Raises
    VerificationError naming the first offender.
    """
    n = cert.n
    params = cert.params
    r0 = params.r0
    if params.residual > 1e-9:
        raise VerificationError(
            f"alpha={params.alpha!r} does not solve the radius equation"
        )
    floor = integrity_lower_bound(n)
    if cert.value < floor:
        raise VerificationError(
            f"claimed value {cert.value} is below the lower bound "
            f"I(Q_{n}) >= {floor}"
        )
    ball_total = 0
    for i, step in enumerate(cert.steps):
        if step.ball_hits < 1:
            raise VerificationError(f"step {i} removed no vertices")
        ball_total += step.ball_hits
    if ball_total != 1 << n:
        raise VerificationError(
            f"ball removals sum to {ball_total}, expected 2^{n}"
        )
    if cert.separator.n != n:
        raise VerificationError("separator dimension mismatch")
    seed, samples = cert.config.seed, cert.config.samples
    Budget(
        REPLAY_DRAW_BUDGET, "sampler draws",
        f"replaying {len(cert.steps)} steps at T={samples}",
    ).refuse_if(len(cert.steps) * (samples + 1))
    state = _BlockState((1 << (1 << n)) - 1, n, r0)
    rng = random.Random(seed)
    for i, step in enumerate(cert.steps):
        # The set is nonempty (and empty after the last step): the ball
        # counts so far replayed as recorded, each >= 1, summing to 2^n.
        pool = _draws(rng, n, samples, state.size)
        # sum, not any: the rank is drawn after all T centers
        drawn = sum(x == step.center for x in islice(pool, samples))
        j = next(pool)
        if not drawn and state.member(j) != step.center:
            raise VerificationError(
                f"step {i} center is no candidate at seed={seed} T={samples}"
            )
        ball_hits, sphere_hits = state.remove(step.center)
        if (ball_hits, sphere_hits) != (step.ball_hits, step.sphere_hits):
            raise VerificationError(
                f"step {i} replays as ball {ball_hits}, sphere "
                f"{sphere_hits}; recorded {step.ball_hits}, {step.sphere_hits}"
            )
    sep = state.separator()
    if sep != cert.separator.bits:
        raise VerificationError(
            f"separator differs from the replayed sphere charges in "
            f"{(sep ^ cert.separator.bits).bit_count()} vertices"
        )
    # the isolated vertices are components of one; search only the rest,
    # whose blocks overwrite the separator's, joined above
    low, rest = state.low, state.sep
    lane = (1 << (1 << low)) - 1
    for k, s in enumerate(rest):
        rest[k] = s ^ lane
    lone = _drop_isolated(rest, low)
    comps = _component_index_lists(_join(rest, low), n)
    max_comp = max(map(len, comps), default=min(lone, 1))
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
    """I(Q_n): the least |S| + (largest component of Q_n - S) over all S.

    Two prunes keep the search exact.  Translating by x is an automorphism
    of Q_n, so S and S ^ x score alike; every non-empty S has a translate
    through one of its members that contains vertex 0, and only those are
    scored.  The empty set scores 2^n, which is the starting incumbent.
    A set of size s can only beat the incumbent `best` if every component
    has at most best - s - 1 vertices, so the flood gives up as soon as
    the component it grows passes that, and sizes with s + 1 >= best are
    skipped entirely.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    if n > 4:
        raise BudgetError(
            f"exact integrity searches the removal sets through vertex 0, "
            f"2^(2^n - 1) of them; n={n} is over the n <= 4 guard"
        )
    size = 1 << n
    full = (1 << size) - 1
    best = size
    for s in range(1, size):
        if s + 1 >= best:
            break
        for v in _gosper(size - 1, s - 1):
            limit = best - s - 1
            largest = max(flood_component_sizes(full ^ (v << 1 | 1), n, limit))
            if largest <= limit:
                best = s + largest
    return best


def integrity_lower_bound(n: int) -> int:
    """C(n, floor((n-1)/2)) + 1, a lower bound on I(Q_n) for n >= 3.

    Let r = floor((n-3)/2) and C = C(n, r+1), so that n >= 2r + 3.
    Suppose |S| <= C - 1 and every component of Q_n - S has at most C
    vertices.  Union whole components into A until |A| >= C(n, <= r);
    then C(n, <= r) <= |A| < C(n, <= r+1), and the vertex boundary of A
    lies in S.  By Harper's vertex-isoperimetric theorem (Harper 1966)
    that boundary is at least the boundary of the simplicial initial
    segment of the same size: B(r) plus j sets J of layer r+1, whose
    boundary has (C - j) + |upper shadow of J| vertices.  Double counting
    the edges between J and layer r+2 gives a shadow of at least
    j(n-r-1)/(r+2) >= j, since n >= 2r + 3.  So |S| >= C, a
    contradiction.  Hence every S has |S| >= C or a component of more
    than C vertices, and |S| plus its largest component is at least
    C + 1.  The bound is the order of the middle binomial, c*2^n/sqrt(n),
    the floor of Beineke et al.; I(Q_3) = 5 >= 4 and I(Q_4) = 9 >= 5.
    """
    if n < 3:
        raise DomainError(f"the lower bound needs n >= 3, got n={n}")
    return math.comb(n, (n - 1) // 2) + 1


def middle_layer_baseline(n: int) -> int:
    """Integrity value of the trivial cut: remove the middle layer k = n//2.

    What survives is B(0, k-1) and the ball of radius n-k-1 around the
    full set: no edge joins them, as an edge changes the weight by one,
    and each is connected, as a member reaches its ball's center one bit
    flip at a time.  The larger is C(n, <= n-k-1) = C(n, <= (n-1)//2).
    """
    if n < 2:
        raise DomainError(f"baseline needs n >= 2, got n={n}")
    return math.comb(n, n // 2) + binom_leq(n, (n - 1) // 2)


# ---------------------------------------------------------------------------
# Log-domain density audit.
#
# ball_ratio(n)   = C(n,<=r0) * sqrt(n) / (2^n * sqrt(ln n))
# sphere_ratio(n) = C(n,r0)   * n       / (2^n * ln n)
# Both should sit in a bounded band if r0 tracks the intended scaling.
# ---------------------------------------------------------------------------

# Terms the log-domain ball sums of one audit may take: a few seconds.
DENSITY_TERM_BUDGET = 10**7


@dataclass(frozen=True)
class DensityRow:
    n: int
    alpha: float
    r0: int
    ball_ratio: float
    sphere_ratio: float


def density_audit(dims: Sequence[int]) -> List[DensityRow]:
    """Normalized ball/sphere densities at the solved radius, per n.

    Before the first row, BudgetError refuses dims whose ball sums take
    over DENSITY_TERM_BUDGET terms in all: `log_binom_leq` stops under
    e^-45 of its top term, each step down scaling by at most r0/(n-r0+1).
    """
    guard = Budget(DENSITY_TERM_BUDGET, "terms", "density_audit")
    solved = []
    terms = 0
    for n in dims:
        if n < 8:
            raise DomainError(f"density audit needs n >= 8, got n={n}")
        solved.append(solve_radius(n))
        r0 = solved[-1].r0
        terms += 1 + 45 / math.log((n - r0 + 1) / r0)
        guard.tick(terms)
    rows = []
    ln2 = math.log(2)
    for p in solved:
        n, lln = p.n, math.log(math.log(p.n))
        log_ball = (
            log_binom_leq(n, p.r0) + 0.5 * math.log(n) - n * ln2 - 0.5 * lln
        )
        log_sphere = log_binom(n, p.r0) + math.log(n) - n * ln2 - lln
        rows.append(DensityRow(
            n, p.alpha, p.r0, math.exp(log_ball), math.exp(log_sphere)
        ))
    return rows
