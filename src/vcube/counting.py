"""Exact counting oracles and log-domain bound evaluation.

All counts exclude the empty family.  Each exhaustive count checks an
`errors.Budget` in its own unit before any work and as a hard stop on
its running count; an over-budget request fails instead of truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import vc
from .cube import Family, _check_dim, binom_leq, log_binom
from .errors import Budget, BudgetError, DomainError
from .matchings import enumerate_induced_matchings

DEFAULT_FAMILY_BUDGET = 10**8
DEFAULT_CONN_BUDGET = 10**7

Progress = Optional[Callable[[int], None]]


def m_candidate_count(n: int, k: int) -> int:
    """Size of the brute-force search space; it bounds exact_m's lifts."""
    return math.comb(1 << n, binom_leq(n, k))


def exact_m(
    n: int, k: int, budget: int = DEFAULT_FAMILY_BUDGET, progress: Progress = None
) -> int:
    """Count maximal families of VC dimension exactly k in P(n).

    Maximality pins the size to C(n,<=k), so these are the maximum
    classes.  They are counted by restriction and reduction (Welzl 1987;
    Floyd & Warmuth 1995): restricting a maximum class C of dimension k
    on [n] to [n-1] gives a maximum class R of dimension k, and the
    points of R present with both values of coordinate n form a maximum
    class T of dimension k-1, with T inside R.  Conversely, for D = R - T
    each submask Z of D gives one candidate, the lift with T|(D^Z) below
    coordinate n and T|Z above it, and C is one of them for exactly one
    (R, T, Z).  A lift has the size of C, so it is maximum iff it
    shatters no (k+1)-set; only sets through coordinate n can be
    shattered, so that is a k-set of [n-1] shattered by both halves.

    Every lift is a distinct C(n,<=k)-subset of Q_n, so the lifts
    examined never exceed m_candidate_count(n, k), and the budget guard
    on that count bounds the work.  `progress` counts the lifts.
    """
    _check_dim(n, allow_zero=True)
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got n={n} k={k}")
    # A log-gamma estimate refuses all but a near miss before any
    # big-integer work; its margin of e dwarfs its rounding error.
    try:
        log_total = log_binom(2.0**n, binom_leq(n, k))
    except OverflowError:  # 2^n is past float range
        log_total = math.inf
    guard = Budget(budget, "candidates", f"exact_m(n={n}, k={k})", progress)
    near = budget >= 1 and log_total <= math.log(budget) + 1.0
    need = m_candidate_count(n, k) if near else math.inf
    guard.refuse_if(need, f"about e^{log_total:.1f}")
    if k == 0:
        return 1 << n
    if k == n:
        return 1
    classes = _Classes()
    sub = n - 1
    lifts = classes.lifts(
        sub, classes.maximum(sub, k), classes.maximum(sub, k - 1)
    )
    return _count_lifts(lifts, guard)


def _count_lifts(
    lifts: Iterator[Tuple[int, int, List[int]]], guard: Budget
) -> int:
    """Count the kept lifts; `guard` is ticked with the lifts examined."""
    count = 0
    examined = 0
    mark = guard.tick(0)
    for _, d, kept in lifts:
        count += len(kept)
        examined += 1 << d.bit_count()
        if examined >= mark:
            mark = guard.tick(examined)
    return count


class _Classes:
    """The restriction-reduction enumerator behind exact_m and exact_exvc.

    Its memos of maximum classes and shattered sets live as long as the
    object, which each count creates for itself.
    """

    def __init__(self) -> None:
        self._maximum: Dict[Tuple[int, int], List[int]] = {}
        self._shattered: Dict[Tuple[int, int], int] = {}

    def maximum(self, n: int, k: int) -> List[int]:
        """Characteristic vectors of the maximum classes of dimension k."""
        if k == 0:
            return [1 << v for v in range(1 << n)]
        if k == n:
            return [(1 << (1 << n)) - 1]
        if (n, k) not in self._maximum:
            sub = n - 1
            self._maximum[n, k] = [
                _join(t, d, z, sub)
                for t, d, kept in self.lifts(
                    sub, self.maximum(sub, k), self.maximum(sub, k - 1)
                )
                for z in kept
            ]
        return self._maximum[n, k]

    def extremal(self, n: int) -> List[Tuple[int, int]]:
        """(vector, VC dimension) of every nonempty extremal class."""
        if n == 0:
            return [(1, 0)]
        sub = n - 1
        lower = self.extremal(sub)
        restrictions = [r for r, _ in lower]
        dims = dict(lower)
        dims[0] = -1  # the empty reduction
        return [
            (_join(t, d, z, sub), max(dims[t | d], dims[t] + 1))
            for t, d, kept in self.lifts(sub, restrictions, [0] + restrictions)
            for z in kept
        ]

    def lifts(
        self, n: int, restrictions: List[int], reductions: List[int]
    ) -> Iterator[Tuple[int, int, List[int]]]:
        """(T, D, kept) for every pair T inside R of classes of Q_n.

        D = R - T, and `kept` lists the submasks Z of D whose lift to
        Q_(n+1), with T|(D^Z) below coordinate n+1 and T|Z above it,
        keeps sh(T) as the meet of the two halves' shattered sets.  For
        extremal R and T that is the whole test (see exact_exvc).  For
        maximum R of dimension k and T of k-1, a half T|Z shatters
        every set T shatters, all of size below k, and no set above k,
        since it lies inside R; so the test says the halves share no
        k-set.
        """
        for r in restrictions:
            for t in reductions:
                if t & ~r:
                    continue
                d = r ^ t
                sh = {}
                z = d
                while True:
                    sh[z] = self._shattered_bits(n, t | z)
                    if not z:
                        break
                    z = (z - 1) & d
                base = sh[0]
                yield t, d, [z for z, s in sh.items() if s & sh[d ^ z] == base]

    def _shattered_bits(self, n: int, bits: int) -> int:
        key = (n, bits)
        if key not in self._shattered:
            self._shattered[key] = vc.shattered_sets(Family(n, bits)).bits
        return self._shattered[key]


def _join(t: int, d: int, z: int, n: int) -> int:
    """The lift of Q_n's halves T|(D^Z) and T|Z to one vector on Q_(n+1)."""
    return (t | d ^ z) | (t | z) << (1 << n)


def exvc_candidate_count(n: int) -> int:
    return (1 << (1 << n)) - 1


def exact_exvc(n: int, k: int) -> int:
    """Count nonempty extremal families with VC dimension at most k.

    Counted by restriction and reduction like exact_m.  A family C on
    [n] has halves C0 and C1 along coordinate n, restriction R = C0 | C1
    and reduction T = C0 & C1, and sh(C) is sh(R) plus S+n for every S
    in sh(C0) & sh(C1); `vc.shattered_sets` computes sh by the same
    identity.  Since |sh(X)| >= |X| and sh(T) lies inside both,
    |sh(C)| >= |sh(R)| + |sh(T)| >= |R| + |T| = |C|, with equality, that
    is C extremal, iff R and T are extremal (T may be empty) and
    sh(C0) & sh(C1) = sh(T).  Then sh(C) is sh(R) plus sh(T)+n, so
    vc(C) = max(vc(R), vc(T) + 1), and a pair over dimension k is
    skipped before its lifts are examined.

    Every lift is a distinct nonempty family, so the lifts examined
    never exceed exvc_candidate_count(n), which is their budget.
    Lifting all 1.07e6 pairs of Q_4 examines about 1.8e8 families, so
    n <= 4 is a hard guard, checked before the 2^(2^n)-bit count.
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got n={n} k={k}")
    if n > 4:
        raise BudgetError(
            f"exact_exvc(n={n}) is over the n <= 4 guard; the lift to "
            f"n=5 examines about 1.8e8 families"
        )
    if n == 0:
        return 1
    classes = _Classes()
    lower = classes.extremal(n - 1)
    restrictions = [r for r, dim in lower if dim <= k]
    reductions = [0] + [t for t, dim in lower if dim < k]
    guard = Budget(exvc_candidate_count(n), "families", f"exact_exvc(n={n})")
    return _count_lifts(
        classes.lifts(n - 1, restrictions, reductions), guard
    )


def exact_indmat(n: int, k: int) -> int:
    """Count induced matchings between layers k and k+1 by enumeration."""
    return sum(1 for _ in enumerate_induced_matchings(n, k))


def conn_profile(
    n: int, budget: int = DEFAULT_CONN_BUDGET, progress: Progress = None
) -> List[int]:
    """Counts of connected induced subgraphs of Q_n by size, 0..2^n.

    The empty subgraph counts as connected by convention, so the result
    starts with 1.  Each connected set grows from its least vertex by the
    exclusive-neighbourhood rule, so it is visited once; `budget` caps the
    visits.  Sets are int masks.  `closed` holds N[set] and every vertex
    up to the root; the child adding w, the lowest bit of the frontier
    ext, gets frontier (ext - w) | (N(w) & ~closed) and closed | N(w).
    """
    _check_dim(n, allow_zero=True)
    size = 1 << n
    guard = Budget(budget, "connected sets", f"conn_profile(n={n})", progress)
    # refuse before any work; 2 << bits is under the bound's 2^(2^(n-1))
    bits = budget.bit_length()
    guard.refuse_if(conn_lower_bound(n) if size >> 1 <= bits else 2 << bits)
    counts = [0] * (size + 1)
    counts[0] = 1
    nbr = [sum(1 << (v ^ (1 << i)) for i in range(n)) for v in range(size)]
    visited = 0
    mark = guard.tick(0)
    for root in range(size):
        below = (2 << root) - 1
        stack = [(1, nbr[root] & ~below, nbr[root] | below)]
        while stack:
            csize, ext, closed = stack.pop()
            visited += 1
            if visited == mark:
                mark = guard.tick(visited)
            counts[csize] += 1
            while ext:
                w = ext & -ext
                ext ^= w
                nw = nbr[w.bit_length() - 1]
                stack.append((csize + 1, ext | (nw & ~closed), closed | nw))
    return counts


def conn_lower_bound(n: int) -> int:
    """A lower bound on the nonempty connected vertex sets of Q_n.

    Removing fewer than n-1 vertices from Q_(n-1), or n-1 that are not a
    vertex neighbourhood, leaves a connected A (those are its only cuts);
    A plus any of its partners in the other half is connected in Q_n.
    Never below the 2^n vertices plus n*2^(n-1) edges.
    """
    half = 1 << n >> 1
    total = sum(math.comb(half, j) << (half - j) for j in range(n - 1))
    if n:
        total += (math.comb(half, n - 1) - half) << (half - n + 1)
    return max(total, (n + 2) << n >> 1)


def check_conn_args(n: int, m: int) -> None:
    """Refuse a bad dimension, then an m outside [0, 2^n]."""
    _check_dim(n, allow_zero=True)
    if not 0 <= m <= (1 << n):
        raise DomainError(f"need 0 <= m <= 2^n, got n={n} m={m}")


def exact_conn(
    n: int, m: int, budget: int = DEFAULT_CONN_BUDGET, progress: Progress = None
) -> int:
    """Count connected induced subgraphs of Q_n on exactly m vertices."""
    check_conn_args(n, m)
    return conn_profile(n, budget=budget, progress=progress)[m]


# ---------------------------------------------------------------------------
# Log-domain bound evaluation.
#
# The count of maximal families is squeezed between the choice-matching
# count (eps*n) ** C((1-eps)n, k) from below and the connected-subgraph
# bound 2^(n+1) * (e*n) ** C(n,<=k) from above; both are evaluated as
# natural logs, alongside the asymptotic target C(n,k) * ln n.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Natural-log sizes of the lower bound, upper bound, and target."""

    n: int
    k: int
    epsilon: float
    log_lower: float
    log_upper: float
    log_target: float


def maximal_count_bounds(n: int, k: int, epsilon) -> BoundReport:
    """Evaluate the bound chain for one (n, k, epsilon) in log domain."""
    eps = float(epsilon)
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got n={n} k={k}")
    if eps * n < 1:
        raise DomainError(f"need epsilon*n >= 1, got {eps * n}")
    if eps >= 1:
        raise DomainError(f"epsilon must be below 1, got {eps}")
    if (1 - eps) * n < k:
        raise DomainError(
            f"(1-eps)*n = {(1 - eps) * n} is below k={k}; no lower bound"
        )
    try:
        coeff = math.exp(log_binom((1 - eps) * n, k))
    except OverflowError:
        coeff = math.inf
    log_lower = coeff * math.log(eps * n)
    # Exact counts only where they might fit a float: C(n,k) >= (n/j)^j,
    # which lgamma's cancellation at large n cannot overstate, and
    # C(n,<=k) >= 2^(n-1) past the middle.
    j = min(k, n - k)
    big_mid = j > 0 and j * (math.log(n) - math.log(j)) > 710
    big_tail = big_mid or 2 * k >= n > 1025
    try:
        tail = math.inf if big_tail else float(binom_leq(n, k))
    except OverflowError:
        tail = math.inf
    log_upper = (n + 1) * math.log(2) + tail * (1 + math.log(n))
    try:
        mid = math.inf if big_mid else float(math.comb(n, k))
    except OverflowError:
        mid = math.inf
    log_target = mid * math.log(n)
    return BoundReport(
        n=n,
        k=k,
        epsilon=eps,
        log_lower=log_lower,
        log_upper=log_upper,
        log_target=log_target,
    )
