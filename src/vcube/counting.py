"""Exact exhaustive counting oracles and log-domain bound evaluation.

All counts exclude the empty family.  Budgets are hard preconditions
checked up front; an over-budget request fails loudly instead of
truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from . import vc
from .cube import Family, _check_dim, _gosper, binom_leq
from .errors import BudgetError, DomainError
from .matchings import enumerate_induced_matchings

DEFAULT_FAMILY_BUDGET = 10**8
DEFAULT_CONN_BUDGET = 10**7

PROGRESS_STRIDE = 10**6

Progress = Optional[Callable[[int], None]]


def m_candidate_count(n: int, k: int) -> int:
    """Size of the exhaustive search space behind exact_m."""
    return math.comb(1 << n, binom_leq(n, k))


def exact_m(
    n: int, k: int, budget: int = DEFAULT_FAMILY_BUDGET, progress: Progress = None
) -> int:
    """Count maximal families of VC dimension exactly k in P(n).

    Maximality pins the size to C(n,<=k), so only subsets of that exact
    size are enumerated (in colex order) and filtered on VC dimension.
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got n={n} k={k}")
    size = binom_leq(n, k)
    # A log-gamma estimate refuses all but a near miss before any
    # big-integer work; its margin of e dwarfs its rounding error.
    try:
        log_total = _log_binom_real(2.0**n, size)
    except OverflowError:  # 2^n is past float range
        log_total = math.inf
    if (
        budget < 1
        or log_total > math.log(budget) + 1.0
        or m_candidate_count(n, k) > budget
    ):
        raise BudgetError(
            f"exact_m(n={n}, k={k}) needs about e^{log_total:.1f} "
            f"candidates, over the budget of {budget}"
        )
    count = 0
    examined = 0
    for bits in _gosper(1 << n, size):
        examined += 1
        if vc.vc_dim(Family(n, bits)) == k:
            count += 1
        if progress is not None and examined % PROGRESS_STRIDE == 0:
            progress(examined)
    return count


def exvc_candidate_count(n: int) -> int:
    return (1 << (1 << n)) - 1


def exact_exvc(
    n: int, k: int, progress: Progress = None
) -> int:
    """Count nonempty extremal families with VC dimension at most k.

    Walks all 2^(2^n)-1 nonempty families, so n <= 4 is a hard guard.
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got n={n} k={k}")
    if n > 4:
        raise BudgetError(
            f"exact_exvc enumerates 2^(2^n)-1 families; n={n} is over the "
            f"n <= 4 guard"
        )
    count = 0
    top = 1 << (1 << n)
    for bits in range(1, top):
        fam = Family(n, bits)
        sh = vc.shattered_sets(fam)
        if len(sh) != len(fam):
            continue
        if max(m.bit_count() for m in sh) <= k:
            count += 1
        if progress is not None and bits % PROGRESS_STRIDE == 0:
            progress(bits)
    return count


def exact_indmat(n: int, k: int, progress: Progress = None) -> int:
    """Count induced matchings between layers k and k+1 by enumeration."""
    count = 0
    for _ in enumerate_induced_matchings(n, k):
        count += 1
        if progress is not None and count % PROGRESS_STRIDE == 0:
            progress(count)
    return count


def conn_profile(
    n: int, budget: int = DEFAULT_CONN_BUDGET, progress: Progress = None
) -> List[int]:
    """Counts of connected induced subgraphs of Q_n by size, 0..2^n.

    The empty subgraph counts as connected by convention, so the result
    starts with 1.  Enumeration grows each connected set from its least
    vertex with an exclusive-neighborhood rule, visiting every connected
    vertex set exactly once; `budget` caps the number of visited sets.
    """
    _check_dim(n, allow_zero=True)
    size = 1 << n
    # vertices and edges alone are connected sets: refuse before the tables
    floor = size + n * size // 2
    if floor > budget:
        raise BudgetError(
            f"conn_profile(n={n}) visits at least {floor} connected sets, "
            f"over the budget of {budget}"
        )
    counts = [0] * (size + 1)
    counts[0] = 1
    nbrs = [[v ^ (1 << i) for i in range(n)] for v in range(size)]
    nbr_mask = [sum(1 << u for u in row) for row in nbrs]
    visited = 0
    for root in range(size):
        ext0 = [u for u in nbrs[root] if u > root]
        stack = [(1, ext0, (1 << root) | nbr_mask[root])]
        while stack:
            csize, ext, closed = stack.pop()
            visited += 1
            if visited > budget:
                raise BudgetError(
                    f"conn_profile(n={n}) exceeded its budget of {budget} "
                    f"connected sets"
                )
            counts[csize] += 1
            if progress is not None and visited % PROGRESS_STRIDE == 0:
                progress(visited)
            for i, w in enumerate(ext):
                fresh = [
                    u for u in nbrs[w] if u > root and not closed >> u & 1
                ]
                stack.append(
                    (csize + 1, ext[i + 1 :] + fresh, closed | nbr_mask[w])
                )
    return counts


def exact_conn(
    n: int, m: int, budget: int = DEFAULT_CONN_BUDGET, progress: Progress = None
) -> int:
    """Count connected induced subgraphs of Q_n on exactly m vertices."""
    _check_dim(n, allow_zero=True)
    if not 0 <= m <= (1 << n):
        raise DomainError(f"need 0 <= m <= 2^n, got n={n} m={m}")
    return conn_profile(n, budget=budget, progress=progress)[m]


# ---------------------------------------------------------------------------
# Log-domain bound evaluation.
#
# The count of maximal families is squeezed between the choice-matching
# count (eps*n) ** C((1-eps)n, k) from below and the connected-subgraph
# bound 2^(n+1) * (e*n) ** C(n,<=k) from above; both are evaluated as
# natural logs, alongside the asymptotic target C(n,k) * ln n.
# ---------------------------------------------------------------------------


def _log_binom_real(x: float, k: int) -> float:
    """ln C(x, k) for real upper index x >= k, via log-gamma."""
    if k < 0 or x < k:
        raise DomainError(f"need 0 <= k <= x, got x={x} k={k}")
    return (
        math.lgamma(x + 1) - math.lgamma(k + 1) - math.lgamma(x - k + 1)
    )


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
        coeff = math.exp(_log_binom_real((1 - eps) * n, k))
    except OverflowError:
        coeff = math.inf
    log_lower = coeff * math.log(eps * n)
    try:
        tail = float(binom_leq(n, k))
    except OverflowError:
        tail = math.inf
    log_upper = (n + 1) * math.log(2) + tail * (1 + math.log(n))
    try:
        mid = float(math.comb(n, k))
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
