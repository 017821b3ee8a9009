"""Shattering machinery: trace families, the shattered-set family,
VC dimension, and the extremal / maximal predicates.

The workhorse is an OR-projection on characteristic vectors: projecting a
family's vector along coordinate i ORs it with its i-flip, and a set S is
shattered exactly when projecting along every coordinate outside S
saturates the whole vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cube import Family, _low_masks, binom_leq
from .errors import DomainError

# Widest n for which the dense all-subsets projection table is built;
# beyond it the level-by-level pruned search wins on memory.
_DENSE_LIMIT = 12


def _project(bits: int, n: int, i: int) -> int:
    s = 1 << i
    low = _low_masks(n)[i]
    return bits | ((bits & low) << s) | ((bits >> s) & low)


def traces(family: Family, s_mask: int) -> Family:
    """The trace family {B & S : B in F}, re-indexed to the subcube of S."""
    n = family.n
    if s_mask < 0 or s_mask >> n:
        raise DomainError(f"trace set {s_mask:#x} does not fit n={n}")
    positions = [i for i in range(n) if s_mask >> i & 1]
    out = 0
    for m in family:
        t = m & s_mask
        c = 0
        for j, p in enumerate(positions):
            c |= ((t >> p) & 1) << j
        out |= 1 << c
    return Family(len(positions), out)


def shatters(family: Family, s_mask: int) -> bool:
    """True iff every subset of S occurs as B & S for some member B."""
    n = family.n
    if s_mask < 0 or s_mask >> n:
        raise DomainError(f"candidate set {s_mask:#x} does not fit n={n}")
    full = (1 << (1 << n)) - 1
    proj = family.bits
    for i in range(n):
        if not s_mask >> i & 1:
            proj = _project(proj, n, i)
            if proj == full:
                return True
    return proj == full


def _shattered_dense(family: Family) -> int:
    """Shattered-set bits via a projection table over all coordinate sets."""
    n = family.n
    size = 1 << n
    full = (1 << size) - 1
    lows = _low_masks(n)
    proj = [0] * size
    proj[0] = family.bits
    for t in range(1, size):
        lb = t & -t
        prev = proj[t ^ lb]
        if prev == full:
            proj[t] = full
            continue
        i = lb.bit_length() - 1
        s = 1 << i
        low = lows[i]
        proj[t] = prev | ((prev & low) << s) | ((prev >> s) & low)
    all_coords = size - 1
    sh = 0
    for s_set in range(size):
        if proj[all_coords ^ s_set] == full:
            sh |= 1 << s_set
    return sh


def _shattered_pruned(family: Family) -> int:
    """Level-by-level search: test S only when all its facets shattered."""
    n = family.n
    sh = 1  # the empty set, shattered by any nonempty family
    current = [0]
    while current:
        nxt = []
        seen = set()
        for s in current:
            for i in range(n):
                b = 1 << i
                if s & b:
                    continue
                cand = s | b
                if cand in seen:
                    continue
                seen.add(cand)
                facets = (cand ^ (1 << j) for j in range(n) if cand >> j & 1)
                if all(sh >> f & 1 for f in facets) and shatters(family, cand):
                    sh |= 1 << cand
                    nxt.append(cand)
        current = nxt
    return sh


def shattered_sets(family: Family) -> Family:
    """The family of all sets shattered by F; always down-closed."""
    if not family.bits:
        return Family(family.n, 0)
    if family.n <= _DENSE_LIMIT:
        bits = _shattered_dense(family)
    else:
        bits = _shattered_pruned(family)
    return Family(family.n, bits)


def vc_dim(family: Family) -> int:
    """Largest size of a shattered set; -1 for the empty family."""
    if not family.bits:
        return -1
    return max(m.bit_count() for m in shattered_sets(family))


def is_extremal(family: Family) -> bool:
    """Whether the shattered-set family is exactly as large as F."""
    if not family.bits:
        raise DomainError("extremality is undefined for the empty family")
    return len(shattered_sets(family)) == len(family)


def is_maximal(family: Family) -> bool:
    """Whether F meets the partial-binomial-sum size bound with equality."""
    if not family.bits:
        raise DomainError("maximality is undefined for the empty family")
    return len(family) == binom_leq(family.n, vc_dim(family))


@dataclass(frozen=True)
class VcReport:
    """Joint answer for one family: dimension, shattered sets, predicates."""

    vc: int
    shattered: Family
    extremal: bool
    maximal: bool


def vc_report(family: Family) -> VcReport:
    """Compute the shattering layer once and derive everything from it."""
    if not family.bits:
        raise DomainError("report is undefined for the empty family")
    sh = shattered_sets(family)
    dim = max(m.bit_count() for m in sh)
    return VcReport(
        vc=dim,
        shattered=sh,
        extremal=len(sh) == len(family),
        maximal=len(family) == binom_leq(family.n, dim),
    )
