"""Induced matchings between adjacent layers of Q_n.

Covers validation against the induced-matching definition, exhaustive
canonical enumeration, the encoding of a matching as a maximal family of
VC dimension k (with its inverse decoding), and the coordinate-split
choice construction that yields an exactly countable sub-collection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import or_
from typing import Iterator, List, Optional, Tuple

from .cube import (
    Family,
    _ball_bits,
    _layer_bits,
    format_mask,
    parse_mask,
    read_header,
)
from .errors import BudgetError, DomainError, NotInImageError, ParseError

# Exhaustive enumeration is intended for tiny instances; the number of
# induced matchings explodes in n.
ENUM_DIM_GUARD = 5

Edge = Tuple[int, int]


@dataclass(frozen=True)
class InducedMatching:
    """A set of edges between layers k and k+1, lower mask then upper."""

    n: int
    k: int
    edges: Tuple[Edge, ...]

    def lower_bits(self) -> int:
        return reduce(or_, (1 << lo for lo, _ in self.edges), 0)

    def upper_bits(self) -> int:
        return reduce(or_, (1 << up for _, up in self.edges), 0)


def validate_matching(m: InducedMatching) -> Tuple[bool, Optional[str]]:
    """Check shape, vertex-disjointness and inducedness.

    Returns (True, None) or (False, description of the first violation).
    """
    n, k = m.n, m.k
    if not 0 <= k < n:
        return False, f"level k={k} outside [0, {n - 1}]"
    seen_lo = set()
    seen_up = set()
    for lo, up in m.edges:
        if lo < 0 or lo >> n or up < 0 or up >> n:
            return False, f"edge ({lo:#x},{up:#x}) does not fit n={n}"
        if lo.bit_count() != k or up.bit_count() != k + 1:
            return False, f"edge ({lo:#x},{up:#x}) is not a layer-{k} edge"
        if lo & ~up:
            return False, f"edge ({lo:#x},{up:#x}) endpoints not nested"
        if lo in seen_lo:
            return False, f"lower vertex {lo:#x} used twice"
        if up in seen_up:
            return False, f"upper vertex {up:#x} used twice"
        seen_lo.add(lo)
        seen_up.add(up)
    for i, (lo1, up1) in enumerate(m.edges):
        for lo2, up2 in m.edges[i + 1 :]:
            if not lo1 & ~up2:
                return False, (
                    f"not induced: lower {lo1:#x} inside upper {up2:#x}"
                )
            if not lo2 & ~up1:
                return False, (
                    f"not induced: lower {lo2:#x} inside upper {up1:#x}"
                )
    return True, None


def _edge_list(n: int, k: int) -> List[Edge]:
    edges = []
    fam = Family(n, _layer_bits(n, k))
    for lo in fam:
        for i in range(n):
            b = 1 << i
            if not lo & b:
                edges.append((lo, lo | b))
    return edges


def enumerate_induced_matchings(n: int, k: int) -> Iterator[InducedMatching]:
    """Every induced matching between layers k and k+1, exactly once.

    Depth-first over edges in lexicographic order; two forbidden-vertex
    bit vectors carry the incremental inducedness constraint, and the
    strictly increasing edge index makes each matching canonical.  The
    empty matching is emitted first.
    """
    if not 0 <= k < n:
        raise DomainError(f"need 0 <= k < n, got n={n} k={k}")
    if n > ENUM_DIM_GUARD:
        raise BudgetError(
            f"induced-matching enumeration is guarded to n <= {ENUM_DIM_GUARD}, "
            f"got n={n}"
        )
    edges = _edge_list(n, k)
    # Adding edge (lo, up) outlaws every lower inside up and every upper
    # over lo, which covers both vertex reuse and inducedness.
    cover_lo = []
    cover_up = []
    for lo, up in edges:
        lo_mask = 0
        u = up
        while u:
            b = u & -u
            lo_mask |= 1 << (up ^ b)
            u ^= b
        up_mask = 0
        for i in range(n):
            b = 1 << i
            if not lo & b:
                up_mask |= 1 << (lo | b)
        cover_lo.append(lo_mask)
        cover_up.append(up_mask)

    acc: List[Edge] = []

    def walk(start: int, forb_lo: int, forb_up: int) -> Iterator[InducedMatching]:
        yield InducedMatching(n, k, tuple(acc))
        for idx in range(start, len(edges)):
            lo, up = edges[idx]
            if forb_lo >> lo & 1 or forb_up >> up & 1:
                continue
            acc.append(edges[idx])
            yield from walk(idx + 1, forb_lo | cover_lo[idx], forb_up | cover_up[idx])
            acc.pop()

    yield from walk(0, 0, 0)


def matching_to_family(m: InducedMatching) -> Family:
    """Encode a matching as a family: everything below level k, the
    uncovered level-k sets, and the covered level-(k+1) sets.

    The result always has exactly the partial-binomial-sum size and VC
    dimension k, and distinct matchings encode to distinct families.
    """
    ok, why = validate_matching(m)
    if not ok:
        raise DomainError(f"invalid matching: {why}")
    n, k = m.n, m.k
    bits = _ball_bits(n, k - 1)
    bits |= _layer_bits(n, k) & ~m.lower_bits()
    bits |= m.upper_bits()
    return Family(n, bits)


def family_to_matching(family: Family, k: int) -> InducedMatching:
    """Decode a family back to the unique matching that encodes to it.

    Each member of size k+1 is paired with its single absent size-k
    subset.  The result is validated and re-encoded; any mismatch raises
    NotInImageError, so this doubles as an image-membership test.
    """
    n = family.n
    if not 0 <= k < n:
        raise DomainError(f"need 0 <= k < n, got n={n} k={k}")
    edges = []
    uppers = Family(n, family.bits & _layer_bits(n, k + 1))
    for up in uppers:
        subsets = (up ^ (1 << i) for i in range(n) if up >> i & 1)
        missing = [lo for lo in subsets if lo not in family]
        if len(missing) != 1:
            raise NotInImageError(
                f"upper set {format_mask(up, n)} has {len(missing)} absent "
                f"lower subsets, expected exactly 1"
            )
        edges.append((missing[0], up))
    edges.sort()
    m = InducedMatching(n, k, tuple(edges))
    ok, why = validate_matching(m)
    if not ok:
        raise NotInImageError(f"decoded edge set is not an induced matching: {why}")
    if matching_to_family(m) != family:
        raise NotInImageError("family disagrees with its re-encoded matching")
    return m


# ---------------------------------------------------------------------------
# Choice matchings over a coordinate split.
#
# Fix a split [n] = A + B with |A| = eps*n.  Matching every k-subset of B
# to itself plus one chosen element of A yields an induced matching per
# choice function, |A| ** C(|B|, k) in total.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateSplit:
    """Exact-rational split parameters; eps*n must be a positive integer."""

    n: int
    k: int
    epsilon: Fraction

    def __post_init__(self):
        if not 0 <= self.k < self.n:
            raise DomainError(f"need 0 <= k < n, got n={self.n} k={self.k}")
        if not 0 < self.epsilon < 1:
            raise DomainError(f"epsilon must lie in (0,1), got {self.epsilon}")
        a = self.epsilon * self.n
        if a.denominator != 1 or a < 1:
            raise DomainError(
                f"epsilon*n must be a positive integer, got {a}"
            )
        if self.n - int(a) < self.k:
            raise DomainError(
                f"the non-split block has {self.n - int(a)} coordinates, "
                f"fewer than k={self.k}"
            )

    @property
    def a_size(self) -> int:
        return int(self.epsilon * self.n)

    @property
    def a_coords(self) -> Tuple[int, ...]:
        return tuple(range(self.a_size))

    @property
    def b_coords(self) -> Tuple[int, ...]:
        return tuple(range(self.a_size, self.n))


def count_choice_matchings(split: CoordinateSplit) -> int:
    """Exact count: |A| ** C(|B|, k)."""
    return split.a_size ** math.comb(split.n - split.a_size, split.k)


def choice_matchings(split: CoordinateSplit) -> Iterator[InducedMatching]:
    """Stream the matchings of one choice function each, covering C(B,k)."""
    lowers = [
        sum(1 << c for c in combo)
        for combo in combinations(split.b_coords, split.k)
    ]
    lowers.sort()
    for assignment in product(split.a_coords, repeat=len(lowers)):
        edges = tuple(
            (lo, lo | (1 << a)) for lo, a in zip(lowers, assignment)
        )
        yield InducedMatching(split.n, split.k, edges)


# ---------------------------------------------------------------------------
# Serialization: header "n=<n> k=<k>", then one "lower upper" line per edge.
# ---------------------------------------------------------------------------


def matching_to_text(m: InducedMatching) -> str:
    lines = [f"n={m.n} k={m.k}"]
    for lo, up in m.edges:
        lines.append(f"{format_mask(lo, m.n)} {format_mask(up, m.n)}")
    return "\n".join(lines) + "\n"


def matching_from_text(text: str) -> InducedMatching:
    head, body = read_header(text, k=int)
    n = head["n"]
    edges = []
    for no, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("expected 'lower upper' bitstrings", lineno=no)
        try:
            edges.append((parse_mask(parts[0], n), parse_mask(parts[1], n)))
        except DomainError as exc:
            raise ParseError(str(exc), lineno=no) from None
    return InducedMatching(n, head["k"], tuple(edges))
