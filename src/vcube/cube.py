"""Bit-level hypercube primitives.

A vertex of Q_n is a subset of {1,..,n} stored as a plain int: bit i-1
holds element i.  A Family is an immutable set of vertices stored as one
2^n-bit characteristic integer indexed by vertex mask, so intersection,
union, complement, XOR-translation and cardinality are word-parallel
big-int operations.  Textual I/O renders 1-indexed element names; a
vertex prints as an n-character bitstring with element n leftmost
(n=3, {1,3} <-> "101").
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from itertools import accumulate
from operator import or_
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from .errors import DomainError, ParseError

DEFAULT_MAX_DIM = 28

_max_dim = DEFAULT_MAX_DIM

# byte value -> positions of its set bits, and their count
_BIT_POSITIONS = tuple(
    tuple(i for i in range(8) if b >> i & 1) for b in range(256)
)
_POPCOUNT8 = tuple(len(p) for p in _BIT_POSITIONS)


def max_dim() -> int:
    """Largest ambient dimension the dense representation accepts."""
    return _max_dim


def set_max_dim(n: int) -> None:
    """Raise or lower the dimension cap (a 2^n-bit vector must fit in RAM)."""
    if n < 1:
        raise DomainError(f"max dimension must be >= 1, got {n}")
    global _max_dim
    _max_dim = n


def _check_dim(n: int, allow_zero: bool = False) -> None:
    lo = 0 if allow_zero else 1
    if not isinstance(n, int) or n < lo or n > _max_dim:
        raise DomainError(
            f"dimension n={n} outside supported range [{lo}, {_max_dim}] "
            f"(cap adjustable via set_max_dim)"
        )


def _check_mask(x: int, n: int) -> None:
    if x < 0 or x >> n:
        raise DomainError(f"mask {x:#x} does not fit dimension n={n}")


def _byte_len(n: int) -> int:
    return ((1 << n) + 7) >> 3


def hamming(x: int, y: int) -> int:
    """Hamming distance between two vertex masks of the same ambient n."""
    if x < 0 or y < 0:
        raise DomainError("vertex masks are non-negative")
    return (x ^ y).bit_count()


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Build a vertex mask from 1-indexed element names."""
    bits = 0
    for e in elements:
        if not 1 <= e <= n:
            raise DomainError(f"element {e} outside [1, {n}]")
        bits |= 1 << (e - 1)
    return bits


def mask_elements(x: int) -> Tuple[int, ...]:
    """1-indexed element names of a vertex mask, ascending."""
    return tuple(i + 1 for i in range(x.bit_length()) if x >> i & 1)


def format_mask(x: int, n: int) -> str:
    _check_mask(x, n)
    return format(x, f"0{n}b")


def parse_mask(text: str, n: int) -> int:
    if len(text) != n or set(text) - {"0", "1"}:
        raise DomainError(f"expected an {n}-character bitstring, got {text!r}")
    return int(text, 2)


# ---------------------------------------------------------------------------
# XOR-translation of characteristic vectors.
#
# Translating a family by x permutes vertex indices y -> y ^ x.  Flipping a
# single coordinate i swaps adjacent index blocks of length 2^i, which is a
# masked-shift pair on the big integer; a general x composes its set bits.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=96)
def _low_mask(n: int, i: int) -> int:
    """Bits set at index positions whose coordinate i is 0, width 2^n."""
    span = 1 << (i + 1)
    m = (1 << (1 << i)) - 1
    size = 1 << n
    while span < size:
        m |= m << span
        span <<= 1
    return m


def translate_bits(bits: int, x: int, n: int) -> int:
    """Characteristic vector of {y ^ x : y in bits}."""
    i = 0
    while x:
        if x & 1:
            s = 1 << i
            low = _low_mask(n, i)
            bits = ((bits & low) << s) | ((bits >> s) & low)
        x >>= 1
        i += 1
    return bits


def subcube_bits(x: int, n: int) -> int:
    """Characteristic vector of all subsets of x (a down-closure block)."""
    _check_mask(x, n)
    bits = 1
    i = 0
    while x:
        if x & 1:
            bits |= bits << (1 << i)
        x >>= 1
        i += 1
    return bits


def _gosper(width: int, k: int) -> Iterator[int]:
    """All width-bit integers with exactly k set bits, increasing.

    Numeric order on characteristic masks is colex order on the subsets,
    so progress is reproducible.
    """
    if k == 0:
        yield 0
        return
    limit = 1 << width
    v = (1 << k) - 1
    while v < limit:
        yield v
        c = v & -v
        r = v + c
        v = r | ((v ^ r) >> (c.bit_length() + 1))


class Family:
    """Immutable set of Q_n vertices as a 2^n-bit characteristic integer.

    Instances are value objects: hashable, comparable, and safe to share
    across threads.  Set algebra uses the |, &, -, ^ operators and requires
    matching ambient dimension.
    """

    __slots__ = ("n", "bits", "_size")

    def __init__(self, n: int, bits: int = 0):
        _check_dim(n, allow_zero=True)
        if bits < 0 or bits.bit_length() > (1 << n):
            raise DomainError(f"characteristic vector does not fit 2^{n} bits")
        self.n = n
        self.bits = bits
        self._size = None

    @classmethod
    def empty(cls, n: int) -> "Family":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "Family":
        return cls(n, (1 << (1 << n)) - 1)

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Family":
        _check_dim(n, allow_zero=True)
        data = bytearray(_byte_len(n))
        for m in masks:
            _check_mask(m, n)
            data[m >> 3] |= 1 << (m & 7)
        return cls(n, int.from_bytes(bytes(data), "little"))

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = self.bits.bit_count()
        return self._size

    def __len__(self) -> int:
        return self.size

    def __contains__(self, m: int) -> bool:
        if m < 0 or m >> self.n:
            return False
        return bool(self.bits >> m & 1)

    def __iter__(self) -> Iterator[int]:
        data = self.bits.to_bytes(_byte_len(self.n), "little")
        base = 0
        for byte in data:
            if byte:
                for off in _BIT_POSITIONS[byte]:
                    yield base + off
            base += 8

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Family)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Family(n={self.n}, size={self.size})"

    def _binary_op(self, other: "Family", bits: int) -> "Family":
        if not isinstance(other, Family):
            return NotImplemented
        if self.n != other.n:
            raise DomainError(f"mixed dimensions {self.n} and {other.n}")
        return Family(self.n, bits)

    def __or__(self, other):
        return self._binary_op(other, self.bits | other.bits)

    def __and__(self, other):
        return self._binary_op(other, self.bits & other.bits)

    def __sub__(self, other):
        return self._binary_op(other, self.bits & ~other.bits)

    def __xor__(self, other):
        return self._binary_op(other, self.bits ^ other.bits)

    def complement(self) -> "Family":
        return Family(self.n, self.bits ^ ((1 << (1 << self.n)) - 1))

    def translate(self, x: int) -> "Family":
        """XOR-translate every member by x (an isometry of Q_n)."""
        _check_mask(x, self.n)
        return Family(self.n, translate_bits(self.bits, x, self.n))

    def min_member(self) -> int:
        if not self.bits:
            raise DomainError("empty family has no members")
        return (self.bits & -self.bits).bit_length() - 1

    def select(self, j: int) -> int:
        """The j-th smallest member (0-indexed)."""
        if j < 0 or j >= self.size:
            raise IndexError(f"rank {j} out of range for size {self.size}")
        data = self.bits.to_bytes(_byte_len(self.n), "little")
        pos = 0
        chunk = 4096
        while pos + chunk <= len(data):
            c = int.from_bytes(data[pos : pos + chunk], "little").bit_count()
            if j >= c:
                j -= c
                pos += chunk
            else:
                break
        for idx in range(pos, len(data)):
            c = _POPCOUNT8[data[idx]]
            if j >= c:
                j -= c
            else:
                return idx * 8 + _BIT_POSITIONS[data[idx]][j]
        raise AssertionError("rank scan overran the vector")


# ---------------------------------------------------------------------------
# Layers, balls, spheres.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=3)
def _layer_tables(n: int) -> Tuple[List[int], List[int]]:
    """Per-popcount layer masks and their prefix unions (balls around 0)."""
    layers = [1]
    for i in range(n):
        shift = 1 << i
        layers = (
            [layers[0]]
            + [layers[k] | (layers[k - 1] << shift) for k in range(1, i + 1)]
            + [layers[i] << shift]
        )
    return layers, list(accumulate(layers, or_))


def _layer_bits(n: int, k: int) -> int:
    return _layer_tables(n)[0][k]


def _ball_bits(n: int, r: int) -> int:
    if r < 0:
        return 0
    return _layer_tables(n)[1][r]


def layer(n: int, k: int) -> Family:
    """All vertices with exactly k ones: the k-th layer of Q_n."""
    _check_dim(n)
    if not 0 <= k <= n:
        raise DomainError(f"layer k={k} outside [0, {n}]")
    return Family(n, _layer_bits(n, k))


def sphere(n: int, x: int, r: int) -> Family:
    """Vertices at Hamming distance exactly r from x."""
    _check_dim(n)
    _check_mask(x, n)
    if not 0 <= r <= n:
        raise DomainError(f"radius r={r} outside [0, {n}]")
    return Family(n, translate_bits(_layer_bits(n, r), x, n))


def ball(n: int, x: int, r: int) -> Family:
    """Vertices at Hamming distance at most r from x."""
    _check_dim(n)
    _check_mask(x, n)
    if not 0 <= r <= n:
        raise DomainError(f"radius r={r} outside [0, {n}]")
    return Family(n, translate_bits(_ball_bits(n, r), x, n))


# ---------------------------------------------------------------------------
# Connected components under Q_n adjacency restricted to a family.
# ---------------------------------------------------------------------------


def _component_index_lists(bits: int, n: int) -> Iterator[List[int]]:
    """Yield each component as an ascending-seeded list of vertex indices.

    Iterative breadth-first search over a byte table; no recursion, so
    large instances cannot exhaust the call stack.
    """
    if not bits:
        return
    data = bytearray(bits.to_bytes(_byte_len(n), "little"))
    nbits = [1 << i for i in range(n)]
    pos = 0
    size = len(data)
    while pos < size:
        byte = data[pos]
        if not byte:
            pos += 1
            continue
        v0 = pos * 8 + _BIT_POSITIONS[byte][0]
        data[v0 >> 3] &= ~(1 << (v0 & 7))
        comp = [v0]
        queue = deque((v0,))
        while queue:
            v = queue.popleft()
            for b in nbits:
                u = v ^ b
                if data[u >> 3] >> (u & 7) & 1:
                    data[u >> 3] &= ~(1 << (u & 7))
                    comp.append(u)
                    queue.append(u)
        yield comp


def components(family: Family) -> List[Family]:
    """Partition a family into maximal connected pieces of Q_n."""
    n = family.n
    return [
        Family.from_masks(n, comp)
        for comp in _component_index_lists(family.bits, n)
    ]


def _neighbor_bits(bits: int, n: int) -> int:
    """Characteristic vector of all Q_n neighbors of a vertex set."""
    out = 0
    for i in range(n):
        s = 1 << i
        low = _low_mask(n, i)
        out |= ((bits & low) << s) | ((bits >> s) & low)
    return out


def flood_component_sizes(bits: int, n: int) -> List[int]:
    """Component sizes by word-parallel flood fill.

    Fast when components have small graph diameter (each round grows the
    current component by one neighborhood layer); used by the exhaustive
    integrity oracle and the middle-layer baseline.
    """
    sizes = []
    rem = bits
    while rem:
        comp = rem & -rem
        while True:
            grown = (comp | _neighbor_bits(comp, n)) & rem
            if grown == comp:
                break
            comp = grown
        sizes.append(comp.bit_count())
        rem &= ~comp
    return sizes


# ---------------------------------------------------------------------------
# Exact and log-domain binomial sums.
# ---------------------------------------------------------------------------


def binom_leq(n: int, k: int) -> int:
    """Exact partial binomial sum C(n,0) + ... + C(n,k)."""
    if not 0 <= k <= n:
        raise DomainError(f"binom_leq needs 0 <= k <= n, got n={n} k={k}")
    return sum(math.comb(n, i) for i in range(k + 1))


def log_binom(n: int, k: int) -> float:
    """ln C(n,k) via log-gamma; good far beyond the dense-family cap."""
    if not 0 <= k <= n:
        raise DomainError(f"log_binom needs 0 <= k <= n, got n={n} k={k}")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def log_binom_leq(n: int, k: int) -> float:
    """ln of the partial binomial sum, summed from the top in log domain."""
    if not 0 <= k <= n:
        raise DomainError(f"log_binom_leq needs 0 <= k <= n, got n={n} k={k}")
    top = log_binom(n, k)
    total = 0.0
    for i in range(k, -1, -1):
        t = log_binom(n, i) - top
        if t < -45.0:
            break
        total += math.exp(t)
    return top + math.log(total)


# ---------------------------------------------------------------------------
# Textual serialization.
#
# Every file vcube reads opens with a one-line header of "key=value"
# tokens; `read_header` owns that grammar and the dimension check.
# Families: header "n=<n>", then either one member bitstring per line or a
# single "hex=<digits>" line carrying the characteristic vector.
# ---------------------------------------------------------------------------


def read_header(
    text: str, **fields: Callable[[str], object]
) -> Tuple[Dict[str, object], List[Tuple[int, str]]]:
    """Split a file into its header fields and its numbered body lines.

    Line 1 holds whitespace-separated "key=value" tokens: "n" and each key
    of `fields`, every one exactly once, in any order.  "n" is an int in
    [1, max_dim()]; every other value goes through its converter.  Body
    lines come back stripped and numbered from 2, blank ones dropped.  A
    missing, repeated, unknown or unconvertible key raises ParseError at
    line 1.
    """
    fields = {"n": int, **fields}
    lines = text.splitlines()
    head: Dict[str, object] = {}
    for tok in lines[0].split() if lines else ():
        key, eq, val = tok.partition("=")
        if not eq or key not in fields or key in head:
            raise ParseError(f"unexpected header token {tok!r}", lineno=1)
        try:
            head[key] = fields[key](val)
        except ValueError:
            raise ParseError(f"bad header value {tok!r}", lineno=1) from None
    if len(head) != len(fields):
        form = " ".join(f"{key}=<{key}>" for key in fields)
        raise ParseError(f"expected header {form!r}", lineno=1)
    if not 1 <= head["n"] <= _max_dim:
        raise ParseError(f"n={head['n']} outside [1, {_max_dim}]", lineno=1)
    body = [(no, ln.strip()) for no, ln in enumerate(lines[1:], start=2)]
    return head, [(no, ln) for no, ln in body if ln]


def _hex_family(digits: str, n: int, lineno: int) -> Family:
    """A family from a hex characteristic vector on body line `lineno`."""
    try:
        return Family(n, int(digits, 16))
    except ValueError as exc:  # bad digits, or a DomainError: too wide
        raise ParseError(str(exc), lineno=lineno) from None


def family_to_text(family: Family, style: str = "bits") -> str:
    header = f"n={family.n}"
    if style == "bits":
        lines = [format_mask(m, family.n) for m in family]
        return "\n".join([header] + lines) + "\n"
    if style == "hex":
        width = max(1, _byte_len(family.n) * 2)
        return f"{header}\nhex={family.bits:0{width}x}\n"
    raise DomainError(f"unknown family serialization style {style!r}")


def family_from_text(text: str) -> Family:
    head, body = read_header(text)
    n = head["n"]
    if len(body) == 1 and body[0][1].startswith("hex="):
        no, ln = body[0]
        return _hex_family(ln[len("hex=") :], n, no)
    masks = []
    for no, ln in body:
        try:
            masks.append(parse_mask(ln, n))
        except DomainError as exc:
            raise ParseError(str(exc), lineno=no) from None
    return Family.from_masks(n, masks)
