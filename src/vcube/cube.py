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
from functools import lru_cache
from itertools import accumulate
from operator import or_
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from .errors import DomainError, ParseError

DEFAULT_MAX_DIM = 28

_max_dim = DEFAULT_MAX_DIM

# byte value -> positions of its set bits
_BIT_POSITIONS = tuple(
    tuple(i for i in range(8) if b >> i & 1) for b in range(256)
)


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


@lru_cache(maxsize=8)
def _low_masks(n: int) -> Tuple[int, ...]:
    """For each coordinate i, the 2^n-bit mask of the index positions whose
    coordinate i is 0."""
    size = 1 << n
    masks = []
    for i in range(n):
        span = 1 << (i + 1)
        m = (1 << (1 << i)) - 1
        while span < size:
            m |= m << span
            span <<= 1
        masks.append(m)
    return tuple(masks)


def translate_bits(bits: int, x: int, n: int) -> int:
    """Characteristic vector of {y ^ x : y in bits}."""
    _check_mask(x, n)
    lows = _low_masks(n)
    i = 0
    while x:
        if x & 1:
            s = 1 << i
            low = lows[i]
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


# ---------------------------------------------------------------------------
# Blocks: a 2^(h+L)-bit vector as 2^h ints of 2^L bits, back, and across.
# ---------------------------------------------------------------------------


def _blocks(bits: int, h: int, low: int) -> List[int]:
    """Block i of the 2^(h+low)-bit vector: its bits [i*2^low, (i+1)*2^low),
    cut by recursive halving, one path for every block size."""
    if not h:
        return [bits]
    width = 1 << (h - 1 + low)
    return (_blocks(bits & (1 << width) - 1, h - 1, low)
            + _blocks(bits >> width, h - 1, low))


def _join(blocks: List[int], low: int) -> int:
    """The vector whose blocks of 2^low bits are `blocks`, joined by
    recursive halving; undoes `_blocks`."""
    if len(blocks) == 1:
        return blocks[0]
    half = len(blocks) >> 1
    return (_join(blocks[:half], low)
            | _join(blocks[half:], low) << (half << low))


def _transpose(blocks: List[int], low: int) -> List[int]:
    """The 2^low columns of the bit matrix whose rows are `blocks`: bit yh
    of column yl is bit yl of row yh.

    The joined vector's index (yh, yl) becomes (yl, yh) when its n
    coordinates are reversed and then each part's own: one delta swap per
    pair of coordinates, about n word-parallel passes over 2^n bits and
    no per-vertex work.
    """
    h = (len(blocks) - 1).bit_length()
    n = h + low
    bits = _join(blocks, low)
    pairs = ([(c, n - 1 - c) for c in range(n // 2)]
             + [(c, h - 1 - c) for c in range(h // 2)]
             + [(h + c, n - 1 - c) for c in range(low // 2)])
    for i, j in pairs:
        # the indices with coordinate i set and j clear, which swap with
        # the ones 2^j - 2^i above them
        mask, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < 1 << j:
            mask |= mask << width
            width <<= 1
        width <<= 1
        while width < 1 << n:
            mask |= mask << width
            width <<= 1
        delta = (1 << j) - (1 << i)
        t = (bits ^ bits >> delta) & mask
        bits ^= t | t << delta
    return _blocks(bits, low, h)


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

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        _check_dim(n, allow_zero=True)
        if bits < 0 or bits.bit_length() > (1 << n):
            raise DomainError(f"characteristic vector does not fit 2^{n} bits")
        self.n = n
        self.bits = bits

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
        return self.bits.bit_count()

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
        return Family(self.n, translate_bits(self.bits, x, self.n))

    def min_member(self) -> int:
        if not self.bits:
            raise DomainError("empty family has no members")
        return (self.bits & -self.bits).bit_length() - 1

    def select(self, j: int) -> int:
        """The j-th smallest member (0-indexed), by halving the vector to
        one bit: keep the low half while its popcount exceeds j, else the
        high half with j less that popcount."""
        if j < 0 or j >= self.size:
            raise IndexError(f"rank {j} out of range for size {self.size}")
        bits, pos, width = self.bits, 0, 1 << self.n
        while width > 1:
            width >>= 1
            low = bits & ((1 << width) - 1)
            c = low.bit_count()
            if j < c:
                bits = low
            else:
                j -= c
                bits >>= width
                pos += width
        return pos


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
    if not 0 <= r <= n:
        raise DomainError(f"radius r={r} outside [0, {n}]")
    return Family(n, translate_bits(_layer_bits(n, r), x, n))


def ball(n: int, x: int, r: int) -> Family:
    """Vertices at Hamming distance at most r from x."""
    _check_dim(n)
    if not 0 <= r <= n:
        raise DomainError(f"radius r={r} outside [0, {n}]")
    return Family(n, translate_bits(_ball_bits(n, r), x, n))


# ---------------------------------------------------------------------------
# Exact and log-domain binomial sums.
# ---------------------------------------------------------------------------


def binom_leq(n: int, k: int) -> int:
    """Exact partial binomial sum C(n,0) + ... + C(n,k)."""
    if not 0 <= k <= n:
        raise DomainError(f"binom_leq needs 0 <= k <= n, got n={n} k={k}")
    return sum(math.comb(n, i) for i in range(k + 1))


def log_binom(n: int, k: int) -> float:
    """ln C(n,k) via log-gamma.  Past n = 2^32 that difference loses the
    digits of a small side, so a side of at most 1024 factors is summed."""
    if not 0 <= k <= n:
        raise DomainError(f"log_binom needs 0 <= k <= n, got n={n} k={k}")
    j = min(k, n - k)
    if n > 2**32 and j <= 1024 and j == int(j):
        return sum(math.log((n - i) / (j - i)) for i in range(int(j)))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def log_binom_leq(n: int, k: int) -> float:
    """ln of the partial binomial sum, summed from the top in log domain;
    past the middle, 2^n less the complement C(n, <= n-k-1)."""
    if not 0 <= k <= n:
        raise DomainError(f"log_binom_leq needs 0 <= k <= n, got n={n} k={k}")
    if 2 * k >= n:  # terms below the top outgrow it, and exp overflows
        log_cube = n * math.log(2)
        rest = log_binom_leq(n, n - k - 1) if k < n else -math.inf
        return log_cube + math.log1p(-math.exp(rest - log_cube))
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


def _hex_digits(family: Family) -> str:
    """The hex characteristic vector that `_hex_family` reads back: two
    digits per byte of the 2^n-bit vector, zero-padded."""
    return f"{family.bits:0{_byte_len(family.n) * 2}x}"


def family_to_text(family: Family, style: str = "bits") -> str:
    header = f"n={family.n}"
    if style == "bits":
        lines = [format_mask(m, family.n) for m in family]
        return "\n".join([header] + lines) + "\n"
    if style == "hex":
        return f"{header}\nhex={_hex_digits(family)}\n"
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
