"""Connected components of a family under Q_n adjacency.

The audit's route to the largest component of Q_n minus a separator:
`_drop_isolated` takes out the members without a neighbour,
word-parallel on the row blocks the peel keeps (`cube._blocks`), and
`_component_index_lists` searches the rest breadth-first over a byte
table.  `flood_component_sizes` is the word-parallel flood fill of the
exact integrity oracle.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from .cube import _BIT_POSITIONS, Family, _byte_len, _low_masks

# byte value -> the bits one coordinate 0, 1 or 2 away from one of its bits
_BYTE_NEIGHBOURS = tuple(
    (b & 0x55) << 1 | (b & 0xAA) >> 1 | (b & 0x33) << 2 | (b & 0xCC) >> 2
    | (b & 0x0F) << 4 | (b & 0xF0) >> 4
    for b in range(256)
)


def _drop_isolated(blocks: List[int], low: int) -> int:
    """Take the members without a neighbour out of the set whose row
    blocks of 2^low bits are `blocks` (`cube._blocks`), in place; return how
    many there were.

    Word-parallel, block by block: in-block shifts, with the L-bit masks
    of `_low_masks(low)`, for the low coordinates, and an OR of the
    neighbouring blocks for the top ones; no 2^n-bit mask is built.  An
    isolated member is no other member's neighbour, so taking it out
    changes no later block's test.
    """
    lows = _low_masks(low)
    tops = [1 << t for t in range((len(blocks) - 1).bit_length())]
    dropped = 0
    for k, block in enumerate(blocks):
        if block:
            near = 0
            for t in tops:
                near |= blocks[k ^ t]
            s = 1
            for m in lows:
                near |= (block & m) << s | (block >> s) & m
                s <<= 1
            blocks[k] = block & near
            dropped += block.bit_count() - blocks[k].bit_count()
    return dropped


def _component_index_lists(bits: int, n: int) -> Iterator[List[int]]:
    """Yield each component as a list of vertex indices, seeded at its
    least vertex, in increasing order of that seed.

    Iterative breadth-first search over a byte table, the component's
    list serving as its queue; no recursion, so large instances cannot
    exhaust the call stack.  A vertex v sits in byte i = v >> 3 at bit
    b = 1 << (v & 7): its neighbours along coordinates >= 3 are bit b of
    the bytes i ^ 2^(c-3), and those along 0, 1 and 2 share its byte and
    are `_BYTE_NEIGHBOURS[b]`.  The audit takes the isolated vertices out
    first (`_drop_isolated`), so only components of two or more are
    searched.
    """
    if not bits:
        return
    data = bytearray(bits.to_bytes(_byte_len(n), "little"))
    far = [(1 << c - 3, 1 << c) for c in range(3, n)]
    pos = 0
    size = len(data)
    while pos < size:
        byte = data[pos]
        if not byte:
            pos += 1
            continue
        comp = [pos << 3 | _BIT_POSITIONS[byte][0]]
        data[pos] = byte & (byte - 1)
        for v in comp:  # a list iterator reaches what is appended to it
            i = v >> 3
            bit = 1 << (v & 7)
            hits = data[i] & _BYTE_NEIGHBOURS[bit]
            if hits:
                data[i] ^= hits
                base = v & ~7
                for off in _BIT_POSITIONS[hits]:
                    comp.append(base | off)
            for step, flip in far:
                if data[i ^ step] & bit:
                    data[i ^ step] ^= bit
                    comp.append(v ^ flip)
        yield comp


def components(family: Family) -> List[Family]:
    """Partition a family into maximal connected pieces of Q_n, in
    increasing order of their least vertex."""
    n = family.n
    return [
        Family.from_masks(n, comp)
        for comp in _component_index_lists(family.bits, n)
    ]


def flood_component_sizes(
    bits: int, n: int, limit: Optional[int] = None
) -> List[int]:
    """Component sizes by word-parallel flood fill.

    Fast when components have small graph diameter (each round grows the
    current component by one neighborhood layer); used by the exact
    integrity oracle.  With a `limit`, the fill gives up as soon as the
    component it is growing has more than `limit` vertices, and the list
    then ends in `limit + 1`.
    """
    lows = _low_masks(n)
    cap = bits.bit_count() if limit is None else limit
    sizes = []
    rem = bits
    while rem:
        comp = rem & -rem
        size = 1
        while size <= cap:
            grown = comp
            s = 1
            for low in lows:
                grown |= ((comp & low) << s) | ((comp >> s) & low)
                s <<= 1
            grown &= rem
            if grown == comp:
                break
            comp = grown
            size = comp.bit_count()
        if size > cap:
            sizes.append(cap + 1)
            return sizes
        sizes.append(size)
        rem ^= comp
    return sizes
