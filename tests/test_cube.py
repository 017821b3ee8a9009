import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from util import random_family, ref_to_bits, to_ref

from vcube import (
    DomainError,
    Family,
    ParseError,
    PeelConfig,
    ball,
    binom_leq,
    certificate_from_text,
    components,
    family_from_text,
    family_to_text,
    format_mask,
    hamming,
    layer,
    log_binom,
    log_binom_leq,
    mask_from_elements,
    matching_from_text,
    parse_mask,
    peel,
    sphere,
    subcube_bits,
)
from vcube.cube import _blocks, _join
from vcube.graph import (
    _component_index_lists,
    _drop_isolated,
    flood_component_sizes,
)


class TestLayer:
    def test_bottom_layer_is_empty_set(self):
        fam = layer(3, 0)
        assert sorted(fam) == [0]

    def test_middle_layer_size(self):
        assert len(layer(4, 2)) == 6

    def test_top_layer_is_full_set(self):
        assert sorted(layer(3, 3)) == [0b111]

    def test_sizes_match_binomials(self):
        for n in range(1, 9):
            for k in range(n + 1):
                assert len(layer(n, k)) == math.comb(n, k)

    def test_out_of_range_levels(self):
        with pytest.raises(DomainError):
            layer(3, 4)
        with pytest.raises(DomainError):
            layer(3, -1)


class TestHamming:
    def test_examples(self):
        assert hamming(0b101, 0b101) == 0
        assert hamming(0, 0b11) == 2
        assert hamming(0b01, 0b10) == 2

    def test_metric_axioms_exhaustive_n6(self):
        masks = range(1 << 6)
        for x in masks:
            assert hamming(x, x) == 0
            for y in masks:
                d = hamming(x, y)
                assert d == hamming(y, x)
                assert (d == 0) == (x == y)
        # triangle inequality, all triples
        for x in masks:
            for y in masks:
                dxy = hamming(x, y)
                for z in masks:
                    assert dxy <= hamming(x, z) + hamming(z, y)


class TestBallSphere:
    def test_examples(self):
        assert len(ball(3, 0, 1)) == 4
        x = 0b1010
        assert sorted(sphere(4, x, 0)) == [x]
        assert len(ball(5, 7, 5)) == 32

    def test_sizes(self):
        rng = random.Random(11)
        for n in range(1, 11):
            x = rng.getrandbits(n)
            for r in range(n + 1):
                assert len(ball(n, x, r)) == binom_leq(n, r)
                assert len(sphere(n, x, r)) == math.comb(n, r)

    def test_ball_is_union_of_spheres(self):
        rng = random.Random(12)
        for n in (2, 4, 6):
            x = rng.getrandbits(n)
            for r in range(1, n + 1):
                shell = ball(n, x, r) - ball(n, x, r - 1)
                assert shell == sphere(n, x, r)

    def test_radius_guards(self):
        with pytest.raises(DomainError):
            ball(4, 0, 5)
        with pytest.raises(DomainError):
            sphere(4, 0, -1)


class TestComponents:
    def test_singleton_layer(self):
        comps = components(layer(3, 1))
        assert sorted(sorted(c) for c in comps) == [[1], [2], [4]]

    def test_full_cube_is_connected(self):
        for n in (1, 3, 5):
            assert len(components(Family.full(n))) == 1

    def test_star_at_empty_set(self):
        fam = Family.from_masks(2, [0, 1, 2])
        assert len(components(fam)) == 1

    def test_empty_family(self):
        assert components(Family.empty(3)) == []

    def test_partition_against_reference(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randrange(2, 6)
            fam = random_family(rng, n)
            comps = components(fam)
            # partition: disjoint, union recovers the family
            union = Family.empty(n)
            total = 0
            for c in comps:
                assert len(c & union) == 0
                union = union | c
                total += len(c)
            assert union == fam and total == len(fam)
            canon = lambda comp: tuple(sorted(tuple(sorted(s)) for s in comp))
            got = sorted(canon(to_ref(c)) for c in comps)
            want = sorted(canon(c) for c in ref.components(to_ref(fam)))
            assert got == want

    def test_flood_fill_agrees_with_bfs(self):
        rng = random.Random(14)
        for _ in range(80):
            n = rng.randrange(1, 7)
            fam = random_family(rng, n)
            flood = sorted(flood_component_sizes(fam.bits, n))
            bfs = sorted(len(c) for c in components(fam))
            assert flood == bfs

    def test_bounded_flood_stops_past_the_limit(self):
        rng = random.Random(15)
        for n in range(1, 7):
            for _ in range(8):
                fam = random_family(rng, n)
                unbounded = flood_component_sizes(fam.bits, n)
                for limit in range(2**n + 1):
                    sizes = flood_component_sizes(fam.bits, n, limit)
                    if limit >= max(unbounded):
                        assert sizes == unbounded
                    else:
                        assert max(sizes) == sizes[-1] == limit + 1



def _search(bits, n, h):
    """The audit's component search on the split h + L = n: the isolated
    members from the blocks, then a BFS of the rest."""
    low = n - h
    blocks = _blocks(bits, h, low)
    dropped = _drop_isolated(blocks, low)
    rest = _join(blocks, low)
    assert dropped == (bits ^ rest).bit_count()
    return bits ^ rest, list(_component_index_lists(rest, n))


class TestComponentSearch:
    # second routes for the isolated-vertex pass and the byte-table BFS:
    # a scan of each member's neighbours, the frozenset reference, the
    # word-parallel flood, and components(), whose order is increasing
    # least vertex

    def _check(self, fam, reference=True):
        n = fam.n
        members = set(fam)
        want = {v for v in members
                if not any(v ^ 1 << i in members for i in range(n))}
        public = components(fam)
        seeds = [c.min_member() for c in public]
        assert seeds == sorted(seeds)
        assert sum(map(len, public)) == len(fam)
        for h in range(n + 1):
            lone, comps = _search(fam.bits, n, h)
            assert set(Family(n, lone)) == want, (n, h)
            assert all(len(c) >= 2 and c[0] == min(c) for c in comps)
            assert [c[0] for c in comps] == sorted(c[0] for c in comps)
            found = sorted([[v] for v in want] + [sorted(c) for c in comps])
            assert found == sorted(sorted(c) for c in public), (n, h)
        if reference:
            ref_comps = [Family(n, ref_to_bits(c))
                         for c in ref.components(to_ref(fam))]
            assert public == sorted(ref_comps, key=Family.min_member)

    def test_random_families_against_reference(self):
        rng = random.Random(16)
        for n in range(1, 11):
            size = 1 << n
            self._check(Family.empty(n))
            self._check(Family.full(n), reference=n <= 8)
            for _ in range(2):
                for density in (0.1, 0.3, 0.7):
                    fam = Family.from_masks(
                        n, [v for v in range(size) if rng.random() < density]
                    )
                    self._check(fam, reference=n <= 8 or density < 0.5)
                k = rng.randrange(1, min(6, size) + 1)
                self._check(Family.from_masks(n, rng.sample(range(size), k)))

    def test_one_layer_is_all_isolated(self):
        for n in range(1, 11):
            for k in range(n + 1):
                fam = layer(n, k)
                self._check(fam, reference=False)
                assert components(fam) == [
                    Family.from_masks(n, [v]) for v in fam
                ]
                assert _search(fam.bits, n, n // 2) == (fam.bits, [])

    def test_peel_separators(self):
        for n in range(3, 15):
            full = (1 << (1 << n)) - 1
            for seed in range(5):
                bits = peel(n, PeelConfig(seed=seed)).separator.bits ^ full
                lone, comps = _search(bits, n, n // 2)
                sizes = [1] * lone.bit_count() + [len(c) for c in comps]
                assert sorted(sizes) == sorted(flood_component_sizes(bits, n))
                public = components(Family(n, bits))
                assert sorted(sizes) == sorted(map(len, public)), (n, seed)


class TestBinomials:
    def test_binom_leq_examples(self):
        assert binom_leq(4, 2) == 11
        for n in range(1, 12):
            assert binom_leq(n, n) == 2**n

    def test_binom_leq_guards(self):
        with pytest.raises(DomainError):
            binom_leq(4, 5)
        with pytest.raises(DomainError):
            binom_leq(4, -1)

    def test_log_binom_against_exact(self):
        # frozen: C(30,15) computed exactly
        assert math.comb(30, 15) == 155117520
        rel = abs(math.exp(log_binom(30, 15)) - 155117520) / 155117520
        assert rel < 1e-9

    def test_log_binom_sweep(self):
        for n in range(1, 61):
            for k in range(n + 1):
                exact = math.log(math.comb(n, k))
                got = log_binom(n, k)
                assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))

    @pytest.mark.parametrize(
        "n, k", [(10**17, 3), (10**17, 10**17 - 3), (5e16, 18), (2**32 + 1, 1024)]
    )
    def test_log_binom_past_2_32_keeps_a_small_side(self, n, k):
        # lgamma(10^17 + 1) is a multiple of 512, so the difference read 0.0
        exact = math.log(math.comb(int(n), k))
        assert log_binom(n, k) == pytest.approx(exact, rel=1e-9)

    def test_log_binom_huge_dimension(self):
        # far beyond the dense-family cap
        val = log_binom(1 << 20, 1 << 19)
        assert 726000 < val < 727000  # ~ n ln 2

    def test_log_binom_leq_against_exact(self):
        # every k, past the middle too, where the sum goes through its
        # complement; n = 2000 is past where the terms under the top
        # overflow a double
        cases = [(n, k) for n in range(65) for k in range(n + 1)]
        cases += [(2000, 1000), (2000, 1500), (2000, 2000)]
        for n, k in cases:
            exact = math.log(binom_leq(n, k))
            got = log_binom_leq(n, k)
            assert abs(got - exact) <= 1e-12 * max(1.0, exact), (n, k)
        assert abs(log_binom_leq(2000, 2000) - 2000 * math.log(2)) <= 1e-12


class TestFamily:
    def test_membership_and_iteration(self):
        fam = Family.from_masks(3, [5, 1, 5, 0])
        assert len(fam) == 3
        assert list(fam) == [0, 1, 5]
        assert 5 in fam and 2 not in fam and 9 not in fam

    def test_set_algebra(self):
        a = Family.from_masks(2, [0, 1])
        b = Family.from_masks(2, [1, 2])
        assert sorted(a | b) == [0, 1, 2]
        assert sorted(a & b) == [1]
        assert sorted(a - b) == [0]
        assert sorted(a ^ b) == [0, 2]
        assert sorted(a.complement()) == [2, 3]

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            Family.full(2) | Family.full(3)

    def test_translate_is_involutive_isometry(self):
        rng = random.Random(16)
        for _ in range(40):
            n = rng.randrange(1, 8)
            fam = random_family(rng, n)
            x = rng.getrandbits(n)
            moved = fam.translate(x)
            assert len(moved) == len(fam)
            assert moved.translate(x) == fam
            assert sorted(moved) == sorted(m ^ x for m in fam)

    def test_select_matches_iteration(self):
        # dense, single-member, upper-half-only and sparse families at
        # every n the halving sees from a one-bit vector up; every rank
        # when a family is small, a spread of ranks when it is not
        rng = random.Random(17)
        for n in range(14):
            size = 1 << n
            upper = range(size >> 1, size)
            fams = [
                random_family(rng, n),
                Family.from_masks(n, [rng.randrange(size)]),
                Family.from_masks(n, [size - 1]),
                Family.from_masks(n, rng.sample(upper, min(len(upper), 40))),
                Family(n, rng.getrandbits(size) >> (size >> 1) << (size >> 1)),
                Family.from_masks(n, rng.sample(range(size), min(size, 45))),
            ]
            for fam in fams:
                members = list(fam)
                if len(members) < 50:
                    ranks = range(len(members))
                else:
                    ranks = {0, 1, len(members) - 1, len(members) // 2}
                    ranks |= set(rng.sample(range(len(members)), 40))
                for j in ranks:
                    assert fam.select(j) == members[j], (n, j)
                with pytest.raises(IndexError):
                    fam.select(len(members))
                with pytest.raises(IndexError):
                    fam.select(-1)

    def test_min_member(self):
        assert Family.from_masks(3, [6, 3, 5]).min_member() == 3
        with pytest.raises(DomainError):
            Family.empty(3).min_member()

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            Family.empty(64)
        with pytest.raises(DomainError):
            layer(64, 1)

    def test_mask_fit_guard(self):
        with pytest.raises(DomainError):
            Family.from_masks(2, [4])
        with pytest.raises(DomainError):
            Family(2, 1 << 16)

    def test_subcube_bits(self):
        assert subcube_bits(0b101, 3) == (1 | 1 << 1 | 1 << 4 | 1 << 5)
        for x in range(16):
            assert subcube_bits(x, 4).bit_count() == 1 << x.bit_count()


class TestSerialization:
    def test_mask_format_convention(self):
        # {1,3} in n=3 renders with element n leftmost
        m = mask_from_elements([1, 3], 3)
        assert format_mask(m, 3) == "101"
        assert parse_mask("101", 3) == m

    def test_bits_roundtrip(self):
        fam = Family.from_masks(3, [0, 3, 7])
        text = family_to_text(fam, style="bits")
        assert text.splitlines()[0] == "n=3"
        assert family_from_text(text) == fam

    def test_hex_roundtrip(self):
        rng = random.Random(18)
        for n in (1, 4, 6):
            fam = random_family(rng, n)
            assert family_from_text(family_to_text(fam, style="hex")) == fam

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            family_from_text("oops\n")
        with pytest.raises(ParseError, match="line 3"):
            family_from_text("n=3\n101\n10\n")
        with pytest.raises(ParseError, match="line 2"):
            family_from_text("n=2\nhex=zz\n")
        with pytest.raises(ParseError, match="line 2"):
            family_from_text("n=2\nhex=1f\n")


# Every reader shares one header grammar: each key exactly once, and n
# within [1, max_dim()].
_HEADERS = {
    family_from_text: "n=3",
    matching_from_text: "n=3 k=1",
    certificate_from_text: "n=8 alpha=0.5 r0=1 seed=0 T=1",
}

_HEADER_DEFECTS = {
    "missing": lambda toks: toks[:-1],
    "repeated": lambda toks: toks + toks[:1],
    "unknown": lambda toks: toks + ["z=1"],
    "bare": lambda toks: toks + ["z"],
    "bad_value": lambda toks: ["n=x"] + toks[1:],
    "over_cap": lambda toks: ["n=29"] + toks[1:],
}


@pytest.mark.parametrize("defect", list(_HEADER_DEFECTS))
@pytest.mark.parametrize("reader", list(_HEADERS), ids=lambda f: f.__name__)
def test_header_defects_are_parse_errors_at_line_1(reader, defect):
    toks = _HEADER_DEFECTS[defect](_HEADERS[reader].split())
    with pytest.raises(ParseError, match="line 1: .*(header|outside)"):
        reader(" ".join(toks) + "\n")


@given(
    n=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_translate_preserves_distances(n, data):
    x = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    y = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert hamming(x ^ a, y ^ a) == hamming(x, y)


@given(
    n=st.integers(min_value=1, max_value=6),
    bits=st.integers(min_value=0),
    r=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=80, deadline=None)
def test_ball_intersection_counts_by_scan(n, bits, r):
    fam = Family(n, bits % (1 << (1 << n)))
    r = min(r, n)
    hand = sum(1 for m in fam if hamming(m, 0) <= r)
    assert len(fam & ball(n, 0, r)) == hand
