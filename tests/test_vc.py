import random

import pytest

import reference as ref
from util import random_downset, random_family, to_ref

from vcube import (
    DomainError,
    Family,
    ball,
    binom_leq,
    is_extremal,
    is_maximal,
    layer,
    shattered_sets,
    shatters,
    traces,
    vc_dim,
    vc_report,
)


def family_of(n, *element_sets):
    from vcube import mask_from_elements

    return Family.from_masks(n, [mask_from_elements(s, n) for s in element_sets])


class TestTraces:
    def test_empty_family(self):
        assert len(traces(Family.empty(3), 0b011)) == 0

    def test_full_square(self):
        fam = family_of(2, (), (1,), (2,), (1, 2))
        assert len(traces(fam, 0b11)) == 4

    def test_single_member(self):
        fam = family_of(2, (1, 2))
        t = traces(fam, 0b01)
        assert t.n == 1 and sorted(t) == [1]

    def test_trace_on_empty_set(self):
        t = traces(family_of(2, (1,)), 0)
        assert t.n == 0 and sorted(t) == [0]


class TestShatters:
    def test_empty_set_iff_nonempty_family(self):
        assert shatters(family_of(2, (1,)), 0)
        assert not shatters(Family.empty(2), 0)

    def test_full_square(self):
        fam = family_of(2, (), (1,), (2,), (1, 2))
        assert shatters(fam, 0b11)

    def test_missing_trace(self):
        fam = family_of(2, (1,), (2,))
        assert not shatters(fam, 0b11)
        assert shatters(fam, 0b01)

    def test_against_reference_exhaustive_n3(self):
        for bits in range(1 << (1 << 3)):
            fam = Family(3, bits)
            rfam = to_ref(fam)
            for s in range(8):
                want = ref.shatters(rfam, frozenset(e + 1 for e in range(3) if s >> e & 1))
                assert shatters(fam, s) == want


class TestShatteredSets:
    def test_downset_is_its_own_shattering(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randrange(1, 7)
            fam = random_downset(rng, n)
            assert shattered_sets(fam) == fam

    def test_singleton_empty_set(self):
        fam = Family.from_masks(2, [0])
        assert sorted(shattered_sets(fam)) == [0]

    def test_full_powerset(self):
        for n in (1, 2, 4):
            assert shattered_sets(Family.full(n)) == Family.full(n)

    def test_always_downclosed(self):
        rng = random.Random(22)
        for _ in range(50):
            n = rng.randrange(1, 7)
            sh = shattered_sets(random_family(rng, n))
            for s in sh:
                for i in range(n):
                    if s >> i & 1:
                        assert (s ^ (1 << i)) in sh

    def test_monotone_in_the_family(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randrange(1, 7)
            g = random_family(rng, n)
            f = Family(n, g.bits & rng.getrandbits(1 << n))
            sh_f = shattered_sets(f)
            sh_g = shattered_sets(g)
            assert len(sh_f - sh_g) == 0

    def test_agrees_with_the_single_set_test(self):
        rng = random.Random(24)
        for n in range(1, 14):
            for halvings in range(4):  # densities 1/2, 1/4, 1/8, 1/16
                bits = rng.getrandbits(1 << n)
                for _ in range(halvings):
                    bits &= rng.getrandbits(1 << n)
                fam = Family(n, bits)
                want = sum(1 << s for s in range(1 << n) if shatters(fam, s))
                assert shattered_sets(fam).bits == want, (n, halvings)

    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_closed_forms_in_high_dimension(self, n):
        for k in (1, 2, n // 2):
            assert shattered_sets(layer(n, k)) == ball(n, 0, min(k, n - k))
            assert shattered_sets(ball(n, 0, k)) == ball(n, 0, k)


class TestVcDim:
    def test_full_powerset(self):
        for n in (1, 3, 5):
            assert vc_dim(Family.full(n)) == n

    def test_trivial_families(self):
        assert vc_dim(Family.from_masks(3, [0])) == 0
        assert vc_dim(Family.empty(4)) == -1

    def test_single_set_family(self):
        rng = random.Random(25)
        for _ in range(20):
            n = rng.randrange(1, 8)
            assert vc_dim(Family.from_masks(n, [rng.getrandbits(n)])) == 0


class TestPredicates:
    def test_two_singletons_not_extremal(self):
        fam = family_of(2, (1,), (2,))
        assert len(shattered_sets(fam)) == 3
        assert not is_extremal(fam)

    def test_downsets_are_extremal(self):
        rng = random.Random(26)
        for _ in range(30):
            assert is_extremal(random_downset(rng, rng.randrange(1, 7)))

    def test_full_powerset_extremal_and_maximal(self):
        assert is_extremal(Family.full(3))
        assert is_maximal(Family.full(3))

    def test_binomial_downset_is_maximal(self):
        for n in (2, 4, 5):
            for k in range(n + 1):
                bits = 0
                for j in range(k + 1):
                    bits |= layer(n, j).bits
                fam = Family(n, bits)
                assert is_maximal(fam)
                assert vc_dim(fam) == k

    def test_proper_subfamily_not_maximal(self):
        fam = family_of(2, (), (1,))
        assert vc_dim(fam) == 1
        assert not is_maximal(fam)

    def test_empty_family_rejected(self):
        for pred in (is_extremal, is_maximal, vc_report):
            with pytest.raises(DomainError):
                pred(Family.empty(2))


class TestAgainstReference:
    def test_exhaustive_small_dimensions(self):
        for n in (1, 2, 3):
            for bits in range(1, 1 << (1 << n)):
                fam = Family(n, bits)
                rfam = to_ref(fam)
                rep = vc_report(fam)
                assert to_ref(rep.shattered) == ref.shattered_sets(rfam, n)
                assert rep.vc == ref.vc_dim(rfam, n)
                assert rep.extremal == ref.is_extremal(rfam, n)
                assert rep.maximal == ref.is_maximal(rfam, n)

    def test_random_n5_against_reference(self):
        rng = random.Random(27)
        for _ in range(40):
            fam = random_family(rng, 5)
            rfam = to_ref(fam)
            assert to_ref(shattered_sets(fam)) == ref.shattered_sets(rfam, 5)


class TestInequalities:
    def test_pajor_and_sauer_exhaustive_n3(self):
        for bits in range(1, 1 << 8):
            fam = Family(3, bits)
            rep = vc_report(fam)
            assert len(rep.shattered) >= len(fam)
            assert len(fam) <= binom_leq(3, rep.vc)

    def test_maximal_implies_extremal_exhaustive_n3(self):
        for bits in range(1, 1 << 8):
            rep = vc_report(Family(3, bits))
            if rep.maximal:
                assert rep.extremal
