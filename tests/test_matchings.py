import random
from fractions import Fraction
from itertools import combinations

import pytest

import reference as ref

from vcube import (
    BudgetError,
    CoordinateSplit,
    DomainError,
    Family,
    InducedMatching,
    NotInImageError,
    ParseError,
    binom_leq,
    choice_matchings,
    count_choice_matchings,
    enumerate_induced_matchings,
    family_to_matching,
    layer,
    mask_from_elements,
    matching_from_text,
    matching_to_family,
    matching_to_text,
    validate_matching,
    vc_report,
)
from vcube.matchings import _edge_list


def edges_of(n, k, *pairs):
    out = []
    for lo, up in pairs:
        out.append((mask_from_elements(lo, n), mask_from_elements(up, n)))
    return InducedMatching(n, k, tuple(out))


class TestValidate:
    def test_empty_matching(self):
        ok, why = validate_matching(InducedMatching(3, 1, ()))
        assert ok and why is None

    def test_shared_lower_vertex(self):
        m = edges_of(2, 0, ((), (1,)), ((), (2,)))
        ok, why = validate_matching(m)
        assert not ok and "twice" in why

    def test_cross_containment_is_not_induced(self):
        m = edges_of(3, 1, ((1,), (1, 2)), ((3,), (1, 3)))
        ok, why = validate_matching(m)
        assert not ok and "not induced" in why

    def test_wrong_layer(self):
        m = edges_of(3, 1, ((1, 2), (1, 2, 3)))
        ok, why = validate_matching(m)
        assert not ok and "layer" in why

    def test_not_nested(self):
        m = InducedMatching(3, 1, ((0b001, 0b110),))
        ok, why = validate_matching(m)
        assert not ok and "nested" in why

    def test_against_reference_on_random_edge_subsets(self):
        rng = random.Random(31)
        for n, k in [(3, 1), (4, 1), (4, 2)]:
            edges = _edge_list(n, k)
            for _ in range(200):
                chosen = [e for e in edges if rng.random() < 0.25]
                m = InducedMatching(n, k, tuple(chosen))
                ref_edges = [
                    (
                        frozenset(e + 1 for e in range(n) if lo >> e & 1),
                        frozenset(e + 1 for e in range(n) if up >> e & 1),
                    )
                    for lo, up in chosen
                ]
                assert validate_matching(m)[0] == ref.is_induced_matching(ref_edges)


class TestEnumerate:
    def test_tiny_counts_exact_contents(self):
        got = list(enumerate_induced_matchings(2, 0))
        assert len(got) == 3
        assert got[0].edges == ()
        assert {m.edges for m in got} == {(), ((0, 1),), ((0, 2),)}

    def test_counts_against_reference(self):
        for n, k, want in [
            (2, 0, 3),
            (2, 1, 3),
            (3, 0, 4),
            (3, 1, 10),
            (3, 2, 4),
            (4, 1, 41),
            (4, 2, 41),
        ]:
            assert ref.count_induced_matchings(n, k) == want  # frozen
            assert sum(1 for _ in enumerate_induced_matchings(n, k)) == want

    def test_stream_contains_empty_matching_first(self):
        for n, k in [(2, 0), (3, 1), (4, 2)]:
            first = next(enumerate_induced_matchings(n, k))
            assert first.edges == ()

    def test_no_duplicates_and_all_valid(self):
        for n, k in [(4, 1), (4, 2)]:
            seen = set()
            for m in enumerate_induced_matchings(n, k):
                assert validate_matching(m)[0]
                assert m.edges not in seen
                seen.add(m.edges)

    def test_guards(self):
        with pytest.raises(BudgetError):
            next(enumerate_induced_matchings(6, 1))
        with pytest.raises(DomainError):
            next(enumerate_induced_matchings(3, 3))


class TestEncoding:
    def test_empty_matching_encodes_to_binomial_downset(self):
        for n, k in [(3, 1), (4, 2), (5, 0)]:
            fam = matching_to_family(InducedMatching(n, k, ()))
            bits = 0
            for j in range(k + 1):
                bits |= layer(n, j).bits
            assert fam == Family(n, bits)

    def test_single_edge_n2_k0(self):
        fam = matching_to_family(edges_of(2, 0, ((), (1,))))
        assert sorted(fam) == [0b01]

    def test_single_edge_n3_k1(self):
        fam = matching_to_family(edges_of(3, 1, ((1,), (1, 2))))
        assert sorted(fam) == [0b000, 0b010, 0b011, 0b100]
        rep = vc_report(fam)
        assert rep.vc == 1 and rep.maximal

    def test_size_always_binom_leq(self):
        for m in enumerate_induced_matchings(4, 1):
            assert len(matching_to_family(m)) == binom_leq(4, 1)

    def test_invalid_matching_rejected(self):
        bad = edges_of(2, 0, ((), (1,)), ((), (2,)))
        with pytest.raises(DomainError):
            matching_to_family(bad)

    def test_no_trace_witness_for_covered_uppers(self):
        # for a covered upper A with partner B, no member C has C & A == B
        for n, k in [(3, 1), (4, 1)]:
            for m in enumerate_induced_matchings(n, k):
                fam = matching_to_family(m)
                for lo, up in m.edges:
                    assert all(c & up != lo for c in fam)


class TestDecoding:
    def test_inverse_of_empty_matching(self):
        for n, k in [(3, 1), (4, 2)]:
            fam = matching_to_family(InducedMatching(n, k, ()))
            assert family_to_matching(fam, k).edges == ()

    def test_roundtrip_on_full_enumeration(self):
        for n, k in [(3, 1), (4, 1), (4, 2)]:
            for m in enumerate_induced_matchings(n, k):
                assert family_to_matching(matching_to_family(m), k) == m

    def test_decode_validates_once(self, monkeypatch):
        # the re-encode after the decode's validation skips a second one
        import vcube.matchings as mat

        calls = []

        def recording(m):
            calls.append(m)
            return validate_matching(m)

        for m in enumerate_induced_matchings(4, 1):
            fam = matching_to_family(m)
            monkeypatch.setattr(mat, "validate_matching", recording)
            calls.clear()
            assert family_to_matching(fam, 1) == m
            assert calls == [m]
            monkeypatch.undo()

    def test_two_singletons_not_in_image(self):
        with pytest.raises(NotInImageError):
            family_to_matching(Family.from_masks(2, [1, 2]), 0)

    def test_missing_lower_levels_not_in_image(self):
        fam = Family.from_masks(3, [0b101, 0b110, 0b111])
        with pytest.raises(NotInImageError):
            family_to_matching(fam, 2)

    def test_upper_with_two_absent_subsets_not_in_image(self):
        # {∅, {3}, {1,2}}: upper {1,2} misses both {1} and {2}
        fam = Family.from_masks(3, [0b000, 0b100, 0b011])
        with pytest.raises(NotInImageError):
            family_to_matching(fam, 1)


class TestChoiceMatchings:
    def test_counts(self):
        assert count_choice_matchings(CoordinateSplit(8, 1, Fraction(1, 4))) == 64
        assert count_choice_matchings(CoordinateSplit(4, 1, Fraction(1, 4))) == 1

    def test_stream_matches_count_and_validates(self):
        for n, k, eps in [(6, 1, Fraction(1, 3)), (4, 1, Fraction(1, 4)), (5, 2, Fraction(1, 5))]:
            split = CoordinateSplit(n, k, eps)
            got = list(choice_matchings(split))
            assert len(got) == count_choice_matchings(split)
            assert len({m.edges for m in got}) == len(got)
            for m in got:
                ok, why = validate_matching(m)
                assert ok, why

    def test_every_lower_block_set_is_covered(self):
        import math

        split = CoordinateSplit(6, 1, Fraction(1, 3))
        want = math.comb(4, 1)
        for m in choice_matchings(split):
            lowers = {lo for lo, _ in m.edges}
            assert len(lowers) == want
            assert all(lo >> split.a_size for lo in lowers if lo)

    def test_parameter_guards(self):
        with pytest.raises(DomainError):
            CoordinateSplit(8, 1, Fraction(1, 16))  # eps*n below 1
        with pytest.raises(DomainError):
            CoordinateSplit(9, 1, Fraction(1, 4))  # eps*n not integral
        with pytest.raises(DomainError):
            CoordinateSplit(4, 3, Fraction(1, 2))  # block smaller than k
        with pytest.raises(DomainError):
            CoordinateSplit(4, 1, Fraction(5, 4))


class TestSerialization:
    def test_roundtrip(self):
        for m in enumerate_induced_matchings(4, 1):
            assert matching_from_text(matching_to_text(m)) == m

    def test_header_format(self):
        m = edges_of(3, 1, ((1,), (1, 2)))
        text = matching_to_text(m)
        assert text.splitlines()[0] == "n=3 k=1"
        assert text.splitlines()[1] == "001 011"

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            matching_from_text("nope")
        with pytest.raises(ParseError, match="line 2"):
            matching_from_text("n=3 k=1\n001\n")
        with pytest.raises(ParseError, match="line 2"):
            matching_from_text("n=3 k=1\n0011 0111\n")

    def test_dimension_over_the_cap_is_a_parse_error(self):
        # accepted, the header would have `inject` build 2^29-bit tables
        edge = "0" * 29 + " " + "0" * 28 + "1"
        with pytest.raises(ParseError, match="line 1"):
            matching_from_text(f"n=29 k=0\n{edge}\n")
