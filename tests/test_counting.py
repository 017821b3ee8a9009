import math
from fractions import Fraction

import pytest

import reference as ref

from vcube import (
    BudgetError,
    DomainError,
    binom_leq,
    conn_profile,
    enumerate_induced_matchings,
    exact_conn,
    exact_exvc,
    exact_indmat,
    exact_m,
    m_candidate_count,
    matching_to_family,
    maximal_count_bounds,
)
from vcube.counting import conn_lower_bound

# Frozen by the reference oracles in tests/reference.py.
M_TABLE = {
    (1, 0): 2,
    (1, 1): 1,
    (2, 0): 4,
    (2, 1): 4,
    (2, 2): 1,
    (3, 0): 8,
    (3, 1): 32,
    (3, 2): 8,
    (3, 3): 1,
    (4, 0): 16,
    (4, 1): 400,
}
EXVC_TABLE = {
    (1, 0): 2,
    (1, 1): 3,
    (2, 0): 4,
    (2, 1): 12,
    (2, 2): 13,
    (3, 0): 8,
    (3, 1): 76,
    (3, 2): 126,
    (3, 3): 127,
}
INDMAT_TABLE = {
    (2, 0): 3,
    (2, 1): 3,
    (3, 0): 4,
    (3, 1): 10,
    (3, 2): 4,
    (4, 0): 5,
    (4, 1): 41,
    (4, 2): 41,
    (4, 3): 5,
    (5, 0): 6,
}
CONN_PROFILES = {
    1: [1, 2, 1],
    2: [1, 4, 4, 4, 1],
    3: [1, 8, 12, 24, 38, 48, 28, 8, 1],
    4: [1, 16, 32, 96, 280, 784, 1952, 4304, 7280, 8720, 7136, 4192, 1804,
        560, 120, 16, 1],
}


class TestExactM:
    def test_frozen_table(self):
        for (n, k), want in M_TABLE.items():
            assert exact_m(n, k) == want

    def test_vc_zero_counts_singletons(self):
        for n in range(1, 5):
            assert exact_m(n, 0) == 2**n

    def test_against_reference_live(self):
        assert exact_m(3, 1) == ref.count_maximal(3, 1)
        assert exact_m(3, 2) == ref.count_maximal(3, 2)

    def test_budget_refuses_upfront(self):
        with pytest.raises(BudgetError, match="100000000"):
            exact_m(6, 2)
        assert m_candidate_count(6, 2) == math.comb(64, 22)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            exact_m(3, 4)


class TestExactExvc:
    def test_frozen_table(self):
        for (n, k), want in EXVC_TABLE.items():
            assert exact_exvc(n, k) == want

    def test_against_reference_live(self):
        assert exact_exvc(2, 1) == ref.count_extremal_atmost(2, 1)

    def test_unconstrained_equals_all_extremal(self):
        # VC <= n is vacuous, so this counts every nonempty extremal family
        assert exact_exvc(3, 3) == 127
        assert exact_exvc(2, 2) == 13

    def test_dominates_maximal_count(self):
        for n in (1, 2, 3):
            for k in range(n + 1):
                assert exact_exvc(n, k) >= exact_m(n, k)

    def test_dimension_guard(self):
        with pytest.raises(BudgetError):
            exact_exvc(5, 1)


class TestExactIndmat:
    def test_frozen_table(self):
        for (n, k), want in INDMAT_TABLE.items():
            assert exact_indmat(n, k) == want

    def test_at_least_the_empty_matching(self):
        for n in range(2, 6):
            for k in range(n):
                assert exact_indmat(n, k) >= 1

    def test_guard(self):
        with pytest.raises(BudgetError):
            exact_indmat(6, 1)


class TestExactConn:
    def test_frozen_profiles(self):
        for n, want in CONN_PROFILES.items():
            assert conn_profile(n) == want

    def test_against_reference_live(self):
        for n in (1, 2, 3):
            want = ref.count_connected(n)
            got = conn_profile(n)
            assert {m: c for m, c in enumerate(got) if c} == want

    def test_spec_examples(self):
        for n in (1, 2, 3, 4):
            assert exact_conn(n, 1) == 2**n
        assert exact_conn(2, 2) == 4
        assert exact_conn(2, 3) == 4
        assert exact_conn(2, 4) == 1

    def test_budget(self):
        with pytest.raises(BudgetError, match="budget of 100"):
            conn_profile(4, budget=100)

    @pytest.mark.parametrize("n", range(5))
    def test_lower_bound_holds(self, n):
        # the profile counts the empty set too; the bound does not
        assert conn_lower_bound(n) <= sum(conn_profile(n)) - 1

    def test_lower_bound_values(self):
        assert [conn_lower_bound(n) for n in range(6)] == [
            1, 3, 8, 56, 4608, 14532608,
        ]

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            exact_conn(2, 5)


class TestInequalityChain:
    def test_indmat_m_exvc_chain(self):
        for n in (2, 3):
            for k in range(1, n):
                a = exact_indmat(n, k)
                b = exact_m(n, k)
                c = exact_exvc(n, k)
                assert a <= b <= c

    def test_injection_witnesses_first_inequality(self):
        # distinct encodings of all matchings are maximal VC-k families,
        # so their count can never exceed the maximal-family count
        for n, k in [(2, 1), (3, 1), (3, 2)]:
            images = {
                matching_to_family(m)
                for m in enumerate_induced_matchings(n, k)
            }
            assert len(images) == exact_indmat(n, k)
            assert exact_m(n, k) >= len(images)

    def test_connected_subgraph_sum_bound(self):
        for n in (1, 2, 3):
            profile = conn_profile(n)
            for k in range(n + 1):
                cap = binom_leq(n, k)
                total = sum(profile[: cap + 1])
                assert exact_exvc(n, k) <= total


class TestBounds:
    def test_spec_instantiations(self):
        rep = maximal_count_bounds(8, 1, Fraction(1, 4))
        assert rep.log_lower == pytest.approx(6 * math.log(2), rel=1e-12)
        assert rep.log_target == pytest.approx(8 * math.log(8), rel=1e-12)

    def test_lower_below_upper_across_sweep(self):
        for n in range(8, 65):
            for k in (1, 2, 3):
                rep = maximal_count_bounds(n, k, Fraction(1, 8))
                assert rep.log_lower <= rep.log_upper

    def test_upper_formula(self):
        rep = maximal_count_bounds(10, 2, Fraction(1, 2))
        want = 11 * math.log(2) + binom_leq(10, 2) * (1 + math.log(10))
        assert rep.log_upper == pytest.approx(want, rel=1e-12)

    def test_guards(self):
        with pytest.raises(DomainError):
            maximal_count_bounds(8, 1, Fraction(1, 16))
        with pytest.raises(DomainError):
            maximal_count_bounds(8, 8, Fraction(1, 8))
