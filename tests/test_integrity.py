import hashlib
import math
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

import reference as ref

from vcube import (
    BudgetError,
    DomainError,
    Family,
    ParseError,
    PeelConfig,
    PeelStep,
    RadiusParams,
    VerificationError,
    binom_leq,
    census,
    certificate_from_text,
    certificate_to_text,
    choose_center,
    density_audit,
    exact_integrity,
    middle_layer_baseline,
    peel,
    solve_radius,
    verify_certificate,
)
from vcube.integrity import _choose_center, _radius_gap


class TestSolveRadius:
    def test_residual_contract(self):
        for n in (3, 4, 8, 64, 1024, 1 << 14, 1 << 20):
            p = solve_radius(n)
            assert p.residual <= 1e-12
            target = math.sqrt(math.log(n)) / math.sqrt(n)
            assert abs(_radius_gap(p.alpha, target)) <= 1e-12

    def test_radius_bounds(self):
        for n in range(8, 70):
            p = solve_radius(n)
            assert 0 <= p.r0 < n / 2
        for e in range(6, 21):
            p = solve_radius(1 << e)
            assert 0 <= p.r0 < (1 << e) / 2

    def test_alpha_tracks_half_sqrt_log(self):
        for e in range(6, 21):
            n = 1 << e
            p = solve_radius(n)
            ratio = p.alpha / (math.sqrt(math.log(n)) / 2)
            assert 0.5 < ratio < 2.5

    def test_floor_formula(self):
        for n in (16, 100, 4096):
            p = solve_radius(n)
            assert p.r0 == math.floor(n / 2 - p.alpha * math.sqrt(n))

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            solve_radius(2)

    def test_tiny_radius_warns(self):
        with pytest.warns(UserWarning, match="r0=0"):
            solve_radius(3)


class TestCensus:
    def test_full_family_sees_whole_ball(self):
        rng = random.Random(41)
        for n in (6, 10, 13):
            p = solve_radius(n)
            x = rng.getrandbits(n)
            b, s = census(Family.full(n), x, p.r0)
            assert b == binom_leq(n, p.r0)
            assert s == math.comb(n, p.r0)

    def test_empty_family(self):
        assert census(Family.empty(8), 3, 2) == (0, 0)

    def test_radius_n_sees_everything(self):
        rng = random.Random(42)
        fam = Family(6, rng.getrandbits(64) | 1)
        x = rng.getrandbits(6)
        b, s = census(fam, x, 6)
        assert b == len(fam)
        assert s == sum(1 for m in fam if (m ^ x).bit_count() == 6)

    def test_counts_match_hand_scan(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randrange(3, 9)
            fam = Family(n, rng.getrandbits(1 << n))
            x = rng.getrandbits(n)
            r = rng.randrange(n + 1)
            b, s = census(fam, x, r)
            dists = [(m ^ x).bit_count() for m in fam]
            assert b == sum(1 for d in dists if d <= r)
            assert s == sum(1 for d in dists if d == r)


class TestChooseCenter:
    def test_single_vertex_family_progresses(self):
        rng = random.Random(44)
        for _ in range(10):
            n = rng.randrange(4, 10)
            v = rng.getrandbits(n)
            fam = Family.from_masks(n, [v])
            x = choose_center(fam, 1, PeelConfig(samples=4, seed=rng.randrange(99)))
            b, _ = census(fam, x, 1)
            assert b >= 1

    def test_uniform_family_all_centers_tie(self):
        n = 16
        p = solve_radius(n)
        fam = Family.full(n)
        x = choose_center(fam, p.r0, PeelConfig(samples=32, seed=5))
        b, s = census(fam, x, p.r0)
        assert Fraction(s, b) == Fraction(math.comb(n, p.r0), binom_leq(n, p.r0))

    def test_argmin_over_the_sampled_pool(self):
        # replay the exact pool the chooser saw and re-minimize by hand
        rng = random.Random(45)
        for _ in range(15):
            n = rng.randrange(4, 9)
            fam = Family(n, rng.getrandbits(1 << n) | 1)
            r0 = rng.randrange(1, n // 2 + 1)
            seed = rng.randrange(1000)
            samples = 8
            picked = choose_center(fam, r0, PeelConfig(samples=samples, seed=seed))
            replay = random.Random(seed)
            pool = [replay.getrandbits(n) for _ in range(samples)]
            pool.append(list(fam)[replay.randrange(len(fam))])
            best = None
            for x in pool:
                b, s = census(fam, x, r0)
                key = (b == 0, Fraction(s, b if b else 1), x)
                if best is None or key < best:
                    best = key
                    want = x
            assert picked == want

    def test_empty_family_rejected(self):
        with pytest.raises(DomainError):
            choose_center(Family.empty(4), 1, PeelConfig())


class TestPeel:
    def test_ball_hits_partition_the_cube(self):
        for n, seed in [(4, 0), (6, 3), (8, 0)]:
            cert = peel(n, PeelConfig(seed=seed))
            assert sum(s.ball_hits for s in cert.steps) == 2**n

    def test_separator_is_sum_of_sphere_hits(self):
        for n in (5, 8, 10):
            cert = peel(n)
            assert cert.separator_size == sum(s.sphere_hits for s in cert.steps)
            assert cert.separator_size == len(cert.separator)

    def test_deterministic_per_seed(self):
        a = peel(8, PeelConfig(seed=9))
        b = peel(8, PeelConfig(seed=9))
        assert a == b
        c = peel(8, PeelConfig(seed=10))
        assert a != c  # overwhelmingly likely for distinct seeds

    def test_value_dominates_exact_integrity(self):
        for n in (3, 4):
            cert = peel(n)
            assert cert.value >= exact_integrity(n)

    def test_step_count_bounded(self):
        cert = peel(8)
        assert 1 <= len(cert.steps) <= 2**8

    def test_dimension_guards(self):
        with pytest.raises(DomainError):
            peel(2)


class TestVerify:
    def test_roundtrip_passes(self):
        for n in (6, 8, 10):
            cert = peel(n)
            assert verify_certificate(cert) == cert.value

    def test_components_fit_in_balls(self):
        cert = peel(10)
        assert cert.max_component <= binom_leq(10, cert.params.r0)

    def test_dropped_separator_vertex_caught(self):
        cert = peel(8)
        v = cert.separator.min_member()
        smaller = Family(cert.n, cert.separator.bits ^ (1 << v))
        # as if the hex line itself were edited: caught against the
        # replayed per-step sphere charges
        with pytest.raises(VerificationError, match="sphere"):
            verify_certificate(replace(cert, separator=smaller))

    def test_wrong_value_caught(self):
        cert = peel(8)
        with pytest.raises(VerificationError, match="value"):
            verify_certificate(replace(cert, value=cert.value + 1))

    def test_corrupt_ball_count_caught(self):
        cert = peel(8)
        step0 = replace(cert.steps[0], ball_hits=cert.steps[0].ball_hits + 1)
        with pytest.raises(VerificationError, match="sum"):
            verify_certificate(replace(cert, steps=(step0,) + cert.steps[1:]))

    def test_wrong_alpha_caught(self):
        cert = peel(8)
        bad = replace(cert, params=replace(cert.params, alpha=1.0))
        with pytest.raises(VerificationError, match="alpha"):
            verify_certificate(bad)


# sha256 of certificate_to_text(peel(n, PeelConfig(seed=0))), pinned so
# that a refactor which changes any certificate byte fails here.
GOLDEN_DIGESTS = {
    9: "b104bb8840891512978d10defe7d55d6b683b4f417ec925278f90bc522a4f2b2",
    10: "bc29a093be9dcb1f22a146a18e6c39e622983d6f18b8b9a4f3bc6e85689224d0",
    11: "2fbe797960c7060fd8810e6a17469a04a1eab42ed0e0a064a2f93834a9408a8b",
    12: "571f835bfd94e702f0052558cb3b9a51634883892414b0fd45062a0ef16aff62",
    14: "b83135977ce724ae5687ea9eb2310412ae5efeb070b709fcabf04da46373ee2e",
    16: "95b0eddc622e09c0e93954265d5c5c6b77d83c63378be55568b9398c981adf2f",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_DIGESTS))
def test_golden_certificate(n):
    text = certificate_to_text(peel(n, PeelConfig(seed=0)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[n]


class TestExactIntegrity:
    def test_frozen_values(self):
        # frozen by the reference oracle; Q3/Q4 meet 2^(n-1)+1 exactly
        assert exact_integrity(1) == 2
        assert exact_integrity(2) == 3
        assert exact_integrity(3) == 5
        assert exact_integrity(4) == 9

    def test_against_reference_live(self):
        for n in (1, 2, 3):
            assert exact_integrity(n) == ref.integrity(n)

    def test_halfcube_conjecture_value_is_an_upper_bound(self):
        for n in (1, 2, 3, 4):
            assert exact_integrity(n) <= 2 ** (n - 1) + 1

    def test_guard(self):
        with pytest.raises(BudgetError):
            exact_integrity(5)


class TestBaseline:
    def test_smallest_case(self):
        assert middle_layer_baseline(2) == 3

    def test_matches_shell_arithmetic(self):
        for n in range(2, 11):
            cut = math.comb(n, n // 2)
            if n % 2:
                big = 2 ** (n - 1)
            else:
                big = (2**n - cut) // 2
            assert middle_layer_baseline(n) == cut + big

    def test_dominates_exact_integrity(self):
        for n in (2, 3, 4):
            assert middle_layer_baseline(n) >= exact_integrity(n)

    def test_guard(self):
        with pytest.raises(DomainError):
            middle_layer_baseline(1)


class TestDensityAudit:
    def test_rows_finite_and_positive(self):
        rows = density_audit([1 << e for e in range(6, 21, 2)])
        for r in rows:
            assert math.isfinite(r.ball_ratio) and r.ball_ratio > 0
            assert math.isfinite(r.sphere_ratio) and r.sphere_ratio > 0

    def test_log_domain_matches_exact_integers(self):
        for n in (8, 16, 32, 64):
            row = density_audit([n])[0]
            p = solve_radius(n)
            exact_ball = (
                binom_leq(n, p.r0) * math.sqrt(n)
                / (2**n * math.sqrt(math.log(n)))
            )
            exact_sphere = (
                math.comb(n, p.r0) * n / (2**n * math.log(n))
            )
            assert abs(row.ball_ratio - exact_ball) <= 1e-9 * exact_ball
            assert abs(row.sphere_ratio - exact_sphere) <= 1e-9 * exact_sphere

    def test_combined_ratio_stays_in_band(self):
        # ball_ratio/sphere_ratio = C(n,<=r0)/C(n,r0) * sqrt(ln n)/sqrt(n),
        # the joint witness for both size estimates
        rows = density_audit([1 << e for e in range(8, 21)])
        combined = [r.ball_ratio / r.sphere_ratio for r in rows]
        assert all(math.isfinite(c) and c > 0 for c in combined)
        assert max(combined) / min(combined) <= 8.0

    def test_guard(self):
        with pytest.raises(DomainError):
            density_audit([4])


class TestCertificateSerialization:
    def test_text_roundtrip_is_exact(self):
        cert = peel(8, PeelConfig(seed=3))
        text = certificate_to_text(cert)
        back = certificate_from_text(text)
        assert back.params.alpha == cert.params.alpha
        assert back.steps == cert.steps
        assert back.separator == cert.separator
        assert back.value == cert.value
        assert certificate_to_text(back) == text
        assert verify_certificate(back) == cert.value

    def test_truncation_detected(self):
        text = certificate_to_text(peel(6))
        lines = text.splitlines()
        with pytest.raises(ParseError, match="truncated"):
            certificate_from_text("\n".join(lines[:4]))

    def test_only_underivable_fields_are_stored(self):
        assert [f.name for f in fields(PeelStep)] == [
            "center", "ball_hits", "sphere_hits",
        ]
        assert [f.name for f in fields(RadiusParams)] == ["n", "alpha"]

    @pytest.mark.parametrize(
        "defect", ["step_index", "r0_off_by_one", "value_twice", "value_first"]
    )
    def test_grammar_defects_are_parse_errors(self, defect):
        lines = certificate_to_text(peel(6)).splitlines()
        if defect == "step_index":  # step 2 sits on line 4
            parts = lines[3].split()
            lines[3] = " ".join(["3"] + parts[1:])
            where = 4
        elif defect == "r0_off_by_one":
            r0 = solve_radius(6).r0
            lines[0] = lines[0].replace(f"r0={r0}", f"r0={r0 + 1}")
            where = 1
        elif defect == "value_twice":
            lines.insert(len(lines) - 1, "value=999")
            where = len(lines)
        else:
            lines.insert(1, lines.pop())
            where = 2
        with pytest.raises(ParseError, match=f"line {where}:"):
            certificate_from_text("\n".join(lines) + "\n")

    def test_bad_step_line(self):
        with pytest.raises(ParseError, match="line 2"):
            certificate_from_text(
                "n=6 alpha=0.7 r0=1 seed=0 T=32\n0 000000 1\n"
            )


class TestSparseCensusPath:
    def test_small_family_census_equals_dense(self):
        # drive _choose_center through both census paths with one pool
        rng = random.Random(46)
        n = 6
        fam = Family(n, rng.getrandbits(64) | 1)
        got_sparse = _choose_center(fam.bits, len(fam), n, 2, 8, random.Random(7))
        import vcube.integrity as integ

        orig = integ._sparse_census_limit
        integ._sparse_census_limit = lambda n: 0  # force the translate path
        try:
            got_dense = _choose_center(fam.bits, len(fam), n, 2, 8, random.Random(7))
        finally:
            integ._sparse_census_limit = orig
        assert got_sparse == got_dense
