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
    ball,
    binom_leq,
    census,
    certificate_from_text,
    certificate_to_text,
    choose_center,
    density_audit,
    exact_integrity,
    integrity_lower_bound,
    layer,
    mask_elements,
    middle_layer_baseline,
    peel,
    solve_radius,
    sphere,
    translate_bits,
    verify_certificate,
)
from vcube.cube import (
    _ball_bits,
    _blocks,
    _join,
    _transpose,
)
from vcube.graph import _component_index_lists, flood_component_sizes
from vcube.integrity import (
    _block_split,
    _BlockState,
    _near_rings,
    _radius_gap,
    _top_key_width,
)


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

    def test_zero_dimensional_cube(self):
        # Q_0 is one vertex, 0, in one block of one bit
        assert census(Family(0, 1), 0, 0) == (1, 1)
        assert census(Family(0, 0), 0, 0) == (0, 0)
        assert choose_center(Family(0, 1), 0, PeelConfig()) == 0

    @pytest.mark.parametrize("n", [16, 18])
    def test_public_census_reads_rows_only(self, n, monkeypatch):
        # where the peel's census reads far rings from the columns, the
        # public one still reads every ring from the rows, with no transpose
        import vcube.integrity as integ

        def no_transpose(*args):
            raise AssertionError("the public census built columns")

        monkeypatch.setattr(integ, "_transpose", no_transpose)
        rng = random.Random(52 + n)
        r0 = solve_radius(n).r0
        fam = Family(n, rng.getrandbits(1 << n))
        for _ in range(3):
            x = rng.getrandbits(n)
            assert census(fam, x, r0) == (
                len(ball(n, x, r0) & fam), len(sphere(n, x, r0) & fam)
            )

    @pytest.mark.parametrize("x", [16, -1], ids=["too_wide", "negative"])
    def test_center_must_fit(self, x):
        with pytest.raises(DomainError):
            census(Family.full(4), x, 1)
        with pytest.raises(DomainError):
            translate_bits(1, x, 4)


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
        # replay the exact pool the chooser saw and re-minimize by hand,
        # over dense families and ones with only a handful of members,
        # whose census blocks are mostly empty; the radii take 0, the
        # top part h and the low part L of the block split, and one draw;
        # at small n, 32 samples cannot all differ, so pools repeat a center
        rng = random.Random(45)
        repeats = 0
        for n in range(1, 15):
            h, low = _block_split(n)
            for r0 in sorted({0, h, low, rng.randrange(n + 1)}):
                for samples in (0, 8, 32):
                    for sparse in (False, True):
                        if sparse:
                            k = rng.randrange(1, min(6, 1 << n) + 1)
                            members = rng.sample(range(1 << n), k)
                            fam = Family.from_masks(n, members)
                        else:
                            fam = Family(n, rng.getrandbits(1 << n) | 1)
                        seed = rng.randrange(1000)
                        cfg = PeelConfig(samples=samples, seed=seed)
                        picked = choose_center(fam, r0, cfg)
                        replay = random.Random(seed)
                        pool = [replay.getrandbits(n) for _ in range(samples)]
                        pool.append(list(fam)[replay.randrange(len(fam))])
                        repeats += len(set(pool)) < len(pool)
                        best = None
                        for x in pool:
                            b, s = census(fam, x, r0)
                            key = (b == 0, Fraction(s, b if b else 1), x)
                            if best is None or key < best:
                                best = key
                        assert picked == best[2], (n, r0, samples, sparse)
        assert repeats >= 2

    def test_block_split_bounds_the_memo(self):
        for n in range(1, 29):
            h, low = _block_split(n)
            assert h >= 1 and 0 <= low <= 10 and h + low == n

    def test_blocks_and_join_every_split(self):
        # one halving path for every block size, L < 3 (under a byte)
        # included: block i is v >> (i << L) cut to 2^L bits, and the
        # join gives v back; column j of the transpose holds bit j of
        # every block
        rng = random.Random(48)
        for n in range(1, 15):
            for h in range(n + 1):
                low = n - h
                full = (1 << (1 << low)) - 1
                for v in (0, (1 << (1 << n)) - 1, rng.getrandbits(1 << n)):
                    blocks = _blocks(v, h, low)
                    assert blocks == [
                        v >> (i << low) & full for i in range(1 << h)
                    ], (n, h)
                    assert _join(blocks, low) == v, (n, h)
                    if n <= 10:
                        assert _transpose(blocks, low) == [
                            sum((b >> j & 1) << i for i, b in enumerate(blocks))
                            for j in range(1 << low)
                        ], (n, h)

    def test_split_rule(self):
        # blocks read per candidate, rows plus columns, at the solved
        # radius: rows only up to n = 15, then far fewer than the rows
        reads = {16: 33, 18: 93, 20: 232, 22: 465, 24: 744}
        for n in range(3, 29):
            h, low = _block_split(n)
            r0 = solve_radius(n).r0
            near = _near_rings(h, low, r0)
            top = min(r0, h)
            got = binom_leq(h, near)
            if near < top:
                got += binom_leq(low, r0 - near - 1)
            if n <= 15:
                assert near == top, n
            assert got == reads.get(n, got), n
        # h <= 2 never pays for columns, so n = 1 (L = 0) keeps the rows
        for n in range(1, 9):
            h, low = _block_split(n)
            for r0 in range(n + 1):
                assert _near_rings(h, low, r0) == min(r0, h), (n, r0)

    def test_every_split_counts_alike(self, monkeypatch):
        # a second route for each split of the rings into rows and
        # columns: the census matches a hand scan of the distances, also
        # after removes (the columns stay in step with the rows), and a
        # peel is byte-identical to the rows-only one
        import vcube.integrity as integ

        rng = random.Random(50)
        for n in range(3, 13):
            h, low = _block_split(n)
            for r0 in range(n + 1):
                for near in range(min(r0, h) + 1):
                    monkeypatch.setattr(integ, "_near_rings",
                                        lambda *args: near)
                    dense = [y for y in range(1 << n) if rng.random() < 0.7]
                    sparse = rng.sample(range(1 << n), min(6, 1 << n))
                    one = [rng.getrandbits(n)]
                    for members in (dense, sparse, one):
                        alive = set(members)
                        state = _BlockState(
                            Family.from_masks(n, members).bits, n, r0
                        )
                        # a remove before the first census, or none
                        for i in range(rng.randrange(2), 9):
                            if i % 2:
                                y = rng.getrandbits(n)
                                state.remove(y)
                                alive = {m for m in alive
                                         if (m ^ y).bit_count() > r0}
                                continue
                            x = rng.getrandbits(n)
                            dists = [(m ^ x).bit_count() for m in alive]
                            assert state.census(x) == (
                                sum(d <= r0 for d in dists),
                                sum(d == r0 for d in dists),
                            ), (n, r0, near, len(members), i)
        for n in range(8, 13):
            h, low = _block_split(n)
            r0 = solve_radius(n).r0
            for seed in range(3):
                cfg = PeelConfig(seed=seed)
                monkeypatch.setattr(integ, "_near_rings",
                                    lambda *args: min(r0, h))
                rows = certificate_to_text(peel(n, cfg))
                for near in range(min(r0, h)):
                    monkeypatch.setattr(integ, "_near_rings",
                                        lambda *args: near)
                    assert certificate_to_text(peel(n, cfg)) == rows, (
                        n, seed, near
                    )

    def test_ball_tables_stay_below_dimension_n(self, monkeypatch):
        # the ball masks are cut from L-dimensional tables, so neither the
        # chooser, the peel nor the audit builds the n-dimensional one
        import vcube.integrity as integ

        dims = []

        def recording(n, r):
            dims.append(n)
            return _ball_bits(n, r)

        monkeypatch.setattr(integ, "_ball_bits", recording)
        rng = random.Random(49)
        for n in range(1, 13):
            fam = Family(n, rng.getrandbits(1 << n) | 1)
            for r0 in range(n + 1):
                dims.clear()
                choose_center(fam, r0, PeelConfig(samples=8, seed=n))
                assert dims and max(dims) < n, (n, r0)
        dims.clear()
        cert = peel(12)
        assert dims and max(dims) < 12
        dims.clear()
        assert verify_certificate(cert) == cert.value
        assert dims and max(dims) < 12

    def test_no_translate_at_full_dimension(self, monkeypatch):
        # the census indexes blocks by the top coordinates and masks the
        # low ones, so the only vectors it translates are L-bit masks
        import vcube.integrity as integ

        dims = []

        def recording(bits, x, n):
            dims.append(n)
            return translate_bits(bits, x, n)

        monkeypatch.setattr(integ, "translate_bits", recording)
        rng = random.Random(47)
        for n in range(1, 13):
            dense = Family(n, rng.getrandbits(1 << n) | 1)
            sparse = Family.from_masks(n, [rng.getrandbits(n)])
            for fam in (dense, sparse):
                for samples in (0, 8, 32):
                    dims.clear()
                    cfg = PeelConfig(samples=samples, seed=3)
                    choose_center(fam, n // 2, cfg)
                    assert dims and max(dims) < n, (n, samples)

    def test_peel_translates_each_low_mask_once(self, monkeypatch):
        # the peel and the audit keep alive and separator as blocks, so
        # neither translates at dimension n; every mask memo translates
        # each (base mask, key) pair once per state.  At n = 16 the census
        # reads far rings from the columns and remove clears them, with
        # top-part masks keyed on the whole top part, so no census and no
        # remove translates past those memo fills, and no memo translates
        # its trailing 0.  The audit, which takes no census, translates
        # only L-bit masks and never builds the n-dimensional shift masks
        import vcube.cube as cube
        import vcube.graph as graph
        import vcube.integrity as integ

        calls, tables = [], []
        build = cube._low_masks

        def recording(bits, x, n):
            calls.append((bits, x, n))
            return translate_bits(bits, x, n)

        def low_masks(n):
            tables.append(n)
            return build(n)

        monkeypatch.setattr(integ, "translate_bits", recording)
        monkeypatch.setattr(cube, "_low_masks", low_masks)
        monkeypatch.setattr(graph, "_low_masks", low_masks)
        for n in (12, 16):
            h, low = _block_split(n)
            r0 = solve_radius(n).r0
            near = _near_rings(h, low, r0)
            columns = near < min(r0, h)
            assert columns == (n == 16)
            assert _top_key_width(h, low) == h
            rows = {_ball_bits(low, min(r, low)) for r in range(r0 + 1)}
            tops = {_ball_bits(h, min(r, h)) for r in range(r0 + 1)}
            fars = {_ball_bits(h, min(r, h)) & ~_ball_bits(h, near)
                    for r in range(near + 1, r0 + 1)}
            assert len(rows) == len(tops) == r0 + 1
            assert len(fars) == r0 - near and not fars & tops
            calls.clear()
            cert = peel(n)
            peeled = calls[:]
            calls.clear()
            tables.clear()
            assert verify_certificate(cert) == cert.value
            assert tables and max(tables) < n
            assert calls and all(c[2] == low and c[0] in rows for c in calls)
            for run in (peeled, calls):
                assert len(run) == len(set(run)), n
            assert all(c[0] in rows for c in peeled if c[2] == low)
            fills = {}
            for bits, x, dim in peeled:
                if dim != low:
                    assert dim == h and bits in tops | fars, n
                    fills.setdefault(bits in tops, set()).add(x)
            # each key fills its whole base once, the trailing 0 aside
            top_keys, far_keys = fills.get(True, ()), fills.get(False, ())
            assert sum(c[2] == h for c in peeled) == (
                len(top_keys) * (r0 + 1) + len(far_keys) * (r0 - near))
            assert set(top_keys) == (
                {s.center >> low for s in cert.steps} if columns else set())
            assert bool(far_keys) == columns

    def test_top_key_width_bounds_the_far_memo(self):
        # the whole top part keys the far-ring memo while h <= L, that is
        # n <= 20, so no census translates there; past that, 2^k keys of
        # 2^h-bit masks stay within the 4^L bits of the low-part memo
        for n in range(3, 29):
            h, low = _block_split(n)
            k = _top_key_width(h, low)
            assert 0 <= k <= h and k + h <= 2 * low, n
            assert (k == h) == (n <= 20), n

    def test_every_key_width_counts_alike(self, monkeypatch):
        # a census that translates its memoised far-ring masks by the top
        # bits past the key counts as a hand scan, also after removes, and
        # a peel is byte-identical whatever the key width
        import vcube.integrity as integ

        rng = random.Random(51)
        for n in range(6, 13):
            h, low = _block_split(n)
            r0 = solve_radius(n).r0
            near = min(r0, h) - 1
            monkeypatch.setattr(integ, "_near_rings", lambda *args: near)
            members = [y for y in range(1 << n) if rng.random() < 0.7]
            for k in range(h + 1):
                monkeypatch.setattr(integ, "_top_key_width",
                                    lambda *args: k)
                alive = set(members)
                state = _BlockState(Family.from_masks(n, members).bits, n, r0)
                for i in range(8):
                    x = rng.getrandbits(n)
                    if i % 2:
                        state.remove(x)
                        alive = {m for m in alive if (m ^ x).bit_count() > r0}
                        continue
                    dists = [(m ^ x).bit_count() for m in alive]
                    assert state.census(x) == (
                        sum(d <= r0 for d in dists),
                        sum(d == r0 for d in dists),
                    ), (n, k, i)
        for n in (10, 12):
            h, low = _block_split(n)
            r0 = solve_radius(n).r0
            monkeypatch.setattr(integ, "_near_rings", lambda *args: 1)
            texts = set()
            for k in range(h + 1):
                monkeypatch.setattr(integ, "_top_key_width",
                                    lambda *args: k)
                texts.add(certificate_to_text(peel(n, PeelConfig(seed=n))))
            assert len(texts) == 1, n

    def test_radius_outside_the_cube_rejected(self):
        with pytest.raises(DomainError, match="radius"):
            choose_center(Family.full(4), 5, PeelConfig())

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

    def test_component_has_its_closed_form(self):
        # every component lies in one step's interior B(x_j, r0-1), and
        # step 0's interior is a whole ball; BFS is the second route
        for n in range(3, 15):
            r0 = solve_radius(n).r0
            want = binom_leq(n, r0 - 1) if r0 else 0
            full = (1 << (1 << n)) - 1
            for seed in range(5):
                cert = peel(n, PeelConfig(seed=seed))
                assert cert.max_component == want, (n, seed)
                rest = cert.separator.bits ^ full
                bfs = max(map(len, _component_index_lists(rest, n)), default=0)
                assert bfs == want, (n, seed)

    def test_block_step_matches_public_ball_and_sphere(self):
        # second route for the block step: replay each certificate with
        # the public ball/sphere, which translate at dimension n; n = 3
        # has blocks under a byte
        for n in range(3, 13):
            r0 = solve_radius(n).r0
            for seed in range(4):
                for samples in (0, 1, 32):
                    cert = peel(n, PeelConfig(samples=samples, seed=seed))
                    alive, sep = Family.full(n), Family.empty(n)
                    for i, step in enumerate(cert.steps):
                        taken = ball(n, step.center, r0) & alive
                        charged = sphere(n, step.center, r0) & alive
                        assert (len(taken), len(charged)) == (
                            step.ball_hits, step.sphere_hits
                        ), (n, seed, samples, i)
                        alive, sep = alive - taken, sep | charged
                    assert not alive
                    assert sep == cert.separator, (n, seed, samples)

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
        for delta in (-1, 1):
            with pytest.raises(VerificationError, match="value"):
                verify_certificate(replace(cert, value=cert.value + delta))

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
    18: "407e0ff5bb0cbcdb710a095f9c186b253931621408a5fbf5c5f0a44c7d5e9d85",
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
        for n in (1, 2, 3, 4):
            assert exact_integrity(n) == ref.integrity(n)

    def test_halfcube_conjecture_value_is_an_upper_bound(self):
        for n in (1, 2, 3, 4):
            assert exact_integrity(n) <= 2 ** (n - 1) + 1

    def test_guard(self):
        with pytest.raises(BudgetError):
            exact_integrity(5)


class TestLowerBound:
    def test_exact_values_respect_it(self):
        assert integrity_lower_bound(3) == 4 <= exact_integrity(3) == 5
        assert integrity_lower_bound(4) == 5 <= exact_integrity(4) == 9

    def test_seed_zero_peels_respect_it(self):
        for n in range(3, 17):
            assert peel(n).value >= integrity_lower_bound(n), n

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            integrity_lower_bound(2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_harper_step_by_brute_force(self, n):
        # the proof's Harper step: over every vertex set A of each size,
        # the least vertex boundary N(A) - A is that of the simplicial
        # initial segment (by weight, then lexicographically); and for
        # C(n,<=r) <= |A| < C(n,<=r+1) it is at least C(n, r+1)
        size = 1 << n
        nbrs = [sum(1 << (v ^ 1 << i) for i in range(n)) for v in range(size)]
        reach = [0] * (1 << size)
        least = [size] * (size + 1)
        for a in range(1, 1 << size):
            low = a & -a
            reach[a] = reach[a ^ low] | nbrs[low.bit_length() - 1]
            k = a.bit_count()
            least[k] = min(least[k], (reach[a] & ~a).bit_count())
        least[0] = 0
        order = sorted(
            range(size), key=lambda v: (v.bit_count(), mask_elements(v))
        )
        segment = 0
        for k in range(size + 1):
            assert least[k] == (reach[segment] & ~segment).bit_count(), (n, k)
            if k < size:
                segment |= 1 << order[k]
        r = (n - 3) // 2
        cap = math.comb(n, r + 1)
        for k in range(binom_leq(n, r), binom_leq(n, r + 1)):
            assert least[k] >= cap, (n, k)

    def test_value_below_it_rejected_before_replay(self, monkeypatch):
        import vcube.integrity as integ

        cert = peel(8)
        floor = integrity_lower_bound(8)
        low = replace(cert, value=floor - 1)

        def no_replay(*args):
            raise AssertionError("the replay ran")

        monkeypatch.setattr(integ, "_BlockState", no_replay)
        with pytest.raises(VerificationError, match=f"lower bound.*{floor}"):
            verify_certificate(low)


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

    def test_matches_the_measured_cut(self):
        # the second route: remove the layer, flood what is left
        for n in range(2, 15):
            cut = layer(n, n // 2)
            sizes = flood_component_sizes(cut.complement().bits, n)
            assert middle_layer_baseline(n) == cut.size + max(sizes), n

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

    def test_term_budget_refuses_before_any_row(self, monkeypatch):
        # 2^40 alone, about 5e6 terms, is within the budget; with 2^41
        # after it the term bounds pass it, and nothing is summed before
        # the refusal
        import vcube.integrity as integ

        def no_sum(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(integ, "log_binom_leq", no_sum)
        with pytest.raises(BudgetError, match="budget"):
            density_audit([1 << 40, 1 << 41])
        with pytest.raises(BudgetError, match="budget"):
            density_audit([8, 1 << 60])


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

