"""The one budget discipline: `errors.Budget` and the refusals it makes."""

import os
import select
import time

import pytest

from vcube import (
    BudgetError,
    PeelConfig,
    certificate_to_text,
    conn_profile,
    peel,
)
from vcube.counting import _count_lifts
from vcube.errors import Budget

from test_counting import CONN_PROFILES
from util import run_limited, start_limited


class TestBudget:
    def test_refuse_if_passes_at_the_limit(self):
        Budget(10, "sets", "f(n=3)").refuse_if(10)
        with pytest.raises(BudgetError) as exc:
            Budget(10, "sets", "f(n=3)").refuse_if(11)
        assert str(exc.value) == (
            "f(n=3) needs at least 11 sets, over the budget of 10"
        )

    def test_refuse_if_states_an_estimate(self):
        with pytest.raises(BudgetError, match=r"needs about e\^9\.9 draws"):
            Budget(5, "draws", "g").refuse_if(float("inf"), "about e^9.9")

    def test_tick_raises_past_the_limit_only(self):
        guard = Budget(10, "lifts", "h")
        assert guard.tick(0) == 11
        assert guard.tick(10) == 11
        with pytest.raises(BudgetError) as exc:
            guard.tick(11)
        assert str(exc.value) == "h exceeded its budget of 10 lifts"

    def test_marks_are_the_next_stride_or_the_limit(self):
        guard = Budget(10**7, "sets", "c")
        assert guard.tick(0) == Budget.STRIDE
        assert guard.tick(Budget.STRIDE) == 2 * Budget.STRIDE
        assert guard.tick(9_999_999) == 10**7
        assert guard.tick(10**7) == 10**7 + 1

    def test_one_report_per_stride_crossed(self, monkeypatch):
        monkeypatch.setattr(Budget, "STRIDE", 10)
        seen = []
        guard = Budget(100, "sets", "c", progress=seen.append)
        assert guard.tick(0) == 10
        assert guard.tick(10) == 20
        assert guard.tick(35) == 40
        assert guard.tick(40) == 50
        assert seen == [10, 20, 30, 40]

    def test_lift_jumps_report_each_stride(self, monkeypatch):
        # each lift with |D| = 3 examines 8 candidates at once
        monkeypatch.setattr(Budget, "STRIDE", 4)
        seen = []
        lifts = [(0, 0b111, [1, 2]), (0, 0b1, [3]), (0, 0b111, [])]
        guard = Budget(100, "lifts", "m", progress=seen.append)
        assert _count_lifts(iter(lifts), guard) == 3
        assert seen == [4, 8, 12, 16]

    def test_lifts_past_the_limit_stop(self):
        lifts = [(0, 0b111, [1])] * 3
        with pytest.raises(BudgetError, match="exceeded its budget of 20"):
            _count_lifts(iter(lifts), Budget(20, "families", "exvc"))

    def test_conn_reports_every_stride_of_visits(self, monkeypatch):
        monkeypatch.setattr(Budget, "STRIDE", 1000)
        seen = []
        assert conn_profile(4, progress=seen.append) == CONN_PROFILES[4]
        assert seen == list(range(1000, 37001, 1000))


REFUSALS = {2: "vcube: input error:", 3: "vcube: resource budget:"}


def assert_refused(*argv, code=3):
    got, out, err, cpu = run_limited(*argv)
    assert (got, out) == (code, ""), err
    assert REFUSALS[code] in err
    assert "Traceback" not in err
    assert cpu < 1.0


def first_lines(pipe, count, seconds):
    """The first `count` lines read from `pipe` within `seconds`, or fewer."""
    deadline = time.monotonic() + seconds
    data = b""
    while data.count(b"\n") < count:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([pipe], [], [], left)[0]:
            break
        chunk = os.read(pipe.fileno(), 1 << 16)
        if not chunk:
            break
        data += chunk
    return data.decode().splitlines()[:count]


class TestUnderMemoryLimit:
    """Refusals and large-k bounds in bounded time and memory, in a child
    process whose address space is capped, so that an allocation the
    guards miss shows as a failure."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-n", "40", "peel", "40"],
            ["--max-n", "34", "sweep", "rho", "34..34"],
            ["count", "conn", "5", "3"],
            ["count", "m", "6", "2"],
            ["count", "m", "5", "2"],
            ["sweep", "lemma", f"8..{2**60}:x2"],
            ["sweep", "lemma", "8..1000000000:1"],
        ],
        ids=["peel_40", "rho_34", "conn_5", "m_6_2", "m_5_2", "lemma_2e60",
             "lemma_1e9_step_1"],
    )
    def test_refusal_exits_3_without_a_traceback(self, argv):
        assert_refused(*argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "rho", "8..1000000000:2"],
            ["sweep", "bounds", f"8..{10**400}", "--k", "2", "--epsilon",
             "1/2"],
        ],
        ids=["rho_1e9", "bounds_up_past_float_range"],
    )
    def test_long_range_exits_2_before_the_first_row(self, argv):
        # rho stops at its first n past the cap, and bounds checks the
        # last n, so neither range is walked, let alone listed
        assert_refused(*argv, code=2)

    def test_forged_sample_count_exits_3(self, tmp_path):
        text = certificate_to_text(peel(8, PeelConfig()))
        cert = tmp_path / "forged.txt"
        cert.write_text(text.replace("T=32", f"T={10**12}", 1))
        assert_refused("verify", str(cert))

    @pytest.mark.parametrize("n", [20000, 10**12])
    def test_bounds_past_float_range_are_instant(self, n):
        code, out, err, cpu = run_limited(
            "sweep", "bounds", f"{n}..{n}", "--k", str(n // 2),
            "--epsilon", "1/2",
        )
        assert code == 0, err
        row = out.splitlines()[1].split(",")
        assert row[:3] == [str(n), str(n // 2), "1/2"]
        assert row[4:] == ["inf", "inf"]
        assert cpu < 1.0

    def test_bounds_rows_stream(self):
        # 10^12 rows with no budget: each row goes out as it is made
        argv = ["sweep", "bounds", "8..1000000000000", "--k", "2",
                "--epsilon", "1/2"]
        with start_limited(*argv) as proc:
            lines = first_lines(proc.stdout, 4, seconds=1.0)
        assert len(lines) == 4, lines
        assert lines[0] == "n,k,epsilon,log_lower,log_upper,log_target"
        assert [line.split(",")[0] for line in lines[1:]] == ["8", "9", "10"]
