import math
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vcube import (
    DEFAULT_MAX_DIM,
    Family,
    InducedMatching,
    certificate_to_text,
    family_to_text,
    layer,
    matching_to_text,
    max_dim,
    peel,
)
from vcube.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(stdout):
    pairs = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            pairs[key] = val
    return pairs


class TestVcCommand:
    def test_full_square(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(family_to_text(Family.full(2)))
        code, out, _ = run_cli(capsys, "vc", str(path))
        pairs = kv(out)
        assert code == 0
        assert pairs["vc"] == "2"
        assert pairs["extremal"] == "true"
        assert pairs["maximal"] == "true"

    def test_single_set(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n0110\n")
        code, out, _ = run_cli(capsys, "vc", str(path))
        assert code == 0
        assert kv(out)["vc"] == "0"

    def test_hex_middle_layer_of_q18(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(family_to_text(layer(18, 9), "hex"))
        code, out, _ = run_cli(capsys, "vc", str(path))
        pairs = kv(out)
        assert code == 0
        assert pairs["vc"] == "9"
        assert pairs["shattered"] == "155382"
        assert pairs["extremal"] == "false"
        assert pairs["maximal"] == "false"

    def test_malformed_bitstring_exits_2(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=3\n01\n")
        code, _, err = run_cli(capsys, "vc", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "vc", str(tmp_path / "nope.txt"))
        assert code == 2


class TestCountCommand:
    def test_maximal_families(self, capsys):
        code, out, _ = run_cli(capsys, "count", "m", "2", "1")
        assert code == 0
        assert kv(out)["count"] == "4"

    def test_induced_matchings(self, capsys):
        code, out, _ = run_cli(capsys, "count", "indmat", "2", "0")
        assert code == 0
        assert kv(out)["count"] == "3"

    def test_connected_subgraphs(self, capsys):
        code, out, _ = run_cli(capsys, "count", "conn", "2", "3")
        assert code == 0
        assert kv(out)["count"] == "4"

    def test_budget_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "count", "m", "6", "2")
        assert code == 3
        assert "budget" in err

    def test_conn_negative_n_exits_2(self, capsys):
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, "count", "conn", "-1", "0")
        assert code == 2
        assert "n=-1" in err
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("kind,k_or_m", [("m", "11"), ("conn", "1")])
    def test_budget_refuses_before_any_work(self, capsys, kind, k_or_m):
        # C(2^22, C(22,<=11)) and the 2^22-vertex neighbour tables are both
        # far too slow or too big to build before checking the budget
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, "count", kind, "22", k_or_m)
        assert code == 3
        assert "budget" in err
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize(
        "argv,want",
        [
            (["conn", "-1", "0"], 2),
            (["conn", "5", "100"], 2),
            (["conn", "5", "1"], 3),
            (["m", "3", "1", "--budget", "0"], 2),
            (["m", "3", "1", "--budget", "-5"], 2),
            (["conn", "3", "1", "--budget", "0"], 2),
            (["exvc", "3", "1", "--budget", "1"], 2),
            (["indmat", "3", "1", "--budget", "1"], 2),
            (["m", "3", "1", "--budget", "69"], 3),
            (["m", "3", "1", "--budget", "70"], 0),
            (["m", "29", "0"], 2),
            (["m", "29", "0", "--budget", "1000000000"], 2),
        ],
        ids=[
            "conn_n_negative", "conn_m_over_2n", "conn_n5", "m_budget_0",
            "m_budget_negative", "conn_budget_0", "exvc_budget",
            "indmat_budget", "m_budget_69", "m_budget_70", "m_n29",
            "m_n29_budget",
        ],
    )
    def test_arguments_and_budget_flag(self, capsys, argv, want):
        # count m 3 1 has C(8, C(3,<=1)) = 70 candidates; conn at n=5 has
        # at least 14,532,608 connected sets, over the default 10^7; n=29
        # is over the dimension cap whatever the budget
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, "count", *argv)
        assert code == want
        assert ("budget=70" in out) == (want == 0)
        assert time.perf_counter() - t0 < 2.0

    def test_csv_row_written(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        run_cli(capsys, "count", "m", "2", "1", "--csv", str(path))
        run_cli(capsys, "count", "m", "3", "1", "--csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "n,k_or_m,count,candidates_examined,elapsed_ms"
        assert lines[1].startswith("2,1,4,4,")
        assert lines[2].startswith("3,1,32,70,")


class TestInjectCommand:
    def test_enumerated(self, capsys):
        code, out, _ = run_cli(capsys, "inject", "3", "1")
        pairs = kv(out)
        assert code == 0
        assert pairs["matchings"] == "10"
        assert pairs["injective"] == "true"
        assert pairs["all_maximal"] == "true"
        assert pairs["roundtrip_identity"] == "true"

    def test_supplied_matchings_file(self, capsys, tmp_path):
        from vcube import enumerate_induced_matchings, matching_to_text

        blocks = [
            matching_to_text(m) for m in enumerate_induced_matchings(3, 1)
        ]
        path = tmp_path / "ms.txt"
        path.write_text("\n\n".join(blocks))
        code, out, _ = run_cli(capsys, "inject", "3", "1", "--matchings", str(path))
        assert code == 0
        assert kv(out)["matchings"] == "10"

    @pytest.mark.parametrize("argv", [["4", "1"], ["5", "2"]])
    def test_matchings_of_another_shape_exit_2(self, capsys, tmp_path, argv):
        from vcube import enumerate_induced_matchings, matching_to_text

        blocks = [
            matching_to_text(m) for m in enumerate_induced_matchings(5, 1)
        ][:3]
        path = tmp_path / "ms.txt"
        path.write_text("\n\n".join(blocks))
        code, out, err = run_cli(
            capsys, "inject", *argv, "--matchings", str(path)
        )
        assert code == 2
        assert out == ""
        assert "matching block 1 has n=5 k=1" in err


def _step_rows(lines):
    return [i for i, ln in enumerate(lines) if len(ln.split()) == 4]


def _clear_separator_bit(lines):
    i = next(i for i, ln in enumerate(lines) if ln.startswith("separator="))
    digits = lines[i][len("separator=") :]
    bits = int(digits, 16)
    lines[i] = f"separator={bits ^ (bits & -bits):0{len(digits)}x}"


def _swap_counts(lines):
    # the sums stay right; only a replay sees the counts at the wrong step
    i, *rest = _step_rows(lines)
    a = lines[i].split()
    j = next(j for j in rest if lines[j].split()[2:] != a[2:])
    b = lines[j].split()
    a[2:], b[2:] = b[2:], a[2:]
    lines[i], lines[j] = " ".join(a), " ".join(b)


def _move_center(lines):
    i = next(i for i in _step_rows(lines) if int(lines[i].split()[2]) > 1)
    idx, center, ball, sphere = lines[i].split()
    center = center[:-1] + ("1" if center[-1] == "0" else "0")
    lines[i] = " ".join((idx, center, ball, sphere))


# One small file of each kind vcube reads, with the command that reads
# it ("{}" is the file's path).  The family and matching bodies pin n:
# changing the header's n makes every body line the wrong width.
_READ_TARGETS = [
    (family_to_text(layer(6, 2)), ["vc", "{}"]),
    (
        matching_to_text(InducedMatching(4, 1, ((1, 3), (4, 6), (8, 10)))),
        ["inject", "4", "1", "--matchings", "{}"],
    ),
    (certificate_to_text(peel(6)), ["verify", "{}"]),
]

_MUTANT_TOKENS = st.one_of(
    st.sampled_from(["0", "-1", "2", "3", "nan", "inf", "-0.0", "1e999", ""]),
    st.integers(-(1 << 70), 1 << 70).map(str),
    st.text(alphabet="01x=-.+afin", max_size=12),
)

# Sweep arguments: endpoints stay <= 64 so every accepted range is short.
_SWEEP_ENDPOINTS = st.one_of(
    st.integers(-70, 64).map(str),
    st.sampled_from(["", "x", "8.5", "-", "1e3", " 8", "0x10", "nan"]),
)
_SWEEP_STEPS = st.one_of(
    st.integers(-3, 70).map(str),
    st.integers(-3, 70).map(lambda i: f"x{i}"),
    st.text(alphabet="0123456789x-+. ", max_size=5),
)
_SWEEP_EPSILONS = st.one_of(
    st.sampled_from(
        ["1/8", "0", "1", "1/0", "0/0", "nan", "inf", "-1/8", "abc", "",
         "1e-3", "1e999", "-1e999", "1e-999", "-0.0", "1/2", "7/8"]
    ),
    st.fractions(-2, 2, max_denominator=100).map(str),
    st.text(alphabet="0123456789/.-+ ", max_size=8),
)


class TestPeelVerify:
    def test_roundtrip(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        code, out, _ = run_cli(
            capsys, "peel", "8", "--seed", "7", "--out", str(cert)
        )
        assert code == 0
        value = kv(out)["value"]
        code, out, _ = run_cli(capsys, "verify", str(cert))
        assert code == 0
        pairs = kv(out)
        assert pairs["ok"] == "true"
        assert pairs["value"] == value

    def test_truncated_certificate_exits_2(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        run_cli(capsys, "peel", "6", "--out", str(cert))
        text = cert.read_text()
        cert.write_text(text[: len(text) // 2].rsplit("\n", 1)[0])
        code, _, err = run_cli(capsys, "verify", str(cert))
        assert code == 2

    @pytest.mark.parametrize(
        "tamper", [_clear_separator_bit, _swap_counts, _move_center],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_tampered_certificate_exits_4(self, capsys, tmp_path, tamper):
        cert = tmp_path / "cert.txt"
        run_cli(capsys, "peel", "6", "--out", str(cert))
        lines = cert.read_text().splitlines()
        tamper(lines)
        cert.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify", str(cert))
        assert code == 4
        assert "sphere" in err or "value" in err or "candidate" in err

    @pytest.mark.parametrize(
        "old, new",
        [("seed=0", "seed=1"), ("T=32", "T=31"), ("T=32", "T=33")],
        ids=["seed", "fewer_samples", "more_samples"],
    )
    def test_edited_sampler_settings_exit_4(self, capsys, tmp_path, old, new):
        # the audit replays the sampler the header names, so another seed
        # or T offers other candidates than the recorded centers
        cert = tmp_path / "cert.txt"
        run_cli(capsys, "peel", "8", "--out", str(cert))
        text = cert.read_text()
        cert.write_text(text.replace(old, new, 1))
        code, out, err = run_cli(capsys, "verify", str(cert))
        assert code == 4
        assert out == ""
        assert "candidate" in err and new in err

    def test_forged_sample_count_exits_3_at_once(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        run_cli(capsys, "peel", "8", "--out", str(cert))
        cert.write_text(cert.read_text().replace("T=32", f"T={10**12}", 1))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(cert))
        assert code == 3
        assert out == ""
        assert "budget" in err
        assert time.perf_counter() - t0 < 1

    def test_zero_samples_certificate_verifies(self, capsys, tmp_path):
        # each step's only candidate is the member of the drawn rank
        cert = tmp_path / "cert.txt"
        code, out, _ = run_cli(
            capsys, "peel", "9", "--samples", "0", "--out", str(cert)
        )
        assert code == 0
        assert kv(out)["samples"] == "0"
        code, out, _ = run_cli(capsys, "verify", str(cert))
        assert code == 0
        assert kv(out)["ok"] == "true"

    def test_value_below_the_lower_bound_exits_4(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        run_cli(capsys, "peel", "6", "--out", str(cert))
        lines = cert.read_text().splitlines()
        lines[-1] = "value=10"  # I(Q_6) >= C(6,2) + 1 = 16
        cert.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify", str(cert))
        assert code == 4
        assert "lower bound I(Q_6) >= 16" in err

    @pytest.mark.parametrize(
        "header",
        [
            "n=0 alpha=0.5 r0=0 seed=0 T=1",
            "n=2 alpha=0.5 r0=0 seed=0 T=1",
            "n=8 alpha=nan r0=0 seed=0 T=1",
        ],
        ids=["n0", "n2", "alpha_nan"],
    )
    def test_bad_header_exits_2(self, capsys, tmp_path, header):
        cert = tmp_path / "cert.txt"
        cert.write_text(f"{header}\nseparator=0\nvalue=1\n")
        code, _, err = run_cli(capsys, "verify", str(cert))
        assert code == 2
        assert "line 1" in err

    @settings(
        max_examples=600,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_one_token_mutation_never_crashes(self, capsys, tmp_path, data):
        text, argv = data.draw(st.sampled_from(_READ_TARGETS))
        lines = [ln.split() for ln in text.splitlines()]
        row = data.draw(st.integers(0, len(lines) - 1))
        col = data.draw(st.integers(0, len(lines[row]) - 1))
        token = data.draw(_MUTANT_TOKENS)
        key, eq, _ = lines[row][col].partition("=")
        if eq and data.draw(st.booleans()):
            token = f"{key}={token}"
        lines[row][col] = token
        path = tmp_path / "input.txt"
        # a new file each time: rewriting one in place makes some file
        # systems flush it on close, which costs more than the audit
        path.unlink(missing_ok=True)
        path.write_text("\n".join(" ".join(ln) for ln in lines) + "\n")
        code, _, _ = run_cli(capsys, *(a.format(path) for a in argv))
        assert code in (0, 2, 3, 4)

    def test_same_seed_same_stdout(self, capsys):
        code1, out1, _ = run_cli(capsys, "peel", "7", "--seed", "3")
        code2, out2, _ = run_cli(capsys, "peel", "7", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2


class TestSweepCommand:
    def test_lemma_table(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "lemma", "256..1024")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "n,alpha,r0,ball_ratio,sphere_ratio"
        assert [l.split(",")[0] for l in lines[1:]] == ["256", "512", "1024"]

    def test_lemma_past_the_term_budget_exits_3(self, capsys):
        # refused before the first row, so no header or row is printed
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", "lemma", f"8..{2**60}:x2")
        assert code == 3
        assert out == ""
        assert "budget" in err
        assert time.perf_counter() - t0 < 1

    def test_rho_table_includes_baseline(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "rho", "8..10")
        lines = out.splitlines()
        assert code == 0
        assert "naive" in lines[0]
        assert len(lines) == 3

    def test_rho_refuses_every_n_before_the_first_peel(self, capsys,
                                                       monkeypatch):
        import vcube.integrity as integ

        calls = []
        real = integ.peel

        def recorder(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(integ, "peel", recorder)
        code, out, err = run_cli(capsys, "sweep", "rho", "8..30:22")
        assert code == 2
        assert out == ""
        assert "n=30" in err
        assert calls == []

    def test_csv_appends_the_rows_under_one_header(self, capsys, tmp_path):
        path = tmp_path / "lemma.csv"
        _, first, _ = run_cli(capsys, "sweep", "lemma", "256..1024",
                              "--csv", str(path))
        _, second, _ = run_cli(capsys, "sweep", "lemma", "2048..4096",
                               "--csv", str(path))
        lines = path.read_text().splitlines()
        assert lines == first.splitlines() + second.splitlines()[1:]
        assert len(lines) == 1 + 3 + 2

    def test_bounds_at_n_1e17_keep_their_digits(self, capsys):
        # log_lower = C(n/2, 18) ln(n/2); lgamma alone read C(5e16, 18)
        # as e^768.0 and printed inf
        n = 10**17
        code, out, _ = run_cli(capsys, "sweep", "bounds", f"{n}..{n}",
                               "--k", "18", "--epsilon", "1/2")
        assert code == 0
        row = out.splitlines()[1].split(",")
        want = math.comb(n // 2, 18) * math.log(n // 2)
        assert float(row[3]) == pytest.approx(want, rel=1e-9)
        assert float(row[3]) <= float(row[4])

    def test_bounds_rows_ordered(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "bounds", "8..16", "--k", "2", "--epsilon", "1/8"
        )
        lines = out.splitlines()
        assert code == 0
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[3]) <= float(cells[4])

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemma", "1024"],
            ["lemma", "8..16:xa"],
            ["lemma", "8..16:abc"],
            ["bounds", "8..16", "--epsilon", "abc"],
            ["bounds", "8..16", "--epsilon", "nan"],
            ["bounds", "8..16", "--epsilon", "1/0"],
            ["bounds", "8..16", "--epsilon", "1e999"],
            ["bounds", "8..9", "--epsilon", "1e999999999"],
            ["bounds", "8..9", "--epsilon", "1e-999999999"],
            ["lemma", "0..16"],
            ["lemma", "--", "-4..16:x2"],
            ["lemma", "--", "--"],
            ["bounds", "2..10", "--k", "3"],
            ["bounds", f"{10**400}..{10**400}", "--k", "2", "--epsilon", "1/2"],
        ],
        ids=[
            "no_dots", "step_xa", "step_abc", "epsilon_abc", "epsilon_nan",
            "epsilon_div0", "epsilon_1e999", "epsilon_1e999999999",
            "epsilon_1e-999999999", "x2_from_0", "x2_from_negative",
            "range_is_dashes", "k_over_first_n", "n_past_float_range",
        ],
    )
    def test_bad_range_exits_2(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2
        assert out == ""
        assert "input error" in err
        assert time.perf_counter() - t0 < 2

    def test_range_too_long_to_list_exits_3(self, capsys):
        # the range stays lazy, so the term budget refuses it
        t0 = time.perf_counter()
        code, out, err = run_cli(
            capsys, "sweep", "lemma", "8..1000000000000000000000:1"
        )
        assert code == 3
        assert out == ""
        assert "budget" in err
        assert time.perf_counter() - t0 < 2

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        kind=st.sampled_from(["lemma", "bounds"]),
        a=_SWEEP_ENDPOINTS,
        dots=st.sampled_from([".."] * 3 + [".", "...", ""]),
        b=_SWEEP_ENDPOINTS,
        step=st.none() | _SWEEP_STEPS,
        eps=st.none() | _SWEEP_EPSILONS,
    )
    def test_mutated_arguments_never_crash(self, capsys, kind, a, dots, b,
                                           step, eps):
        span = f"{a}{dots}{b}" + ("" if step is None else f":{step}")
        argv = ["sweep", kind]
        if eps is not None:
            argv.append(f"--epsilon={eps}")
        # after "--" a leading "-" cannot turn the range into an option
        code, _, _ = run_cli(capsys, *argv, "--", span)
        assert code in (0, 2, 3)


class TestDeterminismSubprocess:
    def test_byte_identical_runs(self, tmp_path):
        # full process isolation: stdout and certificate bytes must agree
        outs = []
        certs = []
        for i in (1, 2):
            cert = tmp_path / f"cert{i}.txt"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "vcube",
                    "peel", "9", "--seed", "42", "--out", str(cert),
                ],
                capture_output=True,
                check=True,
            )
            outs.append(proc.stdout)
            certs.append(cert.read_bytes())
        assert outs[0] == outs[1]
        assert certs[0] == certs[1]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_unknown_count_kind(self, capsys):
        code, _, _ = run_cli(capsys, "count", "zeta", "3", "1")
        assert code == 2

    def test_dashes_as_an_int_value_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "m", "3", "--", "--")
        assert code == 2
        assert "input error" in err

    def test_max_n_flag_lowers_the_cap(self, capsys):
        import vcube.cube as cube

        before = cube.max_dim()
        try:
            code, _, err = run_cli(capsys, "--max-n", "6", "peel", "8")
            assert code == 2
            assert "cap" in err
        finally:
            cube.set_max_dim(before)

    @pytest.mark.parametrize(
        "argv,want",
        [
            (["--max-n", "0", "count", "m", "2", "1"], 2),
            (["--max-n", "6", "peel", "8"], 2),
            (["--max-n", "6", "count", "m", "2", "1"], 0),
        ],
        ids=["zero", "refused", "ok"],
    )
    def test_max_n_is_scoped_to_the_call(self, capsys, argv, want):
        code, _, _ = run_cli(capsys, *argv)
        assert code == want
        assert max_dim() == DEFAULT_MAX_DIM

    @pytest.mark.parametrize(
        "argv",
        [
            ["vc", "{dir}"],
            ["verify", "{binary}"],
            ["count", "m", "3", "1", "--csv", "{dir}"],
            ["sweep", "lemma", "256..1024", "--csv", "{dir}"],
            ["peel", "5", "--out", "{dir}"],
        ],
        ids=["vc_directory", "verify_binary", "csv_directory",
             "sweep_csv_directory", "out_directory"],
    )
    def test_unreadable_or_unwritable_path_exits_2(self, capsys, tmp_path, argv):
        binary = tmp_path / "cert.bin"
        binary.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x80]) * 16)
        paths = {"dir": str(tmp_path), "binary": str(binary)}
        code, _, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert "input error" in err
        assert "Traceback" not in err
