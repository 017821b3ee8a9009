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
        ],
        ids=[
            "conn_n_negative", "conn_m_over_2n", "conn_n5", "m_budget_0",
            "m_budget_negative", "conn_budget_0", "exvc_budget",
            "indmat_budget", "m_budget_69", "m_budget_70",
        ],
    )
    def test_arguments_and_budget_flag(self, capsys, argv, want):
        # count m 3 1 has C(8, C(3,<=1)) = 70 candidates; conn at n=5 has
        # at least 14,532,608 connected sets, over the default 10^7
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
        assert "sphere" in err or "value" in err

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

    def test_rho_table_includes_baseline(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "rho", "8..10")
        lines = out.splitlines()
        assert code == 0
        assert "naive" in lines[0]
        assert len(lines) == 3

    def test_bounds_rows_ordered(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "bounds", "8..16", "--k", "2", "--epsilon", "1/8"
        )
        lines = out.splitlines()
        assert code == 0
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[3]) <= float(cells[4])

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "lemma", "1024")
        assert code == 2


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
