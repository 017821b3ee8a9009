"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    for key, code in (("end_to_end", run.END_TO_END),
                      ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == code
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_smoke_mode_is_correct_and_complete():
    t0 = time.monotonic()
    proc = _bench("--smoke")
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 60
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("smoke ")]
    assert len(lines) == 2 * len(workloads.SMOKE)
    for line in lines:
        _, name, trace, body = line.split(" ", 3)
        res = json.loads(body)
        assert res["correct"] is True, line
        assert res["attempted"] >= 1
        want = run.PER_LAYER if trace == "trace=1" else run.END_TO_END
        assert set(res["metrics"]) == set(want)
        if trace == "trace=0":
            assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "oracles", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_subtracts_child_spans():
    t = tracing.Tracer()
    t.begin("outer")
    t.begin("inner")
    time.sleep(0.01)
    t.end()
    t.end()
    assert t.calls == {"outer": 1, "inner": 1}
    (_, outer, s0, e0, root), (_, inner, s1, e1, parent) = t.spans
    assert (outer, inner, root, parent) == ("outer", "inner", -1, 0)
    assert s0 <= s1 <= e1 <= e0
    assert t.self_s["inner"] == e1 - s1 >= 0.01
    assert abs(t.self_s["outer"] - ((e0 - s0) - (e1 - s1))) < 1e-12


def test_each_tamper_changes_one_field():
    import vcube

    cert = vcube.peel(9, vcube.PeelConfig(seed=3))
    text = vcube.certificate_to_text(cert)
    rng = random.Random(0)
    for kind in workloads.TAMPER_KINDS:
        bad = workloads.tamper(text, kind, rng)
        changed = [(a, b) for a, b in zip(text.splitlines(), bad.splitlines())
                   if a != b]
        assert changed, kind
        assert len(changed) == (2 if kind == "swap_counts" else 1)
        vcube.certificate_from_text(bad)  # still well-formed
