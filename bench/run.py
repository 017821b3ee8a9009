"""vcube benchmark: closed-loop workloads driven through the CLI.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 bench/run.py --smoke     # every workload at tiny sizes, seconds
    python3 bench/run.py --table     # the ROADMAP seed-0 table, n = 14..20

Load model: one client, one op at a time, in this single process (the
library is single-threaded).  Each op is `vcube.cli.main(argv)` with its
output captured, or a public library call where no command exists; the
benchmark imports vcube from the `src/` tree next to this directory and
refuses to run without it.

Human-readable lines go first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are END_TO_END, with --trace 1 they are PER_LAYER, and the spans
go to .bench_out/ as JSON.  End-to-end numbers only come from untraced
ops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}
# Work counts are "lower" (less work for the same answer); ratios of useful
# outcomes to attempts are "higher".
PER_LAYER = {name: ("count", "lower")
             for name in tracing.CALL_METRICS + tracing.COUNT_METRICS}
PER_LAYER.update({
    "cube.translate.bytes_computed": ("B", "lower"),
    "integrity.tamper.detected_ratio": ("ratio", "higher"),
    "counting.m.hit_ratio": ("ratio", "higher"),
    "counting.exvc.hit_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
})
PER_LAYER.update({name: ("s", "lower") for name in tracing.SELF_METRICS})


# ---------------------------------------------------------------------------
# Environment and import.
# ---------------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(vcube):
    """Stamp for every result: interpreter, CPU, caches, commit, version."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind = _read(idx / "level"), _read(idx / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
            _read(idx / "size")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or "unknown",
        "caches": caches,
        "git_commit": _git_commit(),
        "vcube_version": vcube.__version__,
    }


def fresh_import():
    """Import vcube from ./src as a new process would, dropping any copy."""
    for name in list(sys.modules):
        if name == "vcube" or name.startswith("vcube."):
            del sys.modules[name]
    vcube = importlib.import_module("vcube")
    importlib.import_module("vcube.cli")
    if Path(vcube.__file__).resolve().parent != SRC / "vcube":
        raise SystemExit(f"bench: imported vcube from {vcube.__file__}, "
                         f"not from {SRC}")
    return vcube


# ---------------------------------------------------------------------------
# Running ops.
# ---------------------------------------------------------------------------


class Runner:
    """Times, optionally traces, and tallies the ops of one run."""

    def __init__(self, vcube):
        self.main = vcube.cli.main
        self.mods = {m: getattr(vcube, m) for m in
                     ("cube", "vc", "matchings", "counting", "integrity")}
        self.tracer = None
        self.patches = None
        self.tracing = False
        self.times = defaultdict(list)  # op metric -> untraced seconds
        self.round_s = 0.0
        self.attempted = self.failed = self.core_failed = 0
        self.failures = []
        self.tampers = defaultdict(lambda: [0, 0])  # kind -> [detected, seen]

    def trace(self, on):
        if on and self.tracer is None:
            self.tracer = tracing.Tracer()
            self.patches = tracing.layer_patches(self.tracer, self.mods)
        self.tracing = on

    def _timed(self, metric, fn, args, root):
        layers = (tracing.patched(self.patches) if self.tracing
                  else contextlib.nullcontext())
        result, err = None, None
        with layers, contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            if self.tracing and root:
                self.tracer.begin(root)
            try:
                result = fn(*args)
            except Exception:  # a traceback is a failed op, not a crash
                err = traceback.format_exc()
            finally:
                if self.tracing and root:
                    self.tracer.end()
                dt = time.perf_counter() - t0
        self.round_s += dt
        if not self.tracing:
            self.times[metric].append(dt)
        return result, out.getvalue(), err

    def cli(self, metric, argv):
        """Run one vcube command; (exit code or 'traceback...', stdout)."""
        rc, out, err = self._timed(metric, self.main, (argv,), "cli")
        if err is not None:
            return "traceback:\n" + err, out
        return rc, out

    def lib(self, metric, call):
        """Run one library call `call()`; its value, or 'traceback...'."""
        value, _, err = self._timed(metric, call, (), None)
        return value if err is None else "traceback:\n" + err

    def outcome(self, label, why, core=True):
        self.attempted += 1
        if why is None:
            return
        self.failed += 1
        self.core_failed += core
        self.failures.append(f"{label}: {why}")

    def tamper(self, kind, detected):
        self.tampers[kind][0] += detected
        self.tampers[kind][1] += 1


def run_rounds(work, runner, seconds, traced, workdir):
    """Closed loop of rounds until the next one would overrun `seconds`.

    Traced runs repeat every round with the layer wrappers installed, on
    the same inputs, so the two medians differ only by the tracing.
    """
    plain, with_trace, layer_rows = [], [], []
    start = time.perf_counter()
    walls = []
    index = 0
    while True:
        t_round = time.perf_counter()
        runner.trace(False)
        runner.round_s = 0.0
        work.round(runner, index, workdir)
        plain.append(runner.round_s)
        if traced:
            runner.trace(True)
            runner.round_s = 0.0
            before = runner.tracer.snapshot()
            runner.tracer.round = index
            work.round(runner, index, workdir)
            with_trace.append(runner.round_s)
            after = runner.tracer.snapshot()
            layer_rows.append(tracing.round_layers(before, after))
            runner.trace(False)
        walls.append(time.perf_counter() - t_round)
        index += 1
        elapsed = time.perf_counter() - start
        # two rounds give an untraced median; a traced round is run twice
        if index >= (1 if traced else 2) and \
                elapsed + statistics.median(walls) > seconds:
            return plain, with_trace, layer_rows


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def summary(samples):
    """Median, plus the highest percentile with >= 10 samples beyond it."""
    text = f"median={statistics.median(samples):.6f} samples={len(samples)}"
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) >= 1000:
            q = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            text += f" p{p}={q:.6f}"
            break
    return text


def layer_metrics(rows, plain, with_trace, runner):
    med = lambda key: statistics.median(r[key] for r in rows)
    total = lambda key: sum(r[key] for r in rows)
    ratio = lambda a, b: a / b if b else 0.0
    out = {name: med(name) for name in PER_LAYER if rows and name in rows[0]}
    detected = sum(d for d, _ in runner.tampers.values())
    seen = sum(s for _, s in runner.tampers.values())
    out["integrity.tamper.detected_ratio"] = ratio(detected, seen)
    out["counting.m.hit_ratio"] = ratio(total("counting.m.hits"),
                                        total("counting.m.candidates"))
    out["counting.exvc.hit_ratio"] = ratio(total("counting.exvc.hits"),
                                           total("counting.exvc.families"))
    out["trace.overhead_s"] = (statistics.median(with_trace)
                               - statistics.median(plain))
    return out


def run_workload(name, spec, seed, seconds, traced, quiet=False):
    """One benchmark run; returns the result object of the last line."""
    setups = []
    for _ in range(SETUP_REPEATS):
        # free the last repetition's modules so peak RSS counts one copy
        vcube = work = None
        gc.collect()
        t0 = time.perf_counter()
        vcube = fresh_import()
        work = workloads.make(spec, seed, vcube)
        setups.append(time.perf_counter() - t0)
    env = environment(vcube)
    runner = Runner(vcube)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        plain, with_trace, rows = run_rounds(work, runner, seconds, traced,
                                             Path(tmp))
    say = (lambda *a: None) if quiet else print
    say("env " + json.dumps(env, sort_keys=True))
    say(f"workload={name} seed={seed} seconds={seconds} trace={int(traced)} "
        f"rounds={len(plain)}")
    for metric in sorted(runner.times):
        say(f"  {metric:<24} unit=s {summary(runner.times[metric])}")
    say(f"  {'round_s':<24} unit=s {summary(plain)}")
    say(f"  {'setup_s':<24} unit=s {summary(setups)}")
    say(f"  {'error_rate':<24} unit=ratio value="
        f"{runner.failed / runner.attempted:.4f} ({runner.failed} of "
        f"{runner.attempted} ops failed, {runner.core_failed} of them core)")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not traced:
        say(f"  {'peak_rss_mib':<24} unit=MiB value={rss:.3f}")
    for kind, (det, seen) in sorted(runner.tampers.items()):
        say(f"  tamper {kind}: {det} of {seen} rejected with exit 4")
    for line in runner.failures[:5]:
        print(f"bench: failed op: {line}", file=sys.stderr)
    if len(runner.failures) > 5:
        print(f"bench: ... and {len(runner.failures) - 5} more failed ops",
              file=sys.stderr)

    if traced:
        values = layer_metrics(rows, plain, with_trace, runner)
        units = PER_LAYER
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        dump = out_dir / f"trace_{name}_seed{seed}.json"
        t = runner.tracer
        dump.write_text(json.dumps({
            "env": env, "workload": name, "seed": seed,
            "span_fields": ["round", "name", "start", "end", "parent"],
            "spans": t.spans,
            "spans_dropped": t.dropped,
            "rounds": rows, "metrics": values,
        }))
        say(f"  spans written to {dump.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "round_s": statistics.median(plain),
            "ok_ratio": 1.0 - runner.failed / runner.attempted,
            "peak_rss_mib": rss,
        }
        units = END_TO_END
    return {
        "correct": runner.core_failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k][0]}
                    for k in units},
    }


# ---------------------------------------------------------------------------
# One-off modes.
# ---------------------------------------------------------------------------


def table():
    """Reproduce the ROADMAP seed-0 baseline table; True iff it matches."""
    vcube = fresh_import()
    print("env " + json.dumps(environment(vcube), sort_keys=True))
    runner = Runner(vcube)
    runner.trace(False)
    rows, ok = [], True
    print("| n  | r0 | steps | peel     | verify  "
          "| value / middle-layer baseline |")
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        for n, (r0, steps, value, base) in workloads.ROADMAP_TABLE.items():
            path = Path(tmp) / f"cert_{n}.txt"
            rc, out = runner.cli("peel", ["peel", str(n), "--out", str(path)])
            rc2, vout = runner.cli("verify", ["verify", str(path)])
            rep = workloads.parse_report(out)
            got = (int(rep.get("r0", -1)), int(rep.get("steps", -1)),
                   int(rep.get("value", -1)), vcube.middle_layer_baseline(n))
            digest_ok = workloads.PINNED_DIGESTS.get(n) == \
                hashlib.sha256(path.read_bytes()).hexdigest()
            row_ok = (rc == rc2 == 0 and got == (r0, steps, value, base)
                      and digest_ok and "ok=true" in vout)
            ok &= row_ok
            peel_s = runner.times["peel"][-1]
            verify_s = runner.times["verify"][-1]
            rows.append(dict(n=n, r0=got[0], steps=got[1], peel_s=peel_s,
                             verify_s=verify_s, value=got[2], baseline=got[3],
                             matches=row_ok))
            print(f"| {n} | {got[0]}  | {got[1]:<5} | {peel_s:6.2f} s | "
                  f"{verify_s:5.2f} s | {got[2]} / {got[3]} |"
                  f"{'' if row_ok else ' MISMATCH'}")
    print(json.dumps({"table": rows, "matches": ok}))
    return ok


def smoke(seconds):
    """Every workload at tiny sizes, untraced and traced; True iff correct."""
    print("env " + json.dumps(environment(fresh_import()), sort_keys=True))
    ok = True
    for name, spec in workloads.SMOKE.items():
        for traced in (False, True):
            res = run_workload(name, spec, 0, seconds, traced, quiet=True)
            print(f"smoke {name} trace={int(traced)} " + json.dumps(res))
            ok &= res["correct"]
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--table", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "vcube" / "__init__.py").is_file():
        print(f"bench: no vcube sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.table:
        return 0 if table() else 1
    if args.smoke:
        return 0 if smoke(min(args.seconds, 0.5)) else 1
    if args.workload is None:
        parser.error("one of --workload, --smoke or --table is required")
    res = run_workload(args.workload, workloads.WORKLOADS[args.workload],
                       args.seed, args.seconds, bool(args.trace))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
