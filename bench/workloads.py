"""Workloads of the vcube benchmark: their inputs, ops and output checks.

A workload is a seeded sequence of rounds; a round is the unit of work a
user asks for (certify one bound, or recompute the table of exact
counts).  Every op is a `vcube` CLI command run in-process, or a public
library call where no command exists, and every op's output is checked.

Failure accounting:
  * an op *fails* when it raises, exits with the wrong code, or prints or
    writes a wrong output; failures count in `failed` and `ok_ratio`;
  * a failure is also *core* when it makes a result the benchmark times
    wrong: a certificate, a count, or a valid certificate rejected.  Any
    core failure makes the run incorrect.  A tampered certificate that
    the audit accepts is a failed op, not a core one: it measures how
    much the audit checks, which ROADMAP item 3 is meant to change.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

# sha256 of `vcube peel N --seed 0` certificates (T=32) at the seed commit.
PINNED_DIGESTS = {
    9: "b104bb8840891512978d10defe7d55d6b683b4f417ec925278f90bc522a4f2b2",
    10: "bc29a093be9dcb1f22a146a18e6c39e622983d6f18b8b9a4f3bc6e85689224d0",
    11: "2fbe797960c7060fd8810e6a17469a04a1eab42ed0e0a064a2f93834a9408a8b",
    12: "571f835bfd94e702f0052558cb3b9a51634883892414b0fd45062a0ef16aff62",
    14: "b83135977ce724ae5687ea9eb2310412ae5efeb070b709fcabf04da46373ee2e",
    16: "95b0eddc622e09c0e93954265d5c5c6b77d83c63378be55568b9398c981adf2f",
    18: "407e0ff5bb0cbcdb710a095f9c186b253931621408a5fbf5c5f0a44c7d5e9d85",
    20: "7189325d7c1bc5a4853e3b86307291731568e72916ac9dc3b02199875274c355",
}

# Seed-0 (r0, steps, value, middle-layer baseline) from the ROADMAP table.
ROADMAP_TABLE = {
    14: (4, 319, 8149, 9908),
    16: (4, 1042, 32410, 39203),
    18: (5, 1180, 127575, 155382),
    20: (6, 1332, 499553, 616666),
}

# Exact counts pinned from the seed commit, where no closed form exists.
EXVC = {3: (8, 76, 126, 127), 4: (16, 800, 4744, 5528, 5529)}
CONN = {
    3: (1, 8, 12, 24, 38, 48, 28, 8, 1),
    4: (1, 16, 32, 96, 280, 784, 1952, 4304, 7280, 8720, 7136, 4192,
        1804, 560, 120, 16, 1),
}
INDMAT = {4: (5, 41, 41, 5), 5: (6, 196, 1648, 196, 6)}
INTEGRITY = {3: 5, 4: 9}  # I(Q_4) = 9 is also pinned by the test suite


def m_closed_form(n: int) -> int:
    """m(n,1) = 2^n (n+1)^(n-2): labelled trees on the n+1 points."""
    return 2**n * (n + 1) ** (n - 2)


def m_candidates(n: int, k: int) -> int:
    """Subsets of Q_n of the maximal size C(n,<=k): C(2^n, C(n,<=k))."""
    return math.comb(1 << n, sum(math.comb(n, i) for i in range(k + 1)))


@dataclass(frozen=True)
class CertifySpec:
    dims: Tuple[int, ...]
    tamper: bool


@dataclass(frozen=True)
class OracleSpec:
    m: Tuple[int, int]   # count m N K, with K = 1 so the closed form applies
    exvc_n: int
    conn_n: int
    indmat_n: int
    inject: Tuple[int, int]
    integrity_n: int


WORKLOADS = {
    "certify_large": CertifySpec(dims=(18,), tamper=False),
    "certify_small": CertifySpec(dims=(12, 14), tamper=True),
    "oracles": OracleSpec(m=(5, 1), exvc_n=4, conn_n=4, indmat_n=5,
                          inject=(5, 2), integrity_n=4),
}

# Same shapes at tiny sizes, for the seconds-long smoke mode.
SMOKE = {
    "certify_large": CertifySpec(dims=(11,), tamper=False),
    "certify_small": CertifySpec(dims=(9, 10), tamper=True),
    "oracles": OracleSpec(m=(4, 1), exvc_n=3, conn_n=3, indmat_n=4,
                          inject=(4, 1), integrity_n=3),
}

TAMPER_KINDS = ("swap_counts", "move_center", "clear_separator_bit")


def parse_report(text):
    """key=value lines of a CLI report, as a dict of strings."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key] = val
    return out


def _expect(rep, **want):
    """None when every key holds the wanted value, else the first miss."""
    for key, val in want.items():
        if isinstance(val, bool):
            val = "true" if val else "false"
        text = str(val)
        if rep.get(key) != text:
            return f"{key}={rep.get(key)!r}, expected {text}"
    return None


# ---------------------------------------------------------------------------
# Certification: peel, verify, and tampered variants.
# ---------------------------------------------------------------------------


def tamper(text, kind, rng):
    """One-token mutation of a valid certificate text."""
    lines = text.splitlines()
    steps = [i for i, ln in enumerate(lines) if len(ln.split()) == 4]
    if kind == "swap_counts":
        i = rng.choice(steps)
        a = lines[i].split()
        others = [j for j in steps if lines[j].split()[2:] != a[2:]]
        j = rng.choice(others)
        b = lines[j].split()
        a[2:], b[2:] = b[2:], a[2:]
        lines[i], lines[j] = " ".join(a), " ".join(b)
    elif kind == "move_center":
        i = rng.choice(steps)
        idx, center, ball, sphere = lines[i].split()
        bit = rng.randrange(len(center))
        flipped = "1" if center[bit] == "0" else "0"
        center = center[:bit] + flipped + center[bit + 1 :]
        lines[i] = " ".join((idx, center, ball, sphere))
    elif kind == "clear_separator_bit":
        i = next(i for i, ln in enumerate(lines)
                 if ln.startswith("separator="))
        digits = lines[i][len("separator=") :]
        bits = int(digits, 16)
        ones = [p for p, ch in enumerate(reversed(bin(bits))) if ch == "1"]
        bits &= ~(1 << rng.choice(ones))
        lines[i] = f"separator={bits:0{len(digits)}x}"
    else:
        raise ValueError(kind)
    return "\n".join(lines) + "\n"


class Certify:
    """Rounds of peel -> verify (-> tampered verifies) on consecutive seeds."""

    def __init__(self, spec, seed, vcube):
        self.spec = spec
        self.seed = seed
        self.integrity = vcube.integrity
        self.baseline = {
            n: vcube.middle_layer_baseline(n) for n in spec.dims
        }

    def round(self, run, index, workdir):
        # New files every round: truncating and rewriting a file makes
        # ext4 flush it on close, which would time the disk, not vcube.
        seed = self.seed + index
        fresh = Path(tempfile.mkdtemp(dir=workdir))
        try:
            for n in self.spec.dims:
                self._certify(run, n, seed, fresh / f"cert_{n}.txt")
        finally:
            shutil.rmtree(fresh)

    def _certify(self, run, n, seed, path):
        integ = self.integrity
        rc, out = run.cli(f"peel_s[n={n}]", ["peel", str(n), "--seed",
                                             str(seed), "--out", str(path)])
        why = None
        if rc != 0:
            why = f"exit {rc}"
        else:
            try:
                text = path.read_text()
                cert = integ.certificate_from_text(text)
                audited = integ.verify_certificate(cert)
            except Exception as exc:  # any failure of the audit is a miss
                why = f"library audit: {exc!r}"
            else:
                why = _expect(
                    parse_report(out), command="peel", n=n, seed=seed,
                    samples=32, steps=len(cert.steps),
                    separator=cert.separator_size,
                    max_component=cert.max_component, value=audited,
                )
                if why is None and not audited < self.baseline[n]:
                    why = f"value {audited} not below {self.baseline[n]}"
                digest = hashlib.sha256(text.encode()).hexdigest()
                if why is None and seed == 0 and n in PINNED_DIGESTS \
                        and digest != PINNED_DIGESTS[n]:
                    why = f"digest {digest} differs from the pinned one"
        run.outcome(f"peel n={n} seed={seed}", why)
        if why is not None:
            return
        rc, vout = run.cli(f"verify_s[n={n}]", ["verify", str(path)])
        why = f"exit {rc}" if rc != 0 else _expect(
            parse_report(vout), command="verify", n=n, steps=len(cert.steps),
            value=cert.value, ok=True,
        )
        run.outcome(f"verify n={n} seed={seed}", why)
        if not self.spec.tamper:
            return
        rng = random.Random(f"tamper {seed} {n}")
        for kind in TAMPER_KINDS:
            bad = path.with_name(f"{kind}_{n}.txt")
            bad.write_text(tamper(text, kind, rng))
            rc, _ = run.cli(f"tamper_verify_s[n={n}]", ["verify", str(bad)])
            run.tamper(kind, rc == 4)
            why = None if rc == 4 else f"exit {rc}, expected 4"
            run.outcome(f"verify {kind} n={n} seed={seed}", why, core=False)


# ---------------------------------------------------------------------------
# Exact-count oracles.
# ---------------------------------------------------------------------------


class Oracles:
    """Every exhaustive oracle once per round, in a seed-permuted order."""

    def __init__(self, spec, seed, vcube):
        self.integrity = vcube.integrity
        mn, mk = spec.m
        ops = [("count_m_s", ["count", "m", str(mn), str(mk)],
                dict(count=m_closed_form(mn),
                     candidates_examined=m_candidates(mn, mk)))]
        n = spec.exvc_n
        for k, want in enumerate(EXVC[n]):
            if k == 0:
                want = 2**n  # ExVC(n,0): the singletons
            ops.append(("count_exvc_s", ["count", "exvc", str(n), str(k)],
                        dict(count=want,
                             candidates_examined=(1 << (1 << n)) - 1)))
        n = spec.conn_n
        for m, want in enumerate(CONN[n]):
            ops.append(("count_conn_s", ["count", "conn", str(n), str(m)],
                        dict(count=want, candidates_examined=sum(CONN[n]))))
        n = spec.indmat_n
        for k in range(n):
            # IndMat(n,k) = IndMat(n,n-1-k): check against the mirror entry
            want = INDMAT[n][n - 1 - k]
            ops.append(("count_indmat_s", ["count", "indmat", str(n), str(k)],
                        dict(count=want, candidates_examined=want)))
        n, k = spec.inject
        matchings = INDMAT[n][k]
        ops.append(("inject_s", ["inject", str(n), str(k)],
                    dict(matchings=matchings, distinct_images=matchings,
                         injective=True, all_maximal=True, all_vc_exact=True,
                         roundtrip_identity=True)))
        self.ops = ops
        self.integrity_n = spec.integrity_n
        self.seed = seed

    def round(self, run, index, workdir):
        order = list(range(len(self.ops) + 1))
        random.Random(f"order {self.seed} {index}").shuffle(order)
        for i in order:
            if i == len(self.ops):
                n = self.integrity_n
                # looked up at call time, so a traced round sees the wrapper
                value = run.lib("exact_integrity_s",
                                lambda: self.integrity.exact_integrity(n))
                why = None if value == INTEGRITY[n] else (
                    f"I(Q_{n}) = {value!r}, expected {INTEGRITY[n]}")
                run.outcome(f"exact_integrity({n})", why)
                continue
            metric, argv, want = self.ops[i]
            rc, out = run.cli(metric, argv)
            why = (f"exit {rc}" if rc != 0
                   else _expect(parse_report(out), **want))
            run.outcome(" ".join(argv), why)


def make(spec, seed, vcube):
    cls = Certify if isinstance(spec, CertifySpec) else Oracles
    return cls(spec, seed, vcube)
