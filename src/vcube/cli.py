"""Command-line surface for the library.

Subcommands: vc, count, inject, peel, verify, sweep.  Reports are
line-oriented key=value pairs on stdout; tables go out as CSV.  Stdout
never carries wall-clock data, so a fixed seed reproduces every report
byte for byte (oracle CSV files add an elapsed_ms column, which is the
one deliberately non-reproducible field).

Exit codes: 0 success, 2 input error, 3 resource budget, 4 failed audit.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, counting, cube, integrity, matchings, vc
from .errors import (
    BudgetError,
    DomainError,
    NotInImageError,
    ParseError,
    SolverError,
    VerificationError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _emit(out, **pairs):
    for key, val in pairs.items():
        if isinstance(val, bool):
            val = "true" if val else "false"
        out.write(f"{key}={val}\n")


def _progress(label):
    def cb(done):
        print(f"{label}: {done} candidates examined", file=sys.stderr)

    return cb


def _parse_range(text, default_step):
    """Parse 'A..B' or 'A..B:STEP' where STEP is an int or 'x2'."""
    step = default_step
    body = text
    if ":" in text:
        body, step_text = text.split(":", 1)
        step = step_text.strip()
    if ".." not in body:
        raise DomainError(f"range must look like A..B, got {text!r}")
    a_text, b_text = body.split("..", 1)
    try:
        a, b = int(a_text), int(b_text)
    except ValueError:
        raise DomainError(f"bad range endpoints in {text!r}") from None
    if a > b:
        raise DomainError(f"empty range {text!r}")
    if isinstance(step, str) and step.startswith("x"):
        factor = int(step[1:])
        if factor < 2:
            raise DomainError(f"multiplicative step must be >= 2 in {text!r}")
        out = []
        v = a
        while v <= b:
            out.append(v)
            v *= factor
        return out
    stride = int(step)
    if stride < 1:
        raise DomainError(f"step must be >= 1 in {text!r}")
    return list(range(a, b + 1, stride))


def _write_csv(path, header, rows):
    new = not Path(path).exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_vc(args, out):
    text = Path(args.family).read_text()
    fam = cube.family_from_text(text)
    if not len(fam):
        raise ParseError("family file holds no members", lineno=2)
    rep = vc.vc_report(fam)
    _emit(
        out,
        command="vc",
        version=__version__,
        n=fam.n,
        size=len(fam),
        vc=rep.vc,
        shattered=len(rep.shattered),
        extremal=rep.extremal,
        maximal=rep.maximal,
    )
    return EXIT_OK


def cmd_count(args, out):
    n, x = args.n, args.k_or_m
    t0 = time.perf_counter()
    progress = _progress(f"count {args.kind}")
    budget = args.budget
    if budget is not None and (budget < 1 or args.kind in ("exvc", "indmat")):
        raise DomainError("--budget needs m or conn and a value >= 1")
    if args.kind == "m":
        budget = budget or counting.DEFAULT_FAMILY_BUDGET
        value = counting.exact_m(n, x, budget=budget, progress=progress)
        examined = counting.m_candidate_count(n, x)
    elif args.kind == "exvc":
        value = counting.exact_exvc(n, x, progress=progress)
        examined = counting.exvc_candidate_count(n)
    elif args.kind == "indmat":
        value = counting.exact_indmat(n, x, progress=progress)
        examined = value
    else:
        budget = budget or counting.DEFAULT_CONN_BUDGET
        counting.check_conn_args(n, x)
        profile = counting.conn_profile(n, budget=budget, progress=progress)
        value = profile[x]
        examined = sum(profile)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    pairs = dict(
        command="count",
        version=__version__,
        kind=args.kind,
        n=n,
        k_or_m=x,
    )
    if budget is not None:
        pairs["budget"] = budget
    _emit(out, **pairs, count=value, candidates_examined=examined)
    if args.csv:
        _write_csv(
            args.csv,
            ["n", "k_or_m", "count", "candidates_examined", "elapsed_ms"],
            [[n, x, value, examined, f"{elapsed_ms:.3f}"]],
        )
    return EXIT_OK


def cmd_inject(args, out):
    n, k = args.n, args.k
    if args.matchings:
        blocks = Path(args.matchings).read_text().split("\n\n")
        pool = [
            matchings.matching_from_text(b.strip()) for b in blocks if b.strip()
        ]
    else:
        pool = list(matchings.enumerate_induced_matchings(n, k))
    images = set()
    all_maximal = True
    all_vc_exact = True
    roundtrip = True
    for m in pool:
        fam = matchings.matching_to_family(m)
        images.add(fam)
        rep = vc.vc_report(fam)
        all_maximal &= rep.maximal
        all_vc_exact &= rep.vc == k
        roundtrip &= matchings.family_to_matching(fam, k) == m
    _emit(
        out,
        command="inject",
        version=__version__,
        n=n,
        k=k,
        matchings=len(pool),
        distinct_images=len(images),
        injective=len(images) == len(pool),
        all_maximal=all_maximal,
        all_vc_exact=all_vc_exact,
        roundtrip_identity=roundtrip,
    )
    return EXIT_OK


def cmd_peel(args, out):
    cfg = integrity.PeelConfig(samples=args.samples, seed=args.seed)
    cert = integrity.peel(args.n, cfg)
    if args.out:
        Path(args.out).write_text(integrity.certificate_to_text(cert))
    _emit(
        out,
        command="peel",
        version=__version__,
        n=args.n,
        alpha=repr(cert.params.alpha),
        r0=cert.params.r0,
        seed=cfg.seed,
        samples=cfg.samples,
        steps=len(cert.steps),
        separator=cert.separator_size,
        max_component=cert.max_component,
        value=cert.value,
    )
    return EXIT_OK


def cmd_verify(args, out):
    cert = integrity.certificate_from_text(Path(args.certificate).read_text())
    value = integrity.verify_certificate(cert)
    _emit(
        out,
        command="verify",
        version=__version__,
        n=cert.n,
        steps=len(cert.steps),
        separator=cert.separator_size,
        max_component=cert.max_component,
        value=value,
        ok=True,
    )
    return EXIT_OK


def cmd_sweep(args, out):
    default_steps = {"lemma": "x2", "rho": 2, "bounds": 1}
    dims = _parse_range(args.range, default_steps[args.kind])
    if args.kind == "lemma":
        header = ["n", "alpha", "r0", "ball_ratio", "sphere_ratio"]
        rows = [
            [r.n, repr(r.alpha), r.r0, repr(r.ball_ratio), repr(r.sphere_ratio)]
            for r in integrity.density_audit(dims)
        ]
    elif args.kind == "rho":
        header = [
            "n", "seed", "samples", "r0", "steps", "separator",
            "max_component", "value", "naive", "rho",
        ]
        rows = []
        for n in dims:
            cfg = integrity.PeelConfig(samples=args.samples, seed=args.seed)
            cert = integrity.peel(n, cfg)
            integrity.verify_certificate(cert)
            naive = integrity.middle_layer_baseline(n)
            rho = cert.value * math.sqrt(n) / (2**n * math.sqrt(math.log(n)))
            rows.append(
                [
                    n, cfg.seed, cfg.samples, cert.params.r0, len(cert.steps),
                    cert.separator_size, cert.max_component, cert.value,
                    naive, repr(rho),
                ]
            )
    else:
        eps = Fraction(args.epsilon)
        header = ["n", "k", "epsilon", "log_lower", "log_upper", "log_target"]
        rows = []
        for n in dims:
            rep = counting.maximal_count_bounds(n, args.k, eps)
            rows.append(
                [
                    n, args.k, str(eps), repr(rep.log_lower),
                    repr(rep.log_upper), repr(rep.log_target),
                ]
            )
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    if args.csv:
        _write_csv(args.csv, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch.
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vcube",
        description=(
            "Exact counting of bounded-VC hypercube families and certified "
            "sphere-peeling bounds on hypercube integrity."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="override the dense-representation dimension cap",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vc", help="report VC data for a family file")
    p.add_argument("family", help="family file (bitstrings or hex)")
    p.set_defaults(handler=cmd_vc)

    p = sub.add_parser("count", help="run an exact counting oracle")
    p.add_argument("kind", choices=["m", "exvc", "indmat", "conn"])
    p.add_argument("n", type=int)
    p.add_argument("k_or_m", type=int)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--csv", default=None, help="append a CSV row to this file")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser(
        "inject", help="audit the matching-to-family injection"
    )
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument(
        "--matchings",
        default=None,
        help="file of serialized matchings (blank-line separated); "
        "defaults to full enumeration",
    )
    p.set_defaults(handler=cmd_inject)

    p = sub.add_parser("peel", help="run greedy sphere peeling")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--out", default=None, help="write the certificate here")
    p.set_defaults(handler=cmd_peel)

    p = sub.add_parser("verify", help="audit a peel certificate")
    p.add_argument("certificate")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("sweep", help="tabulate an audit over a range of n")
    p.add_argument("kind", choices=["lemma", "rho", "bounds"])
    p.add_argument(
        "range",
        help="A..B or A..B:STEP (STEP an int or x2; defaults: lemma x2, "
        "rho 2, bounds 1)",
    )
    p.add_argument("--csv", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--epsilon", default="1/8")
    p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    cap = cube.max_dim()
    try:
        if args.max_n is not None:
            cube.set_max_dim(args.max_n)
        return args.handler(args, sys.stdout)
    except ParseError as exc:
        print(f"vcube: parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DomainError, NotInImageError, FileNotFoundError) as exc:
        print(f"vcube: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print(f"vcube: resource budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (VerificationError,) as exc:
        print(f"vcube: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SolverError as exc:
        print(f"vcube: solver failure: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        cube.set_max_dim(cap)


if __name__ == "__main__":
    sys.exit(main())
