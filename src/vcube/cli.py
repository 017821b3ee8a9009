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
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain
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


def _parse_range(text, default_step):
    """Parse 'A..B' or 'A..B:STEP' where STEP is an int or 'x2'."""
    body, colon, step = text.partition(":")
    step = step.strip() if colon else default_step
    if ".." not in body:
        raise DomainError(f"range must look like A..B, got {text!r}")
    a_text, b_text = body.split("..", 1)
    multiply = step.startswith("x")
    try:
        a, b = int(a_text), int(b_text)
        stride = int(step[1:] if multiply else step)
    except ValueError:
        raise DomainError(f"bad range endpoints or step in {text!r}") from None
    if a > b:
        raise DomainError(f"empty range {text!r}")
    if multiply:
        if stride < 2 or a < 1:
            raise DomainError(f"x step needs factor >= 2, start >= 1: {text!r}")
        out = [a]
        while out[-1] * stride <= b:
            out.append(out[-1] * stride)
        return out
    if stride < 1:
        raise DomainError(f"step must be >= 1 in {text!r}")
    return range(a, b + 1, stride)


def _write_csv(path, header, rows, out=None):
    """Write each row as it is made, to `out` under `header` and appended
    to the CSV file at `path` (header only if new), each if given.  The
    first row is made first, so a run refused there prints nothing."""
    rows = iter(rows)
    first = next(rows)
    new = bool(path) and not Path(path).exists()
    with (open(path, "a", newline="") if path else nullcontext()) as fh:
        writers = [csv.writer(f) for f in (out, fh) if f is not None]
        if out is not None:
            writers[0].writerow(header)
        if new:
            writers[-1].writerow(header)
        for row in chain([first], rows):
            for writer in writers:
                writer.writerow(row)


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

    def progress(done):
        print(f"count {args.kind}: {done} candidates examined",
              file=sys.stderr)

    budget = args.budget
    if budget is not None and (budget < 1 or args.kind in ("exvc", "indmat")):
        raise DomainError("--budget needs m or conn and a value >= 1")
    if args.kind == "m":
        budget = budget or counting.DEFAULT_FAMILY_BUDGET
        value = counting.exact_m(n, x, budget=budget, progress=progress)
        examined = counting.m_candidate_count(n, x)
    elif args.kind == "exvc":
        value = counting.exact_exvc(n, x)
        examined = counting.exvc_candidate_count(n)
    elif args.kind == "indmat":
        value = counting.exact_indmat(n, x)
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
    header = ["n", "k_or_m", "count", "candidates_examined", "elapsed_ms"]
    _write_csv(args.csv, header, [[n, x, value, examined, f"{elapsed_ms:.3f}"]])
    return EXIT_OK


def cmd_inject(args, out):
    n, k = args.n, args.k
    if args.matchings:
        blocks = Path(args.matchings).read_text().split("\n\n")
        pool = [
            matchings.matching_from_text(b.strip()) for b in blocks if b.strip()
        ]
        for i, m in enumerate(pool, 1):
            if (m.n, m.k) != (n, k):
                raise DomainError(f"matching block {i} has n={m.n} k={m.k}")
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
    default_steps = {"lemma": "x2", "rho": "2", "bounds": "1"}
    dims = _parse_range(args.range, default_steps[args.kind])
    if args.kind == "lemma":
        header = ["n", "alpha", "r0", "ball_ratio", "sphere_ratio"]
        rows = (
            [r.n, repr(r.alpha), r.r0, repr(r.ball_ratio), repr(r.sphere_ratio)]
            for r in integrity.density_audit(dims)
        )
    elif args.kind == "rho":
        cap = cube.max_dim()
        for n in dims:  # all of them, before the first peel
            if not 3 <= n <= cap:
                raise DomainError(f"peeling needs 3 <= n <= {cap}, got n={n}")
        header = [
            "n", "seed", "samples", "r0", "steps", "separator",
            "max_component", "value", "naive", "rho",
        ]
        cfg = integrity.PeelConfig(samples=args.samples, seed=args.seed)

        def row(n):
            cert = integrity.peel(n, cfg)
            value = integrity.verify_certificate(cert)
            rho = value * math.sqrt(n) / (2**n * math.sqrt(math.log(n)))
            return [
                n, cfg.seed, cfg.samples, cert.params.r0, len(cert.steps),
                cert.separator_size, cert.max_component, value,
                integrity.middle_layer_baseline(n), repr(rho),
            ]

        rows = map(row, dims)
    else:
        # Fraction builds 10**exp before any check.  A token of L characters
        # with exponent exp is 0 or lies between 10**(exp - L) and
        # 10**(exp + L).  No finite non-zero float lies past 10**+-400, so
        # an exponent beyond L + 400 would overflow or give the 0.0 that
        # the bounds refuse; it is refused here, before Fraction.
        head, e, exp = args.epsilon.lower().rpartition("e")
        try:
            if e and abs(int(exp)) > len(head) + 400:
                raise OverflowError
            eps = Fraction(args.epsilon)
            float(eps)  # the bounds are evaluated in floats
        except (ValueError, ZeroDivisionError, OverflowError):
            raise DomainError(f"bad --epsilon {args.epsilon!r}") from None
        if dims[-1] > sys.float_info.max:  # the one check a later row can fail
            raise DomainError("the bounds need n within float range")
        header = ["n", "k", "epsilon", "log_lower", "log_upper", "log_target"]
        reports = (counting.maximal_count_bounds(n, args.k, eps) for n in dims)
        rows = (
            [r.n, r.k, str(eps), repr(r.log_lower), repr(r.log_upper),
             repr(r.log_target)]
            for r in reports
        )
    _write_csv(args.csv, header, rows, out)
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
    # No argument takes nargs, yet argparse strips a "--" given as a
    # positional's value after a "--" separator and hands over [] instead.
    if any(isinstance(v, list) for v in vars(args).values()):
        print("vcube: input error: a positional argument is missing its "
              "value after '--'", file=sys.stderr)
        return EXIT_INPUT
    cap = cube.max_dim()
    try:
        if args.max_n is not None:
            cube.set_max_dim(args.max_n)
        return args.handler(args, sys.stdout)
    except ParseError as exc:
        print(f"vcube: parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DomainError, NotInImageError, OSError, UnicodeDecodeError) as exc:
        print(f"vcube: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetError, MemoryError) as exc:
        print(f"vcube: resource budget: {str(exc) or 'out of memory'}",
              file=sys.stderr)
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
