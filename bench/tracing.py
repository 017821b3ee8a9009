"""Outside-in layer tracing for the vcube benchmark.

The benchmark never edits the library.  It replaces, for the length of
one traced op, the names one vcube module looks up in another with
wrappers that open a span around the call.  A span records
(round, name, start, end, parent); a layer's self time is its spans'
duration minus the time their child spans cover.  Counters are recorded
at the same wrappers, so ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# Raw spans kept for the JSON trace file.  Aggregates (calls, total and
# self time per span name) are exact whatever the cap; the cap only
# bounds memory on ops that make ~10^6 layer calls (count m 5 1).
SPAN_CAP = 20000


class Tracer:
    """In-memory spans and counters for the traced ops of one run."""

    def __init__(self):
        self.spans = []  # (round, name, start, end, parent index or -1)
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.round = -1
        self._stack = []  # open: [name, start, child_s, span index, parent]

    def begin(self, name):
        parent = self._stack[-1][3] if self._stack else -1
        idx = len(self.spans)
        if idx < SPAN_CAP:
            self.spans.append(None)
        else:
            idx = -1
            self.dropped += 1
        self._stack.append([name, time.perf_counter(), 0.0, idx, parent])

    def end(self):
        now = time.perf_counter()
        name, start, child_s, idx, parent = self._stack.pop()
        dur = now - start
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx] = (self.round, name, start, now, parent)

    def snapshot(self):
        """Copy of the aggregates, to difference one traced round."""
        return dict(self.calls), dict(self.self_s), dict(self.counters)


def _wrap_call(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _wrap_gen(tracer, name, fn, each=None):
    """Span every resumption of a generator, not its consumer's work."""

    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tracer.begin(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.end()
            if each is not None:
                each(item)
            yield item

    return wrapper


def _wrap_delta(tracer, name, fn, inner, done):
    """Span a call and hand `done` how many `inner` spans it made."""

    def wrapper(*args, **kwargs):
        before = tracer.calls[inner]
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        done(args, result, tracer.calls[inner] - before)
        return result

    return wrapper


def layer_patches(tracer, mods):
    """(module, attribute, wrapper) for every traced layer boundary.

    `mods` maps short names (cube, vc, matchings, counting, integrity)
    to the imported vcube modules.  Each attribute is the name the
    calling layer looks up at call time, so patching it intercepts that
    caller's calls and no others.
    """
    c = tracer.counters
    integ, vc, cnt, mat = (
        mods["integrity"], mods["vc"], mods["counting"], mods["matchings"]
    )

    def on_translate(args, _):
        _, x, n = args
        rounds = x.bit_count()
        c["cube.translate.shift_rounds"] += rounds
        c["cube.translate.bytes_computed"] += rounds * ((1 << n) >> 3)

    def on_component(comp):
        c["cube.components.count"] += 1
        c["cube.components.vertices"] += len(comp)

    def on_peel(args, cert, translates):
        steps = len(cert.steps)
        per_step = cert.config.samples + 1
        c["integrity.peel.steps"] += steps
        c["integrity.peel.candidates"] += steps * per_step
        c["integrity.peel.sparse_steps"] += (
            steps - (translates - 2 * steps) // per_step
        )

    def on_m(args, count, candidates):
        c["counting.m.candidates"] += candidates
        c["counting.m.hits"] += count

    def on_exvc(args, count, families):
        c["counting.exvc.families"] += families
        c["counting.exvc.hits"] += count

    def on_conn(args, profile):
        c["counting.conn.sets"] += sum(profile)

    def on_matching(_):
        c["matchings.enumerated"] += 1

    def span(name, fn, after=None):
        return _wrap_call(tracer, name, fn, after)

    enum = _wrap_gen(
        tracer, "matchings.enumerate", mat.enumerate_induced_matchings,
        on_matching,
    )
    return [
        # integrity -> cube
        (integ, "translate_bits",
         span("cube.translate", integ.translate_bits, on_translate)),
        (integ, "_component_index_lists",
         _wrap_gen(tracer, "cube.components", integ._component_index_lists,
                   on_component)),
        (integ, "flood_component_sizes",
         span("cube.flood", integ.flood_component_sizes)),
        # cli -> integrity, and the library ops the benchmark calls
        (integ, "peel",
         _wrap_delta(tracer, "integrity.peel", integ.peel,
                     "cube.translate", on_peel)),
        (integ, "verify_certificate",
         span("integrity.verify", integ.verify_certificate)),
        (integ, "certificate_to_text",
         span("integrity.cert_io", integ.certificate_to_text)),
        (integ, "certificate_from_text",
         span("integrity.cert_io", integ.certificate_from_text)),
        (integ, "exact_integrity",
         span("integrity.exact", integ.exact_integrity)),
        # cli, counting and vc itself -> vc
        (vc, "shattered_sets",
         span("vc.shattered", vc.shattered_sets)),
        (vc, "vc_dim", span("vc.dim", vc.vc_dim)),
        (vc, "vc_report", span("vc.dim", vc.vc_report)),
        # cli -> counting
        (cnt, "exact_m",
         _wrap_delta(tracer, "counting.m", cnt.exact_m,
                     "vc.shattered", on_m)),
        (cnt, "exact_exvc",
         _wrap_delta(tracer, "counting.exvc", cnt.exact_exvc,
                     "vc.shattered", on_exvc)),
        (cnt, "conn_profile",
         span("counting.conn", cnt.conn_profile, on_conn)),
        (cnt, "exact_indmat", span("counting.indmat", cnt.exact_indmat)),
        # counting and cli -> matchings
        (cnt, "enumerate_induced_matchings", enum),
        (mat, "enumerate_induced_matchings", enum),
        (mat, "matching_to_family",
         span("matchings.encode", mat.matching_to_family)),
        (mat, "family_to_matching",
         span("matchings.decode", mat.family_to_matching)),
    ]


@contextlib.contextmanager
def patched(patches):
    """Install the layer wrappers for the length of the block."""
    saved = [(m, a, getattr(m, a)) for m, a, _ in patches]
    for m, a, wrapper in patches:
        setattr(m, a, wrapper)
    try:
        yield
    finally:
        for m, a, orig in reversed(saved):
            setattr(m, a, orig)


def _delta(after, before):
    return {k: v - before.get(k, 0) for k, v in after.items()}


def round_layers(before, after):
    """Per-layer figures for one traced round from two snapshots.

    Self times of spans that share a layer are summed under the layer's
    metric name; counts come from the counters.
    """
    calls = _delta(after[0], before[0])
    self_s = _delta(after[1], before[1])
    cnt = _delta(after[2], before[2])

    def self_of(prefix):
        return sum(v for k, v in self_s.items() if k == prefix
                   or k.startswith(prefix + "."))

    out = {k: cnt.get(k, 0) for k in COUNT_METRICS}
    out.update({k: calls.get(k[: -len(".calls")], 0) for k in CALL_METRICS})
    out.update({k: self_of(k[: -len(".self_s")]) for k in SELF_METRICS})
    # numerators of the hit ratios, which the caller sums over rounds
    out["counting.m.hits"] = cnt.get("counting.m.hits", 0)
    out["counting.exvc.hits"] = cnt.get("counting.exvc.hits", 0)
    return out


CALL_METRICS = (
    "cube.translate.calls",
    "cube.flood.calls",
    "vc.shattered.calls",
)

COUNT_METRICS = (
    "cube.translate.shift_rounds",
    "cube.translate.bytes_computed",
    "cube.components.count",
    "cube.components.vertices",
    "integrity.peel.steps",
    "integrity.peel.candidates",
    "integrity.peel.sparse_steps",
    "counting.m.candidates",
    "counting.exvc.families",
    "counting.conn.sets",
    "matchings.enumerated",
)

# One per layer; "matchings" and "cli" sum every span under that prefix.
SELF_METRICS = (
    "cube.translate.self_s",
    "cube.components.self_s",
    "cube.flood.self_s",
    "integrity.peel.self_s",
    "integrity.verify.self_s",
    "integrity.cert_io.self_s",
    "integrity.exact.self_s",
    "vc.shattered.self_s",
    "vc.dim.self_s",
    "counting.m.self_s",
    "counting.exvc.self_s",
    "counting.conn.self_s",
    "counting.indmat.self_s",
    "matchings.self_s",
    "cli.self_s",
)
