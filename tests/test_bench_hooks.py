"""The benchmark's layer tracing looks vcube names up by attribute; a
rename under src/ must fail here rather than break `bench/run.py
--trace 1` silently.  The benchmark's tampered certificates are checked
here too, where one of them replays as a valid transcript."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import vcube
from vcube import (
    Family,
    PeelConfig,
    VerificationError,
    ball,
    certificate_from_text,
    certificate_to_text,
    components,
    peel,
    sphere,
    verify_certificate,
)
from vcube.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ exactly as committed
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
        del sys.modules[spec.name]
    return module


def _modules():
    return {m: getattr(vcube, m)
            for m in ("cube", "vc", "matchings", "counting", "integrity")}


def test_layer_patches_find_every_traced_name(capsys, tmp_path):
    tracing = _load_bench("tracing")
    mods = _modules()
    tracer = tracing.Tracer()
    patches = tracing.layer_patches(tracer, mods)
    for module, attr, _ in patches:
        assert callable(getattr(module, attr)), (module.__name__, attr)
    cert = tmp_path / "cert.txt"
    with tracing.patched(patches):
        assert main(["peel", "6", "--out", str(cert)]) == 0
        assert main(["verify", str(cert)]) == 0
        assert main(["count", "conn", "3", "2"]) == 0
        assert main(["count", "exvc", "3", "1"]) == 0
        assert main(["count", "m", "3", "1"]) == 0
        assert vcube.integrity.exact_integrity(3) == 5
    capsys.readouterr()
    # the wrappers sit on the names the library calls through
    for name in ("integrity.peel", "integrity.verify", "integrity.cert_io",
                 "cube.translate", "cube.components", "counting.conn",
                 "counting.exvc", "counting.m", "vc.shattered",
                 "integrity.exact", "cube.flood"):
        assert tracer.calls[name] > 0, name


@pytest.mark.parametrize("argv, calls", [
    (["count", "m", "3", "1"], 17),
    (["count", "exvc", "3", "1"], 21),
])
def test_shattered_calls_are_the_public_calls(capsys, argv, calls):
    # the bench derives the counting.* counters from vc.shattered calls,
    # so recursion inside vc must not go through the wrapped public name
    tracing = _load_bench("tracing")
    tracer = tracing.Tracer()
    with tracing.patched(tracing.layer_patches(tracer, _modules())):
        assert main(argv) == 0
    capsys.readouterr()
    assert tracer.calls["vc.shattered"] == calls


@pytest.mark.parametrize("seed", [31, 108, 169, 190])
def test_move_center_tamper_is_a_transcript_of_another_sampler(seed):
    # The bench's move_center tamper flips one bit of one recorded center.
    # At n=12 and these seeds the moved center meets the alive set in the
    # same ball and sphere vertices, so the tampered transcript is a valid
    # peel.  But the sampler the header names never offered that center,
    # and the audit, which replays it, rejects the certificate.
    workloads = _load_bench("workloads")
    n = 12
    text = certificate_to_text(peel(n, PeelConfig(seed=seed)))
    rng = random.Random(f"tamper {seed} {n}")  # the bench's draws, in order
    for kind in workloads.TAMPER_KINDS:
        bad = workloads.tamper(text, kind, rng)
        if kind == "move_center":
            break
    assert bad != text
    cert = certificate_from_text(bad)
    r0 = cert.params.r0
    alive, sep = Family.full(n), Family.empty(n)
    for step in cert.steps:
        taken = ball(n, step.center, r0) & alive
        charged = sphere(n, step.center, r0) & alive
        assert (len(taken), len(charged)) == (step.ball_hits, step.sphere_hits)
        alive, sep = alive - taken, sep | charged
    assert not alive and sep == cert.separator
    largest = max(map(len, components(sep.complement())))
    assert cert.value == len(sep) + largest
    with pytest.raises(VerificationError, match=f"seed={seed} T=32"):
        verify_certificate(cert)
