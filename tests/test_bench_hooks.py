"""The benchmark's layer tracing looks vcube names up by attribute; a
rename under src/ must fail here rather than break `bench/run.py
--trace 1` silently."""

import importlib.util
import sys
from pathlib import Path

import pytest

import vcube
from vcube.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ exactly as committed
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


def _modules():
    return {m: getattr(vcube, m)
            for m in ("cube", "vc", "matchings", "counting", "integrity")}


def test_layer_patches_find_every_traced_name(capsys, tmp_path):
    tracing = _load_tracing()
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
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.patched(tracing.layer_patches(tracer, _modules())):
        assert main(argv) == 0
    capsys.readouterr()
    assert tracer.calls["vc.shattered"] == calls
