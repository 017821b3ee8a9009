"""Conversions between the package representation and the reference one,
and a runner for the CLI in a child process under a memory limit."""

import random
import resource
import subprocess
import sys

from vcube import Family, mask_elements


def to_ref(family):
    """Package Family -> set of frozensets of 1-indexed elements."""
    return {frozenset(mask_elements(m)) for m in family}


def ref_to_bits(ref_family):
    bits = 0
    for s in ref_family:
        m = 0
        for e in s:
            m |= 1 << (e - 1)
        bits |= 1 << m
    return bits


def random_family(rng: random.Random, n: int) -> Family:
    """Uniformly random nonempty family over P(n)."""
    while True:
        bits = rng.getrandbits(1 << n)
        if bits:
            return Family(n, bits)


def random_downset(rng: random.Random, n: int, generators: int = 3) -> Family:
    """Union of subset-closures of a few random masks (plus the empty set)."""
    from vcube import subcube_bits

    bits = 1
    for _ in range(generators):
        bits |= subcube_bits(rng.getrandbits(n), n)
    return Family(n, bits)


# Address space of the child in `run_limited`: far below what any
# refused or out-of-memory request would take, yet ample for the import.
CHILD_MEMORY = 256 << 20


def run_limited(*argv):
    """Run `python -m vcube ARGV` with RLIMIT_AS set in the child only.

    Returns (exit code, stdout, stderr, CPU seconds of the child).
    """

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "vcube", *argv],
        capture_output=True,
        text=True,
        preexec_fn=limit,
        timeout=30,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(after[:2]) - sum(before[:2])  # user plus system time
    return proc.returncode, proc.stdout, proc.stderr, cpu
