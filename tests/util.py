"""Conversions between the package representation and the reference one,
and runners for the CLI in a child process under a memory limit."""

import contextlib
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


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def run_limited(*argv):
    """Run `python -m vcube ARGV` with RLIMIT_AS set in the child only.

    Returns (exit code, stdout, stderr, CPU seconds of the child).
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "vcube", *argv],
        capture_output=True,
        text=True,
        preexec_fn=_limit_memory,
        timeout=30,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(after[:2]) - sum(before[:2])  # user plus system time
    return proc.returncode, proc.stdout, proc.stderr, cpu


@contextlib.contextmanager
def start_limited(*argv):
    """Start `python -m vcube ARGV` as `run_limited` runs it, and yield the
    `Popen` with binary stdout and stderr pipes.  On exit the child is
    killed and waited for, so none is left running."""
    with subprocess.Popen(
        [sys.executable, "-m", "vcube", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=_limit_memory,
    ) as proc:
        try:
            yield proc
        finally:
            proc.kill()
