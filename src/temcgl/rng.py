"""Deterministic random streams derived from one 64-bit run seed.

Every stochastic component draws from its own named stream so that adding
or reordering components never silently shifts another component's draws.
Labels are hashed with SHA-256 (never the interpreter's ``hash``, which is
randomised per process) so a (seed, label) pair maps to the same generator
on any machine.
"""
from __future__ import annotations

import hashlib
import operator

import numpy as np

_MASK64 = (1 << 64) - 1


def component_seed_words(seed: int, label: str) -> list[int]:
    """Entropy words for ``numpy.random.SeedSequence`` from an integer seed + label."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8)]
    return [seed & _MASK64, *words]


def component_rng(seed: int, label: str) -> np.random.Generator:
    """A PCG64 generator for the component identified by ``label``."""
    ss = np.random.SeedSequence(component_seed_words(seed, label))
    return np.random.Generator(np.random.PCG64(ss))
