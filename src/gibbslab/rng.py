"""Deterministic random-stream derivation.

All randomness flows from one 64-bit master seed.  A named substream is an
SFC64 generator seeded by
``SeedSequence([master, word(label_0), ..., word(label_{n-1}), n])``: the
word of an integer label is its low 32 bits, that of any other label the
crc32 of its text.  The label count n comes last because SeedSequence pads
short entropy with zeros, so without it ``(seed, "a", 0)`` and
``(seed, "a")`` would name one stream, and a master seed above 2^32 (two
words) would name the stream of a smaller seed with one more label.  The
same (seed, labels) pair yields the same generator on every platform and
independent labels yield statistically independent streams.  Replicas are
vectorized inside one stream rather than split per replica.

This module is the one place that builds generators.
"""

from __future__ import annotations

import zlib

import numpy as np


def _label_entropy(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    return zlib.crc32(str(label).encode("utf-8"))


def substream(seed: int, *labels) -> np.random.Generator:
    """Generator for the substream named by ``labels`` under ``seed``."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_label_entropy(x) for x in labels] + [len(labels)]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))
