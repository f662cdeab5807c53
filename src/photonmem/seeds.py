"""Deterministic random streams, one per structured path.

Every stochastic routine in the package derives its generator from a master
seed plus a structured path (domain constant, then indices).  Each stream is
a PCG64DXSM generator seeded by the ``SeedSequence`` of (master seed, path),
so streams are independent of one another and Monte-Carlo work can be
executed in any order -- or in parallel -- and still reproduce bit-identical
results.  No stream is jumped or advanced: each path starts its own.
"""

from __future__ import annotations

import numpy as np

# Domain constants keep streams for different purposes disjoint even when
# their indices collide.
DOMAIN_FRAME = 1
DOMAIN_CONDITION = 2
DOMAIN_BOOTSTRAP = 3
DOMAIN_CLICKS = 4


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64DXSM generator at ``path`` under ``master_seed``."""
    key = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64DXSM(key))


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse (master_seed, path) into a new 64-bit master seed."""
    key = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return int(key.generate_state(1, np.uint64)[0])
