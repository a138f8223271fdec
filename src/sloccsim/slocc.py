"""The post-selected state of the two-region preparation, in closed form.

The first particle is split half/half over the left and right regions with
pseudospin up, the second as (sin beta, cos beta) with pseudospin down.
Keeping only one detection per region, which succeeds with probability
1/2, leaves cos(beta) on ``|L-up R-down>`` and exp(i*phi) * sin(beta) on
``|L-down R-up>``.  The exchange phase phi enters as the weight on the
swapped term of the amplitude rule, so post-selection turns particle
nature into entanglement.  :func:`lr_ket_blocks` builds every ket the
program uses, a grid's stack or :func:`prepare_lr`'s one, so it is the one
place where phi enters; ``tests/physics.py`` derives the same kets from
the amplitude rule, step by step.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .states import ATOL, canonical_phase


@dataclass(frozen=True)
class PreparationSettings:
    """Splitting angle beta and the injected relative phase, both in radians.

    beta must lie in [0, pi/2]; the phase is stored canonically in [0, 2*pi).
    """

    beta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        beta = float(self.beta)
        if not 0.0 <= beta <= math.pi / 2 + ATOL:
            raise ValueError(f"beta must lie in [0, pi/2], got {beta!r}")
        object.__setattr__(self, "beta", min(beta, math.pi / 2))
        object.__setattr__(self, "phi", canonical_phase(self.phi))


def prepare_lr(settings: PreparationSettings) -> np.ndarray:
    """Post-selected unit ket of the half/half vs (sin b, cos b) preparation.

    The (4,) complex array (0, cos b, exp(i phi) sin b, 0), which the
    amplitude rule gives up to a global phase for every (beta, phi).  The
    pipeline builds its stacks with lr_ket_blocks directly; perfbench's tracer pins this name.
    """
    return lr_ket_blocks([(settings.beta, [cmath.exp(1j * settings.phi)])])[0]


def lr_ket_blocks(blocks) -> np.ndarray:
    """prepare_lr's kets of (checked beta, [exp(1j * phi), ...]) blocks, block after block, as (N, 4)."""
    # trig once per distinct angle, kept scalar: numpy's vectorised cos/sin may differ in the last bit
    trig = [(math.cos(beta), math.sin(beta), phases) for beta, phases in blocks]
    kets = np.zeros((sum(len(phases) for *_, phases in trig), 4), dtype=np.complex128)
    kets[:, 1] = [cos_b for cos_b, _, phases in trig for _ in phases]
    kets[:, 2] = [phase * sin_b for _, sin_b, phases in trig for phase in phases]
    return kets
