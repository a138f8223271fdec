"""Wave-packet deformation over two regions and the coincidence post-selection.

``deform`` followed by ``project_slocc`` mirrors the optical pipeline:
distribute each particle over the left and right regions, then keep only
events with exactly one detection per region.  The surviving two-amplitude
state inherits the exchange phase through the amplitude rule in
:mod:`.states`, so post-selection is where particle nature becomes
observable entanglement.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, PostSelectionError
from .states import (
    ATOL,
    DetectionMode,
    JointKet,
    Pseudospin,
    Region,
    SingleParticleState,
    StatisticsParameter,
    canonical_phase,
    joint_amplitude,
)

# Below this success probability the post-selected state is undefined.
P_LR_FLOOR = 1e-12


@dataclass(frozen=True)
class DeformedPair:
    """Region amplitudes of the two particles: (l, r) and primed (lp, rp).

    The first particle carries pseudospin UP, the second DOWN; both pairs
    must be unit-normalised.  Build instances through :func:`deform`, which
    renormalises small defects.
    """

    l: complex
    r: complex
    lp: complex
    rp: complex
    eta: StatisticsParameter

    def __post_init__(self) -> None:
        for name in ("l", "r", "lp", "rp"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        for a, b in ((self.l, self.r), (self.lp, self.rp)):
            norm_sq = abs(a) ** 2 + abs(b) ** 2
            if abs(norm_sq - 1.0) > ATOL:
                raise ValueError(
                    "DeformedPair amplitudes must be unit-normalised; use deform()"
                )


def deform(l, r, lp, rp, eta: StatisticsParameter) -> DeformedPair:
    """Build a DeformedPair, renormalising pairs that are off by at most 1e-9."""
    fixed = []
    for a, b in ((l, r), (lp, rp)):
        a, b = complex(a), complex(b)
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if norm <= 1e-15:
            raise DegenerateStateError("amplitude pair has zero norm")
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"amplitude pair norm {norm!r} is too far from 1")
        fixed.extend((a / norm, b / norm))
    return DeformedPair(fixed[0], fixed[1], fixed[2], fixed[3], eta)


@dataclass(frozen=True)
class SloccResult:
    """Post-selected state, its success probability, and the path entropy."""

    ket: JointKet
    p_lr: float
    indist: float


def project_slocc(pair: DeformedPair) -> SloccResult:
    """Project onto one-detection-per-region and renormalise.

    For opposite input pseudospins the kept amplitudes are l*rp on
    |L-up R-down> and eta*r*lp on |L-down R-up>; the equal-spin components
    vanish identically.
    """
    first = SingleParticleState(pair.l, pair.r, Pseudospin.UP)
    second = SingleParticleState(pair.lp, pair.rp, Pseudospin.DOWN)
    amps = np.array(
        [
            joint_amplitude(
                DetectionMode(Region.LEFT, spin_l),
                DetectionMode(Region.RIGHT, spin_r),
                first,
                second,
                pair.eta,
            )
            for spin_l in (Pseudospin.UP, Pseudospin.DOWN)
            for spin_r in (Pseudospin.UP, Pseudospin.DOWN)
        ],
        dtype=np.complex128,
    )
    p_lr = float(np.sum(np.abs(amps) ** 2))
    if p_lr <= P_LR_FLOOR:
        raise PostSelectionError("no one-per-region component to post-select")
    ket = JointKet(amps / math.sqrt(p_lr))
    return SloccResult(ket=ket, p_lr=p_lr, indist=indistinguishability(pair))


def _binary_entropy(w: float) -> float:
    # 0*log(0) -> 0 by continuity
    if w <= 0.0 or w >= 1.0:
        return 0.0
    return -w * math.log2(w) - (1.0 - w) * math.log2(1.0 - w)


def indistinguishability(pair: DeformedPair) -> float:
    """Entropy of the two coincidence paths; 1 means no which-way information."""
    w_direct = abs(pair.l * pair.rp) ** 2
    w_exchanged = abs(pair.lp * pair.r) ** 2
    total = w_direct + w_exchanged
    if total <= P_LR_FLOOR:
        raise PostSelectionError(
            "post-selection impossible; indistinguishability undefined"
        )
    return _binary_entropy(w_direct / total)


def beta_indistinguishability(beta: float) -> float:
    """Indistinguishability of the half/half versus (sin b, cos b) preparation."""
    return _binary_entropy(math.cos(beta) ** 2)


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


def prepare_lr(settings: PreparationSettings) -> JointKet:
    """Post-selected state of the half/half vs (sin b, cos b) preparation.

    Equals the deform -> project_slocc pipeline with the injected phase
    riding on the statistics parameter, up to a global phase; the success
    probability of that pipeline is 1/2 for every (beta, phi).
    """
    return JointKet(lr_kets([settings])[0])


def lr_kets(settings) -> np.ndarray:
    """prepare_lr's kets for a sequence of PreparationSettings, as (N, 4); the trig stays scalar."""
    return lr_ket_blocks([(prep.beta, [cmath.exp(1j * prep.phi)]) for prep in settings])


def lr_ket_blocks(blocks) -> np.ndarray:
    """lr_kets of (checked beta, [exp(1j * phi), ...]) blocks, block after block."""
    # trig once per distinct angle, kept scalar: numpy's vectorised cos/sin may differ in the last bit
    trig = [(math.cos(beta), math.sin(beta), phases) for beta, phases in blocks]
    kets = np.zeros((sum(len(phases) for *_, phases in trig), 4), dtype=np.complex128)
    kets[:, 1] = [cos_b for cos_b, _, phases in trig for _ in phases]
    kets[:, 2] = [phase * sin_b for _, sin_b, phases in trig for phase in phases]
    return kets
