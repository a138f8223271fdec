"""The benchmark's workloads: generated INI configs and what each run must produce.

The workload seed is written into every generated config as the run seed;
the program sees only these configs.  An operation is one cold
``python -m sloccsim`` process in ``cli-cold`` and one in-process
``cli.main`` call in ``grid-mix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from checks import Expect

DEG = math.pi / 180.0

# The grids of grid-mix, as the workload description in BENCHMARK.json states them.
GRID_BETAS = tuple(k * 5 * DEG for k in range(1, 18))  # 5 .. 85 deg, sin(2 beta) > 0
PHASE_GRID_PHIS = tuple(k * math.pi / 36 for k in range(37))  # 0 .. pi
TOMOGRAPHY_BETAS = tuple(k * 10 * DEG for k in range(1, 9))  # 10 .. 80 deg
TOMOGRAPHY_PHIS = tuple(k * math.pi / 12 for k in range(25))  # 0 .. 2 pi
PLATE_XS = tuple(k * 0.5e-3 for k in range(81))  # 0 .. 40 mm

# The program's documented scenario defaults, which cli-cold runs unchanged.
DEFAULT_EXPECT = {
    "phase-sweep": Expect(
        "phase",
        betas=tuple(b * DEG for b in (45.0, 30.0, 20.0, 10.0)),
        phis=tuple(k * math.pi / 12.0 for k in range(25)),
    ),
    "beta-sweep": Expect(
        "phase",
        betas=tuple(b * DEG for b in range(5, 90, 5)),
        phis=(0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi),
    ),
    "mixture-sweep": Expect("mixture", ps=tuple(k / 10.0 for k in range(11))),
    "calibrate-plate": Expect("plate", xs=PLATE_XS),
    "counts-demo": Expect("counts", betas=(45.0 * DEG,), phis=(0.0, math.pi)),
    "tomography-demo": Expect(
        "tomography", betas=(45.0 * DEG,), phis=tuple(k * math.pi / 7.0 for k in range(8))
    ),
}


@dataclass(frozen=True)
class Op:
    """One operation kind: a subcommand, its generated config, and the expected output."""

    subcommand: str
    config: str  # INI text
    expect: Expect
    ideal: bool = False

    @property
    def label(self) -> str:
        return f"{self.subcommand} --ideal" if self.ideal else self.subcommand

    def cli_args(self, config_path: str, out_path: str) -> list[str]:
        args = [self.subcommand, "--config", config_path, "--out", out_path]
        return args + ["--ideal"] if self.ideal else args


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    # (workload seed, cycle index) -> the operations of that cycle; a run repeats whole cycles.
    cycle: Callable[[int, int], tuple[Op, ...]]


def _ini(seed: int, experiment: dict | None = None, sweep: dict | None = None) -> str:
    lines = ["[experiment]", f"seed = {seed}"]
    lines += [f"{key} = {value}" for key, value in (experiment or {}).items()]
    if sweep:
        lines.append("[sweep]")
        # Bare numbers are radians and meters; repr keeps every float exact.
        lines += [f"{key} = {', '.join(repr(v) for v in values)}" for key, values in sweep.items()]
    return "\n".join(lines) + "\n"


# The --ideal operation of cli-cold cycles through this many run seeds.  The
# noise fit takes its bounded fallback for some seeds and not others, so
# several seeds exercise both paths; repeating them lets every output be
# byte-compared with an earlier run of the same config.
IDEAL_SEEDS = 4


def ideal_seed(seed: int, index: int) -> int:
    """Run seed of the --ideal operation in cycle ``index``."""
    return (seed * 1_000_003 + index % IDEAL_SEEDS) % 2**63


def _cli_cold(seed: int, index: int) -> tuple[Op, ...]:
    ops = tuple(Op(command, _ini(seed), expect) for command, expect in DEFAULT_EXPECT.items())
    ideal = Op(
        "tomography-demo",
        _ini(ideal_seed(seed, index)),
        replace(DEFAULT_EXPECT["tomography-demo"], visibility=1.0),
        ideal=True,
    )
    return ops + (ideal,)


def _grid_mix(seed: int, index: int) -> tuple[Op, ...]:
    """The three in-process scenarios: a bootstrap-heavy phase sweep, tomography, and Poisson counts."""
    phase = _ini(
        seed,
        {"shots": 5000, "bootstrap": 1000, "sampling": "multinomial"},
        {"beta_list": GRID_BETAS, "phi_list": PHASE_GRID_PHIS},
    )
    tomography = _ini(
        seed,
        {"shots": 2000},
        {"beta_list": TOMOGRAPHY_BETAS, "phi_list": TOMOGRAPHY_PHIS},
    )
    counts = _ini(
        seed,
        {"shots": 100000, "sampling": "poisson"},
        {"beta_list": GRID_BETAS, "x_list": PLATE_XS},
    )
    return (
        Op("phase-sweep", phase, Expect("phase", betas=GRID_BETAS, phis=PHASE_GRID_PHIS)),
        Op("tomography-demo", tomography, Expect("tomography", betas=TOMOGRAPHY_BETAS, phis=TOMOGRAPHY_PHIS)),
        Op("counts-demo", counts, Expect("counts", betas=GRID_BETAS, xs=PLATE_XS)),
    )


WORKLOADS = {
    "cli-cold": Workload("cli-cold", in_process=False, cycle=_cli_cold),
    "grid-mix": Workload("grid-mix", in_process=True, cycle=_grid_mix),
}
