"""Pinned sha256 digests of the CLI's CSV output.

Reruns matching each other (criterion 10) does not catch a refactor that
changes the numbers; these digests do.  A change that alters output on
purpose regenerates only the digests it affects and says why in CHANGES.md.
"""

import hashlib
import math

import pytest

from sloccsim.cli import main

POISSON = "[experiment]\nsampling = poisson\n"
X_LIST = "[sweep]\nx_list = 0mm, 2.5mm, 5mm, 10mm, 20mm, 30mm\n"


def _floats(values):
    # bare numbers are radians and meters; repr keeps every float exact
    return ", ".join(repr(v) for v in values)


# The large grids of the benchmark's in-process workload, at the default seed.
_DEG = math.pi / 180.0
_GRID_BETAS = _floats(k * 5 * _DEG for k in range(1, 18))  # 17 betas, 5 .. 85 deg
PHASE_GRID = (
    "[experiment]\nshots = 5000\nbootstrap = 1000\n[sweep]\n"
    f"beta_list = {_GRID_BETAS}\nphi_list = {_floats(k * math.pi / 36 for k in range(37))}\n"
)
TOMOGRAPHY_GRID = (
    "[experiment]\nshots = 2000\n[sweep]\n"
    f"beta_list = {_floats(k * 10 * _DEG for k in range(1, 9))}\n"
    f"phi_list = {_floats(k * math.pi / 12 for k in range(25))}\n"
)
COUNTS_GRID = (
    "[experiment]\nshots = 100000\nsampling = poisson\n[sweep]\n"
    f"beta_list = {_GRID_BETAS}\nx_list = {_floats(k * 0.5e-3 for k in range(81))}\n"
)

# case id -> (CLI arguments, config text or None, sha256 of the CSV)
GOLDEN = {
    "phase-sweep-default": (["phase-sweep"], None, "fff77be64be6a6604c500ed0f12c50b4f36018d0e2b9218a21fc23e2e82ddc1c"),
    "phase-sweep-ideal": (["phase-sweep", "--ideal"], None, "d0c3239f8feddbe817452e74d535cbd40f8e945418f29f5632cb512515c2909a"),
    "phase-sweep-poisson": (["phase-sweep"], POISSON, "5d66fa0c5d6028d3053826a7ccc5fd1ec8d2bdf047ae455aaad17f39bf4624a5"),
    "phase-sweep-x_list": (["phase-sweep"], X_LIST, "c02b031fe68888fa6106d4d1d7933bd9385c1387ebd706e94ac5285208096050"),
    "beta-sweep-default": (["beta-sweep"], None, "98caf7a43c11beee783cbe47c788b78c6a472efe0bb0e2ccbc733ea7a24b1f3e"),
    "beta-sweep-ideal": (["beta-sweep", "--ideal"], None, "7a4a909c4ebbd6f7347b868c50f07b7c90f0d038ce761b6af48762b7a75db9cf"),
    "beta-sweep-poisson": (["beta-sweep"], POISSON, "0c98983028e0a4aa757a6fd3b3bc00870edf8d51356d03776d80479e3b7497d6"),
    "mixture-sweep-default": (["mixture-sweep"], None, "b47737bbaf66fe3dae8af389838f370b8a3e5a6728d3e60d0b1d64cef8ae74c6"),
    "mixture-sweep-ideal": (["mixture-sweep", "--ideal"], None, "ff280faad0dcd8479ffcae9d0321e38f83d2a5a4b9b6e08cebf1a9233edddba1"),
    "mixture-sweep-poisson": (["mixture-sweep"], POISSON, "3085803b501d4005d1272c56aa0d75da95fb0aab33ecc55b89b58e08bbb706fa"),
    "calibrate-plate-default": (["calibrate-plate"], None, "7b555e566fcb8bb2def89b8e2a94cb93857dddc5965ad67ea809a679e9e9dafe"),
    "calibrate-plate-ideal": (["calibrate-plate", "--ideal"], None, "7b555e566fcb8bb2def89b8e2a94cb93857dddc5965ad67ea809a679e9e9dafe"),
    "calibrate-plate-poisson": (["calibrate-plate"], POISSON, "7b555e566fcb8bb2def89b8e2a94cb93857dddc5965ad67ea809a679e9e9dafe"),
    "counts-demo-default": (["counts-demo"], None, "29b958164bb31e8e6ec5228e266170307b0deca0c11c2cad71b76cf4d349123c"),
    "counts-demo-ideal": (["counts-demo", "--ideal"], None, "f6e85288386ead679f23a014dec0d827a478972e0b2db30b31d06366238baa07"),
    "counts-demo-poisson": (["counts-demo"], POISSON, "40fe40b12c2d643dc7aa44ce7cb1350cd3175f929005b365c4b393d0b118c74a"),
    "counts-demo-x_list": (["counts-demo"], X_LIST, "5d15bf54c0bcfbb41bade41f1dee563aefd886b15dea3b31599b7f76fbf05a08"),
    "tomography-demo-default": (["tomography-demo"], None, "438b49f9f0ccf305566439660295fcb49de5ba2cf0830913be17ad8dadddbf3f"),
    "tomography-demo-ideal": (["tomography-demo", "--ideal"], None, "9aefded5e48fb2ec85364fedd5525d52387a2608378aee666b552394f61b12a7"),
    "tomography-demo-x_list": (["tomography-demo"], X_LIST, "60661d5b336b814d9f01ac878233507769dd400adfe0d546592e3715dfd00b0c"),
    # seed 2 puts the unconstrained noise-fit optimum outside the physical
    # triangle, so this digest pins the bounded (edge) path of fit_noise
    "tomography-demo-ideal-seed2": (["tomography-demo", "--ideal", "--seed", "2"], None, "897d6d3805942d12a4954904d7095912308bb55c9d6a561a873e244d9d3570c6"),
    "phase-sweep-grid-17x37": (["phase-sweep"], PHASE_GRID, "dbf61ae69503131a9b8e03a767c412a1287b6c86eefebd20ac022eaf1f95520f"),
    "tomography-demo-grid-8x25": (["tomography-demo"], TOMOGRAPHY_GRID, "61b00c950209eaa9b6537b876f459e960195fb8501efaadb731251e51621a71b"),
    "counts-demo-grid-poisson-17x81": (["counts-demo"], COUNTS_GRID, "15368101a13a2f5a07971a3a6e77a756efb40c3494ac0572cb8c688633e0bd7c"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_csv_digest(case, tmp_path, capsys):
    args, config, digest = GOLDEN[case]
    if config is not None:
        path = tmp_path / "run.ini"
        path.write_text(config, encoding="utf-8")
        args = args + ["--config", str(path)]
    code = main(args)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
