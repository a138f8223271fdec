"""Pinned sha256 digests of the CLI's CSV output.

Reruns matching each other (criterion 10) does not catch a refactor that
changes the numbers; these digests do.  A change that alters output on
purpose regenerates only the digests it affects and says why in CHANGES.md.
"""

import hashlib

import pytest

from sloccsim.cli import main

POISSON = "[experiment]\nsampling = poisson\n"
X_LIST = "[sweep]\nx_list = 0mm, 2.5mm, 5mm, 10mm, 20mm, 30mm\n"

# case id -> (CLI arguments, config text or None, sha256 of the CSV)
GOLDEN = {
    "phase-sweep-default": (["phase-sweep"], None, "a1812153522cbb9a9e9f233d922b020014f48f2c00e89aa57f51810cc775d912"),
    "phase-sweep-ideal": (["phase-sweep", "--ideal"], None, "02856cd90a497e7c8bc506a8d9cde90ec94fb7d75166822ab28ec9487f2211a4"),
    "phase-sweep-poisson": (["phase-sweep"], POISSON, "369a812332df31c3b8f5322eed82b70c605a994e29cb6fe8740f08d67c4e4573"),
    "phase-sweep-x_list": (["phase-sweep"], X_LIST, "709dbe38f85fc120bc46ad4fe986ed76b97e7fc44a21114b043adc76f2a595bd"),
    "beta-sweep-default": (["beta-sweep"], None, "fadb98b7107b666c45aa2b790c727f9f756ad2707a9486de4e1cba98d5e9a36d"),
    "beta-sweep-ideal": (["beta-sweep", "--ideal"], None, "6ea43c3dfccf318588546546e2960811f0d96a77962a385af55e26bc0dbc0104"),
    "beta-sweep-poisson": (["beta-sweep"], POISSON, "3a5c23ec4744aeeff4843b79b007ed2af7e7caf8707f8769907f3b6b4487c12d"),
    "mixture-sweep-default": (["mixture-sweep"], None, "7553b1925a1bdba3ff0942b49ff83fba53a213a65d46a77a5a4efaf1051a6cde"),
    "mixture-sweep-ideal": (["mixture-sweep", "--ideal"], None, "eb5fc5e8e5084b3cc7bdf2c4732feb7780994fb94042e92864769d0caa43fd67"),
    "mixture-sweep-poisson": (["mixture-sweep"], POISSON, "9b67f18bce526b022ca6efc7859e4f44694ab2cf011b7d8d2b8aedee01fc0b26"),
    "calibrate-plate-default": (["calibrate-plate"], None, "7b555e566fcb8bb2def89b8e2a94cb93857dddc5965ad67ea809a679e9e9dafe"),
    "calibrate-plate-ideal": (["calibrate-plate", "--ideal"], None, "7b555e566fcb8bb2def89b8e2a94cb93857dddc5965ad67ea809a679e9e9dafe"),
    "calibrate-plate-poisson": (["calibrate-plate"], POISSON, "7b555e566fcb8bb2def89b8e2a94cb93857dddc5965ad67ea809a679e9e9dafe"),
    "counts-demo-default": (["counts-demo"], None, "29b958164bb31e8e6ec5228e266170307b0deca0c11c2cad71b76cf4d349123c"),
    "counts-demo-ideal": (["counts-demo", "--ideal"], None, "f6e85288386ead679f23a014dec0d827a478972e0b2db30b31d06366238baa07"),
    "counts-demo-poisson": (["counts-demo"], POISSON, "40fe40b12c2d643dc7aa44ce7cb1350cd3175f929005b365c4b393d0b118c74a"),
    "counts-demo-x_list": (["counts-demo"], X_LIST, "5d15bf54c0bcfbb41bade41f1dee563aefd886b15dea3b31599b7f76fbf05a08"),
    "tomography-demo-default": (["tomography-demo"], None, "438b49f9f0ccf305566439660295fcb49de5ba2cf0830913be17ad8dadddbf3f"),
    "tomography-demo-ideal": (["tomography-demo", "--ideal"], None, "9aefded5e48fb2ec85364fedd5525d52387a2608378aee666b552394f61b12a7"),
    "tomography-demo-poisson": (["tomography-demo"], POISSON, "438b49f9f0ccf305566439660295fcb49de5ba2cf0830913be17ad8dadddbf3f"),
    "tomography-demo-x_list": (["tomography-demo"], X_LIST, "60661d5b336b814d9f01ac878233507769dd400adfe0d546592e3715dfd00b0c"),
    # seed 2 puts the unconstrained noise-fit optimum outside the physical
    # triangle, so this digest pins the bounded (edge) path of fit_noise
    "tomography-demo-ideal-seed2": (["tomography-demo", "--ideal", "--seed", "2"], None, "897d6d3805942d12a4954904d7095912308bb55c9d6a561a873e244d9d3570c6"),
}


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
