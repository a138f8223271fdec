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
# phases outside [0, 2*pi), whose raw and reduced values print differently
MIXTURE_PHASES = "[sweep]\nbeta_list = 30deg\nphi_list = 10, -10.5\np_list = 0, 0.25, 0.5, 0.75, 1\n"


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

# Two million shots put all but one row on the fixed normal nodes of the
# phase bootstrap, the 45 deg, phi 0 row on its lattice.
FIXED_NODES = (
    "[experiment]\nshots = 2000000\n[sweep]\n"
    "beta_list = 45deg, 20deg\nphi_list = 0, 0.5, 1.5, 2.5, 3\n"
)
# The grid's edge angles: beta at pi/2 and near 0, phases that
# reduce to 0 (-1e-300, 2*pi) or wrap several times.
EDGE_ANGLES = (
    "[sweep]\nbeta_list = 90deg, 45deg, 0.001\n"
    "phi_list = -1e-300, -2.5, 7, 6.283185307179586, 100\n"
)
# Three shots per row: 49 rows have q in {0, 1} and so zero-width error bars.
SHOTS_3 = "[experiment]\nshots = 3\n"
# Poisson rows of about 40 pairs: many distinct totals and window lengths.
SHOTS_40_POISSON = "[experiment]\nshots = 40\nsampling = poisson\n"
# A negative cosine contrast; with --ideal the p = 0 row inverts to a weight of -0.
MIXTURE_NEGATIVE_CONTRAST = "[sweep]\nphi_list = 180deg, 0\n"
# Poisson totals near 2**62, past the 2**53 that a float holds exactly.
MIXTURE_HUGE_POISSON = "[experiment]\nshots = 4611686018427387904\nsampling = poisson\n"
# With --ideal, each beta = 90 deg reconstruction keeps a coherence below 1e-6,
# so its phase is read as 0 (the low-coherence branch of extract_params).
TOMOGRAPHY_LOW_COHERENCE = (
    "[experiment]\nshots = 1000000000000000\n[sweep]\nbeta_list = 90deg, 45deg\nphi_list = 0, 1\n"
)
# One shot per setting: rank-deficient reconstructions.
SHOTS_1 = "[experiment]\nshots = 1\n"
# A plate in a medium above index 1, read out to two floats below its limit
# radius * index / ambient_index, where the phase passes 1e12 rad.
PLATE_GEOMETRY = (
    "[plate]\nthickness = 1mm\nindex = 2.611310786603449\nambient_index = 1.2146269283697027\n"
    "radius = 0.8137822767518961\nwavelength = 633nm\n[sweep]\n"
    "x_list = 0, 1mm, 0.1, -0.5, 1, 1.5, 1.7, 1.749, -1.749540033729706, 1.749540033729706\n"
)

# case id -> (CLI arguments, config text or None, sha256 of the CSV)
GOLDEN = {
    "phase-sweep-default": (["phase-sweep"], None, "9df9e9bf49f2237e27de53fc26f717b442c90ed011a35a7753a404ccea2c7ddc"),
    "phase-sweep-ideal": (["phase-sweep", "--ideal"], None, "3cb60577e559307081f77e218ac5f48746892d9127c27518ba644b4d34661f08"),
    "phase-sweep-poisson": (["phase-sweep"], POISSON, "3e9fcebf75294ebdc4168fcf04a95341bd1f9ca5400466813f1847c5816e1493"),
    "phase-sweep-x_list": (["phase-sweep"], X_LIST, "6186c4f0884b6bd190f3d7a39cebd94ec68f580661affaf89eed1549f546a57b"),
    "beta-sweep-default": (["beta-sweep"], None, "e411fc86238bd256c69f3c8c67691617e4513d6ff20f8fb598350391db76de6c"),
    "beta-sweep-ideal": (["beta-sweep", "--ideal"], None, "84de7e45710000585a5a99381be9b48b81a955c9c658d7be254cdec91348b282"),
    "beta-sweep-poisson": (["beta-sweep"], POISSON, "a7ed2a7eaf0384b4fd210406af6aa0f31f14e488a2b63f45c2bd77de021c18dd"),
    "mixture-sweep-default": (["mixture-sweep"], None, "631561eef09bd566ae9876af910e6316c118e73ba15fd01151ca161bca541ebe"),
    "mixture-sweep-ideal": (["mixture-sweep", "--ideal"], None, "02381b9c6e40a565e16ca276c4dc0edcebd68c2503f702d346910509c7494c7e"),
    "mixture-sweep-poisson": (["mixture-sweep"], POISSON, "f5e39744dc5d095dd7492f5fb0d02e45d22c8a5a873ccca24fc5278a0ad5cd0c"),
    "mixture-sweep-phases": (["mixture-sweep"], MIXTURE_PHASES, "72a04663af03a88812270caa2b8b6a21c37409a5933d1a37435f1daa60ccd12a"),
    "mixture-sweep-phases-poisson": (["mixture-sweep"], POISSON + MIXTURE_PHASES, "6c40a3e5e5db622b88abb4f9fbbb4fa0c6e53d22da9506fab5f6eaef0772bb06"),
    "calibrate-plate-default": (["calibrate-plate"], None, "7b555e566fcb8bb2def89b8e2a94cb93857dddc5965ad67ea809a679e9e9dafe"),
    "calibrate-plate-ideal": (["calibrate-plate", "--ideal"], None, "7b555e566fcb8bb2def89b8e2a94cb93857dddc5965ad67ea809a679e9e9dafe"),
    "calibrate-plate-poisson": (["calibrate-plate"], POISSON, "7b555e566fcb8bb2def89b8e2a94cb93857dddc5965ad67ea809a679e9e9dafe"),
    "calibrate-plate-geometry": (["calibrate-plate"], PLATE_GEOMETRY, "2a54ef90ed291a39d838132b757629bd4894fec0c440b17527ce6aaad39cb578"),
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
    "phase-sweep-grid-17x37": (["phase-sweep"], PHASE_GRID, "d9215dbb7d9e3b1abc4fc1de4d8efb735bdcef0b3d144e42df09b990f50dba24"),
    "tomography-demo-grid-8x25": (["tomography-demo"], TOMOGRAPHY_GRID, "61b00c950209eaa9b6537b876f459e960195fb8501efaadb731251e51621a71b"),
    "counts-demo-grid-poisson-17x81": (["counts-demo"], COUNTS_GRID, "15368101a13a2f5a07971a3a6e77a756efb40c3494ac0572cb8c688633e0bd7c"),
    "phase-sweep-fixed-nodes": (["phase-sweep"], FIXED_NODES, "cce560b452ca45e84e7541cb73aa5940a9e13c1746bfb6d0268d8a8dcb81aff3"),
    "counts-demo-edge-angles": (["counts-demo"], EDGE_ANGLES, "25611ca771f6334f57c339bf464f00abdac65db1d825af3466cad64aabec169e"),
    "phase-sweep-shots-3": (["phase-sweep"], SHOTS_3, "6516c33d0ff9347833bd48174906c3a6b324cc5435207289d7b4215179661828"),
    "phase-sweep-shots-40-poisson": (["phase-sweep"], SHOTS_40_POISSON, "95b18b62ba584322a40ecb1643dc07365d2a5e5848870b591dd32a244f246cba"),
    "mixture-sweep-ideal-negative-contrast": (["mixture-sweep", "--ideal"], MIXTURE_NEGATIVE_CONTRAST, "a525d370d17f15b50687fc6210eddf3cfb846cf797c631cbc6b82cf58007433e"),
    "mixture-sweep-poisson-shots-2^62": (["mixture-sweep"], MIXTURE_HUGE_POISSON, "6445a3e82ca9e9a9c4a9c3caf5186eb207ec0fa7e86a896224dc38ee823c7a47"),
    # clamped weights and zero-width p_err
    "mixture-sweep-shots-3": (["mixture-sweep"], SHOTS_3, "367f803aa22ed6733e96d4a11447fabe55fc041b48b10d2f423a6adcbc663ffd"),
    # 1 - visibility_fit is 1.4e-8 here, so white_weight_fit = c_white / (1 - V) carries
    # the fit's rounding from its 8th digit on: the closed-form normal equations read
    # 0.956275493822 where the SVD solve read 0.956275468947, and the exact c_white over
    # the rounded 1 - V is 0.956275492266
    "tomography-demo-low-coherence": (["tomography-demo", "--ideal"], TOMOGRAPHY_LOW_COHERENCE, "56bef83e647f7c501cb88fe77ce5241d8535257f3efb89f76cc300dca0df3ea8"),
    "tomography-demo-edge-angles": (["tomography-demo"], EDGE_ANGLES, "bd9b81d87aec56ed9e1b1b06f2f9e005710cc23fe33fb8e69fdfe55ab883adcb"),
    "tomography-demo-shots-1": (["tomography-demo"], SHOTS_1, "6b46b19813f73031709f122a08b8379f6e6dc47e25391681f19609b81dfd7799"),
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
