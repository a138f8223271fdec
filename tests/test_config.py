import math
import sys
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sloccsim.config import (
    _SCHEMA,
    SCENARIOS,
    ExperimentConfig,
    dump_config,
    load_config,
    load_config_file,
    parse_angle,
    parse_length,
    resolve,
)
import numpy as np

from sloccsim import fit_noise, mixed_state, plate, sample_counts, simulate_tomography
from sloccsim.measurement import SAMPLING_MODES
from sloccsim.plate import PlateGeometry, phase_from_displacement
from sloccsim.slocc import PreparationSettings
from sloccsim.errors import ConfigError
from sloccsim.sweeps import point_seeds, row_generators, row_seeds, run_scenario


def test_parse_angle_units():
    assert parse_angle("45deg") == pytest.approx(math.pi / 4)
    assert parse_angle("45 deg") == pytest.approx(math.pi / 4)
    assert parse_angle("1.5rad") == 1.5
    assert parse_angle("0.7") == 0.7
    with pytest.raises(ConfigError):
        parse_angle("45degrees")
    with pytest.raises(ConfigError):
        parse_angle("fast")


def test_parse_length_units():
    assert parse_length("800nm") == pytest.approx(800e-9)
    assert parse_length("102.36 mm") == pytest.approx(102.36e-3)
    assert parse_length("199.94um") == pytest.approx(199.94e-6)
    assert parse_length("0.2m") == pytest.approx(0.2)
    assert parse_length("0.001") == 0.001
    with pytest.raises(ConfigError):
        parse_length("12 feet")


def test_load_config_full_document():
    text = """
[experiment]
scenario = phase-sweep
seed = 9
shots = 1234
bootstrap = 250
sampling = poisson

[sweep]
beta_list = 45deg, 30 deg
phi_list = 0, 0.5rad, 90deg

[noise]
visibility = 0.95
white_weight = 0.25
dephasing_weight = 0.75

[plate]
thickness = 199.94um
index = 1.5
ambient_index = 1.0
radius = 102.36mm
wavelength = 800nm
"""
    config = load_config(text)
    assert config.scenario == "phase-sweep"
    assert config.seed == 9
    assert config.shots == 1234
    assert config.sampling == "poisson"
    assert config.beta_list == pytest.approx([math.pi / 4, math.pi / 6])
    assert config.phi_list == pytest.approx([0.0, 0.5, math.pi / 2])
    assert config.visibility == 0.95
    assert config.plate_wavelength == pytest.approx(800e-9)


def test_load_config_rejects_unknown_names():
    with pytest.raises(ConfigError):
        load_config("[experiments]\nseed = 1\n")
    with pytest.raises(ConfigError):
        load_config("[experiment]\nseeds = 1\n")
    with pytest.raises(ConfigError):
        load_config("[experiment]\nseed = soon\n")
    with pytest.raises(ConfigError):
        load_config("not even ini")
    # configparser would copy [DEFAULT] keys into every section, or drop them when alone
    for text in ("[DEFAULT]\nseed = 3\n", "[DEFAULT]\nseed = 3\n[experiment]\nshots = 9\n"):
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            load_config(text)


def test_round_trip_is_identity():
    text = """
[experiment]
seed = 7
shots = 2000

[sweep]
beta_list = 45deg, 10deg
phi_list = 0deg, 15deg, 30deg
x_list = 0mm, 0.5mm, 1mm
p_list = 0, 0.25, 0.5

[noise]
visibility = 0.977

[plate]
wavelength = 800nm
"""
    config = load_config(text)
    dumped = dump_config(config)
    again = load_config(dumped)
    assert again == config
    assert dump_config(again) == dumped


finite = st.floats(allow_nan=False, allow_infinity=False)
# One value strategy per kind of field in the schema; every field may also be unset.
FIELD_VALUES = {
    "scenario": st.sampled_from(SCENARIOS),
    "sampling": st.sampled_from(SAMPLING_MODES),
    "seed": st.integers(),
    "shots": st.integers(),
    "bootstrap": st.integers(),
    **{
        name: st.lists(finite, min_size=1, max_size=5)
        for name in ("beta_list", "phi_list", "x_list", "p_list")
    },
}
configs = st.fixed_dictionaries(
    {f.name: st.none() | FIELD_VALUES.get(f.name, finite) for f in fields(ExperimentConfig)}
).map(lambda values: ExperimentConfig(**values))


def test_round_trip_strategy_covers_the_schema():
    assert {field for field, _ in _SCHEMA.values()} == {f.name for f in fields(ExperimentConfig)}


@settings(max_examples=200, deadline=None)
@given(config=configs)
@example(config=ExperimentConfig(visibility=1, beta_list=[1]))  # ints in float fields dump as floats
def test_dump_then_load_is_the_identity(config):
    dumped = dump_config(config)
    assert load_config(dumped) == config
    assert dump_config(load_config(dumped)) == dumped


def test_load_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[experiment]\nseed = 3\n", encoding="utf-8")
    assert load_config_file(path).seed == 3
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "absent.ini")


def test_resolve_fills_scenario_defaults():
    resolved = resolve(ExperimentConfig(), "phase-sweep")
    assert resolved.seed == 42
    assert resolved.shots == 5000
    assert resolved.sampling == "multinomial"
    assert len(resolved.beta_list) == 4
    assert resolved.beta_list[0] == pytest.approx(math.pi / 4)
    assert len(resolved.phi_list) == 25
    assert resolved.phi_list[-1] == pytest.approx(2.0 * math.pi)
    assert resolved.noise.visibility == 0.977

    beta = resolve(ExperimentConfig(), "beta-sweep")
    assert len(beta.beta_list) == 17
    plate = resolve(ExperimentConfig(), "plate-calibration")
    assert len(plate.x_list) == 81
    assert plate.phi_list is None
    # the default geometry, whose wavelength stays pinned
    assert plate.plate_phases == tuple(
        phase_from_displacement(x, PlateGeometry()) for x in plate.x_list
    )
    assert PlateGeometry().wavelength == pytest.approx(800e-9)
    mix = resolve(ExperimentConfig(), "mixture-sweep")
    assert mix.phi_list == (0.0, math.pi)
    assert len(mix.p_list) == 11


def test_resolve_applies_overrides():
    config = ExperimentConfig(seed=5, shots=100, visibility=0.9)
    resolved = resolve(config, "phase-sweep")
    assert resolved.seed == 5
    assert resolved.shots == 100
    assert resolved.noise.visibility == 0.9
    # explicit seed argument wins over the config value
    assert resolve(config, "phase-sweep", seed=11).seed == 11
    # ideal forces unit visibility regardless of the config
    assert resolve(config, "phase-sweep", ideal=True).noise.visibility == 1.0


def test_resolve_completes_noise_split():
    resolved = resolve(ExperimentConfig(white_weight=0.3), "phase-sweep")
    assert resolved.noise.dephasing_weight == pytest.approx(0.7)
    resolved = resolve(ExperimentConfig(dephasing_weight=0.1), "phase-sweep")
    assert resolved.noise.white_weight == pytest.approx(0.9)


def test_resolve_rejects_bad_values():
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(), "warp-drive")
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(sampling="jackknife"), "phase-sweep")
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(shots=0), "phase-sweep")
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(bootstrap=10), "phase-sweep")
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(beta_list=[2.0]), "phase-sweep")
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(beta_list=[0.0]), "phase-sweep")
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(visibility=1.5), "phase-sweep")
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(p_list=[0.5, 1.2]), "mixture-sweep")
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(phi_list=[0.0]), "mixture-sweep")
    with pytest.raises(ConfigError):
        resolve(
            ExperimentConfig(phi_list=[0.0, 1.0], x_list=[0.001]), "phase-sweep"
        )
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(plate_index=0.5), "plate-calibration")
    with pytest.raises(ConfigError):
        resolve(ExperimentConfig(seed=-1), "phase-sweep")


def test_resolve_accepts_x_list_for_phase_sweep():
    resolved = resolve(ExperimentConfig(x_list=[0.0, 0.001]), "phase-sweep")
    # the grid runs at the wrapped plate phases of the displacements
    assert resolved.phi_list == (0.0, 0.049959901896247605)
    assert resolved.x_list == (0.0, 0.001)


@pytest.mark.parametrize(
    "phis", [(-1e-300, 2.0), (10.0, -10.5), (0.3, -2.5), (100.0, 3.0), (-math.pi, 2.0)]
)
def test_resolve_reduces_the_mixture_phases_once(phis):
    # the phases mixed_state, the CSV's phi columns and estimate_p all take
    resolved = resolve(ExperimentConfig(beta_list=[0.5], phi_list=list(phis)), "mixture-sweep")
    assert resolved.phi_list == tuple(PreparationSettings(0.5, phi).phi for phi in phis)
    assert all(0.0 <= phi < 2.0 * math.pi for phi in resolved.phi_list)


# scenario -> CSV rows per x of the config below
ROWS_PER_X = {"counts-demo": 2, "plate-calibration": 1}


@pytest.mark.parametrize("scenario", ROWS_PER_X)
def test_plate_phases_of_a_grid_are_computed_once(scenario, monkeypatch):
    calls = []
    original = plate.phase_from_displacement

    def counted(x, geom):
        calls.append(x)
        return original(x, geom)

    # every module that looks the function up, the resolver's included
    for name, module in list(sys.modules.items()):
        if name.startswith("sloccsim") and vars(module).get("phase_from_displacement") is original:
            monkeypatch.setattr(module, "phase_from_displacement", counted)
    x_list = [k * 0.5e-3 for k in range(81)]
    config = ExperimentConfig(shots=50, beta_list=[0.3, 0.7], x_list=x_list)
    rows = list(run_scenario(resolve(config, scenario))[1])
    assert calls == x_list
    assert len(rows) == ROWS_PER_X[scenario] * len(x_list)


UNIFORM = np.full((1, 4), 0.25)
HUGE = [0.5] * 2**16
# rule -> (raw config, scenario, library calls that apply the same rule)
INPUT_RULES = {
    "sampling": (
        ExperimentConfig(sampling="uniform"),
        "counts-demo",
        [lambda: sample_counts(UNIFORM, 10, [np.random.default_rng(0)], "uniform")],
    ),
    "shots": (
        ExperimentConfig(shots=2**63),
        "counts-demo",
        [
            lambda: sample_counts(UNIFORM, 2**63, [np.random.default_rng(0)], "multinomial"),
            lambda: sample_counts(UNIFORM, 2**63, [np.random.default_rng(0)], "poisson"),
            lambda: simulate_tomography(np.full((1, 9, 4), 0.25), 2**63, [np.random.default_rng(0)]),
        ],
    ),
    "seed": (ExperimentConfig(seed=2**64), "counts-demo", [lambda: row_seeds(2**64, 1), lambda: point_seeds(2**64, 0)]),
    "row-count": (
        ExperimentConfig(beta_list=HUGE, phi_list=HUGE),
        "counts-demo",
        [lambda: row_seeds(0, 2**32), lambda: next(row_generators(0, 2**32)), lambda: point_seeds(0, 2**32)],
    ),
    "state-count": (
        ExperimentConfig(beta_list=[0.5], phi_list=[1.0]),
        "tomography-demo",
        [lambda: fit_noise(np.eye(4, dtype=complex)[None] / 4.0, np.eye(4, dtype=complex)[:1])],
    ),
    "weight": (
        ExperimentConfig(p_list=[0.5, 2.0, -1.0]),
        "mixture-sweep",
        [lambda: mixed_state([0.5, 2.0, -1.0], 0.0, math.pi, 0.5)],
    ),
}


@pytest.mark.parametrize("rule", INPUT_RULES)
def test_resolve_reports_each_input_rule_with_the_library_message(rule):
    # resolve runs the library's own check, so the config error and the ValueError read alike
    config, scenario, calls = INPUT_RULES[rule]
    with pytest.raises(ConfigError) as resolved:
        resolve(config, scenario)
    for call in calls:
        with pytest.raises(ValueError) as library:
            call()
        assert type(library.value) is ValueError
        assert str(library.value) == str(resolved.value)


def test_resolve_rejects_a_grid_whose_row_index_leaves_uint32():
    # a row's seed holds its index in one uint32 word, so a run has at most 2**32 - 1 rows
    betas = [0.5] * 2**16
    with pytest.raises(ConfigError, match=r"^row count 4294967296 is outside \[0, 2\*\*32 - 1\]: "):
        resolve(ExperimentConfig(beta_list=betas, phi_list=[1.0] * 2**16), scenario="counts-demo")
    cfg = resolve(ExperimentConfig(beta_list=betas[1:], phi_list=[1.0] * (2**16 + 1)), scenario="counts-demo")
    assert len(cfg.beta_list) * len(cfg.phi_list) == 2**32 - 1
    # calibrate-plate reads no beta_list: its rows are its displacements
    calibration = resolve(ExperimentConfig(beta_list=betas, phi_list=[1.0] * 2**16), scenario="plate-calibration")
    assert len(calibration.x_list) == 81
