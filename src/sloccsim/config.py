"""Experiment configuration: INI-style text with explicit unit suffixes.

Sections and keys (all optional; scenario defaults fill the rest):

* ``[experiment]``: scenario, seed, shots, bootstrap, sampling
* ``[sweep]``: beta_list, phi_list, x_list, p_list.  mixture-sweep reads
  beta_list, phi_list and p_list, calibrate-plate reads x_list, and the other
  four subcommands read beta_list and phi_list, or x_list for plate phases.
  A list that a subcommand does not read is range-checked, then ignored.
* ``[noise]``: visibility, white_weight, dephasing_weight
* ``[plate]``: thickness, index, ambient_index, radius, wavelength

Files are UTF-8, with or without a byte order mark.  Angles accept a ``deg``
or ``rad`` suffix (bare numbers are radians); lengths accept ``m``, ``mm``,
``um`` or ``nm`` (bare numbers are meters).  Lists are comma separated;
non-finite numbers are rejected, and so is a ``[DEFAULT]`` section.  A value
that does not parse is reported with its ``[section] key``, and a file that
cannot be read, decoded or parsed with its path.
``dump_config`` writes canonical units (radians and meters as bare repr
floats), so parse -> dump -> parse is the identity.

``resolve`` takes each scenario's defaults from one table (``_SCENARIOS``),
computes once the phases a sweep runs at (a grid's and calibrate-plate's from
an x_list, mixture-sweep's two reduced into [0, 2*pi)), and leaves every
input rule to the type or check that owns it, which the library runs too:
``check_sampling`` and ``check_shots`` (measurement; shots in [1, 2**63 - 1]
for both samplers), ``check_seed`` and ``check_row_count`` (here, for the
sweeps' row streams), ``check_state_count`` (noise), ``check_weights``
(mixture), ``NoiseModel``, ``PlateGeometry``, ``PreparationSettings``,
``phase_from_displacement`` and the estimators' input checks.  Each rule has
one message, which ``resolve`` reports in a ``ConfigError`` (exit 2) before
anything is computed.

``bootstrap`` is kept so that older configs parse, and it must still be at
least 100, but it no longer changes output: the error bars are the exact
bootstrap spread (``measurement.estimate_phase``), with no resampling.
"""

from __future__ import annotations

import configparser
import math
import numbers
from dataclasses import dataclass, fields

from .errors import ConfigError
from .measurement import check_sampling, check_shots, correlation_scale
from .mixture import check_weights, cosine_contrast
from .noise import NoiseModel, check_state_count
from .plate import PlateGeometry, phase_from_displacement, wrap_phase
from .slocc import PreparationSettings
from .states import canonical_phase

_ANGLE_UNITS = {"deg": math.pi / 180.0, "rad": 1.0}
_LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}


def _finite(number: str, text: str, kind: str) -> float:
    try:
        value = float(number)
    except ValueError:
        raise ConfigError(f"cannot parse {kind} value {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{kind} value {text!r} is not finite")
    return value


def _parse_with_units(text: str, units: dict[str, float], kind: str) -> float:
    raw = text.strip()
    for suffix in sorted(units, key=len, reverse=True):
        if raw.endswith(suffix):
            number = raw[: -len(suffix)].strip()
            if number:
                return _finite(number, text, kind) * units[suffix]
    return _finite(raw, text, kind)


def parse_angle(text: str) -> float:
    """Angle in radians; accepts deg/rad suffixes, bare numbers are radians."""
    return _parse_with_units(text, _ANGLE_UNITS, "angle")


def parse_length(text: str) -> float:
    """Length in meters; accepts m/mm/um/nm suffixes, bare numbers are meters."""
    return _parse_with_units(text, _LENGTH_UNITS, "length")


def parse_bare(text: str) -> float:
    return _finite(text.strip(), text, "numeric")


def _parse_list(text: str, item_parser) -> list[float]:
    values = [item_parser(chunk) for chunk in map(str.strip, text.split(",")) if chunk]
    if not values:
        raise ConfigError(f"empty list value {text!r}")
    return values


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"must be an integer, got {text!r}") from None


@dataclass
class ExperimentConfig:
    """Raw configuration; None means "use the scenario default"."""

    scenario: str | None = None
    seed: int | None = None
    shots: int | None = None
    bootstrap: int | None = None
    sampling: str | None = None
    beta_list: list[float] | None = None
    phi_list: list[float] | None = None
    x_list: list[float] | None = None
    p_list: list[float] | None = None
    visibility: float | None = None
    white_weight: float | None = None
    dephasing_weight: float | None = None
    plate_thickness: float | None = None
    plate_index: float | None = None
    plate_ambient_index: float | None = None
    plate_radius: float | None = None
    plate_wavelength: float | None = None


# (section, key) -> (config field, value parser).  The section decides how a
# value is written: [experiment] values as text, [sweep] values as lists of
# floats, and [noise] and [plate] values as floats.
_SCHEMA = {
    ("experiment", "scenario"): ("scenario", str.strip),
    ("experiment", "seed"): ("seed", _parse_int),
    ("experiment", "shots"): ("shots", _parse_int),
    ("experiment", "bootstrap"): ("bootstrap", _parse_int),
    ("experiment", "sampling"): ("sampling", str.strip),
    ("sweep", "beta_list"): ("beta_list", lambda t: _parse_list(t, parse_angle)),
    ("sweep", "phi_list"): ("phi_list", lambda t: _parse_list(t, parse_angle)),
    ("sweep", "x_list"): ("x_list", lambda t: _parse_list(t, parse_length)),
    ("sweep", "p_list"): ("p_list", lambda t: _parse_list(t, parse_bare)),
    ("noise", "visibility"): ("visibility", parse_bare),
    ("noise", "white_weight"): ("white_weight", parse_bare),
    ("noise", "dephasing_weight"): ("dephasing_weight", parse_bare),
    ("plate", "thickness"): ("plate_thickness", parse_length),
    ("plate", "index"): ("plate_index", parse_bare),
    ("plate", "ambient_index"): ("plate_ambient_index", parse_bare),
    ("plate", "radius"): ("plate_radius", parse_length),
    ("plate", "wavelength"): ("plate_wavelength", parse_length),
}

_SECTION_ORDER = ("experiment", "sweep", "noise", "plate")


def load_config(text: str, source: str = "<string>") -> ExperimentConfig:
    """Parse configuration text named ``source``; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:  # its message quotes the offending line on lines of their own
        flat = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"malformed config: {flat}") from None
    if parser.defaults():  # its keys would leak into every other section
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    config = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTION_ORDER:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            entry = _SCHEMA.get((section, key))
            if entry is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field_name, value_parser = entry
            try:
                setattr(config, field_name, value_parser(value))
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return config


def load_config_file(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:  # an OSError's own text repeats the path
        raise ConfigError(f"cannot read config file {path}: {getattr(exc, 'strerror', exc)}") from None
    return load_config(text, source=str(path))


def _dump_value(section: str, value) -> str:
    if section == "experiment":
        return str(value)
    if section == "sweep":
        return ", ".join(repr(float(v)) for v in value)
    return repr(float(value))


def dump_config(config: ExperimentConfig) -> str:
    """Serialize in canonical units; only explicitly set keys are written."""
    lines = []
    for section in _SECTION_ORDER:
        section_lines = []
        for (sec, key), (field_name, _) in _SCHEMA.items():
            if sec != section:
                continue
            value = getattr(config, field_name)
            if value is not None:
                section_lines.append(f"{key} = {_dump_value(section, value)}")
        if section_lines:
            lines.append(f"[{section}]")
            lines.extend(section_lines)
            lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully validated configuration for one scenario run."""

    scenario: str
    seed: int
    shots: int
    sampling: str
    beta_list: tuple[float, ...]
    phi_list: tuple[float, ...] | None  # the phases the sweep runs at: a grid's x_list gives them,
    # and mixture-sweep's two are reduced into [0, 2*pi) by canonical_phase
    x_list: tuple[float, ...] | None
    p_list: tuple[float, ...]
    noise: NoiseModel
    plate_phases: tuple[float, ...] | None  # phase_from_displacement of each x_list entry, unwrapped


_DEG = math.pi / 180.0
_AT_45_DEG = (45.0 * _DEG,)

# scenario -> (default beta_list, default phi_list, default x_list, what the
# correlation's estimator recovers, or None for a scenario that estimates nothing)
_SCENARIOS = {
    "phase-sweep": (
        tuple(b * _DEG for b in (45.0, 30.0, 20.0, 10.0)),
        tuple(k * math.pi / 12.0 for k in range(25)),
        None,
        "phase",
    ),
    "beta-sweep": (
        tuple(b * _DEG for b in range(5, 90, 5)),
        (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi),
        None,
        "phase",
    ),
    "mixture-sweep": (_AT_45_DEG, (0.0, math.pi), None, "weight"),
    "plate-calibration": (_AT_45_DEG, None, tuple(k * 0.5e-3 for k in range(81)), None),  # 0 .. 40 mm
    "counts-demo": (_AT_45_DEG, (0.0, math.pi), None, None),
    "tomography-demo": (_AT_45_DEG, tuple(k * math.pi / 7.0 for k in range(8)), None, None),
}
SCENARIOS = tuple(_SCENARIOS)

_DEFAULT_PS = tuple(k / 10.0 for k in range(11))

DEFAULT_SEED = 42
# A run draws fewer rows than this: each row's seed holds its index in one uint32 word.
ROW_LIMIT = 2**32
DEFAULT_SHOTS = 5000


def check_seed(seed: int) -> None:
    """The seed rule: a run seed is a u64, one or two uint32 words of each row's entropy; numpy integers pass."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64 - 1], got {seed}")


def check_row_count(rows: int) -> None:
    """The row limit: an integer count of 0 to ROW_LIMIT - 1 rows."""
    if not (isinstance(rows, numbers.Integral) and 0 <= rows < ROW_LIMIT):
        raise ValueError(f"row count {rows} is outside [0, 2**32 - 1]: a row's seed holds its index in one uint32 word")


def resolve(config: ExperimentConfig, scenario: str, seed: int | None = None, ideal: bool = False) -> ResolvedConfig:
    """Apply scenario defaults and validate; raises ConfigError on problems."""
    try:
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}")
        if config.scenario is not None and config.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {config.scenario!r} in config")
        if config.sampling is not None:
            check_sampling(config.sampling)
        default_betas, default_phis, default_xs, estimates = _SCENARIOS[scenario]

        resolved_seed = next(value for value in (seed, config.seed, DEFAULT_SEED) if value is not None)
        check_seed(resolved_seed)
        shots = config.shots if config.shots is not None else DEFAULT_SHOTS
        check_shots(shots)
        if config.bootstrap is not None and config.bootstrap < 100:
            raise ConfigError("bootstrap must be at least 100 resamples")

        beta_list = tuple(config.beta_list) if config.beta_list is not None else default_betas
        phi_list = tuple(config.phi_list) if config.phi_list is not None else default_phis
        x_list = tuple(config.x_list) if config.x_list is not None else default_xs
        p_list = tuple(config.p_list) if config.p_list is not None else _DEFAULT_PS
        for name, values in (
            ("beta_list", beta_list), ("phi_list", phi_list), ("x_list", x_list), ("p_list", p_list)
        ):
            if values == ():
                raise ConfigError(f"{name} is empty")
        # a phase grid given an x_list runs at the plate phases of its displacements
        plate_grid = x_list is not None and scenario not in ("mixture-sweep", "plate-calibration")
        if plate_grid and config.phi_list is not None:
            raise ConfigError("give phi_list or x_list, not both")
        if scenario == "mixture-sweep":
            if len(phi_list) != 2:
                raise ConfigError("mixture-sweep needs exactly two phases in phi_list")
            if len(beta_list) != 1:
                raise ConfigError("mixture-sweep uses a single beta")
            rows = len(p_list)
        elif scenario == "plate-calibration":
            rows = len(x_list)
        else:
            rows = len(beta_list) * len(x_list if plate_grid else phi_list)
        check_row_count(rows)
        if scenario == "tomography-demo":
            check_state_count(rows)
            if config.sampling == "poisson":
                raise ConfigError(
                    "tomography-demo samples every setting multinomially; "
                    "sampling = poisson is not supported"
                )

        white, dephasing = config.white_weight, config.dephasing_weight
        if dephasing is None and white is not None:
            dephasing = 1.0 - white
        if white is None and dephasing is not None:
            white = 1.0 - dephasing
        noise_values = {
            "visibility": 1.0 if ideal else config.visibility,
            "white_weight": white,
            "dephasing_weight": dephasing,
        }
        plate_values = {f.name: getattr(config, f"plate_{f.name}") for f in fields(PlateGeometry)}
        check_weights(p_list)
        noise = NoiseModel(**{k: v for k, v in noise_values.items() if v is not None})
        plate = PlateGeometry(**{k: v for k, v in plate_values.items() if v is not None})
        for beta in beta_list:
            PreparationSettings(beta)
        plate_phases = x_list and tuple(phase_from_displacement(x, plate) for x in x_list)
        # the estimators' own input checks on the values they will see, before any sampling
        if scenario == "mixture-sweep":  # its phases reduced, as mixed_state reduces them
            phi_list = tuple(canonical_phase(phi) for phi in phi_list)
            cosine_contrast(*phi_list)
        for beta in beta_list if estimates else ():
            correlation_scale(beta, noise.visibility, estimates)

        return ResolvedConfig(
            scenario=scenario,
            seed=resolved_seed,
            shots=shots,
            sampling=config.sampling if config.sampling is not None else "multinomial",
            beta_list=beta_list,
            phi_list=tuple(wrap_phase(phase) for phase in plate_phases) if plate_grid else phi_list,
            x_list=x_list,
            p_list=p_list,
            noise=noise,
            plate_phases=plate_phases,
        )
    except ValueError as exc:  # an owner's rule, or resolve's own, as one ConfigError with its message
        raise ConfigError(str(exc)) from None
