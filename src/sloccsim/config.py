"""Experiment configuration: INI-style text with explicit unit suffixes.

Sections and keys (all optional; scenario defaults fill the rest):

* ``[experiment]``: scenario, seed, shots, bootstrap, sampling
* ``[sweep]``: beta_list, phi_list, x_list, p_list
* ``[noise]``: visibility, white_weight, dephasing_weight
* ``[plate]``: thickness, index, ambient_index, radius, wavelength

Angles accept a ``deg`` or ``rad`` suffix (bare numbers are radians);
lengths accept ``m``, ``mm``, ``um`` or ``nm`` (bare numbers are meters).
Lists are comma separated; non-finite numbers are rejected.  ``dump_config``
writes canonical units (radians and meters as bare repr floats), so
parse -> dump -> parse is the identity.

``bootstrap`` is kept so that older configs parse, and it must still be at
least 100, but it no longer changes output: the error bars are the exact
bootstrap spread (``measurement.estimate_phase``), with no resampling.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass

from .errors import ConfigError
from .measurement import correlation_scale
from .mixture import cosine_contrast
from .noise import NoiseModel
from .plate import PlateGeometry

SCENARIOS = (
    "phase-sweep",
    "beta-sweep",
    "mixture-sweep",
    "plate-calibration",
    "counts-demo",
    "tomography-demo",
)

SAMPLING_MODES = ("multinomial", "poisson")

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
    items = [chunk.strip() for chunk in text.split(",")]
    values = [item_parser(chunk) for chunk in items if chunk]
    if not values:
        raise ConfigError(f"empty list value {text!r}")
    return values


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None


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


# (section, key) -> (config field, value parser, serializer)
def _serialize_float(value: float) -> str:
    return repr(float(value))


def _serialize_float_list(values: list[float]) -> str:
    return ", ".join(repr(float(v)) for v in values)


_SCHEMA = {
    ("experiment", "scenario"): ("scenario", str.strip, str),
    ("experiment", "seed"): ("seed", lambda t: _parse_int(t, "seed"), str),
    ("experiment", "shots"): ("shots", lambda t: _parse_int(t, "shots"), str),
    ("experiment", "bootstrap"): ("bootstrap", lambda t: _parse_int(t, "bootstrap"), str),
    ("experiment", "sampling"): ("sampling", str.strip, str),
    ("sweep", "beta_list"): (
        "beta_list",
        lambda t: _parse_list(t, parse_angle),
        _serialize_float_list,
    ),
    ("sweep", "phi_list"): (
        "phi_list",
        lambda t: _parse_list(t, parse_angle),
        _serialize_float_list,
    ),
    ("sweep", "x_list"): (
        "x_list",
        lambda t: _parse_list(t, parse_length),
        _serialize_float_list,
    ),
    ("sweep", "p_list"): (
        "p_list",
        lambda t: _parse_list(t, parse_bare),
        _serialize_float_list,
    ),
    ("noise", "visibility"): ("visibility", parse_bare, _serialize_float),
    ("noise", "white_weight"): ("white_weight", parse_bare, _serialize_float),
    ("noise", "dephasing_weight"): ("dephasing_weight", parse_bare, _serialize_float),
    ("plate", "thickness"): ("plate_thickness", parse_length, _serialize_float),
    ("plate", "index"): ("plate_index", parse_bare, _serialize_float),
    ("plate", "ambient_index"): ("plate_ambient_index", parse_bare, _serialize_float),
    ("plate", "radius"): ("plate_radius", parse_length, _serialize_float),
    ("plate", "wavelength"): ("plate_wavelength", parse_length, _serialize_float),
}

_SECTION_ORDER = ("experiment", "sweep", "noise", "plate")


def load_config(text: str) -> ExperimentConfig:
    """Parse configuration text; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    config = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTION_ORDER:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            entry = _SCHEMA.get((section, key))
            if entry is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field_name, value_parser, _ = entry
            setattr(config, field_name, value_parser(value))
    return config


def load_config_file(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return load_config(text)


def dump_config(config: ExperimentConfig) -> str:
    """Serialize in canonical units; only explicitly set keys are written."""
    lines = []
    for section in _SECTION_ORDER:
        section_lines = []
        for (sec, key), (field_name, _, serializer) in _SCHEMA.items():
            if sec != section:
                continue
            value = getattr(config, field_name)
            if value is not None:
                section_lines.append(f"{key} = {serializer(value)}")
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
    phi_list: tuple[float, ...] | None
    x_list: tuple[float, ...] | None
    p_list: tuple[float, ...]
    noise: NoiseModel
    plate: PlateGeometry


_DEG = math.pi / 180.0

_DEFAULT_BETAS = {
    "phase-sweep": tuple(b * _DEG for b in (45.0, 30.0, 20.0, 10.0)),
    "beta-sweep": tuple(b * _DEG for b in range(5, 90, 5)),
    "mixture-sweep": (45.0 * _DEG,),
    "counts-demo": (45.0 * _DEG,),
    "tomography-demo": (45.0 * _DEG,),
    "plate-calibration": (45.0 * _DEG,),
}

_DEFAULT_PHIS = {
    "phase-sweep": tuple(k * math.pi / 12.0 for k in range(25)),
    "beta-sweep": (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi),
    "mixture-sweep": (0.0, math.pi),
    "counts-demo": (0.0, math.pi),
    "tomography-demo": tuple(k * math.pi / 7.0 for k in range(8)),
    "plate-calibration": (0.0,),
}

_DEFAULT_XS = tuple(k * 0.5e-3 for k in range(81))  # 0 .. 40 mm
_DEFAULT_PS = tuple(k / 10.0 for k in range(11))

DEFAULT_SEED = 42
_U64_MAX = 2**64 - 1
_INT64_MAX = 2**63 - 1  # counts are sampled as int64
DEFAULT_SHOTS = 5000

# scenarios that invert counts, and what their correlation carries
_ESTIMATED = {"phase-sweep": "phase", "beta-sweep": "phase", "mixture-sweep": "weight"}


def resolve(
    config: ExperimentConfig,
    scenario: str,
    seed: int | None = None,
    ideal: bool = False,
) -> ResolvedConfig:
    """Apply scenario defaults and validate; raises ConfigError on problems."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    if config.scenario is not None and config.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {config.scenario!r} in config")
    if config.sampling is not None and config.sampling not in SAMPLING_MODES:
        raise ConfigError(f"sampling must be one of {SAMPLING_MODES}")

    resolved_seed = seed if seed is not None else (
        config.seed if config.seed is not None else DEFAULT_SEED
    )
    if not 0 <= resolved_seed <= _U64_MAX:
        raise ConfigError(
            f"seed must be an integer in [0, 2**64 - 1], got {resolved_seed}"
        )
    shots = config.shots if config.shots is not None else DEFAULT_SHOTS
    if not 1 <= shots <= _INT64_MAX:
        raise ConfigError(
            f"shots must be an integer in [1, 2**63 - 1], got {shots}"
        )
    if config.bootstrap is not None and config.bootstrap < 100:
        raise ConfigError("bootstrap must be at least 100 resamples")

    beta_list = tuple(config.beta_list) if config.beta_list is not None else _DEFAULT_BETAS[scenario]
    if not beta_list:
        raise ConfigError("beta_list is empty")
    for beta in beta_list:
        if not 0.0 <= beta <= math.pi / 2 + 1e-12:
            raise ConfigError(f"beta {beta!r} outside [0, pi/2]")

    x_list = tuple(config.x_list) if config.x_list is not None else None
    if config.phi_list is not None:
        phi_list = tuple(config.phi_list)
    elif x_list is not None or scenario == "plate-calibration":
        phi_list = None
    else:
        phi_list = _DEFAULT_PHIS[scenario]
    if scenario in ("phase-sweep", "beta-sweep", "counts-demo", "tomography-demo"):
        if phi_list is not None and x_list is not None:
            raise ConfigError("give phi_list or x_list, not both")
        if phi_list is None and x_list is None:
            raise ConfigError("need phi_list or x_list")
        if phi_list is not None and not phi_list:
            raise ConfigError("phi_list is empty")
        if x_list is not None and not x_list:
            raise ConfigError("x_list is empty")
    if scenario == "plate-calibration" and x_list is None:
        x_list = _DEFAULT_XS
    if scenario == "mixture-sweep":
        if phi_list is None or len(phi_list) != 2:
            raise ConfigError("mixture-sweep needs exactly two phases in phi_list")
        if len(beta_list) != 1:
            raise ConfigError("mixture-sweep uses a single beta")
    if scenario == "tomography-demo":
        grid = len(beta_list) * len(phi_list or x_list or ())
        if grid < 2:
            raise ConfigError("tomography-demo needs at least two prepared states")
        if config.sampling == "poisson":
            raise ConfigError(
                "tomography-demo samples every setting multinomially; "
                "sampling = poisson is not supported"
            )

    p_list = tuple(config.p_list) if config.p_list is not None else _DEFAULT_PS
    if not p_list:
        raise ConfigError("p_list is empty")
    for p in p_list:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"mixture weight {p!r} outside [0, 1]")

    try:
        noise = NoiseModel(
            visibility=1.0 if ideal else (
                config.visibility if config.visibility is not None else 0.977
            ),
            white_weight=(
                config.white_weight
                if config.white_weight is not None
                else (
                    1.0 - config.dephasing_weight
                    if config.dephasing_weight is not None
                    else 0.5
                )
            ),
            dephasing_weight=(
                config.dephasing_weight
                if config.dephasing_weight is not None
                else (
                    1.0 - config.white_weight
                    if config.white_weight is not None
                    else 0.5
                )
            ),
        )
        plate_kwargs = {}
        for field_name, kwarg in (
            ("plate_thickness", "thickness"),
            ("plate_index", "index"),
            ("plate_ambient_index", "ambient_index"),
            ("plate_radius", "radius"),
            ("plate_wavelength", "wavelength"),
        ):
            value = getattr(config, field_name)
            if value is not None:
                plate_kwargs[kwarg] = value
        plate = PlateGeometry(**plate_kwargs)
        # the estimators' own input checks, so that they fail before any sampling
        if scenario == "mixture-sweep":
            cosine_contrast(*phi_list)
        for beta in beta_list if scenario in _ESTIMATED else ():
            correlation_scale(beta, noise.visibility, _ESTIMATED[scenario])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # no scenario takes a subnormal visibility; the raw-count ones take 0
    if 0.0 < noise.visibility < sys.float_info.min:
        raise ConfigError(
            f"visibility {noise.visibility!r} is below the smallest normal float "
            f"{sys.float_info.min!r}"
        )
    for x in x_list or ():
        if abs(x) >= plate.max_displacement:
            raise ConfigError(
                f"x {x!r} m outside the plate domain |x| < {plate.max_displacement!r} m"
            )

    return ResolvedConfig(
        scenario=scenario,
        seed=resolved_seed,
        shots=shots,
        sampling=config.sampling if config.sampling is not None else "multinomial",
        beta_list=beta_list,
        phi_list=phi_list,
        x_list=x_list,
        p_list=p_list,
        noise=noise,
        plate=plate,
    )
