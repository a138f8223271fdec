import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sloccsim
from sloccsim import sweeps, tomography
from sloccsim.cli import build_parser, main
from sloccsim.config import _SCHEMA, SAMPLING_MODES, SCENARIOS

ALL_COMMANDS = (
    "phase-sweep",
    "beta-sweep",
    "mixture-sweep",
    "calibrate-plate",
    "counts-demo",
    "tomography-demo",
)


def run_cli(args, capsys):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def quick_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body, encoding="utf-8")
    return str(path)


SMALL = {
    "phase-sweep": "[experiment]\nshots = 500\nbootstrap = 100\n[sweep]\nbeta_list = 45deg\nphi_list = 0, 90deg, 180deg\n",
    "beta-sweep": "[experiment]\nshots = 500\nbootstrap = 100\n[sweep]\nbeta_list = 30deg, 45deg\nphi_list = 0\n",
    "mixture-sweep": "[experiment]\nshots = 500\nbootstrap = 100\n[sweep]\np_list = 0, 0.5, 1\n",
    "calibrate-plate": "[sweep]\nx_list = 0mm, 1mm, 2mm\n",
    "counts-demo": "[experiment]\nshots = 500\n",
    "tomography-demo": "[experiment]\nshots = 300\n[sweep]\nphi_list = 0, 90deg\n",
}


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_subcommands_emit_csv(command, tmp_path, capsys):
    config = quick_config(tmp_path, SMALL[command])
    code, out, err = run_cli([command, "--config", config], capsys)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) >= 2
    header = lines[0].split(",")
    assert len(header) == len(set(header))
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_runs_are_byte_identical(command, tmp_path, capsys):
    config = quick_config(tmp_path, SMALL[command])
    args = [command, "--config", config, "--seed", "7"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    _, reseeded, _ = run_cli([command, "--config", config, "--seed", "8"], capsys)
    if command != "calibrate-plate":  # the plate table involves no sampling
        assert reseeded != first


@pytest.mark.parametrize("command", ["phase-sweep", "beta-sweep", "mixture-sweep"])
def test_bootstrap_key_no_longer_changes_output(command, tmp_path, capsys):
    # the error bars are exact; the key is only parsed and range-checked
    outputs = []
    for count in (100, 5000):
        body = SMALL[command].replace("bootstrap = 100", f"bootstrap = {count}")
        config = quick_config(tmp_path, body)
        code, out, err = run_cli([command, "--config", config], capsys)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_out_file_and_env_dir(tmp_path, capsys, monkeypatch):
    config = quick_config(tmp_path, SMALL["calibrate-plate"])
    out_abs = tmp_path / "direct.csv"
    code, out, _ = run_cli(
        ["calibrate-plate", "--config", config, "--out", str(out_abs)], capsys
    )
    assert code == 0
    assert out == ""
    assert out_abs.read_text(encoding="utf-8").startswith("x_mm,")

    monkeypatch.setenv("SLOCCSIM_OUT_DIR", str(tmp_path / "routed"))
    code, _, _ = run_cli(
        ["calibrate-plate", "--config", config, "--out", "nested/table.csv"], capsys
    )
    assert code == 0
    assert (tmp_path / "routed" / "nested" / "table.csv").exists()


def test_ideal_flag_removes_wrong_channel_counts(tmp_path, capsys):
    config = quick_config(
        tmp_path,
        "[experiment]\nshots = 4000\n[sweep]\nbeta_list = 45deg\nphi_list = 0\n",
    )
    code, out, _ = run_cli(
        ["counts-demo", "--config", config, "--ideal", "--seed", "3"], capsys
    )
    assert code == 0
    header, row = out.strip().splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    # a perfect phi=0 boson state never fires the anticorrelated channels
    assert record["n14"] == "0"
    assert record["n23"] == "0"
    assert int(record["n13"]) + int(record["n24"]) == int(record["total"])

    code, noisy_out, _ = run_cli(
        ["counts-demo", "--config", config, "--seed", "3"], capsys
    )
    _, noisy_row = noisy_out.strip().splitlines()
    noisy_record = dict(zip(header.split(","), noisy_row.split(",")))
    assert int(noisy_record["n14"]) + int(noisy_record["n23"]) > 0


def test_phase_sweep_column_content(tmp_path, capsys):
    config = quick_config(
        tmp_path,
        "[experiment]\nshots = 2000\nbootstrap = 150\n"
        "[sweep]\nbeta_list = 45deg\nphi_list = 0, 60deg\n",
    )
    code, out, _ = run_cli(["phase-sweep", "--config", config, "--seed", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert float(rows[0]["zz_ideal"]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[1]["zz_ideal"]) == pytest.approx(0.5, abs=1e-9)
    for row in rows:
        assert float(row["zz_noisy_expected"]) == pytest.approx(
            0.977 * float(row["zz_ideal"]), abs=1e-9
        )
        assert float(row["beta_deg"]) == pytest.approx(45.0, abs=1e-9)
    assert float(rows[1]["phi_hat"]) == pytest.approx(math.pi / 3, abs=0.1)


def test_bad_config_exits_2(tmp_path, capsys):
    config = quick_config(tmp_path, "[experiment]\nshots = -5\n")
    code, _, err = run_cli(["phase-sweep", "--config", config], capsys)
    assert code == 2
    assert "config error" in err
    code, _, _ = run_cli(["phase-sweep", "--config", str(tmp_path / "nope.ini")], capsys)
    assert code == 2


def test_collapsed_reconstruction_exits_3(tmp_path, capsys, monkeypatch):
    # a sampled table's inversion is bounded and never collapses, so one row
    # of the real stack is replaced by a collapsing matrix before projection
    def collapsing(tables):
        stack = tomography.reconstruct(tables).copy()
        stack[1] = np.diag([1e17, 1.0, 0.0, -1e17])
        return tomography._project_physical(stack)

    monkeypatch.setattr(sweeps, "reconstruct", collapsing)
    config = quick_config(tmp_path, SMALL["tomography-demo"])
    code, out, err = run_cli(["tomography-demo", "--config", config], capsys)
    assert (code, out) == (3, "")
    assert err == "error: reconstruction collapsed to the zero matrix\n"


# case id -> (subcommand, config text, extra CLI arguments)
OUT_OF_RANGE = {
    "phi-inf": ("phase-sweep", "[sweep]\nphi_list = inf\n", []),
    "phi-nan": ("phase-sweep", "[sweep]\nphi_list = nan\n", []),
    "beta-inf": ("phase-sweep", "[sweep]\nbeta_list = -infdeg\n", []),
    "x-nan": ("phase-sweep", "[sweep]\nx_list = nanmm\n", []),
    "p-nan": ("mixture-sweep", "[sweep]\np_list = 0, nan\n", []),
    # a list the subcommand does not read is still range-checked
    "p-unread-2": ("counts-demo", "[sweep]\np_list = 2\n", []),
    "visibility-inf": ("phase-sweep", "[noise]\nvisibility = inf\n", []),
    # subnormal visibilities leaked an overflow warning or a bare division by zero
    "visibility-1e-310": ("phase-sweep", "[noise]\nvisibility = 1e-310\n", []),
    "visibility-5e-324": (
        "phase-sweep",
        "[noise]\nvisibility = 5e-324\n[sweep]\nbeta_list = 10deg\n",
        [],
    ),
    # counts-demo takes a subnormal visibility, but not one below zero
    "visibility-subnormal-counts": ("counts-demo", "[noise]\nvisibility = -1e-310\n", []),
    "visibility-0-phase-sweep": ("phase-sweep", "[noise]\nvisibility = 0\n", []),
    # each factor passes on its own, but the estimators' scale visibility * sin(2 beta) is subnormal
    "scale-subnormal-phase": (
        "phase-sweep",
        "[noise]\nvisibility = 3e-308\n[sweep]\nbeta_list = 0.001\n",
        [],
    ),
    "scale-subnormal-mixture": (
        "mixture-sweep",
        "[noise]\nvisibility = 3e-308\n[sweep]\nbeta_list = 0.001\n",
        [],
    ),
    # equal cosines: the mixture weight drops out of the signal
    "mixture-equal-cosines": ("mixture-sweep", "[sweep]\nphi_list = 1, -1\n", []),
    "shots-1e20": ("phase-sweep", "[experiment]\nshots = 100000000000000000000\n", []),
    "shots-2^63": ("counts-demo", "[experiment]\nshots = 9223372036854775808\n", []),
    "x-beyond-plate": ("phase-sweep", "[sweep]\nx_list = 200mm\n", []),
    "x-beyond-plate-negative": ("calibrate-plate", "[sweep]\nx_list = 0mm, -160mm\n", []),
    # 2*pi*index*thickness/wavelength overflows, so every plate phase would be inf or nan
    "plate-scale-overflow": ("calibrate-plate", "[plate]\nwavelength = 5e-324\n", []),
    "plate-scale-overflow-x": (
        "phase-sweep",
        "[plate]\nwavelength = 1e-300\nthickness = 1e10\n[sweep]\nx_list = 1mm\n",
        [],
    ),
    # the scale is finite, but the phase at 150 mm overflows
    "plate-phase-overflow": (
        "calibrate-plate",
        "[plate]\nwavelength = 1e-307\nthickness = 1\n[sweep]\nx_list = 0mm, 150mm\n",
        [],
    ),
    "seed-flag-huge": ("phase-sweep", "", ["--seed", "123456789012345678901234567890"]),
    "seed-flag-2^64": ("counts-demo", "", ["--seed", "18446744073709551616"]),
    "seed-key-2^64": ("counts-demo", "[experiment]\nseed = 18446744073709551616\n", []),
    # tomography always samples multinomially, so the key would be ignored
    "tomography-poisson": ("tomography-demo", "[experiment]\nsampling = poisson\n", []),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_config_exits_2_before_running(case, tmp_path, capsys, monkeypatch):
    def run_scenario(cfg):
        raise AssertionError("the scenario ran before the config was rejected")

    monkeypatch.setattr("sloccsim.cli.run_scenario", run_scenario)
    command, body, extra = OUT_OF_RANGE[case]
    config = quick_config(tmp_path, body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([command, "--config", config, *extra], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


BOM = b"\xef\xbb\xbf"

# case id -> config file bytes that are not clean UTF-8 INI
DAMAGED_FILES = {
    "byte-ff": b"[experiment]\nshots = 5\xff0\n",
    "latin-1-degree": "[sweep]\nbeta_list = 45\xb0\n".encode("latin-1"),
    "line-without-equals": b"[experiment]\nshots 50\n",
    "key-before-header": b"shots = 50\n[experiment]\n",
    "bom-then-line-without-equals": BOM + b"[experiment]\nshots 50\n",
    "duplicate-key": b"[experiment]\nshots = 50\nshots = 40\n",
    "duplicate-section": b"[experiment]\nshots = 50\n[experiment]\nseed = 1\n",
}


@pytest.mark.parametrize("case", DAMAGED_FILES)
def test_damaged_config_file_exits_2_with_one_line(case, tmp_path, capsys, monkeypatch):
    def run_scenario(cfg):
        raise AssertionError("the scenario ran on a damaged config file")

    monkeypatch.setattr("sloccsim.cli.run_scenario", run_scenario)
    config = tmp_path / "run.ini"
    config.write_bytes(DAMAGED_FILES[case])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["counts-demo", "--config", str(config)], capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"config error: [^\n]*\n", err), err


@pytest.mark.parametrize("case", DAMAGED_FILES)
def test_damaged_config_file_error_names_its_path(case, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_bytes(DAMAGED_FILES[case])
    code, _, err = run_cli(["counts-demo", "--config", str(config)], capsys)
    assert code == 2
    assert str(config) in err
    assert "<string>" not in err


@pytest.mark.parametrize(
    "name, reason", [("absent.ini", "No such file or directory"), ("", "Is a directory")]
)
def test_unreadable_config_file_names_its_path_once(name, reason, tmp_path, capsys, monkeypatch):
    def run_scenario(cfg):
        raise AssertionError("the scenario ran without its config file")

    monkeypatch.setattr("sloccsim.cli.run_scenario", run_scenario)
    path = str(tmp_path / name)  # an empty name leaves the directory itself
    code, out, err = run_cli(["phase-sweep", "--config", path], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: cannot read config file {path}: {reason}\n"


# key -> (a value its parser rejects, the reason printed after "[section] key: ");
# scenario and sampling are strings that resolve checks
UNPARSABLE = {
    "seed": ("12x", "must be an integer, got '12x'"),
    "shots": ("5000.0", "must be an integer, got '5000.0'"),
    "bootstrap": ("lots", "must be an integer, got 'lots'"),
    "beta_list": ("45deg, abc", "cannot parse angle value 'abc'"),
    "phi_list": ("0, 90 degrees", "cannot parse angle value '90 degrees'"),
    "x_list": ("1mm, 2 feet", "cannot parse length value '2 feet'"),
    "p_list": (" , ", "empty list value ','"),
    "visibility": ("inf", "numeric value 'inf' is not finite"),
    "white_weight": ("nan", "numeric value 'nan' is not finite"),
    "dephasing_weight": ("half", "cannot parse numeric value 'half'"),
    "thickness": ("200 um um", "cannot parse length value '200 um um'"),
    "index": ("1,5", "cannot parse numeric value '1,5'"),
    "ambient_index": ("", "cannot parse numeric value ''"),
    "radius": ("-infmm", "length value '-infmm' is not finite"),
    "wavelength": ("800 nanometers", "cannot parse length value '800 nanometers'"),
}


@pytest.mark.parametrize(
    "section, key", [entry for entry in _SCHEMA if entry[1] not in ("scenario", "sampling")]
)
def test_unparsable_value_names_its_section_and_key(section, key, tmp_path, capsys, monkeypatch):
    def run_scenario(cfg):
        raise AssertionError("the scenario ran on an unparsable value")

    monkeypatch.setattr("sloccsim.cli.run_scenario", run_scenario)
    text, reason = UNPARSABLE[key]
    config = quick_config(tmp_path, f"[{section}]\n{key} = {text}\n")
    code, out, err = run_cli(["phase-sweep", "--config", config], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: [{section}] {key}: {reason}\n"


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_byte_order_mark_does_not_change_the_csv(command, tmp_path, capsys):
    outputs = []
    for prefix in (b"", BOM):
        config = tmp_path / "run.ini"
        config.write_bytes(prefix + SMALL[command].encode("utf-8"))
        code, out, err = run_cli([command, "--config", str(config)], capsys)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


# subcommand -> (config, a [sweep] line it does not read): one file can serve several subcommands
UNREAD_LISTS = {
    "counts-demo": ("[experiment]\nshots = 500\n[sweep]\n", "p_list = 0.5\n"),
    "calibrate-plate": ("[sweep]\nx_list = 0mm, 1mm, 2mm\n", "phi_list = 1\n"),
    "mixture-sweep": ("[experiment]\nshots = 500\n[sweep]\np_list = 0, 0.5, 1\n", "x_list = 1mm\n"),
}


@pytest.mark.parametrize("command", UNREAD_LISTS)
def test_a_list_the_subcommand_does_not_read_leaves_its_csv_alone(command, tmp_path, capsys):
    body, unread = UNREAD_LISTS[command]
    outputs = []
    for text in (body, body + unread):
        code, out, err = run_cli([command, "--config", quick_config(tmp_path, text)], capsys)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("case", ["directory", "under-regular-file"])
def test_unwritable_out_exits_2(case, tmp_path, capsys):
    config = quick_config(tmp_path, SMALL["calibrate-plate"])
    (tmp_path / "plain.txt").write_text("", encoding="utf-8")
    out = tmp_path if case == "directory" else tmp_path / "plain.txt" / "table.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(
            ["calibrate-plate", "--config", config, "--out", str(out)], capsys
        )
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"config error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["directory", "under-regular-file"])
def test_unwritable_out_is_caught_before_computing(case, tmp_path, capsys, monkeypatch):
    def run_scenario(cfg):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr("sloccsim.cli.run_scenario", run_scenario)
    config = quick_config(tmp_path, SMALL["phase-sweep"])
    (tmp_path / "plain.txt").write_text("", encoding="utf-8")
    out = tmp_path if case == "directory" else tmp_path / "plain.txt" / "table.csv"
    code, stdout, err = run_cli(["phase-sweep", "--config", config, "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"config error: cannot write {out}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("command", ["phase-sweep", "mixture-sweep"])
def test_failed_run_leaves_no_out_file(command, to_file, tmp_path, capsys):
    # the parent directory is made before the run, the file only after it succeeds;
    # rows stream to the output, so no header may come before the exit 3
    config = quick_config(tmp_path, "[experiment]\nshots = 1\nsampling = poisson\n")
    out = tmp_path / "made" / "table.csv"
    code, stdout, err = run_cli([command, "--config", config, *(["--out", str(out)] if to_file else [])], capsys)
    assert code == 3, err
    assert stdout == ""
    assert out.parent.is_dir() == to_file
    assert not out.exists()


@pytest.mark.parametrize(
    "command, row_pattern",
    [
        ("phase-sweep", r"beta \S+ deg, phi \S+ rad"),
        ("beta-sweep", r"beta \S+ deg, phi \S+ rad"),
        ("mixture-sweep", r"p \S+"),
    ],
)
def test_empty_poisson_row_exits_3_naming_the_row(command, row_pattern, tmp_path, capsys):
    # one expected coincidence per row: some Poisson rows record none
    config = quick_config(
        tmp_path, "[experiment]\nshots = 1\nsampling = poisson\nbootstrap = 100\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([command, "--config", config], capsys)
    assert code == 3
    assert out == ""
    pattern = rf"error: row \d+ \({row_pattern}\): cannot estimate from zero counts\n"
    assert re.fullmatch(pattern, err), err


def test_empty_poisson_row_past_the_first_blocks_is_named_by_its_row(tmp_path, capsys):
    # 20 x 40 = 800 rows, seven expected coincidences per row: at this seed the first
    # row that records none lies in the estimators' third block of BLOCK_ROWS rows
    betas = np.linspace(0.1, 1.4, 20).tolist()
    phis = np.linspace(-3.0, 3.0, 40).tolist()
    config = quick_config(
        tmp_path,
        "[experiment]\nshots = 7\nsampling = poisson\nseed = 5\n[sweep]\n"
        f"beta_list = {', '.join(map(repr, betas))}\nphi_list = {', '.join(map(repr, phis))}\n",
    )
    code, out, err = run_cli(["counts-demo", "--config", config], capsys)
    assert (code, err) == (0, "")
    totals = [int(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
    row = totals.index(0)  # counts-demo draws the tallies the phase sweep estimates from
    assert row >= 2 * sweeps.BLOCK_ROWS
    code, out, err = run_cli(["phase-sweep", "--config", config], capsys)
    assert (code, out) == (3, "")
    beta, phi = betas[row // len(phis)], phis[row % len(phis)]
    name = f"beta {math.degrees(beta):.12g} deg, phi {phi:.12g} rad"
    assert err == f"error: row {row} ({name}): cannot estimate from zero counts\n"


# 2**16 betas by 2**16 phases or displacements: 2**32 rows, one more than a uint32 row index names
HUGE_GRID = {
    "phi": ("phase-sweep", "phi_list"),
    "x": ("phase-sweep", "x_list"),
    "counts": ("counts-demo", "phi_list"),
    "tomography": ("tomography-demo", "phi_list"),
}


@pytest.mark.parametrize("case", HUGE_GRID)
def test_a_grid_of_2_to_the_32_rows_exits_2_before_computing(case, tmp_path, capsys, monkeypatch):
    def computed(*args):
        raise AssertionError("a config of 2**32 rows was computed on")

    # neither the per-beta checks nor the plate phases of the displacements may run
    monkeypatch.setattr("sloccsim.config.PreparationSettings", computed)
    monkeypatch.setattr("sloccsim.config.phase_from_displacement", computed)
    monkeypatch.setattr("sloccsim.cli.run_scenario", computed)
    command, key = HUGE_GRID[case]
    values = ", ".join(["0.5"] * 2**16)
    config = quick_config(tmp_path, f"[sweep]\nbeta_list = {values}\n{key} = {values}\n")
    code, out, err = run_cli([command, "--config", config], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "config error: the run has 4294967296 rows, more than 2**32 - 1: "
        "a row's seed holds its index in one uint32 word\n"
    )


def test_zero_visibility_still_runs_raw_count_scenarios(tmp_path, capsys):
    # a fully spoiled state has well-defined counts and tomography; only the estimators need V > 0.
    # A subnormal visibility rounds the noisy state to that same spoiled one.
    for command in ("counts-demo", "tomography-demo"):
        outputs = []
        for visibility in ("0", "1e-310", "5e-324"):
            config = quick_config(tmp_path, SMALL[command] + f"[noise]\nvisibility = {visibility}\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli([command, "--config", config], capsys)
            assert (code, err) == (0, "")
            assert out.count("\n") >= 2
            outputs.append(out)
        assert outputs[1] == outputs[2] == outputs[0]


def test_poisson_totals_above_int64_are_summed_exactly(tmp_path, capsys):
    # each channel fits int64, their sum does not: an int64 row sum would wrap negative
    config = quick_config(
        tmp_path, "[experiment]\nshots = 9223372036854775807\nsampling = poisson\n"
    )
    code, out, err = run_cli(["counts-demo", "--config", config, "--seed", "1"], capsys)
    assert code == 0, err
    row = out.splitlines()[1].split(",")
    channels = [int(v) for v in row[2:6]]
    assert channels == [
        4558651628037387264,
        53034389640990744,
        53034389249440512,
        4558651630753435136,
    ]
    assert int(row[6]) == sum(channels) == 9223372037681253656 > 2**63 - 1
    code, out, err = run_cli(["phase-sweep", "--config", config, "--seed", "1"], capsys)
    assert code == 0, err
    assert out.count("\n") > 1


def test_largest_u64_seed_is_accepted(tmp_path, capsys):
    config = quick_config(tmp_path, SMALL["counts-demo"])
    code, _, err = run_cli(
        ["counts-demo", "--config", config, "--seed", str(2**64 - 1)], capsys
    )
    assert code == 0, err


def _modules_after_cli_import(package):
    """The modules of ``package`` that ``import sloccsim.cli`` loads in a fresh interpreter."""
    src = str(Path(sloccsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sloccsim.cli, sys; "
        f"print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cli_import_does_not_load_scipy():
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_does_not_load_numpy_random():
    # numpy.random costs a cold start about 10 ms; only the samplers import it, when they run
    assert _modules_after_cli_import("numpy.random") == "[]"


def _cli_process(tmp_path, command, **popen_args):
    """``python -m sloccsim`` on a 100 x 60 grid whose CSV, about 200 KB, passes a 64 KiB pipe buffer."""
    betas = ", ".join(f"{0.9 * k:g}deg" for k in range(100))
    phis = ", ".join(f"{6 * k}deg" for k in range(60))
    config = quick_config(tmp_path, f"[experiment]\nshots = 100\n[sweep]\nbeta_list = {betas}\nphi_list = {phis}\n")
    src = str(Path(sloccsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "sloccsim", command, "--config", config],
        env=env, stderr=subprocess.PIPE, text=True, **popen_args,
    )


def test_a_closed_stdout_pipe_ends_quietly_with_141(tmp_path):
    with _cli_process(tmp_path, "counts-demo", stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == "beta_deg,phi_rad,n13,n14,n23,n24,total\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_device_is_one_config_error(tmp_path):
    with open("/dev/full", "w") as full, _cli_process(tmp_path, "counts-demo", stdout=full) as proc:
        err = proc.stderr.read()
    assert proc.returncode == 2
    assert err == "config error: cannot write standard output: [Errno 28] No space left on device\n"


def test_a_stdout_closed_at_start_is_one_config_error(tmp_path):
    # the child closes its inherited fd 1 before exec, as `sloccsim counts-demo >&-` does
    with _cli_process(tmp_path, "counts-demo", preexec_fn=lambda: os.close(1)) as proc:
        err = proc.stderr.read()
    assert proc.returncode == 2
    assert err == "config error: cannot write standard output: it is closed\n"


CLOSED_STDERR_FAILURES = {
    # (subcommand and flags, config body, stdout is /dev/full, exit code): each reaches one of main's messages
    "config": (["phase-sweep", "--seed", "-1"], SMALL["phase-sweep"], False, 2),
    "numerical": (["phase-sweep"], "[experiment]\nshots = 1\nsampling = poisson\n", False, 3),
    "full-stdout": (["counts-demo"], SMALL["counts-demo"], True, 2),
}


def _close_stderr():
    os.close(2)  # Python then starts with sys.stderr None


def _read_only_stderr():
    # fd 2 open for reading only, as when the shell opened a `python` launcher script there
    os.close(2)
    os.set_inheritable(os.open(os.devnull, os.O_RDONLY), True)  # the lowest free descriptor: 2


@pytest.mark.parametrize("stderr", [_close_stderr, _read_only_stderr], ids=["closed", "read-only"])
@pytest.mark.parametrize("case", CLOSED_STDERR_FAILURES)
def test_a_closed_stderr_keeps_the_documented_exit_code(case, stderr, tmp_path):
    argv, body, full, code = CLOSED_STDERR_FAILURES[case]
    if full and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    src = str(Path(sloccsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = Path("/dev/full") if full else tmp_path / "out.csv"
    with open(out, "w") as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "sloccsim", *argv, "--config", quick_config(tmp_path, body)],
            env=env, stdout=stdout, preexec_fn=stderr,
        )
    assert result.returncode == code
    if not full:
        assert out.read_text(encoding="utf-8") == ""  # the message is dropped, not written to stdout


def test_a_closed_stdout_is_caught_before_computing(tmp_path, capsys, monkeypatch):
    def run_scenario(cfg):
        raise AssertionError("the sweep ran before stdout was checked")

    monkeypatch.setattr("sloccsim.cli.run_scenario", run_scenario)
    monkeypatch.setattr(sys, "stdout", None)
    code = main(["phase-sweep", "--config", quick_config(tmp_path, SMALL["phase-sweep"])])
    assert code == 2
    assert capsys.readouterr().err == "config error: cannot write standard output: it is closed\n"


def test_one_parser_serves_every_call():
    assert build_parser() is build_parser()


def test_back_to_back_calls_write_what_a_fresh_process_writes(tmp_path, capsys):
    # the shared parser carries no flag or seed from one call into the next
    config = quick_config(tmp_path, SMALL["phase-sweep"])
    src = str(Path(sloccsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    flag_sets = (["--ideal", "--seed", "7"], [], ["--seed", "7"], ["--ideal"], [])
    outputs = []
    for flags in flag_sets:
        code, out, err = run_cli(["phase-sweep", "--config", config, *flags], capsys)
        assert code == 0, err
        outputs.append(out)
    assert len(set(outputs)) == 4
    for flags, out in zip(flag_sets, outputs):
        fresh = subprocess.run(
            [sys.executable, "-m", "sloccsim", "phase-sweep", "--config", config, *flags],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert fresh.stdout == out


EDGE_VALUES = ("nan", "inf", "5e-324", "1e-310", "0", "-1", "90deg", "200mm")


def _numbers(*typical):
    return st.sampled_from(EDGE_VALUES + typical)


def _lists(item):
    return st.lists(item, min_size=1, max_size=3).map(", ".join)


# key -> strategy for its text; shots stays small so that every run is quick
KEY_TEXTS = {
    "scenario": st.sampled_from(SCENARIOS + ("warp-drive",)),
    "seed": st.integers(-1, 2**64).map(str),
    "shots": st.integers(-1, 30).map(str),
    "bootstrap": st.integers(99, 101).map(str),
    "sampling": st.sampled_from(SAMPLING_MODES + ("jackknife",)),
    "beta_list": _lists(_numbers("45deg", "10deg", "0.001")),
    "phi_list": _lists(_numbers("1", "-1", "180deg")),
    "x_list": _lists(_numbers("1mm", "150mm")),
    "p_list": _lists(_numbers("0.5", "1")),
    "visibility": _numbers("0.977", "3e-308", "1"),
    "white_weight": _numbers("0.3", "1"),
    "dephasing_weight": _numbers("0.7", "1"),
    "thickness": _numbers("199.94um", "1", "1e10"),
    "index": _numbers("1.5", "1"),
    "ambient_index": _numbers("1", "1.2"),
    "radius": _numbers("102.36mm"),
    "wavelength": _numbers("800nm", "1e-300", "1e-307"),
}


@st.composite
def config_texts(draw):
    sections = {"experiment": [f"shots = {draw(KEY_TEXTS['shots'])}"]}
    for section, key in _SCHEMA:
        if key != "shots" and (text := draw(st.none() | KEY_TEXTS[key])) is not None:
            sections.setdefault(section, []).append(f"{key} = {text}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


FILE_DAMAGE = ("byte-ff", "no-equals", "key-before-header", "duplicate-line")


@st.composite
def config_files(draw):
    """(file bytes, damage): drawn INI text, maybe after a BOM, with at most one file-level defect."""
    lines = draw(config_texts()).splitlines(keepends=True)
    damage = draw(st.none() | st.sampled_from(FILE_DAMAGE))
    at = draw(st.integers(0, len(lines) - 1))
    if damage == "no-equals":
        lines.insert(at, "shots 10\n")
    elif damage == "key-before-header":
        lines.insert(0, "seed = 1\n")
    elif damage == "duplicate-line":  # a duplicated key or section header
        lines.insert(at, lines[at])
    body = "".join(lines).encode("utf-8")
    if damage == "byte-ff":  # never valid in UTF-8
        cut = draw(st.integers(0, len(body)))
        body = body[:cut] + b"\xff" + body[cut:]
    return (BOM if draw(st.booleans()) else b"") + body, damage


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(ALL_COMMANDS), config_file=config_files(), ideal=st.booleans())
@example(
    command="phase-sweep",
    config_file=(
        b"[experiment]\nshots = 10\n[sweep]\nx_list = 1mm\n[plate]\nthickness = 1e10\nwavelength = 1e-300\n",
        None,
    ),
    ideal=False,
)
@example(command="counts-demo", config_file=(BOM + b"[experiment]\nshots = 10\n", None), ideal=False)
@example(command="counts-demo", config_file=(b"[experiment]\nshots = 1\xff0\n", "byte-ff"), ideal=False)
@example(command="counts-demo", config_file=(b"[experiment]\nshots 10\n", "no-equals"), ideal=False)
@example(
    command="counts-demo",
    config_file=(b"seed = 1\n[experiment]\nshots = 10\n", "key-before-header"),
    ideal=False,
)
def test_every_cli_run_exits_0_2_or_3_with_one_line_on_failure(command, config_file, ideal):
    body, damage = config_file
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.ini"
        config.write_bytes(body)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command, "--config", str(config), *["--ideal"] * ideal])
    if code == 0:
        assert err.getvalue() == ""
        assert not re.search(r"nan|inf", out.getvalue())
    else:
        assert code in (2, 3)
        assert out.getvalue() == ""
        assert re.fullmatch(r"(config )?error: [^\n]*\n", err.getvalue())
    if damage is not None:  # a file that is not clean UTF-8 INI is a config problem
        assert code == 2
