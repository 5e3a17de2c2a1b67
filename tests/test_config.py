"""INI configuration parsing: defaults, overrides, and strict rejection.

The keys are the settings dataclasses' fields, so a fuzz test over every key
checks that the parser and the dataclass rules together accept only configs
the library can run.
"""

import configparser
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import postcast as pc
from postcast.cli import main
from postcast.config import _PARSERS, _SECTIONS, load_config


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_stock_configuration_values():
    cfg = pc.RunConfig()
    assert cfg.schedule.t == 1000
    assert cfg.schedule.beta_1 == 1e-4
    assert cfg.schedule.beta_t == 0.02
    assert cfg.kernel.size == 9
    assert cfg.kernel.init_mean == 0.6
    assert cfg.kernel.init_std == 0.1
    assert cfg.guidance.lr == 2e-4
    assert cfg.guidance.C == 0.0
    assert cfg.guidance.s_max == 1e6
    assert cfg.guidance.fixed_scale is None
    assert cfg.guidance.fixed_kernel is False
    assert cfg.data.height == 64 and cfg.data.width == 64
    assert cfg.data.count == 30
    assert cfg.data.blur_family == "varied"
    assert cfg.eval.tau is None
    assert cfg.eval.poolings == (1, 4, 16)


def test_no_path_and_empty_file_mean_defaults(tmp_path):
    assert load_config(None) == pc.RunConfig()
    assert load_config(write(tmp_path, "")) == pc.RunConfig()


def test_overrides_take_effect(tmp_path):
    path = write(
        tmp_path,
        "[schedule]\nt = 250\nbeta_t = 0.06\n\n"
        "[kernel]\nsize = 5\ninit_mean = 0.006\n\n"
        "[guidance]\nc = -220.0\ns_max = 3500.0\nfixed_kernel = true\n"
        "fixed_scale = none\nlr = 0.005\n\n"
        "[data]\nblur_family = motion\nseverity = 4\n\n"
        "[eval]\ntau = 0.7\npoolings = 1, 8\n",
    )
    cfg = load_config(path)
    assert cfg.schedule.t == 250
    assert cfg.schedule.beta_t == 0.06
    assert cfg.schedule.beta_1 == 1e-4  # untouched key keeps its default
    assert cfg.kernel.size == 5
    assert cfg.kernel.init_mean == 0.006
    assert cfg.guidance.C == -220.0
    assert cfg.guidance.s_max == 3500.0
    assert cfg.guidance.fixed_kernel is True
    assert cfg.guidance.fixed_scale is None
    assert cfg.guidance.lr == 0.005
    assert cfg.data.blur_family == "motion"
    assert cfg.data.severity == 4
    assert cfg.eval.tau == 0.7
    assert cfg.eval.poolings == (1, 8)


def test_poolings_accept_spaces_or_commas(tmp_path):
    for raw in ("1,4,16", "1 4 16", "1, 4, 16"):
        cfg = load_config(write(tmp_path, f"[eval]\npoolings = {raw}\n"))
        assert cfg.eval.poolings == (1, 4, 16)


def test_fixed_scale_numeric_value(tmp_path):
    cfg = load_config(write(tmp_path, "[guidance]\nfixed_scale = 3500\n"))
    assert cfg.guidance.fixed_scale == 3500.0


def test_unknown_key_suggests_the_close_match(tmp_path, capsys):
    with pytest.raises(pc.ConfigError, match="did you mean 's_max'"):
        load_config(write(tmp_path, "[guidance]\ns_mx = 10\n"))
    with pytest.raises(pc.ConfigError, match="did you mean"):
        load_config(write(tmp_path, "[schedul]\nt = 100\n"))
    # Retired keys, now constants: a file that still sets one exits 2 with
    # the closest key, or the section's keys, before any output.
    for section, line, hint in [
        ("guidance", "s_min = 0.0", "did you mean 's_max'?"),
        ("guidance", "loss_floor = 1e-12", "known: c, fixed_kernel, fixed_scale, lr, s_max"),
        ("data", "background_noise = 0.02", "known: blur_family, cells_mean, count"),
        ("eval", "tau_quantile = 0.99", "known: poolings, tau"),
    ]:
        ini = write(tmp_path, f"[{section}]\n{line}\n")
        assert main(["gen", "--out", str(tmp_path / "out"), "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert f"unknown key {line.split()[0]!r} in [{section}]; {hint}" in err
        assert not (tmp_path / "out").exists()


def test_unknown_key_without_match_lists_known_keys(tmp_path, capsys):
    with pytest.raises(pc.ConfigError, match="known:"):
        load_config(write(tmp_path, "[eval]\nzzz = 1\n"))
    # Retired keys: a file that still sets one is rejected before any output.
    for line in ("lr_schedule = cosine", "clamp_x0 = true"):
        ini = write(tmp_path, f"[guidance]\n{line}\n")
        assert main(["gen", "--out", str(tmp_path / "out"), "--config", str(ini)]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_type_and_range_errors(tmp_path):
    with pytest.raises(pc.ConfigError, match="schedule.t"):
        load_config(write(tmp_path, "[schedule]\nt = soon\n"))
    with pytest.raises(pc.ConfigError, match="t must be >= 2"):
        load_config(write(tmp_path, "[schedule]\nt = 1\n"))
    with pytest.raises(pc.ConfigError, match="beta_1"):
        load_config(write(tmp_path, "[schedule]\nbeta_1 = 2.0\n"))
    with pytest.raises(pc.ConfigError, match=r"\[schedule\]: every beta must be finite"):
        load_config(write(tmp_path, "[schedule]\nbeta_t = 1.5\n"))
    with pytest.raises(pc.ConfigError, match="poolings"):
        load_config(write(tmp_path, "[eval]\npoolings = 0\n"))
    with pytest.raises(pc.ConfigError, match="seed must be >= 0"):
        load_config(write(tmp_path, "[data]\nseed = -1\n"))
    with pytest.raises(pc.ConfigError, match="count must be >= 1"):
        load_config(write(tmp_path, "[data]\ncount = 0\n"))
    with pytest.raises(pc.ConfigError, match="blur family"):
        load_config(write(tmp_path, "[data]\nblur_family = boxcar\n"))


def test_schedule_variances_must_not_decrease(tmp_path):
    with pytest.raises(pc.ConfigError, match="beta_1 <= beta_t"):
        load_config(write(tmp_path, "[schedule]\nbeta_1 = 0.05\nbeta_t = 0.02\n"))
    cfg = load_config(write(tmp_path, "[schedule]\nbeta_1 = 0.02\nbeta_t = 0.02\n"))
    assert cfg.schedule.beta_1 == cfg.schedule.beta_t


def test_readme_config_block_is_the_stock_configuration(tmp_path):
    """The README's documented config loads as the defaults and names every
    key of every section, so a key added or removed without a README edit
    fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Configuration\n.*?^```ini\n(.*?)^```", readme, re.S | re.M)[1]
    assert load_config(write(tmp_path, block)) == pc.RunConfig()
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    assert {section: sorted(parser[section]) for section in parser.sections()} == {
        section: sorted(f.name.lower() for f in fields(cls)) for section, cls in _SECTIONS.items()
    }


def test_every_settings_field_has_a_parser():
    """The parser is looked up by the field's annotation, so a new field with
    an unlisted annotation would be a key no config could set."""
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            assert f.type in _PARSERS, f"{section}.{f.name.lower()}: {f.type!r}"


def test_dataclass_level_validation_is_wrapped(tmp_path):
    """A value that parses but violates a dataclass invariant still raises
    ConfigError, not the bare ParameterError."""
    with pytest.raises(pc.ConfigError, match="invalid configuration"):
        load_config(write(tmp_path, "[kernel]\nsize = 4\n"))
    with pytest.raises(pc.ConfigError, match="invalid configuration"):
        load_config(write(tmp_path, "[guidance]\nlr = 0\n"))


@pytest.mark.parametrize("bounds", ["s_min = inf\ns_max = inf", "s_min = -inf\ns_max = -inf"])
def test_scale_range_must_hold_a_finite_scale(tmp_path, bounds):
    """The scale is clamped to [0, s_max]: the lower bound is the constant 0,
    so a range that still sets s_min is an unknown key; s_max = -inf would
    leave no scale at all, while s_max = inf leaves the scale unclamped from
    above."""
    with pytest.raises(pc.ConfigError, match="unknown key 's_min' in \\[guidance\\]"):
        load_config(write(tmp_path, f"[guidance]\n{bounds}\n"))
    with pytest.raises(pc.ConfigError, match="s_max must be >= 0"):
        load_config(write(tmp_path, "[guidance]\ns_max = -inf\n"))
    cfg = load_config(write(tmp_path, "[guidance]\ns_max = inf\n"))
    assert cfg.guidance.s_max == float("inf")


def test_missing_file_and_parse_garbage(tmp_path):
    with pytest.raises(pc.ConfigError, match="not found"):
        load_config(tmp_path / "absent.ini")
    with pytest.raises(pc.ConfigError, match="parse error"):
        load_config(write(tmp_path, "t = 5\n"))  # key outside any section
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes(b"[schedule]\nt = 10\n; \xff\n")
    with pytest.raises(pc.ConfigError, match=re.escape(f"{latin1} is not UTF-8")):
        load_config(latin1)


def test_varied_blurs_need_a_positive_severity(tmp_path):
    """varied cycles severities 1..severity, so severity 0 is rejected,
    naming both keys; a named family at severity 0 plants the identity."""
    with pytest.raises(pc.ConfigError, match="blur_family 'varied'.*severity must be >= 1"):
        load_config(write(tmp_path, "[data]\nseverity = 0\n"))
    cfg = load_config(write(tmp_path, "[data]\nblur_family = mixed\nseverity = 0\n"))
    assert (cfg.data.blur_family, cfg.data.severity) == ("mixed", 0)


def _value_for(key):
    # Every int key, t included, stays at or below 10 000 steps of schedule,
    # and size at 99: an accepted config builds a size x size kernel.
    top = 99 if key == "size" else 10_000
    return st.one_of(
        st.integers(-10, top).map(str),
        st.floats(0, 1).map(repr),  # where the schedule's variances live
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.text(alphabet="abcdefilmnorstuvy0123456789.,+- ", max_size=6),
    )


def _section_settings(section):
    keys = [f.name.lower() for f in fields(_SECTIONS[section])]
    return st.tuples(
        st.just(section), st.fixed_dictionaries({}, optional={k: _value_for(k) for k in keys})
    )


# One section per file: the rules of different sections never interact, and a
# single section loads often enough for the build checks below to run.
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_SECTIONS)).flatmap(_section_settings))
def test_fuzzed_config_loads_only_what_the_library_runs(drawn):
    """Any value of any key either loads or raises ConfigError, and a config
    that loads builds the schedule, the field spec and a finite kernel."""
    section, keys = drawn
    text = f"[{section}]\n" + "".join(f"{key} = {raw}\n" for key, raw in keys.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(text)
        try:
            cfg = load_config(path)
        except pc.ConfigError:
            return
    assert isinstance(cfg, pc.RunConfig)
    pc.linear_schedule(cfg.schedule.t, cfg.schedule.beta_1, cfg.schedule.beta_t)
    pc.FieldSpec(
        height=cfg.data.height,
        width=cfg.data.width,
        cells_mean=cfg.data.cells_mean,
        seed=cfg.data.seed,
    )
    kernel = pc.init_kernel(cfg.kernel.size, cfg.kernel.init_mean, cfg.kernel.init_std, seed=0)
    assert np.isfinite(kernel.params).all()
