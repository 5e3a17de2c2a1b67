"""INI configuration parsing: defaults, overrides, and strict rejection."""

import pytest

import postcast as pc
from postcast.config import config_as_dict, load_config


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_stock_configuration_values():
    cfg = pc.default_config()
    assert cfg.schedule.t == 1000
    assert cfg.schedule.beta_1 == 1e-4
    assert cfg.schedule.beta_t == 0.02
    assert cfg.kernel.size == 9
    assert cfg.kernel.init_mean == 0.6
    assert cfg.kernel.init_std == 0.1
    assert cfg.guidance.lr == 2e-4
    assert cfg.guidance.lr_schedule == "cosine"
    assert cfg.guidance.C == 0.0
    assert cfg.guidance.s_min == 0.0
    assert cfg.guidance.fixed_scale is None
    assert cfg.guidance.fixed_kernel is False
    assert cfg.guidance.clamp_x0 is True
    assert cfg.data.height == 64 and cfg.data.width == 64
    assert cfg.data.count == 30
    assert cfg.data.blur_family == "varied"
    assert cfg.eval.tau is None
    assert cfg.eval.tau_quantile == 0.99
    assert cfg.eval.poolings == (1, 4, 16)


def test_no_path_and_empty_file_mean_defaults(tmp_path):
    assert load_config(None) == pc.default_config()
    assert load_config(write(tmp_path, "")) == pc.default_config()


def test_overrides_take_effect(tmp_path):
    path = write(
        tmp_path,
        "[schedule]\nt = 250\nbeta_t = 0.06\n\n"
        "[kernel]\nsize = 5\ninit_mean = 0.006\n\n"
        "[guidance]\nc = -220.0\ns_max = 3500.0\nfixed_kernel = true\n"
        "fixed_scale = none\nlr_schedule = constant\n\n"
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
    assert cfg.guidance.lr_schedule == "constant"
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


def test_unknown_key_suggests_the_close_match(tmp_path):
    with pytest.raises(pc.ConfigError, match="did you mean 's_max'"):
        load_config(write(tmp_path, "[guidance]\ns_mx = 10\n"))
    with pytest.raises(pc.ConfigError, match="did you mean"):
        load_config(write(tmp_path, "[schedul]\nt = 100\n"))


def test_unknown_key_without_match_lists_known_keys(tmp_path):
    with pytest.raises(pc.ConfigError, match="known:"):
        load_config(write(tmp_path, "[eval]\nzzz = 1\n"))


def test_type_and_range_errors(tmp_path):
    with pytest.raises(pc.ConfigError, match="schedule.t"):
        load_config(write(tmp_path, "[schedule]\nt = soon\n"))
    with pytest.raises(pc.ConfigError, match="t must be >= 2"):
        load_config(write(tmp_path, "[schedule]\nt = 1\n"))
    with pytest.raises(pc.ConfigError, match="beta_1"):
        load_config(write(tmp_path, "[schedule]\nbeta_1 = 2.0\n"))
    with pytest.raises(pc.ConfigError, match="poolings"):
        load_config(write(tmp_path, "[eval]\npoolings = 0\n"))
    with pytest.raises(pc.ConfigError, match="seed must be >= 0"):
        load_config(write(tmp_path, "[data]\nseed = -1\n"))
    with pytest.raises(pc.ConfigError, match="blur family"):
        load_config(write(tmp_path, "[data]\nblur_family = boxcar\n"))
    with pytest.raises(pc.ConfigError):
        load_config(write(tmp_path, "[guidance]\nlr_schedule = warmup\n"))


def test_dataclass_level_validation_is_wrapped(tmp_path):
    """A value that parses but violates a dataclass invariant still raises
    ConfigError, not the bare ParameterError."""
    with pytest.raises(pc.ConfigError, match="invalid configuration"):
        load_config(write(tmp_path, "[kernel]\nsize = 4\n"))
    with pytest.raises(pc.ConfigError, match="invalid configuration"):
        load_config(write(tmp_path, "[guidance]\nlr = 0\n"))


@pytest.mark.parametrize("bounds", ["s_min = inf\ns_max = inf", "s_min = -inf\ns_max = -inf"])
def test_scale_range_must_hold_a_finite_scale(tmp_path, bounds):
    """Both bounds at inf (or at -inf) would clamp every step's scale to an
    infinite value; an unbounded side alone is a valid range."""
    with pytest.raises(pc.ConfigError, match="s_min < inf and s_max > -inf"):
        load_config(write(tmp_path, f"[guidance]\n{bounds}\n"))
    cfg = load_config(write(tmp_path, "[guidance]\ns_min = -inf\ns_max = inf\n"))
    assert (cfg.guidance.s_min, cfg.guidance.s_max) == (float("-inf"), float("inf"))


def test_missing_file_and_parse_garbage(tmp_path):
    with pytest.raises(pc.ConfigError, match="not found"):
        load_config(tmp_path / "absent.ini")
    with pytest.raises(pc.ConfigError, match="parse error"):
        load_config(write(tmp_path, "t = 5\n"))  # key outside any section


def test_config_as_dict_mirrors_the_dataclasses():
    d = config_as_dict(pc.default_config())
    assert sorted(d) == ["data", "eval", "guidance", "kernel", "schedule"]
    assert d["schedule"]["t"] == 1000
    assert d["eval"]["poolings"] == [1, 4, 16]  # tuples flattened for JSON
    assert d["guidance"]["fixed_scale"] is None
