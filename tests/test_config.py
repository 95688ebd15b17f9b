"""Run-configuration parsing: strict keys, invariants, every field."""

from dataclasses import fields

import pytest

from ssmdet.config import ConfigError, RunConfig, load_config


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    assert cfg == RunConfig()
    assert cfg.lr_initial == 0.01
    assert cfg.lr_final == 0.0001
    assert cfg.momentum == 0.937
    assert cfg.warmup_epochs == 3
    assert cfg.input_size == 640


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_indivisible_input_size_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("input_size = 641\n")
    with pytest.raises(ConfigError, match="divisible by 32"):
        load_config(path)


@pytest.mark.parametrize("size", [0, -32, 16])
def test_input_size_below_32_rejected(tmp_path, size):
    path = tmp_path / "bad.cfg"
    path.write_text(f"input_size = {size}\n")
    with pytest.raises(ConfigError, match="must be positive and divisible by 32"):
        load_config(path)


def test_lr_ordering_enforced(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("lr_initial = 0.0001\nlr_final = 0.01\n")
    with pytest.raises(ConfigError, match="smaller than"):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_type_errors_name_the_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs = soon\n")
    with pytest.raises(ConfigError, match="epochs"):
        load_config(path)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("# comment\n\nseed = 5  # trailing\n")
    assert load_config(path).seed == 5


def test_load_sets_every_field(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "version = 1\n"
        "scale = s\nnum_classes = 5\ninput_size = 160\nseed = 11\n"
        "lr_initial = 0.02\nlr_final = 0.0002\nmomentum = 0.9\nwarmup_epochs = 1\n"
        "batch_size = 4\nepochs = 7\nconf_threshold = 0.5\nout_dir = x/y\n"
        "width_override = 0.125\ndepth_override = 0.5\n")
    want = RunConfig(scale="s", num_classes=5, input_size=160, seed=11,
                     lr_initial=0.02, lr_final=0.0002, momentum=0.9, warmup_epochs=1,
                     batch_size=4, epochs=7, conf_threshold=0.5, out_dir="x/y",
                     width_override=0.125, depth_override=0.5)
    assert load_config(path) == want
    assert all(getattr(want, f.name) != f.default for f in fields(RunConfig))


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v9.cfg"
    path.write_text("version = 9\n")
    with pytest.raises(ConfigError, match="version"):
        load_config(path)


@pytest.mark.parametrize("text,key", [
    ("num_classes = 0\n", "num_classes"),
    ("num_classes = -1\n", "num_classes"),
    ("seed = -1\n", "seed"),
])
def test_values_below_their_minimum_rejected_naming_the_key(tmp_path, text, key):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{key} -?\\d+ must be >= "):
        load_config(path)


@pytest.mark.parametrize("value", ["1", "2", "-0.1", "nan"])
def test_momentum_outside_unit_interval_rejected(tmp_path, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"momentum = {value}\n")
    with pytest.raises(ConfigError, match=r"^momentum \S+ must be in \[0, 1\)$"):
        load_config(path)


def test_momentum_zero_accepted(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("momentum = 0\n")
    assert load_config(path).momentum == 0.0


@pytest.mark.parametrize("key", ["width_override", "depth_override"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-0.5"])
def test_scale_override_not_finite_or_negative_rejected(tmp_path, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"^{key} \S+ must be finite and >= 0 "):
        load_config(path)


@pytest.mark.parametrize("key", ["width_override", "depth_override"])
def test_scale_override_zero_keeps_the_scale(tmp_path, key):
    path = tmp_path / "ok.cfg"
    path.write_text(f"{key} = 0\n")
    assert getattr(load_config(path), key) == 0.0


@pytest.mark.parametrize("value", ["-0.5", "-1e-9"])
def test_negative_lr_final_rejected(tmp_path, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"lr_final = {value}\n")
    with pytest.raises(ConfigError, match=r"^lr_final \S+ must be >= 0$"):
        load_config(path)


def test_zero_lr_final_accepted(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("lr_final = 0\n")
    assert load_config(path).lr_final == 0.0
