"""Tests for config parsing, validation, and persistence."""

import dataclasses
import json

import pytest

from skiprec import config as cfgmod
from skiprec.errors import ConfigError


class TestDefaults:
    def test_default_config_validates(self):
        cfgmod.validate_run_config(cfgmod.RunConfig())

    def test_full_scale_presets_validate(self):
        for name, model in cfgmod.full_scale_presets().items():
            cfg = cfgmod.RunConfig(model=model)
            assert cfgmod.validate_run_config(cfg) is cfg, name


class TestValidation:
    @pytest.mark.parametrize("section,field,value", [
        ("model", "d_model", 0),
        ("model", "heads", 3),            # 64 is not divisible by 3
        ("model", "e1_blocks", 0),
        ("model", "e2_blocks", -1),
        ("model", "kernel_e1", 4),
        ("model", "kernel_e2", 0),
        ("model", "ffn_multiple", 0),
        ("model", "decoder_blocks", 0),
        ("model", "vocab_size", 1),
        ("model", "feature_dim", 6),
        ("model", "dropout", 1.0),
        ("model", "dropout", -0.1),
        ("loss", "ctc_weight", 1.5),
        ("loss", "blank_threshold", 0.0),
        ("loss", "blank_threshold", 1.0),
        ("loss", "split_mode", 0),
        ("loss", "split_mode", 6),
        ("optimizer", "peak_lr", 0.0),
        ("optimizer", "warmup_steps", 0),
        ("training", "epochs", -1),
        ("training", "batch_size", 0),
        ("training", "eval_every", 0),
    ])
    def test_bad_value_rejected(self, section, field, value):
        cfg = cfgmod.RunConfig()
        patched = dataclasses.replace(
            cfg, **{section: dataclasses.replace(getattr(cfg, section), **{field: value})})
        with pytest.raises(ConfigError):
            cfgmod.validate_run_config(patched)

    def test_zero_epochs_is_allowed(self):
        cfg = cfgmod.RunConfig(training=cfgmod.TrainConfig(epochs=0))
        cfgmod.validate_run_config(cfg)


class TestDictConversion:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.run_config_from_dict({"models": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.run_config_from_dict({"model": {"dmodel": 32}})

    @pytest.mark.parametrize("section,key,value", [
        ("loss", "inter_weight", 0.5), ("loss", "final_weight", 0.5),
        ("optimizer", "beta1", 0.9), ("optimizer", "beta2", 0.999), ("optimizer", "eps", 1e-8),
    ])
    def test_constant_settings_are_not_config_keys(self, section, key, value):
        # These are module constants (autodiff.ADAM_*, model.STAGE_WEIGHT),
        # so a file naming one, even at its old default, is rejected.
        with pytest.raises(ConfigError, match=f"unknown keys in config section '{section}'"):
            cfgmod.run_config_from_dict({section: {key: value}})

    @pytest.mark.parametrize("section,key,value", [
        ("model", "d_model", "64"),
        ("model", "e1_blocks", 2.5),
        ("training", "epochs", True),
        ("loss", "split_mode", 2.0),
    ])
    def test_value_of_the_wrong_type_is_rejected_by_name(self, section, key, value):
        # A bool is not an int, and a float is not an int even when integral.
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be int, got "):
            cfgmod.run_config_from_dict({section: {key: value}})

    def test_an_int_is_a_valid_float(self):
        assert cfgmod.run_config_from_dict({"model": {"dropout": 0}}).model.dropout == 0

    def test_non_string_keys_are_named_as_unknown(self):
        with pytest.raises(ConfigError, match=r"section 'model': \['x', 1\]"):
            cfgmod.run_config_from_dict({"model": {1: 2, "x": 3}})
        with pytest.raises(ConfigError, match=r"unknown config sections: \[2\]"):
            cfgmod.run_config_from_dict({2: {}})

    def test_non_dict_root_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.run_config_from_dict([1, 2])

    def test_non_dict_section_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.run_config_from_dict({"model": 7})

    def test_partial_overrides_keep_defaults(self):
        cfg = cfgmod.run_config_from_dict({"model": {"d_model": 32, "heads": 2}})
        assert cfg.model.d_model == 32
        assert cfg.model.heads == 2
        assert cfg.model.vocab_size == cfgmod.ModelConfig().vocab_size
        assert cfg.loss == cfgmod.LossConfig()

    def test_invalid_combination_rejected_at_parse(self):
        with pytest.raises(ConfigError):
            cfgmod.run_config_from_dict({"model": {"d_model": 10, "heads": 4}})


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        cfg = cfgmod.RunConfig(
            model=cfgmod.ModelConfig(d_model=32, heads=2, kernel_e1=7),
            loss=cfgmod.LossConfig(split_mode=4, blank_threshold=0.5),
            optimizer=cfgmod.OptimizerConfig(peak_lr=2e-3),
            training=cfgmod.TrainConfig(epochs=3, seed=11))
        path = tmp_path / "run.json"
        cfgmod.save_run_config(cfg, path)
        assert cfgmod.load_run_config(path) == cfg

    def test_saved_file_is_plain_json(self, tmp_path):
        path = tmp_path / "run.json"
        cfgmod.save_run_config(cfgmod.RunConfig(), path)
        raw = json.loads(path.read_text())
        assert set(raw) == {"model", "loss", "optimizer", "training"}

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cfgmod.load_run_config(path)

    def test_loading_applies_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"loss": {"split_mode": 9}}))
        with pytest.raises(ConfigError):
            cfgmod.load_run_config(path)
