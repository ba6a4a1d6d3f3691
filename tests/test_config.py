import re
from pathlib import Path

import numpy as np
import pytest

from dvmer import config as cfgmod
from dvmer import training as tr
from dvmer.errors import ConfigError
from dvmer.features import FeaturePair
from dvmer.model import ModelConfig

README = Path(__file__).resolve().parents[1] / "README.md"
# the grams of a track extracted at the default FeatureConfig
DEFAULT_PAIR = FeaturePair(mel=np.zeros((128, 87)), coch=np.zeros((84, 87)))


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASE = "epochs = 4\nbatch_size = 8\n"


def test_parse_kv_ignores_comments_and_blanks(tmp_path):
    path = write(tmp_path, "# comment\n\nepochs = 4\n  batch_size =8 \n")
    assert cfgmod.parse_kv_file(path) == {"epochs": "4", "batch_size": "8"}


def test_parse_kv_rejects_bad_lines(tmp_path):
    with pytest.raises(ConfigError):
        cfgmod.parse_kv_file(write(tmp_path, "epochs 4\n"))
    with pytest.raises(ConfigError):
        cfgmod.parse_kv_file(write(tmp_path, "epochs = 4\nepochs = 5\n"))


def test_load_train_configs_defaults_and_types(tmp_path):
    path = write(tmp_path, BASE + "learning_rate = 5e-4\ncosine_annealing = false\nlayers = 3\n")
    train_cfg, model_cfg = cfgmod.load_train_configs(path)
    assert train_cfg.epochs == 4
    assert train_cfg.learning_rate == 5e-4
    assert train_cfg.cosine_annealing is False
    assert train_cfg.weight_decay == 1e-4  # default preserved
    assert model_cfg.layers == 3
    assert model_cfg.embed_dim == 128


def test_load_train_configs_requires_epochs(tmp_path):
    with pytest.raises(ConfigError, match="epochs"):
        cfgmod.load_train_configs(write(tmp_path, "batch_size = 8\n"))


def test_load_train_configs_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="not_a_key"):
        cfgmod.load_train_configs(write(tmp_path, BASE + "not_a_key = 1\n"))


def test_load_train_configs_rejects_bad_value(tmp_path):
    for key, raw, expected in (("epochs", "soon", "an integer"), ("learning_rate", "fast", "a number"),
                               ("use_pcl", "maybe", "a boolean")):
        values = {"epochs": "4", "batch_size": "8", key: raw}
        path = write(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))
        message = f"{path}: key {key!r}: expected {expected}, got {raw!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cfgmod.load_train_configs(path)


def test_overrides_apply_and_sync_cross_attention(tmp_path):
    path = write(tmp_path, BASE)
    train_cfg, model_cfg = cfgmod.load_train_configs(path)
    assert tr.model_config_for(train_cfg, DEFAULT_PAIR, model_cfg).cross_attention is True
    train_cfg, model_cfg = cfgmod.load_train_configs(path, overrides={"use_dsaf": False, "seed": 9})
    assert train_cfg.seed == 9
    assert train_cfg.use_dsaf is False
    assert tr.model_config_for(train_cfg, DEFAULT_PAIR, model_cfg).cross_attention is False


def test_an_override_may_mend_a_file_that_fails_alone(tmp_path):
    path = write(tmp_path, BASE + "queue_size = 4\n")  # below batch_size while the memory is on
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: queue_size 4 must be at least batch_size 8"):
        cfgmod.load_train_configs(path)
    train_cfg, _ = cfgmod.load_train_configs(path, overrides={"use_saml": False})
    assert (train_cfg.queue_size, train_cfg.use_saml) == (4, False)
    # an override that fails for its own reason is blamed, not the file
    with pytest.raises(ConfigError, match="^seed must not be negative, got -1$"):
        cfgmod.load_train_configs(path, overrides={"seed": -1})


def test_optional_none_value(tmp_path):
    path = write(tmp_path, BASE + "queue_momentum = 0.95\n")
    train_cfg, _ = cfgmod.load_train_configs(path)
    assert train_cfg.queue_momentum == 0.95
    path2 = write(tmp_path, BASE + "queue_momentum = none\n", name="r2.cfg")
    train_cfg2, _ = cfgmod.load_train_configs(path2)
    assert train_cfg2.queue_momentum is None


def test_config_hash_tracks_content(tmp_path):
    a = cfgmod.load_train_configs(write(tmp_path, BASE))
    b = cfgmod.load_train_configs(write(tmp_path, BASE, name="same.cfg"))
    c = cfgmod.load_train_configs(write(tmp_path, BASE + "seed = 3\n", name="diff.cfg"))
    assert cfgmod.run_config_hash(*a) == cfgmod.run_config_hash(*b)
    assert cfgmod.run_config_hash(*a) != cfgmod.run_config_hash(*c)


def test_config_hash_ignores_inference_only_knobs(tmp_path):
    plain = cfgmod.load_train_configs(write(tmp_path, BASE))
    ens = cfgmod.load_train_configs(write(tmp_path, BASE, name="e.cfg"), overrides={"ensemble_eval": True})
    assert cfgmod.run_config_hash(*plain) == cfgmod.run_config_hash(*ens)


def test_feature_config_overrides(tmp_path):
    path = write(tmp_path, "gt_fmin = 100\nframe_len = 2048\nhop = 1024\n", name="feat.cfg")
    cfg = cfgmod.load_feature_config(path)
    assert cfg.gt_fmin == 100.0
    assert cfg.frame_size == 2048
    assert cfg.hop_len == 1024
    with pytest.raises(ConfigError):
        cfgmod.load_feature_config(write(tmp_path, "bands = 12\n", name="bad.cfg"))


@pytest.mark.parametrize("key", ("epochs", "batch_size", "seed", "learning_rate", "use_pcl", "mode",
                                 "dimension", "embed_dim", "dropout"))
def test_none_is_rejected_for_a_required_value(tmp_path, key):
    values = {"epochs": "4", "batch_size": "8", key: "none"}
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    with pytest.raises(ConfigError, match=key):
        cfgmod.load_train_configs(write(tmp_path, text))


def test_feature_frame_geometry_accepts_none(tmp_path):
    cfg = cfgmod.load_feature_config(write(tmp_path, "frame_len = none\nhop = None\n", name="feat.cfg"))
    assert cfg.frame_len is None and cfg.hop is None
    with pytest.raises(ConfigError, match="mel_bands"):
        cfgmod.load_feature_config(write(tmp_path, "mel_bands = none\n", name="bad.cfg"))


def test_cross_attention_is_not_a_config_key(tmp_path):
    test_resolved_model_fields_are_not_config_keys(tmp_path, "cross_attention", False)


@pytest.mark.parametrize("key, value", (("mel_bands", 128), ("coch_channels", 84), ("frame_count", 87),
                                        ("n_classes", 2)))
def test_resolved_model_fields_are_not_config_keys(tmp_path, key, value):
    with pytest.raises(ConfigError, match=key):
        cfgmod.load_train_configs(write(tmp_path, BASE + f"{key} = {value}\n"))
    with pytest.raises(ConfigError, match=key):
        cfgmod.load_train_configs(write(tmp_path, BASE, name="o.cfg"), overrides={key: value})


def test_model_config_for_takes_the_input_shape_from_the_grams():
    pair = FeaturePair(mel=np.zeros((6, 4)), coch=np.zeros((5, 4)))
    model_cfg = tr.model_config_for(tr.TrainConfig(use_dsaf=False), pair, ModelConfig(layers=3))
    assert model_cfg == ModelConfig(layers=3, mel_bands=6, coch_channels=5, frame_count=4, cross_attention=False)
    assert tr.model_config_for(tr.TrainConfig(), DEFAULT_PAIR) == ModelConfig()


def test_readme_run_config_reference_lists_every_key():
    section = README.read_text(encoding="utf-8").split("## Run config reference")[1]
    keys = re.findall(r"`([a-z_]+)`\s+\(", section[section.index("Trainer keys"):section.index("Feature keys")])
    assert len(keys) == len(set(keys))
    assert set(keys) == cfgmod.RUN_CONFIG_KEYS
    assert len(keys) == 33


def test_unknown_override_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not_a_key"):
        cfgmod.load_train_configs(write(tmp_path, BASE), overrides={"not_a_key": 1})


def test_overrides_replace_file_values(tmp_path):
    path = write(tmp_path, BASE + "seed = 4\nuse_pcl = true\n")
    train_cfg, _ = cfgmod.load_train_configs(path, overrides={"seed": 9, "use_pcl": False})
    assert (train_cfg.seed, train_cfg.use_pcl) == (9, False)


# Digests written by earlier releases; checkpoints carry them, so a change
# here rejects every existing checkpoint.
@pytest.mark.parametrize("override, digest", (
    (None, "e6ac02fa8588f582"),
    ("use_dsaf", "97ad270a1f7e9a99"),
    ("use_pcl", "75456860df886e81"),
    ("use_saml", "70652b81d9c961c9"),
))
def test_run_config_hash_is_stable(tmp_path, override, digest):
    path = write(tmp_path, "epochs = 80\nbatch_size = 16\n")
    overrides = {override: False} if override else None
    train_cfg, model_cfg = cfgmod.load_train_configs(path, overrides=overrides)
    assert cfgmod.run_config_hash(train_cfg, tr.model_config_for(train_cfg, DEFAULT_PAIR, model_cfg)) == digest


def test_default_run_config_hash_is_pinned():
    assert cfgmod.run_config_hash(tr.TrainConfig(), ModelConfig()) == "e6ac02fa8588f582"
