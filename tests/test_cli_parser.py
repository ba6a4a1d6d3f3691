"""The flags each subcommand accepts, and the config overrides they produce.

Each option is recorded as (required, choices, default, type). Options that
take no value record "flag" in place of a default.
"""

import argparse

import pytest

from dvmer.cli import _overrides_from_args, build_parser

REQ, OPT = True, False
DIMS = ("arousal", "valence")

RUN = {
    "--config": (REQ, None, None, None),
    "--manifest": (REQ, None, None, None),
    "--features": (REQ, None, None, None),
    "--seed": (OPT, None, None, "int"),
    "--dimension": (OPT, DIMS, None, None),
    "--no-dsaf": (OPT, None, "flag", None),
    "--no-pcl": (OPT, None, "flag", None),
    "--no-saml": (OPT, None, "flag", None),
}
JSON = {"--json": (OPT, None, "flag", None)}
CHECKPOINT = {"--checkpoint": (REQ, None, None, None)}
OUT = {"--out": (REQ, None, None, None)}

SNAPSHOT = {
    "extract-features": {
        "--in": (REQ, None, None, None),
        "--config": (OPT, None, None, None),
        **OUT, **JSON,
    },
    "train": {**RUN, **OUT, **JSON},
    "eval": {
        **RUN, **CHECKPOINT, **JSON,
        "--split": (OPT, ("train", "test"), "test", None),
        "--ensemble": (OPT, None, "flag", None),
    },
    "diagnose": {"--log": (REQ, None, None, None), **OUT, **JSON},
    "export-embeddings": {**RUN, **CHECKPOINT, **OUT, **JSON},
}


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _describe(sub):
    out = {}
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        assert len(action.option_strings) == 1, action.option_strings
        out[action.option_strings[0]] = (
            action.required,
            tuple(action.choices) if action.choices else None,
            action.default if action.nargs != 0 else "flag",
            action.type.__name__ if action.type else None,
        )
    return out


def test_subcommands_are_the_five_documented_ones():
    assert set(_subparsers()) == set(SNAPSHOT)


@pytest.mark.parametrize("command", sorted(SNAPSHOT))
def test_subcommand_options_match_the_snapshot(command):
    assert _describe(_subparsers()[command]) == SNAPSHOT[command]


REQUIRED_ARGV = {
    "train": ["--config", "c", "--manifest", "m", "--features", "f", "--out", "o"],
    "eval": ["--checkpoint", "k", "--config", "c", "--manifest", "m", "--features", "f"],
    "export-embeddings": ["--checkpoint", "k", "--config", "c", "--manifest", "m", "--features", "f", "--out", "o"],
}
ALL_RUN_FLAGS = ["--seed", "3", "--dimension", "valence", "--no-dsaf", "--no-pcl", "--no-saml"]
ALL_RUN_OVERRIDES = {"seed": 3, "dimension": "valence", "use_dsaf": False, "use_pcl": False, "use_saml": False}


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGV))
def test_no_run_flags_give_no_overrides(command):
    args = build_parser().parse_args([command] + REQUIRED_ARGV[command])
    assert _overrides_from_args(args) == {}


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGV))
def test_run_flags_become_config_overrides(command):
    args = build_parser().parse_args([command] + REQUIRED_ARGV[command] + ALL_RUN_FLAGS)
    assert _overrides_from_args(args) == ALL_RUN_OVERRIDES


def test_ensemble_flag_sets_ensemble_eval():
    args = build_parser().parse_args(["eval"] + REQUIRED_ARGV["eval"] + ["--ensemble"])
    assert _overrides_from_args(args) == {"ensemble_eval": True}


def test_train_takes_no_ensemble_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train"] + REQUIRED_ARGV["train"] + ["--ensemble"])
