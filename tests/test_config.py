"""RunConfig defaults, validation, file parsing, and precedence."""

import dataclasses
import inspect
import math

import pytest

from kgar import config as C
from kgar.model import init_params


def test_task_defaults_differ():
    classify = C.resolve_config("classify")
    linkpred = C.resolve_config("linkpred")
    assert classify.l2 == 0.0005 and classify.dropout_conv == 0.4
    assert classify.batch_size == 50
    assert linkpred.l2 == 0.01 and linkpred.dropout_conv == 0.5
    assert linkpred.iterations == 6000 and linkpred.learning_rate == 0.01
    assert classify.dropout_attention == linkpred.dropout_attention == 0.6
    assert classify.embed_dim == 500 and classify.num_layers == 2


def test_model_and_run_defaults_agree():
    # a direct init_params call draws the model a default run trains
    keywords = inspect.signature(init_params).parameters
    run = C.RunConfig()
    assert keywords["decoder"].default == run.decoder
    assert keywords["init"].default == run.init


def test_precedence_cli_over_file_over_dataset():
    cfg = C.resolve_config(
        "classify",
        dataset_defaults={"embed_dim": 100, "iterations": 50},
        file_values={"embed_dim": 200, "l2": 0.1},
        cli_values={"embed_dim": 300})
    assert cfg.embed_dim == 300   # cli wins
    assert cfg.l2 == 0.1          # file beats defaults
    assert cfg.iterations == 50   # dataset beats global


def test_none_cli_values_do_not_override():
    cfg = C.resolve_config("classify", cli_values={"embed_dim": None})
    assert cfg.embed_dim == 500


def test_validation_rejects_bad_fields():
    with pytest.raises(ValueError, match="num_blocks"):
        C.resolve_config("classify", cli_values={"num_blocks": 7})  # 7 ∤ 500
    with pytest.raises(ValueError, match="learning_rate"):
        C.resolve_config("classify", cli_values={"learning_rate": 0.0})
    with pytest.raises(ValueError, match="task"):
        C.resolve_config("segmentation")
    with pytest.raises(ValueError, match="decoder"):
        C.resolve_config("linkpred", cli_values={"decoder": "transe"})
    with pytest.raises(ValueError, match="unknown config keys"):
        C.resolve_config("classify", cli_values={"embedd_im": 4})
    with pytest.raises(ValueError, match="embed_dim must be >= 1, got -1"):
        C.resolve_config("linkpred", cli_values={"embed_dim": -1})
    for name in ("learning_rate", "l2"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                C.resolve_config("classify", cli_values={name: bad})
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        C.resolve_config("classify", cli_values={"seed": -1})


def test_config_cannot_be_altered_into_an_invalid_one():
    cfg = C.resolve_config("classify")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.num_blocks = 7
    with pytest.raises(ValueError) as got:
        dataclasses.replace(cfg, num_blocks=7)
    with pytest.raises(ValueError) as want:
        C.resolve_config("classify", cli_values={"num_blocks": 7})
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(C.CHOICES))
def test_validation_rejects_values_outside_choices(name):
    for value in C.CHOICES[name]:
        C.RunConfig(**{name: value})
    with pytest.raises(ValueError, match=f"{name} must be one of"):
        C.RunConfig(**{name: "bogus"})


def test_validation_rejects_mistyped_values():
    for field, value in (("num_layers", 1.0), ("embed_dim", 100.0),
                         ("seed", True), ("l2", False), ("l2", "0.1"),
                         ("filtered_negatives", 1), ("decoder", None)):
        with pytest.raises(ValueError, match=f"{field} must be of type"):
            C.RunConfig(**{field: value})
    assert C.resolve_config("linkpred", cli_values={"l2": 0}).l2 == 0


def test_complex_link_prediction_needs_even_embed_dim():
    odd = {"embed_dim": 9, "num_blocks": 3}
    with pytest.raises(ValueError, match="even embed_dim"):
        C.resolve_config("linkpred", cli_values=odd)
    assert C.resolve_config("linkpred", cli_values=dict(
        odd, decoder="distmult")).embed_dim == 9
    assert C.resolve_config("classify", cli_values=odd).embed_dim == 9


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nembed_dim = 40\nl2=0.02\n"
                 "filtered_negatives=true\ninit=std-normal\n")
    values = C.parse_config_file(str(p))
    assert values == {"embed_dim": 40, "l2": 0.02,
                      "filtered_negatives": True, "init": "std-normal"}
    cfg = C.resolve_config("linkpred", file_values=values)
    assert cfg.embed_dim == 40 and cfg.filtered_negatives is True


def test_parse_config_file_skips_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.cfg"
    p.write_text("\ufeffembed_dim=40\n", encoding="utf-8")
    assert C.parse_config_file(str(p)) == {"embed_dim": 40}


def test_parse_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("embed_dim 40\n")
    with pytest.raises(ValueError, match=":1"):
        C.parse_config_file(str(bad))
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("embed=40\n")
    with pytest.raises(ValueError, match="unknown config key"):
        C.parse_config_file(str(unknown))
    notbool = tmp_path / "nb.cfg"
    notbool.write_text("filtered_negatives=maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        C.parse_config_file(str(notbool))


def test_parse_config_file_refuses_a_key_stated_twice(tmp_path):
    # each setting is stated once; the last of two values must not win
    # silently
    twice = tmp_path / "twice.cfg"
    twice.write_text("learning_rate=0.5\nseed=1\n\n# again\n"
                     "learning_rate=0.01\n")
    with pytest.raises(ValueError) as exc:
        C.parse_config_file(str(twice))
    assert str(exc.value) == (f"{twice}:5: key 'learning_rate' is set "
                              f"again, first at {twice}:1")
