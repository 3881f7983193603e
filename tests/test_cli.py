import contextlib
import errno
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from groundkit import numcore as nc
from groundkit.benchkit import evaluate, render_table, run_baseline
from groundkit.cli import run
from groundkit.core import (DataError, DatasetHeader, feature_path, read_dataset,
                            sample_to_json, write_container, write_dataset)
from groundkit.grounder import GroundingModel, workers
from groundkit.grounder.io import (CHECKPOINT_NAME, CONFIG_NAME, VOCAB_NAME, load_model,
                                   save_model)
from groundkit.numcore import CheckpointError
from groundkit.rulekit import DEFAULT_RULES_TEXT, SplitSpec, write_qa_corpus

from conftest import first_step_passes, make_object, make_sample, needs_workers
from test_core import mutate
from test_rulekit import fixture_corpus

REPO = Path(__file__).resolve().parent.parent
TOY_CFG = REPO / "configs" / "toy.cfg"
# an edit value that deletes the field
MISSING = object()


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tiny_dataset(tmp_path, n=6):
    path = tmp_path / "data.jsonl"
    write_dataset([make_sample(f"d-{i}", n_persons=2 + i % 3) for i in range(n)], path)
    return path


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "stats")
        assert code == 1
        assert json.loads(err.splitlines()[0])["error"] == "usage"

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "stats", "--data", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert json.loads(err.splitlines()[0])["error"] == "data"

    def _assert_error_line(self, code, err, error):
        assert code == {"usage": 1, "data": 2, "numeric": 3}[error]
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line.startswith("{")]
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == error
        return payload["detail"]

    def _assert_usage_line(self, code, err):
        return self._assert_error_line(code, err, "usage")

    def test_non_object_record_is_data_error(self, capsys, tmp_path):
        data = write_tiny_dataset(tmp_path)
        qa = tmp_path / "qa.jsonl"
        write_qa_corpus(fixture_corpus()[:3], qa)
        for path in (data, qa):
            lines = path.read_text().splitlines()
            lines[2] = "[1,2]"
            path.write_text("\n".join(lines) + "\n")
        for argv in (("stats", "--data", str(data)),
                     ("transform", "--data", str(qa), "--out", str(tmp_path / "out"))):
            code, _, err = run_cli(capsys, *argv)
            detail = self._assert_error_line(code, err, "data")
            assert ":3: record is not a JSON object" in detail

    @pytest.mark.parametrize("line, detail", [
        ("steps = many", "bad value for 'steps'"),
        ("steps = 0", "steps must be >= 1"),
        ("tau = 0", "temperature must be positive"),
        ("lr = nan", "learning rate must be positive"),
        ("stpes = 1", "unknown config key 'stpes'"),
        ("weight_decay = nan", "weight decay must be >= 0"),
        ("weight_decay = -0.01", "weight decay must be >= 0"),
        # the Adam constants are not config keys
        ("beta1 = 1.5", "unknown config key 'beta1'"),
        ("beta1 = -0.1", "unknown config key 'beta1'"),
        ("beta2 = 1", "unknown config key 'beta2'"),
        ("beta2 = nan", "unknown config key 'beta2'"),
        ("adam_eps = -1", "unknown config key 'adam_eps'"),
        ("adam_eps = 0", "unknown config key 'adam_eps'"),
        ("adam_eps = nan", "unknown config key 'adam_eps'"),
        ("n_heads = 3", "d_model 32 not divisible by n_heads 3"),
        ("n_heads = 0", "n_heads must be >= 1"),
        ("d_model = 0", "d_model must be >= 1"),
        ("d_ff = 0", "d_ff must be >= 1"),
        ("max_text_len = 0", "max_text_len = 0 is no longer supported"),
        ("seed = -1", "seed must be >= 0"),
        ("d_vis = 0", "d_vis must be >= 1"),
        ("normalize_similarity = true", "normalize_similarity = true is no longer supported"),
        ("tau = inf", "temperature must be positive and finite"),
        ("lambda = inf", "contrastive weight must be >= 0 and finite"),
        ("lr = inf", "learning rate must be positive and finite"),
        ("weight_decay = inf", "weight decay must be >= 0 and finite"),
        ("lambda = 0.5\nlambda = 2.0", "config key 'lambda' repeated"),
    ])
    def test_bad_config_file_is_data_error(self, capsys, tmp_path, line, detail):
        data = write_tiny_dataset(tmp_path)
        cfg = tmp_path / "bad.cfg"
        # the lines take the place of the toy config's line for their key: a
        # key may appear once
        key = line.partition("=")[0].strip()
        kept = [x for x in TOY_CFG.read_text().splitlines() if x.partition("=")[0].strip() != key]
        cfg.write_text("\n".join(kept + [line]) + "\n")
        code, _, err = run_cli(capsys, "train", "--data", str(data), "--config", str(cfg),
                               "--out", str(tmp_path / "run"))
        assert detail in self._assert_error_line(code, err, "data")
        assert not (tmp_path / "run").exists()

    def test_negative_learning_rate_is_usage_error(self, capsys, tmp_path):
        data = write_tiny_dataset(tmp_path)
        code, _, err = run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                               "--out", str(tmp_path / "run"), "--lr", "-1")
        assert "learning rate" in self._assert_usage_line(code, err)

    @pytest.mark.parametrize("flag, detail", [
        ("--lr", "learning rate must be positive and finite"),
        ("--lambda", "contrastive weight must be >= 0 and finite"),
    ])
    def test_infinite_flag_is_usage_error(self, capsys, tmp_path, flag, detail):
        data = write_tiny_dataset(tmp_path)
        code, _, err = run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                               "--out", str(tmp_path / "run"), flag, "inf")
        assert detail in self._assert_usage_line(code, err)
        assert not (tmp_path / "run").exists()

    def test_negative_train_seed_is_usage_error(self, capsys, tmp_path):
        data = write_tiny_dataset(tmp_path)
        code, _, err = run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                               "--out", str(tmp_path / "run"), "--seed", "-5")
        assert "seed must be >= 0" in self._assert_usage_line(code, err)
        assert not (tmp_path / "run").exists()

    def test_zero_token_budget_is_usage_error(self, capsys, tmp_path):
        data = write_tiny_dataset(tmp_path)
        code, _, err = run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                               "--out", str(tmp_path / "run"), "--token-budget", "0")
        assert "token budget" in self._assert_usage_line(code, err)

    def test_too_many_max_persons_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "synth", "--n", "5", "--max-persons", "12",
                               "--out", str(tmp_path / "s.jsonl"))
        assert "max_persons" in self._assert_usage_line(code, err)
        assert not (tmp_path / "s.jsonl").exists()

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_synth_without_samples_is_usage_error(self, capsys, tmp_path, n):
        code, _, err = run_cli(capsys, "synth", "--n", n, "--out", str(tmp_path / "s.jsonl"))
        assert "n_samples must be >= 1" in self._assert_usage_line(code, err)
        assert not (tmp_path / "s.jsonl").exists()

    def test_negative_synth_seed_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "synth", "--n", "5", "--seed", "-1",
                               "--out", str(tmp_path / "s.jsonl"))
        assert "seed must be >= 0" in self._assert_usage_line(code, err)
        assert not (tmp_path / "s.jsonl").exists()

    def test_train_on_empty_dataset_is_data_error(self, capsys, tmp_path):
        # with a header, and without one, whose d_vis then reads 0: the
        # refusal comes before any d_vis adjustment
        for name, header in (("empty.jsonl", DatasetHeader(d_vis=8)), ("bare.jsonl", None)):
            data = tmp_path / name
            write_dataset([], data, header=header)
            code, _, err = run_cli(capsys, "train", "--data", str(data),
                                   "--config", str(TOY_CFG), "--out", str(tmp_path / "run"))
            assert "non-empty dataset" in self._assert_error_line(code, err, "data")
            assert "adjusting" not in err

    def test_train_on_zero_width_features_is_data_error(self, capsys, tmp_path):
        # the header of a dataset written from zero-length feature rows says
        # d_vis 0, which no model config accepts
        samples = [make_sample(f"z-{i}") for i in range(3)]
        for s in samples:
            for region in s.image.persons + s.image.context_objects:
                region.feature = np.zeros(0, dtype=np.float32)
        data = tmp_path / "zero.jsonl"
        write_dataset(samples, data)
        code, _, err = run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                               "--steps", "1", "--out", str(tmp_path / "run"))
        assert "header d_vis 0 (d_vis must be >= 1)" in self._assert_error_line(code, err, "data")
        assert "adjusting" not in err
        assert not (tmp_path / "run").exists()

    def test_refused_train_leaves_no_run_directory(self, capsys, tmp_path):
        data = tmp_path / "empty.jsonl"
        write_dataset([], data, header=DatasetHeader(d_vis=8))
        code, _, err = run_cli(capsys, "train", "--data", str(data), "--steps", "1",
                               "--out", str(tmp_path / "run"))
        self._assert_error_line(code, err, "data")
        assert not (tmp_path / "run").exists()

    def test_empty_dataset_scores_null(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        run_cli(capsys, "train", "--data", str(write_tiny_dataset(tmp_path)),
                "--config", str(TOY_CFG), "--steps", "1", "--out", str(run_dir))
        data = tmp_path / "empty.jsonl"
        write_dataset([], data, header=DatasetHeader(d_vis=8))
        for argv in (("eval", "--checkpoint", str(run_dir)), ("baseline", "--name", "random")):
            code, out, _ = run_cli(capsys, *argv, "--data", str(data))
            assert code == 0
            assert json.loads(out)["overall"]["accuracy"] is None
        code, out, _ = run_cli(capsys, "stats", "--data", str(data))
        assert code == 0
        assert json.loads(out)["n_samples"] == 0

    @pytest.mark.parametrize("flag, value, detail", [
        ("--epsilon", "1e-3", "epsilon 0.001 outside"),
        ("--epsilon", "nan", "epsilon nan outside"),
        ("--seed", "-1", "seed must be >= 0"),
    ])
    def test_gradcheck_bad_option_is_usage_error(self, capsys, flag, value, detail):
        code, out, err = run_cli(capsys, "gradcheck", "--config", str(TOY_CFG), flag, value)
        assert detail in self._assert_usage_line(code, err)
        assert out == ""

    @pytest.mark.parametrize("split, detail", [
        ("nan,nan,nan", "sum to nan"),
        ("0.8,0.1,nan", "sum to nan"),
        ("1.2,-0.1,-0.1", "must be non-negative"),
        ("0.5,0.25,0.125", "sum to 0.875,"),
        ("0.5,0.5", "exactly three fractions"),
        ("0.8,0.1,x", "could not convert"),
    ])
    def test_transform_bad_split_is_usage_error(self, capsys, tmp_path, split, detail):
        qa = tmp_path / "qa.jsonl"
        write_qa_corpus(fixture_corpus(), qa)
        code, out, err = run_cli(capsys, "transform", "--data", str(qa),
                                 "--out", str(tmp_path / "out"), "--split", split)
        assert detail in self._assert_usage_line(code, err)
        assert out == "" and not (tmp_path / "out").exists()

    def test_gradcheck_small_d_vis_is_data_error(self, capsys, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(TOY_CFG.read_text().replace("d_vis = 32", "d_vis = 8"))
        code, out, err = run_cli(capsys, "gradcheck", "--config", str(cfg))
        detail = self._assert_error_line(code, err, "data")
        assert "needs d_vis >= 17, the config has 8" in detail
        assert out == ""

    def test_non_utf8_rules_file_is_data_error(self, capsys, tmp_path):
        qa = tmp_path / "qa.jsonl"
        write_qa_corpus(fixture_corpus()[:3], qa)
        rules = tmp_path / "rules.txt"
        rules.write_bytes(b"\xff\xferule a priority 1 type other\n")
        code, _, err = run_cli(capsys, "transform", "--data", str(qa), "--rules", str(rules),
                               "--out", str(tmp_path / "out"))
        detail = self._assert_error_line(code, err, "data")
        assert f"{rules}: not a UTF-8 text file" in detail

    def test_non_finite_feature_is_data_error(self, capsys, tmp_path):
        path = write_tiny_dataset(tmp_path)
        fpath = feature_path(path)
        # the last float of the last row; the writer refuses to write one
        fpath.write_bytes(fpath.read_bytes()[:-4] + np.float32(np.nan).tobytes())
        for argv in (("stats", "--data", str(path)),
                     ("train", "--data", str(path), "--config", str(TOY_CFG),
                      "--out", str(tmp_path / "run"))):
            code, _, err = run_cli(capsys, *argv)
            detail = self._assert_error_line(code, err, "data")
            assert "non-finite feature value in row ('d-5', " in detail
        assert not (tmp_path / "run").exists()

    def test_train_that_overflows_exits_3_naming_step_and_samples(self, capsys, tmp_path):
        data, run_dir = tmp_path / "s.jsonl", tmp_path / "run"
        run_cli(capsys, "synth", "--n", "12", "--seed", "2", "--out", str(data))
        # the first update moves every weight by about 1e38, so step 1 overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "train", "--data", str(data), "--config",
                                     str(TOY_CFG), "--out", str(run_dir), "--steps", "5",
                                     "--lr", "1e38")
        detail = self._assert_error_line(code, err, "numeric")
        assert out == "" and caught == [] and "Warning" not in err
        match = re.fullmatch(r"non-finite value produced by \w+ in (embed|enc\.layer\d) "
                             r"in step 1, pass over samples (.*)", detail)
        assert match, detail
        assert sorted(match[2].split(", ")) == [f"synth-{i:06d}" for i in range(12)]
        assert not (run_dir / CHECKPOINT_NAME).exists()

    def test_eval_of_overflowing_weights_exits_3_naming_samples(self, capsys, tmp_path):
        data, run_dir = tmp_path / "s.jsonl", tmp_path / "run"
        run_cli(capsys, "synth", "--n", "12", "--seed", "2", "--out", str(data))
        run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                "--out", str(run_dir), "--steps", "1")
        model = load_model(run_dir)
        for name in ("enc.layer0.attn.wq", "enc.layer0.attn.wk"):
            model.params[name].data = model.params[name].data * np.float32(1e20)
        save_model(model, run_dir)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "eval", "--data", str(data),
                                     "--checkpoint", str(run_dir))
        detail = self._assert_error_line(code, err, "numeric")
        assert out == "" and caught == [] and "Warning" not in err
        prefix = "non-finite value produced by matmul in enc.layer0 in the pass over samples "
        assert detail.startswith(prefix)
        assert sorted(detail[len(prefix):].split(", ")) == [f"synth-{i:06d}" for i in range(12)]

    def test_feature_overflowing_layer_norm_exits_3(self, capsys, tmp_path):
        data, run_dir = tmp_path / "s.jsonl", tmp_path / "run"
        run_cli(capsys, "synth", "--n", "12", "--seed", "2", "--out", str(data))
        run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                "--out", str(run_dir), "--steps", "1")
        # finite, so the reader takes it, but its region's variance overflows
        samples = read_dataset(data)
        person = samples[3].image.persons[0]
        person.feature = person.feature.copy()
        person.feature[5] = 3e38
        write_dataset(samples, data)
        for argv, where in (
                (("train", "--config", str(TOY_CFG), "--steps", "5",
                  "--out", str(tmp_path / "run2")), "step 0, pass over samples"),
                (("eval", "--checkpoint", str(run_dir)), "the pass over samples")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run_cli(capsys, *argv, "--data", str(data))
            detail = self._assert_error_line(code, err, "numeric")
            assert out == "" and caught == [] and "Warning" not in err
            prefix = f"non-finite value produced by layer_norm in embed in {where} "
            assert detail.startswith(prefix), detail
            assert sorted(detail[len(prefix):].split(", ")) == [
                f"synth-{i:06d}" for i in range(12)]
        assert not (tmp_path / "run2").exists()

    @needs_workers
    def test_a_failing_pass_in_a_worker_exits_3(self, capsys, monkeypatch, tmp_path):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "120", "--seed", "3", "--out", str(data))
        samples = read_dataset(data)
        passes = first_step_passes(samples, TOY_CFG)
        # finite, so the reader takes it; pass 1 of step 0 runs in the worker
        person = samples[passes[1][0]].image.persons[0]
        person.feature = person.feature.copy()
        person.feature[5] = 3e38
        write_dataset(samples, data)
        details = []
        for n in (1, 2):
            code, out, err = train_in(monkeypatch, capsys, n, data, tmp_path / f"run{n}")
            details.append(self._assert_error_line(code, err, "numeric"))
            assert out == ""
        assert details[0] == details[1] == (
            "non-finite value produced by layer_norm in embed in step 0, pass over samples "
            + ", ".join(samples[i].sample_id for i in passes[1]))

    def test_image_size_past_the_float_range_is_data_error(self, capsys, tmp_path):
        data, run_dir = tmp_path / "s.jsonl", tmp_path / "run"
        run_cli(capsys, "synth", "--n", "20", "--seed", "1", "--out", str(data))
        run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                "--steps", "1", "--out", str(run_dir))
        lines = data.read_text().splitlines()
        obj = json.loads(lines[5])
        obj["image"]["width"] = 10**400
        lines[5] = json.dumps(obj)
        data.write_text("\n".join(lines) + "\n")
        for argv in (("stats",), ("eval", "--checkpoint", str(run_dir)),
                     ("train", "--config", str(TOY_CFG), "--steps", "2",
                      "--out", str(tmp_path / "run2"))):
            code, _, err = run_cli(capsys, *argv, "--data", str(data))
            detail = self._assert_error_line(code, err, "data")
            assert detail.startswith(f"{data}:6: ")
            assert detail.endswith(": image size past the float range")
        assert not (tmp_path / "run2").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj.update(labels={"1": 1.9}), "label of link 1 is 1.9, not an integer"),
        (lambda obj: obj.update(labels={" 1": 0}),
         "label keys [' 1'] are not all decimal link ids"),
        (lambda obj: obj["tokens"].__setitem__(0, {"person": True}),
         "person link is True, not an integer"),
        (lambda obj: obj["image"].update(width=640.7), "width is 640.7, not an integer"),
        (lambda obj: obj["tokens"].__setitem__(1, ""), "empty word token"),
        (lambda obj: obj["image"]["context_objects"][0].update(objectness="0.5"),
         "objectness is '0.5', not a number"),
        (lambda obj: obj["image"]["context_objects"][0].update(objectness=True),
         "objectness is True, not a number"),
        (lambda obj: obj["image"]["context_objects"][0].update(class_name=7),
         "class_name is 7, not a string"),
        (lambda obj: obj["image"]["context_objects"][0].update(class_name=None),
         "class_name is None, not a string"),
        (lambda obj: obj["image"].update(image_id=12), "image_id is 12, not a string"),
        (lambda obj: obj["tokens"].__setitem__(1, {"object": 0, "class": 7}),
         "object link class is 7, not a string"),
        (lambda obj: obj["tokens"].__setitem__(1, {"object": 0}), "missing field 'class'"),
        (lambda obj: obj["image"].pop("context_objects"), "missing field 'context_objects'"),
    ], ids=["label-float", "label-key", "link-bool", "width-float", "empty-word",
            "objectness-string", "objectness-bool", "class-int", "class-null", "image-id-int",
            "link-class-int", "link-class-missing", "no-context-objects"])
    def test_non_integer_field_or_empty_word_is_data_error(self, capsys, tmp_path, edit,
                                                           message):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "3", "--seed", "1", "--out", str(data))
        lines = data.read_text().splitlines()
        obj = json.loads(lines[2])
        edit(obj)
        lines[2] = json.dumps(obj)
        data.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "stats", "--data", str(data))
        assert self._assert_error_line(code, err, "data") == f"{data}:3: {message}"

    def test_string_field_refused_on_write(self, capsys, tmp_path):
        # what a writer writes, the reader reads: a class name of 7 leaves no file
        data, out = tmp_path / "s.jsonl", tmp_path / "w.jsonl"
        run_cli(capsys, "synth", "--n", "3", "--seed", "1", "--out", str(data))
        samples = read_dataset(data)
        samples[1].image.context_objects[0].class_name = 7
        with pytest.raises(DataError, match="^class_name is 7, not a string$"):
            write_dataset(samples, out)
        assert not out.exists() and not feature_path(out).exists()

    @pytest.mark.parametrize("field, value, message", [
        ("objectness_threshold", float("nan"), "objectness_threshold nan outside [0, 1]"),
        ("objectness_threshold", 2.0, "objectness_threshold 2.0 outside [0, 1]"),
        ("max_context_objects", -3, "max_context_objects -3 is negative"),
        ("format_version", True, "format_version is True, not an integer"),
        ("d_vis", 32.0, "d_vis is 32.0, not an integer"),
        ("max_context_objects", "100", "max_context_objects is '100', not an integer"),
        ("max_context_objects", 2.7, "max_context_objects is 2.7, not an integer"),
        ("objectness_threshold", "0.2", "objectness_threshold is '0.2', not a number"),
        ("objectness_threshold", True, "objectness_threshold is True, not a number"),
        ("bogus", 1, "unknown header keys ['bogus']"),
        # the header's defaults are for writers: a field the file leaves out is an error
        ("max_context_objects", MISSING, "bad dataset header ('max_context_objects')"),
    ], ids=["threshold-nan", "threshold-2", "cap-negative", "version-bool", "d-vis-float",
            "cap-string", "cap-float", "threshold-string", "threshold-bool", "unknown-key",
            "cap-missing"])
    def test_header_out_of_bounds_is_data_error(self, capsys, tmp_path, field, value, message):
        data = tmp_path / "h.jsonl"
        run_cli(capsys, "synth", "--n", "5", "--seed", "1", "--out", str(data))
        lines = data.read_text().splitlines()
        header = json.loads(lines[0])
        if value is MISSING:
            del header[field]
        else:
            header[field] = value
        lines[0] = json.dumps(header)
        data.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "stats", "--data", str(data))
        assert self._assert_error_line(code, err, "data") == f"{data}:1: {message}"
        if value is MISSING or field not in DatasetHeader.__dataclass_fields__:
            return
        # the same header field is refused on write, before either file exists
        out = tmp_path / "w.jsonl"
        bad = replace(DatasetHeader(d_vis=8), **{field: value})
        with pytest.raises(DataError) as exc:
            write_dataset([], out, header=bad)
        assert str(exc.value) == f"{out}:1: {message}"
        assert not out.exists() and not feature_path(out).exists()

    def test_corrupted_magic_is_data_error(self, capsys, tmp_path):
        path = write_tiny_dataset(tmp_path)
        fpath = feature_path(path)
        blob = bytearray(fpath.read_bytes())
        blob[:4] = b"ZZZZ"
        fpath.write_bytes(bytes(blob))
        code, _, err = run_cli(capsys, "stats", "--data", str(path))
        assert code == 2


class TestOneParserPerProcess:
    # run builds its parser once per process; these calls share it

    def test_calls_in_one_process_report_as_fresh_processes_do(self, capsys, tmp_path,
                                                              monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to it
        data = write_tiny_dataset(tmp_path)
        calls = [("stats", "--dta", str(data)), ("stats", "--data", str(data)),
                 ("stats", "--dta", str(data))]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        results = []
        for argv in calls:
            fresh = subprocess.run([sys.executable, "-m", "groundkit.cli", *argv],
                                   env=env, capture_output=True, text=True)
            results.append(run_cli(capsys, *argv))
            assert results[-1] == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert [code for code, _out, _err in results] == [1, 0, 1]
        assert json.loads(results[2][2].splitlines()[0])["error"] == "usage"
        assert json.loads(results[1][1])["n_samples"] == 6

    def test_a_flag_of_one_call_does_not_reach_the_next(self, capsys, tmp_path):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "6", "--seed", "4", "--out", str(data))
        for name, flags in (("nco", ["--no-context-objects"]), ("plain", [])):
            code, _, _ = run_cli(capsys, "train", "--data", str(data), "--config",
                                 str(TOY_CFG), "--out", str(tmp_path / name),
                                 "--steps", "1", *flags)
            assert code == 0
        assert "use_context_objects = False" in (tmp_path / "nco" / "config.cfg").read_text()
        assert "use_context_objects = True" in (tmp_path / "plain" / "config.cfg").read_text()


class TestStatsAndSynth:
    def test_stats_payload(self, capsys, tmp_path):
        path = write_tiny_dataset(tmp_path)
        code, out, _ = run_cli(capsys, "stats", "--data", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["n_samples"] == 6

    def test_synth_into_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "d"
        code, out, _ = run_cli(capsys, "synth", "--n", "20", "--seed", "7",
                               "--out", str(out_dir))
        assert code == 0
        payload = json.loads(out)
        assert payload["n_samples"] == 20
        assert read_dataset(out_dir / "dataset.jsonl")

    def test_synth_reproducible_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(capsys, "synth", "--n", "15", "--seed", "3", "--out", str(a))[0] == 0
        assert run_cli(capsys, "synth", "--n", "15", "--seed", "3", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert feature_path(a).read_bytes() == feature_path(b).read_bytes()

    def test_synth_max_persons_ten(self, capsys, tmp_path):
        # ten boxes can jam the canvas; the scene's placement then starts over
        code, out, _ = run_cli(capsys, "synth", "--n", "300", "--max-persons", "10",
                               "--seed", "7", "--out", str(tmp_path / "d"))
        assert code == 0
        assert json.loads(out)["n_samples"] == 300
        samples = read_dataset(tmp_path / "d" / "dataset.jsonl")
        assert max(s.image.n_persons for s in samples) == 10

    def test_baseline_near_chance(self, capsys, tmp_path):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "400", "--seed", "1", "--out", str(data))
        code, out, _ = run_cli(capsys, "baseline", "--data", str(data),
                               "--name", "left_to_right")
        assert code == 0
        report = json.loads(out)
        samples = read_dataset(data)
        chance = sum(1 / s.image.n_persons for s in samples) / len(samples)
        assert abs(report["overall"]["accuracy"] - chance) < 0.08

    def test_baseline_prints_table_and_report(self, capsys, tmp_path):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "40", "--seed", "1", "--out", str(data))
        code, out, err = run_cli(capsys, "baseline", "--data", str(data), "--name", "random",
                                 "--seed", "4")
        assert code == 0
        samples = read_dataset(data)
        report = evaluate(run_baseline("random", samples, seed=4), samples)
        assert out == json.dumps(report, sort_keys=True) + "\n"
        assert err == render_table("random", report) + "\n"


class TestTransformAndFilter:
    def test_transform_pipeline(self, capsys, tmp_path):
        qa_path = tmp_path / "qa.jsonl"
        write_qa_corpus(fixture_corpus(), qa_path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "transform", "--data", str(qa_path),
                               "--out", str(out_dir), "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["total"] == 20
        assert report["kept"] == 12
        sizes = report["split_sizes"]
        emitted = sum(len(read_dataset(out_dir / f"{name}.jsonl"))
                      for name in ("train", "validation", "test"))
        assert emitted == 12 == sum(sizes.values())

    def test_transform_reruns_byte_identical(self, capsys, tmp_path):
        qa_path = tmp_path / "qa.jsonl"
        write_qa_corpus(fixture_corpus(), qa_path)
        outs = []
        for name in ("o1", "o2"):
            out_dir = tmp_path / name
            assert run_cli(capsys, "transform", "--data", str(qa_path),
                           "--out", str(out_dir), "--seed", "9")[0] == 0
            outs.append(out_dir)
        for fname in ("train.jsonl", "validation.jsonl", "test.jsonl", "report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        assert feature_path(outs[0] / "train.jsonl").read_bytes() == \
               feature_path(outs[1] / "train.jsonl").read_bytes()

    def test_failed_report_write_keeps_previous_report(self, capsys, tmp_path, monkeypatch):
        qa_path = tmp_path / "qa.jsonl"
        write_qa_corpus(fixture_corpus(), qa_path)
        out_dir = tmp_path / "out"
        assert run_cli(capsys, "transform", "--data", str(qa_path),
                       "--out", str(out_dir))[0] == 0
        old = (out_dir / "report.json").read_bytes()
        real_write = Path.write_bytes

        def half_write(path, data):
            # a partial temp report, then a full disk
            if path.name == "report.json.tmp":
                real_write(path, data[:8])
                raise OSError("no space left on device")
            return real_write(path, data)

        monkeypatch.setattr(Path, "write_bytes", half_write)
        code, _, err = run_cli(capsys, "transform", "--data", str(qa_path),
                               "--out", str(out_dir), "--split", "0.5,0.25,0.25")
        assert code == 2 and "no space left" in err
        assert (out_dir / "report.json").read_bytes() == old
        assert not (out_dir / "report.json.tmp").exists()

    @pytest.mark.parametrize("index, edit", [
        # a matched question whose object falls below the header's objectness
        # threshold, and an unmatched one whose person box passes the image edge
        (0, lambda image: image["context_objects"][0].update(objectness=0.05)),
        (19, lambda image: image["persons"][0].update(x2=900)),
    ], ids=["low_objectness", "box_past_edge"])
    def test_transform_refuses_corpus_breaking_header_rules(self, capsys, tmp_path,
                                                            index, edit):
        corpus = fixture_corpus()
        corpus[0].image.context_objects.append(make_object(10, 130, 60, 170))
        qa_path = tmp_path / "qa.jsonl"
        write_qa_corpus(corpus, qa_path)
        lines = qa_path.read_text().splitlines()
        obj = json.loads(lines[index + 1])
        edit(obj["image"])
        lines[index + 1] = json.dumps(obj)
        qa_path.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "transform", "--data", str(qa_path),
                                 "--out", str(out_dir))
        assert code == 2 and out == ""
        assert f"qa.jsonl:{index + 2}: " in json.loads(err.splitlines()[0])["detail"]
        assert not out_dir.exists()

    def test_transform_refuses_label_past_the_persons(self, capsys, tmp_path):
        corpus = fixture_corpus()
        corpus[0].labels = {1: corpus[0].image.n_persons}
        qa_path = tmp_path / "qa.jsonl"
        write_qa_corpus(corpus, qa_path)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "transform", "--data", str(qa_path),
                                 "--out", str(out_dir))
        assert code == 2 and out == ""
        assert "ok-00: label out of range" in json.loads(err.splitlines()[0])["detail"]
        assert not out_dir.exists()

    def test_synth_and_filter_into_missing_directories(self, capsys, tmp_path):
        data = tmp_path / "nodir" / "sub" / "x.jsonl"
        assert run_cli(capsys, "synth", "--n", "5", "--out", str(data))[0] == 0
        out = tmp_path / "nodir2" / "f.jsonl"
        assert run_cli(capsys, "filter", "--data", str(data), "--out", str(out))[0] == 0
        assert [s.sample_id for s in read_dataset(out)] == \
               [s.sample_id for s in read_dataset(data)]

    def test_filter_command(self, capsys, tmp_path):
        # a pre-filter dataset containing an overcrowded image, which
        # write_dataset would refuse; the container writer checks images only
        samples = [make_sample("keep-0"), make_sample("toomany", n_persons=11)]
        path = tmp_path / "raw.jsonl"
        for s in samples:
            s.validate(strict=False)
        write_container(path, samples, sample_to_json, DatasetHeader(d_vis=8))

        out_path = tmp_path / "filtered.jsonl"
        code, out, _ = run_cli(capsys, "filter", "--data", str(path),
                               "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["kept"] == 1
        assert payload["drop_ids"] == {"toomany": "too_many_persons"}
        assert [s.sample_id for s in read_dataset(out_path)] == ["keep-0"]


class TestTrainEvalGradcheck:
    def test_train_then_eval(self, capsys, tmp_path):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "30", "--seed", "2", "--out", str(data))
        run_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "train", "--data", str(data),
                               "--config", str(TOY_CFG), "--out", str(run_dir),
                               "--steps", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"] == 5
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "vocab.json").exists()
        assert (run_dir / "loss_log.jsonl").exists()
        log_lines = (run_dir / "loss_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 5

        code, out, err = run_cli(capsys, "eval", "--data", str(data),
                                 "--checkpoint", str(run_dir))
        assert code == 0
        report = json.loads(out)
        assert report["overall"]["total"] == 30
        assert "accuracy" in err  # the table goes to stderr

    def test_eval_needs_exactly_one_source(self, capsys, tmp_path):
        # a checkpoint; the heuristics run through baseline, not eval --name
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "5", "--seed", "2", "--out", str(data))
        code, _, err = run_cli(capsys, "eval", "--data", str(data))
        assert code == 1
        for extra in (("--name", "random"), ("--seed", "3")):
            code, out, err = run_cli(capsys, "eval", "--data", str(data),
                                     "--checkpoint", str(tmp_path / "run"), *extra)
            assert code == 1 and out == ""
            assert json.loads(err.splitlines()[0])["error"] == "usage"

    def test_eval_on_edited_config_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "5", "--seed", "2", "--out", str(data))
        run_dir = tmp_path / "run"
        run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                "--out", str(run_dir), "--steps", "1")
        cfg = run_dir / "config.cfg"
        text = cfg.read_text()
        for value in ("0", "-1"):
            cfg.write_text(text.replace("d_vis = 32", f"d_vis = {value}"))
            code, out, err = run_cli(capsys, "eval", "--data", str(data),
                                     "--checkpoint", str(run_dir))
            assert code == 2 and out == ""
            assert "Traceback" not in err
            detail = json.loads(err.splitlines()[0])["detail"]
            assert "config.cfg: invalid config (d_vis must be >= 1)" in detail

    # the config.cfg that earlier versions wrote for a toy.cfg run: five keys
    # since retired, each with the one value that still loads
    EARLIER_CONFIG = (
        "contrast_layer = 2\nd_ff = 64\nd_model = 32\nd_vis = 32\nlambda = 1.0\n"
        "max_text_len = 64\nn_heads = 2\nn_layers = 2\nnormalize_similarity = False\n"
        "neutral_names = james,mary,john,patricia,robert,jennifer,michael,linda,david,"
        "elizabeth,william,barbara,richard,susan,joseph,jessica\n"
        "seed = 0\nt1 = 0.3\nt2 = 0.1\ntau = 1.0\nuse_context_objects = True\n")

    def test_earlier_run_directory_evaluates(self, capsys, tmp_path):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "20", "--seed", "2", "--out", str(data))
        run_dir = tmp_path / "run"
        run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                "--out", str(run_dir), "--steps", "2")
        cfg = run_dir / "config.cfg"
        eval_argv = ("eval", "--data", str(data), "--checkpoint", str(run_dir))
        current = run_cli(capsys, *eval_argv)
        assert current[0] == 0
        cfg.write_text(self.EARLIER_CONFIG)
        assert run_cli(capsys, *eval_argv) == current

        lines = self.EARLIER_CONFIG.splitlines()
        for key, value in (("normalize_similarity", "true"), ("neutral_names", "amy,bob"),
                           ("max_text_len", "32"), ("max_text_len", "many"),
                           ("t1", "0.2"), ("t2", "0.5")):
            lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(key))
            edited = lines[:lineno - 1] + [f"{key} = {value}"] + lines[lineno:]
            cfg.write_text("\n".join(edited) + "\n")
            code, out, err = run_cli(capsys, *eval_argv)
            assert code == 2 and out == ""
            assert "Traceback" not in err
            detail = json.loads(err.splitlines()[0])["detail"]
            assert f"{cfg}:{lineno}: {key} = {value} is no longer supported" in detail

    @pytest.mark.parametrize("edit, problem", [
        pytest.param(edit, problem, id=edit) for edit, problem in (
            ("list", "a JSON list, not an object of word ids"),
            ("id past the end", "the ids are not 0..{last}, each once"),
            ("id past int64", "the ids are not 0..{last}, each once"),
            ("id of <unk>", "the ids are not 0..{last}, each once"),
            ("float id", "'the' has the id 1.7, not an integer"),
            ("boolean id", "'the' has the id True, not an integer"),
            ("negative id", "the ids are not 0..{last}, each once"),
            ("no <unk>", "'<unk>' does not have the id 0"))])
    def test_eval_on_edited_vocab_is_data_error(self, capsys, tmp_path, edit, problem):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "6", "--seed", "2", "--out", str(data))
        run_dir = tmp_path / "run"
        run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                "--out", str(run_dir), "--steps", "1")
        path = run_dir / "vocab.json"
        vocab = json.loads(path.read_text())
        assert vocab["the"] > 0
        if edit == "no <unk>":
            # the ids still run 0..n-1, with another word at 0
            vocab[next(w for w, i in vocab.items() if i == len(vocab) - 1)] = 0
            del vocab["<unk>"]
        else:
            vocab["the"] = {"id past the end": 1000000, "id past int64": 10**30,
                            "id of <unk>": 0, "float id": 1.7, "boolean id": True,
                            "negative id": -5}.get(edit)
        path.write_text(json.dumps([1, 2] if edit == "list" else vocab))
        code, out, err = run_cli(capsys, "eval", "--data", str(data),
                                 "--checkpoint", str(run_dir))
        assert code == 2 and out == ""
        assert "Traceback" not in err and len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "data"
        last = len(vocab) - 1
        assert error["detail"] == f"{path}: bad vocabulary file ({problem.format(last=last)})"

    def test_train_rejects_corrupt_checkpoint_on_eval(self, capsys, tmp_path):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "10", "--seed", "2", "--out", str(data))
        run_dir = tmp_path / "run"
        run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                "--out", str(run_dir), "--steps", "2")
        ckpt = run_dir / "model.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[:4] = b"BAAD"
        ckpt.write_bytes(bytes(blob))
        code, _, err = run_cli(capsys, "eval", "--data", str(data),
                               "--checkpoint", str(run_dir))
        assert code == 2

    @pytest.mark.parametrize("mutation, expected", [
        ("truncated", 2), ("extended", 2), ("count", 2), ("name", 2), ("rank", 2),
        ("mantissa", 0), ("nan", 2),
    ])
    def test_eval_on_mutated_checkpoint(self, capsys, tmp_path, mutation, expected):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "6", "--seed", "2", "--out", str(data))
        run_dir = tmp_path / "run"
        run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                "--out", str(run_dir), "--steps", "1")
        ckpt = run_dir / "model.ckpt"
        blob = bytearray(ckpt.read_bytes())
        name_len = int.from_bytes(blob[8:12], "little")
        if mutation == "truncated":
            blob = blob[:len(blob) // 2]
        elif mutation == "extended":
            blob += b"\x00" * 5
        elif mutation == "count":
            blob[4] ^= 1
        elif mutation == "name":
            blob[12] ^= 0x80               # not UTF-8 any more
        elif mutation == "rank":
            blob[12 + name_len] ^= 0x10
        elif mutation == "nan":
            blob[-4:] = np.array(np.nan, dtype="<f4").tobytes()
        else:
            blob[-4] ^= 1                  # lowest mantissa bit of the last value
        ckpt.write_bytes(bytes(blob))
        code, out, err = run_cli(capsys, "eval", "--data", str(data),
                                 "--checkpoint", str(run_dir))
        assert code == expected
        assert "Traceback" not in err
        if expected:
            assert json.loads(err.splitlines()[0])["error"] == "data"
        if mutation == "nan":
            detail = json.loads(err.splitlines()[0])["detail"]
            assert f"{ckpt}: tensor 'enc.layer1.ln2.gain' holds non-finite values" in detail

    @pytest.mark.parametrize("mutation, expected", [
        ("no emit", 2), ("priority", 2), ("type", 2), ("truncated", 2), ("junk", 2),
        ("template word", 0),
    ])
    def test_transform_with_mutated_rules(self, capsys, tmp_path, mutation, expected):
        qa = tmp_path / "qa.jsonl"
        write_qa_corpus(fixture_corpus(), qa)
        text = DEFAULT_RULES_TEXT
        text = {
            "no emit": text.replace("emit: <PERSON> <AUX> <REST...> because <ANSWER>\n", "", 1),
            "priority": text.replace("priority 90", "priority high", 1),
            "type": text.replace("type causal", "type causel", 1),
            "truncated": text[:text.index("emit: <ANSWER>")],
            "junk": text + "\x00 junk\n",
            "template word": text.replace("because", "since", 1),
        }[mutation]
        rules = tmp_path / "rules.txt"
        rules.write_text(text)
        code, out, err = run_cli(capsys, "transform", "--data", str(qa), "--rules", str(rules),
                                 "--out", str(tmp_path / "out"))
        assert code == expected
        assert "Traceback" not in err
        if expected:
            assert json.loads(err.splitlines()[0])["error"] == "data"
        else:
            assert json.loads(out)["kept"] == 12

    def test_gradcheck_toy_config_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--config", str(TOY_CFG))
        assert code == 0
        payload = json.loads(out)
        assert max(payload["max_rel_error"].values()) < 1e-4

    @staticmethod
    def tiny_gradcheck_config(tmp_path):
        # at d_model 2 LayerNorm maps each row to +-1, so nearly every
        # gradient entry is structurally zero and central differences read
        # one rounding of the loss: those entries count as below_noise
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(re.sub(
            r"(?m)^(d_model|n_heads|n_layers|d_ff|lambda|contrast_layer|seed) = .*$",
            lambda m: f"{m[1]} = " + {"d_model": "2", "n_heads": "1", "n_layers": "1",
                                      "d_ff": "3", "lambda": "0.5", "contrast_layer": "1",
                                      "seed": "1"}[m[1]],
            TOY_CFG.read_text()))
        return cfg

    def test_gradcheck_skips_entries_under_the_noise_bound(self, capsys, tmp_path):
        cfg = self.tiny_gradcheck_config(tmp_path)
        code, out, _ = run_cli(capsys, "gradcheck", "--config", str(cfg), "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["below_noise"]) == {"cls", "con", "total"}
        assert min(payload["below_noise"].values()) > 0
        assert max(payload["max_rel_error"].values()) < 1e-4

    def test_gradcheck_says_when_no_entry_could_be_scored(self, capsys, tmp_path):
        # every probed entry of this config is below the noise bound, so each
        # loss's max_rel_error of 0 checks nothing: one stderr line says so
        # per loss, and the exit code and stdout stay those of a clean check
        cfg = self.tiny_gradcheck_config(tmp_path)
        code, out, err = run_cli(capsys, "gradcheck", "--config", str(cfg), "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_rel_error"] == {"cls": 0.0, "con": 0.0, "total": 0.0}
        assert err.splitlines() == [
            f"gradient check of {kind}: all {payload['below_noise'][kind]} probed entries "
            "are below the noise bound, so its max_rel_error checks nothing"
            for kind in ("cls", "con", "total")]
        code, _out, err = run_cli(capsys, "gradcheck", "--config", str(TOY_CFG))
        assert code == 0 and err == ""

    def test_lambda_and_no_context_flags(self, capsys, tmp_path):
        data = tmp_path / "s.jsonl"
        run_cli(capsys, "synth", "--n", "12", "--seed", "4", "--out", str(data))
        run_dir = tmp_path / "run0"
        code, out, _ = run_cli(capsys, "train", "--data", str(data),
                               "--config", str(TOY_CFG), "--out", str(run_dir),
                               "--steps", "3", "--lambda", "0",
                               "--no-context-objects")
        assert code == 0
        cfg_text = (run_dir / "config.cfg").read_text()
        assert "use_context_objects = False" in cfg_text


def train_in(monkeypatch, capsys, processes, data, run_dir):
    """A 3-step ``train`` on ``configs/toy.cfg`` with its passes in ``processes``
    processes, forced through the usable-CPU count."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: processes)
    return run_cli(capsys, "train", "--data", str(data), "--config", str(TOY_CFG),
                   "--out", str(run_dir), "--steps", "3")


@needs_workers
def test_process_count_changes_no_byte_of_the_run(capsys, monkeypatch, tmp_path):
    data = tmp_path / "s.jsonl"
    run_cli(capsys, "synth", "--n", "120", "--seed", "3", "--out", str(data))
    runs = []
    for n in (1, 2, 3):
        run_dir = tmp_path / f"run{n}"
        code, out, _err = train_in(monkeypatch, capsys, n, data, run_dir)
        assert code == 0
        runs.append((out.replace(str(run_dir), "RUN"),
                     (run_dir / CHECKPOINT_NAME).read_bytes(),
                     (run_dir / "loss_log.jsonl").read_bytes()))
    assert runs[0] == runs[1] == runs[2]


@needs_workers
def test_a_failed_fork_trains_in_one_process_without_a_traceback(capsys, monkeypatch,
                                                                 caplog, tmp_path):
    data = tmp_path / "s.jsonl"
    run_cli(capsys, "synth", "--n", "120", "--seed", "3", "--out", str(data))

    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    runs = []
    for n in (1, 2):
        if n == 2:
            monkeypatch.setattr(os, "fork", no_fork)
        run_dir = tmp_path / f"run{n}"
        code, out, err = train_in(monkeypatch, capsys, n, data, run_dir)
        assert code == 0 and "Traceback" not in err
        runs.append((out.replace(str(run_dir), "RUN"),
                     (run_dir / CHECKPOINT_NAME).read_bytes(),
                     (run_dir / "loss_log.jsonl").read_bytes()))
    assert runs[0] == runs[1]
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        f"cannot fork a pass worker ([Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}): "
        "the passes of 1 of 1 workers run in this process"]


def test_blas_runs_one_thread_in_eval_and_its_count_is_restored(capsys, monkeypatch,
                                                                tiny_run, tmp_path):
    threads = workers._openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS whose thread count can be held to one")
    get, put = threads
    data, files, _weights = tiny_run
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for name, blob in files.items():
        (run_dir / name).write_bytes(blob)
    seen, predict = [], GroundingModel.predict
    monkeypatch.setattr(GroundingModel, "predict",
                        lambda model, samples: seen.append(get()) or predict(model, samples))
    before = get()
    try:
        put(2)
        code, _out, _err = run_cli(capsys, "eval", "--data", str(data),
                                   "--checkpoint", str(run_dir))
        assert code == 0 and seen == [1] and get() == 2
    finally:
        put(before)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A six-scene dataset, the files of a one-step run trained on it and its weights."""
    root = tmp_path_factory.mktemp("tiny_run")
    data, run_dir = root / "s.jsonl", root / "run"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(["synth", "--n", "6", "--seed", "2", "--out", str(data)]) == 0
        assert run(["train", "--data", str(data), "--config", str(TOY_CFG),
                    "--out", str(run_dir), "--steps", "1"]) == 0
    files = {name: (run_dir / name).read_bytes()
             for name in (CONFIG_NAME, VOCAB_NAME, CHECKPOINT_NAME)}
    return data, files, {name: p.data for name, p in load_model(run_dir).params.items()}


CONFIG_VALUES = (st.sampled_from(["0", "-1", "1", "2", "3", "64", "1e38", "nan", "inf",
                                  "true", "false", "", "x", "1.5"])
                 | st.integers(-2, 70).map(str) | st.floats().map(str))


EDITS = {CONFIG_NAME: ["value", "no line", "bytes"], VOCAB_NAME: ["json", "bytes"],
         CHECKPOINT_NAME: ["saturate", "entry", "bytes"]}


def mutate_run_file(data, name, blob, weights):
    """``blob``, the bytes of run file ``name``, with one drawn edit; ``weights``
    are the arrays ``blob`` holds when ``name`` is the checkpoint."""
    edit = data.draw(st.sampled_from(EDITS[name]))
    if edit in ("value", "no line"):
        lines = blob.decode().splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        if edit == "no line":
            del lines[i]
        else:
            lines[i] = f"{lines[i].partition(' = ')[0]} = {data.draw(CONFIG_VALUES)}"
        return ("\n".join(lines) + "\n").encode()
    if edit == "json":
        return json.dumps(mutate(data, json.loads(blob))).encode()
    if edit in ("saturate", "entry"):
        # finite weights of any size, so that a pass can overflow
        arrays = {k: v.copy() for k, v in weights.items()}
        target = data.draw(st.sampled_from(sorted(arrays)))
        if edit == "saturate":
            # each nonzero weight at the edge of the float32 range
            arrays[target] = np.sign(arrays[target]) * np.finfo(np.float32).max
        else:
            value = data.draw(st.floats(width=32, allow_nan=False, allow_infinity=False))
            arrays[target].flat[data.draw(st.integers(0, arrays[target].size - 1))] = value
        return nc.checkpoint_bytes({k: nc.Tensor(v) for k, v in arrays.items()})
    blob = bytearray(blob)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(1, 255)), min_size=1, max_size=3))
    for offset, bits in flips:
        blob[offset] ^= bits
    if data.draw(st.booleans()):
        del blob[data.draw(st.integers(0, len(blob))):]
    return bytes(blob)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from([CONFIG_NAME, VOCAB_NAME, CHECKPOINT_NAME]), data=st.data())
def test_mutated_run_directory_loads_or_fails_cleanly(tiny_run, name, data):
    dataset, files, weights = tiny_run
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        for file, blob in files.items():
            (run_dir / file).write_bytes(mutate_run_file(data, name, blob, weights)
                                         if file == name else blob)
        try:
            load_model(run_dir)
        except (DataError, CheckpointError):
            pass
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(["eval", "--data", str(dataset), "--checkpoint", str(run_dir)])
    err = err.getvalue()
    event(f"{name} exit {code}")
    assert code in (0, 2, 3), err
    assert "Traceback" not in err and caught == []
    errors = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert len(errors) == (code != 0)
    if code == 3:
        assert re.search(r" in \S+ in the pass over samples synth-\d{6}", errors[0]["detail"])
