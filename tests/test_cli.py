"""End-to-end command-line runs: config resolution, outputs, and error paths."""

import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xorpso.swarm
from xorpso import (
    BaselineConfig,
    PsoConfig,
    SynthSpec,
    brute_force_best,
    generate_synthetic,
    load_dataset,
    mutual_information,
    read_trace,
    save_dataset,
    score_features,
    standardize_split,
    stratified_split,
)
from xorpso.cli import (
    CliError,
    RunConfig,
    build_parser,
    main,
    parse_synth,
    resolve_config,
)
from xorpso.rank import MAX_SWARM_CELLS

SMALL = "n=40,f=5,inf=2,seed=3"


def _select(out, *extra):
    return main(
        [
            "select",
            "--synth",
            SMALL,
            "--population",
            "6",
            "--iterations",
            "5",
            "--seed",
            "1",
            "--out",
            str(out),
            *extra,
        ]
    )


def _stripped(trace_path):
    rows = []
    for line in trace_path.read_text().splitlines():
        obj = json.loads(line)
        obj.pop("elapsed_ms")
        rows.append(obj)
    return rows


# --- synth spec parsing ---------------------------------------------------

def test_parse_synth_full_and_defaults():
    spec = parse_synth("n=400,f=64,inf=8,sep=1.5,noise=0.5,seed=9")
    assert spec == SynthSpec(400, 64, 8, class_separation=1.5, noise_std=0.5, seed=9)
    spec = parse_synth("n=40, f=5, inf=2")
    assert spec.class_separation == 2.0
    assert spec.noise_std == 1.0
    assert spec.seed == 0
    # empty parts are skipped
    assert parse_synth("n=40,,f=5,inf=2,") == spec


def test_parse_synth_errors():
    with pytest.raises(CliError, match="missing key.*f"):
        parse_synth("n=40,inf=2")
    with pytest.raises(CliError, match="unknown key.*samples"):
        parse_synth("samples=40,f=5,inf=2")
    with pytest.raises(CliError, match="key=value"):
        parse_synth("n=40,f=5,oops")
    # a repeated key is refused, not silently taken from its last part
    with pytest.raises(CliError, match=r"repeated key\(s\) f, n$"):
        parse_synth("n=40,f=5,inf=2,n=10,f=3")
    with pytest.raises(CliError):
        parse_synth("n=forty,f=5,inf=2")


def test_negative_synth_seed_is_named_in_one_error_line(tmp_path, capsys):
    spec = "n=10,f=3,inf=1,seed=-1"
    code = main(["synth-gen", "--synth", spec, "--out", str(tmp_path / "synth")])
    assert code == 1
    assert _one_error_line(capsys) == (
        f"error: synth spec {spec!r}: seed must be >= 0, got -1\n")
    assert not (tmp_path / "synth").exists()


# --- RunConfig ------------------------------------------------------------

def test_run_config_round_trips_through_dict():
    config = RunConfig(synth=SMALL, population=7, seed=5, optimizer="baseline")
    assert RunConfig.from_dict(config.to_dict()) == config


def test_run_config_defaults_are_the_library_defaults():
    config = RunConfig()
    assert config.swarm_config("xor") == PsoConfig()
    assert config.swarm_config("baseline") == BaselineConfig()
    assert parse_synth("n=40,f=5,inf=2") == SynthSpec(40, 5, 2)
    # the defaults RunConfig still writes out itself
    assert config.bins == inspect.signature(score_features).parameters["bin_count"].default
    label_default = inspect.signature(load_dataset).parameters["label_column"].default
    assert config.label_column == label_default


def test_run_config_rejects_unknown_keys():
    # an older result.json may still hold seeded_fraction, top_m or workers
    for key in ("typo", "seeded_fraction", "top_m", "workers"):
        with pytest.raises(CliError, match=f"unknown config key.*{key}"):
            RunConfig.from_dict({key: 1})


def test_every_run_config_field_is_a_select_flag():
    # a config key with no flag would be a setting only a file can reach
    args = vars(build_parser().parse_args(["select"]))
    assert set(RunConfig().to_dict()) == set(args) - {"command", "config"}


def test_run_config_rejects_bad_optimizer():
    with pytest.raises(CliError, match="optimizer"):
        RunConfig(optimizer="annealing")


def test_run_config_checks_value_types():
    with pytest.raises(CliError, match="population.*int.*'30'"):
        RunConfig.from_dict({"population": "30"})
    with pytest.raises(CliError, match="threshold"):
        RunConfig.from_dict({"threshold": "high"})
    with pytest.raises(CliError, match="label_column"):
        RunConfig.from_dict({"label_column": None})
    # an int is a valid float, and null is valid where the field allows it
    assert RunConfig.from_dict({"threshold": 1}).threshold == 1
    assert RunConfig.from_dict({"data": None}).data is None


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    return err


def test_wrong_type_in_config_file_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"population": "30"}))
    code = main(
        ["select", "--synth", SMALL, "--config", str(cfg), "--out", str(tmp_path)]
    )
    assert code == 1
    assert "population" in _one_error_line(capsys)


RUN_CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
# no RunConfig field takes a bool, a list or an object, and NaN and
# +-Infinity are out of range (or of the wrong type) for every field
BAD_VALUES = st.one_of(
    st.booleans(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
BAD_ENTRIES = st.one_of(
    st.tuples(st.sampled_from(RUN_CONFIG_KEYS), BAD_VALUES),
    st.tuples(
        st.text(min_size=1, max_size=8).filter(lambda key: key not in RUN_CONFIG_KEYS),
        st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=4)),
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(BAD_ENTRIES, min_size=1, max_size=4))
def test_fuzzed_bad_config_file_is_one_error_line(entries):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(dict(entries)), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["select", "--synth", "n=30,f=4,inf=2", "--population", "2",
                         "--iterations", "1", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert not out.exists()


# 2**63 bins would overflow the int64 bin index
@pytest.mark.parametrize("flag,value", [("--bins", "1"), ("--bins", str(2**63))])
def test_bad_seeding_setting_is_one_error_line(tmp_path, capsys, flag, value):
    assert _select(tmp_path, flag, value) == 1
    assert f"got {value}" in _one_error_line(capsys)


def test_rejected_run_leaves_no_trace_file(tmp_path, capsys):
    # SMALL trains on 32 rows, so k = 33 fails the initial evaluation
    assert _select(tmp_path / "select", "--knn-k", "33") == 1
    assert not (tmp_path / "select" / "trace.jsonl").exists()
    code = main(
        ["compare", "--synth", SMALL, "--knn-k", "33", "--out", str(tmp_path / "cmp")]
    )
    assert code == 1
    assert list((tmp_path / "cmp").glob("trace_*.jsonl")) == []


@pytest.mark.parametrize("command", ["select", "compare"])
def test_workers_flag_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--synth", SMALL, "--workers", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not out.exists()


def test_workers_in_a_config_file_or_result_echo_is_one_error_line(tmp_path, capsys):
    # runs evaluate on the calling thread; an older config may still hold workers
    assert _select(tmp_path / "run") == 0
    capsys.readouterr()
    result = json.loads((tmp_path / "run" / "result.json").read_text())
    result["config"]["workers"] = 1
    echo, plain = tmp_path / "result.json", tmp_path / "run.json"
    echo.write_text(json.dumps(result))
    plain.write_text(json.dumps({"workers": 1}))
    for cfg in (plain, echo):
        out = tmp_path / f"out_{cfg.stem}"
        code = main(["select", "--synth", SMALL, "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert _one_error_line(capsys) == "error: unknown config key(s): 'workers'\n"
        assert not out.exists()


def test_wall_ms_includes_the_initial_evaluation(tmp_path, monkeypatch):
    # the first evaluation is the initial population's, before iteration 0
    evaluate = xorpso.swarm.evaluate_particle
    calls = []

    def slow_first(*args, **kwargs):
        if not calls:
            time.sleep(0.05)
        calls.append(None)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(xorpso.swarm, "evaluate_particle", slow_first)
    assert _select(tmp_path / "select") == 0
    wall_ms = json.loads((tmp_path / "select" / "result.json").read_text())["wall_ms"]
    trace = read_trace(tmp_path / "select" / "trace.jsonl")
    assert wall_ms >= 50 + sum(r.elapsed_ms for r in trace)

    # compare runs xor first, so its one run holds the slow evaluation
    calls.clear()
    out = tmp_path / "cmp"
    assert main(["compare", "--synth", SMALL, "--population", "6", "--iterations", "5",
                 "--seeds", "0", "--out", str(out)]) == 0
    rows = {row.split(",")[0]: row.split(",")
            for row in (out / "summary.csv").read_text().splitlines()}
    trace = read_trace(out / "trace_xor_0.jsonl")
    assert float(rows["xor"][5]) >= 50 + sum(r.elapsed_ms for r in trace)


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(["select", "--population", "0"], "population", id="select"),
        pytest.param(["compare", "--population", "0"], "population", id="compare"),
        # beyond 2**53 bins the scores would be wrong: no mi.csv is written
        pytest.param(["mi-report", "--bins", "100000000000000000000"],
                     "got 100000000000000000000", id="mi-report-bins"),
        pytest.param(["select", "--knn-k", "41"], "k=41", id="knn-k"),
        # the oracle rejects the feature count only after the data is scored
        pytest.param(["select", "--optimizer", "oracle", "--synth", "n=50,f=25,inf=3"],
                     "20 features", id="oracle-too-wide"),
        pytest.param(["select", "--seed", "-3"], "seed must be >= 0", id="negative-seed"),
        # one trace per optimizer and seed, so a repeated seed would overwrite one
        pytest.param(["compare", "--seeds", "1,1"], "distinct", id="repeated-seeds"),
        pytest.param(["compare", "--seeds", "0,-1"], ">= 0", id="negative-seeds"),
        pytest.param(["compare", "--seeds", ","], "at least one seed", id="no-seeds"),
        # checked before any data is built
        pytest.param(["synth-gen", "--synth", "n=400,f=64,inf=8,n=10"],
                     "synth spec 'n=400,f=64,inf=8,n=10': repeated key(s) n",
                     id="synth-repeated-key"),
        pytest.param(["synth-gen", "--synth", f"{SMALL},noise=nan"],
                     "noise_std must be finite", id="synth-noise-nan"),
        pytest.param(["synth-gen", "--synth", f"{SMALL},sep=inf"],
                     "class_separation must be finite", id="synth-sep-inf"),
        pytest.param(["synth-gen", "--synth", f"{SMALL},sep=1e309"],
                     "class_separation must be finite", id="synth-sep-1e309"),
        # the features overflow float64: one error naming the spec, no numpy warning
        pytest.param(["synth-gen", "--synth", f"{SMALL},noise=1e308"],
                     "noise_std=1e+308", id="synth-overflow",
                     marks=pytest.mark.filterwarnings("error")),
        # the data is finite but its train std (or mean and std) overflows
        pytest.param(["select", "--synth", "n=40,f=5,inf=2,noise=1e200"],
                     "cannot standardize feature column", id="std-overflow",
                     marks=pytest.mark.filterwarnings("error")),
        pytest.param(["select", "--synth", "n=40,f=5,inf=2,noise=1e300,sep=1e308"],
                     "cannot standardize feature column", id="mean-overflow",
                     marks=pytest.mark.filterwarnings("error")),
        # the masks would take petabytes; the size check rejects them first
        pytest.param(["select", "--synth", "n=60,f=6,inf=2",
                      "--population", "1000000000000000"],
                     "swarm cells exceeds the limit", id="population-beyond-memory"),
        # a synthetic matrix of petabytes fails to allocate at once
        pytest.param(["select", "--synth", "n=1000000000000000,f=6,inf=2"],
                     "not enough memory", id="synth-beyond-memory"),
    ],
)
def test_rejected_setting_leaves_no_output_directory(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    synth = [] if "--synth" in argv else ["--synth", SMALL]
    assert main([*argv, *synth, "--out", str(out)]) == 1
    assert message in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "compare"])
def test_oversized_swarm_is_rejected_before_seeding(tmp_path, capsys, monkeypatch,
                                                    command):
    class NoDraws:
        def random(self, *args, **kwargs):
            raise AssertionError("masks were drawn for an oversized swarm")

    seed_masks = xorpso.swarm.seed_masks
    monkeypatch.setattr("xorpso.swarm.seed_masks",
                        lambda scores, population, *, rng:
                        seed_masks(scores, population, rng=NoDraws()))
    out = tmp_path / "out"
    argv = [command, "--synth", "n=60,f=6,inf=2", "--population", "100000000"]
    assert main([*argv, "--out", str(out)]) == 1
    err = _one_error_line(capsys)
    assert f"600000000 swarm cells exceeds the limit of {MAX_SWARM_CELLS}" in err
    assert not out.exists()


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_every_output_has_the_mode_the_umask_gives(tmp_path, umask_022):
    run = ["--population", "6", "--iterations", "3", "--out"]
    assert main(["synth-gen", "--synth", SMALL, "--out", str(tmp_path / "gen")]) == 0
    data = str(tmp_path / "gen" / "synth.csv")
    for name, argv in {
        "xor": ["select", "--data", data, *run],
        "oracle": ["select", "--data", data, "--optimizer", "oracle", "--out"],
        "compare": ["compare", "--data", data, "--seeds", "0,1", *run],
        "mi": ["mi-report", "--data", data, "--out"],
    }.items():
        assert main([*argv, str(tmp_path / name)]) == 0
    outputs = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert len(outputs) == 2 + 3 + 3 + 5 + 1
    for path in outputs:
        probe = path.parent / "probe.txt"
        probe.write_text("")
        assert path.stat().st_mode == probe.stat().st_mode, path.name
        probe.unlink()


# --- seed precedence ------------------------------------------------------

def _resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


def test_seed_defaults_to_42():
    config = _resolve(["select", "--synth", SMALL])
    assert config.seed == 42


def test_seed_config_file_overrides_default(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 9, "synth": SMALL}))
    config = _resolve(["select", "--config", str(cfg)])
    assert config.seed == 9
    assert config.synth == SMALL


def test_seed_flag_overrides_everything(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 9, "synth": SMALL}))
    config = _resolve(["select", "--config", str(cfg), "--seed", "11"])
    assert config.seed == 11


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"population": 4, "synth": SMALL}))
    config = _resolve(["select", "--config", str(cfg), "--population", "6"])
    assert config.population == 6


# --- select ---------------------------------------------------------------

def test_select_writes_all_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    assert _select(out) == 0
    printed = capsys.readouterr().out
    assert "fitness=" in printed and "selected=" in printed
    for name in ("trace.jsonl", "result.json", "selected.csv"):
        assert (out / name).is_file()
    result = json.loads((out / "result.json").read_text())
    assert result["seed"] == 1
    assert result["optimizer"] == "xor"
    assert result["selected_indices"] == sorted(result["selected_indices"])
    assert result["selected_count"] == len(result["selected_indices"])
    assert result["feature_count"] == 5
    trace = read_trace(out / "trace.jsonl")
    assert len(trace) == 5
    assert result["fitness"] == trace[-1].gbest_fitness
    assert result["accuracy"] == trace[-1].gbest_accuracy
    # the echoed config is a valid RunConfig on its own
    RunConfig.from_dict(result["config"])
    selected_rows = (out / "selected.csv").read_text().splitlines()
    assert selected_rows[0] == "index,feature,mi_score"
    assert len(selected_rows) == 1 + result["selected_count"]


def test_select_from_csv_with_custom_label_column(tmp_path):
    ds = generate_synthetic(SynthSpec(40, 4, 2, seed=2))
    data = tmp_path / "data.csv"
    save_dataset(ds, data, label_column="outcome")
    out = tmp_path / "run"
    code = main(
        [
            "select",
            "--data",
            str(data),
            "--label-column",
            "outcome",
            "--population",
            "5",
            "--iterations",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads((out / "result.json").read_text())["feature_count"] == 4


def test_select_oracle_matches_library_oracle(tmp_path):
    out = tmp_path / "oracle"
    code = main(
        ["select", "--synth", SMALL, "--optimizer", "oracle", "--seed", "1",
         "--out", str(out)]
    )
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    # recompute through the library with the same data/split pipeline
    split = standardize_split(
        stratified_split(generate_synthetic(parse_synth(SMALL)), 0.2, 1)
    )
    mask, fit = brute_force_best(split, PsoConfig())
    assert result["fitness"] == fit
    assert result["selected_indices"] == [int(j) for j in np.flatnonzero(mask)]
    # the oracle has no iterations, so its trace is present but empty
    assert read_trace(out / "trace.jsonl") == []


def test_select_config_echo_reproduces_run(tmp_path):
    first = tmp_path / "a"
    again = tmp_path / "b"
    assert _select(first) == 0
    code = main(
        ["select", "--config", str(first / "result.json"), "--out", str(again)]
    )
    assert code == 0
    assert _stripped(first / "trace.jsonl") == _stripped(again / "trace.jsonl")
    ra = json.loads((first / "result.json").read_text())
    rb = json.loads((again / "result.json").read_text())
    assert ra["selected_indices"] == rb["selected_indices"]
    assert ra["fitness"] == rb["fitness"]


# --- select error paths ---------------------------------------------------

def test_missing_dataset_file_is_reported(tmp_path, capsys):
    code = main(["select", "--data", str(tmp_path / "absent.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "absent.csv" in err
    assert "Traceback" not in err


def test_one_class_dataset_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "one_class.csv"
    path.write_text("f0,label\n1.0,3\n2.0,3\n3.0,3\n")
    code = main(["select", "--data", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = _one_error_line(capsys)
    assert "class 3" in err
    assert "2 classes" in err
    assert not (tmp_path / "out").exists()


# load_dataset never reads a provenance sidecar, so none of these can change
# a result: not JSON, a wrong shape, indices that contradict the spec or the
# file, or nesting deep enough to exhaust the JSON parser's recursion
@pytest.mark.parametrize(
    "sidecar",
    [
        "{}",
        '{"spec": {"n_samples": 4, "n_features": 2, "n_informative": 1, "bogus": 1}, '
        '"informative_indices": [0]}',
        "oops",
        '{"spec": {"n_samples": 9, "n_features": 2, "n_informative": 1}, '
        '"informative_indices": [0]}',
        '{"spec": {"n_samples": 4, "n_features": 3, "n_informative": 1}, '
        '"informative_indices": [0]}',
        '{"spec": {"n_samples": 4, "n_features": 2, "n_informative": 1}, '
        '"informative_indices": [7]}',
        '{"spec": {"n_samples": 4, "n_features": 2, "n_informative": 1}, '
        '"informative_indices": [-1]}',
        '{"spec": {"n_samples": 4, "n_features": 2, "n_informative": 2}, '
        '"informative_indices": [1, 1]}',
        '{"spec": {"n_samples": 4, "n_features": 2, "n_informative": 1}, '
        '"informative_indices": [0, 1]}',
        '{"spec": {"n_samples": 4, "n_features": 2, "n_informative": 2}, '
        '"informative_indices": [0.9, 1.5]}',
        '{"spec": {"n_samples": 4, "n_features": 2, "n_informative": 2}, '
        '"informative_indices": [true, 0]}',
        '{"spec": {"n_samples": 4, "n_features": 2, "n_informative": 2}, '
        '"informative_indices": ["1", "0"]}',
        '{"spec": {"n_samples": 4, "n_features": 2, "n_informative": 2}, '
        '"informative_indices": "10"}',
        "[" * 200_000,
    ],
    ids=["empty-object", "unknown-spec-key", "not-json",
         "wrong-sample-count", "wrong-feature-count", "index-out-of-range",
         "negative-index", "repeated-index", "count-differs",
         "fractional-indices", "bool-index", "string-indices", "string-of-digits",
         "deep-nesting"],
)
def test_a_provenance_sidecar_is_never_read(tmp_path, sidecar):
    text = "f0,f1,label\n1,2,0\n2,3,1\n3,1,0\n4,4,1\n"
    for name in ("plain", "beside"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "d.csv").write_text(text)
    (tmp_path / "beside" / "d.provenance.json").write_text(sidecar)
    mi = []
    for name in ("plain", "beside"):
        out = tmp_path / name / "mi"
        assert main(["mi-report", "--data", str(tmp_path / name / "d.csv"),
                     "--out", str(out)]) == 0
        mi.append((out / "mi.csv").read_bytes())
    assert mi[0] == mi[1]
    assert load_dataset(tmp_path / "beside" / "d.csv").provenance is None


def test_csv_may_start_with_a_byte_order_mark(tmp_path):
    text = "label,f0,f1\n0,1,2\n1,2,3\n0,3,1\n1,4,4\n"
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    for name in ("plain", "bom"):
        data = str(tmp_path / f"{name}.csv")
        assert main(["mi-report", "--data", data, "--out", str(tmp_path / name)]) == 0
    mi = [(tmp_path / name / "mi.csv").read_bytes() for name in ("plain", "bom")]
    assert mi[0] == mi[1]


@pytest.mark.parametrize(
    "flag,text",
    [("--data", "caf\u00e9,label\n1,0\n2,1\n"), ("--config", '{"synth": "caf\u00e9"}')],
    ids=["data", "config"],
)
def test_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys, flag, text):
    path = tmp_path / "latin1.txt"
    path.write_bytes(text.encode("latin-1"))
    assert main(["select", flag, str(path), "--out", str(tmp_path / "out")]) == 1
    err = _one_error_line(capsys)
    assert str(path) in err
    assert "UTF-8" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "make,message",
    [
        pytest.param(lambda path: None, "cannot read config file", id="missing"),
        pytest.param(lambda path: path.mkdir(), "cannot read config file",
                     id="directory"),
        pytest.param(lambda path: path.write_text('{"seed": 1'), "is not valid JSON",
                     id="not-json"),
        pytest.param(lambda path: path.write_text("[1, 2]"), "must hold a JSON object",
                     id="array"),
        pytest.param(lambda path: path.write_text("[" * 200_000), "nests JSON",
                     id="deep-nesting"),
        # past int()'s digit limit; the message gives no advice meant for code
        pytest.param(lambda path: path.write_text('{"population": %s}' % ("7" * 5000)),
                     f"integer of more than {sys.get_int_max_str_digits()} digits",
                     id="huge-integer"),
    ],
)
def test_unusable_config_file_is_one_error_line(tmp_path, capsys, make, message):
    cfg, out = tmp_path / "run.json", tmp_path / "out"
    make(cfg)
    assert main(["select", "--synth", SMALL, "--config", str(cfg), "--out", str(out)]) == 1
    err = _one_error_line(capsys)
    assert str(cfg) in err
    assert message in err
    assert "sys." not in err
    assert not out.exists()


# csv.Error is no ValueError: the loader words it as the file and its line
@pytest.mark.parametrize("text,line", [
    ("f0,{cell},label\n1,2,0\n2,3,1\n", 1),
    ("f0,label\n1,0\n{cell},1\n2,1\n", 3),
], ids=["header", "body"])
def test_cell_past_the_csv_field_limit_is_one_error_line(tmp_path, capsys, text, line):
    path = tmp_path / "f.csv"
    path.write_text(text.format(cell="1" * (csv.field_size_limit() + 1)))
    assert main(["select", "--data", str(path), "--out", str(tmp_path / "out")]) == 1
    err = _one_error_line(capsys)
    assert f"{path}: line {line}: field larger than field limit" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["select", "mi-report"])
@pytest.mark.parametrize("label", ["1000000000000000000000000000000", "-1e30"])
def test_label_outside_int64_is_one_error_line(tmp_path, capsys, command, label):
    path = tmp_path / "d.csv"
    path.write_text(f"f0,label\n1,0\n2,1\n3,{label}\n4,1\n")
    assert main([command, "--data", str(path), "--out", str(tmp_path / "out")]) == 1
    err = _one_error_line(capsys)
    assert "line 4, column 'label'" in err
    assert "int64 range" in err
    assert not (tmp_path / "out").exists()


# a valid table: two features, two classes of six rows each
GOOD_CSV = [["f0", "f1", "label"]] + [
    [f"{row}.5", f"{-row}", str(row % 2)] for row in range(12)
]
# letters that spell no float literal (no inf, nan or exponent)
WORDS = st.text(alphabet="bcdghjklmopqrsuvwxz", min_size=1, max_size=5)
BAD_FEATURES = st.one_of(
    WORDS, st.sampled_from(["", "nan", "-inf", "Infinity", "1e400", "-1e400", "1,5"])
)
BAD_LABELS = st.one_of(
    WORDS,
    st.sampled_from(["0.5", "1.25", "-1", "-7", "nan", "inf", "1e400", "1e30", ""]),
    st.integers(min_value=2**63).map(str),
    st.integers(max_value=-(2**63) - 1).map(str),
)


@st.composite
def malformed_csvs(draw):
    """CSV text that :func:`load_dataset` or the run must reject."""
    table = [list(row) for row in GOOD_CSV]
    row = draw(st.integers(1, len(table) - 1))
    kind = draw(st.sampled_from(
        ["short", "long", "feature", "label", "empty", "header", "repeated"]))
    if kind == "short":
        del table[row][draw(st.integers(0, 2))]
    elif kind == "long":
        table[row].append("0")
    elif kind == "feature":
        table[row][draw(st.integers(0, 1))] = draw(BAD_FEATURES)
    elif kind == "label":
        table[row][2] = draw(BAD_LABELS)
    elif kind == "header":
        table = table[:1]
    elif kind == "repeated":
        table[0][0] = "label"
    text = "" if kind == "empty" else "".join(
        ",".join(f'"{cell}"' if "," in cell else cell for cell in cells) + "\n"
        for cells in table
    )
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(max_examples=150, deadline=None)
@given(malformed_csvs())
def test_fuzzed_bad_csv_is_one_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "d.csv", Path(tmp) / "out"
        data.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["select", "--data", str(data), "--population", "2",
                         "--iterations", "1", "--out", str(out)])
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
        assert not out.exists()


def test_fuzzed_csv_base_table_is_valid(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("".join(",".join(cells) + "\n" for cells in GOOD_CSV))
    assert main(["select", "--data", str(data), "--population", "2",
                 "--iterations", "1", "--out", str(tmp_path / "out")]) == 0


def test_data_and_synth_are_mutually_exclusive(tmp_path, capsys):
    code = main(
        ["select", "--data", str(tmp_path / "x.csv"), "--synth", SMALL]
    )
    assert code == 1
    assert "exactly one" in capsys.readouterr().err


def test_neither_data_nor_synth_fails(capsys):
    assert main(["select"]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_oracle_guard_mentions_feature_limit(tmp_path, capsys):
    code = main(
        ["select", "--synth", "n=50,f=25,inf=3", "--optimizer", "oracle",
         "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "20" in err
    assert "Traceback" not in err


def test_bad_synth_spec_fails_cleanly(tmp_path, capsys):
    code = main(["select", "--synth", "n=40", "--out", str(tmp_path)])
    assert code == 1
    assert "missing key" in capsys.readouterr().err


def test_even_knn_k_is_a_user_error(tmp_path, capsys):
    code = main(
        ["select", "--synth", SMALL, "--knn-k", "4", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "odd" in capsys.readouterr().err


# --- compare --------------------------------------------------------------

def test_compare_emits_traces_and_consistent_summary(tmp_path):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            "--synth",
            SMALL,
            "--population",
            "6",
            "--iterations",
            "5",
            "--seed",
            "0",
            "--seeds",
            "0,1,2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    for optimizer in ("xor", "baseline"):
        for seed in (0, 1, 2):
            assert (out / f"trace_{optimizer}_{seed}.jsonl").is_file()
    header, *rows = (out / "summary.csv").read_text().splitlines()
    assert header == (
        "optimizer,runs,median_fitness,median_accuracy,median_selected,mean_wall_ms"
    )
    assert len(rows) == 2
    by_name = {row.split(",")[0]: row.split(",") for row in rows}
    for optimizer in ("xor", "baseline"):
        finals = [
            read_trace(out / f"trace_{optimizer}_{seed}.jsonl")[-1]
            for seed in (0, 1, 2)
        ]
        row = by_name[optimizer]
        assert int(row[1]) == 3
        assert float(row[2]) == statistics.median(r.gbest_fitness for r in finals)
        assert float(row[3]) == statistics.median(r.gbest_accuracy for r in finals)
        assert float(row[4]) == statistics.median(r.gbest_selected for r in finals)


def test_compare_single_seed_medians_are_the_finals(tmp_path):
    out = tmp_path / "cmp1"
    code = main(
        ["compare", "--synth", SMALL, "--population", "5", "--iterations", "4",
         "--seed", "0", "--seeds", "3", "--out", str(out)]
    )
    assert code == 0
    _, *rows = (out / "summary.csv").read_text().splitlines()
    for row in rows:
        parts = row.split(",")
        final = read_trace(out / f"trace_{parts[0]}_3.jsonl")[-1]
        assert float(parts[2]) == final.gbest_fitness
        assert float(parts[4]) == final.gbest_selected


def test_select_and_compare_write_the_same_trace_for_a_seed(tmp_path):
    # on SMALL both baseline streams happen to give the same trace; here
    # they differ, so the test sees which stream each command uses
    run = ["--synth", "n=200,f=10,inf=3,seed=7", "--population", "6",
           "--iterations", "5", "--seed", "4"]
    assert main(["compare", *run, "--seeds", "4", "--out", str(tmp_path)]) == 0
    for optimizer in ("xor", "baseline"):
        out = tmp_path / optimizer
        code = main(["select", *run, "--optimizer", optimizer, "--out", str(out)])
        assert code == 0
        assert _stripped(out / "trace.jsonl") == _stripped(
            tmp_path / f"trace_{optimizer}_4.jsonl"
        )


def test_compare_rejects_bad_seed_list(tmp_path, capsys):
    code = main(
        ["compare", "--synth", SMALL, "--seeds", "1,two", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "comma-separated integers" in capsys.readouterr().err


# --- mi-report ------------------------------------------------------------

def test_mi_report_ranks_planted_features_first(tmp_path):
    gen = tmp_path / "gen"
    assert main(["synth-gen", "--synth", "n=300,f=8,inf=2,sep=3.0,seed=6",
                 "--out", str(gen)]) == 0
    out = tmp_path / "mi"
    assert main(["mi-report", "--data", str(gen / "synth.csv"),
                 "--out", str(out)]) == 0
    header, *rows = (out / "mi.csv").read_text().splitlines()
    assert header == "rank,feature_index,feature,score"
    assert len(rows) == 8
    planted = set(
        json.loads((gen / "synth.provenance.json").read_text())["informative_indices"]
    )
    top = {int(rows[i].split(",")[1]) for i in range(2)}
    assert top == planted
    # scores are emitted in descending order
    scores = [float(r.split(",")[3]) for r in rows]
    assert scores == sorted(scores, reverse=True)


def test_mi_report_rejects_one_class_data(tmp_path, capsys):
    path = tmp_path / "one_class.csv"
    path.write_text("f0,label\n1.0,3\n2.0,3\n3.0,3\n")
    code = main(["mi-report", "--data", str(path), "--out", str(tmp_path / "mi")])
    assert code == 1
    err = _one_error_line(capsys)
    assert "class 3" in err
    assert "2 classes" in err
    assert not (tmp_path / "mi").exists()


def test_mi_report_scores_constant_column_zero(tmp_path):
    path = tmp_path / "flat.csv"
    lines = ["f0,f1,label"]
    for i in range(12):
        lines.append(f"4.0,{i % 2}.0,{i % 2}")
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "mi"
    assert main(["mi-report", "--data", str(path), "--out", str(out)]) == 0
    rows = (out / "mi.csv").read_text().splitlines()[1:]
    by_index = {int(r.split(",")[1]): float(r.split(",")[3]) for r in rows}
    assert by_index[0] == 0.0
    assert by_index[1] > 0.5


# a column whose binning product overflows float64 is binned at a scale that
# cannot overflow: the exact score, and no numpy warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows,bins,want", [
    # max - min overflows; f0's bins are [0, 9, 5, 5, 5, 5], MI ln(2)/3 up to
    # rounding, and f1 gets one bin per row
    (["-1e308,1,0", "1e308,2,1", "0,3,0", "5,4,1", "1,5,0", "2,6,1"], 10,
     {0: mutual_information([0, 9, 5, 5, 5, 5], [0, 1, 0, 1, 0, 1]),
      1: math.log(2)}),
    # (max - min) * bins overflows; every row gets a bin of its own
    (["0,0", "1e300,1", "5e299,0", "2e299,1"], 2**53, {0: math.log(2)}),
], ids=["range-overflow", "product-overflow"])
def test_mi_report_bins_columns_whose_binning_overflows(tmp_path, rows, bins, want):
    path = tmp_path / "wide.csv"
    header = ",".join(f"f{j}" for j in range(len(want))) + ",label"
    path.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "mi"
    assert main(["mi-report", "--data", str(path), "--bins", str(bins),
                 "--out", str(out)]) == 0
    rows_out = (out / "mi.csv").read_text().splitlines()[1:]
    assert {int(r.split(",")[1]): r.split(",")[3] for r in rows_out} == {
        j: repr(score) for j, score in want.items()
    }


# --- synth-gen ------------------------------------------------------------

def test_synth_gen_round_trips_through_load(tmp_path):
    out = tmp_path / "gen"
    assert main(["synth-gen", "--synth", SMALL, "--out", str(out)]) == 0
    assert (out / "synth.csv").is_file()
    assert (out / "synth.provenance.json").is_file()
    back = load_dataset(out / "synth.csv")
    direct = generate_synthetic(parse_synth(SMALL))
    assert np.array_equal(back.features, direct.features)
    assert np.array_equal(back.labels, direct.labels)
    assert back.provenance is None
    sidecar = json.loads((out / "synth.provenance.json").read_text())
    assert sidecar == {
        "spec": dataclasses.asdict(direct.provenance.spec),
        "informative_indices": list(direct.provenance.informative_indices),
    }


def test_synth_gen_requires_a_spec(capsys):
    assert main(["synth-gen"]) == 1
    assert "--synth" in capsys.readouterr().err
