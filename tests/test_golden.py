"""Golden outputs: pinned digests of short optimizer runs and CLI output files.

Each trace digest is the SHA-256 of a run's trace lines without
``elapsed_ms`` followed by the bytes of its best mask.  The runs are seeded
as ``xorpso compare`` seeds them: ``SeedSequence(seed).spawn(3)`` gives the
seeding, XOR and baseline streams.  A refactor or fast path that changes
any trace value, or the order of the random draws, changes a digest.  The
CLI digests pin the bytes of every file and of stdout that the subcommands
write, apart from wall-clock times and the output path.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import SMALL_SPEC, SMALL_SPLIT_SEED, WIDE_SPEC, WIDE_SPLIT_SEED
from xorpso import (
    BaselineConfig,
    PsoConfig,
    SynthSpec,
    generate_synthetic,
    position_update,
    run_baseline_bpso,
    run_xor_pso,
    score_features,
    seed_masks,
    standardize_split,
    stratified_split,
    xor_velocity_update,
)
from xorpso.cli import main
from xorpso.swarm import baseline_move

POPULATION = 12
ITERATIONS = 12
# instance -> (spec, split seed, accuracy threshold); at 0.95 the small
# instance's initial population already holds the best mask 12 iterations
# can find, so its traces would not depend on the moves
SPECS = {
    "small": (SMALL_SPEC, SMALL_SPLIT_SEED, 0.9),
    "wide": (WIDE_SPEC, WIDE_SPLIT_SEED, 0.95),
}

GOLDEN = {
    "small/xor/asynchronous/0": "e0c301afda9937730ea4f7b181121a971316fbb25a195bcc78dcf072b38d8d9c",
    "small/xor/asynchronous/1": "4c440b8f679ffe3f6a9c1148cdb3cabbf952ebfe8edf05c9ec51d3809881baa2",
    "small/xor/asynchronous/2": "9e74730318ae7dc65f5b61aa916d8c271c4ab7ef3d7c34a3694999c9cf121fef",
    "small/xor/synchronous/0": "e0c301afda9937730ea4f7b181121a971316fbb25a195bcc78dcf072b38d8d9c",
    "small/xor/synchronous/1": "4c440b8f679ffe3f6a9c1148cdb3cabbf952ebfe8edf05c9ec51d3809881baa2",
    "small/xor/synchronous/2": "4c310e11d20d2468b746acb81b99751a9e4bcf414ffffb476e7377a2c338f643",
    "small/baseline/asynchronous/0": "107e3cad82524ec4fc2bb1c91fe6ad6c18785c539f611baec097fba4069db480",
    "small/baseline/asynchronous/1": "9244830a900f2595809cf2ee189471750869b4c844befb2b25d5a1dc2ad23593",
    "small/baseline/asynchronous/2": "9b79c186d613c3d3e62b1dbba922f136dd26d5c75807baf86d8b2fcfd8746d34",
    "small/baseline/synchronous/0": "107e3cad82524ec4fc2bb1c91fe6ad6c18785c539f611baec097fba4069db480",
    "small/baseline/synchronous/1": "9244830a900f2595809cf2ee189471750869b4c844befb2b25d5a1dc2ad23593",
    "small/baseline/synchronous/2": "9b79c186d613c3d3e62b1dbba922f136dd26d5c75807baf86d8b2fcfd8746d34",
    "wide/xor/asynchronous/0": "0151cd127d84af433d8f97303fd0cba34315fa387b22455044179ff1c9e9f53e",
    "wide/xor/asynchronous/1": "1d9a8a9b7ebd351e62440f98d8c3ec2b01f23cb4a119ede4667d1eeb9f10656d",
    "wide/xor/asynchronous/2": "1398268405e28c2b1d6bab200cd8c2dd730f3aa48386372e5ed7db5cf852511a",
    "wide/xor/synchronous/0": "1fc503dea7379c27973a09c40953cf18c80b792e857f92c5af9ef06c343fca6a",
    "wide/xor/synchronous/1": "656e9273d7429a0d60294cc72124a991e56615e55779e96d3c31b67a6fd7167a",
    "wide/xor/synchronous/2": "44364b1fdf0fa9cc5738872f553d66aeb98c388eb061f9aa76c9bcc6ffcbc572",
    "wide/baseline/asynchronous/0": "2c3e6a5f1814f64aa0698906650d6aa34377665b6a57416e7d78868ad0cd31e0",
    "wide/baseline/asynchronous/1": "56695e383256119f905f0baedf42e293fc63fe2c5a97d5f3fc79422478a573a5",
    "wide/baseline/asynchronous/2": "fbc594849c9582f9a30f269cc076f5165e9f9b45d0d2907e7b5ad0591ca925a9",
    "wide/baseline/synchronous/0": "76e52d3928762b1b7f7b8f7e03dc7c5295d66d1c84665a466068449bcb7b03e8",
    "wide/baseline/synchronous/1": "56695e383256119f905f0baedf42e293fc63fe2c5a97d5f3fc79422478a573a5",
    "wide/baseline/synchronous/2": "8af36d771a3faee540a182cdb5abc75cca2756bcdede56277069eeef8ee58707",
}


@pytest.fixture(scope="module")
def prepared():
    """Split and MI scores per instance, built once for all cases."""
    out = {}
    for name, (spec, split_seed, _) in SPECS.items():
        split = standardize_split(
            stratified_split(generate_synthetic(spec), 0.2, split_seed)
        )
        out[name] = (split, score_features(split.train, bin_count=10))
    return out


def _digest(trace, best) -> str:
    h = hashlib.sha256()
    for record in trace:
        row = record.to_dict()
        del row["elapsed_ms"]
        h.update((json.dumps(row) + "\n").encode())
    h.update(np.asarray(best, dtype=np.int8).tobytes())
    return h.hexdigest()


def _golden_run(prepared, instance, optimizer, mode, seed) -> str:
    split, scores = prepared[instance]
    seeding_rng, xor_rng, baseline_rng = (
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(seed).spawn(3)
    )
    masks = seed_masks(scores, POPULATION, rng=seeding_rng)
    shared = dict(
        population=POPULATION, iterations=ITERATIONS,
        accuracy_threshold=SPECS[instance][2], update_mode=mode,
    )
    if optimizer == "xor":
        best, trace = run_xor_pso(split, PsoConfig(**shared), masks, rng=xor_rng)
    else:
        best, trace = run_baseline_bpso(
            split, BaselineConfig(**shared), masks, rng=baseline_rng
        )
    return _digest(trace, best)


CASES = [
    (instance, optimizer, mode, seed)
    for instance in SPECS
    for optimizer in ("xor", "baseline")
    for mode in ("asynchronous", "synchronous")
    for seed in range(3)
]


@pytest.mark.parametrize("instance,optimizer,mode,seed", CASES)
def test_trace_matches_golden_digest(prepared, instance, optimizer, mode, seed):
    key = f"{instance}/{optimizer}/{mode}/{seed}"
    assert _golden_run(prepared, instance, optimizer, mode, seed) == GOLDEN[key]


# --- MI scores -----------------------------------------------------------

# the trace digests see MI scores only through the seeding ranking, so a
# 1-ulp drift in a score would pass them; these pin the repr of every score.
# The instances are the training splits of the three benchmark workloads at
# 10 bins (validation fraction 0.2) and a 1000-column split at 2**53 bins,
# where every value of a column gets a bin of its own
MI_CASES = {
    "wide_xor": (SynthSpec(400, 64, 8, seed=19), 2, 10),
    "many_features": (SynthSpec(120, 2000, 20, seed=5), 1, 10),
    "tall_sync_compare": (SynthSpec(800, 32, 6, class_separation=1.0, seed=11), 3, 10),
    "n1000_f1000_2**53": (SynthSpec(1000, 1000, 40, seed=0), 0, 2**53),
}
MI_GOLDEN = {
    "wide_xor": "69c46b4450fcce09b137bf10ab0a2221caaccf9edb2f8436c2bda8c21d7c3322",
    "many_features": "f8058acbb9e8db7f4c872a2baee06255af9cb511adc457bcf735731734ecbb07",
    "tall_sync_compare": "a3855980e6a08bb64af8960d1f8d97f9001937d3f9015a641a67bbf4f526d982",
    "n1000_f1000_2**53": "81bb58eec4d933a7f4b1349042b6465a01a3b4811db5f6641ad2f07d21cd114f",
}


@pytest.mark.parametrize("name", MI_CASES)
def test_mi_scores_match_golden_digest(name):
    spec, split_seed, bins = MI_CASES[name]
    split = standardize_split(stratified_split(generate_synthetic(spec), 0.2, split_seed))
    scores = score_features(split.train, bin_count=bins).scores
    text = "".join(repr(float(s)) + "\n" for s in scores)
    assert hashlib.sha256(text.encode()).hexdigest() == MI_GOLDEN[name]


# --- CLI output bytes -----------------------------------------------------

# traces on this instance differ between optimizers and seeds; the oracle
# runs on a 5-feature one
CLI_SPEC = "n=200,f=10,inf=3,sep=1.0,seed=7"
ORACLE_SPEC = "n=40,f=5,inf=2,seed=3"
CLI_RUN = ["--population", "6", "--iterations", "5", "--seed", "1"]
CLI_GOLDEN = {
    "synth-gen/stdout": "194eeb6bf837f387dbd816a4186c5eec0f7771975580a5d12eb111fd1458af7a",
    "synth-gen/synth.csv": "49f2a8c6b1219044867ffdebadf9edce20c2bc84bb76881926a8fce4333ea0f2",
    "synth-gen/synth.provenance.json": "447f512ff154b931777778dc84600596a13cb777f4883bf186a30a978afba848",
    "select-xor/stdout": "5dc2ab30df700cf3bec172e5d6e602ab6b7b442d4c7840dceb13f92b2d2ad89e",
    "select-xor/result.json": "98087f7bc69227656ba6758e365d71f3a44f3198b40c1d92d89fcfe6affc4869",
    "select-xor/selected.csv": "9ff01fce8cef9b00b2c84ebea1be532e6459dd382b6554df015d79458781b0fd",
    "select-xor/trace.jsonl": "1e7ffb3ef5d5ec3f3973191be5af49d9867d23736e775ed8b4fc35550b713dc8",
    "select-baseline/stdout": "10ca2b2ca2497c47573967c7782fb98acfaeeef542ffff14435f7d53aee7ddfd",
    "select-baseline/result.json": "632156b3311496e32a56ff740c7e6e828067aabe56220979ccb548392fed5dd4",
    "select-baseline/selected.csv": "566eee5064bdadae82d16f7c7d98702a3d5b379cc9a240f8fc6c92f69a4c3221",
    "select-baseline/trace.jsonl": "524c9798c8ae061eaeda3e2cdd44ef36746470247016fb697e7754ad8fc02be7",
    "select-oracle/stdout": "621845c111880bef3b64d0a5aae72b5df12010f80d89c03342cc0a7d4236bdac",
    "select-oracle/result.json": "681442cd63ca54c454e151595c26bd8879604352d7cf4a20e605d3c5f834d474",
    "select-oracle/selected.csv": "5c206d7326edb67694e76bb586df89f00b0324afff56ed739df7048698f0c77d",
    "select-oracle/trace.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "compare/stdout": "4a892809a58ba585489840d3116d5a98c53acc726dc2cbdfc8905700f2062158",
    "compare/summary.csv": "ba17fcb907b6ef6dd033c241e7e61b92f48ad399d33f8333414e6379d1f3f3b0",
    "compare/trace_baseline_0.jsonl": "5229d2295f55326290589b6271135eacc751eed21c08af83fd1b14de49c093b3",
    "compare/trace_baseline_2.jsonl": "880f43ac7a88dc23df7aed02dabac2396a80d261a25d37859e7a7f3ee9f43235",
    "compare/trace_xor_0.jsonl": "441f772da27e0e1862f8c7ed1d5e2cd731863dfb93c2df98b3214b9f72cac507",
    "compare/trace_xor_2.jsonl": "3221e01b030330728a9a53869751c98a201847b309c5f08ddfc26206f0a9b5e2",
    "mi-report/stdout": "ae44797caf5a20299a5c48532a5920cd9b42328901e338c928ae2a3922c60fb2",
    "mi-report/mi.csv": "845a166db3bbde65312e5c2005579e3aba1aa8268a87b4407e30a0a403630ced",
}


def _canonical_json(text: str, dumps) -> dict:
    """Parse ``text`` and check that ``dumps`` writes it back byte for byte."""
    obj = json.loads(text)
    assert dumps(obj) == text
    return obj


def _cli_bytes(path, tmp_path) -> bytes:
    """A CLI output file's bytes without wall-clock times or the output path.

    The data path the config echo holds starts with ``<tmp>`` in place of
    the test's temporary directory.
    """
    text = path.read_text(encoding="utf-8").replace(str(tmp_path), "<tmp>")
    if path.name == "result.json":
        result = _canonical_json(text, lambda o: json.dumps(o, indent=2) + "\n")
        del result["wall_ms"], result["config"]["out"]
        text = json.dumps(result, indent=2) + "\n"
    elif path.suffix == ".jsonl":
        rows = [_canonical_json(line, json.dumps) for line in text.splitlines()]
        for row in rows:
            del row["elapsed_ms"]
        text = "".join(json.dumps(row) + "\n" for row in rows)
    elif path.name == "summary.csv":
        lines = text.splitlines()
        assert all(line.count(",") == 5 for line in lines)
        text = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    return text.encode()


def test_cli_outputs_match_golden_digests(tmp_path, capsys, monkeypatch):
    # a run is configured by its flags and config file alone; a seed left in
    # the environment must not reach the oracle run, which passes no --seed
    monkeypatch.setenv("XORPSO_SEED", "7")
    data = str(tmp_path / "synth-gen" / "synth.csv")
    commands = {
        "synth-gen": ["synth-gen", "--synth", CLI_SPEC],
        "select-xor": ["select", "--data", data, *CLI_RUN],
        "select-baseline": ["select", "--data", data, *CLI_RUN,
                            "--optimizer", "baseline"],
        "select-oracle": ["select", "--synth", ORACLE_SPEC, "--optimizer", "oracle"],
        "compare": ["compare", "--data", data, *CLI_RUN, "--seeds", "0,2"],
        "mi-report": ["mi-report", "--data", data],
    }
    digests = {}
    for name, argv in commands.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
        digests[f"{name}/stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        for path in sorted((tmp_path / name).iterdir()):
            key = f"{name}/{path.name}"
            digests[key] = hashlib.sha256(_cli_bytes(path, tmp_path)).hexdigest()
    assert digests == CLI_GOLDEN


# --- array moves equal row-by-row moves ----------------------------------

@st.composite
def _swarms(draw, columns):
    p = draw(st.integers(1, 6))
    n = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bits = lambda shape: (rng.random(shape) < 0.5).astype(np.int8)  # noqa: E731
    return (
        bits((p, n)),
        bits((p, n)),
        bits(n),
        rng.uniform(-6.0, 6.0, (p, n)),
        rng.random((p, n, columns)),
        draw(st.floats(0.0, 1.0)),
    )


@settings(max_examples=200, deadline=None)
@given(_swarms(columns=2))
def test_xor_move_on_matrix_equals_rows(swarm):
    x, pbest, gbest, real_v, u, w = swarm
    v = (real_v > 0).astype(np.int8)
    vel = xor_velocity_update(x, v, pbest, gbest, w, u)
    pos = position_update(x, vel)
    for i in range(x.shape[0]):
        row_vel = xor_velocity_update(x[i], v[i], pbest[i], gbest, w, u[i])
        assert np.array_equal(vel[i], row_vel)
        assert np.array_equal(pos[i], position_update(x[i], row_vel))


@settings(max_examples=200, deadline=None)
@given(_swarms(columns=3))
def test_baseline_move_on_matrix_equals_rows(swarm):
    x, pbest, gbest, v, u, w = swarm
    vel, pos = baseline_move(x, v, pbest, gbest, w, u)
    for i in range(x.shape[0]):
        row_vel, row_pos = baseline_move(x[i], v[i], pbest[i], gbest, w, u[i])
        assert np.array_equal(vel[i], row_vel)
        assert np.array_equal(pos[i], row_pos)
