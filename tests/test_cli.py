from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from attnconcolic.acdp import critical_path, relevance
from attnconcolic.cli import main
from attnconcolic.engine import PathTree, Scheduler, harvest, run_attack
from attnconcolic.influence import BackgroundSet, build_influence_map
from attnconcolic.semantics import ModelSpec, concrete_label

from conftest import symbolic_forward

MODEL_DOC = {
    "input_shape": [2, 1],
    "layers": [
        {"type": "mha", "num_heads": 1, "key_dim": 2,
         "w_q": [[[1, 1]]], "b_q": [[1, 1]],
         "w_k": [[[2, 1]]], "b_k": [[2, 1]],
         "w_v": [[[1, 2]]], "b_v": [[1, 2]],
         "w_o": [[[1], [1]]], "b_o": [1]},
        {"type": "flatten"},
        {"type": "dense", "weights": [[1.0, -1.0], [-1.0, 1.0]],
         "bias": [0.0, 0.05], "activation": "none"},
    ],
}
BACKGROUND = [[[0.1], [0.2]], [[0.8], [0.5]], [[0.4], [0.9]]]
SEEDS = {"seed0": [[0.3], [0.6]], "seed1": [[0.7], [0.1]]}


def read_seed(path) -> np.ndarray:
    """The seed input a report names by its file."""
    return np.asarray(json.loads(Path(path).read_text()), dtype=float)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("cli")
    paths = {"root": root, "model": root / "model.json",
             "background": root / "bg.json"}
    paths["model"].write_text(json.dumps(MODEL_DOC))
    paths["background"].write_text(json.dumps(BACKGROUND))
    for name, value in SEEDS.items():
        p = root / f"{name}.json"
        p.write_text(json.dumps(value))
        paths[name] = p
    return paths


@pytest.fixture(scope="module")
def attack_dir(workspace) -> Path:
    out = workspace["root"] / "attacks"
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]), str(workspace["seed1"]),
               "--background", str(workspace["background"]),
               "--pixels", "1", "--output-dir", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# influence
# ---------------------------------------------------------------------------


def test_influence_writes_entry_per_neuron(workspace, capsys):
    out = workspace["root"] / "influence"
    rc = main(["influence", "--model", str(workspace["model"]),
               "--background", str(workspace["background"]),
               "--seed-input", str(workspace["seed0"]),
               "--output-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "influence.json").read_text())
    model = ModelSpec.from_json(MODEL_DOC)
    non_output = [nid for d in range(model.output_depth)
                  for nid in model.neuron_ids(d)]
    for nid in non_output:  # one entry per non-output neuron
        assert nid.key() in doc
    # plus the logit grid so argmax work items can be ranked
    total = len(non_output) + model.class_count
    assert len(doc) == total
    assert "layer 0" in capsys.readouterr().out


def test_influence_empty_background_exits_2(workspace):
    empty = workspace["root"] / "empty_bg.json"
    empty.write_text("[]")
    rc = main(["influence", "--model", str(workspace["model"]),
               "--background", str(empty),
               "--seed-input", str(workspace["seed0"]),
               "--output-dir", str(workspace["root"] / "x")])
    assert rc == 2


def test_influence_rerun_is_byte_identical(workspace):
    out_a = workspace["root"] / "inf_a"
    out_b = workspace["root"] / "inf_b"
    for out in (out_a, out_b):
        assert main(["influence", "--model", str(workspace["model"]),
                     "--background", str(workspace["background"]),
                     "--seed-input", str(workspace["seed0"]),
                     "--output-dir", str(out)]) == 0
    assert (out_a / "influence.json").read_bytes() == \
        (out_b / "influence.json").read_bytes()


@pytest.mark.parametrize("permutations", ["0", "-2"])
def test_influence_no_permutations_exits_2(workspace, permutations, capsys):
    # 13 input features: past the exact estimator's limit, so the map is sampled
    wide = workspace["root"] / "wide_model.json"
    wide.write_text(json.dumps({"input_shape": [13], "layers": [
        {"type": "dense", "weights": [[1.0, -1.0]] * 13, "bias": [0.0, 0.0]}]}))
    background = workspace["root"] / "wide_bg.json"
    background.write_text(json.dumps([[0.5] * 13, [0.1] * 13]))
    probe = workspace["root"] / "wide_seed.json"
    probe.write_text(json.dumps([0.3] * 13))
    rc = main(["influence", "--model", str(wide), "--background", str(background),
               "--seed-input", str(probe), "--permutations", permutations,
               "--output-dir", str(workspace["root"] / "wide")])
    assert rc == 2
    assert "input error: n_permutations must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [[3, 2], [4, 4]], ids=["3x2", "4x4"])
@pytest.mark.parametrize("command", ["influence", "attack", "acdp"])
def test_no_permutations_exit_2_before_any_file_is_read(tmp_path, command, shape, capsys,
                                                        monkeypatch):
    # a 3x2 model is scored exactly at every depth, so the map's own check
    # never ran: influence wrote its map; a 4x4 one failed only inside it
    for name in ("_read_json", "build_influence_map", "relevance"):
        monkeypatch.setattr(f"attnconcolic.cli.{name}", lambda *a, **k: pytest.fail("read"))
    features = shape[0] * shape[1]
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"input_shape": shape, "layers": [{"type": "flatten"}, {
        "type": "dense", "weights": [[(i % 5 - 2) / 4, (i % 3 - 1) / 2] for i in range(features)],
        "bias": [0.1, -0.1]}]}))
    inputs = tmp_path / "seed.json"
    inputs.write_text(json.dumps(np.full(shape, 0.5).tolist()))
    background = tmp_path / "bg.json"
    background.write_text(json.dumps([np.full(shape, 0.25).tolist()] * 2))
    extra = {"influence": ["--seed-input", str(inputs)],
             "attack": ["--seeds", str(inputs), "--solver-cmd", "no-such-solver-binary"],
             "acdp": ["--reports", str(tmp_path)]}[command]
    out = tmp_path / "out"
    rc = main([command, "--model", str(model), "--background", str(background),
               "--permutations", "0", *extra, "--output-dir", str(out)])
    assert rc == 2
    assert_one_input_error(capsys, "n_permutations must be at least 1, got --permutations 0")
    assert not out.exists()


def test_malformed_model_exits_2(workspace):
    bad = workspace["root"] / "bad_model.json"
    bad.write_text(json.dumps({"input_shape": [2, 1], "layers": [
        {"type": "dense", "weights": [[1.0]]}]}))  # missing bias
    rc = main(["influence", "--model", str(bad),
               "--background", str(workspace["background"]),
               "--seed-input", str(workspace["seed0"]),
               "--output-dir", str(workspace["root"] / "y")])
    assert rc == 2


def test_ragged_model_weights_exit_2(workspace, capsys):
    bad = workspace["root"] / "ragged_model.json"
    bad.write_text(json.dumps({"input_shape": [2], "layers": [
        {"type": "dense", "weights": [[1.0, 2.0], [3.0]], "bias": [0.0, 0.0]}]}))
    rc = main(["verify", "--model", str(bad), "--reports", str(workspace["root"])])
    assert rc == 2
    assert "input error: model: weights are not" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["influence", "attack"])
def test_non_finite_model_weight_exits_2_before_any_map(tmp_path, command, capsys,
                                                        monkeypatch):
    # a NaN weight wrote a map of NaN influences, and failed an attack at the
    # solver ("cannot emit non-finite constant nan", exit 3)
    monkeypatch.setattr("attnconcolic.cli.build_influence_map",
                        lambda *a, **k: pytest.fail("influence map built"))
    bad = tmp_path / "model.json"
    bad.write_text('{"input_shape": [2], "layers": [{"type": "dense", '
                   '"weights": [[1.0, NaN], [0.5, 0.25]], "bias": [0.0, 0.1]}]}')
    inputs = tmp_path / "seed.json"
    inputs.write_text("[0.3, 0.4]")
    background = tmp_path / "bg.json"
    background.write_text("[[0.1, 0.2], [0.5, 0.6]]")
    out = tmp_path / "out"
    extra = {"influence": ["--seed-input", str(inputs)],
             "attack": ["--seeds", str(inputs), "--solver-cmd", "no-such-solver-binary"]}[command]
    rc = main([command, "--model", str(bad), "--background", str(background),
               *extra, "--output-dir", str(out)])
    assert rc == 2
    assert_one_input_error(capsys, "model: ")
    assert not (out / "influence.json").exists()


@pytest.mark.parametrize("command", ["influence", "attack", "acdp"])
def test_negative_random_seed_exits_2_before_any_map(tmp_path, command, capsys, monkeypatch):
    # 13 features are past the exact estimator: the sampled depth 0 handed
    # the seed to numpy, which died with a ValueError traceback (exit 1)
    for name in ("build_influence_map", "relevance"):
        monkeypatch.setattr(f"attnconcolic.cli.{name}",
                            lambda *a, **k: pytest.fail("map built"))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"input_shape": [13], "layers": [{
        "type": "dense", "weights": [[(i % 5 - 2) / 4, (i % 3 - 1) / 2] for i in range(13)],
        "bias": [0.1, -0.1]}]}))
    inputs = tmp_path / "seed.json"
    inputs.write_text(json.dumps([0.5] * 13))
    background = tmp_path / "bg.json"
    background.write_text(json.dumps([[k / 13 for k in range(13)], [0.25] * 13]))
    extra = {"influence": ["--seed-input", str(inputs)],
             "attack": ["--seeds", str(inputs), "--solver-cmd", "no-such-solver-binary"],
             "acdp": ["--reports", str(tmp_path)]}[command]
    rc = main([command, "--model", str(model), "--background", str(background),
               "--random-seed", "-1", *extra, "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert_one_input_error(capsys, "background: random seed -1 ")


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------


def test_attack_reports_have_stat_columns_and_manifest(attack_dir):
    csv_text = (attack_dir / "attacks.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header == ("seed,iterations,sat,unsat,gen_constraints,"
                      "sol_constraints,wall_s,cpu_s,outcome")
    manifest = json.loads((attack_dir / "manifest.json").read_text())
    names = {a["path"] for a in manifest["artifacts"]}
    assert "attacks.csv" in names and "attack_seed0.json" in names


def test_attack_successes_are_grid_certified(attack_dir, workspace):
    model = ModelSpec.from_json(MODEL_DOC)
    for report in sorted(attack_dir.glob("attack_*.json")):
        doc = json.loads(report.read_text())
        seed = read_seed(doc["seed"])
        original = concrete_label(model, seed)
        assert original == doc["original_label"]
        if doc["outcome"] == "success":
            flat = seed.reshape(-1).copy()
            for key, value in doc["adversarial_values"].items():
                flat[int(key.lstrip("p"))] = value
            adv = flat.reshape(seed.shape)
            assert concrete_label(model, adv) != original  # no spurious success
        else:
            assert doc["outcome"] in ("exhausted", "timeout")


def test_attack_wall_budget_yields_timeout_row(workspace):
    out = workspace["root"] / "budget"
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]),
               "--background", str(workspace["background"]),
               "--wall-budget-s", "0.00001", "--output-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "attack_seed0.json").read_text())
    assert doc["outcome"] == "timeout"


def test_attack_with_a_solver_timeout_past_what_poll_takes_answers_as_without(
        workspace, attack_dir, tmp_path):
    # 3,000,000 s is past select.poll's longest timeout (about 24.8 days):
    # each check is waited for without one
    out = tmp_path / "long"
    assert main(["attack", "--model", str(workspace["model"]),
                 "--seeds", str(workspace["seed0"]),
                 "--background", str(workspace["background"]),
                 "--solver-timeout-s", "3000000", "--output-dir", str(out)]) == 0
    got = json.loads((out / "attack_seed0.json").read_text())
    want = json.loads((attack_dir / "attack_seed0.json").read_text())
    assert got["outcome"] == want["outcome"] != "error"
    assert got.get("adversarial_values") == want.get("adversarial_values")


def test_attack_pop_orders_follow_strategy(workspace):
    model = ModelSpec.from_json(MODEL_DOC)
    background = BackgroundSet(np.asarray(BACKGROUND, dtype=float), seed=0)
    seed = np.asarray(SEEDS["seed0"], dtype=float)
    imap = build_influence_map(model, background, seed)
    entries = sorted(((nid, val) for nid, val in imap.items() if nid.layer == 0),
                     key=lambda kv: -kv[1])
    pixel = int(np.ravel_multi_index(entries[0][0].index, model.shapes[0]))
    res, _ = symbolic_forward(model, seed, [pixel])
    first_burst = harvest(res.events, imap, PathTree())
    expected_fifo = [[item.layer_index, item.influence] for item in first_burst]
    expected_pq_head = max(first_burst, key=lambda i: i.influence)

    traces = {}
    for strategy in ("fifo", "pq"):
        out = workspace["root"] / f"strategy_{strategy}"
        assert main(["attack", "--model", str(workspace["model"]),
                     "--seeds", str(workspace["seed0"]),
                     "--background", str(workspace["background"]),
                     "--strategy", strategy, "--output-dir", str(out)]) == 0
        doc = json.loads((out / "attack_seed0.json").read_text())
        traces[strategy] = doc["pop_trace"]
    k = len(expected_fifo)
    assert traces["fifo"][:k] == expected_fifo
    assert traces["pq"][0] == [expected_pq_head.layer_index,
                               expected_pq_head.influence]


def test_attack_bad_solver_command_exits_3(workspace):
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]),
               "--background", str(workspace["background"]),
               "--solver-cmd", "no-such-solver-binary --flag",
               "--output-dir", str(workspace["root"] / "z")])
    assert rc == 3


def test_attack_solver_failing_preflight_exits_3(workspace):
    # the command starts, but answers no sat on the empty request
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]),
               "--background", str(workspace["background"]),
               "--solver-cmd", f"{sys.executable} -m no_such_module",
               "--output-dir", str(workspace["root"] / "z2")])
    assert rc == 3


@pytest.mark.parametrize("command", [" ", "'x"])
def test_attack_solver_command_naming_no_program_exits_3(workspace, tmp_path, command, capsys):
    # blank, or an unclosed quote
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]),
               "--background", str(workspace["background"]),
               "--solver-cmd", command, "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "solver error: solver command failed pre-flight" in capsys.readouterr().err


def test_attack_report_counts_the_builds_its_cap_skipped(workspace, tmp_path):
    out = tmp_path / "capped"
    assert main(["attack", "--model", str(workspace["model"]),
                 "--seeds", str(workspace["seed0"]),
                 "--background", str(workspace["background"]),
                 "--strategy", "pq-capped", "--build-cap-s", "5e-324",
                 "--output-dir", str(out)]) == 0
    doc = json.loads((out / "attack_seed0.json").read_text())
    assert doc["outcome"] == "exhausted"
    assert doc["skipped_builds"] == doc["gen_constraints"] > 0
    assert list(doc)[-1] == "skipped_builds"
    assert (out / "attacks.csv").read_text().splitlines()[0] == \
        "seed,iterations,sat,unsat,gen_constraints,sol_constraints,wall_s,cpu_s,outcome"


@pytest.mark.parametrize("indices", ["1,a", "0,2", "-1", "1,1", "1.5"])
def test_attack_bad_pixel_indices_exit_2_before_the_solver(workspace, indices, capsys):
    # a solver that would fail its pre-flight (exit 3) shows the check comes first
    out = workspace["root"] / "bad_indices"
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]),
               "--background", str(workspace["background"]),
               "--pixel-indices", indices, "--solver-cmd", "no-such-solver-binary",
               "--output-dir", str(out)])
    assert rc == 2
    assert "input error: pixel-indices" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", [["--domain", "1", "0"], ["--domain", "nan", "1"],
                                    ["--pixels", "0"], ["--pixels", "3"]])
def test_attack_bad_domain_or_pixels_exit_2_before_the_map(workspace, option, capsys,
                                                            monkeypatch):
    # neither the influence map nor the solver pre-flight may run first
    monkeypatch.setattr("attnconcolic.cli.build_influence_map",
                        lambda *a, **k: pytest.fail("influence map built"))
    out = workspace["root"] / "bad_option"
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]),
               "--background", str(workspace["background"]),
               "--solver-cmd", "no-such-solver-binary", *option, "--output-dir", str(out)])
    assert rc == 2
    assert f"input error: {option[0][2:]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", [
    ["--solver-timeout-s", "-1"], ["--solver-timeout-s", "0"], ["--solver-timeout-s", "nan"],
    ["--wall-budget-s", "-1"], ["--wall-budget-s", "inf"],
    ["--build-cap-s", "-1", "--strategy", "pq-capped"],
    ["--build-cap-s", "0", "--strategy", "pq-capped"]])
def test_attack_non_positive_seconds_exit_2_before_the_map(workspace, option, capsys,
                                                           monkeypatch):
    # a deadline already past would time out every check, skip every build,
    # or end the attack at its first budget check, and still exit 0
    monkeypatch.setattr("attnconcolic.cli.build_influence_map",
                        lambda *a, **k: pytest.fail("influence map built"))
    out = workspace["root"] / "bad_seconds"
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]),
               "--background", str(workspace["background"]),
               "--solver-cmd", "no-such-solver-binary", *option, "--output-dir", str(out)])
    assert rc == 2
    assert f"input error: {option[0][2:]}: {float(option[1])} is not a finite positive" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_attack_non_positive_workers_exit_2_before_the_map(workspace, workers, capsys,
                                                           monkeypatch):
    # a count below 1 used to run the seeds sequentially, exit 0 and record
    # the count in manifest.json
    monkeypatch.setattr("attnconcolic.cli.build_influence_map",
                        lambda *a, **k: pytest.fail("influence map built"))
    out = workspace["root"] / "bad_workers"
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]),
               "--background", str(workspace["background"]),
               "--solver-cmd", "no-such-solver-binary", "--workers", workers,
               "--output-dir", str(out)])
    assert rc == 2
    assert f"input error: workers: {workers} is not a positive count" in capsys.readouterr().err
    assert not out.exists()


def test_attack_build_cap_reaches_the_capped_scheduler(workspace, tmp_path, monkeypatch):
    schedulers = []

    def recording_attack(*args, scheduler, **kwargs):
        schedulers.append(scheduler)
        return run_attack(*args, scheduler=scheduler, **kwargs)

    monkeypatch.setattr("attnconcolic.cli.run_attack", recording_attack)
    assert main(["attack", "--model", str(workspace["model"]),
                 "--seeds", str(workspace["seed0"]),
                 "--background", str(workspace["background"]),
                 "--strategy", "pq-capped", "--build-cap-s", "5",
                 "--output-dir", str(tmp_path / "capped")]) == 0
    assert schedulers == [Scheduler.pq_capped(5.0)]
    assert json.loads((tmp_path / "capped" / "attack_seed0.json").read_text())["outcome"] \
        in ("success", "exhausted")


@pytest.mark.parametrize("strategy", ["fifo", "pq", "pq-layers"])
def test_attack_build_cap_without_pq_capped_exits_2_before_the_map(workspace, strategy,
                                                                   monkeypatch, capsys):
    monkeypatch.setattr("attnconcolic.cli.build_influence_map",
                        lambda *a, **k: pytest.fail("influence map built"))
    out = workspace["root"] / "uncapped"
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]),
               "--background", str(workspace["background"]),
               "--strategy", strategy, "--build-cap-s", "5", "--output-dir", str(out)])
    assert rc == 2
    assert "input error: build-cap-s" in capsys.readouterr().err
    assert not out.exists()


# Answers the pre-flight, then exits and moves its own file away, so the
# next solver process cannot start: a SolverError in the middle of the run.
VANISHING_SOLVER = """
import os, sys
os.rename(sys.argv[0], sys.argv[0] + ".gone")
for line in sys.stdin:
    if line.strip() == "(check-sat)":
        print("sat", flush=True)
    elif line.strip() == "(get-model)":
        print("(model)", flush=True)
        break
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_attack_solver_error_mid_run_exits_3(workspace, tmp_path, workers, capsys):
    solver = tmp_path / "vanishing_solver"
    solver.write_text(f"#!{sys.executable}\n{VANISHING_SOLVER}")
    solver.chmod(0o755)
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]), str(workspace["seed1"]),
               "--background", str(workspace["background"]), "--solver-cmd", str(solver),
               "--workers", workers, "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "solver error: cannot run solver command" in capsys.readouterr().err


def session_members(sid: int) -> list[str]:
    """The command lines of the live processes in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            cmdline = (stat.parent / "cmdline").read_bytes()
        except (OSError, IndexError):  # the process ended while being read
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(cmdline.replace(b"\0", b" ").decode(errors="replace"))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_attack_workers_leave_no_solver_process(workspace):
    # the pool forks after the pre-flight, so each worker holds the pipes of
    # the parent's solver child, and each task's backend arrives pickled with
    # no session and starts a child of its own; every child must be gone at exit
    out = workspace["root"] / "workers"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "attnconcolic.cli", "attack",
         "--model", str(workspace["model"]),
         "--seeds", str(workspace["seed0"]), str(workspace["seed1"]),
         "--background", str(workspace["background"]),
         "--workers", "2", "--output-dir", str(out)],
        env=env, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    assert "attacked 2 seed(s)" in stdout
    assert sorted(p.name for p in out.glob("attack_*.json")) == \
        ["attack_seed0.json", "attack_seed1.json"]
    assert session_members(proc.pid) == []


# ---------------------------------------------------------------------------
# acdp
# ---------------------------------------------------------------------------


def test_acdp_singleton_suite_members_match_library(workspace, attack_dir):
    out = workspace["root"] / "acdp"
    rc = main(["acdp", "--model", str(workspace["model"]),
               "--background", str(workspace["background"]),
               "--reports", str(attack_dir),
               "--alpha", "0.6", "--beta", "0.5",
               "--output-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "acdp.json").read_text())

    model = ModelSpec.from_json(MODEL_DOC)
    background = BackgroundSet(np.asarray(BACKGROUND, dtype=float), seed=0)
    successes = [json.loads(p.read_text()) for p in attack_dir.glob("attack_*.json")]
    successes = [d for d in successes if d["outcome"] == "success"]
    assert doc["suite_size"] == len(successes)
    if len(successes) == 1:
        seed = read_seed(successes[0]["seed"])
        flat = seed.reshape(-1).copy()
        for key, value in successes[0]["adversarial_values"].items():
            flat[int(key.lstrip("p"))] = value
        matrix = relevance(model, background, flat.reshape(seed.shape))
        want = {nid.key() for nid in critical_path(matrix, 0.6)}
        assert set(doc["members"]) == want
    weights_csv = (out / "acdp_weights.csv").read_text().splitlines()
    assert weights_csv[0] == "neuron,weight"
    assert len(weights_csv) > 1


def test_acdp_beta_sweep_is_nested(workspace, attack_dir):
    members = {}
    for beta in ("0.2", "0.3", "0.5"):
        out = workspace["root"] / f"acdp_{beta}"
        assert main(["acdp", "--model", str(workspace["model"]),
                     "--background", str(workspace["background"]),
                     "--reports", str(attack_dir), "--alpha", "0.6",
                     "--beta", beta, "--output-dir", str(out)]) == 0
        members[beta] = set(json.loads((out / "acdp.json").read_text())["members"])
    assert members["0.5"] <= members["0.3"] <= members["0.2"]


@pytest.mark.parametrize("option", [["--alpha", "0"], ["--beta", "1.0"]])
def test_acdp_bad_alpha_or_beta_exits_2_before_any_relevance(workspace, attack_dir, option,
                                                             monkeypatch, capsys):
    monkeypatch.setattr("attnconcolic.cli.relevance",
                        lambda *a, **k: pytest.fail("relevance computed"))
    rc = main(["acdp", "--model", str(workspace["model"]),
               "--background", str(workspace["background"]),
               "--reports", str(attack_dir), *option,
               "--output-dir", str(workspace["root"] / "acdp_bad")])
    assert rc == 2
    assert f"input error: {option[0][2:]}" in capsys.readouterr().err


def test_acdp_without_successes_exits_4(workspace, tmp_path):
    report = tmp_path / "attack_none.json"
    report.write_text(json.dumps({"seed": "x", "outcome": "exhausted"}))
    rc = main(["acdp", "--model", str(workspace["model"]),
               "--background", str(workspace["background"]),
               "--reports", str(report), "--output-dir", str(tmp_path / "o")])
    assert rc == 4


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_on_untampered_reports(workspace, attack_dir, capsys):
    rc = main(["verify", "--model", str(workspace["model"]),
               "--reports", str(attack_dir)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_fails_on_tampered_report(workspace, attack_dir, tmp_path):
    tampered = None
    for path in attack_dir.glob("attack_*.json"):
        doc = json.loads(path.read_text())
        if doc["outcome"] == "success":
            seed = read_seed(doc["seed"]).reshape(-1)
            doc["adversarial_values"] = {
                key: float(seed[int(key.lstrip("p"))])
                for key in doc["adversarial_values"]}
            tampered = tmp_path / "attack_tampered.json"
            tampered.write_text(json.dumps(doc))
            break
    assert tampered is not None, "fixture produced no success to tamper with"
    rc = main(["verify", "--model", str(workspace["model"]),
               "--reports", str(tampered)])
    assert rc == 1


@pytest.mark.parametrize("values", [{"p99": 0.9}, {"q0": 0.9}, {"p-1": 0.9},
                                    {"p0": "high"}, {"p00": 7.5, "p0": 0.0}])
def test_verify_malformed_adversarial_values_exit_2(workspace, tmp_path, values, capsys):
    doc = {"seed": SEEDS["seed0"], "outcome": "success", "original_label": 0,
           "flipped_label": 1, "pixel_indices": [0], "domain": [[0.0, 1.0]],
           "adversarial_values": values}
    report = tmp_path / "attack_malformed.json"
    report.write_text(json.dumps(doc))
    rc = main(["verify", "--model", str(workspace["model"]), "--reports", str(report)])
    assert rc == 2
    assert f"input error: reports: {report}: adversarial_values" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "acdp"])
@pytest.mark.parametrize("defect", ["seed_of_wrong_size", "no_adversarial_values",
                                    "non_finite_value", "non_finite_inline_seed"])
def test_malformed_report_exits_2(workspace, tmp_path, command, defect, capsys):
    doc = {"seed": SEEDS["seed0"], "outcome": "success", "original_label": 0,
           "flipped_label": 1, "pixel_indices": [0], "domain": [[0.0, 1.0]],
           "adversarial_values": {"p0": 0.9}}
    if defect == "seed_of_wrong_size":
        doc["seed"] = [0.3, 0.6, 0.9]
    elif defect == "no_adversarial_values":
        del doc["adversarial_values"]
    elif defect == "non_finite_value":
        doc["adversarial_values"] = {"p0": float("nan")}
    else:
        doc["seed"] = [[float("nan")], [0.6]]
    report = tmp_path / "attack_malformed.json"
    report.write_text(json.dumps(doc))
    extra = ["--background", str(workspace["background"]),
             "--output-dir", str(tmp_path / "o")] if command == "acdp" else []
    rc = main([command, "--model", str(workspace["model"]), "--reports", str(report), *extra])
    assert rc == 2
    assert f"input error: reports: {report}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "acdp"])
@pytest.mark.parametrize("field,value", [
    ("original_label", None), ("flipped_label", None), ("original_label", "zero"),
    ("flipped_label", 1.5), ("pixel_indices", ["x"]), ("pixel_indices", [0.5]),
    ("domain", [0.0, 1.0]), ("domain", [[0.0]]), ("domain", [["low", 1.0]]),
    ("domain", [[0.0, 1.0], [0.0, 1.0]]), ("flipped_label", 7), ("original_label", -1),
    ("domain", [[float("nan"), 1.0]]), ("domain", [[1.0, 0.0]]),
    ("adversarial_values", {"p00": 7.5, "p0": 0.0})])
def test_malformed_report_fields_exit_2(workspace, tmp_path, command, field, value, capsys):
    # value None: the field is missing
    doc = {"seed": SEEDS["seed0"], "outcome": "success", "original_label": 0,
           "flipped_label": 1, "pixel_indices": [0], "domain": [[0.0, 1.0]],
           "adversarial_values": {"p0": 0.9}}
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    report = tmp_path / "attack_malformed.json"
    report.write_text(json.dumps(doc))
    extra = ["--background", str(workspace["background"]),
             "--output-dir", str(tmp_path / "o")] if command == "acdp" else []
    rc = main([command, "--model", str(workspace["model"]), "--reports", str(report), *extra])
    assert rc == 2
    assert f"input error: reports: {report}: " in capsys.readouterr().err


@pytest.mark.parametrize("labels,verify_rc,acdp_rc", [
    ((1, 0), 0, 0), ((0, 0), 1, 2), ((1, 1), 1, 2), ((0, 1), 1, 2)])
def test_a_claimed_flip_is_the_models_own(workspace, tmp_path, labels, verify_rc, acdp_rc,
                                          capsys):
    # the model labels the seed 1 and, with p0 = 0.9, 0: only (1, 0) is a flip
    doc = {"seed": SEEDS["seed0"], "outcome": "success", "original_label": labels[0],
           "flipped_label": labels[1], "pixel_indices": [0], "domain": [[0.0, 1.0]],
           "adversarial_values": {"p0": 0.9}}
    report = tmp_path / "attack_claim.json"
    report.write_text(json.dumps(doc))
    assert main(["verify", "--model", str(workspace["model"]), "--reports", str(report)]) \
        == verify_rc
    assert ("PASS" if verify_rc == 0 else "FAIL") in capsys.readouterr().out
    assert main(["acdp", "--model", str(workspace["model"]), "--reports", str(report),
                 "--background", str(workspace["background"]),
                 "--output-dir", str(tmp_path / "o")]) == acdp_rc
    if acdp_rc:
        assert f"input error: reports: {report}: " in capsys.readouterr().err


def test_a_report_is_named_by_its_file_not_its_inline_seed(workspace, tmp_path, capsys):
    # the model labels the seed 1 and, with p0 = 0.9, 0: only (1, 0) is a flip
    reports = tmp_path / "reports"
    reports.mkdir()
    paths = {}
    for name, labels in (("pass", (1, 0)), ("fail", (0, 1))):
        paths[name] = reports / f"attack_{name}.json"
        paths[name].write_text(json.dumps(
            {"seed": SEEDS["seed0"], "outcome": "success", "original_label": labels[0],
             "flipped_label": labels[1], "pixel_indices": [0], "domain": [[0.0, 1.0]],
             "adversarial_values": {"p0": 0.9}}))
    assert main(["verify", "--model", str(workspace["model"]), "--reports", str(reports)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"FAIL {paths['fail']}: label 0 -> 0 (report claims 1)",
                                f"PASS {paths['pass']}: label 1 -> 0"]
    assert err == f"1 case(s) failed re-execution: {paths['fail']}\n"
    assert main(["acdp", "--model", str(workspace["model"]), "--reports", str(paths["fail"]),
                 "--background", str(workspace["background"]),
                 "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: reports: {paths['fail']}: the model labels ")
    assert "0.3" not in err


@pytest.mark.parametrize("command", ["verify", "acdp"])
def test_values_for_pixels_not_in_pixel_indices_exit_2(workspace, tmp_path, command, capsys):
    # p1 was never searched, and its value lies outside any domain
    doc = {"seed": SEEDS["seed0"], "outcome": "success", "original_label": 0,
           "flipped_label": 1, "pixel_indices": [0], "domain": [[0.0, 1.0]],
           "adversarial_values": {"p1": 5.0}}
    report = tmp_path / "attack_unlisted.json"
    report.write_text(json.dumps(doc))
    extra = ["--background", str(workspace["background"]),
             "--output-dir", str(tmp_path / "o")] if command == "acdp" else []
    rc = main([command, "--model", str(workspace["model"]), "--reports", str(report), *extra])
    assert rc == 2
    assert f"input error: reports: {report}: adversarial_values" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "acdp"])
@pytest.mark.parametrize("fields, blamed", [
    ({"pixel_indices": [0, 0], "domain": [[0.0, 1.0], [0.0, 1.0]]}, "pixel_indices"),
    ({"pixel_indices": [99], "adversarial_values": {}}, "pixel_indices"),
    ({"adversarial_values": {"p00": 7.5, "p0": 0.9}}, "adversarial_values"),
], ids=["repeated-index", "index-past-the-seed", "key-not-as-written"])
def test_a_report_is_read_by_its_attacks_rules(workspace, tmp_path, command, fields, blamed,
                                               capsys):
    # the model labels the seed 1 and, with p0 = 0.9, 0: each report claims
    # that flip; a repeated index and a "p00" that claims 7.5 for pixel 0 passed
    doc = {"seed": SEEDS["seed0"], "outcome": "success", "original_label": 1,
           "flipped_label": 0, "pixel_indices": [0], "domain": [[0.0, 1.0]],
           "adversarial_values": {"p0": 0.9}, **fields}
    report = tmp_path / "attack_claim.json"
    report.write_text(json.dumps(doc))
    extra = ["--background", str(workspace["background"]),
             "--output-dir", str(tmp_path / "o")] if command == "acdp" else []
    rc = main([command, "--model", str(workspace["model"]), "--reports", str(report), *extra])
    assert rc == 2
    assert_one_input_error(capsys, f"reports: {report}: {blamed}: ")


@pytest.mark.parametrize("command, spec", [
    ("verify", "missing"), ("verify", "empty"), ("acdp", "missing"), ("acdp", "empty"),
    ("attack", "empty")])
def test_a_file_set_error_names_its_flag(workspace, tmp_path, command, spec, capsys):
    # --reports went through the --seeds reader: "input error: seeds: nothing to attack"
    target = tmp_path / spec
    if spec == "empty":
        target.mkdir()
    flag = "seeds" if command == "attack" else "reports"
    extra = [] if command == "verify" else ["--background", str(workspace["background"]),
                                            "--output-dir", str(tmp_path / "o")]
    rc = main([command, "--model", str(workspace["model"]), f"--{flag}", str(target), *extra])
    assert rc == 2
    assert_one_input_error(capsys, f"{flag}: no such file or directory: {target}"
                           if spec == "missing" else f"{flag}: no JSON file in {target}")


@pytest.mark.parametrize("command", ["verify", "acdp", "attack"])
def test_a_file_named_twice_exits_2(workspace, attack_dir, tmp_path, command, capsys,
                                    monkeypatch):
    # acdp counted the one claim twice (suite_size 2); attack wrote one report
    monkeypatch.setattr("attnconcolic.cli.build_influence_map",
                        lambda *a, **k: pytest.fail("influence map built"))
    flag, files = (("seeds", [str(workspace["seed0"]), str(workspace["seed0"])])
                   if command == "attack" else
                   ("reports", [str(attack_dir), str(attack_dir / "attack_seed0.json")]))
    extra = [] if command == "verify" else ["--background", str(workspace["background"]),
                                            "--output-dir", str(tmp_path / "o")]
    rc = main([command, "--model", str(workspace["model"]), f"--{flag}", *files, *extra])
    assert rc == 2
    assert_one_input_error(capsys, f"{flag}: {files[1]} and {files[1]} are one file")
    assert not (tmp_path / "o").exists()


def test_seeds_of_one_stem_exit_2_before_the_map_and_the_solver(workspace, tmp_path, capsys,
                                                                monkeypatch):
    # both wrote attack_s.json, so the first seed's report was lost
    monkeypatch.setattr("attnconcolic.cli.build_influence_map",
                        lambda *a, **k: pytest.fail("influence map built"))
    seeds = [tmp_path / "a" / "s.json", tmp_path / "b" / "s.json"]
    for seed, value in zip(seeds, SEEDS.values()):
        seed.parent.mkdir()
        seed.write_text(json.dumps(value))
    out = tmp_path / "out"
    rc = main(["attack", "--model", str(workspace["model"]), "--seeds", *map(str, seeds),
               "--background", str(workspace["background"]),
               "--solver-cmd", "no-such-solver-binary", "--output-dir", str(out)])
    assert rc == 2
    assert_one_input_error(capsys, f"seeds: {seeds[0]} and {seeds[1]} would write one report")
    assert not out.exists()


@pytest.mark.parametrize("command", ["influence", "attack"])
@pytest.mark.parametrize("doc", [
    {"input_shape": [4], "layers": [
        {"type": "reshape", "target_shape": [-2, -2]}, {"type": "flatten"},
        {"type": "dense", "weights": [[1.0, -1.0]] * 4, "bias": [0.0, 0.1]}]},
    {"input_shape": [4], "layers": [{"type": "dense", "weights": [[]] * 4, "bias": []}]},
], ids=["reshape-to-negatives", "dense-of-width-0"])
def test_a_model_dimension_below_one_exits_2(tmp_path, command, doc, capsys):
    # each loaded, then died in numpy's reshape or on a division by zero (exit 1)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    inputs = tmp_path / "seed.json"
    inputs.write_text("[0.1, 0.2, 0.3, 0.4]")
    background = tmp_path / "bg.json"
    background.write_text("[[0.5, 0.6, 0.7, 0.8], [0.2, 0.1, 0.4, 0.3]]")
    extra = {"influence": ["--seed-input", str(inputs)],
             "attack": ["--seeds", str(inputs), "--solver-cmd", "no-such-solver-binary"]}[command]
    rc = main([command, "--model", str(model), "--background", str(background), *extra,
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert_one_input_error(capsys, "model: layer 0: output shape ")


def test_attack_influence_map_must_cover_the_model(workspace, tmp_path, capsys):
    full = tmp_path / "full"
    assert main(["influence", "--model", str(workspace["model"]),
                 "--seed-input", str(workspace["seed0"]),
                 "--background", str(workspace["background"]),
                 "--output-dir", str(full)]) == 0
    doc = json.loads((full / "influence.json").read_text())
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(dict([next(iter(doc.items()))])))
    # a solver that would fail its pre-flight (exit 3) shows the check comes first
    out = tmp_path / "partial_attack"
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]), "--influence-map", str(partial),
               "--solver-cmd", "no-such-solver-binary", "--output-dir", str(out)])
    assert rc == 2
    assert f"input error: influence-map: lacks {len(doc) - 1} of the model's neurons" \
        in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "full_attack"
    assert main(["attack", "--model", str(workspace["model"]),
                 "--seeds", str(workspace["seed0"]),
                 "--influence-map", str(full / "influence.json"),
                 "--pixels", "1", "--output-dir", str(out)]) == 0
    assert json.loads((out / "attack_seed0.json").read_text())["outcome"] != "error"


# ---------------------------------------------------------------------------
# input files that cannot be read or parsed
# ---------------------------------------------------------------------------


def assert_one_input_error(capsys, prefix: str) -> None:
    """stderr is one line: the input error, starting with ``prefix``."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"input error: {prefix}"), lines


@pytest.mark.parametrize("text", ['{"x": 1.0}', '{"0.0.0": "abc"}', "[1, 2]"])
def test_attack_unreadable_influence_map_exits_2(workspace, tmp_path, text, capsys):
    bad = tmp_path / "map.json"
    bad.write_text(text)
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]), "--influence-map", str(bad),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert_one_input_error(capsys, "influence-map: ")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-0.5"])
def test_attack_influence_map_with_a_value_no_influence_takes_exits_2(workspace, tmp_path,
                                                                      value, capsys):
    full = tmp_path / "full"
    assert main(["influence", "--model", str(workspace["model"]),
                 "--seed-input", str(workspace["seed0"]),
                 "--background", str(workspace["background"]),
                 "--output-dir", str(full)]) == 0
    doc = json.loads((full / "influence.json").read_text())
    bad = tmp_path / "map.json"
    doc[max(doc)] = 12345.5  # a mark to put the word in place of
    bad.write_text(json.dumps(doc).replace("12345.5", value))
    capsys.readouterr()
    # a solver that would fail its pre-flight (exit 3) shows the check comes first
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]), "--influence-map", str(bad),
               "--solver-cmd", "no-such-solver-binary", "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert_one_input_error(capsys, "influence-map: ")


@pytest.mark.parametrize("text", ["{oops", '"abc"', "[[0.3], [NaN]]", "[[Infinity], [0.6]]"])
def test_unreadable_seed_input_exits_2(workspace, tmp_path, text, capsys):
    bad = tmp_path / "seed.json"
    bad.write_text(text)
    rc = main(["influence", "--model", str(workspace["model"]),
               "--background", str(workspace["background"]), "--seed-input", str(bad),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert_one_input_error(capsys, "seed-input: ")


@pytest.mark.parametrize("entry", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_background_exits_2(workspace, tmp_path, entry, capsys):
    # json reads these words as floats: an Infinity entry made a map of
    # Infinity, and a NaN one a finite map that ReLU had masked
    bad = tmp_path / "bg.json"
    bad.write_text(json.dumps(BACKGROUND).replace("0.1", entry, 1))
    rc = main(["influence", "--model", str(workspace["model"]), "--background", str(bad),
               "--seed-input", str(workspace["seed0"]), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert_one_input_error(capsys, "background: background inputs must be finite")


@pytest.mark.parametrize("text", ["{oops", '"abc"'])
def test_unreadable_first_seed_of_an_inline_map_exits_2(workspace, tmp_path, text, capsys):
    bad = tmp_path / "seed.json"
    bad.write_text(text)
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(bad), str(workspace["seed0"]),
               "--background", str(workspace["background"]),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert_one_input_error(capsys, f"seeds: {bad}: ")


def test_unreadable_later_seed_gets_an_error_report(workspace, tmp_path):
    bad = tmp_path / "seed_bad.json"
    bad.write_text('"abc"')
    out = tmp_path / "out"
    rc = main(["attack", "--model", str(workspace["model"]),
               "--seeds", str(workspace["seed0"]), str(bad),
               "--background", str(workspace["background"]), "--output-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "attack_seed_bad.json").read_text())
    assert doc["outcome"] == "error" and doc["error"].startswith(f"seeds: {bad}: ")
    assert json.loads((out / "attack_seed0.json").read_text())["outcome"] != "error"


@pytest.mark.parametrize("command", ["influence", "attack", "acdp", "verify"])
@pytest.mark.parametrize("layer", [1, {"type": "reshape", "target_shape": 5}])
def test_model_of_another_shape_exits_2(workspace, tmp_path, command, layer, capsys):
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps({"input_shape": [2, 1], "layers": [{"type": "flatten"}, layer]}))
    extra = {"influence": ["--background", str(workspace["background"]),
                           "--seed-input", str(workspace["seed0"])],
             "attack": ["--background", str(workspace["background"]),
                        "--seeds", str(workspace["seed0"])],
             "acdp": ["--background", str(workspace["background"]),
                      "--reports", str(tmp_path)],
             "verify": ["--reports", str(tmp_path)]}[command]
    if command != "verify":
        extra += ["--output-dir", str(tmp_path / "out")]
    rc = main([command, "--model", str(bad), *extra])
    assert rc == 2
    assert_one_input_error(capsys, "model: layer 1: ")


@pytest.mark.parametrize("doc, reason", [
    ({"input_shape": [2.9, 1], "layers": [{"type": "flatten"}]},
     "model document: 2.9 is not a whole number"),
    ({"input_shape": [2, 1], "layers": [{"type": "reshape", "target_shape": [2.7]}]},
     "target_shape (2.7,) is not a shape"),
    ({"input_shape": [2, 1], "layers": [{"type": "mha", "num_heads": 1.9, "key_dim": 1}]},
     "layer 0: 1.9 is not a whole number"),
])
def test_fractional_model_shape_exits_2(workspace, tmp_path, doc, reason, capsys):
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    rc = main(["influence", "--model", str(bad), "--background", str(workspace["background"]),
               "--seed-input", str(workspace["seed0"]), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert_one_input_error(capsys, f"model: {reason}")


@pytest.mark.parametrize("command", ["verify", "acdp"])
def test_report_not_a_json_object_exits_2(workspace, tmp_path, command, capsys):
    report = tmp_path / "attack_list.json"
    report.write_text("[1, 2]")
    extra = ["--background", str(workspace["background"]),
             "--output-dir", str(tmp_path / "o")] if command == "acdp" else []
    rc = main([command, "--model", str(workspace["model"]), "--reports", str(report), *extra])
    assert rc == 2
    assert_one_input_error(capsys, f"reports: {report}: not a JSON object")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

TIMING_FIELDS = ("wall_s", "cpu_s")


def untimed_reports(out: Path) -> dict:
    """The attack reports in ``out`` by file name, without their timing fields."""
    run = {}
    for path in sorted(out.glob("attack_*.json")):
        doc = json.loads(path.read_text())
        for field in TIMING_FIELDS:
            doc.pop(field, None)
        run[path.name] = doc
    return run


def test_attack_runs_are_deterministic_modulo_timing(workspace):
    docs = []
    for tag in ("det_a", "det_b"):
        out = workspace["root"] / tag
        assert main(["attack", "--model", str(workspace["model"]),
                     "--seeds", str(workspace["seed0"]), str(workspace["seed1"]),
                     "--background", str(workspace["background"]),
                     "--random-seed", "7", "--output-dir", str(out)]) == 0
        docs.append(untimed_reports(out))
    assert docs[0] == docs[1]


def test_attack_domain_from_negative_zero_reports_as_from_zero(workspace, tmp_path):
    # each script writes the bound -0.0 as 0.0, a numeral the solver reads
    runs = []
    for low in ("-0", "0"):
        out = tmp_path / f"domain{low}"
        assert main(["attack", "--model", str(workspace["model"]),
                     "--seeds", str(workspace["seed0"]), str(workspace["seed1"]),
                     "--background", str(workspace["background"]),
                     "--domain", low, "1", "--output-dir", str(out)]) == 0
        runs.append(untimed_reports(out))
    assert runs[0] == runs[1]
    assert "success" in {doc["outcome"] for doc in runs[0].values()}


def test_pooled_attack_builds_the_map_once_and_matches_sequential(workspace, attack_dir,
                                                                  tmp_path, monkeypatch):
    # the workers are forked from this process, so a build there would count too
    builds = tmp_path / "builds.txt"

    def counted_build(*args, **kwargs):
        with open(builds, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return build_influence_map(*args, **kwargs)

    monkeypatch.setattr("attnconcolic.cli.build_influence_map", counted_build)
    out = tmp_path / "pooled"
    assert main(["attack", "--model", str(workspace["model"]),
                 "--seeds", str(workspace["seed0"]), str(workspace["seed1"]),
                 "--background", str(workspace["background"]),
                 "--pixels", "1", "--workers", "2", "--output-dir", str(out)]) == 0
    assert builds.read_text().split() == [str(os.getpid())]
    assert untimed_reports(out) == untimed_reports(attack_dir)


def test_the_pool_starts_at_most_one_worker_per_seed(workspace, attack_dir, tmp_path,
                                                     monkeypatch):
    # a fork-started pool launches all its workers at the first submit
    pools = []

    def recorded_pool(max_workers):
        pools.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    # cli imports the pool where it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recorded_pool)
    for seeds, want in (([workspace["seed0"], workspace["seed1"]], [2]),
                        ([workspace["seed0"]], [])):  # one seed runs in process
        pools.clear()
        out = tmp_path / f"pool{len(seeds)}"
        assert main(["attack", "--model", str(workspace["model"]),
                     "--seeds", *map(str, seeds), "--background", str(workspace["background"]),
                     "--pixels", "1", "--workers", "3", "--output-dir", str(out)]) == 0
        assert pools == want
        assert manifest_config(out, "attack")["workers"] == 3
        got = untimed_reports(out)
        assert got == {name: doc for name, doc in untimed_reports(attack_dir).items()
                       if name in got}


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def manifest_config(out: Path, command: str) -> dict:
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == command
    return doc["config"]


def test_each_manifest_records_its_commands_options(workspace, tmp_path):
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    for name in ("seed1", "seed0"):
        (seeds / f"{name}.json").write_text(json.dumps(SEEDS[name]))
    common = {"model": str(workspace["model"]), "random_seed": 0, "permutations": 128}

    out = tmp_path / "influence"
    assert main(["influence", "--model", str(workspace["model"]),
                 "--background", str(workspace["background"]),
                 "--seed-input", str(workspace["seed0"]), "--output-dir", str(out)]) == 0
    assert manifest_config(out, "influence") == {
        **common, "output_dir": str(out), "background": str(workspace["background"]),
        "seed_input": str(workspace["seed0"])}

    out = tmp_path / "attack"
    assert main(["attack", "--model", str(workspace["model"]), "--seeds", str(seeds),
                 "--background", str(workspace["background"]), "--pixel-indices", "1",
                 "--strategy", "fifo", "--output-dir", str(out)]) == 0
    config = manifest_config(out, "attack")
    assert config["seeds"] == [str(seeds / "seed0.json"), str(seeds / "seed1.json")]
    assert config["strategy"] == "fifo" and config["pixel_indices"] == [1]
    assert config["build_cap_s"] is None and config["domain"] == [0.0, 1.0]
    assert not {"alpha", "beta", "reports", "seed_input"} & config.keys()

    acdp_out = tmp_path / "acdp"
    assert main(["acdp", "--model", str(workspace["model"]),
                 "--background", str(workspace["background"]), "--reports", str(out),
                 "--alpha", "0.6", "--output-dir", str(acdp_out)]) == 0
    assert manifest_config(acdp_out, "acdp") == {
        **common, "output_dir": str(acdp_out), "background": str(workspace["background"]),
        "reports": [str(out)], "alpha": 0.6, "beta": 0.5}
