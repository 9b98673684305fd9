"""Command-line contract: pipelines, reproducibility, exit codes."""

import csv
import json

import pytest

from fluidbandit.cli import _round12, main


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _stdout_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_gen_relax_pipeline(tmp_path):
    model_path = tmp_path / "model.json"
    relax_path = tmp_path / "relax.json"
    assert main(["gen", "bernoulli", "--T", "2",
                 "--alpha", "0.3333333333333333", "-o", str(model_path)]) == 0
    assert main(["relax", "--model", str(model_path),
                 "-o", str(relax_path)]) == 0
    payload = json.loads(relax_path.read_text())
    assert abs(payload["value"] - 13.0 / 36.0) <= 1e-9
    assert len(payload["lambda"]) == 2
    assert all(triple[3] > 1e-9 for triple in payload["x"])


def test_environment_holds_no_cli_option(tmp_path, monkeypatch):
    # RB_JOBS once fed a --jobs default, so junk in it killed every command
    monkeypatch.setenv("RB_JOBS", "two")
    model_path = tmp_path / "single.json"
    assert main(["gen", "single", "-o", str(model_path)]) == 0
    assert main(["relax", "--model", str(model_path),
                 "-o", str(tmp_path / "relax.json")]) == 0


def test_relax_two(capsys):
    assert main(["relax", "--gen", "two"]) == 0
    payload = _stdout_json(capsys)
    assert payload["value"] == pytest.approx(1.0, abs=1e-10)


def test_classify_two(capsys):
    assert main(["classify", "--gen", "two"]) == 0
    payload = _stdout_json(capsys)
    assert payload["neutral_counts"] == [1, 0]
    t2 = payload["periods"][1]
    assert t2["active"] == [0] and t2["inactive"] == [1]


def test_search_measure_two(capsys):
    assert main(["search-measure", "--gen", "two"]) == 0
    payload = _stdout_json(capsys)
    assert payload["nondegenerate"] is False
    assert payload["certificate"] == [2]
    assert payload["has_witness"] is False


def test_priority_single(capsys):
    assert main(["priority", "--gen", "single"]) == 0
    payload = _stdout_json(capsys)
    assert payload["lambda"] == pytest.approx([1.0, 1.0], abs=1e-8)
    assert payload["ranked_states"] == [[0], [0]]


def test_fluid_index_two(capsys):
    assert main(["fluid-index", "--gen", "two"]) == 0
    payload = _stdout_json(capsys)
    assert len(payload["index"]) == 2
    assert payload["index"][0][0][0] == 0  # state G ranked first


def test_oracle_two(capsys):
    assert main(["oracle", "--gen", "two", "--N", "2"]) == 0
    payload = _stdout_json(capsys)
    assert payload["V_star"] == pytest.approx(2.0, abs=1e-12)
    assert payload["NVhat"] == pytest.approx(2.0, abs=1e-10)
    assert payload["gap"] == pytest.approx(0.0, abs=1e-10)


def test_eval_exact_fixture(tmp_path):
    out = tmp_path / "eval.csv"
    code = main(["eval", "--gen", "two", "--policy", "fluid", "--N", "2",
                 "--reps", "100", "--seed", "3", "-o", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["mean"]) == 2.0
    assert float(rows[0]["gap"]) == 0.0
    sidecar = json.loads((tmp_path / "eval.json").read_text())
    assert sidecar["rows"][0]["seed"] == 3
    assert sidecar["rows"][0]["reps"] == 100
    assert "wall_time" in sidecar["rows"][0]


def test_sweep_byte_identical_and_gap_column(tmp_path):
    args = ["sweep", "--gen", "bernoulli", "--T", "2",
            "--alpha", "0.3333333333333333", "--policy", "fluid",
            "--N", "4,8", "--reps", "400", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    for row in _read_csv(a):
        ub, mean = float(row["upper_bound"]), float(row["mean"])
        assert float(row["gap"]) == _round12(ub - mean)
    ja = json.loads((tmp_path / "a.json").read_text())
    jb = json.loads((tmp_path / "b.json").read_text())
    for ra, rb in zip(ja["rows"], jb["rows"]):
        ra.pop("wall_time"), rb.pop("wall_time")
        assert ra == rb


def test_violations_even_parity(tmp_path):
    out = tmp_path / "v.csv"
    code = main(["violations", "--gen", "two", "--N", "2,4", "--reps", "60",
                 "--seed", "1", "-o", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert [r["N"] for r in rows] == ["2", "4"]
    assert all(float(r["violation_rate_max"]) == 0.0 for r in rows)


def test_seed_mandatory_for_simulation(capsys):
    code = main(["eval", "--gen", "two", "--policy", "fluid", "--N", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_config_file_supplies_seed_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "reps": 50}))
    out = tmp_path / "r.csv"
    base = ["--config", str(cfg), "eval", "--gen", "two", "--policy", "fluid",
            "--N", "2", "-o", str(out)]
    assert main(base) == 0
    sidecar = json.loads((tmp_path / "r.json").read_text())
    assert sidecar["rows"][0]["seed"] == 9
    assert sidecar["rows"][0]["reps"] == 50
    assert main(base + ["--seed", "4"]) == 0
    sidecar = json.loads((tmp_path / "r.json").read_text())
    assert sidecar["rows"][0]["seed"] == 4


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "rep": 7}))
    code = main(["--config", str(cfg), "eval", "--gen", "two",
                 "--policy", "fluid", "--N", "2", "--reps", "5"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "rep" in err["message"]
    # an option of another subcommand is no error: one file serves them all
    cfg.write_text(json.dumps({"seed": 3, "guard": 100, "reps-cap": 9}))
    assert main(["--config", str(cfg), "eval", "--gen", "two",
                 "--policy", "fluid", "--N", "2", "--reps", "5",
                 "-o", str(tmp_path / "r.csv")]) == 0


def test_unknown_generator_is_config_error(capsys):
    assert main(["relax", "--gen", "bogus"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_missing_model_file_is_config_error(capsys, tmp_path):
    assert main(["relax", "--model", str(tmp_path / "nope.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_oracle_guard_exit_code(capsys):
    code = main(["oracle", "--gen", "bernoulli", "--T", "5",
                 "--alpha", "0.3333333333333333", "--N", "50", "--guard", "10"])
    assert code == 12
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"


def test_ascending_n_list_enforced(capsys):
    code = main(["sweep", "--gen", "two", "--policy", "fluid",
                 "--N", "8,4", "--reps", "10", "--seed", "1"])
    assert code == 2


def test_backend_option_and_config_key_are_gone(tmp_path, capsys):
    # the reduced row count alone picks the LP engine
    with pytest.raises(SystemExit) as exc:
        main(["relax", "--gen", "two", "--backend", "simplex"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": "highs"}))
    capsys.readouterr()
    assert main(["--config", str(cfg), "relax", "--gen", "two"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "backend" in err["message"]


def test_short_flag_beats_config(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(a)}))
    assert main(["--config", str(cfg), "gen", "single", "-o", str(b)]) == 0
    assert b.exists() and not a.exists()
    for flag in ([f"-o{b}"], ["--ou", str(b)], [f"--out={b}"]):
        assert main(["--config", str(cfg), "gen", "single", *flag]) == 0
        assert not a.exists()
    assert main(["--config", str(cfg), "gen", "single"]) == 0
    assert a.exists()


@pytest.mark.parametrize("policy", ["fluid", "index", "ucb:0.5"])
@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_simulation_commands_solve_the_relaxation_once(tmp_path, monkeypatch,
                                                       command, policy):
    import fluidbandit.lp as lp

    solves = []
    solve = lp._solve_reduced_min

    def counted(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(lp, "_solve_reduced_min", counted)
    assert main([command, "--gen", "bernoulli", "--T", "2",
                 "--alpha", "0.3333333333333333", "--policy", policy,
                 "--N", "4", "--reps", "20", "--seed", "1",
                 "-o", str(tmp_path / "out.csv")]) == 0
    assert len(solves) == 1
