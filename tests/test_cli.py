"""Command-line contract: pipelines, reproducibility, exit codes."""

import copy
import csv
import json
import warnings
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from conftest import v2_payload
from fluidbandit.cli import CSV_COLUMNS, _emit_json, _round12, main
from fluidbandit.errors import EXIT_CODES
from fluidbandit.mdp import model_from_dict, model_from_json, model_to_dict
from fluidbandit.zoo import bernoulli_bandit


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
    # solver diagnostics: 3 reachable period-2 flow rows, 2 budget rows,
    # initial and mass; the crash start is already optimal
    assert (payload["pivots"], payload["rows"]) == (0, 7)
    # the last basis factor: L and U each hold the diagonal, at most dense
    assert 2 * 7 <= payload["lu_nnz"] <= 7 * 8


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



@pytest.mark.parametrize("command, n_flag", [("eval", "4"), ("sweep", "2,4"),
                                             ("violations", "2,4")])
def test_stdout_is_the_csv_alone_and_repeats(tmp_path, monkeypatch, capsys, command, n_flag):
    # the sidecar, whose wall-clock time differs run to run, is written
    # only beside an -o file
    monkeypatch.chdir(tmp_path)
    args = [command, "--gen", "bernoulli", "--T", "2", "--alpha", "0.3333333333333333",
            "--policy", "fluid", "--N", n_flag, "--reps", "50", "--seed", "1"]
    outs = []
    for _ in range(2):
        assert main(args) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert [row.split(",")[0] for row in lines[1:]] == n_flag.split(",")
    assert list(tmp_path.iterdir()) == []


def test_reps_default_to_the_simulator_rule(tmp_path):
    out = tmp_path / "r.csv"

    def sidecar_reps():
        return [row["reps"] for row in json.loads((tmp_path / "r.json").read_text())["rows"]]

    assert main(["eval", "--gen", "two", "--policy", "fluid", "--N", "3",
                 "--seed", "1", "-o", str(out)]) == 0
    assert sidecar_reps() == [150]
    assert main(["sweep", "--gen", "two", "--policy", "fluid", "--N", "2,4",
                 "--reps-cap", "150", "--seed", "1", "-o", str(out)]) == 0
    assert sidecar_reps() == [100, 150]

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


def _n_column(text):
    """The N of each row of a CSV command's stdout, or of oracle's JSON."""
    if text.startswith("{"):
        return [json.loads(text)["N"]]
    return [int(line.split(",")[0]) for line in text.splitlines()[1:]]


@pytest.mark.parametrize("command, n_text, flag", [("eval", 4, "6"), ("sweep", "2,4", "3,6"),
                                                    ("violations", "2,4", "3,6"),
                                                    ("oracle", 4, "6")])
def test_config_file_supplies_required_options(tmp_path, capsys, command, n_text, flag):
    # --N (and --policy of eval and sweep) are required flags; a config key
    # supplies them as it does --seed, explicit flags still win, and the
    # file's keys do not make them optional for the next call
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": n_text, "policy": "fluid", "reps": 20, "seed": 1}))
    base = ["--config", str(cfg), command, "--gen", "two"]
    assert main(base) == 0
    assert _n_column(capsys.readouterr().out) == [int(n) for n in str(n_text).split(",")]
    assert main([*base, "--N", flag]) == 0
    assert _n_column(capsys.readouterr().out) == [int(n) for n in flag.split(",")]
    cfg.write_text(json.dumps({"policy": "fluid", "reps": 20, "seed": 1}))
    for argv in (base, base[2:]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_config_values_do_not_outlive_their_call(tmp_path, capsys):
    # main reuses one parser; a config's seed must not become the next
    # call's default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9}))
    base = ["eval", "--gen", "two", "--policy", "fluid", "--N", "2", "--reps", "5"]
    assert main(["--config", str(cfg), *base, "-o", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert main(base) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "--seed" in err["message"]


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


def test_unknown_generator_is_named_before_its_flags(capsys):
    # the name was once checked after --T/--alpha, so the message asked
    # for flags that no generator of that name takes
    assert main(["relax", "--gen", "bogus"]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == "unknown generator 'bogus'"


@pytest.mark.parametrize("command, n_flag", [("eval", "2"), ("sweep", "2,4"),
                                             ("violations", "2,4")])
def test_output_path_that_is_its_own_sidecar_is_refused(tmp_path, monkeypatch, capsys,
                                                        command, n_flag):
    # the sidecar once overwrote the CSV it was written beside, with exit 0
    import fluidbandit.simulator as simulator

    def no_run(*args, **kwargs):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(simulator, "_run", no_run)
    out = tmp_path / "r.json"
    assert main([command, "--gen", "two", "--policy", "fluid", "--N", n_flag,
                 "--reps", "10", "--seed", "1", "-o", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and str(out) in err["message"]
    assert list(tmp_path.iterdir()) == []


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


def test_subgradient_option_and_config_key_are_gone(tmp_path, capsys):
    # budget prices come only from the certified LP duals
    with pytest.raises(SystemExit) as exc:
        main(["priority", "--gen", "two", "--subgradient", "5"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subgradient": 5}))
    capsys.readouterr()
    assert main(["--config", str(cfg), "priority", "--gen", "two"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "subgradient" in err["message"]


def _eval_with_config(tmp_path, cfg, *flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main(["--config", str(path), "eval", "--gen", "two", "--policy", "fluid",
                 "--N", "2", *flags, "-o", str(tmp_path / "r.csv")])


def _sidecar_row(tmp_path):
    return json.loads((tmp_path / "r.json").read_text())["rows"][0]


@pytest.mark.parametrize("key, text, flags", [("seed", "3", ["--reps", "5"]),
                                              ("reps", "50", ["--seed", "1"])])
def test_config_string_number_is_parsed_like_the_flag(tmp_path, key, text, flags):
    assert _eval_with_config(tmp_path, {key: text}, *flags) == 0
    assert _sidecar_row(tmp_path)[key] == int(text)


@pytest.mark.parametrize("cfg", [{"seed": "three"}, {"seed": 3.5}, {"reps": None},
                                 {"reps": True}, {"engine": "perarm"}],
                         ids=["seed-word", "seed-float", "reps-null", "reps-bool",
                              "engine-choice"])
def test_config_value_failing_its_flag_is_config_error(tmp_path, capsys, cfg):
    flags = [] if "seed" in cfg else ["--seed", "1"]
    assert _eval_with_config(tmp_path, {"reps": 5, **cfg}, *flags) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and next(iter(cfg)) in err["message"]


def test_config_switch_takes_only_a_json_boolean(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    base = ["sweep", "--gen", "bernoulli", "--T", "2", "--alpha", "0.3333333333333333",
            "--policy", "fluid", "--N", "4,8", "--reps", "40", "--seed", "1"]
    cfg.write_text(json.dumps({"crn": "false"}))
    assert main(["--config", str(cfg), *base]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "crn" in err["message"]
    outs = {}
    for value in (True, False):
        cfg.write_text(json.dumps({"crn": value}))
        outs[value] = tmp_path / f"crn-{value}.csv"
        assert main(["--config", str(cfg), *base, "-o", str(outs[value])]) == 0
    for value, flag in ((True, ["--crn"]), (False, [])):
        plain = tmp_path / "plain.csv"
        assert main([*base, *flag, "-o", str(plain)]) == 0
        assert plain.read_bytes() == outs[value].read_bytes()
    assert outs[True].read_bytes() != outs[False].read_bytes()


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
    import fluidbandit.simplex as simplex

    solves = []
    solve = simplex.solve_lp

    def counted(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(simplex, "solve_lp", counted)
    assert main([command, "--gen", "bernoulli", "--T", "2",
                 "--alpha", "0.3333333333333333", "--policy", policy,
                 "--N", "4", "--reps", "20", "--seed", "1",
                 "-o", str(tmp_path / "out.csv")]) == 0
    assert len(solves) == 1


@pytest.mark.parametrize("command", ["sweep", "violations"])
def test_reps_cap_zero_fails_like_a_negative_cap(tmp_path, capsys, command):
    # a cap of 0 once fell back to 200000 and ran uncapped, and then was
    # refused as "reps must be a positive integer"
    for cap in ("0", "-3"):
        assert main([command, "--gen", "two", "--policy", "fluid", "--N", "2,4",
                     "--reps-cap", cap, "--seed", "1",
                     "-o", str(tmp_path / "out.csv")]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RangeError"
        assert err["message"] == f"reps cap must be a positive integer, got {cap}"


def test_gen_and_model_commands_share_generator_flags():
    from fluidbandit.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")

    def flags(command):
        return {a.dest: (a.option_strings, a.type, a.default)
                for a in sub.choices[command]._actions
                if a.dest in ("T", "alpha", "m_cap", "x_cap")}

    assert len(flags("gen")) == 4
    for command in ("relax", "eval", "sweep", "oracle"):
        assert flags(command) == flags("gen")


@pytest.mark.parametrize("breakage, error, code", [
    ("target", "RangeError", 4),
    ("indptr", "ConfigError", 2),
    ("row_sum", "RowSumError", 3),
    ("not_an_object", "ConfigError", 2),
])
def test_malformed_v2_model_file_is_a_typed_error(tmp_path, capsys, breakage, error, code):
    path = tmp_path / "two.json"
    assert main(["gen", "two", "-o", str(path)]) == 0
    payload = v2_payload(model_from_json(path.read_text()))
    K = payload["kernel"][0]
    if breakage == "target":
        K["indices"][0] = 2  # TWO has S = 2 states
    elif breakage == "indptr":
        K["indptr"].append(K["indptr"][-1])
    elif breakage == "row_sum":
        K["data"][0] = 0.7
    else:
        payload = [1, 2]  # once a raw AttributeError
    path.write_text(json.dumps(payload))
    assert main(["relax", "--model", str(path)]) == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and err["exit_code"] == code


@pytest.mark.parametrize("field, value", [("T", 2.9), ("T", True), ("s0", 0.7),
                                          ("s0", True)])
def test_model_file_needs_an_integer_t_and_s0(tmp_path, capsys, field, value):
    # both once went through int(), so the file ran another model
    path = tmp_path / "two.json"
    assert main(["gen", "two", "-o", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    assert main(["relax", "--model", str(path)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RangeError" and f"{field} must" in err["message"]


@pytest.mark.parametrize("edit", [
    lambda p: p.update(kernel_of_period=[0, 5]),
    lambda p: p.update(kernel_of_period=[0, True]),
    lambda p: p.update(kernel_of_period=[0, -1]),
    lambda p: p.update(kernel_of_period=[0, 0.0]),
    lambda p: p.update(kernel_of_period=[0]),
    lambda p: p.update(kernel_of_period=None),
    lambda p: p["kernel"].append(p["kernel"][0]),
    lambda p: p.update(reward_of_period=[0, 1]),
    lambda p: p.update(reward_of_period=[-1, 0]),
    lambda p: p["R"].append(p["R"][0]),
], ids=["kernel-out-of-range", "kernel-bool", "kernel-negative", "kernel-float",
        "kernel-short", "kernel-not-a-list", "kernel-unused-entry", "reward-out-of-range",
        "reward-negative", "reward-unused-entry"])
def test_malformed_v3_index_list_is_a_config_error(tmp_path, capsys, edit):
    # TWO stores one kernel matrix and one reward slab for its 2 periods;
    # indexed unchecked, an index past the end would escape main as an
    # IndexError, a negative one would wrap to the last entry, and an unused
    # entry would never be validated
    path = tmp_path / "two.json"
    assert main(["gen", "two", "-o", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["version"] == 3
    edit(payload)
    path.write_text(json.dumps(payload))
    assert main(["relax", "--model", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "_of_period" in err["message"]


# Values each field of a model file, and the first entry of each list in it,
# is replaced by in test_mutated_model_file_exits_with_a_typed_code.
JUNK = [None, True, -1, 0, 1.5, "x", [], {}, [[]], float("nan"), 10**20, [1, 2], -0.0]
DELETE = object()


def _entry_paths(node, path=()):
    """The path of every field of a JSON tree and of the first entry of every
    nonempty list in it, at any depth."""
    keys = list(node) if isinstance(node, dict) else [0] if isinstance(node, list) and node else []
    for key in keys:
        yield path + (key,)
        yield from _entry_paths(node[key], path + (key,))


def test_mutated_model_file_exits_with_a_typed_code(tmp_path, capsys):
    """Every field of bern3's model file and the first entry of every list in
    it, replaced by each value of JUNK or deleted: relax exits 0 or with a
    code of EXIT_CODES, never 1 and never by an escaped exception.  A file it
    accepts is the model it loads (so no number was truncated), and a bool
    in a kernel array, alpha or R is refused.  An index of 1.5 once loaded
    as 1, true as 1 in indices, alpha and R, and 10**20 escaped main as an
    OverflowError."""
    base = model_to_dict(bernoulli_bandit(3, 1.0 / 3.0))
    path, out, bad = tmp_path / "bern3.json", str(tmp_path / "relax.json"), []
    for where in _entry_paths(base):
        for junk in [*JUNK, DELETE]:
            payload = copy.deepcopy(base)
            parent = reduce(getitem, where[:-1], payload)
            if junk is DELETE:
                del parent[where[-1]]
            else:
                parent[where[-1]] = junk
            path.write_text(json.dumps(payload))
            try:
                code = main(["relax", "--model", str(path), "-o", out])
            except Exception as exc:
                code = repr(exc)
            capsys.readouterr()
            if code == 0:
                ok = (model_to_dict(model_from_dict(payload)) == payload
                      and not (junk is True and where[0] in ("kernel", "alpha", "R")))
            else:
                ok = code in EXIT_CODES.values()
            if not ok:
                bad.append((where, "deleted" if junk is DELETE else junk, code))
    assert not bad, bad


def test_gen_stores_the_shared_kernel_once(tmp_path):
    # bern24's version-2 file, one kernel and reward slab per period, was
    # 1.33 MB; the version-3 file stores each once
    path = tmp_path / "bern24.json"
    assert main(["gen", "bernoulli", "--T", "24", "--alpha", "0.3333333333333333",
                 "-o", str(path)]) == 0
    assert path.stat().st_size < 0.25e6


@pytest.mark.parametrize("argv, message", [
    (["relax"], "need --model FILE or --gen NAME"),
    (["relax", "--gen", "bernoulli"], "needs --T and --alpha"),
    (["sweep", "--gen", "two", "--policy", "fluid", "--N", "3,x", "--seed", "1"],
     "bad N list"),
    (["--config", "{tmp}/missing.json", "relax", "--gen", "two"], "cannot read config"),
    (["--config", "{tmp}/list.json", "relax", "--gen", "two"], "must hold a JSON object"),
], ids=["no-model", "generator-without-flags", "bad-n-list", "unreadable-config",
        "config-list"])
def test_config_errors_exit_2(tmp_path, capsys, argv, message):
    (tmp_path / "list.json").write_text("[1, 2]")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and message in err["message"]


@pytest.mark.parametrize("argv, message", [
    (["relax", "--gen", "bernoulli", "--T", "3", "--alpha", "nan"], "alpha"),
    (["eval", "--gen", "bernoulli", "--T", "3", "--alpha", "0.3", "--policy", "ucb:nan",
      "--N", "6", "--reps", "5", "--seed", "1"], "finite delta"),
    (["eval", "--gen", "bernoulli", "--T", "3", "--alpha", "0.3", "--policy", "ucb:inf",
      "--N", "6", "--reps", "5", "--seed", "1"], "finite delta"),
], ids=["alpha-nan", "ucb-nan", "ucb-inf"])
def test_non_finite_numbers_exit_4(capsys, argv, message):
    # NaN alpha once died with a raw traceback; a NaN or infinite UCB delta
    # printed a CSV row and exited 0
    assert main(argv) == 4
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err["error"] == "RangeError" and err["exit_code"] == 4
    assert message in err["message"]


@pytest.mark.parametrize("config, flags", [
    ({}, ["--seed", "-1"]),
    ({"seed": -1}, []),
], ids=["flag", "config"])
def test_negative_seed_exits_4(tmp_path, capsys, config, flags):
    # a negative seed once died in SeedSequence with a raw traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "eval", "--gen", "two", "--policy", "fluid",
                 "--N", "2", "--reps", "5", *flags]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RangeError" and "seed" in err["message"]


@pytest.mark.parametrize("argv", [
    ["relax", "--gen", "two"],
    ["eval", "--gen", "two", "--policy", "fluid", "--N", "2", "--reps", "5", "--seed", "1"],
], ids=["json", "csv-and-sidecar"])
def test_output_in_a_missing_directory_is_config_error(tmp_path, capsys, argv):
    # open() once raised FileNotFoundError through main
    assert main([*argv, "-o", str(tmp_path / "missing" / "out.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "cannot write" in err["message"]


@pytest.mark.parametrize("name, flags", [
    ("crowd", []),
    ("assort", ["--m-cap", "12", "--x-cap", "6"]),
])
def test_gen_writes_a_model_file(tmp_path, name, flags):
    path = tmp_path / f"{name}.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # assortment truncation mass
        assert main(["gen", name, "--T", "2", "--alpha", "0.3", "-o", str(path)] + flags) == 0
    model = model_from_json(path.read_text())
    assert model.T == 2 and model.metadata["params"]["alpha"] == 0.3


def test_search_measure_single(capsys):
    assert main(["search-measure", "--gen", "single"]) == 0
    payload = _stdout_json(capsys)
    assert payload["nondegenerate"] is True and payload["witness_value"] == 1.0


def test_emitted_json_text_is_pinned(capsys):
    # the leaf types the payloads hold: built-in and NumPy floats (rounded
    # to 12 digits; NaN and infinities pass through), ints, bools and None,
    # in nested dicts (keys made strings), tuples and arrays
    payload = {"tuple": (1, np.float64(0.1) * 3, np.int64(-7), 2.5e-13),
               "nested": {"flags": [True, np.bool_(False), None], 3: np.float32(0.1),
                          "deeper": {"n": float("nan"), "inf": float("-inf")}},
               "array": np.array([[0.1 + 0.2, np.nan], [np.inf, -0.0]]),
               "ints": np.arange(3), "word": "x", "big": 123456789.123456789}
    _emit_json(payload, None)
    assert capsys.readouterr().out == EMITTED


EMITTED = """\
{
  "array": [
    [
      0.3,
      NaN
    ],
    [
      Infinity,
      -0.0
    ]
  ],
  "big": 123456789.123,
  "ints": [
    0,
    1,
    2
  ],
  "nested": {
    "3": 0.10000000149,
    "deeper": {
      "inf": -Infinity,
      "n": NaN
    },
    "flags": [
      true,
      false,
      null
    ]
  },
  "tuple": [
    1,
    0.3,
    -7,
    2.5e-13
  ],
  "word": "x"
}
"""
