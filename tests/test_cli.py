import contextlib
import hashlib
import io
import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import anderson_pi as ap
from anderson_pi import cli

from conftest import write_dense_file

CLI = [sys.executable, "-m", "anderson_pi.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, cwd=cwd
    )


@pytest.fixture(scope="module")
def mdp_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("mdp") / "mdp.json"
    proc = run_cli(
        "gen-mdp", "--kind", "random", "--seed", 7, "--states", 30, "--actions", 4,
        "--branching", 3, "--gamma", 0.95, "-o", path,
    )
    assert proc.returncode == 0, proc.stderr
    return path


class TestGenMdp:
    def test_random_file_validates(self, mdp_file):
        mdp = ap.load_mdp(mdp_file)
        assert ap.validate(mdp) == []
        assert mdp.n_states == 30

    def test_grid(self, tmp_path):
        path = tmp_path / "grid.json"
        proc = run_cli(
            "gen-mdp", "--kind", "grid", "--width", 5, "--height", 5,
            "--slip", 0.1, "--gamma", 0.9, "-o", path,
        )
        assert proc.returncode == 0
        assert ap.load_mdp(path).n_states == 25

    def test_missing_seed_is_usage_error(self, tmp_path):
        proc = run_cli(
            "gen-mdp", "--kind", "random", "--states", 5, "--actions", 2,
            "--branching", 2, "--gamma", 0.9, "-o", tmp_path / "x.json",
        )
        assert proc.returncode == 2
        assert "--seed" in proc.stderr

    def test_bad_flag_is_usage_error(self, tmp_path):
        proc = run_cli("gen-mdp", "--kind", "nope", "-o", tmp_path / "x.json")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--kind", "random", "--gamma", 1.0], "gamma must be in [0, 1)"),
            (["--kind", "random", "--branching", 9, "--states", 5], "branching"),
            (["--kind", "random", "--states", 0], "need n_states"),
            (["--kind", "grid", "--width", 0], "grid dimensions"),
            (["--kind", "grid", "--slip", 1.0], "slip_prob"),
            (["--kind", "random", "--reward-scale", 1e308], "range exceeds"),
            (["--kind", "random", "--reward-scale", "nan"], "reward_scale must be finite"),
            (["--kind", "random", "--reward-scale", "inf"], "reward_scale must be finite"),
            (["--kind", "grid", "--goal-reward", "inf"], "goal_reward must be finite"),
            (["--kind", "grid", "--goal-reward=-inf"], "goal_reward must be finite"),
        ],
        ids=["gamma1", "branching", "states0", "width0", "slip1", "reward-scale",
             "reward-scale-nan", "reward-scale-inf", "goal-reward-inf", "goal-reward-minus-inf"],
    )
    def test_out_of_range_generator_flag_is_usage_error(
        self, flags, message, tmp_path, capsys
    ):
        # defaults for every flag the case does not set; later flags win
        base = ["--seed", 0, "--states", 5, "--actions", 2, "--branching", 2,
                "--width", 3, "--height", 3, "--gamma", 0.9]
        out = tmp_path / "x.json"
        argv = ["gen-mdp", *base, *flags, "-o", out]
        assert cli.main([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.out + captured.err
        assert not out.exists()

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["gen-mdp", "--kind", "random", "--seed=-1", "--states", 5, "--actions", 2,
                "--branching", 2, "--gamma", 0.9, "-o", out]
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_required_flags_can_come_from_config(self, tmp_path):
        cfg = {
            "kind": "grid", "width": 3, "height": 3, "gamma": 0.9,
            "out": str(tmp_path / "g.json"),
        }
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("gen-mdp", "--config", cfg_path)
        assert proc.returncode == 0, proc.stderr
        assert ap.load_mdp(tmp_path / "g.json").n_states == 9


class TestSolve:
    def test_stable_aa_run(self, mdp_file, tmp_path):
        out = tmp_path / "out"
        proc = run_cli(
            "solve", "--mdp", mdp_file, "--scheme", "stable-aa", "-m", 3,
            "--beta", 1.0, "--eta", 0.1, "--op", "mellowmax", "--omega", 5,
            "--tol", "1e-10", "--oracle", "-o", out,
        )
        assert proc.returncode == 0, proc.stderr
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "iter,residual_inf,residual_l2,theta,beta,jitter,alpha_json,wall_nanos"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["oracle_error_inf"] <= 1e-8

    def test_vanilla_needs_more_iterations(self, mdp_file, tmp_path):
        out_v = tmp_path / "v"
        out_a = tmp_path / "a"
        for scheme, extra, out in [
            ("vanilla", [], out_v),
            ("kkt", ["-m", 5], out_a),
        ]:
            proc = run_cli(
                "solve", "--mdp", mdp_file, "--scheme", scheme, *extra,
                "--op", "mellowmax", "--omega", 5, "--tol", "1e-10", "-o", out,
            )
            assert proc.returncode == 0, proc.stderr
        iv = json.loads((out_v / "summary.json").read_text())["iterations"]
        ia = json.loads((out_a / "summary.json").read_text())["iterations"]
        assert ia < iv

    def test_max_iter_exit_code(self, mdp_file, tmp_path):
        proc = run_cli(
            "solve", "--mdp", mdp_file, "--scheme", "vanilla", "--op", "mellowmax",
            "--omega", 5, "--tol", "1e-10", "--max-iter", 5, "-o", tmp_path,
        )
        assert proc.returncode == 3

    def test_softmax_high_omega_completes_with_coded_exit(self, mdp_file, tmp_path):
        proc = run_cli(
            "solve", "--mdp", mdp_file, "--scheme", "kkt", "-m", 5, "--op", "softmax",
            "--omega", 50, "--tol", "1e-10", "--max-iter", 300, "-o", tmp_path,
        )
        assert proc.returncode in (0, 3, 4)
        assert (tmp_path / "trace.csv").exists()

    def test_missing_mdp_is_usage_error(self, tmp_path):
        proc = run_cli(
            "solve", "--mdp", tmp_path / "nope.json", "--scheme", "vanilla", "-o", tmp_path
        )
        assert proc.returncode == 2

    def test_many_violations_give_a_short_message(self, mdp_file, tmp_path, capsys):
        # all 120 rewards of the 30x4 file are null: the message names the
        # first violations and the count, not all 120
        data = json.loads(mdp_file.read_text())
        data["rewards"] = [[None] * 4 for _ in range(30)]
        path = tmp_path / "null.json"
        path.write_text(json.dumps(data))
        argv = ["solve", "--mdp", path, "--scheme", "vanilla", "-o", tmp_path / "out"]
        assert cli.main([str(a) for a in argv]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot load MDP {path}: 120 violations: ")
        assert "reward (s=0, a=0) is not finite" in line and line.endswith("and 115 more")
        assert len(line.encode()) < 1024

    @pytest.mark.parametrize("op", ["mellowmax", "softmax"])
    def test_infinite_omega_is_usage_error(self, op, mdp_file, tmp_path, capsys):
        argv = ["solve", "--mdp", mdp_file, "--scheme", "vanilla", "--op", op,
                "--omega", "inf", "-o", tmp_path / "out"]
        assert cli.main([str(a) for a in argv]) == 2
        assert "omega must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--scheme", "stable-aa", "-m", 5, "--eta", "1e308"], "finite square"),
            (["--scheme", "stable-aa", "-m", 5, "--eta", "inf"], "eta must be finite"),
            (["--scheme", "vanilla", "--eta", "nan"], "eta must be finite"),
            (["--scheme", "vanilla", "--eta", 0.5], "vanilla requires eta = 0"),
            (["--scheme", "kkt", "-m", 5, "--tol", "inf"], "tol must be positive and finite"),
        ],
        ids=["eta-square-overflows", "eta-inf", "vanilla-eta-nan", "vanilla-eta", "tol-inf"],
    )
    def test_out_of_range_eta_or_tol_is_usage_error(
        self, flags, message, mdp_file, tmp_path, capsys
    ):
        argv = ["solve", "--mdp", mdp_file, "--op", "mellowmax", "--omega", 5, *flags,
                "-o", tmp_path / "out"]
        assert cli.main([str(a) for a in argv]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_scheme_combo_is_usage_error(self, mdp_file, tmp_path):
        proc = run_cli(
            "solve", "--mdp", mdp_file, "--scheme", "stable-aa", "-m", 3,
            "--op", "mellowmax", "--omega", 5, "-o", tmp_path,
        )  # stable-aa without --eta
        assert proc.returncode == 2

    def test_q0_file(self, mdp_file, tmp_path):
        q0 = [[1.0] * 4 for _ in range(30)]
        q0_path = tmp_path / "q0.json"
        q0_path.write_text(json.dumps(q0))
        proc = run_cli(
            "solve", "--mdp", mdp_file, "--scheme", "vanilla", "--op", "max",
            "--tol", "1e-8", "--q0", q0_path, "-o", tmp_path,
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("text", ["[[1, 2", '{"q": 1}', '"q"', "[[1, [2]]]"],
                             ids=["truncated", "object", "string", "ragged"])
    def test_unreadable_q0_is_usage_error(self, text, mdp_file, tmp_path, capsys):
        q0_path = tmp_path / "q0.json"
        q0_path.write_text(text)
        argv = ["solve", "--mdp", mdp_file, "--q0", q0_path, "-o", tmp_path / "out"]
        assert cli.main([str(a) for a in argv]) == 2
        assert f"error: cannot load q0 {q0_path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oracle_with_noncontractive_operator_is_usage_error(
        self, mdp_file, tmp_path
    ):
        proc = run_cli(
            "solve", "--mdp", mdp_file, "--scheme", "vanilla", "--op", "softmax",
            "--omega", 5, "--tol", "1e-6", "--max-iter", 2000, "--oracle",
            "-o", tmp_path,
        )
        assert proc.returncode == 2
        assert "contractive" in proc.stderr

    def test_oracle_with_noncontractive_operator_is_refused_before_the_run(
        self, mdp_file, tmp_path, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("run called")

        monkeypatch.setattr(cli, "run", never)
        out = tmp_path / "fresh"
        argv = ["solve", "--mdp", mdp_file, "--op", "softmax", "--omega", 5, "--oracle",
                "-o", out]
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == (
            "error: oracle requires a contractive operator, got softmax(omega=5)\n"
        )
        assert not out.exists()

    def test_oracle_at_its_cap_is_max_iter_exit(self, mdp_file, tmp_path, monkeypatch, capsys):
        def capped(mdp, op):
            raise ap.OraclePrecisionError("oracle did not reach 1e-13", residual=1e-9)

        monkeypatch.setattr(cli, "fixed_point_oracle", capped)
        argv = ["solve", "--mdp", mdp_file, "--scheme", "kkt", "-m", 3, "--oracle",
                "-o", tmp_path]
        assert cli.main([str(a) for a in argv]) == 3
        assert "error: oracle did not reach 1e-13" in capsys.readouterr().err
        # as on the divergence path: the trace is written, the summary is not
        assert (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "summary.json").exists()

    def test_config_file_with_flag_override(self, mdp_file, tmp_path):
        cfg = {"scheme": "kkt", "m": 5, "op": "mellowmax", "omega": 5.0, "tol": 1e-8}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out1 = tmp_path / "c1"
        proc = run_cli("solve", "--config", cfg_path, "--mdp", mdp_file, "-o", out1)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out1 / "summary.json").read_text())["scheme"] == "kkt"
        # explicit flag overrides the file value
        out2 = tmp_path / "c2"
        proc = run_cli(
            "solve", "--config", cfg_path, "--mdp", mdp_file, "--scheme", "vanilla",
            "-m", 0, "-o", out2,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out2 / "summary.json").read_text())["scheme"] == "vanilla"

    @pytest.mark.parametrize("form", ["--config=PATH", "--conf PATH"])
    def test_config_path_forms(self, form, mdp_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scheme": "kkt", "m": 3}))
        config_args = form.replace("PATH", str(cfg_path)).split(" ")
        argv = ["solve", *config_args, "--mdp", mdp_file, "-o", tmp_path / "out"]
        assert cli.main([str(a) for a in argv]) == 0
        assert "kkt m=3" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["scheme"] == "kkt"

    def test_config_values_equal_the_flags(self, mdp_file, tmp_path):
        # a JSON int for a float flag is typed as the flag would type it;
        # "pairs" belongs to check and is accepted here too
        cfg = {"scheme": "stable-aa", "m": 3, "beta": 1, "eta": 0.1, "op": "mellowmax",
               "omega": 5, "max-iter": 400, "safeguard": True, "pairs": 10}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        by_file, by_flags = tmp_path / "file", tmp_path / "flags"
        proc = run_cli("solve", "--config", cfg_path, "--mdp", mdp_file, "-o", by_file)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(
            "solve", "--scheme", "stable-aa", "-m", 3, "--beta", 1, "--eta", 0.1,
            "--op", "mellowmax", "--omega", 5, "--max-iter", 400, "--safeguard",
            "--mdp", mdp_file, "-o", by_flags,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("trace.csv", "summary.json"):
            assert (by_file / name).read_bytes() == (by_flags / name).read_bytes()

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ({"sheme": "kkt"}, "unknown key 'sheme'"),
            ({"depth": 3}, "unknown key 'depth'"),
            ({"m": 3.7}, "key 'm': invalid int value 3.7"),
            ({"m": True}, "key 'm' does not take true"),
            ({"tol": [1]}, "key 'tol' does not take [1]"),
            ({"scheme": "kkkt"}, "key 'scheme': 'kkkt' is not one of"),
            ({"safeguard": 1}, "key 'safeguard' takes true or false"),
            ({"schemes": ["kkt", {"m": 3}]}, "key 'schemes' does not take {\"m\": 3}"),
        ],
        ids=["typo", "flag-not-dest", "m-float", "m-bool", "tol-list", "scheme-choice",
             "switch-int", "spec-not-text"],
    )
    def test_bad_config_key_or_value_is_usage_error(
        self, cfg, message, mdp_file, tmp_path, capsys
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["solve", "--config", cfg_path, "--mdp", mdp_file, "-o", tmp_path / "out"]
        assert cli.main([str(a) for a in argv]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMdpFileForms:
    @pytest.mark.parametrize(
        "mdp",
        [
            ap.generate_random_mdp(0, 30, 4, 3, 1.0, 0.95),
            ap.generate_gridworld(3, 3, 0.1, 1.0, 0.95),
        ],
        ids=["random-30x4", "grid-3x3"],
    )
    def test_dense_and_list_files_solve_alike(self, mdp, tmp_path):
        # a legacy dense file loads to the lists a list file holds, and every
        # solve output matches but for the file's path in summary.json
        outputs, loaded = {}, {}
        for form, write in (("dense", write_dense_file), ("lists", ap.save_mdp)):
            path, out = tmp_path / f"{form}.json", tmp_path / form
            write(mdp, path)
            back = ap.load_mdp(path)
            loaded[form] = [getattr(back, n).tobytes() for n in ("successors", "probs", "rewards")]
            assert back.gamma == mdp.gamma
            argv = ["solve", "--mdp", path, "--scheme", "stable-aa", "-m", 3, "--eta", 0.1,
                    "--op", "mellowmax", "--omega", 5, "--tol", "1e-10", "--oracle", "-o", out]
            assert cli.main([str(a) for a in argv]) == 0
            outputs[form] = {
                f.name: f.read_bytes().replace(str(path).encode(), b"<mdp>") for f in out.iterdir()
            }
        assert loaded["dense"] == loaded["lists"]
        assert sorted(outputs["lists"]) == ["summary.json", "trace.csv"]
        assert outputs["dense"] == outputs["lists"]

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d, m: d.update(transitions=m.transitions.tolist()),
             "both 'successors'/'probs' and the legacy 'transitions' given"),
            (lambda d, m: d.pop("probs"), "missing key(s): probs"),
            (lambda d, m: d["rewards"][0].__setitem__(0, "0.0"),
             "field 'rewards': not a numeric array (holds a string)"),
        ],
        ids=["both-forms", "successors-without-probs", "string-reward"],
    )
    def test_malformed_file_is_usage_error(self, edit, message, tmp_path, capsys):
        mdp, path = ap.generate_gridworld(3, 3, 0.1, 1.0, 0.9), tmp_path / "m.json"
        ap.save_mdp(mdp, path)
        data = json.loads(path.read_text())
        edit(data, mdp)
        path.write_text(json.dumps(data))
        argv = ["solve", "--mdp", path, "--scheme", "vanilla", "-o", tmp_path / "out"]
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: cannot load MDP {path}: {message}\n"


class TestCompare:
    def test_small_ensemble(self, tmp_path):
        out = tmp_path / "cmp"
        proc = run_cli(
            "compare", "--scheme", "vanilla", "--scheme", "kkt:m=5",
            "--gen", "random", "--seeds", "0:4", "--op", "mellowmax", "--omega", 5,
            "-o", out,
        )
        assert proc.returncode == 0, proc.stderr
        lines = (out / "report.jsonl").read_text().splitlines()
        assert len(lines) == 8  # 2 schemes x 4 seeds
        first = json.loads(lines[0])
        for key in ("config_hash", "mdp_seed", "converged", "iterations",
                    "final_error_vs_oracle"):
            assert key in first
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["win_rate"]["kkt m=5 vs vanilla"] == 1.0
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "scheme,mdp_seed,iter,residual_inf"

    def test_identical_schemes_tie(self, tmp_path):
        out = tmp_path / "cmp"
        proc = run_cli(
            "compare", "--scheme", "kkt:m=3", "--scheme", "kkt:m=3",
            "--gen", "random", "--seeds", "0:2", "--op", "mellowmax", "--omega", 5,
            "-o", out,
        )
        assert proc.returncode == 0
        lines = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        assert lines[0]["iterations"] == lines[2]["iterations"]

    def test_colliding_labels_stay_apart(self, tmp_path):
        out = tmp_path / "cmp"
        proc = run_cli(
            "compare", "--scheme", "kkt:m=5", "--scheme", "kkt:m=5,beta=0.5",
            "--scheme", "vanilla", "--gen", "random", "--seeds", "0:2",
            "--op", "mellowmax", "--omega", 5, "-o", out,
        )
        assert proc.returncode == 0, proc.stderr
        rows = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        kkt_labels = {f"kkt m=5#{r['config_hash']}" for r in rows if r["scheme"] != "vanilla"}
        assert len(kkt_labels) == 2
        labels = kkt_labels | {"vanilla"}
        assert {r["scheme"] for r in rows} == labels
        agg = json.loads((out / "aggregate.json").read_text())
        assert set(agg["mean_iterations"]) == labels
        assert len(agg["win_rate"]) == 6
        curves = (out / "curves.csv").read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in curves} == labels

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--gamma", 1.0], "gamma must be in [0, 1)"),
            (["--branching", 9, "--states", 5], "branching"),
        ],
        ids=["gamma1", "branching"],
    )
    def test_out_of_range_generator_flag_is_usage_error(
        self, flags, message, tmp_path, capsys
    ):
        argv = ["compare", "--scheme", "vanilla", "--scheme", "kkt:m=3", "--gen",
                "random", "--seeds", "0:2", *flags, "-o", tmp_path / "cmp"]
        assert cli.main([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.out + captured.err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize(
        "seeds,message",
        [
            ("0:10:2", "--seeds must look like start:stop, got '0:10:2'"),
            ("a:3", "--seeds must look like start:stop, got 'a:3'"),
            ("3", "--seeds must look like start:stop, got '3'"),
            ("-2:1", "--seeds needs 0 <= start < stop, got '-2:1'"),
            ("5:2", "--seeds needs 0 <= start < stop, got '5:2'"),
            ("4:4", "--seeds needs 0 <= start < stop, got '4:4'"),
        ],
        ids=["step", "not-a-number", "no-stop", "negative", "reversed", "empty"],
    )
    def test_bad_seed_range_names_the_flag(self, seeds, message, tmp_path, capsys):
        argv = ["compare", "--scheme", "vanilla", "--scheme", "kkt:m=3", "--gen",
                "random", f"--seeds={seeds}", "-o", tmp_path / "cmp"]
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("kkt:m=abc", "m must be an integer, got 'abc' in scheme spec 'kkt:m=abc'"),
            ("kkt:m=2.5", "m must be an integer, got '2.5' in scheme spec 'kkt:m=2.5'"),
            ("kkt:m=3,beta=half",
             "beta must be a number, got 'half' in scheme spec 'kkt:m=3,beta=half'"),
            ("stable-aa:m=3,eta=",
             "eta must be a number, got '' in scheme spec 'stable-aa:m=3,eta='"),
            ("vanilla:omega=5x",
             "omega must be a number, got '5x' in scheme spec 'vanilla:omega=5x'"),
        ],
        ids=["m-word", "m-float", "beta", "eta-empty", "omega"],
    )
    def test_bad_spec_value_names_the_key_and_spec(self, spec, message, tmp_path, capsys):
        argv = ["compare", "--scheme", "vanilla", "--scheme", spec, "--gen",
                "random", "--seeds", "0:2", "-o", tmp_path / "cmp"]
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "cmp").exists()

    def test_single_scheme_is_usage_error(self, tmp_path):
        proc = run_cli(
            "compare", "--scheme", "vanilla", "--gen", "random", "--seeds", "0:2",
            "-o", tmp_path,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "flags", [["--omega", "inf"], ["--scheme", "kkt:m=3,omega=inf"]],
        ids=["flag", "scheme-spec"],
    )
    def test_infinite_omega_is_usage_error(self, flags, tmp_path, capsys):
        argv = ["compare", "--scheme", "vanilla", "--scheme", "kkt:m=3", "--gen",
                "random", "--seeds", "0:2", "--op", "mellowmax", *flags,
                "-o", tmp_path / "cmp"]
        assert cli.main([str(a) for a in argv]) == 2
        assert "omega must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--tol", "inf"], "tol must be positive and finite"),
            (["--scheme", "stable-aa:m=5,eta=inf"], "eta must be finite"),
            (["--scheme", "stable-aa:m=5,eta=1e200"], "finite square"),
            (["--scheme", "vanilla:eta=0.5"], "vanilla requires eta = 0"),
        ],
        ids=["tol-inf", "eta-inf", "eta-square-overflows", "vanilla-eta"],
    )
    def test_out_of_range_eta_or_tol_is_usage_error(self, flags, message, tmp_path, capsys):
        argv = ["compare", "--scheme", "vanilla", "--scheme", "kkt:m=3", "--gen",
                "random", "--seeds", "0:2", *flags, "-o", tmp_path / "cmp"]
        assert cli.main([str(a) for a in argv]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


    def test_safeguard_spec_runs_in_a_lockstep_group(self, tmp_path, monkeypatch):
        # at tol 1e-16 the guard restarts windows: on every seed here but 0,
        # and seeds 7 and 8 converge while the others stop at max_iter
        from anderson_pi import solver

        groups = []
        lockstep = solver._run_lockstep

        def recording(stack, cfg):
            groups.append((len(stack), cfg.safeguard))
            return lockstep(stack, cfg)

        monkeypatch.setattr(solver, "_run_lockstep", recording)
        argv = ["compare", "--scheme", "vanilla", "--scheme",
                "stable-aa:m=5,eta=0.1,safeguard=1", "--gen", "random",
                "--seeds", "0:10", "--states", 10, "--actions", 3, "--branching", 2,
                "--gamma", 0.9, "--tol", 1e-16, "--max-iter", 400, "-o", tmp_path]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([str(a) for a in argv]) == 0
        monkeypatch.undo()
        assert groups == [(10, False), (10, True)]
        rows = [json.loads(line) for line in (tmp_path / "report.jsonl").read_text().splitlines()]
        mm5 = ap.OperatorSpec(ap.OperatorKind.MELLOW_MAX, 5.0)
        cfg = ap.SolverConfig(
            ap.Scheme.STABLE_AA, mm5, m=5, eta=0.1, tol=1e-16, max_iter=400, safeguard=True
        )
        got = [(r["mdp_seed"], r["iterations"], r["safeguard_count"]) for r in rows[10:]]
        want = []
        for seed in range(10):
            trace = ap.run(ap.generate_random_mdp(seed, 10, 3, 2, 1.0, 0.9), cfg)
            want.append((seed, trace.iterations, int(trace.safeguard_triggered.sum())))
        assert got == want
        assert [r["config_hash"] for r in rows[10:]] == [cfg.config_hash()] * 10
        assert 0 < sum(count for *_, count in got) and [n for _, n, _ in got].count(400) == 8

    def test_flags_replace_config_lists(self, mdp_file, tmp_path):
        # a repeatable flag on the command line replaces the file's list; with
        # no such flag the file's list stands
        other = tmp_path / "other.json"
        ap.save_mdp(ap.generate_random_mdp(8, 30, 4, 3, 1.0, 0.95), other)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"schemes": ["vanilla", "kkt"], "mdps": [str(mdp_file)]}))
        runs = {
            "file": [],
            "flags": ["--scheme", "stable-aa:m=3,eta=0.1", "--scheme", "unconstrained:m=2",
                      "--mdp", other],
        }
        rows = {}
        for name, flags in runs.items():
            proc = run_cli("compare", "--config", cfg_path, *flags, "-o", tmp_path / name)
            assert proc.returncode == 0, proc.stderr
            lines = (tmp_path / name / "report.jsonl").read_text().splitlines()
            rows[name] = [json.loads(line) for line in lines]
        assert [(r["scheme"], r["mdp_label"]) for r in rows["file"]] == [
            ("vanilla", str(mdp_file)), ("kkt m=0", str(mdp_file)),
        ]
        assert [(r["scheme"], r["mdp_label"]) for r in rows["flags"]] == [
            ("stable-aa m=3 eta=0.1", str(other)), ("unconstrained m=2", str(other)),
        ]

    def test_oracle_at_its_cap_is_max_iter_exit(self, tmp_path, monkeypatch, capsys):
        from anderson_pi import solver

        def capped(stack, op):
            raise ap.OraclePrecisionError("oracle did not reach 1e-13", residual=1e-9)

        monkeypatch.setattr(solver, "fixed_point_oracles", capped)
        argv = ["compare", "--scheme", "vanilla", "--scheme", "kkt:m=3", "--gen", "random",
                "--seeds", "0:2", "-o", str(tmp_path / "cmp")]
        assert cli.main(argv) == 3
        assert "error: oracle did not reach 1e-13" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("value", ["2", "yes", "", "true"])
    def test_bad_safeguard_value_is_usage_error(self, value, tmp_path, capsys):
        argv = ["compare", "--scheme", "vanilla", "--scheme", f"kkt:m=3,safeguard={value}",
                "--gen", "random", "--seeds", "0:2", "-o", str(tmp_path / "cmp")]
        assert cli.main(argv) == 2
        assert "safeguard must be 0 or 1" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("spec", ["kkt:m=5,m=6", "kkt:m=3,safeguard=1,safeguard=0"])
    def test_repeated_spec_key_is_usage_error(self, spec, tmp_path, capsys):
        argv = ["compare", "--scheme", "vanilla", "--scheme", spec, "--gen", "random",
                "--seeds", "0:2", "-o", str(tmp_path / "cmp")]
        assert cli.main(argv) == 2
        key = spec.split(",")[-1].split("=")[0]
        assert f"error: repeated key {key!r} in scheme spec {spec!r}" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_safeguard_zero_is_the_plain_spec(self, tmp_path):
        outputs = []
        for spec in ("kkt:m=3", "kkt:m=3,safeguard=0"):
            out = tmp_path / spec.replace(":", "_").replace(",", "_")
            argv = ["compare", "--scheme", "vanilla", "--scheme", spec, "--gen", "random",
                    "--seeds", "0:3", "-o", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            outputs.append([(out / f).read_bytes() for f in
                            ("report.jsonl", "curves.csv", "aggregate.json")])
        assert outputs[0] == outputs[1]


class TestCheck:
    def test_clean_run_exits_zero(self, tmp_path):
        proc = run_cli("check", "--seed", 1, "--pairs", 50, "-o", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "check_report.jsonl").exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--beta", 2.0], "beta must be in [0, 1]"),
            (["--beta", -0.5], "beta must be in [0, 1]"),
            (["--omega", 0.0], "omega must be positive"),
            (["--omega", "inf"], "omega must be positive and finite"),
            (["--eta", "nan"], "eta must be finite and positive"),
            (["--eta", "inf"], "eta must be finite and positive"),
            (["--eta", 0.0], "eta must be finite and positive"),
            (["--eta", -0.1], "eta must be finite and positive"),
            (["--eta", "1e200"], "finite square"),
            (["--pairs", 0], "pairs must be >= 1"),
            (["--seed", -1], "seed must be >= 0"),
        ],
        ids=["beta2", "beta-negative", "omega0", "omega-inf", "eta-nan", "eta-inf",
             "eta0", "eta-negative", "eta-square-overflows", "pairs0", "seed-negative"],
    )
    def test_out_of_range_flag_is_usage_error(self, flags, message, tmp_path, capsys):
        argv = ["check", "--seed", 1, "--pairs", 10, *flags, "-o", tmp_path / "out"]
        assert cli.main([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    def test_degenerate_eta_still_exits_zero(self, tmp_path):
        # rhs = |2/2 - 1| = 1 >= beta keeps the bound asserted only while
        # it holds; eta = 2.0 pushes rhs to zero territory where findings
        # are report-only
        proc = run_cli(
            "check", "--seed", 1, "--pairs", 30, "--eta", 2.0, "--beta", 1.0,
            "-o", tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "check_report.jsonl").read_text().splitlines()
        body = [json.loads(l) for l in lines[1:] if "bound_id" in l]
        findings = [
            b for b in body
            if b["bound_id"] == "Theorem3(rhs<beta)" and not b["satisfied"]
        ]
        assert findings


class TestExitMap:
    @pytest.mark.parametrize(
        "command,where",
        [("gen-mdp", "under-file"), ("gen-mdp", "missing-dir"), ("solve", "under-file"),
         ("compare", "under-file"), ("check", "under-file")],
    )
    def test_unwritable_out_is_usage_error(
        self, command, where, mdp_file, tmp_path, monkeypatch, capsys
    ):
        # the suite and the ensemble must not start when -o cannot be made
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before -o was made")

        monkeypatch.setattr(cli, "run_ensemble", must_not_run)
        monkeypatch.setattr(cli.diagnostics, "run_check_suite", must_not_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = (blocker if where == "under-file" else tmp_path / "missing") / "out"
        argv = {
            "gen-mdp": ["gen-mdp", "--kind", "grid", "--width", 3, "--height", 3,
                        "--gamma", 0.9],
            "solve": ["solve", "--mdp", mdp_file],
            "compare": ["compare", "--scheme", "vanilla", "--scheme", "kkt:m=3", "--gen",
                        "random", "--seeds", "0:2"],
            "check": ["check", "--pairs", 10],
        }[command]
        assert cli.main([str(a) for a in [*argv, "-o", out]]) == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [blocker]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples():
    """``(argv, files)`` of each command of the README's CLI block.

    ``files`` are the file names the comment above the command gives; the
    command writes them into its ``-o``.
    """
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    examples, files = [], []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("#"):
            files = re.findall(r"[\w.]+\.(?:csv|jsonl|json)\b", line)
        elif line.strip():
            examples.append((shlex.split(line), files))
    return examples


def readme_library_example() -> str:
    """The ``python`` block under "## Library use" of the README."""
    text = README.read_text(encoding="utf-8")
    return text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


class TestReadmeExamples:
    def test_library_block_runs(self):
        # the block solves to tol 1e-10 at gamma 0.95 and prints the iteration
        # count and the error against the oracle
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(readme_library_example(), {})
        iterations, error = out.getvalue().split()
        assert int(iterations) > 0
        assert float(error) <= 1e-10 / (1.0 - 0.95)

    def test_cli_block_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        examples = readme_cli_examples()
        assert examples and all(argv[0] == "anderson-pi" for argv, _ in examples)
        for argv, files in examples:
            assert cli.main(argv[1:]) == 0, argv
            out = tmp_path / argv[argv.index("-o") + 1]
            assert out.exists(), argv
            for name in files:
                assert (out / name).is_file(), (argv, name)


class TestDeterminism:
    def test_byte_identical_repeats(self, tmp_path):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for target in (m1, m2):
            run_cli(
                "gen-mdp", "--kind", "random", "--seed", 3, "--states", 12,
                "--actions", 3, "--branching", 2, "--gamma", 0.9, "-o", target,
            )
        assert m1.read_bytes() == m2.read_bytes()

        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            proc = run_cli(
                "solve", "--mdp", m1, "--scheme", "stable-aa", "-m", 3, "--eta", 0.1,
                "--op", "mellowmax", "--omega", 5, "--tol", "1e-9", "-o", out,
            )
            assert proc.returncode == 0
            outs.append(out)
        assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()

        chks = []
        for name in ("k1", "k2"):
            out = tmp_path / name
            proc = run_cli("check", "--seed", 2, "--pairs", 25, "-o", out)
            assert proc.returncode == 0
            chks.append((out / "check_report.jsonl").read_bytes())
        assert chks[0] == chks[1]


# (mdp, solve flags, q0) per case; the MDP is (generator, args)
GOLDEN_CASES = {
    "stable-aa-full-diagnostics": (
        ("random", (7, 30, 4, 3, 1.0, 0.95)),
        ["--scheme", "stable-aa", "-m", 5, "--eta", 0.1, "--op", "mellowmax",
         "--omega", 5, "--diagnostics", "full", "--oracle"],
        None,
    ),
    "kkt-safeguard-max-iter": (
        # the residual plateaus above 1e-14 and doubles twice on this MDP
        ("random", (1, 30, 4, 3, 10.0, 0.99)),
        ["--scheme", "kkt", "-m", 5, "--op", "max", "--tol", "1e-14",
         "--max-iter", 300, "--safeguard"],
        None,
    ),
    "softmax-beta0.7": (
        ("random", (7, 30, 4, 3, 1.0, 0.95)),
        ["--scheme", "unconstrained", "-m", 5, "--op", "softmax", "--omega", 2,
         "--beta", 0.7],
        None,
    ),
    "q0-start-grid": (
        ("grid", (5, 5, 0.1, 1.0, 0.9)),
        ["--scheme", "kkt", "-m", 3, "--op", "mellowmax", "--omega", 5, "--oracle"],
        [[(7 * s + 3 * a) % 5 / 2.0 for a in range(4)] for s in range(25)],
    ),
    "diverging-softmax": (
        ("random", (2, 8, 2, 2, 1e11, 0.99)),
        ["--scheme", "vanilla", "--op", "softmax", "--omega", 1, "--tol", "1e-8",
         "--max-iter", 5000],
        None,
    ),
    "eq13-beta0.3": (
        ("random", (7, 30, 4, 3, 1.0, 0.95)),
        ["--scheme", "kkt", "-m", 5, "--op", "mellowmax", "--omega", 5,
         "--beta", 0.3, "--beta-convention", "eq13", "--oracle"],
        None,
    ),
    "stable-aa-basic-gamma0.99": (
        ("random", (3, 30, 4, 3, 1.0, 0.99)),
        ["--scheme", "stable-aa", "-m", 5, "--eta", 0.1, "--op", "mellowmax",
         "--omega", 5, "--diagnostics", "basic", "--oracle"],
        None,
    ),
    "vanilla-max": (
        ("random", (4, 30, 4, 3, 1.0, 0.9)),
        ["--scheme", "vanilla", "--op", "max", "--oracle"],
        None,
    ),
}


def solve_outputs(case, tmp_path):
    """sha256 of ``solve``'s trace.csv and the summary's iterations, converged, exit code."""
    (gen, mdp_args), flags, q0 = GOLDEN_CASES[case]
    make = ap.generate_random_mdp if gen == "random" else ap.generate_gridworld
    mdp_path, out = tmp_path / "mdp.json", tmp_path / "out"
    ap.save_mdp(make(*mdp_args), mdp_path)
    argv = ["solve", "--mdp", mdp_path, *flags, "-o", out]
    if q0 is not None:
        (tmp_path / "q0.json").write_text(json.dumps(q0))
        argv += ["--q0", tmp_path / "q0.json"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    summary = json.loads((out / "summary.json").read_text())
    digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    return digest, summary["iterations"], summary["converged"], summary["exit_code"], code


class TestSolveGolden:
    """``solve`` outputs pinned to values an independent iteration loop produced.

    The trace digests and counts were recorded while ``run`` still had a
    loop of its own, separate from the lockstep engine it now calls.
    """

    GOLDEN = {
        "diverging-softmax": (
            "ce601c7844034bdb77c63faba7ed1d642cc555fac631953d1ae48fd8a1ce6d52",
            30, False, 4,
        ),
        "eq13-beta0.3": (
            "0ed1acd1855f30fa5f65391abc9b9e80892cfc75a80a7ac5771adee2f9ea9800",
            39, True, 0,
        ),
        "kkt-safeguard-max-iter": (
            "0cc3632394cc2c45a84542bff1ae84b36b74036d22ca491290aba9eed96c14a0",
            300, False, 3,
        ),
        "q0-start-grid": (
            "b2f910a7ae7bb3ba07fdc811358ca4a9f600d43834415375df26bdddbf08e058",
            92, True, 0,
        ),
        "softmax-beta0.7": (
            "0c34ee76cebcc182c1dcc51517f87f33f6ff58bde019e80ea6971a9d52f22258",
            42, True, 0,
        ),
        "stable-aa-basic-gamma0.99": (
            "277306555766b6bac22e2738edecfad80cb9c06a009373f20fdedb5282cacab4",
            2007, True, 0,
        ),
        "stable-aa-full-diagnostics": (
            "97a35dd0da3b3841733c0171361221486f0f8a4e03e47eebf6a380341b3615e4",
            292, True, 0,
        ),
        "vanilla-max": (
            "f6622d4be31da11069860f2076d92ce1f7db101f95bce5cc51b1afbab16cc8d2",
            215, True, 0,
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_trace_and_summary(self, case, tmp_path):
        digest, iterations, converged, exit_code, code = solve_outputs(case, tmp_path)
        assert code == exit_code
        assert (digest, iterations, converged, exit_code) == self.GOLDEN[case]


class TestCheckGolden:
    """``check``'s report and exit code, pinned.

    Recorded while the contraction check swept one Q table per call and
    every full-diagnostics record solved its own window.  700 pairs is not
    a multiple of 128; at eta 1.0 the asserted Theorem3 bound fails (exit 5).
    """

    @pytest.mark.parametrize(
        "flags,exit_code,digest",
        [
            (["--seed", 0], 0,
             "cbe7b80a4875e0a9e348ac6e7451eef39c923dabc5fe34394036489abe613eb4"),
            (["--seed", 1, "--eta", 1.0, "--pairs", 700], 5,
             "62ed0986bb335057dc8a198f4466252bb7618e5a19df788411a2fb6aa9fd7d0b"),
        ],
        ids=["seed0", "seed1-eta1-pairs700"],
    )
    def test_report_digest(self, flags, exit_code, digest, tmp_path):
        argv = ["check", *flags, "-o", tmp_path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        report = (tmp_path / "check_report.jsonl").read_bytes()
        assert (code, hashlib.sha256(report).hexdigest()) == (exit_code, digest)
