import csv
import hashlib
import json
import math
import typing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fga import campaign
from fga.campaign import (
    DATASET_DEFAULTS,
    ExperimentConfig,
    report,
    run_campaign,
    summarize,
)
from fga.cli import GENERATORS, MODE_FLAGS, _parse_generate, main
from fga.dataio import load_rating_csv
from fga.engine import FgaScores
from fga.generators import generate_random_graph
from fga.graph import RatingScale, Wsn


@pytest.fixture
def ratings_csv(tmp_path):
    path = tmp_path / "ratings.csv"
    rows = ["2,1,10", "3,1,10", "2,4,10"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestComputeCommand:
    def test_scores_csv(self, ratings_csv, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        code = main(["compute", "--input", str(ratings_csv), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "node_label,fairness,goodness"
        assert len(lines) == 5

    def test_every_row_has_three_fields(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text('"a,b",c,5\nc,d,-3\n', encoding="utf-8")
        out = tmp_path / "scores.csv"
        assert main(["compute", "--input", str(ratings), "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 3 for row in rows)
        assert [row[0] for row in rows] == ["node_label", "a,b", "c", "d"]

    def test_stdout_default(self, ratings_csv, capsys):
        code = main(["compute", "--input", str(ratings_csv)])
        assert code == 0
        assert "node_label,fairness,goodness" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, ratings_csv):
        assert main(["compute"]) == 2
        assert main(["compute", "--input", str(ratings_csv), "--generate", "erdos:n=5"]) == 2

    def test_malformed_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,a,5\n", encoding="utf-8")
        assert main(["compute", "--input", str(bad)]) == 2

    def test_directory_as_input_is_exit_2(self, tmp_path, capsys):
        assert main(["compute", "--input", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_non_finite_tolerance_is_exit_2(self, tolerance, capsys):
        # an infinite tolerance would stop after one sweep and exit 0, unconverged
        assert main(["compute", "--generate", "erdos", "--tolerance", tolerance]) == 2
        captured = capsys.readouterr()
        assert "residual_tolerance must be finite" in captured.err
        assert captured.out == ""

    def test_non_convergence_is_reported_not_fatal(self, ratings_csv, capsys):
        code = main([
            "compute", "--input", str(ratings_csv), "--max-iterations", "1",
            "--tolerance", "1e-12",
        ])
        assert code == 0
        assert "iterations=1" in capsys.readouterr().err

    @pytest.mark.parametrize("sweeps, converged", [(2, "false"), (100, "true")])
    def test_summary_says_whether_the_solve_converged(self, sweeps, converged, capsys):
        code = main(["compute", "--generate", "erdos", "--max-iterations", str(sweeps)])
        assert code == 0
        summary = capsys.readouterr().err.strip().split()
        assert summary[0] == "#" and summary[-1] == f"converged={converged}"
        residual = float(summary[-2].removeprefix("max_residual="))
        assert (residual < 1e-8) == (converged == "true")


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ["attack", "--mode", "direct", "--input", "{csv}", "--k", "1"],
        ["bounds", "--scenario", "direct-sybil", "--input", "{csv}", "--trials", "1"],
        ["bounds", "--scenario", "stabiliser"],
        ["axioms", "--samples", "1"],
        ["compute", "--generate", "erdos:n=5"],
        ["compute", "--input", "{csv}"],
        ["predict", "--input", "{csv}", "--source", "2", "--target", "4"],
        ["stats", "--input", "{csv}"],
        ["campaign", "--input", "{csv}", "--mode", "direct", "--out-dir", "{out}"],
    ], ids=["attack", "bounds-direct-sybil", "bounds-stabiliser", "axioms", "compute-generate",
            "compute-input", "predict", "stats", "campaign"])
    def test_a_negative_seed_is_exit_2_for_every_command_before_it_runs(
        self, argv, ratings_csv, tmp_path, capsys
    ):
        # numpy seeds no stream from a negative seed; some commands used to fail late
        # with its message, and the stabiliser and compute --input ignored the seed
        out = tmp_path / "out"
        argv = [arg.format(csv=ratings_csv, out=out) for arg in argv]
        assert main(["--seed", "-1", *argv]) == 2
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
        assert not out.exists()


class TestPredictCommand:
    def test_prediction_payload(self, ratings_csv, capsys):
        code = main([
            "predict", "--input", str(ratings_csv), "--source", "4", "--target", "3"
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # node 4 rates no one (fairness 1) and 3 is unrated (goodness 1)
        assert payload["predicted_weight"] == pytest.approx(1.0, abs=1e-9)

    def test_unknown_label(self, ratings_csv, capsys):
        # printed bare: str() of the KeyError would wrap the message in quotes
        for argv in (
            ["predict", "--input", str(ratings_csv), "--source", "zz", "--target", "1"],
            ["attack", "--mode", "direct", "--input", str(ratings_csv), "--target", "zz"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", "error: unknown node label 'zz'\n")


class TestStatsCommand:
    def test_stats_json(self, ratings_csv, capsys):
        assert main(["stats", "--input", str(ratings_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["node_count"] == 4
        assert payload["edge_count"] == 3
        assert payload["positive_edge_fraction"] == 1.0

    def test_directory_as_out_is_exit_2(self, ratings_csv, tmp_path, capsys):
        assert main(["stats", "--input", str(ratings_csv), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_r_max_goes_with_input_only(self, ratings_csv, capsys):
        assert main(["stats", "--generate", "complete:n=3", "--r-max", "0.5"]) == 2
        assert capsys.readouterr().err == "error: --r-max goes with --input only\n"
        assert main(["bounds", "--scenario", "stabiliser", "--r-max", "5"]) == 2
        assert "--scenario stabiliser takes no --r-max" in capsys.readouterr().err
        assert main(["stats", "--input", str(ratings_csv)]) == 0
        default = capsys.readouterr().out
        assert main(["stats", "--input", str(ratings_csv), "--r-max", "10"]) == 0
        assert capsys.readouterr().out == default

    def test_missing_dataset_is_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FGA_DATA_DIR", str(tmp_path))
        assert main(["stats", "--dataset", "bitcoin-otc"]) == 3


class TestAxiomsCommand:
    def test_small_suite(self, capsys):
        assert main(["axioms", "--samples", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert len(payload["axioms"]) == 11


class TestAttackCommand:
    def test_direct_attack_json(self, tmp_path, capsys):
        out = tmp_path / "attack.json"
        code = main([
            "--seed", "3", "attack", "--generate", "erdos:n=60,deg=4,pos=0.95",
            "--mode", "direct", "--k", "2", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "direct"
        assert len(payload["moves"]) == 2
        assert payload["delta_goodness"] <= 0.0

    def test_indirect_and_exhaustive_modes(self, capsys):
        assert main([
            "--seed", "5", "attack", "--generate", "erdos:n=40,deg=4,pos=0.95",
            "--mode", "indirect", "--k", "1",
        ]) == 0
        capsys.readouterr()
        assert main([
            "--seed", "5", "attack", "--generate", "erdos:n=12,deg=2,pos=0.95",
            "--mode", "exhaustive", "--k", "1",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "feasible" in payload

    def test_mixed_mode(self, capsys):
        assert main([
            "--seed", "4", "attack", "--generate", "erdos:n=60,deg=4,pos=0.95",
            "--mode", "mixed", "--k1", "1", "--k2", "1",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_total"] == pytest.approx(
            payload["delta_direct"] + payload["delta_indirect"], abs=1e-12
        )

    def test_indirect_scaled_mode(self, capsys):
        argv = [
            "--seed", "5", "attack", "--generate", "erdos:n=40,deg=4,pos=0.95",
            "--mode", "indirect-scaled", "--k", "2", "--scale", "3", "--max-edges", "4",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert payload["mode"] == "indirect-scaled"
        assert len(payload["attackers"]) == 2
        assert 0 < len(payload["moves"]) <= 2 * 4
        assert {m["kind"] for m in payload["moves"]} <= {"edge-addition", "weight-update"}
        assert payload["goodness_after"] - payload["goodness_before"] == pytest.approx(
            payload["delta_goodness"], abs=1e-12
        )
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("seed", [21, 23])
    def test_exhaustive_is_no_worse_than_greedy_with_the_same_attackers(self, seed, capsys):
        # at seed 21 the best pair of moves has one attacker rate the other
        argv = ["--seed", str(seed), "attack", "--generate", "erdos:n=12,deg=3", "--k", "2"]
        assert main([*argv, "--mode", "indirect"]) == 0
        greedy = json.loads(capsys.readouterr().out)
        assert main([*argv, "--mode", "exhaustive"]) == 0
        exhaustive = json.loads(capsys.readouterr().out)
        assert exhaustive["attackers"] == greedy["attackers"]
        assert exhaustive["objective_value"] <= greedy["goodness_after"] + 1e-9

    def test_insufficient_attackers_is_exit_3(self):
        assert main([
            "attack", "--generate", "complete:n=3", "--mode", "direct", "--k", "5",
        ]) == 3

    #: Per mode: its flags, and the sha256 of its JSON on ``ATTACKABLE`` with seed 3.
    PINNED = {
        "direct": (
            ["--k", "3"], "cd7e1d90204ceff7f81142947adfdf2533ae1d097c0795f525adec1c49f57fdf",
        ),
        "indirect": (
            ["--k", "3"], "2b34ff06407d8ce8b342ddc0e93c3409b37e66c813366ec94337c9bdbd5efb71",
        ),
        "indirect-scaled": (
            ["--k", "3", "--scale", "2", "--max-edges", "4"],
            "0b5142b43d561b543e050f2ae2a344dc8e2808d72a00088dcedacbb0ece1ad6d",
        ),
        "mixed": (
            ["--k1", "2", "--k2", "2"],
            "cad6fd14fa981e3da850928be42020730c805e1dea7eb5d08f17cf9adb85049c",
        ),
        "exhaustive": (
            ["--k", "1", "--threshold", "0.5"],
            "5b0096c8a5770232e39b3b3b1575425cf6422ffd198d345131024a45f2a245d3",
        ),
    }

    @pytest.mark.parametrize("mode", [*campaign.MODES, "exhaustive"])
    def test_attack_json_is_pinned(self, mode, capsys):
        flags, digest = self.PINNED[mode]
        argv = ["--seed", "3", "attack", "--generate", ATTACKABLE, "--mode", mode, *flags]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("ran_out", [False, True], ids=["full-budget", "exhausted"])
    def test_mixed_json_prints_the_outcomes_exhausted_flag(self, tmp_path, capsys, ran_out):
        if ran_out:  # t's one rater rates nothing else, so the indirect attacker has no move
            path = tmp_path / "ratings.csv"
            path.write_text("r,t,10\nx,a,10\nx,b,10\n", encoding="utf-8")
            source = ["--input", str(path), "--target", "t", "--attacker-class", "fresh"]
            graph = load_rating_csv(path, RatingScale(10.0))
        else:
            source = ["--generate", ATTACKABLE]
            graph = generate_random_graph(70, avg_out_degree=5.0, seed=3, positive_fraction=0.95)
        argv = ["--seed", "3", "attack", *source, "--mode", "mixed", "--k1", "1", "--k2", "1"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        outcome = campaign.run_attack(
            "mixed", graph, [graph.id_of(a) for a in payload["attackers"]],
            graph.id_of(payload["target"]), k1=1,
        )
        assert payload["exhausted"] is outcome.exhausted is ran_out

    def test_default_flag_values_change_nothing(self, capsys):
        argv = ["--seed", "3", "attack", "--generate", ATTACKABLE, "--mode", "indirect-scaled"]
        assert main(argv) == 0
        omitted = capsys.readouterr().out
        assert main(argv + ["--k", "1", "--scale", "5", "--max-edges", "10"]) == 0
        assert capsys.readouterr().out == omitted

    @pytest.mark.parametrize(
        "mode, flags, named",
        [
            ("direct", ["--scale", "3", "--max-edges", "99", "--k1", "4", "--threshold", "0.5"],
             "--k1 or --scale or --max-edges or --threshold"),
            ("indirect", ["--k2", "1"], "--k2"),
            ("indirect-scaled", ["--threshold", "0"], "--threshold"),
            ("mixed", ["--k1", "1", "--k", "1"], "--k"),
            ("exhaustive", ["--scale", "5"], "--scale"),
        ],
    )
    def test_flag_outside_the_mode_is_exit_2(self, capsys, mode, flags, named):
        assert main(["attack", "--generate", ATTACKABLE, "--mode", mode, *flags]) == 2
        assert capsys.readouterr().err == f"error: --mode {mode} takes no {named}\n"


class TestBoundsCommand:
    def test_stabiliser_csv(self, capsys):
        assert main(["bounds", "--scenario", "stabiliser"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("bound_value,observed_delta,satisfied,context")

    def test_direct_sybil(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main([
            "bounds", "--scenario", "direct-sybil", "--generate", "erdos:n=30,deg=3",
            "--trials", "10", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 11

    def test_indirect_sybil_default_graph(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main([
            "bounds", "--scenario", "indirect-sybil", "--k", "3",
            "--trials", "8", "--out", str(out),
        ])
        assert code == 0
        assert all(",True," in line for line in out.read_text().strip().split("\n")[1:])

    def test_stabiliser_rejects_a_graph(self, capsys):
        # the stabiliser builds its own stars; a given graph is an error, not ignored
        assert main(["bounds", "--scenario", "stabiliser", "--generate", "erdos:n=60"]) == 2
        assert "takes no graph" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, item",
        [("erdos:n=1e400", "n=1e400"), ("min-k:n=inf,k=3", "n=inf"), ("star:k=inf", "k=inf")],
    )
    def test_non_finite_generator_parameter_is_exit_2(self, capsys, spec, item):
        assert main(["bounds", "--scenario", "direct-sybil", "--generate", spec]) == 2
        assert f"bad generator parameter {item!r}" in capsys.readouterr().err

    def test_unknown_generator_parameter_is_exit_2(self, capsys):
        # a typo must not fall back to the default 80-node graph
        assert main(["stats", "--generate", "erdos:nodes=500"]) == 2
        assert "unknown parameter 'nodes' for erdos" in capsys.readouterr().err

    def test_repeated_generator_parameter_is_exit_2(self, capsys):
        # the last value must not silently win
        assert main(["stats", "--generate", "erdos:n=3,n=4"]) == 2
        assert capsys.readouterr().err == "error: repeated parameter 'n' for erdos\n"

    def test_fractional_generator_size_is_exit_2(self, capsys):
        # a size is not truncated to 20 nodes
        assert main(["stats", "--generate", "erdos:n=20.7"]) == 2
        assert "generator parameter 'n' must be an integer" in capsys.readouterr().err

    def test_integral_generator_values_in_float_notation_are_sizes(self, capsys):
        assert main(["stats", "--generate", "complete:n=4.0"]) == 0
        assert json.loads(capsys.readouterr().out)["node_count"] == 4

    @pytest.mark.parametrize(
        "spelled_out",
        ["erdos:n=80,deg=4,pos=0.9", "min-k:n=30,k=3", "complete:n=5", "star:k=2,l=5,fairness=1"],
    )
    def test_an_empty_spec_builds_every_default(self, spelled_out):
        kind = spelled_out.partition(":")[0]
        assert kind in GENERATORS
        for seed in (0, 7):
            want = _parse_generate(spelled_out, seed)
            assert _parse_generate(kind, seed) == want
            assert _parse_generate(kind + ":", seed) == want

    @pytest.mark.parametrize(
        "extra, named",
        [(["--trials", "3"], "--trials"), (["--k", "1"], "--k"),
         (["--trials", "3", "--k", "1"], "--trials or --k")],
    )
    def test_stabiliser_rejects_trials_and_k(self, capsys, extra, named):
        # the stabiliser's star grid is fixed, so a trial count or k would be ignored
        assert main(["bounds", "--scenario", "stabiliser", *extra]) == 2
        assert f"takes no {named}" in capsys.readouterr().err

    def test_direct_sybil_rejects_k(self, capsys):
        # a direct-Sybil trial rates the target once, so a k would be ignored
        argv = ["bounds", "--scenario", "direct-sybil", "--generate", "erdos:n=30,deg=3"]
        assert main([*argv, "--k", "5"]) == 2
        assert "--scenario direct-sybil takes no --k" in capsys.readouterr().err
        assert main([*argv, "--k", "5", "--trials", "4"]) == 2
        assert main([*argv, "--trials", "4"]) == 0

    def test_sybil_defaults_are_100_trials_and_k_3(self, tmp_path):
        outputs = []
        for extra in ([], ["--trials", "100", "--k", "3"]):
            out = tmp_path / f"bounds{len(extra)}.csv"
            assert main(["bounds", "--scenario", "indirect-sybil", *extra, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].decode().strip().split("\n")) == 101


@pytest.mark.parametrize("command, selector", [("attack", "--mode"), ("bounds", "--scenario")])
def test_help_shows_each_table_default(capsys, command, selector):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for flags in MODE_FLAGS[selector].values():
        for dest, default in flags.items():
            if default is None:  # --r-max, whose default depends on the graph source
                continue
            # the option's help runs from its metavar to the next option
            flag = "--" + dest.replace("_", "-")
            option = text.split(f" {flag} {dest.upper()} ")[1].split(" --")[0]
            assert option.endswith(f"(default {default:g})"), (flag, option)


class TestCampaignCommand:
    def run_campaign_cli(self, out_dir, jobs="1", fmt="csv", seed="9"):
        return main([
            "--seed", seed, "campaign", "--generate", "erdos:n=70,deg=5,pos=0.95",
            "--mode", "direct", "--k-values", "1,2", "--samples", "3",
            "--jobs", jobs, "--out-dir", str(out_dir), "--format", fmt,
        ])

    def test_writes_files(self, tmp_path):
        assert self.run_campaign_cli(tmp_path / "a") == 0
        assert (tmp_path / "a" / "records.csv").exists()
        assert (tmp_path / "a" / "summary.csv").exists()
        assert (tmp_path / "a" / "config.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        assert self.run_campaign_cli(tmp_path / "a") == 0
        assert self.run_campaign_cli(tmp_path / "b") == 0
        for name in ("records.csv", "summary.csv", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        assert self.run_campaign_cli(tmp_path / "serial", jobs="1") == 0
        assert self.run_campaign_cli(tmp_path / "parallel", jobs="3") == 0
        for name in ("records.csv", "summary.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()

    def test_json_format(self, tmp_path):
        assert self.run_campaign_cli(tmp_path / "j", fmt="json") == 0
        payload = json.loads((tmp_path / "j" / "campaign.json").read_text())
        assert payload["config"]["seed"] == 9
        assert payload["records"]

    def test_bad_flag_is_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["campaign", "--mode", "bogus", "--out-dir", str(tmp_path)])
        assert err.value.code == 2

    def test_out_dir_and_format_follow_campaign(self, tmp_path):
        argv = ["--seed", "9", "campaign", "--generate", "erdos:n=70,deg=5,pos=0.95",
                "--mode", "direct", "--k-values", "1", "--samples", "2"]
        assert main([*argv, "--out-dir", str(tmp_path / "g"), "--format", "json"]) == 0
        assert (tmp_path / "g" / "campaign.json").exists()
        assert main([*argv, "--out-dir", str(tmp_path / "c")]) == 0  # csv by default
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) == [
            "config.json", "records.csv", "summary.csv"]

    @pytest.mark.parametrize("argv", [
        ["--format", "json", "stats", "--generate", "complete:n=4"],
        ["--out-dir", "D", "campaign", "--generate", "erdos:n=20", "--mode", "direct"],
    ], ids=["format", "out-dir"])
    def test_global_out_dir_and_format_are_gone(self, tmp_path, monkeypatch, argv):
        # only fga campaign writes a directory or takes a format, and it has both flags
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert not (tmp_path / "D").exists()

    def test_dataset_samples_override_is_validated(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        rows = [f"{u},{v},{r}" for u, v, r in ((1, 2, 5), (2, 3, 4), (3, 1, -2), (4, 1, 7))]
        (data / "soc-sign-bitcoinotc.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        for samples in ("-1", "0"):  # a campaign of no samples shows nothing
            code = main([
                "--data-dir", str(data), "campaign", "--dataset", "bitcoin-otc",
                "--mode", "direct", "--samples", samples, "--out-dir", str(tmp_path / "out"),
            ])
            assert code == 2, samples
            assert not (tmp_path / "out").exists()

    def test_out_dir_that_is_a_file_is_exit_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main([
            "campaign", "--generate", "erdos:n=20", "--mode", "direct", "--samples", "1",
            "--out-dir", str(taken),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_dir_is_checked_before_the_campaign_runs(self, tmp_path, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the campaign ran before its output directory was checked")

        monkeypatch.setattr(campaign, "run_campaign", refuse)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main([
            "campaign", "--generate", "erdos:n=20", "--mode", "direct", "--samples", "1",
            "--out-dir", str(taken),
        ]) == 2

    @pytest.mark.parametrize("source, code", [
        (["--generate", "erdos:n=20,bogus=1"], 2),
        (["--dataset", "bitcoin-otc"], 3),
        (["--generate", "erdos:n=20", "--r-max", "5"], 2),
        (["--generate", "erdos:n=70,deg=5,pos=0.95", "--k-values=-1"], 2),
        (["--generate", "erdos:n=70,deg=5,pos=0.95", "--k-values=2,2"], 2),
    ], ids=["bad-generator-parameter", "missing-dataset", "r-max-without-input", "negative-k",
            "repeated-k"])
    def test_a_source_that_fails_leaves_no_out_dir(self, tmp_path, source, code):
        out = tmp_path / "out"
        assert main([
            "--data-dir", str(tmp_path / "no-data"), "campaign", *source, "--mode", "direct",
            "--out-dir", str(out),
        ]) == code
        assert not out.exists()

    def test_negative_seed_names_the_seed_and_leaves_no_out_dir(self, tmp_path, capsys):
        # an --input graph loads whatever the seed, so only the config can reject it
        csv_path = tmp_path / "g.csv"
        csv_path.write_text("a,b,5\nb,c,-3\nc,a,10\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([
            "--seed", "-1", "campaign", "--input", str(csv_path), "--mode", "direct",
            "--k-values", "1", "--out-dir", str(out),
        ]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("k_values", ["1,,2", ""])
    def test_malformed_k_values_names_the_flag(self, tmp_path, capsys, k_values):
        # an empty value is not the default grid
        assert main([
            "campaign", "--generate", "erdos:n=20", "--mode", "direct", "--k-values", k_values,
            "--out-dir", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --k-values must be integers, got {k_values!r}\n"

    def test_missing_out_dir_is_exit_2(self):
        assert main([
            "campaign", "--generate", "erdos:n=20", "--mode", "direct",
        ]) == 2


class TestCampaignLibrary:
    def test_type_hints_resolve(self):
        assert typing.get_type_hints(campaign._run_sample)["base_scores"] is FgaScores

    def test_dataset_defaults_match_parameter_table(self):
        config = ExperimentConfig.for_dataset("bitcoin-otc")
        assert config.criteria.target_max_indeg == 10
        assert config.criteria.target_min_goodness == 0.8
        assert config.samples == DATASET_DEFAULTS["bitcoin-otc"].samples == 21
        alpha = ExperimentConfig.for_dataset("bitcoin-alpha", mode="mixed")
        assert alpha.criteria.target_max_indeg == 13
        assert alpha.criteria.target_min_goodness == 0.5
        assert alpha.samples == DATASET_DEFAULTS["bitcoin-alpha"].mixed_samples == 12
        assert DATASET_DEFAULTS["rfa"].scaled_samples == 27
        assert DATASET_DEFAULTS["rfa"].scaled_edges == 20
        scaled = ExperimentConfig.for_dataset("bitcoin-otc", mode="indirect-scaled")
        assert scaled.k_values == (20,)
        assert scaled.samples == 20

    def test_mixed_default_grid_is_36_cells(self):
        from fga.campaign import _cells

        config = ExperimentConfig(mode="mixed")
        assert len(_cells(config)) == 36

    def test_mixed_campaign_grid(self):
        g = generate_random_graph(70, avg_out_degree=5.0, seed=30, positive_fraction=0.95)
        config = ExperimentConfig(
            mode="mixed", samples=2, seed=1, k1_values=(1, 2), k2_values=(1, 2)
        )
        result = run_campaign(g, config)
        cells = {r["cell"] for r in result.records}
        assert cells == {"k1=1,k2=1", "k1=1,k2=2", "k1=2,k2=1", "k1=2,k2=2"}
        for record in result.records:
            assert record["delta"] == pytest.approx(
                record["delta_direct"] + record["delta_indirect"], abs=1e-12
            )
        metrics = {row["metric"] for row in result.summaries}
        assert metrics == {"abs_delta", "abs_delta_direct", "abs_delta_indirect"}

    def test_summaries_recomputable_from_records(self):
        import numpy as np

        g = generate_random_graph(70, avg_out_degree=5.0, seed=30, positive_fraction=0.95)
        config = ExperimentConfig(mode="direct", samples=4, seed=2, k_values=(1, 3))
        result = run_campaign(g, config)
        assert result.summaries == summarize(result.records)
        row = next(r for r in result.summaries if r["cell"] == "k=3")
        values = np.array(
            sorted(abs(r["delta"]) for r in result.records if r["cell"] == "k=3")
        )
        assert row["n"] == len(values)
        assert row["min"] == pytest.approx(values[0])
        assert row["max"] == pytest.approx(values[-1])
        assert row["mean"] == pytest.approx(float(values.mean()))
        assert row["median"] == pytest.approx(float(np.median(values)))
        assert row["q75"] == pytest.approx(float(np.quantile(values, 0.75)))
        sd = float(values.std(ddof=1))
        assert row["sd"] == pytest.approx(sd)
        assert row["ci95_half_width"] == pytest.approx(1.96 * sd / np.sqrt(len(values)))

    def test_ci_undefined_for_single_sample(self):
        g = generate_random_graph(70, avg_out_degree=5.0, seed=30, positive_fraction=0.95)
        config = ExperimentConfig(mode="direct", samples=1, seed=3, k_values=(1,))
        result = run_campaign(g, config)
        row = result.summaries[0]
        assert row["n"] == 1
        assert row["ci95_half_width"] is None
        assert row["sd"] is None

    @pytest.mark.parametrize("grid, match", [
        ({"k_values": (1, -1)}, "k_values must be >= 0, got -1"),
        ({"mode": "mixed", "k1_values": (-1,), "k2_values": (2,)}, "k1_values must be >= 0, got -1"),
        ({"k_values": ()}, "non-empty grid of counts >= 0"),
        ({"mode": "mixed", "k1_values": (), "k2_values": (2,)}, "non-empty grid of counts >= 0"),
        # recorded in config.json, so checked though direct runs no k1
        ({"k1_values": (-1,)}, "k1_values must be >= 0, got -1"),
        ({"k_values": (2, 2), "samples": 2}, "direct campaign's grid repeats a cell"),
        ({"mode": "mixed", "k1_values": (1, 1), "k2_values": (2,)}, "grid repeats a cell"),
        ({"attacker_class": "bogus"}, "unknown attacker class 'bogus'"),
        ({"mode": "indirect-scaled", "scale": 0}, "scale must be >= 1, got 0"),
        ({"max_edges": -1}, "max_edges must be >= 1, got -1"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["negative-k", "negative-k1", "no-k", "no-k1", "negative-unused-k1", "repeated-k",
            "repeated-mixed-cell", "unknown-class", "zero-scale", "negative-max-edges",
            "negative-seed"])
    def test_config_rejects_a_negative_count_or_an_empty_grid(self, grid, match):
        # caught when the config is made, not mid-run or as a run of no samples
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**grid)

    def test_zero_attackers_cell_gives_zero_delta(self):
        g = generate_random_graph(70, avg_out_degree=5.0, seed=30, positive_fraction=0.95)
        config = ExperimentConfig(mode="direct", samples=3, seed=6, k_values=(0,))
        result = run_campaign(g, config)
        assert len(result.records) == 3
        assert all(r["delta"] == 0.0 for r in result.records)

    def test_empty_campaign_report_files_valid(self, tmp_path):
        g = generate_random_graph(12, avg_out_degree=2.0, seed=5, positive_fraction=0.95)
        config = ExperimentConfig(mode="direct", samples=2, seed=4, k_values=(50,))
        result = run_campaign(g, config)
        assert result.records == []
        written = report(result, tmp_path, fmt="csv")
        assert all(path.exists() for path in written)
        written_json = report(result, tmp_path / "j", fmt="json")
        payload = json.loads(written_json[0].read_text())
        assert payload["records"] == []
        assert payload["errors"]

    def test_insufficient_cells_reported_not_raised(self):
        g = generate_random_graph(12, avg_out_degree=2.0, seed=5, positive_fraction=0.95)
        config = ExperimentConfig(mode="direct", samples=2, seed=4, k_values=(50,))
        result = run_campaign(g, config)
        assert result.records == []
        assert result.errors
        assert all("k=50" == e["cell"] for e in result.errors)

    MODE_COLUMNS = {
        "direct": ["cell", "sample", "target", "attackers", "delta", "abs_delta"],
        "indirect": ["cell", "sample", "target", "attackers", "delta", "moves", "abs_delta"],
        "indirect-scaled": ["cell", "sample", "target", "attackers", "delta", "moves", "abs_delta"],
        "mixed": [
            "cell", "sample", "target", "attackers",
            "delta", "delta_direct", "delta_indirect", "abs_delta",
        ],
    }

    @pytest.mark.parametrize("mode", campaign.MODES)
    def test_every_mode_reruns_byte_identical(self, mode, tmp_path):
        assert set(self.MODE_COLUMNS) == set(campaign.MODES)
        g = generate_random_graph(50, avg_out_degree=4.0, seed=32, positive_fraction=0.95)
        flat = g.flat()  # labels holding commas and quotes must come back as one field each
        labels = [f'n,"{node}"' for node in g.nodes()]
        g = Wsn.from_arrays(g.node_count, flat.src, flat.dst, flat.w, labels=labels)
        config = ExperimentConfig(
            mode=mode, samples=2, seed=7, k_values=(1, 2), k1_values=(1,), k2_values=(1, 2),
            scale=2, max_edges=3,
        )
        outputs = []
        for run in ("a", "b"):
            result = run_campaign(g, config)
            assert result.records and not result.errors
            report(result, tmp_path / run, fmt="csv")
            outputs.append([
                (tmp_path / run / name).read_bytes() for name in ("records.csv", "summary.csv")
            ])
        assert outputs[0] == outputs[1]
        header, *rows = csv.reader(outputs[0][0].decode().splitlines())
        assert header == self.MODE_COLUMNS[mode]
        assert all(len(row) == len(header) and row[2] in labels for row in rows)

    def test_run_attack_rejects_an_unknown_mode(self):
        g = generate_random_graph(20, seed=2)
        with pytest.raises(ValueError, match="mode must be one of"):
            campaign.run_attack("exhaustive", g, [1], 0)

    def test_cold_flag_matches_warm(self):
        g = generate_random_graph(50, avg_out_degree=4.0, seed=31, positive_fraction=0.95)
        warm = run_campaign(g, ExperimentConfig(mode="direct", samples=2, seed=5, k_values=(2,)))
        cold = run_campaign(
            g, ExperimentConfig(mode="direct", samples=2, seed=5, k_values=(2,), cold=True)
        )
        for a, b in zip(warm.records, cold.records):
            assert a["delta"] == pytest.approx(b["delta"], abs=1e-9)


#: Values that make a generator spec malformed, and so a run that reads it exit 2.
MALFORMED_VALUES = ("1e400", "inf", "nan", "-3", "x")
MALFORMED_SPECS = st.builds(
    "{0[0]}:{0[1]}={1}".format,
    st.sampled_from(
        [("erdos", "n"), ("erdos", "deg"), ("min-k", "n"), ("min-k", "k"), ("complete", "n"),
         ("star", "k"), ("star", "l")]
    ),
    st.sampled_from(MALFORMED_VALUES),
)


def _bounds_sources(tmp_dir):
    """``fga bounds`` graph options: none, small valid specs, malformed specs, bad paths."""
    valid = st.sampled_from(["erdos:n=20,deg=3", "min-k:n=12,k=3", "complete:n=5", "star:k=2,l=3"])
    return st.one_of(
        st.just([]),
        valid.map(lambda spec: ["--generate", spec]),
        MALFORMED_SPECS.map(lambda spec: ["--generate", spec]),
        st.just(["--input", str(tmp_dir / "missing.csv")]),
        st.just(["--input", str(tmp_dir)]),
    )


@pytest.fixture(scope="module")
def bounds_tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bounds")


@pytest.mark.ci_profile
@settings(deadline=None)
@given(
    data=st.data(),
    scenario=st.sampled_from(["direct-sybil", "indirect-sybil", "stabiliser"]),
    k=st.none() | st.integers(-1, 4),
    trials=st.none() | st.integers(-1, 5),
)
def test_bounds_exit_codes(bounds_tmp_dir, data, scenario, k, trials):
    """Every ``fga bounds`` run ends in 0, 2, 3 or 4; argparse may only exit 2."""
    source = data.draw(_bounds_sources(bounds_tmp_dir))
    argv = ["bounds", "--scenario", scenario, *source]
    argv += [] if k is None else ["--k", str(k)]
    argv += [] if trials is None else ["--trials", str(trials)]
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert code in (0, 2, 3, 4), argv
        # a Sybil scenario rejects a trial count below 1, and the stabiliser any count
        if trials is not None and trials < 1:
            assert code == 2, argv
        # the stabiliser builds its own stars and rejects any graph source; direct-sybil
        # needs one (indirect-sybil builds its own minimum-k-neighbour graph)
        if scenario == "stabiliser" and source or scenario == "direct-sybil" and not source:
            assert code == 2, argv


@settings(deadline=None)
@given(samples=st.integers(-2, 3), seed=st.integers(0, 1000))
def test_axioms_exit_codes(samples, seed):
    """``fga axioms`` checks at least one sample or exits 2; it never passes on none."""
    code = main(["--seed", str(seed), "axioms", "--samples", str(samples)])
    assert code == (2 if samples < 1 else 0), (samples, seed)


#: A graph on which attacks and campaigns find targets and attackers; on the graphs of
#: ``_bounds_sources`` every attack and campaign is exit 3.
ATTACKABLE = "erdos:n=70,deg=5,pos=0.95"


@pytest.mark.ci_profile
@settings(deadline=None)
@given(
    data=st.data(),
    mode=st.sampled_from(["direct", "indirect", "indirect-scaled", "mixed", "exhaustive"]),
    counts=st.tuples(*[st.none() | st.integers(-1, 3)] * 3),
    scale=st.none() | st.integers(-1, 6),
    max_edges=st.none() | st.integers(-1, 12),
    threshold=st.none() | st.floats(-2.0, 2.0) | st.sampled_from([math.nan, math.inf]),
    target=st.none() | st.sampled_from(["0", "1", "4", "19", "nobody"]),
)
def test_attack_exit_codes(
    bounds_tmp_dir, data, mode, counts, scale, max_edges, threshold, target
):
    """Every ``fga attack`` run ends in 0, 2, 3 or 4, argparse's only in 2, and one with no
    attackers or with a flag that its mode does not read in 2."""
    source = data.draw(_bounds_sources(bounds_tmp_dir) | st.just(["--generate", ATTACKABLE]))
    argv = ["attack", "--mode", mode, *source]
    k, k1, k2 = (default if value is None else value for value, default in zip(counts, (1, 0, 0)))
    attackers = k1 + k2 if mode == "mixed" else k
    for flag, value in zip(("--k", "--k1", "--k2"), counts):
        # an exhaustive budget of 3 on a 20-node graph enumerates about 200k move sets,
        # and one of 2 on the 70-node graph takes seconds
        if flag == "--k" and mode == "exhaustive" and value is not None:
            value = min(value, 1 if ATTACKABLE in source else 2)
        argv += [] if value is None else [flag, str(value)]
    for flag, value in (("--scale", scale), ("--max-edges", max_edges),
                        ("--threshold", threshold), ("--target", target)):
        argv += [] if value is None else [flag, str(value)]
    flags = ("--k", "--k1", "--k2", "--scale", "--max-edges", "--threshold")
    given = {flag for flag, value in zip(flags, (*counts, scale, max_edges, threshold))
             if value is not None}
    takes = {"direct": {"--k"}, "indirect": {"--k"}, "mixed": {"--k1", "--k2"},
             "indirect-scaled": {"--k", "--scale", "--max-edges"},
             "exhaustive": {"--k", "--threshold"}}[mode]
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert code in (0, 2, 3, 4), argv
        if attackers < 1 or given - takes:
            assert code == 2, argv


#: Rating CSVs the command properties load: a header only, which is an empty
#: graph, then malformed files, each of which is exit 2.
COMMAND_CSVS = {
    "header-only.csv": "source,target,rating\n",
    "cut-mid-field.csv": 'alice,bob,5\ncarol,"da',
    "two-columns.csv": "alice,bob,5\ncarol,dave\n",
    "rating-not-a-number.csv": "alice,bob,5\ncarol,dave,good\n",
    "one-row-not-a-number.csv": "alice,bob,x\n",
}
MALFORMED_CSVS = tuple(name for name in COMMAND_CSVS if name != "header-only.csv")


@pytest.fixture(scope="module")
def command_tmp_dir(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("commands")
    for name, text in COMMAND_CSVS.items():
        (tmp_dir / name).write_text(text, encoding="utf-8")
    return tmp_dir


def _command_sources(tmp_dir):
    """``_bounds_sources``, each of ``COMMAND_CSVS``, and ``ATTACKABLE``, sometimes followed by
    ``--r-max 5``, which only ``--input`` takes."""
    csvs = st.sampled_from(sorted(COMMAND_CSVS)).map(lambda name: ["--input", str(tmp_dir / name)])
    sources = _bounds_sources(tmp_dir) | csvs | st.just(["--generate", ATTACKABLE])
    r_max = st.sampled_from([[], ["--r-max", "5"]])
    return st.tuples(sources, r_max).map(lambda pair: pair[0] + pair[1])


def _run_command(argv):
    """``main(argv)``'s exit code, checked to be 0, 2, 3 or 4, and 2 on a malformed CSV or
    generator spec or on ``--r-max`` without ``--input``."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse may only exit 2
        code = exc.code
        assert code == 2, argv
    assert code in (0, 2, 3, 4), argv
    for flag, arg in zip(argv, argv[1:]):
        if (flag == "--input" and arg.endswith(MALFORMED_CSVS)
                or flag == "--generate" and arg.rpartition("=")[2] in MALFORMED_VALUES):
            assert code == 2, argv
    if "--r-max" in argv and "--input" not in argv:
        assert code == 2, argv
    return code


def _out_flag(tmp_dir):
    """No ``--out``, a writable file, or a directory, which cannot be written (exit 2)."""
    return st.sampled_from([[], ["--out", str(tmp_dir / "out.txt")], ["--out", str(tmp_dir)]])


@settings(deadline=None)
@given(command=st.sampled_from(["compute", "stats"]), spec=MALFORMED_SPECS)
@example(command="stats", spec="erdos:deg=-3")
def test_malformed_spec_exit_codes(command, spec):
    """A malformed generator spec is exit 2 (``_run_command`` checks it)."""
    _run_command([command, "--generate", spec])


@pytest.mark.ci_profile
@settings(deadline=None)
@given(
    data=st.data(),
    max_iterations=st.none() | st.integers(-1, 3),
    tolerance=st.none() | st.sampled_from([1e-8, 0.0, -1.0, math.inf, math.nan]),
)
def test_compute_exit_codes(command_tmp_dir, data, max_iterations, tolerance):
    argv = ["compute", *data.draw(_command_sources(command_tmp_dir))]
    argv += data.draw(_out_flag(command_tmp_dir))
    argv += [] if max_iterations is None else ["--max-iterations", str(max_iterations)]
    argv += [] if tolerance is None else ["--tolerance", str(tolerance)]
    code = _run_command(argv)
    if max_iterations is not None and max_iterations < 1:
        assert code == 2, argv
    if tolerance is not None and not 0 < tolerance < math.inf:
        assert code == 2, argv


@pytest.mark.ci_profile
@settings(deadline=None)
@given(data=st.data(), ends=st.tuples(*[st.sampled_from(["0", "19", "alice", "bob", "nobody"])] * 2))
def test_predict_exit_codes(command_tmp_dir, data, ends):
    argv = ["predict", *data.draw(_command_sources(command_tmp_dir))]
    argv += data.draw(_out_flag(command_tmp_dir))
    _run_command(argv + ["--source", ends[0], "--target", ends[1]])


@pytest.mark.ci_profile
@settings(deadline=None)
@given(data=st.data())
def test_stats_exit_codes(command_tmp_dir, data):
    argv = ["stats", *data.draw(_command_sources(command_tmp_dir))]
    _run_command(argv + data.draw(_out_flag(command_tmp_dir)))


@pytest.mark.ci_profile
@settings(deadline=None)
@given(
    data=st.data(),
    mode=st.sampled_from(campaign.MODES),
    samples=st.integers(-1, 2),
    cold=st.booleans(),
)
def test_campaign_exit_codes(command_tmp_dir, data, mode, samples, cold):
    """As the other commands, and a campaign of no samples is exit 2."""
    argv = ["campaign", "--mode", mode, *data.draw(_command_sources(command_tmp_dir))]
    argv += ["--samples", str(samples), "--k-values", "1", "--out-dir", str(command_tmp_dir / "c")]
    code = _run_command(argv + (["--cold"] if cold else []))
    if samples < 1:
        assert code == 2, argv
