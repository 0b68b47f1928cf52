import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fga import campaign
from fga.campaign import (
    DATASET_SAMPLES,
    DATASET_TARGET_PARAMS,
    MIXED_SAMPLES,
    ExperimentConfig,
    report,
    run_campaign,
    summarize,
)
from fga.cli import main
from fga.engine import FgaScores
from fga.generators import generate_random_graph


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

    def test_non_convergence_is_reported_not_fatal(self, ratings_csv, capsys):
        code = main([
            "compute", "--input", str(ratings_csv), "--max-iterations", "1",
            "--tolerance", "1e-12",
        ])
        assert code == 0
        assert "iterations=1" in capsys.readouterr().err


class TestPredictCommand:
    def test_prediction_payload(self, ratings_csv, capsys):
        code = main([
            "predict", "--input", str(ratings_csv), "--source", "4", "--target", "3"
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # node 4 rates no one (fairness 1) and 3 is unrated (goodness 1)
        assert payload["predicted_weight"] == pytest.approx(1.0, abs=1e-9)

    def test_unknown_label(self, ratings_csv):
        assert main([
            "predict", "--input", str(ratings_csv), "--source", "zz", "--target", "1"
        ]) == 2


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

    def test_insufficient_attackers_is_exit_3(self):
        assert main([
            "attack", "--generate", "complete:n=3", "--mode", "direct", "--k", "5",
        ]) == 3


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

    def test_fractional_generator_size_is_exit_2(self, capsys):
        # a size is not truncated to 20 nodes
        assert main(["stats", "--generate", "erdos:n=20.7"]) == 2
        assert "generator parameter 'n' must be an integer" in capsys.readouterr().err

    def test_integral_generator_values_in_float_notation_are_sizes(self, capsys):
        assert main(["--format", "json", "stats", "--generate", "complete:n=4.0"]) == 0
        assert json.loads(capsys.readouterr().out)["node_count"] == 4

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

    def test_global_out_dir_and_format(self, tmp_path):
        code = main([
            "--seed", "9", "--out-dir", str(tmp_path / "g"), "--format", "json",
            "campaign", "--generate", "erdos:n=70,deg=5,pos=0.95",
            "--mode", "direct", "--k-values", "1", "--samples", "2",
        ])
        assert code == 0
        assert (tmp_path / "g" / "campaign.json").exists()

    def test_dataset_samples_override_is_validated(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        rows = [f"{u},{v},{r}" for u, v, r in ((1, 2, 5), (2, 3, 4), (3, 1, -2), (4, 1, 7))]
        (data / "soc-sign-bitcoinotc.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main([
            "--data-dir", str(data), "campaign", "--dataset", "bitcoin-otc",
            "--mode", "direct", "--samples", "-1", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
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
        assert config.samples == DATASET_SAMPLES["bitcoin-otc"] == 21
        alpha = ExperimentConfig.for_dataset("bitcoin-alpha", mode="mixed")
        assert alpha.criteria.target_max_indeg == 13
        assert alpha.criteria.target_min_goodness == 0.5
        assert alpha.samples == MIXED_SAMPLES["bitcoin-alpha"] == 12
        assert DATASET_TARGET_PARAMS["rfa"].samples == 27
        assert DATASET_TARGET_PARAMS["rfa"].edges == 20
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
        header = outputs[0][0].decode().splitlines()[0]
        assert header.split(",") == self.MODE_COLUMNS[mode]

    def test_cold_flag_matches_warm(self):
        g = generate_random_graph(50, avg_out_degree=4.0, seed=31, positive_fraction=0.95)
        warm = run_campaign(g, ExperimentConfig(mode="direct", samples=2, seed=5, k_values=(2,)))
        cold = run_campaign(
            g, ExperimentConfig(mode="direct", samples=2, seed=5, k_values=(2,), cold=True)
        )
        for a, b in zip(warm.records, cold.records):
            assert a["delta"] == pytest.approx(b["delta"], abs=1e-9)


def _bounds_sources(tmp_dir):
    """``fga bounds`` graph options: none, small valid specs, malformed specs, bad paths."""
    valid = st.sampled_from(["erdos:n=20,deg=3", "min-k:n=12,k=3", "complete:n=5", "star:k=2,l=3"])
    malformed = st.builds(
        "{0[0]}:{0[1]}={1}".format,
        st.sampled_from(
            [("erdos", "n"), ("erdos", "deg"), ("min-k", "n"), ("min-k", "k"), ("complete", "n"),
             ("star", "k"), ("star", "l")]
        ),
        st.sampled_from(["1e400", "inf", "nan", "-3", "x"]),
    )
    return st.one_of(
        st.just([]),
        valid.map(lambda spec: ["--generate", spec]),
        malformed.map(lambda spec: ["--generate", spec]),
        st.just(["--input", str(tmp_dir / "missing.csv")]),
        st.just(["--input", str(tmp_dir)]),
    )


@pytest.fixture(scope="module")
def bounds_tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bounds")


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    scenario=st.sampled_from(["direct-sybil", "indirect-sybil", "stabiliser"]),
    k=st.none() | st.integers(-1, 4),
    trials=st.none() | st.integers(-1, 5),
)
def test_bounds_exit_codes(bounds_tmp_dir, data, scenario, k, trials):
    """Every ``fga bounds`` run ends in 0, 2, 3 or 4; argparse may only exit 2."""
    argv = ["bounds", "--scenario", scenario, *data.draw(_bounds_sources(bounds_tmp_dir))]
    argv += [] if k is None else ["--k", str(k)]
    argv += [] if trials is None else ["--trials", str(trials)]
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert code in (0, 2, 3, 4), argv
