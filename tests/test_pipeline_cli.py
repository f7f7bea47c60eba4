import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import fairlink
from fairlink.cli import build_parser, main, parse_group_map, parse_target
from fairlink.errors import ConfigError, ZeroTargetMassError
from fairlink.fairness import top_k_proportions
from fairlink.graphs import GroupDistribution, GroupId, load_graph
from fairlink.pipeline import (
    GREEDY,
    NAIVE,
    RunConfig,
    evaluate_ranking,
    run_pipeline,
    run_single,
)
from fairlink.rerank import read_ranking
from fairlink.synth import biased_block_graph, write_graph_files

from conftest import G00, G01, G11
from reference import eval_report, load_seed_report


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small homophilic two-block graph written to disk."""
    root = tmp_path_factory.mktemp("data")
    graph = biased_block_graph(
        {0: 90, 1: 60},
        {G00: 0.10, G01: 0.02, G11: 0.09},
        seed=5,
    )
    edges, attrs = root / "edges.tsv", root / "attrs.tsv"
    write_graph_files(graph, edges, attrs)
    return {"edges": str(edges), "attrs": str(attrs), "graph": graph}


def write_embeddings(graph, path) -> str:
    with open(path, "w") as fh:
        fh.write(f"{graph.node_count} 2\n")
        for node in range(graph.node_count):
            fh.write(f"{node} {0.01 * node:.4f} {0.02 * (node % 7):.4f}\n")
    return str(path)


def small_config(dataset, out_dir, **overrides) -> RunConfig:
    base = dict(
        edges_path=dataset["edges"],
        attrs_path=dataset["attrs"],
        out_dir=str(out_dir),
        seed=3,
        repeats=2,
        k_list=(20, 60),
        output_size=120,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_round_trip(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path)
        again = RunConfig.from_dict(config.to_dict())
        assert again == config
        assert again.config_hash() == config.config_hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"edges_path": "e", "attrs_path": "a", "bogus": 1})

    def test_bad_target_sum(self, dataset, tmp_path):
        with pytest.raises(ConfigError):
            small_config(dataset, tmp_path, target={"0-0": 0.5, "0-1": 0.6})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"target": {"0-0": 0.5, "0-1": 0.3, "1-1": 0.2 + 5e-10}},
            {"target": {"x-y": 1.0}},
            {"target": "uniform"},
            {"ratios": (0.5, 0.5, 0.5)},
            {"scorer": "nope"},
            {"scorer": "embedding"},
            {"repeats": 1.5},
            {"seed": "3"},
            {"output_size": 0},
            {"output_size": 2.5},
            {"k_list": [100, "x"]},
            {"ratios": ["a", 0.1, 0.2]},
            {"negatives_per_positive": "1"},
            {"lam": "x"},
            {"lam": float("nan")},
            {"target": {"0-1": 0.5, "1-0": 0.5}},
            {"decoupled": "no"},
            {"decoupled": 1},
            {"smoothing": "false"},
            {"out_dir": 0},
            {"embeddings_path": ["e.tsv"]},
        ],
    )
    def test_rejected_before_any_file_is_read(self, tmp_path, overrides):
        missing = tmp_path / "missing.tsv"
        with pytest.raises(ConfigError):
            RunConfig(edges_path=str(missing), attrs_path=str(missing), **overrides)

    def test_k_list_sorted(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path, k_list=(60, 20))
        assert config.k_list == (20, 60)


class TestRunSingle:
    def test_deterministic_reports(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path)
        a = run_single(config, 3)
        b = run_single(config, 3)
        assert a.reports == b.reports
        assert a.rankings[GREEDY].entries == b.rankings[GREEDY].entries

    def test_each_candidate_grouped_once(self, dataset, tmp_path, monkeypatch):
        # The loaded graph groups its edges once; the split's slices, which
        # become the train graph and the test positives, keep those groups
        # (no subgraph_with_edges), and the sampler draws each negative in
        # its group, so edge_group is not called during run_single at all.
        graph = load_graph(dataset["edges"], dataset["attrs"])
        monkeypatch.delattr(fairlink.graphs.SensitiveGraph, "subgraph_with_edges")
        calls = []
        original = fairlink.graphs.edge_group
        def counted(*args):
            calls.append(args)
            return original(*args)
        for name, module in list(sys.modules.items()):
            if name.startswith("fairlink") and getattr(module, "edge_group", None) is original:
                monkeypatch.setattr(module, "edge_group", counted)
        built = []
        build = fairlink.pipeline.build_candidates
        def recorded(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(fairlink.pipeline, "build_candidates", recorded)
        run_single(small_config(dataset, tmp_path), seed=3, graph=graph)
        assert built[0].total() > 0
        assert calls == []

    @pytest.mark.parametrize("decoupled", [True, False])
    def test_graphs_read_for_groups_build_no_adjacency(self, dataset, tmp_path, monkeypatch, decoupled):
        # Only the train graph is scored; the loaded graph is read for its
        # group buckets alone.
        graph = load_graph(dataset["edges"], dataset["attrs"])
        trains = []
        build = fairlink.pipeline.build_candidates
        def recorded(config, graph, train_graph, *rest, **kwargs):
            trains.append(train_graph)
            return build(config, graph, train_graph, *rest, **kwargs)
        monkeypatch.setattr(fairlink.pipeline, "build_candidates", recorded)
        run_single(small_config(dataset, tmp_path, decoupled=decoupled), seed=3, graph=graph)
        [train] = trains
        assert graph._group_adjacency is None and graph._adjacency is None
        assert train._group_adjacency is not None
        assert (train._adjacency is None) == decoupled

    def test_seconds_time_each_stage_in_chain_order(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path)
        stages = ["split", "subgraphs", "negatives", "scoring", "merges", "evaluation"]
        loaded = run_single(config, 3)
        given = run_single(config, 3, load_graph(dataset["edges"], dataset["attrs"]))
        assert list(loaded.seconds) == ["load", *stages]
        assert list(given.seconds) == stages
        assert all(value >= 0 for value in [*loaded.seconds.values(), *given.seconds.values()])

    def test_timings_neither_compared_nor_reported(self, dataset, tmp_path):
        graph = load_graph(dataset["edges"], dataset["attrs"])
        a = run_single(small_config(dataset, tmp_path), 3, graph)
        b = run_single(small_config(dataset, tmp_path), 3, graph)
        assert a.seconds != b.seconds
        assert a == b
        assert "seconds" not in repr(a)
        assert set(a.report_payload()) == {"config_hash", "seed", "target", "methods"}
        assert "seconds" not in json.dumps(a.report_payload())

    def test_pool_statistics_computed_once_per_seed(self, dataset, tmp_path, monkeypatch):
        # Both rankings of a seed share one pool, so its statistics are computed once,
        # and each report is still the one evaluate_ranking gives.
        calls = []
        original = fairlink.pipeline.pool_statistics
        def counted(candidates):
            calls.append(candidates)
            return original(candidates)
        monkeypatch.setattr(fairlink.pipeline, "pool_statistics", counted)
        config = small_config(dataset, tmp_path)
        result = run_single(config, 3)
        [pool] = calls
        for name, ranking in result.rankings.items():
            assert result.reports[name] == evaluate_ranking(
                name, ranking, pool, result.target, config.k_list, smoothing=config.smoothing
            )

    def test_zero_target_mass_surfaces(self, dataset, tmp_path):
        config = small_config(
            dataset, tmp_path, target={"0-0": 1.0, "0-1": 0.0, "1-1": 0.0}
        )
        with pytest.raises(ZeroTargetMassError):
            run_single(config, 3)

    def test_greedy_tracks_target_better_than_naive(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path)
        result = run_single(config, 3)
        k = result.reports[GREEDY].per_k[-1].k
        assert result.reports[GREEDY].at_k(k).ndkl <= result.reports[NAIVE].at_k(k).ndkl

    def test_report_within_bound(self, dataset, tmp_path):
        result = run_single(small_config(dataset, tmp_path), 3)
        for report in result.reports.values():
            for row in report.per_k:
                assert 0.0 <= row.ndkl <= report.bound + 1e-12

    def test_empty_k_list_yields_global_metrics_only(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path, k_list=())
        result = run_single(config, 3)
        for report in result.reports.values():
            assert report.per_k == ()
            assert 0.0 <= report.ap <= 1.0
            assert report.delta_dp_selection >= 0.0


class TestPipelineOutputs:
    def test_outputs_and_internal_consistency(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path / "run")
        summary = run_pipeline(config)
        assert summary.seeds == (3, 4)

        for seed in summary.seeds:
            seed_dir = summary.out_dir / f"seed_{seed}"
            report = json.loads((seed_dir / "report.json").read_text())
            # Proportions in the report must match the emitted ranking file.
            for method in (GREEDY, NAIVE):
                ranking = read_ranking(seed_dir / f"ranking_{method}.tsv")
                for row in report["methods"][method]["per_k"]:
                    recomputed = top_k_proportions(ranking, row["k"]).as_label_dict()
                    assert row["proportions"] == recomputed

    def test_report_json_round_trip(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path / "run")
        summary = run_pipeline(config)
        result = summary.results[0]
        loaded = load_seed_report(summary.out_dir / f"seed_{result.seed}" / "report.json")
        assert loaded == result.reports

    def test_summary_csv_matches_hand_average(self, dataset, tmp_path):
        config = small_config(dataset, tmp_path / "run", repeats=3)
        summary = run_pipeline(config)
        per_seed = [
            load_seed_report(summary.out_dir / f"seed_{seed}" / "report.json")
            for seed in summary.seeds
        ]
        with open(summary.out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            method, metric = row["method"], row["metric"]
            if row["k"] == "global":
                series = [getattr(reports[method], metric) for reports in per_seed]
            else:
                k = int(row["k"])
                series = [getattr(reports[method].at_k(k), metric) for reports in per_seed]
            assert float(row["mean"]) == pytest.approx(statistics.fmean(series), abs=1e-12)
            assert float(row["std"]) == pytest.approx(statistics.pstdev(series), abs=1e-12)

    def test_byte_identical_reruns(self, dataset, tmp_path):
        run_pipeline(small_config(dataset, tmp_path / "a"))
        run_pipeline(small_config(dataset, tmp_path / "b"))
        for seed in (3, 4):
            for name in (f"ranking_{GREEDY}.tsv", f"ranking_{NAIVE}.tsv"):
                a = (tmp_path / "a" / f"seed_{seed}" / name).read_bytes()
                b = (tmp_path / "b" / f"seed_{seed}" / name).read_bytes()
                assert a == b
            report_a = json.loads((tmp_path / "a" / f"seed_{seed}" / "report.json").read_text())
            report_b = json.loads((tmp_path / "b" / f"seed_{seed}" / "report.json").read_text())
            assert strip_timestamp(report_a) == strip_timestamp(report_b)


    def test_embeddings_read_once_per_run(self, dataset, tmp_path, monkeypatch):
        # Every seed scores with the one embedding table read before the first seed,
        # and gets the reports of a seed run that reads the file itself.
        emb = write_embeddings(dataset["graph"], tmp_path / "emb.txt")
        config = small_config(
            dataset, tmp_path / "out", scorer="embedding", embeddings_path=emb, repeats=3
        )
        expected = [run_single(config, seed) for seed in (3, 4, 5)]
        calls = []
        load = fairlink.pipeline.load_embeddings
        def counted(path):
            calls.append(path)
            return load(path)
        monkeypatch.setattr(fairlink.pipeline, "load_embeddings", counted)
        summary = run_pipeline(config)
        assert calls == [emb]
        assert [r.reports for r in summary.results] == [r.reports for r in expected]
        assert [r.rankings for r in summary.results] == [r.rankings for r in expected]


def strip_timestamp(payload: dict) -> dict:
    payload = json.loads(json.dumps(payload))
    payload.get("provenance", {}).pop("timestamp", None)
    return payload


class TestEvalChecksTheRanking:
    """``fairlink eval`` exits 3 on a ranking that does not fit its format or
    the graph, before any metric is computed or any report written."""

    # Rank 2 is on line 3, so a message can be told to name the line or the rank.
    FIRST = "# rank u v group score relevance\n1\t0\t1\t0-0\t0.9\t1\n"

    def run_eval(self, tmp_path, capsys, second):
        edges, attrs = tmp_path / "edges.tsv", tmp_path / "attrs.tsv"
        # Nodes 0 and 1 have value 0, nodes 2 and 4 value 1; node 3 has none.
        attrs.write_text("0\t0\n1\t0\n2\t1\n4\t1\n")
        edges.write_text("0\t1\n1\t2\n2\t4\n")
        ranking, out = tmp_path / "ranking.tsv", tmp_path / "eval.json"
        ranking.write_text(self.FIRST + second + "\n")
        code = main([
            "eval", "--edges", str(edges), "--attrs", str(attrs), "--ranking", str(ranking),
            "--target", "0-0=0.5,0-1=0.5", "--k", "1", "--out", str(out),
        ])
        return code, capsys.readouterr().err, out.exists()

    def test_a_fitting_ranking_is_evaluated(self, tmp_path, capsys):
        # The pair is given high endpoint first and the label in either order.
        assert self.run_eval(tmp_path, capsys, "2\t2\t1\t1-0\t0.5\t0") == (0, "", True)

    @pytest.mark.parametrize(
        "second, message",
        [
            ("2\t1\t2\t0-1\tnan\t0", "ranking.tsv:3: non-finite score"),
            ("2\t1\t2\t0-1\t0.5\t7", "ranking.tsv:3: relevance must be 0 or 1"),
            ("2\t2\t2\t1-1\t0.5\t0", "self-loop on node 2 (line 3)"),
            ("2\t1\t0\t0-0\t0.5\t0", "duplicate pair (0, 1) (line 3)"),
            ("2\t1\t2\t0-0\t0.5\t0", "rank 2: pair (1, 2) is in group 0-1, labelled 0-0"),
            ("2\t1\t3\t0-1\t0.5\t0", "rank 2: node 3 has no sensitive attribute"),
            ("2\t1\t9\t0-1\t0.5\t0", "rank 2: unknown node id 9"),
        ],
    )
    def test_a_bad_entry_exits_three(self, tmp_path, capsys, second, message):
        code, err, wrote = self.run_eval(tmp_path, capsys, second)
        assert (code, wrote) == (3, False)
        assert err.startswith("data error: ") and message in err


class TestCli:
    def run(self, *argv):
        return main([str(a) for a in argv])

    def test_full_chain(self, dataset, tmp_path, capsys):
        split_dir = tmp_path / "split"
        assert self.run(
            "split", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--out", split_dir, "--seed", 11,
        ) == 0
        scores = tmp_path / "scores.tsv"
        assert self.run(
            "score", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--train", split_dir / "train.tsv", "--test", split_dir / "test.tsv",
            "--out", scores, "--seed", 11,
        ) == 0
        ranking = tmp_path / "ranking.tsv"
        assert self.run(
            "rerank", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--test", split_dir / "test.tsv", "--scores", scores,
            "--train", split_dir / "train.tsv", "--n", 100, "--out", ranking,
        ) == 0
        report = tmp_path / "report.json"
        assert self.run(
            "eval", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--ranking", ranking, "--train", split_dir / "train.tsv",
            "--k", 20, 50, "--out", report,
        ) == 0
        payload = json.loads(report.read_text())
        assert set(payload["methods"]) == {"ranked", "naive"}
        for rep in payload["methods"].values():
            eval_report(rep)  # parses cleanly

    def test_gap_and_oracle(self, tmp_path):
        gap_csv = tmp_path / "gap.csv"
        assert self.run(
            "gap", "--target", "0-0=0.61,0-1=0.2,1-1=0.19",
            "--k-grid", 10, 50, "--out", gap_csv,
        ) == 0
        lines = gap_csv.read_text().strip().splitlines()
        assert len(lines) == 3

        oracle_json = tmp_path / "oracle.json"
        assert self.run(
            "oracle", "--counts", "0-0=3,0-1=2,1-1=1",
            "--target", "0-0=0.5,0-1=0.3,1-1=0.2", "--out", oracle_json,
        ) == 0
        payload = json.loads(oracle_json.read_text())
        assert payload["examined"] == 60
        assert 0.0 <= payload["min"] <= payload["max"] <= payload["bound"]

    def test_rerank_with_explicit_target(self, dataset, tmp_path):
        split_dir = tmp_path / "split"
        assert self.run(
            "split", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--out", split_dir, "--seed", 2,
        ) == 0
        scores = tmp_path / "scores.tsv"
        assert self.run(
            "score", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--train", split_dir / "train.tsv", "--test", split_dir / "test.tsv",
            "--out", scores, "--seed", 2,
        ) == 0
        ranking = tmp_path / "ranking.tsv"
        assert self.run(
            "rerank", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--test", split_dir / "test.tsv", "--scores", scores,
            "--target", "0-0=0.4,0-1=0.3,1-1=0.3", "--n", 60, "--out", ranking,
        ) == 0
        parsed = read_ranking(ranking)
        proportions = top_k_proportions(parsed, 60)
        assert proportions.mass(G00) == pytest.approx(0.4, abs=0.05)

    def test_embedding_scorer_through_pipeline(self, dataset, tmp_path):
        graph = dataset["graph"]
        emb_path = tmp_path / "emb.txt"
        with open(emb_path, "w") as fh:
            fh.write(f"{graph.node_count} 2\n")
            for node in range(graph.node_count):
                fh.write(f"{node} {0.01 * node:.4f} {0.02 * (node % 7):.4f}\n")
        config = small_config(
            dataset, tmp_path / "out",
            scorer="embedding", embeddings_path=str(emb_path), repeats=1,
        )
        result = run_single(config, 3)
        assert result.reports[GREEDY].per_k  # ran end to end

    def test_pipeline_config_file_ratios_respected(self, dataset, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "edges": dataset["edges"],
            "attrs": dataset["attrs"],
            "seed": 5,
            "repeats": 1,
            "ratios": [0.5, 0.25, 0.25],
            "k_list": [20],
            "output_size": 50,
            "out_dir": str(tmp_path / "out"),
        }))
        assert main(["pipeline", "--config", str(config_path)]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "seed_5" / "split" / "split.json").read_text()
        )
        assert manifest["ratios"] == [0.5, 0.25, 0.25]

    def test_pipeline_unknown_config_key(self, dataset, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "edges": dataset["edges"], "attrs": dataset["attrs"], "typo_key": 1,
        }))
        assert main(["pipeline", "--config", str(config_path)]) == 2

    def test_pipeline_subcommand_with_config_file(self, dataset, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "edges_path": dataset["edges"],
            "attrs_path": dataset["attrs"],
            "seed": 5,
            "repeats": 1,
            "k_list": [20, 60],
            "output_size": 100,
            "out_dir": str(tmp_path / "out"),
        }))
        assert self.run("pipeline", "--config", config_path) == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "seed_5" / "report.json").exists()

    def test_output_dir_env_override(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("FAIRLINK_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert self.run(
            "split", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--out", tmp_path / "ignored", "--seed", 1,
        ) == 0
        assert (tmp_path / "env_out" / "train.tsv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_exit_codes(self, dataset, tmp_path):
        # 2: configuration error (ratios do not sum to 1)
        assert self.run(
            "split", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--out", tmp_path / "s", "--ratios", 0.5, 0.5, 0.5,
        ) == 2
        # 2: bad ratios are reported before any input file is read
        assert self.run(
            "split", "--edges", tmp_path / "nope.tsv", "--attrs", tmp_path / "nope.tsv",
            "--out", tmp_path / "s", "--ratios", 0.5, 0.5, 0.5,
        ) == 2
        # 3: data error (missing file)
        assert self.run(
            "split", "--edges", tmp_path / "nope.tsv", "--attrs", dataset["attrs"],
            "--out", tmp_path / "s",
        ) == 3
        # 4: infeasible (gap cutoff beyond the pools)
        assert self.run(
            "gap", "--target", "0-0=0.5,0-1=0.5", "--pools", "0-0=3,0-1=3",
            "--k-grid", 10, "--out", tmp_path / "gap.csv",
        ) == 4
        # 2: zero-mass explicit target with mixed candidates
        config_path = tmp_path / "bad_target.json"
        config_path.write_text(json.dumps({
            "edges_path": dataset["edges"],
            "attrs_path": dataset["attrs"],
            "repeats": 1,
            "k_list": [20],
            "target": {"0-0": 1.0, "0-1": 0.0, "1-1": 0.0},
            "out_dir": str(tmp_path / "zt"),
        }))
        assert self.run("pipeline", "--config", config_path) == 2
        # 2: unparseable group label in a config-file target
        config_path.write_text(json.dumps({
            "edges_path": dataset["edges"],
            "attrs_path": dataset["attrs"],
            "target": {"x-y": 1.0},
            "out_dir": str(tmp_path / "xy"),
        }))
        assert self.run("pipeline", "--config", config_path) == 2
        # 2: rerank weight outside [0, 1], on either side
        test_edges, scores = tmp_path / "test.tsv", tmp_path / "scores.tsv"
        test_edges.write_text("0\t1\n")
        scores.write_text("0\t1\t0.5\n0\t2\t0.25\n")
        for lam in (1.5, -0.5):
            assert self.run(
                "rerank", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
                "--test", test_edges, "--scores", scores, "--target", "0-0=1",
                "--lam", lam, "--out", tmp_path / "lam.tsv",
            ) == 2
        assert self.run(
            "rerank", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--test", test_edges, "--scores", scores, "--target", "0-0=1",
            "--lam", 1.0, "--out", tmp_path / "lam.tsv",
        ) == 0
        # 2: bad --lam, bad explicit --target and an empirical target without
        # --train are reported before any input file is read
        missing = tmp_path / "missing.tsv"
        inputs = ("--edges", missing, "--attrs", missing)
        rerank_inputs = inputs + ("--test", missing, "--scores", missing)
        for flags in (
            ("--target", "0-0=1", "--lam", 1.5),
            ("--target", "0-0=0.5,0-1=0.4"),
            ("--target", "0-0=1.5,0-1=-0.5"),
            ("--train", missing, "--target", "0-0"),
            (),
        ):
            assert self.run("rerank", *rerank_inputs, *flags, "--out", tmp_path / "r.tsv") == 2
            if "--lam" not in flags:
                assert self.run(
                    "eval", *inputs, "--ranking", missing, *flags, "--out", tmp_path / "e.json"
                ) == 2
        # 2: a non-integral oracle count or gap pool is rejected before any work
        assert self.run(
            "oracle", "--counts", "0-0=2.5", "--target", "0-0=1", "--out", tmp_path / "o.json",
        ) == 2
        assert self.run(
            "gap", "--target", "0-0=0.5,0-1=0.5", "--pools", "0-0=30.5,0-1=30",
            "--k-grid", 10, "--out", tmp_path / "g.csv",
        ) == 2
        assert not (tmp_path / "o.json").exists() and not (tmp_path / "g.csv").exists()
        # 2: an oracle guard that is not an integer >= 1, from a flag or a
        # config file, is rejected before any enumeration
        oracle = ("oracle", "--counts", "0-0=2,0-1=1", "--target", "0-0=0.5,0-1=0.5")
        for guard in (-1, 0):
            assert self.run(*oracle, "--guard", guard, "--out", tmp_path / "o.json") == 2
        for guard in ("abc", 2.5, 3.0, True, None):
            config_path.write_text(json.dumps({"guard": guard}))
            assert self.run(*oracle, "--config", config_path, "--out", tmp_path / "o.json") == 2
        assert not (tmp_path / "o.json").exists()
        # 2: an output size or a cutoff below 1 is reported before any input
        # file is read
        for n in (0, -1):
            assert self.run(
                "rerank", *rerank_inputs, "--target", "0-0=1", "--n", n, "--out", tmp_path / "r.tsv"
            ) == 2
        for cutoffs in ((0,), (10, -5), (-1, 20)):
            assert self.run(
                "eval", *inputs, "--ranking", missing, "--target", "0-0=1", "--k", *cutoffs,
                "--out", tmp_path / "e.json",
            ) == 2
        # 2: a pipeline output size below 1 is reported before any input file is read
        for size in (0, -3):
            assert self.run(
                "pipeline", *inputs, "--output-size", size, "--out", tmp_path / "p"
            ) == 2
        # 2: a --config value of the wrong type is reported before any input
        # file is read
        for command, flags, values in (
            ("pipeline", inputs, (
                {"repeats": 1.5}, {"repeats": True}, {"seed": "3"}, {"output_size": 2.5},
                {"k": [100, "x"]}, {"k": 5}, {"ratios": ["a", 0.1, 0.2]}, {"ratios": 0.5},
                {"negatives_per_positive": "1"}, {"lam": "x"}, {"target": {"0-0": "1"}},
                {"decoupled": "no"}, {"smoothing": "false"}, {"edges_path": ["e.tsv"]},
            )),
            ("rerank", rerank_inputs + ("--target", "0-0=1"), (
                {"lam": "x"}, {"n": 2.5}, {"smoothing": "false"}, {"scores": 0},
            )),
            ("eval", inputs + ("--ranking", missing, "--target", "0-0=1"), (
                {"k": [10, "x"]}, {"smoothing": 1},
            )),
            ("score", ("--attrs", missing, "--train", missing, "--test", missing), (
                {"edges": 0}, {"decoupled": "no"},
            )),
            ("split", inputs, ({"seed": "3"}, {"ratios": [0.7, "x", 0.2]})),
            ("gap", ("--target", "0-0=1"), ({"k_grid": [10, "x"]}, {"k_grid": []})),
        ):
            for value in values:
                config_path.write_text(json.dumps(value))
                assert self.run(
                    command, *flags, "--config", config_path, "--out", tmp_path / "typed"
                ) == 2, (command, value)
        assert not (tmp_path / "p").exists() and not (tmp_path / "typed").exists()
        # 2: a group named twice, in either spelling, is reported before any work
        assert self.run(
            "oracle", "--counts", "0-0=2,0-1=1,1-0=3", "--target", "0-0=0.5,0-1=0.5",
            "--out", tmp_path / "o.json",
        ) == 2
        assert self.run(
            "rerank", *rerank_inputs, "--target", "0-1=0.5,1-0=0.5", "--out", tmp_path / "r.tsv"
        ) == 2
        config_path.write_text(json.dumps({"target": {"0-0": 0.5, "0-1": 0.2, "1-0": 0.3}}))
        assert self.run("pipeline", *inputs, "--config", config_path, "--out", tmp_path / "p") == 2
        assert not (tmp_path / "o.json").exists() and not (tmp_path / "p").exists()
        # 2: a target mass that is not finite, in any subcommand, before any work
        for target in ("0-0=nan,0-1=1", "0-0=nan,0-1=0.5,1-1=0.5", "0-0=inf,0-1=-inf,1-1=1"):
            for command, *flags in (
                ("oracle", "--counts", "0-0=2,0-1=2"),
                ("gap", "--k-grid", 5),
                ("rerank", *rerank_inputs),
                ("eval", *inputs, "--ranking", missing),
                ("pipeline", *inputs),
            ):
                assert self.run(
                    command, *flags, "--target", target, "--out", tmp_path / "nan"
                ) == 2, (command, target)
        config_path.write_text('{"target": {"0-0": NaN, "0-1": 1.0}}')
        assert self.run("pipeline", *inputs, "--config", config_path, "--out", tmp_path / "p") == 2
        assert not (tmp_path / "nan").exists() and not (tmp_path / "p").exists()
        # 2: a --config key that is not one of the subcommand's own options,
        # before any file is read
        for command, flags, value in (
            ("oracle", oracle[1:], {"gaurd": 3}),
            ("gap", ("--target", "0-0=0.5,0-1=0.5"), {"pool": "0-0=30,0-1=30"}),
            ("pipeline", inputs, {"edgs": "e.tsv"}),
            ("pipeline", inputs, {"config": "other.json"}),
            ("rerank", rerank_inputs + ("--target", "0-0=1"), {"k": [10]}),
            ("eval", inputs + ("--ranking", missing, "--target", "0-0=1"), {"lam": 0.5}),
            ("score", inputs + ("--train", missing, "--test", missing), {"ratios": [0.7, 0.3, 0]}),
            ("split", inputs, {"train": "t.tsv"}),
        ):
            config_path.write_text(json.dumps(value))
            assert self.run(
                command, *flags, "--config", config_path, "--out", tmp_path / "keys"
            ) == 2, (command, value)
        assert not (tmp_path / "keys").exists()

    def test_gap_skips_an_empty_pool(self, tmp_path):
        # A zero pool gives its dyadic class nothing to apportion.
        common = ("--target", "0-0=1.0,0-1=0.0", "--k-grid", 10)
        assert self.run("gap", *common, "--pools", "0-0=50,0-1=0", "--out", tmp_path / "a.csv") == 0
        assert self.run("gap", *common, "--pools", "0-0=50", "--out", tmp_path / "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_errors_name_groups_as_typed(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        assert self.run(
            "oracle", "--counts", "0-0=3,1-1=2", "--target", "0-0=0.5,0-1=0.5", "--out", out
        ) == 2
        err = capsys.readouterr().err
        assert "group 1-1 has zero target mass" in err and "GroupId(" not in err
        assert not out.exists()

    def test_score_rejects_a_train_edge_outside_the_graph(self, dataset, tmp_path):
        graph = dataset["graph"]
        non_edge = next(
            (u, v) for u in range(graph.node_count) for v in range(u + 1, graph.node_count)
            if (u, v) not in graph.edges
        )
        train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
        train.write_text("%d\t%d\n" % non_edge)
        test.write_text("%d\t%d\n" % min(graph.edges))
        out = tmp_path / "scores.tsv"
        assert self.run(
            "score", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--train", train, "--test", test, "--out", out,
        ) == 3
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["non-edge", "self-loop", "unknown node", "duplicate"])
    def test_score_rejects_a_test_pair_that_is_not_an_edge(self, dataset, tmp_path, capsys, kind):
        # Scoring trusts its positives: a test pair is checked where it is made,
        # in subgraph_with_edges, against the loaded graph's edges.
        graph = dataset["graph"]
        non_edge = next(
            (u, v) for u in range(graph.node_count) for v in range(u + 1, graph.node_count)
            if (u, v) not in graph.edges
        )
        edge = min(graph.edges)
        bad, message = {
            "non-edge": (non_edge, f"{non_edge} is not an edge of the graph"),
            "self-loop": ((edge[0], edge[0]), f"self-loop on node {edge[0]} (line 2)"),
            "unknown node": (
                (edge[0], graph.node_count + 5),
                f"{(edge[0], graph.node_count + 5)} is not an edge of the graph",
            ),
            "duplicate": (edge[::-1], None),
        }[kind]
        train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
        train.write_text("%d\t%d\n" % edge)
        test.write_text("%d\t%d\n%d\t%d\n" % (*edge, *bad))
        out = tmp_path / "scores.tsv"
        code = self.run(
            "score", "--edges", dataset["edges"], "--attrs", dataset["attrs"],
            "--train", train, "--test", test, "--out", out,
        )
        if kind == "duplicate":
            # Both orientations name one edge, which is then scored once.
            assert code == 0
            assert out.read_text().count("%d\t%d\t" % edge) == 1
            return
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_parse_helpers(self):
        target = parse_target("0-0=0.6,0-1=0.4")
        assert isinstance(target, GroupDistribution)
        assert parse_target("empirical") == "empirical"
        counts = parse_group_map("0-0=5,1-1=3")
        assert counts == {G00: 5.0, G11: 3.0}
        with pytest.raises(ConfigError):
            parse_group_map("0-0:5")
        for repeated in ("0-0=1,0-0=2", "0-1=1,1-0=2"):
            with pytest.raises(ConfigError, match="given twice"):
                parse_group_map(repeated)


@pytest.fixture(scope="module")
def chain(dataset, tmp_path_factory):
    """Input files for every subcommand: the dataset, a split of it, an
    embedding file, a score file and a ranking."""
    root = tmp_path_factory.mktemp("chain")
    files = {
        "edges": dataset["edges"],
        "attrs": dataset["attrs"],
        "train": str(root / "split" / "train.tsv"),
        "test": str(root / "split" / "test.tsv"),
        "embeddings": write_embeddings(dataset["graph"], root / "emb.txt"),
        "scores": str(root / "scores.tsv"),
        "ranking": str(root / "ranking.tsv"),
    }
    inputs = ("--edges", files["edges"], "--attrs", files["attrs"])
    assert main(["split", *inputs, "--seed", "4", "--out", str(root / "split")]) == 0
    assert main([
        "score", *inputs, "--train", files["train"], "--test", files["test"],
        "--seed", "4", "--out", files["scores"],
    ]) == 0
    assert main([
        "rerank", *inputs, "--train", files["train"], "--test", files["test"],
        "--scores", files["scores"], "--n", "90", "--out", files["ranking"],
    ]) == 0
    return files


def all_options(command: str, chain: dict, out: Path) -> dict:
    """Every option of ``command``, keyed as its flag's name with ``-`` as ``_``."""
    target = "0-0=0.5,0-1=0.2,1-1=0.3"
    graph_files = {key: chain[key] for key in ("edges", "attrs")}
    options = {
        "split": dict(graph_files, ratios=[0.6, 0.2, 0.2]),
        "score": dict(
            graph_files, train=chain["train"], test=chain["test"], scorer="embedding",
            decoupled=False, embeddings=chain["embeddings"], negatives_per_positive=2.0,
        ),
        "rerank": dict(
            graph_files, test=chain["test"], scores=chain["scores"], train=chain["train"],
            target=target, n=70, lam=0.7, smoothing=True,
        ),
        "eval": dict(
            graph_files, ranking=chain["ranking"], train=chain["train"], target="empirical",
            k=[10, 40], smoothing=True,
        ),
        "gap": dict(target=target, pools="0-0=300,0-1=100,1-1=100", k_grid=[10, 50]),
        "oracle": dict(counts="0-0=3,0-1=2,1-1=2", target=target, guard=10),
        "pipeline": dict(
            graph_files, repeats=2, scorer="common_neighbors", decoupled=False,
            embeddings=chain["embeddings"], target=target, k=[20, 50], lam=0.8,
            smoothing=True, negatives_per_positive=1.5, output_size=60,
        ),
    }[command]
    return {**options, "seed": 3, "out": str(out)}


def as_flags(options: dict) -> list[str]:
    argv = []
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else f"--no-{key}")
        elif isinstance(value, list):
            argv += [flag, *map(str, value)]
        else:
            argv += [flag, str(value)]
    return argv


def run_and_collect(argv: list[str], out: Path, capsys) -> tuple:
    """Exit code, stdout and every output file's bytes (report timestamps
    stripped) of one CLI run; the outputs are removed afterwards."""
    code = main(argv)
    stdout = capsys.readouterr().out
    paths = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else [out]
    files = {}
    for path in paths:
        data = path.read_bytes()
        if path.name == "report.json":
            data = json.dumps(strip_timestamp(json.loads(data))).encode()
        files[str(path.relative_to(out.parent))] = data
    shutil.rmtree(out) if out.is_dir() else out.unlink()
    return code, stdout, files


COMMANDS = ("split", "score", "rerank", "eval", "gap", "oracle", "pipeline")


class TestOptionsResolveOnce:
    """A flag and the same value in a --config file are one option."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flags_and_config_file_give_the_same_bytes(self, command, chain, tmp_path, capsys):
        out = tmp_path / "out"
        options = all_options(command, chain, out)
        by_flags = run_and_collect([command, *as_flags(options)], out, capsys)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        by_config = run_and_collect([command, "--config", str(config)], out, capsys)
        assert by_flags[0] == 0 and by_flags[2]
        assert by_config == by_flags

    @pytest.mark.parametrize("command", ("rerank", "eval", "gap", "oracle", "pipeline"))
    def test_a_config_file_target_may_be_an_object(self, command, chain, tmp_path, capsys):
        out = tmp_path / "out"
        options = all_options(command, chain, out)
        options["target"] = "0-0=0.5,0-1=0.2,1-1=0.3"
        as_text = run_and_collect([command, *as_flags(options)], out, capsys)
        options["target"] = {"0-0": 0.5, "0-1": 0.2, "1-1": 0.3}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        as_object = run_and_collect([command, "--config", str(config)], out, capsys)
        assert as_text[0] == 0 and as_text[2]
        assert as_object == as_text

    @pytest.mark.parametrize(
        "command, key, counts",
        [
            ("gap", "pools", {"0-0": 300, "1-0": 100, "1-1": 100}),
            ("oracle", "counts", {"0-0": 3, "0-1": 2, "1-1": 2}),
        ],
    )
    def test_a_config_file_group_map_may_be_an_object(
        self, command, key, counts, chain, tmp_path, capsys
    ):
        out = tmp_path / "out"
        options = all_options(command, chain, out)
        options[key] = ",".join(f"{label}={count}" for label, count in counts.items())
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        as_text = run_and_collect([command, "--config", str(config)], out, capsys)
        config.write_text(json.dumps({**options, key: counts}))
        as_object = run_and_collect([command, "--config", str(config)], out, capsys)
        assert as_text[0] == 0 and as_text[2]
        assert as_object == as_text

    @pytest.mark.parametrize(
        "command, key, counts",
        [
            ("gap", "pools", {"0-0": 30.5}),
            ("gap", "pools", {"0-0": True}),
            ("gap", "pools", {"0-1": 3, "1-0": 3}),
            ("oracle", "counts", {"0-0": "x"}),
            ("oracle", "counts", {"0-0": None}),
            ("oracle", "counts", [3, 2]),
        ],
    )
    def test_a_group_map_object_is_checked_as_its_string(
        self, command, key, counts, chain, tmp_path
    ):
        options = {**all_options(command, chain, tmp_path / "out"), key: counts}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        assert main([command, "--config", str(config)]) == 2
        assert not (tmp_path / "out").exists()

    def test_pipeline_flags_are_run_config_fields(self):
        # cmd_pipeline builds its RunConfig from the options as they are.
        args = vars(build_parser().parse_args(["pipeline"]))
        dests = set(args) - {"command", "func", "config"}
        assert {"edges_path", "attrs_path", "embeddings_path", "k_list", "out_dir"} <= dests
        assert dests <= set(RunConfig.__dataclass_fields__)


def test_import_does_not_load_numpy():
    # The package and its CLI run without numpy, which only the tests use.
    src = Path(fairlink.__file__).resolve().parents[1]
    code = "import sys, fairlink, fairlink.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_synth_runs_without_numpy():
    # A None entry in sys.modules makes any import of numpy raise ImportError.
    src = Path(fairlink.__file__).resolve().parents[1]
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "from fairlink.graphs import GroupId; from fairlink.synth import biased_block_graph; "
        "print(len(biased_block_graph({0: 90, 1: 60}, {GroupId.of(0, 1): 0.02}, seed=5).edges))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(result.stdout) > 0


def test_import_loads_only_what_it_names():
    # The package re-exports nothing: `import fairlink` loads no submodule,
    # and `import fairlink.graphs` loads graphs and what graphs imports.
    src = Path(fairlink.__file__).resolve().parents[1]
    code = (
        "import sys, {0}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'fairlink'))"
    )
    loaded = {}
    for module in ("fairlink", "fairlink.graphs"):
        result = subprocess.run(
            [sys.executable, "-c", code.format(module)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        loaded[module] = result.stdout.strip()
    assert loaded["fairlink"] == "['fairlink']"
    assert loaded["fairlink.graphs"] == (
        "['fairlink', 'fairlink.errors', 'fairlink.graphs', 'fairlink.io']"
    )
