"""Byte-identity of every CLI output on a fixed input.

A small CLI session (split, score three ways, rerank at two weights,
eval, pipeline) runs on a graph generated with the standard library's
``random`` only, so the input does not depend on numpy's generator
stream. A second session reranks, evaluates and runs the pipeline on the
same graph with ``--smoothing``, against a target that gives the groups
of attribute value 2 no mass. A third session runs the oracle on two
multisets, one of them at the enumeration guard. Every output file is hashed with its
timestamp blanked and compared with the pinned digests below. A
refactor that must not change outputs keeps this test green; a change
that is meant to alter outputs re-pins the digests and says so.
"""

import hashlib
import random
import re
from pathlib import Path

import pytest

from fairlink.cli import OUTPUT_DIR_ENV, main

TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

PINNED = {
    "eval.json": "d8b53d2207ea9d93ebb3fca5241152eae5375ca935771a04ffafc54a8198961e",
    "ranking_lam06.tsv": "838e400268a9cd034981a8a4bbb7b937b9337ae0b4f87992830ed7accc6664a6",
    "ranking_lam1.tsv": "6532f82a9911cb5955872a657bb5c43bdffcf12ef94dae932e1d5f27aff1b2d5",
    "runs/config.json": "f4ff6ce275c66f4c709593e9ac2620fa01e94fbafdc3e2e86533e91be6273079",
    "runs/proportions.csv": "19967075a88bf6f44c36a0e8c9315592277b446276ab0240997c8f7eb8cf9108",
    "runs/seed_3/ranking_greedy.tsv": "5f614fe3dd947e8690f84355e3a7b1c2672aa583a6c4a36f08c955e39690d7c9",
    "runs/seed_3/ranking_naive.tsv": "f4313a03156142f00ddcaea5516562dabcf7beb833594ffcd268fffe1deab9e2",
    "runs/seed_3/report.json": "93d7bf1018e1e3523d4fa564b6d5e4019c6e6fdc842293a9dd3d6e8904466ef9",
    "runs/seed_3/split/split.json": "c59fc1ab56af2a59e71445c2035a4c6bebb3ccd3898ceb22d78a5d18d12ae1c6",
    "runs/seed_3/split/test.tsv": "a83c48530e2d79f2daa92a6cf945e8039efd18e25a0f6ced64f14bb81d1b2d8d",
    "runs/seed_3/split/train.tsv": "47702263ad0cdbc89e86c470e0d13694a9488b750c36f3530d04808a1f1733ea",
    "runs/seed_3/split/valid.tsv": "0aa98f3deaa5d703b5a6d7dc0572c054e50dd7034ab1845b8465cb9e63aac3fc",
    "runs/seed_4/ranking_greedy.tsv": "c530772745ae69011147ad57ddfbe6ddfb27f6dfb5fe46524269406ea396d042",
    "runs/seed_4/ranking_naive.tsv": "6e691bcad21ca6a020e032110097f6dc8c9520b680d0481e8edfe736ab42c8c0",
    "runs/seed_4/report.json": "4fc06e4ec78d7c27b4cbe5aff1d035d50b3c871e33a3eb14d5d5d6e8875e5b8c",
    "runs/seed_4/split/split.json": "e25eb36516614abae8423dadf5f15aefee01dc37f28b512be7f0d498483f16a8",
    "runs/seed_4/split/test.tsv": "4b7de2bd44a02c813b596ea4bd6913b7fa46f3e8c73dfbbdde50ad1fa3cd1651",
    "runs/seed_4/split/train.tsv": "503e1af41f85997c253f1e8bfceda768dab6bfdd86402402881c7c75061d808a",
    "runs/seed_4/split/valid.tsv": "523d46c105cbd821720c79052ad8de3a328ef8f808169471a9325358c84d363c",
    "runs/summary.csv": "92473cf13b901a4a525a86e94b5846068176082c1a6cb965b393b5f7b461c3a4",
    "scores_cn.tsv": "025c61502250e866abe38ca4fede0b407d2b0ca12bb0710ddb1c988877ad1334",
    "scores_coupled.tsv": "28a5705caa4c7eca3d32115cda4a9f5bd598afa94bc38cdc56432e9a467783ce",
    "scores_decoupled.tsv": "b072b5c4bb3b077017f01a989fb0503e59537e2e7e5366ca04bce9e0ab3a08f7",
    "split/split.json": "c55e60cb9f10e326b2e0e217f8ab20a21e89ecaef1eda1e07078f76aa9cc5dc4",
    "split/test.tsv": "57a0bea20a328e37cf85cbec0e1f81cb33b3d8d54827b9c7c0cc333bb1313a21",
    "split/train.tsv": "4ddac38a272df7be571acd1c6cc17db894e28262a336e67075a97b6170d4fd36",
    "split/valid.tsv": "f2e88d81a71a5bc1e15a1beea49f7170914833ccf544ab492080010fdfa2efba",
}


PINNED_SMOOTHING = {
    "eval.json": "baaea96ed27b67dd4212355aaebddb549e998fe6ccb62c120a012bdb21cfa2d6",
    "ranking_lam06.tsv": "d76f8d0c02b42b9455a593235d3ccc6cf9c04e2a096c106982ed1297c2a14701",
    "ranking_lam1.tsv": "c1a7dadd26f9e7c7ab8f8ecf02366e66d9f446d38d5b0eecfe99978341b88f9b",
    "runs/config.json": "b48b8c692cf817adc8737207a8f656c01c6c49d3c5b45ff36ae9fdca7e70c1fa",
    "runs/proportions.csv": "2707b128e0c06c4416ce01eeea3f4a9f2d62cce843f533406839f78ac659f66b",
    "runs/seed_0/ranking_greedy.tsv": "b234d505d80a31efa14ecc5b19bc9213ece97a8b1967e877768b9f5f44657b14",
    "runs/seed_0/ranking_naive.tsv": "4df4a4aff537564fc214fb31aaecb6f6fa4fd3cef1f3c4e702456b624c381069",
    "runs/seed_0/report.json": "c6ddb11356b6a7d38e531132d4019d79f4db5d41fc2cab17fde4d3e9b0e30068",
    "runs/seed_0/split/split.json": "e4ba7fae8804ca72a71146b4c29ee6bab8e242b989686c51f1f2ea4bdc1d57fd",
    "runs/seed_0/split/test.tsv": "e83a5c94bf2f6af1b3c67c3e9e7ef8a4401c7fa0adf056c67896b51b2497158a",
    "runs/seed_0/split/train.tsv": "ce3e6cdef6040d4442cd27755bbfc3c1b064a89d6b184f2fc3a4bf9088b8384c",
    "runs/seed_0/split/valid.tsv": "3872d4ba165938d181d74ae1735e1b513985bb82fb9c308c668fc5ae996a9f42",
    "runs/seed_1/ranking_greedy.tsv": "2bd229d53580dc120ee44e1b753e8f1fa8e65f85f18c3de4cbadee68cb2a904d",
    "runs/seed_1/ranking_naive.tsv": "e24fe6cbaa71404b9eb59edbbcd09d322546b15f9cd0a80e700c790a5a1def3e",
    "runs/seed_1/report.json": "bb6ddf05db926f992888b239d78e53e5811f657d9e2c3aa7346b1fe9f369d68b",
    "runs/seed_1/split/split.json": "04306abb5a836d7450776d2e8f6a76b3fb33e96acdc54b85ef1c8f5685c50854",
    "runs/seed_1/split/test.tsv": "15bcf04132339353cfd9a9579e777eb570a6c3da0a0eb99ab102288978c653f3",
    "runs/seed_1/split/train.tsv": "e8e05918c3d37cd186dd256267ddcc1488630baeb37b58a2511674c11a956005",
    "runs/seed_1/split/valid.tsv": "560fa0b30d5eb97c8a92cae86013149c5b60aade898bb9d11b65115b32be3757",
    "runs/summary.csv": "367630936adae8e16a70faee700fd0b75f373fbf8984e4ac464cea08c464c9d2",
    "scores.tsv": "b072b5c4bb3b077017f01a989fb0503e59537e2e7e5366ca04bce9e0ab3a08f7",
    "split/split.json": "c55e60cb9f10e326b2e0e217f8ab20a21e89ecaef1eda1e07078f76aa9cc5dc4",
    "split/test.tsv": "57a0bea20a328e37cf85cbec0e1f81cb33b3d8d54827b9c7c0cc333bb1313a21",
    "split/train.tsv": "4ddac38a272df7be571acd1c6cc17db894e28262a336e67075a97b6170d4fd36",
    "split/valid.tsv": "f2e88d81a71a5bc1e15a1beea49f7170914833ccf544ab492080010fdfa2efba",
}


PINNED_ORACLE = {
    "oracle_guard.json": "f9869908b644072388e5164650d086a0660792a7c07194d7eb9d728cc3d603ba",
    "oracle_tied.json": "0f09afa6425ef3b739dd9219e1c52bde420de481de8a704fcd9be7415603e8e0",
}


def write_graph(root: Path) -> None:
    """Three attribute values (60/45/30 nodes), intra p = 0.12, inter p = 0.03."""
    rng = random.Random(20261018)
    attrs = [0] * 60 + [1] * 45 + [2] * 30
    edges = [
        (u, v)
        for u in range(len(attrs))
        for v in range(u + 1, len(attrs))
        if rng.random() < (0.12 if attrs[u] == attrs[v] else 0.03)
    ]
    (root / "attrs.tsv").write_text("".join(f"{n}\t{a}\n" for n, a in enumerate(attrs)))
    (root / "edges.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in edges))


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def session_digests(root: Path) -> dict[str, str]:
    graph = ("--edges", "edges.tsv", "--attrs", "attrs.tsv")
    split = ("--train", "split/train.tsv", "--test", "split/test.tsv")
    run("split", *graph, "--seed", 7, "--out", "split")
    run("score", *graph, *split, "--seed", 7, "--out", "scores_decoupled.tsv")
    run("score", *graph, *split, "--seed", 7, "--no-decoupled", "--out", "scores_coupled.tsv")
    run(
        "score", *graph, *split, "--seed", 7, "--scorer", "common_neighbors",
        "--out", "scores_cn.tsv",
    )
    for lam, name in ((1.0, "ranking_lam1.tsv"), (0.6, "ranking_lam06.tsv")):
        run(
            "rerank", *graph, *split, "--scores", "scores_decoupled.tsv",
            "--n", 80, "--lam", lam, "--out", name,
        )
    run(
        "eval", *graph, "--train", "split/train.tsv", "--ranking", "ranking_lam1.tsv",
        "--k", 10, 40, 80, "--out", "eval.json",
    )
    run(
        "pipeline", *graph, "--seed", 3, "--repeats", 2, "--k", 20, 60,
        "--output-size", 100, "--out", "runs",
    )
    return output_digests(root)


def smoothing_digests(root: Path) -> dict[str, str]:
    graph = ("--edges", "edges.tsv", "--attrs", "attrs.tsv")
    target = ("--target", "0-0=0.5,0-1=0.2,1-1=0.3,0-2=0,1-2=0,2-2=0", "--smoothing")
    run("split", *graph, "--seed", 7, "--out", "split")
    run(
        "score", *graph, "--train", "split/train.tsv", "--test", "split/test.tsv",
        "--seed", 7, "--out", "scores.tsv",
    )
    for lam, name in ((1.0, "ranking_lam1.tsv"), (0.6, "ranking_lam06.tsv")):
        run(
            "rerank", *graph, *target, "--test", "split/test.tsv", "--scores", "scores.tsv",
            "--n", 80, "--lam", lam, "--out", name,
        )
    run(
        "eval", *graph, *target, "--ranking", "ranking_lam1.tsv", "--k", 10, 40, 80,
        "--out", "eval.json",
    )
    run("pipeline", *graph, *target, "--lam", 0.7, "--repeats", 2, "--out", "runs")
    return output_digests(root)


def oracle_digests(root: Path) -> dict[str, str]:
    # A uniform target over two equal counts ties every ordering with its
    # mirror image, so the first-found argmin/argmax rule is pinned too.
    run(
        "oracle", "--counts", "0-0=3,0-1=3", "--target", "0-0=0.5,0-1=0.5",
        "--out", "oracle_tied.json",
    )
    run(
        "oracle", "--counts", "0-0=9,0-1=3,1-1=2", "--target", "0-0=0.6,0-1=0.25,1-1=0.15",
        "--guard", 14, "--out", "oracle_guard.json",
    )
    return output_digests(root)


def output_digests(root: Path) -> dict[str, str]:
    inputs = {"edges.tsv", "attrs.tsv"}
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(
            TIMESTAMP.sub(b'"timestamp": ""', path.read_bytes())
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in inputs
    }


def test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    write_graph(tmp_path)
    digests = session_digests(tmp_path)
    assert digests == PINNED


def test_smoothed_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    write_graph(tmp_path)
    assert smoothing_digests(tmp_path) == PINNED_SMOOTHING


def test_oracle_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert oracle_digests(tmp_path) == PINNED_ORACLE
