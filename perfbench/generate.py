"""Write one workload's input files, seeded by the benchmark seed.

Runs in its own process, before and apart from the measuring process, so
that neither set-up time nor peak memory includes input generation. Uses
only the standard library: the inputs never depend on the code under test.

Usage:
  python3 perfbench/generate.py --workload pipeline_binary --seed 0 --out DIR [--size tiny]
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from spec import REFERENCE_PROPORTIONS, RERANK_TARGET_SKEW, SIZES, WORKLOADS

CERTIFY_TARGETS = 64


def _label(a: int, b: int) -> str:
    return f"{min(a, b)}-{max(a, b)}"


def _node_blocks(counts) -> list[range]:
    blocks, start = [], 0
    for count in counts:
        blocks.append(range(start, start + count))
        start += count
    return blocks


def _write_graph(out: Path, edges: set, attrs: dict[int, int]) -> None:
    with open(out / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{v}\n" for u, v in sorted(edges))
    with open(out / "attrs.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{node}\t{value}\n" for node, value in sorted(attrs.items()))


def _attributes(blocks: list[range]) -> dict[int, int]:
    return {node: value for value, block in enumerate(blocks) for node in block}


def pipeline_inputs(rng: random.Random, size: dict, out: Path) -> None:
    """Two-attribute homophilic graph with exact per-group edge counts."""
    blocks = _node_blocks(size["pipeline_nodes"])
    edges: set[tuple[int, int]] = set()
    for label, wanted in size["pipeline_edges"].items():
        lo, hi = (blocks[int(x)] for x in label.split("-"))
        group_edges: set[tuple[int, int]] = set()
        while len(group_edges) < wanted:
            u, v = rng.choice(lo), rng.choice(hi)
            if u != v:
                group_edges.add((min(u, v), max(u, v)))
        edges |= group_edges
    _write_graph(out, edges, _attributes(blocks))


def rerank_inputs(rng: random.Random, size: dict, out: Path) -> None:
    """Six-valued homophilic graph, held-out test edges, a score file and a skewed target."""
    blocks = _node_blocks(size["rerank_nodes"])
    attrs = _attributes(blocks)
    node_count = len(attrs)
    edges: set[tuple[int, int]] = set()
    while len(edges) < size["rerank_edges"]:
        u = rng.randrange(node_count)
        v = rng.choice(blocks[attrs[u]]) if rng.random() < 0.6 else rng.randrange(node_count)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    _write_graph(out, edges, attrs)

    test = set(rng.sample(sorted(edges), round(len(edges) * size["rerank_test_share"])))
    with open(out / "test.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{v}\n" for u, v in sorted(test))

    scores = {pair: rng.gauss(1.0, 1.0) for pair in sorted(test)}
    while len(scores) < size["rerank_candidates"]:
        u, v = rng.randrange(node_count), rng.randrange(node_count)
        pair = (min(u, v), max(u, v))
        if u != v and pair not in edges and pair not in scores:
            scores[pair] = rng.gauss(0.0, 1.0)
    with open(out / "scores.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{v}\t{s!r}\n" for (u, v), s in sorted(scores.items()))

    counts: dict[str, int] = {}
    for u, v in scores:
        label = _label(attrs[u], attrs[v])
        counts[label] = counts.get(label, 0) + 1
    weights = {label: c**RERANK_TARGET_SKEW for label, c in sorted(counts.items())}
    total = sum(weights.values())
    target = {label: w / total for label, w in weights.items()}
    (out / "target.json").write_text(json.dumps(target, sort_keys=True) + "\n", encoding="utf-8")


def certify_inputs(rng: random.Random, size: dict, out: Path) -> None:
    """Positive three-group targets for the oracle, and the gap targets to cycle."""
    targets = []
    for _ in range(CERTIFY_TARGETS):
        weights = [rng.uniform(0.05, 1.0) for _ in range(3)]
        total = sum(weights)
        targets.append({label: w / total for label, w in zip(("0-0", "0-1", "1-1"), weights)})
    payload = {
        "counts": size["certify_counts"],
        "oracle_targets": targets,
        "gap_targets": [dict(name=name, target=props) for name, props in REFERENCE_PROPORTIONS],
    }
    (out / "targets.json").write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


GENERATORS = {
    "pipeline_binary": pipeline_inputs,
    "rerank_multigroup": rerank_inputs,
    "certify": certify_inputs,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[args.workload](random.Random(args.seed), SIZES[args.size], out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
