"""The benchmark tracer in perfbench/tracing.py rebinds fairlink functions by
name; renaming one of them breaks every traced benchmark run."""

import importlib.util
from pathlib import Path

from fairlink import pipeline, rerank

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    names = [(owner, attr) for owner, attr, *_ in tracing.SPANS + tracing.COUNTERS]
    originals = [getattr(owner, attr) for owner, attr in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(names, originals):
            assert getattr(owner, attr) is not original, f"{attr} was not rebound"
        # The pipeline reaches the merge through the name the tracer spans.
        assert pipeline.kl_greedy_merge is rerank.kl_greedy_merge
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(names, originals):
        assert getattr(owner, attr) is original, f"{attr} was not restored"
