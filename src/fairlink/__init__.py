"""Group-exposure fairness evaluation and re-ranking for link prediction.

The package turns per-group scored candidate lists into a single ranking
whose prefix group proportions track a target distribution, and measures
how far any ranking drifts from that target with a rank-discounted KL
divergence, alongside standard utility metrics and demographic-parity
diagnostics. An exact count-lattice oracle certifies the greedy merge;
the block ordering is a heuristic lower bound on the worst case.

Every public name is imported from the module that defines it, for
example ``from fairlink.graphs import load_graph``; ``import fairlink``
itself loads no submodule.
"""

__version__ = "0.1.0"
