"""Test settings and graph helpers shared by the test modules.

Hypothesis draws its examples from a seed derived from each test, and keeps
no example database, so every run of the suite tries the same examples: a
rare float corner either fails every run or none. That is the `seeded`
profile, the default. `HYPOTHESIS_PROFILE=mutation` picks the same settings
without the shrink phase, so a mutated copy's failing example is reported
as found, in seconds, not after minutes of shrinking.

A probe measures the opinions, so a test that wants given gaps builds
opinions that carry them exactly, on the interval, where a gap is
op[head] - op[tail] and t - 0.0 is t (-0.0, NaN and the infinities too).
"""

import os

from hypothesis import Phase, settings

from compassmodel import Graph, graph_from_edges

settings.register_profile("seeded", derandomize=True, database=None)
settings.register_profile("mutation", settings.get_profile("seeded"),
                          phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "seeded"))


def comb(terms):
    """A graph and interval opinions whose gaps are the k terms, and 0.0:
    a spine path of k vertices at 0.0, and on each a tooth whose opinion is
    a term. No vertex has more than 3 edges, so a probe's second pass over
    tiny gaps stays linear in k."""
    k = len(terms)
    if not k:
        return Graph("custom", 1, ()), [0.0]
    spine = [(v, v + 1) for v in range(k - 1)]
    return (graph_from_edges(2 * k, spine + [(v, k + v) for v in range(k)], kind="comb"),
            [0.0] * k + [float(t) for t in terms])


def star(terms):
    """A graph and interval opinions whose gaps are the k terms, in order,
    all at one vertex: a star centred at 0.0, each leaf's opinion a term."""
    k = len(terms)
    return (graph_from_edges(k + 1, [(0, v) for v in range(1, k + 1)], kind="star"),
            [0.0] + [float(t) for t in terms])
