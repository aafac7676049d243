"""Share of ring50-consensus events spent after a wound run reached its floor.

    python3 perfbench/waste.py --seed 1

Replays the workload's replicates with the library, in chunks of CHUNK
events, and finds the first chunk end at which W is within 1e-6 of the
run's final winding floor. A stop at the floor would save every event
after that point.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from compassmodel import engine, topology  # noqa: E402
from compassmodel.opinion_space import ModelParams  # noqa: E402

from perfbench.workloads import ring_consensus  # noqa: E402

# A multiple of the W test interval: the engine's test countdown restarts
# with every run() call, so only then does the chunked replay make the same
# W tests, and stop at the same event, as the batch's single run.
CHUNK = 10 * engine.StopRule(max_events=1).w_check_interval


def replay(raw: dict) -> tuple[int, int, int]:
    """(wound runs, events, events after a wound run reached its floor)."""
    budget = raw["stop"]["max_events"]
    total = after_floor = wound = 0
    for i in range(raw["replicates"]):
        state = engine.new_simulation(
            topology.build_ring(raw["graph"]["n"]),
            engine.IidUniform(engine.derive_seed(raw["seed"], "init", i)),
            ModelParams(mu=raw["mu"]),
            stream=engine.PoissonStream(engine.derive_seed(raw["seed"], "stream", i)))
        trail = []
        while True:
            stop = engine.StopRule(max_events=min(budget, state.events_applied + CHUNK),
                                   w_below=raw["stop"]["w_below"])
            record = engine.run(state, stop=stop)
            trail.append((state.events_applied, record.terminal["W"]))
            if record.stop_reason == "w_below" or state.events_applied >= budget:
                break
        floor = 2.0 * round(trail[-1][1] / 2.0)
        total += state.events_applied
        if floor > 0.0:
            wound += 1
            reached = next(events for events, w in trail if w - floor < 1e-6)
            after_floor += state.events_applied - reached
    return wound, total, after_floor


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    raw = ring_consensus(args.seed).raw
    wound, total, after_floor = replay(raw)
    print(f"seed {args.seed}: {wound} of {raw['replicates']} runs wound; "
          f"{after_floor} of {total} events ({after_floor / total:.1%}) came after "
          f"a wound run was within 1e-6 of its floor (checked every {CHUNK} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
