"""One repetition of one workload in a fresh process.

Run by ``perfbench/run.py``; prints one JSON object on its last line of
standard output.  ``--t0`` is the monotonic clock reading taken just before
this process was spawned, so set-up time covers interpreter start, imports,
bootstrap, key generation and client deployment up to the entry of
``Simulator.run``.  Host times leave out the reference chunks run between
simulation slices; ``scale`` converts them to reference seconds (see
``reference.py``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Simulated seconds between reference chunks.
SLICE_S = 0.05
#: Reference chunks run at ``Simulator.run`` entry, before the first slice.
LEAD_CHUNKS = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    import measure
    import reference
    import workloads
    from repro.bench import harness
    from repro.obs.audit import AuditError
    from repro.sim.engine import Simulator

    marks: dict[str, float] = {}
    chunks: list[float] = []
    inner_run = Simulator.run

    def sliced_run(sim, until):
        """``Simulator.run(until)`` in slices of :data:`SLICE_S` simulated
        seconds with a reference chunk after each.  Stopping at a slice
        boundary and resuming executes the same events in the same order;
        the chunks' time is left out of every host time reported."""
        marks["enter"] = time.monotonic()
        chunks.extend(reference.chunk() for _ in range(LEAD_CHUNKS))
        start = sim.now
        for index in itertools.count(1):
            step_end = min(until, start + index * SLICE_S)
            inner_run(sim, until=step_end)
            chunks.append(reference.chunk())
            if step_end >= until or sim.now < step_end:
                break
        marks["exit"] = time.monotonic()

    Simulator.run = sliced_run
    workload = workloads.build(args.workload, args.seed, audited=bool(args.trace))
    started = time.monotonic()
    try:
        result = harness.run(workload.scenario)
    except AuditError as exc:
        return _fail(f"audit violation: {exc}")
    finished = time.monotonic()
    traced = tracer.snapshot() if tracer is not None else None
    try:
        sim = measure.sim_metrics(result, workload.crash_at)
    except measure.CheckFailed as exc:
        return _fail(str(exc))
    out = {
        "ok": True,
        "sim": sim,
        "host": {
            "wall_s": finished - started - sum(chunks),
            "setup_s": marks["enter"] - args.t0,
            "sim_run_s": marks["exit"] - marks["enter"] - sum(chunks),
            "build_s": marks["enter"] - started,
            "measure_s": finished - marks["exit"],
            "scale": reference.NOMINAL_CHUNK_S * len(chunks) / sum(chunks),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if traced is not None:
        # The reference chunks ran inside the ``harness.run`` span.
        traced["layers"]["bench"]["self_s"] -= sum(chunks)
        out["trace"] = traced
        out["report"] = measure.report_metrics(result.report or {})
        if args.spans:
            with open(args.spans, "w") as handle:
                json.dump(tracer.spans, handle)
    print(json.dumps(out))
    return 0


def _fail(message: str) -> int:
    print(json.dumps({"ok": False, "error": message}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
