"""SmartChain benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload smartchain-spend --seed 1 \\
        --seconds 20 --trace 0

The seed expands into :data:`SUB_SEEDS` scenario seeds.  ``--trace 0``
runs the workload untraced, one repetition per fresh process, cycling
through the scenario seeds until ``--seconds`` are spent (at least one
repetition each), and reports every end-to-end metric: the simulated ones
as means over the scenario seeds, each of which every repetition of that
seed must reproduce exactly, and the host ones as medians over the
repetitions, in reference seconds (``reference.py``: raw host seconds
scaled by the speed of a fixed reference workload interleaved with the
run, because a shared host's speed can drift by 2x within minutes).
``--trace 1`` alternates untraced repetitions, the reference for counters
and tracing overhead, with traced, audited ones (see ``tracer.py``), and
reports every per-layer metric.  Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed check exits
non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracer import FOCUS  # noqa: E402
from workloads import NAMES  # noqa: E402

#: Simulations per run.  A run's seed expands into this many scenario
#: seeds (:func:`scenario_seed`) and each simulated metric is their mean:
#: under a closed loop a seed can lock the replicas into one of a few
#: reply rhythms for the whole run (on ``dura-pipelined``, reply bursts
#: 16, 24 or 26 ms apart), so one simulation per seed is multimodal from
#: seed to seed.
SUB_SEEDS = 3
#: Untraced repetitions a ``--trace 0`` run makes at least: one per
#: scenario seed.
MIN_REPS = SUB_SEEDS
#: Every run ends well inside 180 s, whatever ``--seconds`` asks for.
HARD_LIMIT_S = 165.0

LAYERS = ("sim", "net", "consensus", "smr", "core", "ledger", "crypto",
          "storage", "apps", "clients", "obs")
PHASES = ("batch", "propose", "write", "accept", "execute", "body_write",
          "persist", "reply")

#: Per-entry span keys reported as ``<key>.calls`` / ``<key>.self_s``.
ENTRY_KEYS = tuple(dict.fromkeys(
    key for key in FOCUS.values() if key != "sim.run"))


class BenchError(Exception):
    """A repetition failed or the outputs did not check out."""


def listed_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every ``kind`` (``end_to_end`` or ``per_layer``)
    metric that ``BENCHMARK.json`` lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[kind]]


def scenario_seed(seed: int, rep: int) -> int:
    """Seed of the scenario that repetition ``rep`` of a run simulates."""
    return seed * SUB_SEEDS + rep % SUB_SEEDS


def spawn(workload: str, seed: int, trace: int, deadline: float,
          spans: str | None = None) -> dict:
    """Run one repetition in a fresh process and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    if spans:
        command += ["--spans", spans]
    started = time.monotonic()
    command += ["--t0", repr(started)]
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"repetition crashed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}") from None
    if proc.returncode != 0 or not out.get("ok"):
        raise BenchError(out.get("error") or proc.stderr[-4000:])
    out["process_s"] = time.monotonic() - started
    out["seed"] = seed
    return out


def same_simulation(reps: list[dict]) -> dict[int, dict]:
    """Every repetition of one scenario seed must simulate the same run.
    Returns the simulation of each scenario seed."""
    sims: dict[int, dict] = {}
    for rep in reps:
        sim = rep["sim"]
        first = sims.setdefault(rep["seed"], sim)
        if sim["sim_digest"] != first["sim_digest"]:
            raise BenchError(
                f"scenario seed {rep['seed']}: sim_digest differs between "
                f"repetitions: {first['sim_digest']} vs {sim['sim_digest']}")
        if sim["end_to_end"] != first["end_to_end"]:
            raise BenchError(f"scenario seed {rep['seed']}: simulated "
                             f"metrics differ between repetitions")
    return sims


def median_of(reps: list[dict], section: str, key: str) -> float:
    return statistics.median(rep[section][key] for rep in reps)


def scaled_median(reps: list[dict], key: str) -> float:
    """Median host time in reference seconds (see ``reference.py``)."""
    return statistics.median(rep["host"][key] * rep["host"]["scale"]
                             for rep in reps)


def untraced(workload: str, seed: int, seconds: float, started: float):
    deadline = started + HARD_LIMIT_S
    reps = [spawn(workload, scenario_seed(seed, 0), 0, deadline)]
    while True:
        typical = statistics.median(rep["process_s"] for rep in reps)
        elapsed = time.monotonic() - started
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
        if elapsed + 1.5 * typical > HARD_LIMIT_S:
            if len(reps) < MIN_REPS:
                raise BenchError(f"only {len(reps)} repetitions fit in "
                                 f"{HARD_LIMIT_S:.0f} s")
            break
        reps.append(spawn(workload, scenario_seed(seed, len(reps)), 0,
                          deadline))
    sims = list(same_simulation(reps).values())
    metrics = {name: statistics.fmean(sim["end_to_end"][name] for sim in sims)
               for name in sims[0]["end_to_end"]}
    metrics["wall_s"] = scaled_median(reps, "wall_s")
    metrics["host_tx_per_s"] = statistics.median(
        rep["sim"]["completed"] / (rep["host"]["sim_run_s"] * rep["host"]["scale"])
        for rep in reps)
    metrics["setup_s"] = scaled_median(reps, "setup_s")
    metrics["peak_rss_mb"] = median_of(reps, "host", "peak_rss_mb")
    return reps, metrics


def traced(workload: str, seed: int, seconds: float, started: float,
           spans: str | None):
    """Untraced and traced, audited repetitions, alternating, at least one
    of each.  Program counters come from the first untraced one: the run
    report and auditors make extra digest calls."""
    deadline = started + HARD_LIMIT_S
    runs: dict[int, list[dict]] = {0: [], 1: []}
    while True:
        trace = 0 if len(runs[0]) <= len(runs[1]) else 1
        if runs[0] and runs[1]:
            typical = statistics.median(rep["process_s"] for rep in runs[trace])
            elapsed = time.monotonic() - started
            if elapsed + typical > min(seconds, HARD_LIMIT_S - typical):
                break
        first_traced = trace == 1 and not runs[1]
        runs[trace].append(spawn(workload,
                                 scenario_seed(seed, len(runs[trace])),
                                 trace, deadline,
                                 spans if first_traced else None))
    base, reps = runs[0], runs[1]
    metrics: dict[str, float] = {}
    for section, keys in (("layers", LAYERS), ("entries", ENTRY_KEYS)):
        found = [(rep["trace"][section], rep["host"]["scale"]) for rep in reps]
        for key in keys:
            # Self times in reference seconds, like the end-to-end ones.
            metrics[f"{key}.self_s"] = statistics.median(
                entries.get(key, {}).get("self_s", 0.0) * scale
                for entries, scale in found)
            metrics[f"{key}.calls"] = found[0][0].get(key, {}).get("calls", 0)
    metrics.update(base[0]["sim"]["counts"])
    metrics.update({f"phase.{phase}.p50_ms": 0.0 for phase in PHASES})
    metrics.update(reps[0]["report"])
    metrics["bench.build_s"] = scaled_median(base, "build_s")
    metrics["bench.measure_s"] = scaled_median(base, "measure_s")
    metrics["trace.coverage_frac"] = statistics.median(
        rep["trace"]["coverage_frac"] for rep in reps)
    metrics["trace.overhead_frac"] = (scaled_median(reps, "wall_s")
                                      / scaled_median(base, "wall_s"))
    return base, reps, metrics


def print_layers(snapshot: dict) -> None:
    layers = snapshot["layers"]
    total = sum(entry["self_s"] for entry in layers.values()) or 1.0
    print(f"{'layer':<12}{'raw s':>10}{'share':>8}{'calls':>12}")
    for layer, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{layer:<12}{entry['self_s']:>10.3f}"
              f"{entry['self_s'] / total:>8.1%}{entry['calls']:>12}")
    print(f"spans recorded {snapshot['spans']} (+{snapshot['spans_dropped']} "
          f"beyond capacity), entry points wrapped {snapshot['wrapped']}, "
          f"imported names rebound {snapshot['rebound']}")
    if snapshot["skipped_modules"]:
        print(f"not traced (import failed): {snapshot['skipped_modules']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where --trace 1 writes the first traced "
                             "repetition's spans (name, start, end, parent) "
                             "as JSON; default .perfbench/spans-WORKLOAD-"
                             "SEED.json in the checkout")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            spans = os.path.abspath(args.spans or os.path.join(
                ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.json"))
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            base, reps, metrics = traced(args.workload, args.seed,
                                         args.seconds, started, spans)
            names = listed_metrics("per_layer")
        else:
            base, metrics = untraced(args.workload, args.seed, args.seconds,
                                     started)
            reps = []
            names = listed_metrics("end_to_end")
        sims = same_simulation(base + reps)
        missing = [name for name, _unit in names if name not in metrics]
        if missing:
            raise BenchError(f"listed metrics not produced: {missing}")
    except BenchError as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}",
              file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed}: {len(base)} untraced "
          f"and {len(reps)} traced repetitions in "
          f"{time.monotonic() - started:.1f} s")
    for scenario, sim in sims.items():
        simulated = ", ".join(f"{name} {value:.6g}"
                              for name, value in sim["end_to_end"].items())
        print(f"scenario seed {scenario}: sim_digest {sim['sim_digest']}, "
              f"window replies {sim['window_samples']}, beyond p99.9 "
              f"{sim['beyond_p999']}, submitted {sim['submitted']}, failed "
              f"{sim['failed']}, agreement positions checked "
              f"{sim['agreement_positions']}; {simulated}")
    if reps:
        print_layers(reps[0]["trace"])
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
    else:
        print(f"raw host medians: wall {median_of(base, 'host', 'wall_s'):.4f} s, "
              f"set-up {median_of(base, 'host', 'setup_s'):.4f} s; reference "
              f"scale {median_of(base, 'host', 'scale'):.4f}")
    for name, unit in names:
        print(f"{name:<36}{metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(rep["sim"]["submitted"] for rep in base + reps),
        "failed": sum(rep["sim"]["failed"] for rep in base + reps),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
