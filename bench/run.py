"""Benchmark of folgerm: one workload per run, measured in a fresh process.

Usage, from the root of the repository:

    python3 bench/run.py --workload germ-corpus --seed 1 --seconds 30 --trace 0

This process generates the workload's inputs from the seed (admitting
random candidates with sympy), writes them as problem documents under
``bench/out/``, then starts ``bench/worker.py`` to measure them.  Only the
worker is measured, so neither sympy's import nor input generation reaches
``setup_s`` or ``peak_rss_mb``.  Extra worker processes that only set up
give more ``setup_s`` samples; the median is reported.  After the worker,
the residuals of certified irrational stops are tested for rational roots.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import inputs  # noqa: E402
import timing  # noqa: E402

SETUP_SAMPLES = 11
DEADLINE_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _worker(spec_path, result_path, deadline, setup_only=False):
    command = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path, result_path]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = max(1.0, deadline - time.monotonic())
    done = subprocess.run(command, env=env, timeout=remaining, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def _write_inputs(out, workload, seed, seconds, trace):
    built = inputs.build(workload, seed)
    docs_dir = os.path.join(out, "docs")
    os.makedirs(docs_dir)
    documents = {}
    for name, text in built["documents"].items():
        path = os.path.join(docs_dir, f"{name}.fol")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        documents[name] = path
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "budget_s": built["budget_s"],
        "src": os.path.join(ROOT, "src"),
        "out": out,
        "documents": documents,
        "ops": built["ops"],
    }
    spec_path = os.path.join(out, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle, indent=1)
    return spec, spec_path


def _failures(spec, result):
    """Op id -> reason, for the checks that fail every attempt of an op."""
    reasons = {op_id: "; ".join(found) for op_id, found in result["oracle_problems"].items()}
    for residual, op_ids in result["residuals"].items():
        if inputs.has_rational_root(residual):
            for op_id in op_ids:
                reasons[op_id] = f"certified irrational residual {residual} has a rational root"
    return reasons


def summarize(spec, result):
    """Per-op times and failure, per-pass walls, and the failure lines.

    Times are scaled to the reference speed: each elapsed time is multiplied
    by ``REFERENCE_S`` over the mean timing of ``timing.reference()`` in its
    pass (the mean, because slow spells come in bursts that a median would
    hide).  A stalled op keeps its elapsed time, the budget.  An op fails in a pass when it raised, ran past the budget or
    failed a check; the oracle and residual checks fail every attempt of
    their op.
    """
    op_reasons = _failures(spec, result)
    faults = {op["id"]: op.get("fault") for op in spec["ops"]}
    per_op = {op["id"]: {"times": [], "failed": False} for op in spec["ops"]}
    attempts, walls, lines = [], [], {}
    for run in result["passes"]:
        speed = timing.REFERENCE_S / statistics.mean(r["reference"] for r in run["ops"])
        times = [
            r["elapsed"] if r["error"] == "timeout" else speed * r["elapsed"] for r in run["ops"]
        ]
        walls.append((sum(times), run["traced"]))
        for record, elapsed in zip(run["ops"], times):
            op_id = record["id"]
            problems = "; ".join(record.get("problems") or [])
            reason = record["error"] or problems or op_reasons.get(op_id)
            per_op[op_id]["times"].append(elapsed)
            per_op[op_id]["failed"] |= bool(reason)
            attempts.append(bool(reason))
            if reason:
                kept = f"kept fault: {faults[op_id]}" if faults[op_id] else "unexpected"
                line = f"  failed {op_id}: {reason} ({kept})"
                lines[line] = lines.get(line, 0) + 1
    return per_op, attempts, walls, lines


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result, per_op, setup_samples):
    """Each op's time is its median over the passes, which filters bursts of
    load on the machine; ``wall_s`` sums those medians over one pass."""
    ops = [(statistics.median(o["times"]), o["failed"]) for o in per_op.values()]
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "wall_s": _metric(sum(t for t, _ in ops), "s"),
        "op_p50_s": _metric(timing.nearest_rank(ops, 0.5), "s"),
        "op_p90_s": _metric(timing.nearest_rank(ops, 0.9), "s"),
        "slowest_op_s": _metric(timing.slowest(ops), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


def per_layer(result, walls):
    """The per-layer metrics that BENCHMARK.json lists, with its units.

    ``trace.overhead_s`` is the traced passes' median wall time minus the
    untraced passes' median; the two kinds of pass alternate.
    """
    values = dict(result["layer"])
    untraced = statistics.median(w for w, traced in walls if not traced)
    values["trace.wall_s"] = statistics.median(w for w, traced in walls if traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = json.load(handle)["per_layer"]
    return {m["name"]: _metric(values[m["name"]], m["unit"]) for m in listed}


def main(argv=None):
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "folgerm", "cli.py")):
        print(f"error: no folgerm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    out = os.path.join(BENCH_DIR, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    spec, spec_path = _write_inputs(out, args.workload, args.seed, args.seconds, args.trace)
    setup_samples = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            probe = _worker(spec_path, os.path.join(out, f"setup{i}.json"), deadline, True)
            setup_samples.append(probe["setup_s"])
    result = _worker(spec_path, os.path.join(out, "result.json"), deadline)
    setup_samples.append(result["setup_s"])
    per_op, attempts, walls, lines = summarize(spec, result)
    failed = sum(attempts)
    print(
        f"{args.workload} seed {args.seed}: {len(walls)} passes of {len(spec['ops'])} ops, "
        f"{len(attempts)} attempted, {failed} failed"
    )
    for line, count in sorted(lines.items()):
        print(f"{line} [x{count}]")
    if result["nondeterministic"]:
        print(f"  reports differ between passes: {', '.join(result['nondeterministic'])}")
    if args.trace:
        metrics = per_layer(result, walls)
    else:
        metrics = end_to_end(result, per_op, setup_samples)
    print(
        json.dumps(
            {
                "correct": not result["nondeterministic"],
                "attempted": len(attempts),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
