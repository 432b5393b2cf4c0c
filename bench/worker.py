"""The measured process of one workload run.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json [--setup-only]``.

The clock of ``setup_s`` starts once this script's own imports are done, so
it counts importing folgerm and loading the workload's documents, and
neither interpreter start nor input generation (done earlier, by the
parent).  Then the worker runs whole passes over the ops, each op through
``folgerm.cli.main([cmd, doc, "--json"])`` in this process with stdout
captured in memory, under the per-op interval-timer budget, after a
garbage collection that keeps the previous op's garbage out of its time,
and next to a timing of ``timing.reference()``, the machine-speed probe.
It starts another pass only while that pass is expected to end within
``--seconds``.  With tracing, passes alternate untraced and traced, starting
untraced; the wrappers are installed only for the traced passes, and the
reports of all passes must be byte-identical.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import polys  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402

SETUP_START = time.perf_counter()


def _setup(spec):
    sys.path.insert(0, spec["src"])
    import folgerm  # noqa: F401  (the package imports every layer)
    import folgerm.cli
    from folgerm.documents import parse_document

    paths = {}
    for name, path in spec["documents"].items():
        with open(path, encoding="utf-8") as handle:
            parse_document(handle.read())
        paths[name] = path
    return folgerm.cli, paths


def _run_op(cli, op, path, budget_s):
    out = io.StringIO()
    err = io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main([op["cmd"], path, "--json"])

    gc.collect()
    reference = timing.reference()
    elapsed, exit_code, error = timing.timed(call, budget_s)
    return elapsed, reference, exit_code, error, out.getvalue(), err.getvalue()


def _pass(cli, spec, paths, recorder, results):
    """One pass over every op; returns per-op records."""
    records = []
    seen = {}
    for op in spec["ops"]:
        recorder.op = op["id"]
        elapsed, reference, exit_code, error, text, errors = _run_op(
            cli, op, paths[op["doc"]], spec["budget_s"]
        )
        recorder.op = None
        record = {"id": op["id"], "elapsed": elapsed, "reference": reference, "error": error}
        if error is None:
            try:
                report = json.loads(text)
            except ValueError:
                report = None
            record["problems"] = checks.check(op, exit_code, report, seen)
            if not isinstance(report, dict) and errors:
                record["problems"].append(errors.strip().splitlines()[-1])
            residual = checks.residual_claims(op, report)
            if residual is not None:
                results["residuals"].setdefault(residual, []).append(op["id"])
            previous = results["reports"].setdefault(op["id"], text)
            if previous != text:
                results["nondeterministic"].append(op["id"])
        records.append(record)
    return records


def _oracle_checks(spec):
    """Closed forms confirmed by the truncated-series route, outside timing.

    ``stabilized_macaulay_dim`` shares no code with the Mora quotients and
    dense operators that the timed ops use.
    """
    from folgerm.localalg import stabilized_macaulay_dim as dim
    from folgerm.polynomials import Poly

    def poly(rows):
        return Poly(2, polys.from_json(rows))

    problems = {}
    for op in spec["ops"]:
        expect = op["expect"]
        found = []
        if expect["kind"] == "fk":
            k = expect["k"]
            P, Q, g = poly(expect["P"]), poly(expect["Q"]), poly(expect["zero"])
            mu = dim([P, Q])
            if mu != k * (2 * k - 1):
                found.append(f"oracle mu {mu} != k(2k-1)")
            if dim([P, Q, g]) != 3 * k - 2:
                found.append("oracle tau != 3k - 2")
            if not dim([P, Q, g * g]) < mu:
                found.append("oracle puts g^2 inside (P, Q)")
        elif expect["kind"] == "hamiltonian" and "mu" in expect:
            f = poly(expect["f"])
            if dim([f.diff(0), f.diff(1)]) != expect["mu"]:
                found.append("oracle mu differs from n(n-1)")
            if dim([f, f.diff(0), f.diff(1)]) != expect["tau"]:
                found.append("oracle tau differs from mu - 1")
        if found:
            problems[op["id"]] = found
    return problems


def main(argv):
    spec_path, result_path = argv[:2]
    setup_only = "--setup-only" in argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    cli, paths = _setup(spec)
    setup_s = time.perf_counter() - SETUP_START
    if setup_only:
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump({"setup_s": setup_s}, handle)
        return 0

    recorder = tracing.Recorder()
    results = {"reports": {}, "residuals": {}, "nondeterministic": []}
    passes = []
    layer = []
    spans = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = spec["trace"] and len(passes) % 2 == 1
        recorder.spans = []
        undo = tracing.install(recorder) if traced else []
        began = time.perf_counter()
        records = _pass(cli, spec, paths, recorder, results)
        longest = max(longest, time.perf_counter() - began)
        tracing.uninstall(undo)
        passes.append({"traced": traced, "ops": records})
        if traced:
            layer.append(tracing.layer_metrics(recorder.spans))
            spans.append((len(passes), recorder.spans))
        elapsed = time.perf_counter() - start
        if spec["trace"] and len(passes) < 2:
            continue
        if elapsed + longest > spec["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans:
        _write_spans(os.path.join(spec["out"], "spans.jsonl"), spans)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "oracle_problems": _oracle_checks(spec),
        "residuals": results["residuals"],
        "nondeterministic": sorted(set(results["nondeterministic"])),
        "layer": {
            key: statistics.median(m[key] for m in layer) for key in (layer[0] if layer else {})
        },
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _write_spans(path, passes):
    """One JSON line per span: pass, name, start, end, parent, op id, note."""
    with open(path, "w", encoding="utf-8") as handle:
        for number, spans in passes:
            for name, start, end, parent, op, key, flag in spans:
                handle.write(json.dumps([number, name, start, end, parent, op, flag]) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
