"""hspstats benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.  The
workload runs in its own process (``worker.py``), which also times fresh
set-ups spread over the run; this process checks the outputs against
``reference.py`` and the method's properties, prints a summary, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer ones.  The full result
also goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKER_TIMEOUT_S = 150
# workers and the CLI calls they start import the program with the usual
# bytecode cache, whatever the caller's environment says
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def _worker(args):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    # its own session, so that a worker past its time is stopped with the
    # CLI calls and set-up copies it may have started
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=WORKER_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with status {proc.returncode}:\n{stderr}")
    return json.loads(stdout.splitlines()[-1])


def _quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def end_to_end(result):
    """metric -> (value, samples)."""
    setups = result["setups_s"]
    return dict(result["end_to_end"], setup_s=(statistics.median(setups), setups),
                peak_rss_mb=(result["peak_rss_mb"], [result["peak_rss_mb"]]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hspstats", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/hspstats is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    os.makedirs(OUT, exist_ok=True)

    result = _worker(args)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    from hspstats import records

    failures = checks.check(result, records.parse)
    for message in failures:
        print(f"CHECK FAILED: {message}")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {result['rounds']} rounds, "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"checks {'passed' if not failures else 'FAILED'}")
    e2e = end_to_end(result)
    print(f"  {'metric':<18} {'unit':<6} {'value':>14} {'q1':>14} {'median':>14} "
          f"{'q3':>14}  samples")
    for m in bench["end_to_end"]:
        value, samples = e2e[m["name"]]
        q1, median, q3 = _quartiles(samples)
        print(f"  {m['name']:<18} {m['unit']:<6} {value:14.6g} {q1:14.6g} {median:14.6g} "
              f"{q3:14.6g}  {len(samples)}")
    if args.trace:
        values = result["layers"]
        for layer, ms in result["layer_self_ms_per_round"].items():
            print(f"  self time per traced round  {layer:<12} {ms:12.3f} ms")
        print(f"  tracing overhead per round  {values['trace.overhead_s']:+.4f} s")
    else:
        values = {name: value for name, (value, _) in e2e.items()}

    missing = {m["name"] for m in declared} - set(values)
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    final = {
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"final": final, "check_failures": failures,
                   **{k: v for k, v in result.items() if k != "outputs"}}, fh)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
