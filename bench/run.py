#!/usr/bin/env python3
"""latticejost benchmark: end-to-end metrics, per-layer spans, steadiness.

Run from the repository root:

    python3 bench/run.py --workload analyze-std --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all                  # each workload in its own process
    python3 bench/run.py --workload crosscheck --trace 1 # per-layer self times and counts
    python3 bench/run.py --workload analyze-ext --steady 5

Each workload is a closed loop with one client in one process; it passes
over whole blocks of its seeded input list for about --seconds.  End-to-end
metrics:

    setup_s         import latticejost plus the cold first op, median of
                    SETUP_PROBES fresh interpreters
    ops_per_s       successful ops per second spent in ops
    latency_p50_ms  nearest-rank percentiles over ops; each op counts at the
    latency_p90_ms  mean time of its kind and support length, a failed op
                    ranks last
    success_share   ops whose output matched the reference, over ops attempted
    peak_rss_mb     peak resident memory of the workload's process

Times are scaled to a reference host speed (see hostspeed.py), all but the
oracle's bisection; the raw figures are printed beside them.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The library is imported from ``src/`` next to this
directory and nowhere else; without it the benchmark exits with status 1
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("analyze-std", "analyze-ext", "crosscheck")
# One client in one process: a single BLAS thread keeps runs steady and stays
# within the core count of any machine.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60  # a probe takes about a second
CHILD_TIMEOUT_S = 600

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_share": "share",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "jost.jost_coefficients.ms": "ms",
    "jost.jost_coefficients.coeff_bits": "bits",
    "jost.rouche_margin.ms": "ms",
    "spectrum.find_zeros.ms": "ms",
    "spectrum.classify_zeros.errors": "count",
    "spectrum.norming_constants.ms": "ms",
    "spectrum.bound_state_scan.ms": "ms",
    "spectrum.bound_state_scan.found_share": "share",
    "laws.evaluate_laws.ms": "ms",
    "laws.check_sign_flip_symmetry.ms": "ms",
    "laws.evaluate_laws.false_verdicts": "count",
    "oracle.oracle_bound_states.ms": "ms",
    "oracle.match_energies.max_delta": "1",
    "probe.failed_share": "share",
    "trace.overhead_pct": "%",
}


def load_library() -> None:
    """Put the checkout's src/ first on sys.path and import latticejost from it."""
    src = ROOT / "src"
    if not (src / "latticejost" / "__init__.py").is_file():
        sys.exit(f"bench: no latticejost sources under {src}")
    sys.path.insert(0, str(src))
    import latticejost

    if Path(latticejost.__file__).resolve().parent != (src / "latticejost").resolve():
        sys.exit(f"bench: latticejost imported from {latticejost.__file__}, not {src}")


def keep_going(start: float, units: int, seconds: float) -> bool:
    """Whether one more unit of work (a block of inputs, or a pass over the
    traced ones) brings the run's length nearer to `seconds`.  Units end
    whole, so a run stops at the unit boundary nearest its deadline."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / units / 2 < seconds


def percentile(values: list[float], q: float, failed: list[bool] | None = None) -> float:
    """Nearest-rank percentile: a latency some operation actually had.

    A failed operation counts as missing any latency limit, so it ranks
    above every successful one whatever its own time.
    """
    ranked = sorted(zip(failed or [False] * len(values), values))
    return ranked[max(1, math.ceil(q * len(ranked))) - 1][1]


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) with statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[str, dict]:
    """Run this script in a fresh interpreter; return its stdout and last-line JSON."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one workload in this process


def setup_probe(name: str, seed: int) -> None:
    """Fresh-process set-up: import latticejost plus the cold first operation."""
    t0 = time.perf_counter()
    load_library()
    t1 = time.perf_counter()
    from latticejost import Potential
    from workloads import WORKLOADS, make_inputs, untraced_op

    w = WORKLOADS[name]
    V, cfg = Potential(make_inputs(w, seed)[0][0].values), w.config()
    t2 = time.perf_counter()
    try:
        untraced_op(w)(V, cfg)
    except Exception:  # a failing first op still pays its set-up
        pass
    t3 = time.perf_counter()
    import hostspeed

    hostspeed.kernel()
    factor = hostspeed.scale([hostspeed.sample() for _ in range(9)])
    print(json.dumps({"setup_s": ((t1 - t0) + (t3 - t2)) * factor}))


def _timed(op, V, cfg):
    """(seconds, seconds of them in the oracle's bisection, result, error)"""
    t = time.perf_counter()
    try:
        (result, bisection_s), error = op(V, cfg), None
    except Exception as exc:  # every failure is counted, none stops the loop
        result, bisection_s, error = None, 0.0, type(exc).__name__
    return time.perf_counter() - t, bisection_s, result, error


class Run:
    """Inputs, references and checks for one workload and seed."""

    def __init__(self, name: str, seed: int) -> None:
        from latticejost import Potential
        import workloads

        self.wl = workloads
        self.w = workloads.WORKLOADS[name]
        self.cfg = self.w.config()
        self.cases = [case for block in workloads.make_inputs(self.w, seed) for case in block]
        self.potentials = [Potential(case.values) for case in self.cases]
        self.probe = workloads.make_probe(self.w, seed)
        self._refs: dict[int, object] = {}
        self.kinds: Counter = Counter()  # (case label, check result) -> ops

    def warm_up(self) -> None:
        """Lazy imports and first-call set-up happen here, not in the timed loop."""
        _timed(self.wl.untraced_op(self.w), self.potentials[0], self.cfg)

    def reference(self, i: int):
        if i not in self._refs:
            self._refs[i] = self.wl.reference_for(self.cases[i])
        return self._refs[i]

    def outcome(self, result, error):
        return self.wl.Outcome(error=error) if error else self.wl.outcome_of(self.w, result)

    def check(self, i: int, outcome) -> str:
        """Check and tally one op's output against the reference for its input."""
        return self.tally(self.cases[i], outcome, self.reference(i))

    def tally(self, case, outcome, ref) -> str:
        kind = self.wl.check(outcome, ref)
        self.kinds[case.label, kind] += 1
        return kind

    def print_failures(self) -> None:
        for (label, kind), n in sorted(self.kinds.items()):
            if kind != self.wl.OK:
                print(f"  failed x{n}: {label}: {kind}")


def print_metrics(metrics: dict, units: dict, bounds: dict) -> None:
    for name, unit in units.items():
        bound = bounds.get(name)
        tail = f"  (bound {bound:.0%})" if bound is not None else ""
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}{tail}")


def benchmark_bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def measure(name: str, seed: int, seconds: float) -> None:
    """End-to-end metrics: whole blocks of the input list, in order and cycling,
    for about `seconds`."""
    load_library()
    import hostspeed

    run = Run(name, seed)
    setup = statistics.median(
        run_child(["--setup-probe", "--workload", name, "--seed", str(seed)],
                  SETUP_TIMEOUT_S)[1]["setup_s"]
        for _ in range(SETUP_PROBES)
    )
    op = run.wl.untraced_op(run.w)
    n = len(run.cases)
    run.warm_up()
    hostspeed.kernel()
    latencies, scaled, results = [], [], []
    block = len(run.w.block)
    start = time.perf_counter()
    # whole blocks, so that every run has the same mix of support lengths
    while (not results or len(results) % block
           or keep_going(start, len(results) // block, seconds)):
        dt, bisection_s, result, error = _timed(op, run.potentials[len(results) % n], run.cfg)
        # the host's speed drifts within a run too: each op is scaled by the
        # kernel samples taken right after it
        scaled.append(hostspeed.scaled(dt, bisection_s))
        latencies.append(dt)
        results.append((result, error))
    # outside the timed region: references and checks
    kinds = [run.check(k % n, run.outcome(*res)) for k, res in enumerate(results)]
    attempted = len(kinds)
    ok = kinds.count(run.wl.OK)
    busy = sum(latencies)
    factor = sum(scaled) / busy
    # One op's time says as much about the host's speed at that moment, and
    # about the solver iterations its potential happens to need, as about
    # its support length.  Each op counts at the mean time of the successful
    # ops of its kind and support length; the block mixes keep every
    # percentile inside one such group.
    failed = [kind != run.wl.OK for kind in kinds]
    by_group = defaultdict(list)
    for k, dt in enumerate(scaled):
        if not failed[k]:
            by_group[run.cases[k % n].label].append(dt)
    mean_of = {label: statistics.fmean(times) for label, times in by_group.items()}
    op_latency = [mean_of.get(run.cases[k % n].label, scaled[k]) for k in range(attempted)]
    metrics = {
        "setup_s": setup,
        "ops_per_s": ok / sum(scaled),
        "latency_p50_ms": percentile(op_latency, 0.5, failed) * 1e3,
        "latency_p90_ms": percentile(op_latency, 0.9, failed) * 1e3,
        "success_share": ok / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {name}  seed {seed}  closed loop, 1 client, blas_threads={BLAS_THREADS}")
    print(f"  {attempted} ops, {busy:.2f} s busy: {attempted / n:.2f} passes over {n} inputs; "
          f"failed {attempted - ok} (fail_share {(attempted - ok) / attempted:.4f})")
    print(f"  times scaled by {factor:.4f} on average to the reference host speed (raw: "
          f"{ok / busy:.4g} ops/s, p50 {percentile(latencies, 0.5, failed) * 1e3:.4g} ms, "
          f"p90 {percentile(latencies, 0.9, failed) * 1e3:.4g} ms); setup_s is the median "
          f"of {SETUP_PROBES} fresh processes")
    run.print_failures()
    print_metrics(metrics, END_TO_END, benchmark_bounds())
    correct = run.wl.N_OFF not in kinds
    print(result_line(correct, attempted, attempted - ok, metrics, END_TO_END))


def traced_call(traced, tracer, V, cfg, wl):
    try:
        return traced(tracer, V, cfg)
    except Exception as exc:  # counted as a failure, as untraced
        return wl.Outcome(error=type(exc).__name__)


def measure_traced(name: str, seed: int, seconds: float) -> None:
    """Per-layer metrics over the workload's first traced_blocks blocks.  Each
    input runs untraced and then traced, back to back, so that both see the
    same host speed; whole passes repeat for about `seconds`.  Counts are per
    pass and repeat exactly.  Then one traced pass over the probe, with its
    own tracer, gives the failure counts: classify_zeros errors, false
    verdicts, the scan's found share and the probe's failed share."""
    from tracing import Tracer

    load_library()
    import hostspeed

    run = Run(name, seed)
    op, traced = run.wl.untraced_op(run.w), run.wl.traced_op(run.w)
    tracer = Tracer()
    run.warm_up()
    hostspeed.kernel()
    untraced_s, untraced_wrong, kinds, kernel_times = 0.0, 0, [], []
    passes = 0
    traced_inputs = run.potentials[: len(run.w.block) * run.w.traced_blocks]
    start = time.perf_counter()
    while not passes or keep_going(start, passes, seconds):
        for i, V in enumerate(traced_inputs):
            dt, _, result, error = _timed(op, V, run.cfg)
            kernel_times += hostspeed.samples_after(dt)
            untraced_s += dt
            kind = run.wl.check(run.outcome(result, error), run.reference(i))
            untraced_wrong += kind == run.wl.N_OFF
            kinds.append(run.check(i, traced_call(traced, tracer, V, run.cfg, run.wl)))
        passes += 1

    from latticejost import Potential

    probe = Tracer()
    probe_kinds = []
    expected = found = 0  # the probe's bound states: by the reference, by the op
    for case in run.probe:
        ref = run.wl.reference_for(case)
        outcome = traced_call(traced, probe, Potential(case.values), run.cfg, run.wl)
        probe_kinds.append(run.tally(case, outcome, ref))
        expected += ref.n
        found += outcome.n
    probe_failed = len(probe_kinds) - probe_kinds.count(run.wl.OK)
    correct = (untraced_wrong == 0 and run.wl.N_OFF not in kinds
               and run.wl.N_OFF not in probe_kinds)

    self_times = tracer.self_times()
    factor = hostspeed.scale(kernel_times)

    def mean_ms(span: str) -> float:
        times = self_times.get(span, [])
        scale = 1.0 if span in run.wl.UNSCALED_SPANS else factor
        return statistics.fmean(times) * 1e3 * scale if times else 0.0

    def note_max(note: str) -> float:
        return max(tracer.notes.get(note, []), default=0)

    op_s = sum(tracer.durations("op"))
    metrics = {m: mean_ms(m[: -len(".ms")]) for m in PER_LAYER if m.endswith(".ms")}
    metrics.update({
        "jost.jost_coefficients.coeff_bits": note_max("jost.jost_coefficients.coeff_bits"),
        "spectrum.classify_zeros.errors": probe.errors("spectrum.classify_zeros"),
        "spectrum.bound_state_scan.found_share":
            found / expected if run.w.op == "crosscheck" and expected else 0.0,
        "laws.evaluate_laws.false_verdicts":
            sum(probe.notes.get("laws.evaluate_laws.false_verdicts", [])),
        "oracle.match_energies.max_delta": note_max("oracle.match_energies.max_delta"),
        "probe.failed_share": probe_failed / len(probe_kinds) if probe_kinds else 0.0,
        "trace.overhead_pct": 100.0 * (op_s - untraced_s) / untraced_s,
    })
    print(f"workload {name}  seed {seed}  traced: {passes} passes over {len(traced_inputs)} inputs")
    print("  wait: none; one thread, closed loop, no queue: every span is busy time")
    print(f"  raw span times below; the .ms metrics other than "
          f"{', '.join(run.wl.UNSCALED_SPANS)} are scaled by {factor:.4f} "
          f"to the reference host speed")
    print(f"  {'span':36s} {'calls':>6s} {'self ms/call':>13s} {'self s':>9s} {'share':>7s}")
    total = sum(sum(times) for times in self_times.values())
    for span, times in sorted(self_times.items(), key=lambda kv: -sum(kv[1])):
        print(f"  {span:36s} {len(times):6d} {statistics.fmean(times) * 1e3:13.3f} "
              f"{sum(times):9.3f} {sum(times) / total:7.1%}")
    print(f"  op spans {op_s:.3f} s against {untraced_s:.3f} s for the same ops untraced")
    print(f"  probe: {len(probe_kinds)} inputs on which the library fails today, traced once "
          f"and left out of attempted and failed; {probe_failed} failed")
    run.print_failures()
    print_metrics(metrics, PER_LAYER, {})
    failed = len(kinds) - kinds.count(run.wl.OK)
    print(result_line(correct, len(kinds), failed, metrics, PER_LAYER))


# ---------------------------------------------------------------------------
# several workloads or runs, each in its own process


def run_all(seed: int, seconds: float, trace: int) -> None:
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        out, res = run_child(["--workload", name, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)])
        print("".join(out.splitlines(keepends=True)[:-1]), end="")
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_steady(names: list[str], seed: int, seconds: float, runs: int) -> None:
    """Runs each workload `runs` times on seeds seed, seed+1, ... and prints
    every end-to-end metric's median and quartile spread beside its bound."""
    bounds = benchmark_bounds()
    steady = True
    for name in names:
        values: dict[str, list[float]] = {k: [] for k in END_TO_END}
        correct = True
        for k in range(runs):
            out, res = run_child(["--workload", name, "--seed", str(seed + k),
                                  "--seconds", str(seconds), "--trace", "0"])
            # the run's host-speed factor and raw figures
            print(f"  seed {seed + k}: {out.splitlines()[2].strip()}", flush=True)
            correct &= res["correct"]
            for metric in END_TO_END:
                values[metric].append(res["metrics"][metric]["value"])
        print(f"workload {name}: {runs} runs, seeds {seed}..{seed + runs - 1}, "
              f"all correct: {correct}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}  spread < bound/3")
        for metric, vals in values.items():
            med, q1, q3, spread = quartile_spread(vals)
            bound = bounds.get(metric, float("nan"))
            ok = spread < bound / 3
            steady &= ok or metric == "setup_s" and spread < bound
            print(f"  {metric:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{bound:6.0%}  {'yes' if ok else 'NO'}")
            print(f"    values: {' '.join(f'{v:.6g}' for v in vals)}")
    print(json.dumps({"steady": steady}))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="RUNS",
                        help="run each workload RUNS times (seeds seed..) and print spreads")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.steady == 1 or args.steady < 0:
        parser.error("--steady needs at least 2 runs")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    elif args.steady:
        names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
        run_steady(names, args.seed, args.seconds, args.steady)
    elif args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    elif args.trace:
        measure_traced(args.workload, args.seed, args.seconds)
    else:
        measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
