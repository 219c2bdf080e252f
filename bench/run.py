"""Benchmark for sepcode: certify, trace and CLI workloads.

One workload run (the form the benchmark contract prescribes):

    python3 bench/run.py --workload cli-q100 --seed 1 --seconds 35 --trace 0

sets the workload up several times, then runs a closed loop of requests
for ``--seconds``, checking every output.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it, ``detail: {...}``, holds
the machine facts, the seed, the stages skipped as over budget, the raw
times and, in a traced run, the traced end-to-end numbers.

The host's speed moves by up to twice within seconds and for minutes at a
time, so the gated times are scaled to a reference speed (see
reference.py): the run times one pass of a fixed reference task before
each step of a request and around each set-up, and multiplies what it
measured by ``REFERENCE_MS`` over the passes taken beside it.  Two runs of
the same code reproduce the scaled times where the raw ones can differ by
half:

* ``request_ref_p50_ms``: the median request, scaled by the mean of the
  passes taken before its steps;
* ``setup_s``: the median set-up, scaled by the passes taken just before
  and just after it;
* ``peak_rss_mb``: the process's peak resident memory.

The request median and tail (``certify_s``, ``trace_p50_ms``,
``trace_tail_ms``, ``pipeline_s``) are printed as measured, ungated.

The traced run replays its first requests with the same seed and stops
with an error if any deterministic counter differs.

With no ``--workload`` the script runs every workload untraced and traced,
each in its own process, and prints every metric, the tracing overhead and
the share of each request the traced layers account for.  ``--smoke`` does
the same at q = 4 in seconds and checks that every metric is printed with
its unit.

sepcode is imported from ``src/`` of the checkout this script sits in; the
script refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import REFERENCE_MS, probe
from tracer import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUITE_SECONDS = 35
SMOKE_SECONDS = 1
# The run sets up SETUP_REPEATS times before the first request, plus once
# after each request whenever set-up costs under SETUP_SHARE of a request.
SETUP_REPEATS = 5
SETUP_SHARE = 0.1

# (name, unit): the end-to-end metrics of every untraced run.  The request
# median and tail are printed but not among them: the host's speed moves
# them by more than any useful bound, and a run holds too few requests for
# a percentile above the median with ten samples beyond it.
END_TO_END = (
    ("request_ref_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, source kind, source name): the per-layer metrics of every
# traced run.  "total" and "self" are span times, the median over the
# records (requests and set-ups) that call the layer; "count" sums a counter
# over the replayed request prefix and "peak" takes its maximum there.
PER_LAYER = (
    ("verify.is_ssc_s", "s", "total", "verify.is_ssc"),
    ("verify.is_ssc_bin_s", "s", "total", "verify.is_ssc_bin"),
    ("verify.is_sc_s", "s", "total", "verify.is_sc"),
    ("verify.is_sc_bin_s", "s", "total", "verify.is_sc_bin"),
    ("verify.is_fpc_s", "s", "total", "verify.is_fpc"),
    ("verify.forbidden_type_scan_s", "s", "total", "verify.forbidden_type_scan"),
    ("verify.desc_cap_bound_s", "s", "total", "verify.desc_cap_bound"),
    ("verify.shortened_sc_check_s", "s", "total", "verify.shortened_sc_check"),
    ("codes.captured_s", "s", "self", "codes.captured"),
    ("codes.descendant_s", "s", "self", "codes.descendant"),
    ("verify.coalitions", "count", "count", "verify.coalitions"),
    ("verify.max_capture", "count", "peak", "verify.max_capture"),
    ("trace.ssc_trace_ms", "ms", "total", "trace.ssc_trace"),
    ("trace.ops", "count", "count", "trace.ops"),
    ("trace.candidates", "count", "count", "trace.candidates"),
    ("trace.lacc_identify_ms", "ms", "total", "trace.lacc_identify"),
    ("trace.identified_ratio", "ratio", "ratio", ("trace.identified", "trace.requests")),
    ("trace.beyond_t_not_overflow", "count", "count", "trace.beyond_t_not_overflow"),
    ("simulate.make_context_s", "s", "total", "simulate.make_context"),
    ("simulate.detect_ms", "ms", "total", "simulate.detect"),
    ("construct.build_length3_s", "s", "total", "construct.build_length3"),
    ("construct.one_hot_compose_s", "s", "total", "construct.one_hot_compose"),
    ("codes.validate_s", "s", "total", "codes.validate"),
    ("codes.read_s", "s", "total", "codes.read"),
    ("codes.write_s", "s", "total", "codes.write"),
    ("codes.bytes_read", "bytes", "count", "codes.bytes_read"),
    ("codes.bytes_written", "bytes", "count", "codes.bytes_written"),
    ("cli.construct_s", "s", "total", "cli.construct"),
    ("cli.compose_s", "s", "total", "cli.compose"),
    ("cli.simulate_s", "s", "total", "cli.simulate"),
    ("cli.trace_s", "s", "total", "cli.trace"),
)


def machine_facts(blas_cap: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_thread_cap": blas_cap,
    }


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile): the highest percentile with ten samples beyond it.

    None when there are too few samples for one.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while a reference pass took ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_MS / (1000 * probe_s)


def end_to_end(latencies, scaled, setups, scaled_setups, probes) -> dict:
    """The run's end-to-end numbers; see the module docstring for the gated ones."""
    found = tail(latencies)
    return {
        "request_ref_p50_ms": 1000 * statistics.median(scaled),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "request_p50_ms": 1000 * statistics.median(latencies),
        "request_tail_ms": 1000 * found[0] if found else None,
        "tail_percentile": found[1] if found else None,
        "samples": len(latencies),
        "latencies_ms": [round(1000 * x, 3) for x in latencies],
        "setup_median_raw_s": statistics.median(setups),
        "setup_samples": len(setups),
        "probe_p50_ms": 1000 * statistics.median(probes),
        "probes": len(probes),
    }


def per_layer(records, prefix) -> dict:
    values = {}
    for name, unit, kind, source in PER_LAYER:
        scale = 1000 if unit == "ms" else 1
        if kind in ("total", "self"):
            times = [
                rec.total(source) if kind == "total" else rec.self_time(source)
                for rec in records
                if source in rec.spans
            ]
            values[name] = scale * statistics.median(times) if times else 0.0
        elif kind == "count":
            values[name] = sum(rec.counts.get(source, 0) for rec in prefix)
        elif kind == "peak":
            values[name] = max((rec.peaks.get(source, 0) for rec in prefix), default=0)
        else:
            hits, base = (sum(rec.counts.get(s, 0) for rec in prefix) for s in source)
            values[name] = hits / base if base else 0.0
    return values


def _counters(records) -> list:
    return [(dict(rec.counts), dict(rec.peaks)) for rec in records]


def run_workload(wl, seed: int, seconds: float, traced: bool) -> tuple[dict, list]:
    from workloads import install_patches

    tr = Tracer() if traced else NullTracer()
    if traced:
        install_patches(tr)
    attempted = failed = 0
    latencies: list[float] = []
    scaled: list[float] = []
    probes: list[float] = []
    lines: list[str] = []

    def request(i: int) -> None:
        nonlocal attempted, failed
        tr.begin("request")
        attempted += 1
        try:
            stages, failures = wl.request(state, i, seed, tr)
        except Exception:
            traceback.print_exc()
            failed += 1
            return
        if failures:
            failed += 1
            lines.append(f"request {i} failed: {'; '.join(failures)}")
        latencies.append(sum(stages.times.values()))
        scaled.append(at_reference(latencies[-1], statistics.fmean(stages.probes)))
        probes.extend(stages.probes)

    setups: list[float] = []
    scaled_setups: list[float] = []
    state = None

    def set_up() -> None:
        nonlocal state
        if state is not None:
            wl.teardown(state)
            state = None
        before = probe()
        tr.begin("setup")
        start = time.perf_counter()
        state = wl.setup(tr, seed)
        setups.append(time.perf_counter() - start)
        probes.extend((before, probe()))
        scaled_setups.append(at_reference(setups[-1], statistics.fmean(probes[-2:])))

    try:
        for _ in range(SETUP_REPEATS):
            set_up()
        start = time.perf_counter()
        i = 0
        while i < wl.count_prefix or time.perf_counter() - start < seconds:
            request(i)
            i += 1
            if latencies and statistics.median(setups) < SETUP_SHARE * statistics.median(latencies):
                set_up()
        if not latencies:
            raise SystemExit("error: every request failed")
        result = end_to_end(latencies, scaled, setups, scaled_setups, probes)

        if traced:
            requests = [rec for rec in tr.records if rec.phase == "request"]
            prefix = requests[: wl.count_prefix]
            measured = list(tr.records)
            for i in range(wl.count_prefix):
                request(i)
            replay = tr.records[len(measured):]
            if _counters(prefix) != _counters(replay):
                raise SystemExit(
                    "error: counters differ between two runs of the same seed:\n"
                    f"  first:  {_counters(prefix)}\n  replay: {_counters(replay)}"
                )
            result = {"traced_end_to_end": result, "per_layer": per_layer(measured, prefix)}
    finally:
        if state is not None:
            wl.teardown(state)
        tr.unpatch()
    result.update(attempted=attempted, failed=failed)
    return result, lines


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def one_run(args, wl) -> int:
    traced = bool(args.trace)
    result, lines = run_workload(wl, args.seed, args.seconds, traced)
    attempted, failed = result["attempted"], result["failed"]

    print(f"workload {wl.name} (q={wl.q}) seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in lines:
        print(line)
    if traced:
        e2e = result["traced_end_to_end"]
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit, _, _ in PER_LAYER
        }
    else:
        e2e = result
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"{name} {fmt(metric['value'])} {metric['unit']}")
    if not traced:
        if wl.alias == "trace_p50_ms":
            print(f"trace_p50_ms {fmt(e2e['request_p50_ms'])} ms")
            if e2e["request_tail_ms"] is None:
                print(f"trace_tail_ms n/a ms (only {e2e['samples']} requests)")
            else:
                print(
                    f"trace_tail_ms {fmt(e2e['request_tail_ms'])} ms"
                    f" (p{e2e['tail_percentile']:.4g} of {e2e['samples']} requests)"
                )
        else:
            print(f"{wl.alias} {fmt(e2e['request_p50_ms'] / 1000)} s (median of {e2e['samples']})")
    print(f"fail_ratio {fmt(failed / attempted)} ratio ({failed} of {attempted})")
    for skip in wl.skipped:
        print(f"skipped: {skip['stage']}: {skip['reason']}")
    detail = {
        "workload": wl.name,
        "q": wl.q,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(args.blas_cap),
        "skipped": wl.skipped,
        "end_to_end": e2e,
    }
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def suite(args, workloads: dict) -> int:
    """Every workload untraced and traced, one process each; a summary."""
    printed: list[str] = []

    def say(line: str = "") -> None:
        printed.append(line)
        print(line, flush=True)

    ok = True
    for name in workloads:
        runs = {}
        for trace_flag in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace_flag),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            out = proc.stdout.splitlines()
            for line in out[:-1]:
                if not line.startswith("detail: "):
                    say(line)
            if proc.returncode != 0 or not out:
                say(f"{name} trace {trace_flag}: exit {proc.returncode}")
                ok = False
                break
            result = json.loads(out[-1])
            detail = json.loads(next(l for l in out if l.startswith("detail: "))[8:])
            ok = ok and result["correct"]
            runs[trace_flag] = (result, detail)
        else:
            untraced = runs[0][1]["end_to_end"]
            traced_e2e = runs[1][1]["end_to_end"]
            layer = {k: v["value"] for k, v in runs[1][0]["metrics"].items()}
            say(f"summary {name}")
            for metric, unit in END_TO_END[:2]:
                delta = traced_e2e[metric] - untraced[metric]
                say(
                    f"  tracing overhead {metric} {fmt(delta)} {unit}"
                    f" ({fmt(100 * delta / untraced[metric])} %)"
                )
            p50_s = traced_e2e["request_p50_ms"] / 1000
            for label, share_s in _shares(name, layer):
                say(f"  {label} {fmt(100 * share_s / p50_s)} % of the traced request median")
            say()
    if args.smoke:
        ok = _check_printed(printed) and ok
    say("suite " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _shares(name: str, layer: dict) -> list[tuple[str, float]]:
    if name == "certify-q12":
        verifiers = sum(layer[m] for m, unit, _, _ in PER_LAYER
                        if m.startswith("verify.") and unit == "s")
        return [("verify.* rows", verifiers), ("codes.captured_s", layer["codes.captured_s"])]
    if name == "trace-q100":
        return [("trace.ssc_trace_ms", layer["trace.ssc_trace_ms"] / 1000)]
    stages = sum(layer[m] for m in ("cli.construct_s", "cli.compose_s", "cli.simulate_s", "cli.trace_s"))
    return [("cli.* rows", stages), ("codes.read_s", layer["codes.read_s"])]


def _check_printed(printed: list[str]) -> bool:
    """Every metric, by name and unit, in the printed lines and BENCHMARK.json."""
    expected = dict(END_TO_END)
    expected.update((name, unit) for name, unit, _, _ in PER_LAYER)
    aliases = {"certify_s": "s", "trace_p50_ms": "ms", "trace_tail_ms": "ms",
               "pipeline_s": "s", "fail_ratio": "ratio"}
    ok = True
    for name, unit in {**expected, **aliases}.items():
        pattern = re.compile(rf"^{re.escape(name)} \S+ {re.escape(unit)}\b")
        if not any(pattern.match(line) for line in printed):
            print(f"smoke: {name} not printed with unit {unit}")
            ok = False
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if declared != expected:
        print(f"smoke: BENCHMARK.json metrics differ from the script's: {declared}")
        ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="q = 4 instead of the table sizes")
    args = parser.parse_args(argv)

    if not (SRC / "sepcode" / "__init__.py").is_file():
        print(f"error: sepcode sources not found under {SRC}", file=sys.stderr)
        return 2
    # cap BLAS threads before numpy loads; load comes from this one process
    args.blas_cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_cap)
    sys.path.insert(0, str(SRC))
    import sepcode

    if not Path(sepcode.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported sepcode from {sepcode.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import make_workloads

    workloads = make_workloads(args.smoke, ROOT / ".bench_tmp")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else SUITE_SECONDS
    if args.workload is None:
        return suite(args, workloads)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    return one_run(args, workloads[args.workload])


if __name__ == "__main__":
    sys.exit(main())
