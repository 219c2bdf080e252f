"""The benchmark's three workloads, each with its own correctness checks.

Every workload is driven by one closed-loop client: request i starts when
request i-1 has finished and its outputs have been checked.  Request i is a
function of (seed, i) alone, so a replay of the same requests with the same
seed must reproduce every deterministic counter exactly.

* ``certify-q12`` decides strong 2-separability of the length-3 code at
  q = 12 and of its one-hot composition, every way the library offers.
  Verification dominates; ``trace`` and ``simulate`` do no work.
* ``trace-q100`` traces seeded coalitions through the noiseless averaging
  attack on the composed q = 100 code held in memory.  The tracers run the
  whole time; verification and file I/O do no work.
* ``cli-q100`` runs the command-line pipeline construct -> compose ->
  simulate --then-trace -> trace --algorithm fpc in-process on files.  Code
  file parsing and validation dominate.

A workload's ``q`` is a parameter only so that the smoke run can take every
path at q = 4 in seconds; the benchmark itself always runs the sizes above.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from reference import probe
from sepcode import cli, codes, construct, simulate, trace, verify

T = 2
ALPHA = 0.1
# coalition sizes cycled by the trace-q100 requests: three pairs, one
# singleton and one coalition beyond t in every five
COALITION_SIZES = (2, 2, 1, 2, 3)


def _request_rng(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}/{i}")


class Stages:
    """Times the blocking steps of one request, each inside its trace span.

    ``stages(name)`` is a context manager.  Before each step it runs one
    pass of the reference task, outside the span, so that every request
    carries readings of the host's speed taken while it ran.  ``times`` maps
    each step's name to its duration in seconds, in the order the steps
    ran; ``probes`` holds the reference passes, in seconds.
    """

    def __init__(self, tr):
        self.tr = tr
        self.times: dict[str, float] = {}
        self.probes: list[float] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        self.probes.append(probe())
        with self.tr.span(name):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.times[name] = time.perf_counter() - start


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _count_trace(tr, ops: int, candidates: int) -> None:
    tr.count("trace.ops", ops)
    tr.count("trace.candidates", candidates)


def _capture_hook(tr, args, result) -> None:
    tr.count("verify.coalitions")
    tr.peak("verify.max_capture", len(result))


def _read_hook(tr, args, result) -> None:
    tr.count("codes.bytes_read", os.path.getsize(args[0]))


def _write_hook(tr, args, result) -> None:
    tr.count("codes.bytes_written", os.path.getsize(args[0]))


def install_patches(tr) -> None:
    """Span the names one sepcode module calls in another, as it binds them.

    ``codes.Code`` is the name parse_code_text constructs through, so code
    file loads and the set-up's revalidation both show as codes.validate.
    """
    tr.patch(codes, "Code", "codes.validate")
    tr.patch(verify, "captured_indices", "codes.captured", _capture_hook)
    tr.patch(verify, "descendant", "codes.descendant")
    tr.patch(cli, "read_code_file", "codes.read", _read_hook)
    tr.patch(cli, "write_code_file", "codes.write", _write_hook)
    tr.patch(cli, "build_length3", "construct.build_length3")
    tr.patch(cli, "one_hot_compose", "construct.one_hot_compose")
    tr.patch(cli, "make_context", "simulate.make_context")
    for stage in ("embed", "averaging_attack", "correlate", "threshold"):
        tr.patch(cli, stage, "simulate.detect")
    tr.patch(cli, "ssc_trace", "trace.ssc_trace")
    tr.patch(cli, "lacc_identify", "trace.lacc_identify")


def _build_composed(tr, q: int):
    """Set-up shared by two workloads: build, compose, revalidate."""
    with tr.span("construct.build_length3"):
        code = construct.build_length3(q, construct.optimal_s(q).s)
    with tr.span("construct.one_hot_compose"):
        binary = construct.one_hot_compose(code)
    binary = codes.Code(binary.n, binary.M, binary.q, binary.words)
    return code, binary


class Certify:
    """Strong 2-separability of build_length3(q) and its composition."""

    name = "certify-q12"
    alias = "certify_s"
    count_prefix = 1

    def __init__(self, q: int):
        self.q = q
        self.skipped = [
            {
                "stage": "desc_cap_bound and forbidden_type_scan at q=100",
                "reason": "about 1.7 h each at the parent (extrapolated from 9.7 s at q=20)",
            },
            {
                "stage": "is_sc(t=2) at q=100",
                "reason": "63.3M subsets, above DEFAULT_SUBSET_CAP (10M): refused",
            },
        ]

    def setup(self, tr, seed: int):
        return _build_composed(tr, self.q)

    def teardown(self, state) -> None:
        pass

    def request(self, state, i: int, seed: int, tr):
        code, binary = state
        stages = Stages(tr)
        with stages("verify.is_ssc"):
            ssc = verify.is_ssc(code, T)
        with stages("verify.is_ssc_bin"):
            ssc_bin = verify.is_ssc(binary, T)
        with stages("verify.is_sc"):
            sc = verify.is_sc(code, T)
        with stages("verify.is_sc_bin"):
            sc_bin = verify.is_sc(binary, T)
        with stages("verify.is_fpc"):
            fpc = verify.is_fpc(code, T)
        with stages("verify.shortened_sc_check"):
            shortened = verify.shortened_sc_check(code)
        with stages("verify.forbidden_type_scan"):
            forbidden = verify.forbidden_type_scan(code)
        with stages("verify.desc_cap_bound"):
            cap = verify.desc_cap_bound(code)

        failures: list[str] = []
        q = self.q
        m = construct.predicted_size(q, construct.optimal_s(q).s)
        _check(failures, (code.n, code.M, code.q) == (3, m, q), "q-ary shape")
        _check(failures, (binary.n, binary.M, binary.q) == (3 * q, m, 2), "binary shape")
        for label, verdict in (
            ("is_ssc", ssc),
            ("is_ssc_bin", ssc_bin),
            ("is_sc", sc),
            ("is_sc_bin", sc_bin),
            ("shortened_sc_check", shortened),
            ("forbidden_type_scan", forbidden),
        ):
            _check(failures, verdict.holds, f"{label} does not hold")
        _check(failures, cap == 3, f"desc_cap_bound is {cap}, expected 3")
        witness = fpc.witness
        _check(
            failures,
            not fpc.holds and isinstance(witness, verify.FramingWitness),
            "is_fpc holds or has no framing witness",
        )
        if isinstance(witness, verify.FramingWitness):
            members = [code.words[k] for k in witness.coalition]
            framed = code.words[witness.framed]
            _check(
                failures,
                witness.framed not in witness.coalition
                and codes.descendant(members).contains(framed),
                "framing witness does not re-check",
            )
        return stages, failures


class Trace:
    """Seeded coalitions through embed -> attack -> detect -> ssc_trace."""

    name = "trace-q100"
    alias = "trace_p50_ms"
    count_prefix = len(COALITION_SIZES)

    def __init__(self, q: int):
        self.q = q
        self.skipped = []

    def setup(self, tr, seed: int):
        _, binary = _build_composed(tr, self.q)
        with tr.span("simulate.make_context"):
            ctx = simulate.make_context(dim=binary.n, n=binary.n, alpha=ALPHA, seed=seed)
        return binary, ctx

    def teardown(self, state) -> None:
        pass

    def request(self, state, i: int, seed: int, tr):
        code, ctx = state
        size = COALITION_SIZES[i % len(COALITION_SIZES)]
        members = sorted(_request_rng(seed, i).sample(range(code.M), size))

        stages = Stages(tr)
        with stages("simulate.detect"):
            signals = [simulate.embed(ctx, code.words[k]) for k in members]
            stats = simulate.correlate(ctx, simulate.averaging_attack(signals))
            feasible = simulate.threshold(stats)
        with stages("trace.ssc_trace"):
            report = trace.ssc_trace(code, feasible, T)
        with tr.span("trace.lacc_identify"):
            lacc = trace.lacc_identify(code, feasible, T)

        failures: list[str] = []
        limit = 2 * code.n * code.M
        _check(
            failures,
            feasible == trace.coalition_feasible_set(code, members),
            f"detected R differs from the descendant of {members}",
        )
        if size <= T:
            _check(
                failures,
                not report.overflow and report.colluders == frozenset(members),
                f"coalition {members} not identified exactly",
            )
        _check(failures, lacc.candidates == report.candidates, "lacc and ssc candidates differ")
        _check(failures, report.ops <= limit and lacc.ops <= limit, "tracer ops above 2nM")
        for rep in (report, lacc):
            _count_trace(tr, rep.ops, len(rep.candidates))
        tr.count("trace.requests")
        tr.count("trace.identified", not report.overflow)
        tr.count("trace.beyond_t_not_overflow", size > T and not report.overflow)
        return stages, failures


class Pipeline:
    """construct -> compose -> simulate --then-trace -> trace, via cli.main."""

    name = "cli-q100"
    alias = "pipeline_s"
    count_prefix = 1

    def __init__(self, q: int, scratch_root: Path):
        self.q = q
        self.scratch_root = scratch_root
        self.skipped = [
            {
                "stage": "verify --property ssc --t 2 on the composed q=100 code",
                "reason": "about 2 h at the parent (is_ssc extrapolated from q=20)",
            }
        ]

    def setup(self, tr, seed: int):
        self.scratch_root.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=self.scratch_root))
        # the q-ary code is the oracle for the fpc tracer's expected capture:
        # one-hot composition preserves captured sets
        with tr.span("construct.build_length3"):
            oracle = construct.build_length3(self.q, construct.optimal_s(self.q).s)
        return workdir, np.asarray(oracle.words, dtype=np.int64)

    def teardown(self, state) -> None:
        shutil.rmtree(state[0], ignore_errors=True)
        with contextlib.suppress(OSError):
            self.scratch_root.rmdir()

    @staticmethod
    def _main(stages: Stages, stage: str, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with stages(f"cli.{stage}"), contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def request(self, state, i: int, seed: int, tr):
        workdir, oracle = state
        q, (m, n) = self.q, oracle.shape
        pair = sorted(_request_rng(seed, i).sample(range(1, m + 1), 2))
        qary = str(workdir / f"{i}-q.code")
        binary = str(workdir / f"{i}-bin.code")
        failures: list[str] = []

        stages = Stages(tr)
        rc_construct, _ = self._main(stages, "construct", ["construct", "--q", str(q), "--out", qary])
        rc_compose, _ = self._main(stages, "compose", ["compose", qary, "--out", binary])
        rc_simulate, out = self._main(
            stages,
            "simulate",
            ["simulate", binary, "--colluders", f"{pair[0]},{pair[1]}",
             "--seed", str(seed), "--then-trace", "--json"],
        )
        simulated = json.loads(out)["result"] if rc_simulate == 0 else None
        if simulated is not None:
            rc_trace, out = self._main(
                stages,
                "trace",
                ["trace", binary, "--algorithm", "fpc", "--r", simulated["R"], "--json"],
            )

        _check(failures, rc_construct == 0, f"construct exit {rc_construct}")
        _check(failures, rc_compose == 0, f"compose exit {rc_compose}")
        with open(binary) as fh:
            header = fh.readline().split()
        _check(failures, header == [str(n * q), str(m), "2"], f"composed header {header}")
        _check(failures, rc_simulate == 0, f"simulate exit {rc_simulate}")
        if simulated is not None:
            traced = simulated["trace"]
            _check(failures, simulated["match"] is True, "simulate --then-trace: match is not true")
            _check(failures, traced["colluders"] == pair, f"simulate traced {traced['colluders']}")
            captured = [int(k) + 1 for k in codes.captured_indices(oracle, [p - 1 for p in pair])]
            accused = json.loads(out)["result"]
            _check(
                failures,
                rc_trace == (0 if len(captured) <= T else 2),
                f"trace exit {rc_trace} for capture {captured}",
            )
            _check(failures, accused["candidates"] == captured, "fpc candidates differ from capture")
            limit = 2 * n * q * m
            _check(failures, max(traced["ops"], accused["ops"]) <= limit, "tracer ops above 2nM")
            for rep in (traced, accused):
                _count_trace(tr, rep["ops"], len(rep["candidates"]))
            tr.count("trace.requests")
            tr.count("trace.identified", traced["outcome"] == "identified")
        for path in (qary, binary):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return stages, failures


def make_workloads(smoke: bool, scratch_root: Path) -> dict:
    q_small, q_large = (4, 4) if smoke else (12, 100)
    workloads = [Certify(q_small), Trace(q_large), Pipeline(q_large, scratch_root)]
    return {wl.name: wl for wl in workloads}
