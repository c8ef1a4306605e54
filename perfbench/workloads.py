"""The two benchmark workloads.

Each workload is built from a freshly imported ``tubesynth`` package
and a seed.  Construction is the set-up (inputs built, nothing timed);
``inputs(i)`` prepares op i outside the timed interval, ``run`` is the
timed op, and ``check``/``fingerprint``/``release`` run after it,
outside the timed interval again.

Library functions are looked up on the package at call time, never
cached, so a tracer that rebinds them sees every call.
"""

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import oracle

TANKS_HORIZON = 15

AUDIT_RUNS = 2000
AUDIT_POOL = 64


def _signature(*arrays):
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


def _synthesis_signature(result):
    parts = [_signature(*result.gains), _signature(*(s.b for s in result.sets)),
             "/".join(result.provenance).encode()]
    for rpt in result.step_reports:
        parts.append(b"1" if rpt.contained else b"0")
        parts.append(_signature(*(rpt.certificates or [])))
    return b"|".join(parts)


class Workload:
    """Defaults for workloads whose ops write no files."""

    def bytes_written(self, result):
        return 0

    def release(self, result):
        pass


class TanksSynth(Workload):
    """synthesize() on the coupled-tanks case study, K = 15."""

    name = "tanks-synth"

    def __init__(self, ts, seed, workdir):
        self.ts = ts
        self.problem, _ = ts.cli.tanks_problem(horizon=TANKS_HORIZON)

    def inputs(self, i):
        return self.problem

    def run(self, problem):
        return self.ts.synthesize(problem)

    def check(self, i, result):
        model = self.problem.model
        return oracle.synthesis_ok(model.vertices, model.C, result,
                                   self.problem.tube.sets)

    def fingerprint(self, result):
        return _synthesis_signature(result)


class TanksAudit(Workload):
    """`tubesynth demo-tanks --runs 2000` through cli.main, each op into
    a fresh directory with its own demo seed."""

    name = "tanks-audit"

    def __init__(self, ts, seed, workdir):
        self.ts = ts
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.seeds = [int(v) for v in rng.integers(2 ** 31, size=AUDIT_POOL)]

    def inputs(self, i):
        out = tempfile.mkdtemp(prefix="audit-", dir=self.workdir)
        argv = ["demo-tanks", "--out", out, "--k", str(TANKS_HORIZON),
                "--runs", str(AUDIT_RUNS), "--seed", str(self.seeds[i % AUDIT_POOL])]
        return argv

    def run(self, argv):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = self.ts.cli.main(argv)
        return code, Path(argv[2])

    def check(self, i, result):
        code, out = result
        if code != 0:
            return False
        with open(out / "audit.json") as fh:
            audit = json.load(fh)
        return audit["runs"] == AUDIT_RUNS and audit["failed"] == 0

    def fingerprint(self, result):
        code, out = result
        return (code,) + tuple((out / name).read_bytes() for name in
                               ("gains.json", "sets.json", "certificates.json",
                                "audit.json"))

    def bytes_written(self, result):
        return sum(p.stat().st_size for p in result[1].iterdir())

    def release(self, result):
        shutil.rmtree(result[1])


WORKLOADS = {w.name: w for w in (TanksSynth, TanksAudit)}
