"""The benchmark's inputs still build, and its symbolic and oracle jobs pass with the recorded outputs, cycle after cycle.

A library name that perfbench uses and a change removed fails here, rather
than as a crash of a benchmark run's set-up.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))  # its modules import each other by bare name

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_builds(name, tmp_path):
    assert workloads.build(name, 0, tmp_path).jobs


@pytest.mark.parametrize("name", ["symbolic-sweep", "symbolic-large", "oracle-dense"])
def test_symbolic_jobs_pass_with_recorded_digest(name, tmp_path):
    """Two cycles over the same job objects, as a benchmark run makes them:
    the second finds whatever the first left on objects built at set-up
    (such as a mapping's solved vacuum), and must give the same outputs."""
    wl = workloads.build(name, 0, tmp_path)
    tracer = spans.Tracer(False)
    recorded = json.loads(run.DIGESTS.read_text())[name]["0"]
    for _ in range(2):
        cycle = run.Cycle()
        cycle.job_outputs = []
        ctx: dict = {}
        wrong = []
        for job in wl.jobs:
            out = ctx[job.id] = job.run(tracer, ctx)
            error = job.check(out, ctx)
            if error is not None:
                wrong.append(f"{job.id}: {error}")
            cycle.output(job.id, None if error is not None else job.digest(out))
        assert wrong == []
        assert run.digest_of(cycle, set(recorded["excluded"])) == recorded["sha256"]
