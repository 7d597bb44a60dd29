"""Row scans of the G-test, pinned on a fixed survey learn and a fixed
categorical replicate.

A row scan (one ``GTestBackend._counts`` call) counts a table from every
row of the data; any other table a learn needs is summed out of a stored
one.  Benchmark timings are too noisy to show a change that brings row
scans back, but their count is exact, so it is pinned here.  A change
meant to scan fewer rows lowers the pins and says by how much.

Each run is also repeated with the G-test replaced by the scalar reference
(``oracle_helpers.reference_g_result`` on a table counted afresh for every
key), and both runs must write the same bytes.  Before the table store the
same two runs took 339 and 560 row scans.
"""

import importlib.util
from pathlib import Path

from causeweave import CIEngine
from causeweave.cli import main
from causeweave.citest import GTestBackend
from causeweave.pcstable import pc_stable
from causeweave.simgen import make_discrete_net
from causeweave.skeleton_orient import learn_structure
from oracle_helpers import count_table, reference_g_result, row_scans

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SURVEY_SCANS = 198
REPLICATE_SCANS = 218


def write_survey(tmp_path):
    """The benchmark's survey CSV, schema and tier prior at k = 16, n = 4000."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    p = {"k": 16, "n": 4000, "rho": 0.08, "theta": 0.5, "tiers": 3, "shape": None}
    return workloads.write_survey(tmp_path, "survey", p, 7)[:3]


def use_reference_gtest(monkeypatch) -> None:
    def compute(self, keys):
        n = self.data.n
        return [reference_g_result(count_table(self.data, (x, y, *s)), n) for x, y, s in keys]

    monkeypatch.setattr(GTestBackend, "compute", compute)


def survey_learn(tmp_path, files, name) -> bytes:
    data, schema, prior = map(str, files)
    out = tmp_path / name
    assert main(["learn", "--data", data, "--schema", schema, "--backend", "auto",
                 "--alpha", "0.05", "--m-ci", "3", "--prior", prior, "--out", str(out)]) == 0
    return out.with_suffix(".json").read_bytes() + out.with_suffix(".dot").read_bytes()


def categorical_replicate() -> bytes:
    """Both learners on one engine, as a ``simulate --kind categorical``
    replicate runs them: k = 14 binary variables, n = 500."""
    data = make_discrete_net(14, 3, 2, seed=[4, 0]).sample(500, seed=[4, 1])
    engine = CIEngine(GTestBackend(data))
    graphs = [learner(data.names, engine, alpha=0.05, m_ci=3)
              for learner in (learn_structure, pc_stable)]
    return "".join(graph.to_json() for graph in graphs).encode("utf-8")


def test_survey_learn_row_scans(tmp_path, monkeypatch, capsys):
    files = write_survey(tmp_path)
    with row_scans() as scans:
        got = survey_learn(tmp_path, files, "stored")
    assert len(scans) == SURVEY_SCANS
    use_reference_gtest(monkeypatch)
    assert got == survey_learn(tmp_path, files, "reference")


def test_categorical_replicate_row_scans(monkeypatch):
    with row_scans() as scans:
        got = categorical_replicate()
    assert len(scans) == REPLICATE_SCANS
    use_reference_gtest(monkeypatch)
    assert got == categorical_replicate()
