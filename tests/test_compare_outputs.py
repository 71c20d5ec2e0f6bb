"""Self-tests of tools/compare_outputs.py on its toy job list."""

import importlib.util
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("compare_outputs",
                                              ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(SPEC)
sys.modules[SPEC.name] = compare_outputs
SPEC.loader.exec_module(compare_outputs)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """This tree compared with itself on the toy list, its records kept."""
    work = tmp_path_factory.mktemp("toy")
    code = compare_outputs.main([str(ROOT), str(ROOT), "--jobs", "toy", "--work", str(work)])
    return code, work


def test_tree_against_itself_reads_identical(toy_run, capsys):
    code, work = toy_run
    jobs = json.loads((work / "jobs.json").read_text())
    assert code == 0 and len(jobs) == 4
    for job in map(compare_outputs._job_dir, jobs):
        record = work / "parent" / job
        assert (record / "exit.txt").read_text() == "0\n"
        assert any((record / "out").iterdir())
        assert compare_outputs.compare_job(record, work / "change" / job) == []


def test_one_ulp_edit_is_flagged(toy_run, tmp_path):
    # one segment cost moved by one ulp in changepoints.json, and one break
    # moved by one sample in changepoints.csv: each is named where it moved
    _, work = toy_run
    job = "toy__changepoints__values__json"
    parent, change = work / "parent" / job, tmp_path / job
    shutil.copytree(parent, change)
    doc = json.loads((change / "out" / "changepoints.json").read_text())
    doc["segment_costs"][2] = math.nextafter(doc["segment_costs"][2], math.inf)
    (change / "out" / "changepoints.json").write_text(json.dumps(doc, indent=2))
    assert compare_outputs.compare_job(parent, change) == [
        "out/changepoints.json at segment_costs[2]"]

    job = "toy__changepoints__values__csv"
    parent, change = work / "parent" / job, tmp_path / job
    shutil.copytree(parent, change)
    lines = (change / "out" / "changepoints.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    k = header.index("offset")
    row[k] = str(int(row[k]) + 1)
    lines[1] = ",".join(row)
    (change / "out" / "changepoints.csv").write_text("\n".join(lines) + "\n")
    assert compare_outputs.compare_job(parent, change) == [
        "out/changepoints.csv: columns offset; first at row 1"]
