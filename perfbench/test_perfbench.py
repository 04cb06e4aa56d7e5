"""Checks on the benchmark itself: its verdict table agrees with independent
oracles, its documents are what they claim, the program's reports are
byte-deterministic, and the tracer counts exactly without changing output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import product

import pytest

import run
import workloads
from tracer import Tracer
from workloads import AXIOM, NON_RDP, RDP, WORKLOADS

sys.path.insert(0, str(run.ROOT / "tests"))
cli = run.import_effecta()

import effecta.suites  # noqa: E402  (needs the sources on sys.path first)
import oracles  # noqa: E402
import zoo_instances  # noqa: E402

ALL_DOCS = {d.name: (w, d) for w, docs in WORKLOADS.items() for d in docs}
# documents small enough for the n^4-per-pair quantifier scan
BRUTE_RDP_DOCS = ("chain3", "boolean4", "hsum3-boolean2", "hsum8-boolean2",
                  "loop4")


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Every workload's documents, written once as a run writes them."""
    directory = tmp_path_factory.mktemp("docs")
    for name in WORKLOADS:
        run.write_documents(name, directory, directory)
    return directory


def raw_table(doc: dict) -> dict:
    table = {}
    for a, b, c in doc["sum"]:
        table[(a, b)] = c
        table[(b, a)] = c
    return table


def check(documents, name, seed=0):
    _, doc = ALL_DOCS[name]
    return run.invoke(run.cli_argv(doc.check_args(documents / f"{name}.json",
                                                  seed)), 120, documents)


@pytest.mark.parametrize("name", BRUTE_RDP_DOCS)
def test_rdp_column_matches_the_brute_oracle(documents, name):
    doc = json.loads((documents / f"{name}.json").read_text())
    witness = oracles.brute_rdp(doc["elements"], raw_table(doc))
    assert (witness is None) == (ALL_DOCS[name][1].kind == RDP)


@pytest.mark.parametrize("name", ("hsum3-boolean2", "loop4"))
def test_refinement_witness_is_genuine(documents, name):
    """The program's witness has equal sums and no refinement in the raw
    table."""
    _, code, out, err, _ = check(documents, name)
    assert workloads.verdict_error(ALL_DOCS[name][1], code, out, err) is None
    record = next(json.loads(line) for line in out.splitlines()
                  if '"refinement"' in line)
    a1, a2, b1, b2 = record["witness"]
    doc = json.loads((documents / f"{name}.json").read_text())
    table = raw_table(doc)
    assert table[(a1, a2)] == table[(b1, b2)]
    assert not any(
        table.get((c11, c12)) == a1 and table.get((c21, c22)) == a2
        and table.get((c11, c21)) == b1 and table.get((c12, c22)) == b2
        for c11, c12, c21, c22 in product(doc["elements"], repeat=4))


def test_associativity_witness_is_genuine(documents):
    name = "boolean4-assoc-broken"
    _, code, out, err, _ = check(documents, name)
    assert ALL_DOCS[name][1].kind == AXIOM
    assert workloads.verdict_error(ALL_DOCS[name][1], code, out, err) is None
    record = next(json.loads(line) for line in out.splitlines()
                  if '"axioms"' in line and '"validate"' in line)
    a, b, c = record["witness"]
    table = raw_table(json.loads((documents / f"{name}.json").read_text()))
    ab, bc = table.get((a, b)), table.get((b, c))
    left = None if ab is None else table.get((ab, c))
    right = None if bc is None else table.get((a, bc))
    assert left != right


def test_loop4_document_is_the_test_zoo_pasting():
    M = zoo_instances.loop4()
    doc = workloads.loop4_document()
    assert doc["elements"] == list(M.labels)
    assert raw_table(doc) == oracles.sum_table_dict(M)


def test_every_document_has_a_recorded_digest():
    assert set(json.loads(run.DIGESTS.read_text())) == set(ALL_DOCS)


def test_reports_are_byte_identical_across_runs_and_seeds(documents):
    """Two runs of one document give the same bytes; and, while every
    verdict holds, the seed picks mixture states without changing the report,
    which is what lets digests recorded at seed 0 serve every seed."""
    for name in ("chain3", "boolean4", "hsum3-boolean2"):
        outs = {check(documents, name, seed)[2] for seed in (0, 0, 7)}
        assert len(outs) == 1, name


def test_tracer_counts_repeat_and_leave_output_unchanged(documents):
    _, doc = ALL_DOCS["boolean4"]
    argv = doc.check_args(documents / "boolean4.json", 0)
    plain = run.in_process(cli.main, argv)
    tracers = [Tracer(), Tracer()]
    for tracer in tracers:
        tracer.install()
        try:
            traced = run.in_process(cli.main, argv)
        finally:
            tracer.uninstall()
        tracer.end_document()
        assert traced[1:] == plain[1:]
    first, second = (t.counts for t in tracers)
    assert first == second
    # the figures the ROADMAP records for boolean 4
    assert first["observables.atomwise_integral_calls"] == 10004
    assert first["observables.integral_distinct"] == 228


def test_tracer_restores_every_binding():
    before = dict(vars(effecta.suites))
    tracer = Tracer()
    assert tracer.install() == []
    assert vars(effecta.suites)["run_smearing"] is not before["run_smearing"]
    tracer.uninstall()
    assert dict(vars(effecta.suites)) == before


@pytest.mark.parametrize("kind, code, out, err", [
    (RDP, 1, '{"suite":"rdp","check":"refinement","status":"fail"}\n', ""),
    (RDP, 0, "", "Traceback (most recent call last):\n"),
    (NON_RDP, 1, '{"suite":"rdp","check":"refinement","status":"fail"}\n', ""),
    (AXIOM, 1, '{"suite":"axioms","check":"validate","status":"fail"}\n', ""),
    (workloads.INPUT_ERROR, 1, "", "error: bad\n"),
    (workloads.INPUT_ERROR, 2, "", "error: bad\nerror: worse\n"),
    (RDP, None, "", ""),
])
def test_verdict_check_rejects_wrong_results(kind, code, out, err):
    doc = workloads.Document("x", kind, suite="rdp")
    assert workloads.verdict_error(doc, code, out, err) is not None


def test_run_refuses_a_directory_without_sources(tmp_path):
    """Copied alone, the benchmark exits non-zero and prints no result."""
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rdp-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
