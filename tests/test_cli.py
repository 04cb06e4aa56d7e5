"""The reporting layer and the command-line interface, end to end.

CLI runs go through ``main(argv)`` with real files under tmp_path; byte
determinism, both output formats, every exit code, and the environment
override for the size budget are all exercised; a Hypothesis test feeds
mutated sum tables through ``check`` and holds it to the exit-code contract.
"""

import contextlib
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effecta import cli, generate, states
from effecta.errors import TheoremViolation
from effecta.report import (Record, exit_code, render, render_jsonl,
                            render_text, sort_records)
from effecta.serialize import algebra_to_obj

import oracles


# ---------------------------------------------------------------------------
# records and rendering


def test_sort_records_is_by_suite_instance_check():
    records = [
        Record("states", "b", "x", "pass"),
        Record("axioms", "b", "y", "pass"),
        Record("axioms", "a", "z", "pass"),
        Record("axioms", "a", "a", "pass"),
    ]
    assert [r.sort_key() for r in sort_records(records)] == [
        ("axioms", "a", "a"), ("axioms", "a", "z"),
        ("axioms", "b", "y"), ("states", "b", "x")]


def test_render_jsonl_omits_empty_fields():
    out = render_jsonl([Record("s", "i", "c", "pass")])
    assert out == '{"check":"c","instance":"i","status":"pass","suite":"s"}\n'
    out = render_jsonl([Record("s", "i", "c", "fail",
                               witness=["a", "b"], detail="boom")])
    payload = json.loads(out)
    assert payload["witness"] == ["a", "b"] and payload["detail"] == "boom"
    assert render_jsonl([]) == ""


def test_render_text_format():
    out = render_text([
        Record("axioms", "c3", "validate", "pass", detail="4 elements"),
        Record("rdp", "c3", "refinement", "fail", witness=["a"]),
    ])
    lines = out.splitlines()
    assert lines[0] == "PASS axioms:validate [c3] — 4 elements"
    assert lines[1] == 'FAIL rdp:refinement [c3] witness=["a"]'


def test_render_dispatch_and_exit_code():
    with pytest.raises(ValueError):
        render([], "yaml")
    assert exit_code([Record("s", "i", "c", "pass")]) == 0
    assert exit_code([Record("s", "i", "c", "skip")]) == 0
    assert exit_code([Record("s", "i", "c", "pass"),
                      Record("s", "i", "d", "fail")]) == 1


# ---------------------------------------------------------------------------
# CLI plumbing


def run(*argv):
    return cli.main(list(argv))


def write_algebra(tmp_path, name, *family):
    path = tmp_path / name
    assert run("generate", *family, "--output", str(path)) == 0
    return path


def test_generate_writes_a_document(tmp_path, capsys):
    path = write_algebra(tmp_path, "c3.json", "chain", "3")
    doc = json.loads(path.read_text())
    assert doc["elements"] == ["0", "1", "2", "3"]
    assert run("generate", "boolean", "2") == 0
    assert json.loads(capsys.readouterr().out)["one"] == "{1,2}"


def test_generate_reads_compact_tokens_and_rejects_bad_ones(capsys):
    assert run("generate", "product", "interval:1,2", "chain1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 12 and doc["one"] == "((1,2),1)"
    for argv, err in [(("product", "interval:"), "expected an integer, got ''"),
                      (("product",), "product needs member specs")]:
        assert run("generate", *argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")


@pytest.mark.parametrize("argv, count", [
    (("boolean", "15000"), "2**15000"),
    (("boolean", "100000"), "2**100000"),
    (("interval", "9" * 4000, "9" * 4000), "more than 2**26575"),
    (("product", "interval:{0},{0}".format("9" * 4000), "chain1"),
     "more than 2**26575"),
    (("chain", "9" * 4300), "more than 2**14284")],
    ids=["boolean15000", "boolean100000", "interval", "product", "chain"])
def test_generate_refuses_a_huge_size_with_one_error_line(argv, count,
                                                          capsys):
    """A count past the digit limit of int-to-str conversion keeps the exit
    code contract: exit 2 and one ``error:`` line."""
    assert run("generate", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith(
        f" has {count} elements, exceeding the bound 4096\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("product", "chain4000", "chain4000"), "product has 16008001 elements"),
    (("horizontal-sum", "chain4000", "chain4000"),
     "horizontal sum has 8000 elements"),
    (("product", "chain4000", "chain1"), "product has 8002 elements"),
    (("product", "interval:2000,1", "chain1"), "product has 8004 elements")],
    ids=["product", "horizontal-sum", "product-chain1", "nested"])
def test_an_oversize_composite_is_refused_before_a_member_lists_pairs(
        argv, message, capsys):
    """A product or a horizontal sum checks its size before any member
    lists its pairs, nested members too.  Listed, the four million pairs
    of one chain 4000 took about 1 GB; the refusal stays under 50 MB."""
    tracemalloc.start()
    try:
        code = run("generate", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: {message}, exceeding the bound 4096\n")
    assert peak < 50 * 2 ** 20


def test_check_passes_on_chain3(tmp_path, capsys):
    path = write_algebra(tmp_path, "c3.json", "chain", "3")
    assert run("check", "--input", str(path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    payloads = [json.loads(line) for line in lines]
    assert all(p["status"] == "pass" for p in payloads)
    assert all(p["instance"] == "c3" for p in payloads)


def _readme_records():
    """The (suite, check) pairs of the README's Records table: the suite in
    backticks in the first column, each check in backticks in the second."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = text.split("### Records", 1)[1].split("\n\n| Suite |", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[2:]
    pairs = set()
    for row in rows:
        suite, checks = row.split("|")[1:3]
        (name,) = re.findall(r"`([^`]+)`", suite)
        pairs |= {(name, check) for check in re.findall(r"`([^`]+)`", checks)}
    return pairs


def test_the_readme_records_table_is_what_check_writes(tmp_path, capsys):
    path = write_algebra(tmp_path, "c3.json", "chain", "3")
    assert run("check", "--input", str(path), "--suite", "all") == 0
    written = {(p["suite"], p["check"]) for p in
               map(json.loads, capsys.readouterr().out.splitlines())}
    assert _readme_records() == written


def test_check_fails_on_mo2(tmp_path, capsys):
    path = write_algebra(tmp_path, "mo2.json",
                         "horizontal-sum", "boolean2", "boolean2")
    assert run("check", "--input", str(path)) == 1
    payloads = [json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()]
    failing = {(p["suite"], p["check"]) for p in payloads
               if p["status"] == "fail"}
    assert ("rdp", "refinement") in failing


def test_derived_size_cap_skips_suites_instead_of_aborting(tmp_path, capsys):
    # 13 blocks give a state space of parameter dimension 13, above the
    # box-enumeration cap of 12; the algebra lacks the refinement property,
    # so the gated suites fail at that gate and only the states suite,
    # which needs the capped polytope, is skipped
    path = write_algebra(tmp_path, "hsum13.json",
                         "horizontal-sum", *["boolean2"] * 13)
    assert run("check", "--input", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    payloads = {(p["suite"], p["check"]): p for p in
                map(json.loads, captured.out.strip().splitlines())}
    assert [key for key in payloads if key[0] == "axioms"] == [
        ("axioms", "validate")]
    assert payloads[("axioms", "validate")]["status"] == "pass"
    assert payloads[("rdp", "refinement")]["status"] == "fail"
    assert payloads[("sharp", "members")]["status"] == "pass"
    skip = payloads[("states", "size-limit")]
    assert skip["status"] == "skip"
    assert skip["detail"] == "parameter dimension 13 exceeds 12"
    for suite in ("representation", "smearing", "spectral", "extension"):
        assert payloads[(suite, "canonical-representation")]["status"] == \
            "fail"
        assert (suite, "size-limit") not in payloads

    assert run("check", "--input", str(path), "--suite",
               "representation") == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (payload,) = map(json.loads, captured.out.strip().splitlines())
    assert (payload["suite"], payload["check"], payload["status"]) == (
        "representation", "canonical-representation", "fail")


@pytest.mark.parametrize("suite", ["states", "all"])
def test_the_states_suite_never_builds_the_fraction_vertices(
        tmp_path, capsys, monkeypatch, suite):
    """Non-emptiness and separation read the integer numerators, and the
    gated suites stop at the refinement gate, so on ten boolean 2 blocks
    (1,024 extremal states) no vertex Fraction is built."""
    built = []
    real = states.state_polytope

    def spy(M):
        built.append(real(M))
        return built[-1]

    monkeypatch.setattr(states, "state_polytope", spy)
    path = write_algebra(tmp_path, "hsum10.json",
                         "horizontal-sum", *["boolean2"] * 10)
    assert run("check", "--input", str(path), "--suite", suite) == \
        (0 if suite == "states" else 1)
    payloads = {(p["suite"], p["check"]): p for p in
                map(json.loads, capsys.readouterr().out.strip().splitlines())}
    assert payloads[("states", "non-empty")]["detail"] == \
        "1024 extremal states"
    assert payloads[("states", "separating")]["status"] == "pass"
    (P,) = built
    assert "vertices" not in P.__dict__


def test_check_output_is_byte_deterministic(tmp_path):
    path = write_algebra(tmp_path, "i12.json", "interval", "1", "2")
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert run("check", "--input", str(path), "--seed", "5",
               "--output", str(out1)) == 0
    assert run("check", "--input", str(path), "--seed", "5",
               "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command, family, code", [
    ("check", ("interval", "1", "2"), 0),
    ("check", ("horizontal-sum", "boolean2", "boolean2"), 1),
    ("smear", ("interval", "1", "2"), 0),
])
def test_the_seed_changes_no_report_byte(tmp_path, capsys, command, family,
                                         code):
    """``--seed`` is still accepted, and a report is a function of the
    document alone: seeds 0 and 7 print the same bytes and exit alike."""
    path = write_algebra(tmp_path, "doc.json", *family)
    capsys.readouterr()
    argv = [command, "--input", str(path)]
    if command == "smear":
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"support": ["0", "1"],
                                   "values": ["(0,1)", "(1,1)"]}))
        argv += ["--observable", str(obs)]
    outputs = []
    for seed in ("0", "7"):
        assert run(*argv, "--seed", seed) == code
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""


def test_check_text_format_and_suite_subset(tmp_path, capsys):
    path = write_algebra(tmp_path, "c4.json", "chain", "4")
    assert run("check", "--input", str(path), "--suite", "axioms",
               "--format", "text") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["PASS axioms:validate [c4] — 5 elements"]


def test_smear_verifies_an_observable(tmp_path, capsys):
    path = write_algebra(tmp_path, "c3.json", "chain", "3")
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"support": ["0", "1"], "values": ["1", "2"]}))
    assert run("smear", "--input", str(path), "--observable", str(obs)) == 0
    payloads = [json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()]
    assert [(p["check"], p["status"]) for p in payloads] == [
        ("eq-residual-zero", "pass")]


def test_smear_reports_the_representation_gate(tmp_path, capsys):
    path = write_algebra(tmp_path, "mo2.json",
                         "horizontal-sum", "boolean2", "boolean2")
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps(
        {"support": ["0", "1"], "values": ["h0:{1}", "h0:{2}"]}))
    assert run("smear", "--input", str(path), "--observable", str(obs)) == 1
    payloads = [json.loads(line)
                for line in capsys.readouterr().out.strip().splitlines()]
    assert [(p["check"], p["status"]) for p in payloads] == [
        ("canonical-representation", "fail")]
    # the gate's witness, as ``check --suite smearing`` writes it
    assert payloads[0]["witness"] == ["h0:{1}", "h0:{2}", "h1:{1}", "h1:{2}"]
    assert run("check", "--input", str(path), "--suite", "smearing") == 1
    (checked,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert checked == payloads[0]


def test_exit_code_two_for_unusable_input(tmp_path, capsys):
    assert run("check", "--input", str(tmp_path / "missing.json")) == 2
    assert "error:" in capsys.readouterr().err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run("check", "--input", str(garbage)) == 2

    assert run("generate", "martian", "9") == 2
    assert run("generate", "chain", "300", "--max-size", "100") == 2

    path = write_algebra(tmp_path, "c3.json", "chain", "3")
    obs = tmp_path / "bad_obs.json"
    obs.write_text(json.dumps({"support": ["0"], "values": ["nope"]}))
    assert run("smear", "--input", str(path), "--observable", str(obs)) == 2


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command", ["check", "smear-input",
                                     "smear-observable"])
def test_non_utf8_documents_exit_two(tmp_path, capsys, command):
    algebra = write_algebra(tmp_path, "c3.json", "chain", "3")
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"support": ["0", "1"], "values": ["1", "2"]}))
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe\x00bad")
    argv = {"check": ("check", "--input", raw),
            "smear-input": ("smear", "--input", raw, "--observable", obs),
            "smear-observable": ("smear", "--input", algebra,
                                 "--observable", raw)}[command]
    assert run(*map(str, argv)) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("text", ["[" * 200000, "1" * 5000],
                         ids=["deep-nesting", "huge-integer"])
def test_json_the_decoder_cannot_build_exits_two(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert run("check", "--input", str(path)) == 2
    assert_one_error_line(capsys)


CHAIN1 = {"elements": ["0", "1"], "zero": "0", "one": "1",
          "sum": [["0", "0", "0"], ["0", "1", "1"]]}


@pytest.mark.parametrize("document", [
    {"elements": [["x"], "1"], "zero": "0", "one": "1", "sum": []},
    dict(CHAIN1, zero=["0"]),
    dict(CHAIN1, sum=[["0", "0", "0"], ["0", ["1"], "1"]]),
    dict(CHAIN1, elements=[0, 1], zero=0, one=1,
         sum=[[0, 0, 0], [0, 1, 1]]),
    dict(CHAIN1, one=1),
    dict(CHAIN1, elements="01"),
    dict(CHAIN1, elements={"0": 0, "1": 1}),
    dict(CHAIN1, sum=["000", "011"]),
], ids=["list-element", "list-zero", "list-in-sum", "numeric", "numeric-one",
        "string", "object", "string-triples"])
def test_check_rejects_malformed_labels(tmp_path, capsys, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert run("check", "--input", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("document, witness, detail", [
    (dict(CHAIN1, one="2"), ["0", "2"],
     "axiom (iv) violated at ('0', '2'): zero/one not among the elements"),
    (dict(CHAIN1, one="0"), ["0"],
     "axiom (iv) violated at ('0',): zero and one coincide"),
    (dict(CHAIN1, sum=[["0", "0", "0"], ["0", "x", "1"]]), ["0", "x", "1"],
     "axiom (i) violated at ('0', 'x', '1'): unknown label 'x'"),
], ids=["bounds-missing", "zero-is-one", "unknown-label"])
def test_check_fails_validation_on_unknown_or_coinciding_labels(
        tmp_path, capsys, document, witness, detail):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert run("check", "--input", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert records[0] == {"check": "validate", "detail": detail,
                          "instance": "doc", "status": "fail",
                          "suite": "axioms", "witness": witness}
    assert {(r["check"], r["status"]) for r in records[1:]} == {
        ("requires-valid-algebra", "fail")}


@pytest.mark.parametrize("family, observable, error", [
    (("boolean", "4"), {"support": ["0", "1"], "values": ["{1}", "{1}"]},
     "is undefined"),
    (("boolean", "4"), {"support": ["0", "1"], "values": ["{1}", "{2}"]},
     "not to the unit"),
    (("boolean", "4"), {"support": ["0", "0"], "values": ["{1}", "{2,3,4}"]},
     "distinct"),
    (("boolean", "4"), {"support": [], "values": []}, "non-empty"),
    # read character by character, or key by key, these would be the valid
    # observable 1/3 at 0 and 2/3 at 1 on the three-chain
    (("chain", "3"), {"support": "01", "values": "12"}, "JSON arrays"),
    (("chain", "3"), {"support": {"0": "a", "1": "b"},
                      "values": {"1": "x", "2": "y"}}, "JSON arrays"),
    # only integers and p/q are rationals; Fraction would expand an exponent
    (("chain", "3"), {"support": ["1e5", "1"], "values": ["1", "2"]},
     "not a rational"),
    (("chain", "3"), {"support": ["0.5", "1"], "values": ["1", "2"]},
     "not a rational"),
    (("chain", "3"), {"support": ["0"]},
     "malformed observable document: KeyError('values')"),
    (("chain", "3"), {"support": ["0", "1"], "values": ["x", "3"]},
     "error: invalid observable: unknown element label 'x'"),
], ids=["sum-undefined", "sum-not-one", "duplicate-point", "empty", "strings",
        "object", "exponent", "decimal", "no-values", "unknown-label"])
def test_smear_rejects_an_invalid_observable(tmp_path, capsys, family,
                                             observable, error):
    path = write_algebra(tmp_path, "doc.json", *family)
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps(observable))
    assert run("smear", "--input", str(path), "--observable", str(obs)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and error in err[0]


def test_smear_caps_the_outcome_points(tmp_path, capsys):
    # 2^17 outcome sets: the cap stops the kernel before any is built
    path = write_algebra(tmp_path, "c16.json", "chain", "16")
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"support": [str(t) for t in range(17)],
                               "values": ["0"] + ["1"] * 16}))
    assert run("smear", "--input", str(path), "--observable", str(obs)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: observable of 17 outcome points exceeds 16\n"


def test_smear_reports_an_invalid_table(tmp_path, capsys):
    # without {1} + {2} the sum ({1} + {2}) + {3} is undefined while
    # {1} + ({2} + {3}) is defined: associativity fails at ({1}, {2}, {3})
    doc = algebra_to_obj(generate(("boolean", 4)))
    doc["sum"] = [s for s in doc["sum"] if set(s[:2]) != {"{1}", "{2}"}]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"support": ["0", "1"],
                               "values": ["{1}", "{2,3,4}"]}))
    assert run("smear", "--input", str(path), "--observable", str(obs)) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    [record] = map(json.loads, captured.out.splitlines())
    assert (record["suite"], record["check"], record["status"]) == (
        "smearing", "requires-valid-algebra", "fail")
    assert record["witness"] == ["{1}", "{2}", "{3}"]
    assert "associativ" in record["detail"] or "(ii)" in record["detail"]


def test_smear_turns_an_internal_error_into_one_record(tmp_path, capsys,
                                                       monkeypatch):
    def broken(rep, x):
        raise TheoremViolation("kernel disagrees")

    monkeypatch.setattr("effecta.observables.smear", broken)
    path = write_algebra(tmp_path, "c3.json", "chain", "3")
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"support": ["0", "1"], "values": ["1", "2"]}))
    assert run("smear", "--input", str(path), "--observable", str(obs)) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    payloads = [json.loads(line) for line in captured.out.splitlines()]
    assert [(p["check"], p["status"]) for p in payloads] == [
        ("error", "fail")]
    assert payloads[0]["detail"] == "kernel disagrees"


def test_a_failed_certificate_with_a_clean_scan_is_one_error_per_suite(
        tmp_path, capsys, monkeypatch):
    """Refinement holds exactly when the product-of-chains certificate does,
    so a scan that finds no failure where the certificate failed is a
    ``TheoremViolation``: every suite that needs the refinement verdict
    gets one ``error`` FAIL with its message, and the rest still run."""
    from effecta import algebra
    path = write_algebra(tmp_path, "b4.json", "boolean", "4")

    def check():
        code = run("check", "--input", str(path), "--suite", "all")
        captured = capsys.readouterr()
        return code, captured.err, [json.loads(line)
                                    for line in captured.out.splitlines()]

    clean = check()
    monkeypatch.setattr(algebra, "_chain_heights", lambda M: None)
    with pytest.raises(TheoremViolation) as err:
        algebra.check_rdp(generate(("boolean", 4)))
    code, stderr, payloads = check()
    assert clean[0] == 0 and code == 1
    assert stderr == ""
    for suite in ("rdp", "representation", "smearing", "spectral",
                  "extension"):
        assert [p for p in payloads if p["suite"] == suite] == [
            {"suite": suite, "instance": "b4", "check": "error",
             "status": "fail", "detail": str(err.value)}]
    for suite in ("axioms", "sharp", "states"):
        assert ([p for p in payloads if p["suite"] == suite]
                == [p for p in clean[2] if p["suite"] == suite])


def test_argparse_rejects_unknown_choices(tmp_path):
    path = write_algebra(tmp_path, "c3.json", "chain", "3")
    with pytest.raises(SystemExit):
        run("check", "--input", str(path), "--suite", "nonsense")
    with pytest.raises(SystemExit):
        run("check", "--input", str(path), "--format", "yaml")
    with pytest.raises(SystemExit):
        run()


# ---------------------------------------------------------------------------
# fuzzing: mutated sum tables keep the exit-code contract


FUZZ_BASES = [algebra_to_obj(generate(spec)) for spec in (
    ("chain", 3), ("boolean", 2), ("boolean", 3), ("interval", (1, 2)),
    ("horizontal_sum", [("boolean", 2), ("boolean", 2)]))]


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    labels, sums = doc["elements"], doc["sum"]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from((
            "drop", "swap-summands", "change-result", "add", "duplicate",
            "swap-zero-one", "duplicate-label")))
        label = st.sampled_from(labels)
        if kind == "swap-zero-one":
            doc["zero"], doc["one"] = doc["one"], doc["zero"]
        elif kind == "duplicate-label":
            labels.insert(draw(st.integers(0, len(labels))), draw(label))
        elif kind == "add":
            sums.insert(draw(st.integers(0, len(sums))),
                        [draw(label), draw(label), draw(label)])
        elif sums:
            i = draw(st.integers(0, len(sums) - 1))
            a, b, c = sums[i]
            if kind == "drop":
                del sums[i]
            elif kind == "swap-summands":
                sums[i] = [b, a, c]
            elif kind == "change-result":
                sums[i] = [a, b, draw(label)]
            else:               # duplicate
                sums.insert(i, [a, b, c])
    return doc


def cli_in_process(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")
        return
    assert err == ""
    for record in map(json.loads, out.splitlines()):
        if record["status"] == "fail":
            assert record.get("witness") is not None or record.get("detail")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_check_keeps_its_contract_on_mutated_sum_tables(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        first = cli_in_process("check", "--input", str(path))
        assert cli_in_process("check", "--input", str(path)) == first
    assert_contract(*first)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_associativity_matches_the_triple_loop_on_mutated_sum_tables(doc):
    oracles.assert_associativity_matches(
        doc["elements"], doc["zero"], doc["one"], doc["sum"])


@st.composite
def mutated_documents_and_observables(draw):
    """A mutated table with a one-point observable on its unit, or a
    two-point observable on two of its labels (often not summing to one)."""
    doc = draw(mutated_documents())
    if draw(st.booleans()):
        observable = {"support": ["0"], "values": [doc["one"]]}
    else:
        label = st.sampled_from(doc["elements"])
        observable = {"support": ["0", "1"],
                      "values": [draw(label), draw(label)]}
    return doc, observable


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_documents_and_observables())
def test_smear_keeps_its_contract_on_mutated_sum_tables(case):
    doc, observable = case
    with tempfile.TemporaryDirectory() as tmp:
        path, obs = Path(tmp) / "doc.json", Path(tmp) / "obs.json"
        path.write_text(json.dumps(doc))
        obs.write_text(json.dumps(observable))
        argv = ("smear", "--input", str(path), "--observable", str(obs))
        first = cli_in_process(*argv)
        assert cli_in_process(*argv) == first
    assert_contract(*first)
