import argparse
import hashlib
import json
import subprocess
import sys

import pytest

from conftest import oracle_energy_prime
from sidonkit import AmbientSpec, GroundSet, integer_range, integer_set, serialize_set
from sidonkit.cli import build_parser, main


@pytest.fixture()
def set_file(tmp_path):
    def write(A, name="set.json"):
        path = tmp_path / name
        path.write_text(serialize_set(A))
        return str(path)
    return write


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_energy_subcommand(set_file, capsys):
    path = set_file(integer_set([0, 1, 2]))
    code, out, err = run_cli(["energy", "--set", path, "--k", "3", "--mode", "diff"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["value"] == 45
    assert report["format_version"] == 1
    assert report["subcommand"] == "energy"
    assert path in report["inputs"]
    assert "45" in err


def test_verify_exit_codes(set_file, capsys):
    good = set_file(integer_set([0, 1, 3]), "good.json")
    bad = set_file(integer_range(0, 5), "bad.json")
    assert run_cli(["verify", "--set", good, "--g", "1"], capsys)[0] == 0
    code, out, _ = run_cli(["verify", "--set", bad, "--g", "1"], capsys)
    assert code == 1
    assert json.loads(out)["result"]["witness"]["count"] == 4
    code, out, _ = run_cli(["verify", "--set", bad, "--g", "2", "--k", "3"], capsys)
    assert code == 1
    assert json.loads(out)["result"]["witness"]["kind"] == "intersection"


def test_malformed_input_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"ambient": {"kind": "prime-field", "p": 13}, "elements": [13]}')
    code, out, err = run_cli(["energy", "--set", str(path), "--k", "2"], capsys)
    assert code == 2
    assert "error" in err


def test_malformed_json_exits_2(set_file, tmp_path, capsys):
    path = set_file(integer_range(0, 8))
    for cert in ([1, 2], {"result": 5}):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, _, err = run_cli(["verify-certificate", "--set", path,
                                "--cert", str(cert_path)], capsys)
        assert code == 2 and "Traceback" not in err, cert
    for ambient in ("integers", ["integers"]):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ambient": ambient, "elements": [1, 2]}))
        code, _, err = run_cli(["energy", "--set", str(bad), "--k", "2"], capsys)
        assert code == 2 and "Traceback" not in err, ambient
    for label in (5, {"a": 1}):
        bad = tmp_path / "label.json"
        bad.write_text(json.dumps({"ambient": {"kind": "integers"}, "elements": [1, 2],
                                   "label": label}))
        code, _, err = run_cli(["energy", "--set", str(bad), "--k", "2"], capsys)
        assert code == 2 and "label" in err, label


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, path + (name,))


def test_seed_only_where_read(set_file, capsys):
    leaves = dict(_leaf_parsers(build_parser()))
    assert len(leaves) == 23
    seeded = {name for name, p in leaves.items()
              if any("--seed" in a.option_strings for a in p._actions)}
    assert seeded == {"greedy", "extract", "pipeline", "construct fpmult"}
    path = set_file(integer_set([0, 1, 3]))
    for argv in (["energy", "--set", path, "--k", "2", "--seed", "1"],
                 ["energy-prime", "--set", path, "--k", "2", "--method", "enumerate"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    code, out, _ = run_cli(["energy", "--set", path, "--k", "2"], capsys)
    report = json.loads(out)
    assert code == 0 and report["seed"] is None and "seed" not in report["parameters"]


def test_budget_exit_3(set_file, capsys):
    path = set_file(integer_range(0, 60))
    code, _, err = run_cli(["exact", "--set", path, "--k", "1", "--cap", "40"], capsys)
    assert code == 3
    assert "budget" in err


def test_heritability_empty_shift_set_exit_1(set_file, capsys):
    args = ["heritability", "--set", set_file(integer_set([0, 1, 3, 7, 8])), "--mode", "general",
            "--shift-set", set_file(integer_set([]), "x1.json"),
            "--shift-set", set_file(integer_set([0, 1, 3, 7, 12]), "x2.json")]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert "nonempty" in err and "Traceback" not in err


def test_exact_witness_verifies(set_file, tmp_path, capsys):
    Z31 = GroundSet.from_iterable(AmbientSpec.mod(31), range(31))
    code, out, _ = run_cli(["exact", "--set", set_file(Z31), "--k", "1"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["size"] == 6
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(result["witness"]))
    assert run_cli(["verify", "--set", str(witness), "--g", "1"], capsys)[0] == 0


# sha256 of the `exact` report on stdout, with the set's path written as
# SET, recorded before the search forced the top element
EXACT_REPORTS = {
    "integer_range(0, 30), k = 2":
        (lambda: integer_range(0, 30), "2",
         "27e6fdf663a9abc5b5644abb810a2111fc3809369378389dff3e3b040c07f62e"),
    "Z/31, k = 1":
        (lambda: GroundSet.from_iterable(AmbientSpec.mod(31), range(31)), "1",
         "11e087c124a3213428ea41ce81a42b391976942aad85574b7caf824fea878a51"),
}


@pytest.mark.parametrize("name", sorted(EXACT_REPORTS))
def test_exact_report_bytes(name, set_file, capsys):
    make, k, digest = EXACT_REPORTS[name]
    path = set_file(make())
    code, out, _ = run_cli(["exact", "--set", path, "--k", k], capsys)
    assert code == 0
    assert hashlib.sha256(out.replace(path, "SET").encode()).hexdigest() == digest


def test_reports_byte_identical(set_file, tmp_path, capsys):
    path = set_file(integer_range(0, 64))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["extract", "--set", path, "--k", "2", "--seed", "5", "--out", str(out1)]) == 0
    assert main(["extract", "--set", path, "--k", "2", "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "r1.json.manifest.json").read_text())
    assert manifest["seed"] == 5
    assert "wall_time_ms" in manifest
    # a different seed changes the report
    out3 = tmp_path / "r3.json"
    assert main(["extract", "--set", path, "--k", "2", "--seed", "6", "--out", str(out3)]) == 0
    assert out3.read_bytes() != out1.read_bytes()


def test_decompose_then_verify_certificate(set_file, tmp_path, capsys):
    path = set_file(integer_range(0, 64))
    cert_path = tmp_path / "cert.json"
    assert main(["decompose", "--set", path, "--delta", "1/2", "--eps", "1/4",
                 "--out", str(cert_path)]) == 0
    code, out, _ = run_cli(["verify-certificate", "--set", path, "--cert", str(cert_path)], capsys)
    assert code == 0
    assert json.loads(out)["result"]["ok"]
    # tampering must be caught
    blob = json.loads(cert_path.read_text())
    blob["result"]["core"]["mass_total"] += 1
    cert_path.write_text(json.dumps(blob))
    code, out, _ = run_cli(["verify-certificate", "--set", path, "--cert", str(cert_path)], capsys)
    assert code == 1


def test_verify_certificate_unreadable_eps_reported(set_file, tmp_path, capsys):
    path = set_file(integer_range(0, 64))
    cert_path = tmp_path / "cert.json"
    assert main(["decompose", "--set", path, "--delta", "1/2", "--eps", "1/4",
                 "--out", str(cert_path)]) == 0
    blob = json.loads(cert_path.read_text())
    blob["result"]["parameters"]["eps"] = "0"
    cert_path.write_text(json.dumps(blob))
    code, out, err = run_cli(["verify-certificate", "--set", path, "--cert", str(cert_path)],
                             capsys)
    assert code == 1
    result = json.loads(out)["result"]
    assert not result["ok"] and result["mismatches"]
    assert "Traceback" not in err


def test_pipeline_cli_and_verify(set_file, tmp_path, capsys):
    path = set_file(integer_range(1, 129))
    rep_path = tmp_path / "pipe.json"
    assert main(["pipeline", "--set", path, "--seed", "7", "--trials", "5",
                 "--out", str(rep_path)]) == 0
    code, out, _ = run_cli(["verify-certificate", "--set", path, "--cert", str(rep_path)], capsys)
    assert code == 0


def test_energy_prime_cli(set_file, capsys):
    A = integer_set([-7, -3, 0, 1, 2, 3, 5, 9, 10])
    path = set_file(A)
    code, out, err = run_cli(["energy-prime", "--set", path, "--k", "2"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"k": 2, "value": oracle_energy_prime(A, 2)}
    assert f"distinct-tuple energy = {result['value']}" in err
    code, out, _ = run_cli(["energy-prime", "--set", path, "--k", "3"], capsys)
    assert code == 0 and json.loads(out)["result"]["value"] == oracle_energy_prime(A, 3)


def test_verify_certificate_malformed_subset_reported(set_file, tmp_path, capsys):
    path = set_file(integer_range(1, 129))
    rep_path = tmp_path / "pipe.json"
    assert main(["pipeline", "--set", path, "--seed", "7", "--out", str(rep_path)]) == 0
    blob = json.loads(rep_path.read_text())
    for subset in ({"elements": [1]}, [1], {"ambient": {"kind": "reals"}, "elements": [1]},
                   {"ambient": {"kind": "integers"}, "elements": [2, 1]}):
        blob["result"]["subset"] = subset
        rep_path.write_text(json.dumps(blob))
        code, out, err = run_cli(["verify-certificate", "--set", path, "--cert", str(rep_path)],
                                 capsys)
        assert code == 1, subset
        result = json.loads(out)["result"]
        assert not result["ok"] and result["mismatches"], subset
        assert "Traceback" not in err


def test_pipeline_huge_eps_denominator_exits_3(set_file, capsys):
    path = set_file(integer_range(1, 129))
    code, _, err = run_cli(["pipeline", "--set", path, "--eps", "1/1000000000"], capsys)
    assert code == 3
    assert "error (budget)" in err and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:  # argparse refuses it before any work
        main(["pipeline", "--set", path, "--eps", "1e-999999999"])
    assert exc.value.code == 2


def test_construct_save_round_trip(tmp_path, capsys):
    saved = tmp_path / "sidon.json"
    code, out, _ = run_cli(["construct", "sidon", "--n", "50", "--save-set", str(saved)], capsys)
    assert code == 0
    from sidonkit import parse_set
    S = parse_set(saved.read_text())
    assert S.elements == (0, 11, 24, 34, 41)


def test_bounds_size_cli(capsys):
    code, out, _ = run_cli(["bounds", "size", "--n", "100", "--k", "2", "--g", "2",
                            "--setting", "finite-group"], capsys)
    assert code == 0
    assert abs(json.loads(out)["result"]["bound_float"] - 15.1421) < 1e-3


def test_histogram_cli(set_file, capsys):
    path = set_file(integer_set([0, 1, 3]))
    code, out, _ = run_cli(["histogram", "--set", path, "--mode", "diff"], capsys)
    assert code == 0
    entries = dict(tuple(e) for e in json.loads(out)["result"]["entries"])
    assert entries["0"] == 3 and entries["-3"] == 1


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "sidonkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout


def test_unbounded_orders_exit_cleanly(set_file, capsys):
    path = set_file(integer_range(1, 257))
    for argv in (["pipeline", "--set", path, "--lmax", "400"],
                 ["extract", "--set", path, "--k", "400", "--mode", "product"]):
        code, _, err = run_cli(argv, capsys)
        assert code in (0, 3), argv
        assert "Traceback" not in err, argv
