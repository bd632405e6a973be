import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from enriques import catalog, cli

SRC = Path(__file__).resolve().parents[1] / "src"


def run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_text_output(capsys):
    code, out, err = run_main(capsys, ["lattice"])
    assert code == 0
    assert err == ""
    assert out == (
        "command: lattice\n"
        "[pass] isotropic 10-tuple index: 3\n"
        "[pass] distinguished vector products: 1,1,1,1,1,1,1,1,2,2\n"
        "[pass] product sum: 12\n"
        "[pass] divisibility by 3 outside the span: "
        "3 | v.Sf: True, in span: False, 9 | v.Sf: False\n"
        "vector: (1, 1, 2, 3, 4, 3, 2, 1, 0, 2)\n"
    )


def test_nd_known_surface(capsys):
    code, out, _ = run_main(capsys, ["nd", "E7(2)"])
    assert code == 0
    assert "[pass] nd bounds: min 3, max 3" in out
    assert "min_nd: 3" in out and "max_nd: 3" in out


def test_nd_incomplete_surface_is_inconclusive(capsys):
    code, out, _ = run_main(capsys, ["nd", "A7~"])
    assert code == 0
    assert "[inconclusive] nd bounds:" in out


def test_unknown_surface_fails(capsys):
    code, out, _ = run_main(capsys, ["nd", "K3"])
    assert code == 1
    assert "[fail] catalog lookup: K3 not in catalog" in out


def _e8_data():
    return json.loads((catalog._data_dir() / "E8t.json").read_text())


def _without_edges():
    data = _e8_data()
    del data["edges"]
    return json.dumps(data)


def _bad_multiplicity():
    data = _e8_data()
    data["fibrations"][0]["multiplicity"] = "double"
    return json.dumps(data)


@pytest.mark.parametrize("text, reason", [
    ('{"name": "E8~", ', "Expecting"),
    (_without_edges(), "missing key 'edges'"),
    (_bad_multiplicity(), "bad multiplicity 'double'"),
], ids=("invalid-json", "missing-key", "catalog-data-error"))
def test_malformed_catalog_data_fails_cleanly(capsys, tmp_path, text, reason):
    (tmp_path / "bad.json").write_text(text)
    code, out, err = run_main(
        capsys, ["verify-surface", "E8~", "--catalog-dir", str(tmp_path)])
    assert code == 1
    assert err == ""
    assert f"[fail] catalog data: bad.json: {reason}" in out


def test_usage_error_exit_code(capsys):
    code, _, err = run_main(capsys, ["no-such-command"])
    assert code == 2
    assert "usage error" in err
    code, _, err = run_main(capsys, [])
    assert code == 2


def test_verify_surface_bp(capsys):
    code, out, _ = run_main(capsys, ["verify-surface", "BP"])
    assert code == 0
    assert "[fail]" not in out
    assert "surface: BP" in out


def test_json_schema_and_shape(capsys):
    code, out, _ = run_main(capsys, ["nd", "E7(2)", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "nd"
    assert payload["checks"] == [
        {"name": "nd bounds", "status": "pass", "detail": "min 3, max 3"}
    ]
    assert payload["artifacts"] == {"min_nd": 3, "max_nd": 3}


def test_fibrations_output_is_deterministic(capsys):
    first = run_main(capsys, ["fibrations", "2D4~"])
    second = run_main(capsys, ["fibrations", "2D4~"])
    assert first == second
    code, out, _ = first
    assert code == 0
    assert "[pass] fibration classes: 10" in out
    assert out.count("ray (") == 10


def test_fibrations_json_round_trip(capsys):
    code, out, _ = run_main(capsys, ["fibrations", "D8~", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["artifacts"]["classes"]) == 3


def test_sextic_check_default(capsys):
    code, out, _ = run_main(capsys, ["sextic-check"])
    assert code == 0
    assert "[pass] castelnuovo certificate" in out
    assert "quintic: x0^3*x1^2 + x0*x1^2*x2^2 + x0*x1^2*x3^2 + x0*x2^2*x3^2" \
        in out


def test_sextic_check_with_quadric(capsys):
    code, out, _ = run_main(capsys, ["sextic-check", "--q", "x0*x1 + 2*x2^2"])
    assert code == 0
    assert "[pass] castelnuovo certificate" in out


def test_sextic_check_rejects_garbage(capsys):
    code, _, err = run_main(capsys, ["sextic-check", "--q", "x9 +"])
    assert code == 2
    assert "cannot parse --q" in err


def test_sextic_check_rejects_wrong_degree(capsys):
    code, _, err = run_main(capsys, ["sextic-check", "--q", "x0^3"])
    assert code == 2


def test_sextic_check_rejects_high_degree_before_expanding(capsys):
    t0 = time.perf_counter()
    code, _, err = run_main(
        capsys, ["sextic-check", "--q", "(x0+x1+x2+x3)^200"])
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert "cannot parse --q: degree 200 exceeds 8" in err


@pytest.mark.parametrize("q, reason", [
    ("2^100000000", "exponent 100000000 exceeds 8"),
    ("9" * 5000 + "*x0*x1", "literal exceeds 100 digits"),
    ("(" + "9" * 60 + ")^2*x0*x1", "coefficient exceeds 100 digits"),
])
def test_sextic_check_rejects_huge_coefficients_at_once(capsys, q, reason):
    t0 = time.perf_counter()
    code, _, err = run_main(capsys, ["sextic-check", "--q", q])
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert f"cannot parse --q: {reason}" in err


def test_importing_the_package_does_not_import_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = "import sys, enriques.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_run_returns_report_object():
    report, args = cli.run(["lattice"])
    assert report.command == "lattice"
    assert not report.failed()
    with pytest.raises(cli.UsageError):
        cli.run([])


def test_report_rejects_bad_status():
    report = cli.Report(command="x")
    with pytest.raises(ValueError):
        report.add("check", "maybe")
