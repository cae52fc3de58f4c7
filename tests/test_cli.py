import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diagdeform.cli import _emit, _encode, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sphere_h2_regular(capsys):
    code, out, _ = run_cli(["sphere", "h2", "--cutoff", "3", "--regular"], capsys)
    assert code == 0
    assert "check canonical_class_idempotent_on_basis: PASS" in out
    assert "(1)*x" in out


def test_weyl_eta_json_matches_frozen_table(capsys):
    code, out, _ = run_cli(["weyl", "eta", "--order", "2", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["payload"]["eta"]["1"] == [[1, 2, "1/2"]]
    assert data["payload"]["eta"]["2"] == [[1, 2, "-1/4"], [2, 3, "1/3"]]


def test_groebner_exceptional_is_payload_not_failure(capsys):
    code, out, _ = run_cli(["groebner", "run", "--lambda", "1/1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["payload"]["specialization"]["verdict"] == "EXCEPTIONAL"
    assert data["payload"]["exceptional_roots"] == ["0", "1"]


def test_groebner_generic_specialization(capsys):
    code, out, _ = run_cli(["groebner", "run", "--lambda", "7/3", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["payload"]["specialization"]["verdict"] == "FIXED_BASIS"


def test_star_check_qplane(capsys):
    code, out, _ = run_cli(
        ["star", "check", "--kind", "qplane", "--trials", "5"], capsys)
    assert code == 0
    assert "check xy_equals_exp_hbar_times_yx: PASS" in out


def test_diagram_nerve_ranks(capsys):
    code, out, _ = run_cli(
        ["diagram", "nerve", "--shape", "cospan", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["payload"]["cohomology_ranks"] == [1, 0, 0]


def test_w1_reduce_roundtrip(tmp_path, capsys):
    f = tmp_path / "coc.json"
    f.write_text(json.dumps(
        {"gammaF": [[1, 2, "1"]], "gammaG": [[0, 1, "3"]]}))
    code, out, _ = run_cli(
        ["w1", "reduce", "--input", str(f), "--cutoff", "6", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["payload"]["class_is_zero"] is True
    assert data["payload"]["witness"]["chi"] == [[1, 3, "1/3"]]


def test_w1_reduce_missing_file_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["w1", "reduce", "--input", str(tmp_path / "nope.json")])
    assert info.value.code == 2


def test_w1_reduce_misspelled_key_is_usage_error(tmp_path, capsys):
    f = tmp_path / "coc.json"
    f.write_text('{"gamma_f": [[1, 2, "1"]]}')
    with pytest.raises(SystemExit) as info:
        main(["w1", "reduce", "--input", str(f)])
    assert info.value.code == 2


def test_w1_basis_small_cutoff_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["w1", "basis", "--cutoff", "2"])
    assert info.value.code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-group"])
    assert info.value.code == 2


def test_bad_lambda_value_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["groebner", "run", "--lambda", "pi"])
    assert info.value.code == 2


def test_acceptance_filter(capsys):
    code, out, _ = run_cli(["acceptance", "--filter", "weyl"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines == ["PASS weyl-isomorphism", "PASS q-weyl-identities"]


def test_acceptance_unmatched_filter_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["acceptance", "--filter", "zzz"])
    assert info.value.code == 2


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run_cli(["weyl", "closed-form", "--order", "3", "--json"], capsys)
    _, out2, _ = run_cli(["weyl", "closed-form", "--order", "3", "--json"], capsys)
    assert out1 == out2


def test_failed_verdict_exits_1(capsys):
    report = {"command": "probe", "params": {}, "verdicts": {"broken": False},
              "payload": {}}
    assert _emit(report, False) == 1
    out = capsys.readouterr().out
    assert "check broken: FAIL" in out


def test_encoder_exact_scalars():
    assert _encode(Fraction(3, 2)) == "3/2"
    assert _encode({(1, 2): Fraction(1, 3)}) == {"1,2": "1/3"}
    assert _encode([True, None, 5]) == [True, None, 5]


@pytest.mark.parametrize("argv", [
    ["w1", "reduce", "--input", "{list}"],
    ["w1", "reduce", "--input", "{zero}"],
    ["diagram", "nerve", "--maxdim", "-3"],
    ["star", "check", "--kind", "moyal", "--order", "-1"],
    ["sphere", "series-check", "--order", "-1"],
    ["weyl", "eta", "--order", "0"],
    ["weyl", "stirling", "--n", "0"],
    ["weyl", "stirling", "--n", "-3"],
    ["weyl", "center", "--n", "0"],
    ["sphere", "h2", "--cutoff", "-1"],
    ["diagram", "nerve", "--maxdim", "-1"],
    ["diagram", "delta2", "--trials", "0"],
    ["w1", "reduce", "--input", "{empty}", "--cutoff", "-3"],
    ["groebner", "run", "--lambda", "1e5000"],
    ["sphere", "exp-deform", "--trials", "-1"],
    ["sphere", "exp-deform", "--trials", "0"],
])
def test_malformed_input_exits_2_with_one_line(argv, tmp_path, capsys):
    files = {"{list}": "[]", "{zero}": '{"gammaF": [[1, 2, "1/0"]]}', "{empty}": "{}"}
    path = tmp_path / "coc.json"
    for a in set(argv) & set(files):
        path.write_text(files[a])
    argv = [str(path) if a in files else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.strip() and "\n" not in err.strip()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["groebner", "run"],
    ["weyl", "eta", "--json"],
    ["sphere", "h2"],
    ["acceptance", "--filter", "sphere-h2", "--json"],
])
def test_closed_stdout_exits_0_without_traceback(argv, unbuffered):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "diagdeform.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


ACCEPTANCE_1729 = "1b05dfa72a53f9d5887309e95d9c168db6f9072cb2dbf52b9dd04eadaaac9477"


def test_acceptance_bytes_agree_across_fresh_processes():
    """String hashing is salted per process by PYTHONHASHSEED; no report
    byte may depend on it."""
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for hashseed in ("0", "7"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-m", "diagdeform.cli", "acceptance", "--seed", "1729", "--json"],
            capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0 and proc.stderr == b""
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == ACCEPTANCE_1729


# SHA-256 of the exact `--json` stdout, recorded before the scalar layer was
# moved onto integer numerators; any change to a reported byte shows here.
PINNED_REPORTS = [
    (["weyl", "stirling", "--n", "6"],
     "b8333c4a9d5d53a0acb9832efcdedbb30ce11fab5a732dacc7efd63fd9436179"),
    (["weyl", "center", "--n", "8"],
     "a1ebe8fa266463459abd1b0e38e69144e08e4a4449d3e2a4229d0f08fc41ff83"),
    (["weyl", "closed-form", "--order", "10"],
     "a1dd08bd37f2457a13808bca6033a3dba5ad59ab5d1908e34bc399e96311ed82"),
    (["groebner", "run"],
     "b26370e4efef151560409ff48c26f5fc397c3941b37bb79ab991e5197db2136a"),
    (["sphere", "h2", "--cutoff", "4"],
     "5f1de220bb7d554de6bef18a12621fd838d9f3cfcfa75539aea7112aeb5ed1c2"),
    (["acceptance", "--filter", "q-weyl-identities"],
     "63d6b7c02806da3b80fb727935a0b0b6ee5a4791233908d13dc9ad58e7e36f44"),
    # recorded before star products moved onto one merged integer tensor
    (["star", "check", "--kind", "normal"],
     "ad93882ac38819fce6e7d707445f491c4cc45063d308b7339c26c2ba1a22e194"),
    (["star", "check", "--kind", "moyal"],
     "586cf62132e8be7670ac9fb505cfd08fd2c03de14e6a695436331de1fb0f8528"),
    (["star", "check", "--kind", "qplane"],
     "47812100f04bfacec0e2dbaf53b05f90e01e54beac9d1d4d73d1fac0419b31e7"),
    (["acceptance", "--filter", "star-products"],
     "0e3f24e25922f7842d7be5482565c7676377798c63e9a3fd94cd1257b199b70c"),
    # recorded before SphereElement moved onto the sparse-polynomial core
    (["sphere", "exp-deform", "--direction", "1/(x-1)", "--base", "g", "--order", "3",
      "--trials", "5", "--t", "3/2"],
     "2cf678bb0e18a82c009baab3e5df83cc883e2761f1b58523de0daa044cb0ad74"),
    (["sphere", "series-check", "--order", "12"],
     "3fc7d08217e2468a719d0d692ef8092e9f68815e2834250c38875e00317e1d38"),
]


@pytest.mark.parametrize("argv,digest", PINNED_REPORTS,
                         ids=[" ".join(a) for a, _ in PINNED_REPORTS])
def test_json_report_bytes_are_pinned(argv, digest, capsys):
    code, out, _ = run_cli(argv + ["--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
