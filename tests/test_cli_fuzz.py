"""Fuzzing of the CLI boundary: `w1 reduce` input files, `--lambda`, `--t`,
and the orders and trial counts of `star check`.  Every input either gives a
report (exit 0) or is refused with one line on stderr (exit 2)."""

import contextlib
import io
import json

import pytest

from diagdeform.cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

leaf = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
value = st.recursive(
    leaf, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
# mostly well-formed terms, so that one bad field is often the only fault
exponent = st.integers(-2, 8) | st.sampled_from(
    [10**30, -10**30, 2.0, 2.5, "2", "x", None, float("inf"), float("nan")])
coefficient = st.integers(-9, 9) | st.fractions(max_denominator=9).map(str) | st.sampled_from(
    ["1/0", "x", "", None, [1], "nan", "inf", 1.5, "1e5000", "-2e-5000"])
terms = st.lists(st.tuples(exponent, exponent, coefficient).map(list), max_size=3)
# "gamma_f" is a misspelling the loader must refuse, not read as absent
cocycle = st.dictionaries(st.sampled_from(["gammaF", "gammaG", "gamma_f"]),
                          terms | value, max_size=2)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=cocycle | value, cutoff=st.integers(-5, 14))
# each of these once ended in a traceback: OverflowError, an AssertionError
# from the witness check, a RecursionError in the commutator, and a report
# value too long for int -> str
@example(doc={"gammaF": [[float("inf"), 0, "1"]]}, cutoff=6)
@example(doc={"gammaG": [[10**12, -10**12, "1"]]}, cutoff=6)
@example(doc={"gammaF": [[-1, 2, "1"]]}, cutoff=6)
@example(doc={"gammaG": [[1, 2, "1e100000"]]}, cutoff=6)
def test_w1_reduce_exits_0_or_2_with_one_line(doc, cutoff, tmp_path):
    path = tmp_path / "coc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["w1", "reduce", "--input", str(path),
                         "--cutoff", str(cutoff), "--json"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (doc, cutoff, code, err.getvalue())
    if code == 2:
        assert err.getvalue().strip() and "\n" not in err.getvalue().strip()
    else:
        assert json.loads(out.getvalue())["verdicts"] == {
            "projection_agrees_with_oracle": True}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--json"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert err.getvalue().strip() and "\n" not in err.getvalue().strip()
    return code, out.getvalue()


# random text, fractions and decimal exponent forms around the 1,000-digit
# cap; passed as --opt=value, so text starting with "-" stays a value
rational_text = (
    st.text(max_size=8)
    | st.fractions(max_denominator=99).map(str)
    | st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-1200, 1200))
    | st.sampled_from(["1e5000", "1e-5000", "1e1_001", "1/0", "0", "nan", "inf",
                       "\n1e5000", "1e" + "9" * 5000]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=rational_text)
def test_groebner_lambda_exits_0_or_2_with_one_line(text):
    code, out = run_cli(["groebner", "run", f"--lambda={text}"])
    if code == 0:
        assert json.loads(out)["payload"]["specialization"]["verdict"] in (
            "EXCEPTIONAL", "FIXED_BASIS")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(text=rational_text)
def test_sphere_t_exits_0_or_2_with_one_line(text):
    code, out = run_cli(["sphere", "exp-deform", "--trials", "1", "--order", "1",
                         f"--t={text}"])
    if code == 0:
        assert len(json.loads(out)["payload"]["descended_poles"]) == 3


# orders stay small: a qplane series never terminates, so a large order is
# slow work rather than a fault
@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["normal", "moyal", "qplane"]),
       order=st.integers(-3, 7), trials=st.integers(-2, 3))
def test_star_check_exits_0_or_2_with_one_line(kind, order, trials):
    code, out = run_cli(["star", "check", "--kind", kind,
                         "--order", str(order), "--trials", str(trials)])
    assert code == (0 if order >= 0 and trials >= 1 else 2)
    if code == 0:
        assert all(json.loads(out)["verdicts"].values())
