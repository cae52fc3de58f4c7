"""Fuzzing of `w1 reduce` at the CLI boundary: every input either gives a
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
