"""Property test of the `sweep` and `thermo` command line (hypothesis)."""

import contextlib
import io

import numpy as np
import pytest

from qetsim import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True)
@hypothesis.given(command=st.sampled_from(["sweep", "thermo"]),
                  h_min=st.one_of(st.floats(0.0, 2e4), _FINITE),
                  h_max=st.one_of(st.floats(0.0, 2e4), _FINITE),
                  h_steps=st.integers(2, 4),
                  k=st.one_of(st.sampled_from([1.0, 1e-100, 1e100]),
                              st.floats(1e-120, 1e120), _FINITE))
def test_every_finite_grid_gives_rows_or_exit_2(command, h_min, h_max,
                                                h_steps, k):
    # either exit 0 with one finite row per field, or exit 2 with nothing
    # on stdout and one error line; any other exception fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, f"--h-min={h_min!r}", f"--h-max={h_max!r}",
                         f"--h-steps={h_steps}", f"--k={k!r}"])
    if code == 0:
        rows = out.getvalue().splitlines()[1:]
        assert len(rows) == h_steps
        assert np.isfinite([[float(c) for c in row.split(",")]
                            for row in rows]).all()
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
