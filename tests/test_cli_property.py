"""Property tests of the command line: every finite field grid gives rows
or exit 2 (hypothesis), and the rows obey the theorems of their columns."""

import contextlib
import io

import numpy as np
import pytest

from qetsim import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the chain command's lengths, and so its rows per field
_CHAIN_LENGTHS = "4,50,1000"
_EXTRA_ARGS = {"chain": [f"--L-list={_CHAIN_LENGTHS}"]}
_ROWS_PER_FIELD = {"chain": len(_CHAIN_LENGTHS.split(","))}


def _run(argv):
    """(exit code, stdout, stderr) of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _table(text):
    """{column: values} of a CSV; an empty cell (the chain's ed_residual
    beyond L = 4) reads as 0."""
    header, *rows = text.splitlines()
    cells = np.array([[float(c) if c else 0.0 for c in row.split(",")]
                      for row in rows]).reshape(len(rows), -1)
    return len(rows), dict(zip(header.split(","), cells.T))


def _assert_column_theorems(command, columns):
    """The invariants each column obeys; thermo's entropy columns wait for
    an accurate relative entropy at large h/k."""
    if command == "sweep":
        extracted = columns["extracted_max"]
        site = columns["site_reduction_max"]
        assert (extracted >= 0.0).all() and (site >= 0.0).all()
        # the bond term is never positive at the site optimum
        assert (columns["net_at_site_optimum"] <= site).all()
        # the final energy is never below the ground energy, and the
        # extracted optimum measures along y
        assert (extracted <= columns["injected_axis_y"]).all()
    elif command == "thermo":
        cost, gain = columns["rotation_cost"], columns["correlator_gain"]
        site = columns["site_reduction_max"]
        # weak: the cost underflows to 0 at h/k ~ 1e-150 with k = 1e-100
        assert ((cost <= 0.0) & (0.0 <= site) & (site <= gain)).all()
        # the optimum splits into Bob's site and correlator terms
        assert (abs(cost + gain - site) <= 1e-12 * (abs(cost) + gain)).all()
    elif command == "spectrum":
        levels = np.stack([columns[f"E_{i}"] for i in range(1, 9)])
        assert (np.diff(levels, axis=0) >= 0.0).all()
    elif command == "chain":
        for name in ("xx_corr_abs", "yy_corr_abs", "r_squared"):
            assert ((columns[name] >= 0.0) & (columns[name] <= 1.0)).all()


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
@hypothesis.given(command=st.sampled_from(["sweep", "thermo", "spectrum",
                                           "chain"]),
                  h_min=st.one_of(st.floats(0.0, 2e4), _FINITE),
                  h_max=st.one_of(st.floats(0.0, 2e4), _FINITE),
                  h_steps=st.integers(2, 4),
                  k=st.one_of(st.sampled_from([1.0, 1e-100, 1e100]),
                              st.floats(1e-120, 1e120), _FINITE))
def test_every_finite_grid_gives_rows_or_exit_2(command, h_min, h_max,
                                                h_steps, k):
    # either exit 0 with finite rows for every field, obeying the
    # theorems of their columns, or exit 2 with nothing on stdout and one
    # error line; any other exception fails the test
    code, out, err = _run([command, f"--h-min={h_min!r}",
                           f"--h-max={h_max!r}", f"--h-steps={h_steps}",
                           f"--k={k!r}", *_EXTRA_ARGS.get(command, [])])
    if code == 0:
        rows, columns = _table(out)
        assert rows == h_steps * _ROWS_PER_FIELD.get(command, 1)
        assert np.isfinite(list(columns.values())).all()
        _assert_column_theorems(command, columns)
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


@pytest.mark.parametrize("k", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("command", ["sweep", "thermo", "spectrum", "chain"])
def test_column_theorems_over_the_accepted_range(command, k):
    # 61 evenly spaced fields in each decade band of h/k from 1e-6 to 1e4
    for h_min, h_max in ((1e-6, 1e-3), (1e-3, 1.0), (1.0, 100.0),
                         (100.0, 1e4)):
        code, out, _ = _run([command, f"--h-min={h_min!r}",
                             f"--h-max={h_max!r}", "--h-steps=61",
                             f"--k={k!r}", *_EXTRA_ARGS.get(command, [])])
        assert code == 0
        _assert_column_theorems(command, _table(out)[1])
