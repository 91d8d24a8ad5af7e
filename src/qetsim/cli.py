"""Command line front end that emits deterministic CSV data.

Subcommands:

* ``spectrum``  even-sector eigenvalues versus the edge field
* ``sweep``     correlators, measurement costs, and both maxima versus h
* ``thermo``    second-law budget terms versus h
* ``chain``     edge-correlator magnitudes versus chain length
* ``verify``    run the full invariant suite, exit 1 on any failure

CSV output is UTF-8 with comma separators, LF line endings, a header row,
and floats formatted %.12e (see SCHEMA.md); rerunning a command with the
same arguments reproduces the output byte for byte.  Exit codes: 0 on
success, 1 on verification failure, 2 for argument or I/O errors.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import chain as chain_mod
from . import checks as checks_mod
from .model import (MAX_FIELD_RATIO, MAX_PARAMETER, ModelParams,
                    even_sector_spectrum, ground_state)
from .optimize import (MAX_RESOLUTION, MIN_RESOLUTION, protocol_sweep,
                       validate_resolution)
from .protocol import correlators_closed
from .thermo import thermo_sweep


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.12e}"


def _write_csv(path, header, rows):
    """Write the CSV; a non-finite float cell raises before any output."""
    for row in rows:
        for name, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} = {value} at {header[0]} = {row[0]}: "
                                 f"outside the range the model resolves")
    text = "\n".join([",".join(header)]
                     + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _check_coupling(k):
    """Refuse a --k that ModelParams refuses, before any field is formed,
    naming --k and the value given."""
    if not 1.0 / MAX_PARAMETER <= k <= MAX_PARAMETER:
        raise ValueError(f"--k must be finite and in "
                         f"[{1.0 / MAX_PARAMETER:g}, {MAX_PARAMETER:g}], "
                         f"got --k={k}")


def _field_grid(h_min, h_max, steps, k):
    """np.linspace(h_min, h_max, steps) * k; refused unless steps >= 2,
    h_min <= h_max, and the ends, the span and both absolute end fields are
    finite.  The finiteness check runs on Python floats, which overflow to
    inf silently: numpy would warn about the overflow before the error."""
    if steps < 2:
        raise ValueError("--h-steps must be at least 2")
    if h_min > h_max:
        raise ValueError("--h-min must not exceed --h-max")
    if not all(map(math.isfinite, (h_min * k, h_max * k, h_max - h_min))):
        raise ValueError(f"--h-min, --h-max and --k must be finite, also "
                         f"as the fields h k and as the span; got {h_min}, "
                         f"{h_max}, {k}")
    return np.linspace(h_min, h_max, steps) * k


def _closed_form_grid(args):
    """The field grid of `sweep` and `thermo`, refused unless it lies in
    the accurate range of the closed forms (see model.MAX_FIELD_RATIO).
    --k is checked first, so the grid's product with k does not
    overflow."""
    _check_coupling(args.k)
    if not (0.0 <= args.h_min and args.h_max <= MAX_FIELD_RATIO):
        raise ValueError(f"--h-min and --h-max must be finite and in "
                         f"[0, {MAX_FIELD_RATIO:g}] (in units of k), where "
                         f"the closed forms are accurate; "
                         f"got {args.h_min}, {args.h_max}")
    return _field_grid(args.h_min, args.h_max, args.h_steps, args.k)


def cmd_spectrum(args):
    _check_coupling(args.k)
    rows = []
    for h in _field_grid(args.h_min, args.h_max, args.h_steps, args.k):
        levels = even_sector_spectrum(ModelParams(h=float(h), k=args.k))
        rows.append([float(h)] + [float(e) for e in levels])
    _write_csv(args.out, ["h"] + [f"E_{i}" for i in range(1, 9)], rows)
    return 0


def cmd_sweep(args):
    header = ["h", "xx_corr", "yy_corr", "h_xx_corr", "h_yy_corr",
              "injected_axis_y", "injected_axis_x", "extracted_max",
              "site_reduction_max", "net_at_site_optimum"]
    rows = [[r.h, r.xx, r.yy, r.h_xx, r.h_yy, r.injected_axis_y,
             r.injected_axis_x, r.extracted_max, r.site_reduction_max,
             r.net_at_site_optimum]
            for r in protocol_sweep(_closed_form_grid(args), k=args.k)]
    _write_csv(args.out, header, rows)
    return 0


def cmd_thermo(args):
    if args.h_min <= 0:
        raise ValueError("--h-min must be positive for the thermo sweep")
    header = ["h", "site_reduction_max", "rotation_cost", "correlator_gain",
              "kl_over_beta", "info_over_beta", "budget_residual"]
    rows = []
    for r in thermo_sweep(_closed_form_grid(args), k=args.k):
        residual = abs(r.site_reduction_max - r.kl_over_beta - r.info_over_beta)
        rows.append([r.h, r.site_reduction_max, r.rotation_cost,
                     r.correlator_gain, r.kl_over_beta, r.info_over_beta,
                     residual])
    _write_csv(args.out, header, rows)
    return 0


def _chain_fields(args):
    """--h alone, or the grid of --h-min and --h-max (either defaults to
    --h), times --k; a field or --k that ModelParams refuses is refused
    whatever the lengths.  --k is checked first and the product h k on
    Python floats, as in `_closed_form_grid`, so the refusal names the
    values given."""
    _check_coupling(args.k)
    if args.h_min is None and args.h_max is None:
        field = args.h * args.k
        if not math.isfinite(field):
            raise ValueError(f"--h and --k must be finite, also as the field "
                             f"h k; got {args.h}, {args.k}")
        ModelParams(h=field, k=args.k)
        return np.array([field])
    fields = _field_grid(args.h if args.h_min is None else args.h_min,
                         args.h if args.h_max is None else args.h_max,
                         args.h_steps, args.k)
    ModelParams(h=fields, k=args.k)
    return fields


def cmd_chain(args):
    lengths = [args.L] if args.L_list is None else args.L_list
    header = ["L", "h", "xx_corr_abs", "yy_corr_abs", "slope", "r_squared",
              "ed_residual"]
    rows = []
    for h in _chain_fields(args):
        scan = chain_mod.correlators_vs_length(float(h), args.k, lengths)
        for L, xx_abs, yy_abs in zip(scan.lengths, scan.xx_abs, scan.yy_abs):
            residual = None
            if L == 4:
                gs = ground_state(ModelParams(
                    h=chain_mod.effective_field(float(h), args.k), k=args.k))
                c = correlators_closed(gs)
                residual = max(abs(xx_abs - abs(c.xx)), abs(yy_abs - abs(c.yy)))
            rows.append([L, float(h), xx_abs, yy_abs, scan.slope,
                         scan.r_squared, residual])
    _write_csv(args.out, header, rows)
    return 0


def cmd_verify(args):
    validate_resolution(args.grid)
    results = checks_mod.run_all(seed=args.seed)
    width = max(len(r.name) for r in results)
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_passed &= r.passed
        detail = f"  {r.detail}" if r.detail else ""
        print(f"{status}  {r.name:<{width}}  residual {r.residual:.3e}"
              f"  (tolerance {r.tolerance:.0e}){detail}")
    print(f"{'all checks passed' if all_passed else 'VERIFICATION FAILED'}")
    return 0 if all_passed else 1


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qetsim",
        description="Energy-teleportation laboratory on the four-site chain")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, h_min, h_max, h_steps):
        p.add_argument("--k", type=float, default=1.0,
                       help="coupling strength k; --h-min and --h-max are "
                            "in units of k, while the CSV holds the absolute "
                            "field h and absolute energies")
        p.add_argument("--h-min", dest="h_min", type=float, default=h_min)
        p.add_argument("--h-max", dest="h_max", type=float, default=h_max)
        p.add_argument("--h-steps", dest="h_steps", type=int, default=h_steps)
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")

    p = sub.add_parser("spectrum", help="even-sector spectrum vs edge field")
    common(p, 0.0, 3.0, 61)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="protocol energies and correlators vs h")
    common(p, 0.02, 2.0, 100)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("thermo", help="second-law budget vs h")
    common(p, 0.05, 3.0, 60)
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("chain", help="edge correlators vs chain length")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--h", type=float, default=0.5,
                   help="edge field (single value, in units of k)")
    p.add_argument("--h-min", dest="h_min", type=float, default=None)
    p.add_argument("--h-max", dest="h_max", type=float, default=None)
    p.add_argument("--h-steps", dest="h_steps", type=int, default=2)
    p.add_argument("--L", type=int, default=1000, help="single chain length")
    p.add_argument("--L-list", dest="L_list", type=_int_list, default=None,
                   help="comma-separated lengths, e.g. 4,50,100,1000")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled-property checks")
    p.add_argument("--grid", type=int, default=MIN_RESOLUTION,
                   help=f"validated (even, {MIN_RESOLUTION} to "
                        f"{MAX_RESOLUTION}) but not read by the oracle")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
