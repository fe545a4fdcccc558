"""Command-line driver.

Two subcommands: ``sample`` runs a bundled example model and emits plot-ready
data files (chain CSV, summary JSON, per-dimension histograms with error
bars, optional 2D marginal grids, and a quadrature overlay for 1D problems);
``jtest`` runs the Jacobian check on a bundled model over a box.

Exit codes: 0 success, 1 analysis failure (Jacobian test failed), 2 usage
error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Callable, List, Optional, Tuple, TypeVar

import numpy as np

from . import diagnostics
from .errors import GnmhError, NonFiniteDensity, check_count, check_finite, check_range
from .jtest import JtestDomain, JtestOptions, jtest
from .kernel import BackoffPolicy
from .model import (
    ExpSeriesArgs,
    ModelHandle,
    _example_args,
    exp_series_handle,
    exp_series_model,
    quickstart_model,
    simple2d_model,
)
from .posterior import GaussianPrior, log_posterior
from .sampler import Sampler

_T = TypeVar("_T")


def quadrature_1d(log_density: Callable[[float], float], lo: float, hi: float,
                  n_points: int = 2001) -> Tuple[np.ndarray, np.ndarray]:
    """Trapezoid-rule density on a uniform grid, normalized over [lo, hi].

    Returns the grid and the normalized density values. ``log_density`` may
    return -inf (zero density); NaN or +inf raise NonFiniteDensity. The
    interval needs finite ends with lo < hi and a finite width hi - lo, and
    ``n_points`` is an integer of at least 101; ``ValueError`` refuses
    either before ``log_density`` is called.
    """
    check_range("quadrature interval", lo, hi)
    check_count("n_points", n_points, 101)
    grid = np.linspace(lo, hi, n_points)
    log_vals = np.array([log_density(float(x)) for x in grid])
    if np.any(np.isnan(log_vals)) or np.any(log_vals == np.inf):
        raise NonFiniteDensity("log density produced NaN or +inf")
    shift = np.max(log_vals)
    if shift == -np.inf:
        raise NonFiniteDensity("density is identically zero on the interval")
    vals = np.exp(log_vals - shift)
    total = np.trapezoid(vals, grid)
    return grid, vals / total


def exp_series_datagen(seed: int = 14) -> ExpSeriesArgs:
    """The bundled decay-series dataset: two decay terms with parameters
    (w1, w2, r1, r2) = (1.0, 2.5, 0.5, 3.1), observed at ten evenly spaced
    times on [0, 3], plus Gaussian noise of standard deviation 0.1 drawn
    from ``seed``."""
    times = np.linspace(0.0, 3.0, 10)
    noise_sd = np.full(10, 0.1)
    _, clean, _ = exp_series_model(np.array([1.0, 2.5, 0.5, 3.1]),
                                   ExpSeriesArgs(times, np.zeros(10), np.ones(10)))
    data = clean + noise_sd * np.random.default_rng(seed).standard_normal(10)
    return ExpSeriesArgs(times=times, data=data, noise_sd=noise_sd)


# ---------------------------------------------------------------------------
# Bundled example registry
# ---------------------------------------------------------------------------


def _badjac_model(x, args):
    """Quickstart with a deliberately wrong Jacobian (+0.01 offset)."""
    inside, f, jac = quickstart_model(x, args)
    return inside, f, [[jac[0][0] + 0.01]]


def _make_example(args: argparse.Namespace) -> Tuple[int, Callable[[], ModelHandle]]:
    """The example's dimension and model handle builder, with ``--y``, ``--sigma`` and
    ``--data-seed`` applied to the examples that read them. An example setting ``args``
    leaves at None takes the example's value; one of another length, or a y, sigma or data
    seed the model refuses, is a usage error."""
    name = args.example
    if name != "expseries":  # the ring and the double well read y and sigma
        y = args.y if args.y is not None else (4.0 if name == "well" else 1.0)
        sigma = args.sigma if args.sigma is not None else 0.5
        model_args = _flag_value("--sigma/--y", _example_args, y, sigma)
    if name == "simple2d":
        dim, build_handle = 2, lambda: ModelHandle(simple2d_model, model_args, dim_in=2)
        values = dict(x0=[1.0, 0.0], prior_mean=[0.0, 0.0], prior_precision=[1.0, 0.0, 0.0, 1.0],
                      range=[-2.0, 2.0], min=[-2.0, -2.0], max=[2.0, 2.0])
    elif name == "expseries":
        seed = args.data_seed if args.data_seed is not None else 14
        data = _flag_value(f"--data-seed {seed}", lambda: exp_series_datagen(seed=seed))
        dim, build_handle = 4, lambda: exp_series_handle(data, n_terms=2)
        values = dict(x0=[4.0, 2.0, 0.5, 1.0], prior_mean=[4.0, 2.0, 0.5, 1.0],
                      prior_precision=(0.5 * np.eye(4)).ravel().tolist(),
                      range=[0.0, 5.0], min=[0.1] * 4, max=[5.0] * 4)
    else:  # quickstart, well and badjac: the 1D double well
        model = _badjac_model if name == "badjac" else quickstart_model
        dim, build_handle = 1, lambda: ModelHandle(model, model_args, dim_in=1)
        values = dict(x0=[0.5], prior_mean=[0.0], prior_precision=[1.0],
                      range=[-3.0, 3.0], min=[-2.0], max=[2.0])
        if name == "well" and "x0" in vars(args) and args.x0 is None:
            if not y >= 0:
                raise ValueError(f"--y {y}: the well starts at sqrt(y); give --x0 for y < 0")
            values["x0"] = [math.sqrt(y)]
    for key, value in values.items():
        given = getattr(args, key, value)  # value itself for a setting of the other command
        if given is None:
            setattr(args, key, value)
        elif given != ["flat"] and len(given) != len(value):
            raise ValueError(f"--{key.replace('_', '-')}: the {name} example takes "
                             f"{len(value)} numbers, not {len(given)}")
    return dim, build_handle


_EXAMPLES = ("quickstart", "well", "simple2d", "expseries", "badjac")


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------


def _format_rows(rows: np.ndarray) -> str:
    """Each row of a 2-D float array as a line of its numbers at 17
    significant digits, enough to round-trip a float64, comma-separated.

    Each column's distinct numbers are formatted once, in one ``%`` call,
    and the lines are joined from those strings. Numbers are told apart by
    their bits, not by ``==``, so 0.0 and -0.0 keep their own strings.
    """
    n, k = rows.shape
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.int64)
    cells = [""] * (n * k)
    for j in range(k):
        distinct, index = np.unique(bits[:, j], return_inverse=True)
        # each string ends with its separator; "\0" splits them apart
        template = ("%.17g,\0" if j < k - 1 else "%.17g\n\0") * len(distinct)
        strings = (template % tuple(distinct.view(np.float64).tolist())).split("\0")
        cells[j::k] = np.array(strings[:-1], dtype=object)[index].tolist()
    return "".join(cells)


def _write_csv(path: str, header: str, rows: np.ndarray) -> None:
    """``header``, then the rows of ``rows``, formatted 4096 at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, rows.shape[0], 4096):
            fh.write(_format_rows(rows[lo:lo + 4096]))


def _write_histogram_csv(path: str, hist: diagnostics.HistogramResult) -> None:
    # one block per dimension, blocks separated by a blank line
    blocks = ["center,density,err\n" + _format_rows(np.column_stack(cols))
              for cols in zip(hist.centers, hist.density, hist.err)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(blocks))


# ---------------------------------------------------------------------------
# sample subcommand
# ---------------------------------------------------------------------------


def _flag_value(flag: str, build: Callable[..., _T], *params) -> _T:
    """The library object ``build(*params)`` that the value of ``flag``
    describes. The library's refusal of the value, a ``GnmhError`` or a
    ``ValueError``, is a usage error naming the flag."""
    try:
        return build(*params)
    except (GnmhError, ValueError) as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _cmd_sample(args: argparse.Namespace) -> int:
    """Build the whole run, every chain's sampler included, before the out-dir is made:
    a setting that cannot describe a run, or a refused start point, writes nothing."""
    check_count("--seed", args.seed, 0)
    for flag in ("samples", "chains", "bins", "divs"):
        check_count(f"--{flag}", getattr(args, flag), 1)
    if args.divs > args.samples:
        raise ValueError(f"--divs {args.divs} is more than --samples {args.samples}; "
                         f"each division must hold a transition")
    if not 0 <= args.burn < args.samples:
        raise ValueError("--burn must lie in [0, samples)")
    policy = _flag_value(f"--backoff {args.backoff}", {
        "none": BackoffPolicy.none,
        "static": lambda: BackoffPolicy.static(args.max_steps, args.factor, args.alpha),
        "dynamic": lambda: BackoffPolicy.dynamic(args.max_steps, args.alpha),
    }[args.backoff])
    dim, build_handle = _make_example(args)
    check_finite(f"--x0: the start point {args.x0}", args.x0)
    lo, hi = args.range
    check_range("--range", lo, hi)
    for pair in args.marginal:
        if not all(0 <= k < dim for k in pair):
            raise ValueError(f"--marginal {pair[0]} {pair[1]}: indices must lie in [0, {dim})")
    prior = _flag_value("--prior-mean/--prior-precision", lambda: GaussianPrior.flat(
        args.prior_mean) if args.prior_precision == ["flat"] else GaussianPrior.create(
        args.prior_mean, np.asarray(args.prior_precision, dtype=float).reshape(dim, dim)))

    samplers = []
    for c in range(args.chains):
        samplers.append(Sampler(args.x0, build_handle(), seed=args.seed + c, prior=prior))
        samplers[-1].policy = policy
    curve = None
    if dim == 1:
        oracle_handle = build_handle()  # separate call counter
        curve = quadrature_1d(lambda x: log_posterior(prior, oracle_handle.evaluate([x])), lo, hi)
    os.makedirs(args.out_dir, exist_ok=True)

    for c in range(args.chains):
        # popped, so a written chain's rows are freed before the next one runs
        _run_one_chain(args, samplers.pop(0), args.seed + c, curve,
                       f"_{c}" if args.chains > 1 else "")
    return 0


def _run_one_chain(args: argparse.Namespace, sampler: Sampler, seed: int,
                   curve: Optional[Tuple[np.ndarray, np.ndarray]], suffix: str) -> None:
    """Run and burn ``sampler`` and write its files; ``curve`` is a 1D example's quadrature."""
    dim, out_dir = sampler.dim, args.out_dir
    checkpoint = args.checkpoint + suffix if args.checkpoint is not None else None
    sampler.run_sample(args.samples, divs=args.divs, visual=args.visual, safe=checkpoint)
    if args.burn:
        sampler.burn(args.burn)
    chain = sampler.chain

    _write_csv(os.path.join(out_dir, f"chain{suffix}.csv"),
               ",".join(f"x{j + 1}" for j in range(dim)), chain)

    d_min, d_max = np.full(dim, args.range[0]), np.full(dim, args.range[1])
    hist = diagnostics.error_bars(chain, args.bins, d_min, d_max)
    _write_histogram_csv(os.path.join(out_dir, f"histogram{suffix}.csv"), hist)

    for i, j in args.marginal:
        ci, cj, density, err = diagnostics.error_bars_2d(chain, i, j, args.bins, d_min, d_max)
        # a-major: row a * len(cj) + b is (ci[a], cj[b])
        _write_csv(os.path.join(out_dir, f"marginal_{i}_{j}{suffix}.csv"), "ci,cj,density,err",
                   np.column_stack([np.repeat(ci, len(cj)), np.tile(cj, len(ci)),
                                    density.ravel(), err.ravel()]))

    if curve is not None:
        _write_csv(os.path.join(out_dir, f"quadrature{suffix}.csv"), "x,density",
                   np.column_stack(curve))

    taus: List[Optional[float]] = []
    ess: List[Optional[float]] = []
    for j in range(dim):
        try:
            res = diagnostics.acor(chain[:, j])
            taus.append(res.tau)
            ess.append(chain.shape[0] / res.tau)
        except GnmhError:
            taus.append(None)
            ess.append(None)
    summary = {
        "example": args.example,
        "seed": seed,
        "n_samples": sampler.n_samples,
        "n_accepted": sampler.n_accepted,
        "burned": sampler.burned,
        "accept_rate": sampler.accept_rate,
        "call_count": sampler.call_count,
        "step_count": {str(k): v for k, v in sampler.step_count.items()},
        "tau": taus,
        "ess": ess,
    }
    with open(os.path.join(out_dir, f"summary{suffix}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# jtest subcommand
# ---------------------------------------------------------------------------


def _cmd_jtest(args: argparse.Namespace) -> int:
    check_count("--seed", args.seed, 0)
    _, build_handle = _make_example(args)
    domain = _flag_value("--min/--max", JtestDomain.create, args.min, args.max)
    options = JtestOptions(dx=args.dx, N=args.n_points, eps_max=args.eps_max,
                           p=args.p, l_max=args.l_max, r=args.r)
    error = jtest(build_handle(), domain, options, rng=args.seed)
    print("%.17g" % error)
    return 0 if error == 0.0 else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a word like ``-1e-5`` or ``-2.5E+3`` as a
    negative number, not as an option; argparse itself takes only ``-N``
    and ``-N.N``. The pattern replaces argparse's ``_negative_number_matcher``,
    which it reads to classify each word. Its subparsers are of this class
    too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _config_words(key: str, value) -> List[str]:
    """The command-line words for one config value, lists flattened."""
    if isinstance(value, list):
        return [word for item in value for word in _config_words(key, item)]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config setting {key!r} holds {json.dumps(value)}, "
                         "not a number, a string or a list of them")
    return [str(value)]


def _with_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 argv: List[str]) -> argparse.Namespace:
    """Parse ``argv`` again with the settings in ``args.config`` as flags in
    front of the command line's, so the parser checks both and flags win."""
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {args.config} does not hold a JSON object")
    words = []
    for key, value in cfg.items():
        if key == "config" or key not in vars(args):
            raise ValueError(f"config file {args.config}: {key!r} is not a config setting")
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            words += [flag] if value else []
        elif key == "marginal" and isinstance(value, list):
            for pair in value:
                words += [flag, *_config_words(key, pair)]
        else:
            words += [flag, *_config_words(key, value)]
    at = argv.index("sample") + 1
    merged = parser.parse_args(argv[:at] + words + argv[at:])
    if args.marginal:  # --marginal appends, so the command line's pairs replace the file's here
        merged.marginal = args.marginal
    return merged


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gnmh",
        description="Gauss-Newton Metropolis sampler with back-off",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = argparse.ArgumentDefaultsHelpFormatter

    ps = sub.add_parser("sample", help="run a bundled example and emit data files",
                        description="Settings whose default is None take the example's value.",
                        formatter_class=defaults)
    ps.add_argument("--example", choices=_EXAMPLES, default="quickstart", help="bundled model")
    ps.add_argument("--samples", type=int, default=10000, help="transitions to run")
    ps.add_argument("--burn", type=int, default=0, help="leading rows dropped after the run")
    ps.add_argument("--divs", type=int, default=1, help="checkpoint and progress divisions")
    ps.add_argument("--seed", type=int, default=0, help="seed of the first chain")
    ps.add_argument("--bins", type=int, default=100, help="histogram bins per coordinate")
    ps.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"), help="histogram range")
    ps.add_argument("--backoff", choices=("none", "static", "dynamic"), default="none",
                    help="how a rejected proposal is contracted")
    ps.add_argument("--max-steps", type=int, default=1, help="proposals after the first one")
    ps.add_argument("--factor", type=float, default=0.1, help="static back-off dilation factor")
    ps.add_argument("--alpha", type=int, default=2,
                    help="back-off mean exponent, 1 or 2: a kernel dilated by s moves its "
                         "mean as s**alpha; 1 is the paper's kernel")
    ps.add_argument("--prior-mean", type=float, nargs="+")
    ps.add_argument("--prior-precision", nargs="+",
                    help="row-major entries, or the single word 'flat'")
    ps.add_argument("--marginal", type=int, nargs=2, action="append", default=[],
                    metavar=("I", "J"), help="write the 2D marginal of x_I and x_J")
    ps.add_argument("--out-dir", default=".", help="directory of the output files")
    ps.add_argument("--checkpoint", metavar="PATH",
                    help="enables safe mode: after each division the state and the "
                         "chain rows are saved to the one checkpoint file PATH")
    ps.add_argument("--visual", action="store_true", help="print progress after each division")
    ps.add_argument("--chains", type=int, default=1, help="chains, seeded seed, seed + 1, ...")
    ps.add_argument("--x0", type=float, nargs="+")
    ps.add_argument("--y", type=float)
    ps.add_argument("--sigma", type=float)
    ps.add_argument("--data-seed", type=int)
    ps.add_argument("--config", help="JSON file of settings; flags override it")
    ps.set_defaults(func=_cmd_sample)

    pj = sub.add_parser("jtest", help="check a bundled model's Jacobian", formatter_class=defaults)
    pj.add_argument("--example", choices=_EXAMPLES, default="quickstart", help="bundled model")
    pj.add_argument("--min", type=float, nargs="+")
    pj.add_argument("--max", type=float, nargs="+")
    pj.add_argument("--dx", type=float, default=JtestOptions.dx, help="first step / box width")
    pj.add_argument("-N", "--n-points", type=int, default=JtestOptions.N, help="test points")
    pj.add_argument("--eps-max", type=float, default=JtestOptions.eps_max, help="pass threshold")
    pj.add_argument("--p", type=float, default=JtestOptions.p, help="order of the error norm")
    pj.add_argument("--l-max", type=int, default=JtestOptions.l_max, help="shrinks per point")
    pj.add_argument("--r", type=float, default=JtestOptions.r, help="shrink ratio")
    pj.add_argument("--y", type=float)
    pj.add_argument("--sigma", type=float)
    pj.add_argument("--data-seed", type=int)
    pj.add_argument("--seed", type=int, default=0, help="seed of the test points")
    pj.set_defaults(func=_cmd_jtest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            args = _with_config(parser, args, argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code) if exc.code else 0
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GnmhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
