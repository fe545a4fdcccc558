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
import os
import sys
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import diagnostics
from .errors import GnmhError, NonFiniteDensity
from .jtest import JtestDomain, JtestOptions, jtest
from .model import (
    ExpSeriesArgs,
    ModelHandle,
    exp_series_handle,
    exp_series_model,
    quickstart_handle,
    quickstart_model,
    simple2d_handle,
)
from .posterior import GaussianPrior, log_posterior
from .sampler import Sampler, format_rows, g17


def quadrature_1d(log_density: Callable[[float], float], lo: float, hi: float,
                  n_points: int = 2001) -> Tuple[np.ndarray, np.ndarray]:
    """Trapezoid-rule density on a uniform grid, normalized over [lo, hi].

    Returns the grid and the normalized density values. ``log_density`` may
    return -inf (zero density); NaN or +inf raise NonFiniteDensity.
    """
    if n_points < 101:
        raise ValueError("n_points must be at least 101")
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


def exp_series_datagen(true_params=(1.0, 2.5, 0.5, 3.1), times=None,
                       noise_sd=0.1, seed: int = 14) -> ExpSeriesArgs:
    """Synthetic decay-series data: curve values plus seeded Gaussian noise.

    Defaults to two decay terms observed at ten evenly spaced times on
    [0, 3] with noise standard deviation 0.1. ``noise_sd=0`` produces the
    exact curve values; the stored residual scale is then 1 (it divides the
    residuals, so it cannot be zero).
    """
    true_params = np.asarray(true_params, dtype=float).reshape(-1)
    if times is None:
        times = np.linspace(0.0, 3.0, 10)
    times = np.asarray(times, dtype=float).reshape(-1)
    noise = np.broadcast_to(np.asarray(noise_sd, dtype=float), times.shape).copy()
    rng = np.random.default_rng(seed)
    _, clean, _ = exp_series_model(true_params, ExpSeriesArgs(times, np.zeros_like(times), np.ones_like(times)))
    data = clean + noise * rng.standard_normal(times.shape[0])
    scale = np.where(noise > 0.0, noise, 1.0)
    return ExpSeriesArgs(times=times, data=data, noise_sd=scale)


# ---------------------------------------------------------------------------
# Bundled example registry
# ---------------------------------------------------------------------------


def _badjac_model(x, args):
    """Quickstart with a deliberately wrong Jacobian (+0.01 offset)."""
    inside, f, jac = quickstart_model(x, args)
    return inside, f, [[jac[0][0] + 0.01]]


class _Example:
    def __init__(self, dim, build_handle, x0, prior_mean, prior_precision,
                 hist_range, jtest_box):
        self.dim = dim
        self.build_handle = build_handle
        self.x0 = x0
        self.prior_mean = prior_mean
        self.prior_precision = prior_precision
        self.hist_range = hist_range
        self.jtest_box = jtest_box


def _make_example(name: str, opts: dict) -> _Example:
    y = float(opts.get("y", 1.0 if name != "well" else 4.0))
    sigma = float(opts.get("sigma", 0.5))
    if name in ("quickstart", "well"):
        return _Example(
            dim=1,
            build_handle=lambda: quickstart_handle(y=y, sigma=sigma),
            x0=[0.5] if name == "quickstart" else [float(np.sqrt(y))],
            prior_mean=[0.0], prior_precision=[[1.0]],
            hist_range=(-3.0, 3.0), jtest_box=([-2.0], [2.0]),
        )
    if name == "simple2d":
        return _Example(
            dim=2,
            build_handle=lambda: simple2d_handle(y=y, sigma=sigma),
            x0=[1.0, 0.0],
            prior_mean=[0.0, 0.0], prior_precision=np.eye(2).tolist(),
            hist_range=(-2.0, 2.0), jtest_box=([-2.0, -2.0], [2.0, 2.0]),
        )
    if name == "expseries":
        data_seed = int(opts.get("data_seed", 14))
        args = exp_series_datagen(seed=data_seed)
        return _Example(
            dim=4,
            build_handle=lambda: exp_series_handle(args, n_terms=2),
            x0=[4.0, 2.0, 0.5, 1.0],
            prior_mean=[4.0, 2.0, 0.5, 1.0],
            prior_precision=(0.5 * np.eye(4)).tolist(),
            hist_range=(0.0, 5.0),
            jtest_box=([0.1] * 4, [5.0] * 4),
        )
    if name == "badjac":
        return _Example(
            dim=1,
            build_handle=lambda: ModelHandle(_badjac_model, {"y": y, "sigma": sigma}, dim_in=1),
            x0=[0.5], prior_mean=[0.0], prior_precision=[[1.0]],
            hist_range=(-3.0, 3.0), jtest_box=([-2.0], [2.0]),
        )
    raise ValueError(f"unknown example {name!r}")


_EXAMPLES = ("quickstart", "well", "simple2d", "expseries", "badjac")


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: str, rows: np.ndarray) -> None:
    """``header``, then each row of ``rows`` as ``format_rows`` writes it,
    formatted 4096 rows at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, rows.shape[0], 4096):
            fh.write(format_rows(rows[lo:lo + 4096], after="\n", sep=""))


def _write_histogram_csv(path: str, hist: diagnostics.HistogramResult) -> None:
    # one block per dimension, blocks separated by a blank line
    blocks = ["center,density,err\n" + format_rows(np.column_stack(cols), after="\n", sep="")
              for cols in zip(hist.centers, hist.density, hist.err)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(blocks))


# ---------------------------------------------------------------------------
# sample subcommand
# ---------------------------------------------------------------------------


def _merged_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    for key in ("example", "samples", "burn", "divs", "seed", "bins", "range",
                "backoff", "max_steps", "factor", "prior_mean",
                "prior_precision", "marginal", "out_dir", "checkpoint",
                "visual", "chains", "y", "sigma", "x0", "data_seed"):
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            cfg[key] = flag
    return cfg


def _cmd_sample(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    name = cfg.get("example", "quickstart")
    if name not in _EXAMPLES:
        print(f"error: unknown example {name!r}", file=sys.stderr)
        return 2
    n_samples = int(cfg.get("samples", 10000))
    if n_samples < 1:
        print("error: --samples must be at least 1", file=sys.stderr)
        return 2
    n_burn = int(cfg.get("burn", 0))
    divs = int(cfg.get("divs", 1))
    seed = int(cfg.get("seed", 0))
    n_bins = int(cfg.get("bins", 100))
    n_chains = int(cfg.get("chains", 1))
    if n_chains < 1:
        print("error: --chains must be at least 1", file=sys.stderr)
        return 2
    if not 0 <= n_burn < n_samples:
        print("error: --burn must lie in [0, samples)", file=sys.stderr)
        return 2

    example = _make_example(name, cfg)
    out_dir = cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)

    for c in range(n_chains):
        suffix = f"_{c}" if n_chains > 1 else ""
        code = _run_one_chain(example, cfg, name, n_samples, n_burn, divs,
                              seed + c, n_bins, out_dir, suffix)
        if code != 0:
            return code
    return 0


def _resolve_prior(cfg: dict, example: _Example, dim: int):
    mean = cfg.get("prior_mean", example.prior_mean)
    precision = cfg.get("prior_precision", example.prior_precision)
    if precision == "flat" or list(precision) == ["flat"]:
        precision = np.zeros((dim, dim))
    precision = np.asarray(precision, dtype=float)
    if precision.ndim == 1:
        precision = precision.reshape(dim, dim)
    return np.asarray(mean, dtype=float), precision


def _run_one_chain(example: _Example, cfg: dict, name: str, n_samples: int,
                   n_burn: int, divs: int, seed: int, n_bins: int,
                   out_dir: str, suffix: str) -> int:
    handle = example.build_handle()
    x0 = np.asarray(cfg.get("x0", example.x0), dtype=float)
    prior_mean, prior_precision = _resolve_prior(cfg, example, example.dim)
    sampler = Sampler(x0, handle, seed=seed,
                      prior=GaussianPrior.create(prior_mean, prior_precision))

    backoff = cfg.get("backoff", "none")
    if backoff == "static":
        sampler.set_static(int(cfg.get("max_steps", 1)), float(cfg.get("factor", 0.1)))
    elif backoff == "dynamic":
        sampler.set_dynamic(int(cfg.get("max_steps", 1)))
    elif backoff != "none":
        print(f"error: unknown back-off mode {backoff!r}", file=sys.stderr)
        return 2

    checkpoint = cfg.get("checkpoint")
    if checkpoint is not None and suffix:
        checkpoint = str(checkpoint) + suffix
    sampler.run_sample(n_samples, divs=divs, visual=bool(cfg.get("visual", False)),
                       safe=checkpoint)
    if n_burn:
        sampler.burn(n_burn)
    chain = sampler.chain

    _write_csv(os.path.join(out_dir, f"chain{suffix}.csv"),
               ",".join(f"x{j + 1}" for j in range(example.dim)), chain)

    lo, hi = _range_from_cfg(cfg, example)
    d_min = np.full(example.dim, lo) if np.ndim(lo) == 0 else np.asarray(lo, float)
    d_max = np.full(example.dim, hi) if np.ndim(hi) == 0 else np.asarray(hi, float)
    hist = diagnostics.error_bars(chain, n_bins, d_min, d_max)
    _write_histogram_csv(os.path.join(out_dir, f"histogram{suffix}.csv"), hist)

    for pair in cfg.get("marginal", []) or []:
        i, j = int(pair[0]), int(pair[1])
        ci, cj, density, err = diagnostics.error_bars_2d(chain, i, j, n_bins, d_min, d_max)
        # a-major: row a * len(cj) + b is (ci[a], cj[b])
        _write_csv(os.path.join(out_dir, f"marginal_{i}_{j}{suffix}.csv"), "ci,cj,density,err",
                   np.column_stack([np.repeat(ci, len(cj)), np.tile(cj, len(ci)),
                                    density.ravel(), err.ravel()]))

    if example.dim == 1:
        oracle_handle = example.build_handle()  # separate call counter
        prior = sampler.prior

        def log_density(x: float) -> float:
            point = np.array([x])
            return log_posterior(prior, oracle_handle.evaluate(point), point)

        grid, density = quadrature_1d(log_density, float(d_min[0]), float(d_max[0]))
        _write_csv(os.path.join(out_dir, f"quadrature{suffix}.csv"), "x,density",
                   np.column_stack([grid, density]))

    taus: List[Optional[float]] = []
    ess: List[Optional[float]] = []
    for j in range(example.dim):
        try:
            res = diagnostics.acor(chain[:, j])
            taus.append(res.tau)
            ess.append(chain.shape[0] / res.tau)
        except GnmhError:
            taus.append(None)
            ess.append(None)
    summary = {
        "example": name,
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
    return 0


def _range_from_cfg(cfg: dict, example: _Example):
    rng = cfg.get("range")
    if rng is None:
        return example.hist_range
    if len(rng) != 2:
        raise ValueError("--range needs exactly two numbers")
    return float(rng[0]), float(rng[1])


# ---------------------------------------------------------------------------
# jtest subcommand
# ---------------------------------------------------------------------------


def _cmd_jtest(args: argparse.Namespace) -> int:
    opts = {}
    if args.y is not None:
        opts["y"] = args.y
    if args.sigma is not None:
        opts["sigma"] = args.sigma
    if args.data_seed is not None:
        opts["data_seed"] = args.data_seed
    example = _make_example(args.example, opts)
    x_min = args.min if args.min is not None else example.jtest_box[0]
    x_max = args.max if args.max is not None else example.jtest_box[1]
    if len(x_min) != len(x_max) or not all(a < b for a, b in zip(x_min, x_max)):
        print("error: empty box, need min < max componentwise", file=sys.stderr)
        return 2
    options = JtestOptions(
        dx=args.dx, N=args.n_points, eps_max=args.eps_max,
        p=args.p, l_max=args.l_max, r=args.r,
    )
    handle = example.build_handle()
    error = jtest(handle, JtestDomain.create(x_min, x_max), options,
                  rng=args.seed)
    if error == 0.0:
        print("0")
        return 0
    print(g17(error))
    return 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnmh",
        description="Gauss-Newton Metropolis sampler with back-off",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="run a bundled example and emit data files")
    ps.add_argument("--example", choices=_EXAMPLES)
    ps.add_argument("--samples", type=int)
    ps.add_argument("--burn", type=int)
    ps.add_argument("--divs", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--bins", type=int)
    ps.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"))
    ps.add_argument("--backoff", choices=("none", "static", "dynamic"))
    ps.add_argument("--max-steps", type=int, dest="max_steps")
    ps.add_argument("--factor", type=float)
    ps.add_argument("--prior-mean", type=float, nargs="+", dest="prior_mean")
    ps.add_argument("--prior-precision", nargs="+", dest="prior_precision",
                    help="row-major entries, or the single word 'flat'")
    ps.add_argument("--marginal", type=int, nargs=2, action="append",
                    metavar=("I", "J"))
    ps.add_argument("--out-dir", dest="out_dir")
    ps.add_argument("--checkpoint", help="enables safe mode, writing here")
    ps.add_argument("--visual", action="store_true")
    ps.add_argument("--chains", type=int)
    ps.add_argument("--x0", type=float, nargs="+")
    ps.add_argument("--y", type=float)
    ps.add_argument("--sigma", type=float)
    ps.add_argument("--data-seed", type=int, dest="data_seed")
    ps.add_argument("--config", help="JSON file of settings; flags override it")
    ps.set_defaults(func=_cmd_sample)

    pj = sub.add_parser("jtest", help="check a bundled model's Jacobian")
    pj.add_argument("--example", choices=_EXAMPLES, default="quickstart")
    pj.add_argument("--min", type=float, nargs="+")
    pj.add_argument("--max", type=float, nargs="+")
    pj.add_argument("--dx", type=float, default=2e-4)
    pj.add_argument("-N", "--n-points", type=int, default=1000, dest="n_points")
    pj.add_argument("--eps-max", type=float, default=1e-4, dest="eps_max")
    pj.add_argument("--p", type=float, default=2.0)
    pj.add_argument("--l-max", type=int, default=50, dest="l_max")
    pj.add_argument("--r", type=float, default=0.5)
    pj.add_argument("--y", type=float)
    pj.add_argument("--sigma", type=float)
    pj.add_argument("--data-seed", type=int, dest="data_seed")
    pj.add_argument("--seed", type=int, default=0)
    pj.set_defaults(func=_cmd_jtest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GnmhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
