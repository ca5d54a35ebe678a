"""Command line interface and experiment orchestration.

Subcommands: simulate, estimate, bounds, experiment, tkf91, validate.
Each takes a JSON config file.  Exit codes: 0 success, 2 config error,
3 runtime guard violation.  Trials are seeded as (master seed, trial
index) substreams and merged by trial index, so results are identical
for any worker count (ROOTREC_WORKERS or --workers).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .bounds import (BoundInputs, clamp, prop54_uniform_bound,
                     recon_lower, recon_upper, thm2_general_bound,
                     wilson_interval)
from .ctmc import (CtmcError, Distribution, RateMatrix, jukes_cantor,
                   load_rate_matrix, two_state_symmetric)
from .estimators import (EstimatorError, RowTable, frequency_estimate,
                         lambda_epsilon, majority_estimate,
                         pruned_map_estimate, uniform_chain_estimate)
from .tkf91 import (Tkf91Params, Tkf91Process, stationary_sample,
                    tkf91_root_experiment, write_experiment_csv)
from .tree import (NestedFamily, Tree, TreeError, chosen_leaves,
                   generate_family, parse_newick)
from .treechain import simulated_trials

__all__ = ["main", "run_trials", "validate_config"]

EXIT_OK, EXIT_CONFIG, EXIT_GUARD = 0, 2, 3

# figure1 attaches leaf j at depth 2^-j; from j = 1075 on that underflows
# to 0 and the first spine edge has length 0.  figure2 builds on the
# figure1 spine of n_spine vertices, so the same limit holds for it.
FIGURE1_MAX_K = 1074


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config key: {key}")
    return cfg[key]


def _build_family(spec: dict) -> NestedFamily:
    kind = _require(spec, "kind")
    params = {k: v for k, v in spec.items() if k not in ("kind", "seed")}
    spines = {"figure1": ("k", params.get("k", params.get("m", 1))),
              "figure2": ("n_spine", params.get("n_spine", 3))}
    if kind in spines:
        name, size = spines[kind]
        if int(size) > FIGURE1_MAX_K:
            raise ConfigError(f"{kind} {name} must be at most "
                              f"{FIGURE1_MAX_K}: deeper spine depths "
                              f"2^-{name} underflow to 0")
    return generate_family(kind, params, int(spec.get("seed", 0)))


def _build_tree(cfg: dict) -> Tree:
    spec = _require(cfg, "family")
    if "newick" in spec:
        return parse_newick(spec["newick"])
    family = _build_family(spec)
    member = int(spec.get("member", len(family)))
    if not 1 <= member <= len(family):
        raise ConfigError(f"family member {member} out of range")
    return family[member - 1]


def _build_process(cfg: dict):
    spec = _require(cfg, "process")
    kind = _require(spec, "kind")
    if kind == "two_state":
        return two_state_symmetric(float(spec.get("q", 1.0)))
    if kind == "uniform":
        return jukes_cantor(float(spec.get("rate", 1.0)),
                            int(spec.get("n", 4)))
    if kind == "matrix_file":
        return load_rate_matrix(_require(spec, "path"))
    if kind == "tkf91":
        return Tkf91Params(nu=float(_require(spec, "nu")),
                           lam=float(_require(spec, "lam")),
                           mu=float(_require(spec, "mu")),
                           **{f"pi_{b}": float(spec.get(f"pi_{b}", 0.25))
                              for b in "ATCG"})
    raise ConfigError(f"unknown process kind {spec['kind']!r}")


def _uniform_prior(Q: RateMatrix) -> Distribution:
    return Distribution({i: 1.0 / Q.n for i in Q.states})


def _estimator_lam(cfg: dict, Q: RateMatrix):
    est = _require(cfg, "estimator")
    eps = est.get("epsilon")
    if eps is None:
        return list(Q.states)
    return list(lambda_epsilon(_uniform_prior(Q), float(eps)))


def _h_star_rows(Q: RateMatrix, h_star: float) -> RowTable:
    """Time-h* rows of every state, from the chain's transition cache."""
    return RowTable({i: Q.process.row(i, h_star) for i in Q.states})


def _build_estimator(cfg: dict, tree: Tree, Q: RateMatrix):
    """Returns observed, rng -> (estimate, fallback flag)."""
    est = _require(cfg, "estimator")
    kind = _require(est, "kind")
    if kind == "majority":
        return lambda obs, rng: (majority_estimate(obs), 0)
    if kind == "map":
        prior = _uniform_prior(Q)
        return lambda obs, rng: (pruned_map_estimate(tree, Q, prior, obs), 0)
    s = float(_require(est, "s"))
    if s <= 0:
        raise ConfigError("estimator s must be positive")
    h_star = float(_require(est, "h_star"))
    all_rows = _h_star_rows(Q, h_star)
    if kind == "frequency":
        lam = _estimator_lam(cfg, Q)

        def run(obs, rng):
            rep = frequency_estimate(tree, Q, obs, s, h_star, lam,
                                     all_rows, rng)
            return rep.state, int(rep.fallback)
        return run
    if kind == "uniform":
        q_star = Q.q_star

        def run(obs, rng):
            rep = uniform_chain_estimate(tree, Q, obs, s, h_star, q_star,
                                         lambda lam_hat: all_rows, rng)
            return rep.state, int(rep.fallback)
        return run
    raise ConfigError(f"unknown estimator kind {kind!r}")


def _bound_value(cfg: dict, tree: Tree, Q: RateMatrix):
    """Matching theoretical bound for the configured estimator, or None."""
    est = _require(cfg, "estimator")
    kind = _require(est, "kind")
    if kind not in ("frequency", "uniform"):
        return None
    s = float(_require(est, "s"))
    h_star = float(_require(est, "h_star"))
    m = len(chosen_leaves(tree, s))
    table = _h_star_rows(Q, h_star)
    if kind == "frequency":
        lam = _estimator_lam(cfg, Q)
        eps = float(est.get("epsilon", 0.0))
        delta = table.delta(lam)
        if not math.isfinite(delta):
            return None
        inp = BoundInputs(epsilon=eps, n_epsilon=len(lam),
                          delta_epsilon=delta,
                          q_star_epsilon=max(
                              max(Q.exit_rates[i - 1] for i in lam), 1.0),
                          s=s, m=m)
        return clamp(thm2_general_bound(inp))
    delta = table.delta(list(Q.states))
    inp = BoundInputs(f_star=math.exp(-Q.q_star * h_star),
                      delta_q_hstar=min(delta, 1.0),
                      q_star=Q.q_star, s=s, m=m)
    return clamp(prop54_uniform_bound(inp))


def _root_draw(cfg: dict, Q: RateMatrix):
    """rng -> root state: uniform over the chain's states, or the config's
    fixed "root", checked here once rather than on every trial."""
    root = cfg.get("root", "uniform")
    if root == "uniform":
        return lambda rng: int(rng.integers(Q.n)) + 1
    if root not in Q.states:
        raise ConfigError(f'root must be "uniform" or a state 1..{Q.n}, '
                          f"got {root!r}")
    root = int(root)
    return lambda rng: root


def _finite_chain_setup(cfg: dict) -> tuple:
    """The tree and rate matrix of an estimate/experiment config."""
    tree = _build_tree(cfg)
    Q = _build_process(cfg)
    if not isinstance(Q, RateMatrix):
        raise ConfigError("estimate/experiment need a finite-chain process")
    return tree, Q


def _trial_range(cfg: dict, lo: int, hi: int, setup=None) -> list:
    """Rows (trial, truth, estimate, fallback) of trials lo to hi - 1."""
    tree, Q = setup or _finite_chain_setup(cfg)
    est = _build_estimator(cfg, tree, Q)
    trials = simulated_trials(tree, Q, _root_draw(cfg, Q),
                              (int(_require(cfg, "seed")),), hi, start=lo)
    return [(t, truth, *est(observed, rng))
            for t, truth, observed, rng in trials]


def run_trials(cfg: dict, workers: int = 1, setup=None) -> list:
    """All trials of a finite-chain experiment, ordered by trial index.

    Trials are independent substreams, so any partition across workers
    yields the same merged result.  ``setup`` is the config's (tree, rate
    matrix) pair when the caller has built it, so that one process builds
    the tree and uniformizes each duration once; worker processes build
    their own.
    """
    trials = int(_require(cfg, "trials"))
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    workers = max(1, min(workers, trials))
    if workers == 1:
        return _trial_range(cfg, 0, trials, setup)
    cuts = [trials * w // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_trial_range, [cfg] * workers, cuts[:-1], cuts[1:])
        return [row for part in parts for row in part]


def _write_trials_csv(rows, fh) -> None:
    fh.write("trial,true_root,estimate,fallback\n")
    for t, truth, state, fallback in rows:
        fh.write(f"{t},{truth},{state},{fallback}\n")


def _write_summary_csv(cfg, rows, bound, fh) -> None:
    errors = sum(1 for _, truth, state, _ in rows if state != truth)
    trials = len(rows)
    lo, hi = wilson_interval(errors, trials)
    rate = errors / trials
    if bound is None:
        bound_s, ok = "", ""
    else:
        # 3 sigma slack on the empirical rate before comparing
        sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / trials)
        ok = int(rate - 3 * sigma <= bound) if bound < 1 else 1
        bound_s = f"{bound:.10g}"
    fh.write("trials,errors,rate,ci_low,ci_high,bound,empirical_le_bound\n")
    fh.write(f"{trials},{errors},{rate:.10g},{lo:.10g},{hi:.10g},"
             f"{bound_s},{ok}\n")


def _out_stream(cfg: dict, suffix: str = ""):
    path = cfg.get("output")
    if path is None:
        return sys.stdout, False
    return open(path + suffix, "w"), True


def _emit(cfg, suffix, write_fn) -> None:
    fh, close = _out_stream(cfg, suffix)
    try:
        write_fn(fh)
    finally:
        if close:
            fh.close()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(cfg: dict, workers: int) -> int:
    tree = _build_tree(cfg)
    Q = _build_process(cfg)
    if isinstance(Q, RateMatrix):
        proc, draw = Q, _root_draw(cfg, Q)
    else:
        proc, draw = Tkf91Process(Q), partial(stationary_sample, Q)
    trials = simulated_trials(tree, proc, draw, (int(_require(cfg, "seed")),),
                              int(cfg.get("trials", 1)))

    def write(fh):
        fh.write("trial,root,leaf,state\n")
        for t, truth, observed, _ in trials:
            for leaf in tree.leaves:
                fh.write(f"{t},{truth},{leaf},{observed[leaf]}\n")

    _emit(cfg, "", write)
    return EXIT_OK


def _cmd_estimate(cfg: dict, workers: int) -> int:
    rows = run_trials(cfg, workers)
    _emit(cfg, "", lambda fh: _write_trials_csv(rows, fh))
    return EXIT_OK


def _cmd_experiment(cfg: dict, workers: int) -> int:
    setup = _finite_chain_setup(cfg)
    bound = _bound_value(cfg, *setup)
    rows = run_trials(cfg, workers, setup)
    _emit(cfg, ".trials.csv" if cfg.get("output") else "",
          lambda fh: _write_trials_csv(rows, fh))
    _emit(cfg, ".summary.csv" if cfg.get("output") else "",
          lambda fh: _write_summary_csv(cfg, rows, bound, fh))
    return EXIT_OK


def _cmd_bounds(cfg: dict, workers: int) -> int:
    lines = []
    if "recon" in cfg:
        spec = cfg["recon"]
        prior = Distribution({int(k): v
                              for k, v in _require(spec, "prior").items()})
        conds = {int(k): Distribution({int(s): p for s, p in d.items()})
                 for k, d in _require(spec, "conditionals").items()}
        lines.append(f"recon_upper,{recon_upper(prior, conds):.10g}")
        lines.append(
            f"recon_lower,{recon_lower(prior, conds, prior.support):.10g}")
    if "estimator" in cfg and "process" in cfg and "family" in cfg:
        tree = _build_tree(cfg)
        Q = _build_process(cfg)
        if isinstance(Q, RateMatrix):
            bound = _bound_value(cfg, tree, Q)
            if bound is not None:
                lines.append(f"estimator_bound,{bound:.10g}")
    if not lines:
        raise ConfigError("nothing to bound: give recon and/or estimator")
    _emit(cfg, "", lambda fh: fh.write("".join(ln + "\n" for ln in lines)))
    return EXIT_OK


def _cmd_tkf91(cfg: dict, workers: int) -> int:
    family = _build_family(_require(cfg, "family"))
    params = _build_process(cfg)
    if not isinstance(params, Tkf91Params):
        raise ConfigError("tkf91 subcommand needs a tkf91 process")
    est = _require(cfg, "estimator")
    results = tkf91_root_experiment(
        family, params,
        s=float(_require(est, "s")),
        h_star=float(_require(est, "h_star")),
        trials=int(_require(cfg, "trials")),
        master_seed=int(_require(cfg, "seed")),
        epsilon=float(est.get("epsilon", 0.3)),
        row_samples=int(est.get("row_samples", 4000)),
        ks=cfg.get("ks"))
    _emit(cfg, "", lambda fh: write_experiment_csv(results, fh))
    return EXIT_OK


def validate_config(cfg: dict) -> list:
    """All invariant violations, without running anything."""
    problems = []
    try:
        Q = _build_process(cfg)
        if isinstance(Q, RateMatrix):
            _root_draw(cfg, Q)
    except (ConfigError, CtmcError) as e:
        problems.append(str(e))
    if "estimator" in cfg:
        est = cfg["estimator"]
        if est.get("kind") in ("frequency", "uniform"):
            if float(est.get("s", 0)) <= 0:
                problems.append("estimator s must be positive")
    if "family" in cfg:
        try:
            spec = cfg["family"]
            if "newick" in spec:
                parse_newick(spec["newick"])
            else:
                family = _build_family(spec)
                problems.extend(family.validate())
        except (ConfigError, TreeError) as e:
            problems.append(str(e))
    if "seed" in cfg and not 0 <= int(cfg["seed"]) < 2 ** 64:
        problems.append("seed must be a non-negative 64-bit integer")
    return problems


def _cmd_validate(cfg: dict, workers: int) -> int:
    problems = validate_config(cfg)
    for p in problems:
        print(f"violation: {p}")
    return EXIT_CONFIG if problems else EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "bounds": _cmd_bounds,
    "experiment": _cmd_experiment,
    "tkf91": _cmd_tkf91,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rootrec",
        description="Root-state reconstruction experiments on trees.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="JSON config file")
    parser.add_argument("--workers", type=int,
                        default=int(os.environ.get("ROOTREC_WORKERS", "1")))
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, max(1, args.workers))
    except (ConfigError, ValueError) as e:
        if isinstance(e, (CtmcError, TreeError, EstimatorError)):
            print(f"error: {e}", file=sys.stderr)
            return EXIT_GUARD
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
