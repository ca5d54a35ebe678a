"""Command line interface and experiment orchestration.

Subcommands simulate, bounds, experiment, tkf91 and validate each read a
JSON config through the same section readers.  Exit codes: 0 success; 2
the config is wrong, found at set-up (reading it and building the tree,
chain, root draw and estimator) before any trial; 3 a guard fired during
the trials.  ``experiment`` and ``tkf91`` run their trials through
``run_trials`` on ``Trials`` built once at set-up, which workers receive
pickled; the estimators take a block of trials at a time.  Block b of
``treechain.BLOCK`` trials draws from the substream (master seed, b), or
(master seed, k, b) on tkf91's member k; workers get whole blocks and
their rows are merged by trial index, so results are identical for any
worker count.  A config names one tree of a family by the family's size
``k``: the tree is its last member.  The engine reaches a process only
through its members (README), so ``tkf91`` is imported here alone, where
a TKF91 process is read or run: a finite chain's command never loads it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from contextlib import nullcontext
from functools import partial

import numpy as np

from .bounds import (BoundInputs, clamp, prop54_uniform_bound,
                     recon_lower, recon_upper, thm2_general_bound,
                     wilson_interval)
from .ctmc import (Distribution, RateMatrix, jukes_cantor, load_rate_matrix,
                   two_state_symmetric)
from .estimators import (RowTable, frequency_tests, lambda_epsilon,
                         majority_estimate, map_estimates, stretch_plan,
                         uniform_chain_tests)
from .tree import NestedFamily, Tree, generate_family, parse_newick
from .treechain import BLOCK, simulated_trials

__all__ = ["Trials", "main", "run_trials", "validate_config"]

EXIT_OK, EXIT_CONFIG, EXIT_GUARD = 0, 2, 3

_REQUIRED = object()
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               list: "a list", dict: "an object"}
_FAMILY_KEYS = {"k": int, "m": int, "h": float, "s": float, "n_spine": int}
# experiment writes output + each suffix; the other commands write output
_EXPERIMENT_SUFFIXES = (".trials.csv", ".summary.csv")
# a ``_tally``'s fields in both summary CSVs, and their format
_TALLY = "trials,errors,rate,ci_low,ci_high"
_TALLY_CSV = "{},{},{:.10g},{:.10g},{:.10g}"


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return _typed("config", json.load(fh), dict)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e


def _typed(name: str, value, kind):
    """``value`` if it has the JSON type ``kind``: a bool is no number, an
    integer field refuses 2.7, and a number field refuses NaN and ±inf."""
    if kind is float and type(value) is int and abs(value) < 1e308:
        value = float(value)
    if type(value) is not kind or kind is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, "
                          f"got {value!r}")
    return value


def _get(spec: dict, key: str, kind, default=_REQUIRED):
    if key in spec:
        return _typed(key, spec[key], kind)
    if default is _REQUIRED:
        raise ConfigError(f"missing config key: {key}")
    return default


def _positive(name: str, value):
    if not value > 0:
        raise ConfigError(f"{name} must be positive")
    return value


def _build_family(cfg: dict) -> NestedFamily:
    spec = _get(cfg, "family", dict)
    kind = _get(spec, "kind", str)
    if "member" in spec:
        raise ConfigError("family member is not a key: member j of a "
                          "family is the last tree of k = j")
    params = {key: _get(spec, key, t) for key, t in _FAMILY_KEYS.items()
              if key in spec}
    return generate_family(kind, params, _get(spec, "seed", int, 0))


def _build_tree(cfg: dict) -> Tree:
    spec = _get(cfg, "family", dict)
    if "newick" in spec:
        return parse_newick(_get(spec, "newick", str))
    return _build_family(cfg)[-1]


def _build_process(cfg: dict):
    spec = _get(cfg, "process", dict)
    kind = _get(spec, "kind", str)
    if kind == "two_state":
        return two_state_symmetric(_get(spec, "q", float, 1.0))
    if kind == "uniform":
        return jukes_cantor(_get(spec, "rate", float, 1.0),
                            _get(spec, "n", int, 4))
    if kind == "matrix_file":
        try:
            return load_rate_matrix(_get(spec, "path", str))
        except OSError as e:
            raise ConfigError(f"cannot read rate matrix: {e}") from e
    if kind == "tkf91":
        from .tkf91 import Tkf91Params
        return Tkf91Params(
            *(_get(spec, key, float) for key in ("nu", "lam", "mu")),
            **{f"pi_{b}": _get(spec, f"pi_{b}", float, 0.25)
               for b in "ATCG"})
    raise ConfigError(f"unknown process kind {kind!r}")


def _uniform_prior(Q: RateMatrix) -> Distribution:
    return Distribution({i: 1.0 / Q.n for i in Q.states})


def _test_inputs(est: dict, epsilon) -> tuple:
    """s, h* and epsilon; above 1, epsilon would leave no candidate."""
    eps = _get(est, "epsilon", float, epsilon)
    if eps is not None and not 0 < eps <= 1:
        raise ConfigError(f"epsilon must lie in (0, 1], got {eps!r}")
    return (_positive("estimator s", _get(est, "s", float)),
            _get(est, "h_star", float), eps)


# block estimators: a TrialBlock -> one (estimate, fallback flag) per trial


def _majority(tree, block):
    return [(majority_estimate(observed), 0)
            for _, _, observed in block.trials(tree)]


def _map(tree, Q, prior, block):
    return [(state, 0) for state in map_estimates(tree, Q, prior,
                                                  block.leaves)]


def _build_estimator(cfg: dict, tree: Tree, Q: RateMatrix) -> tuple:
    """The block estimator, its stretch plan (None if it stretches no
    leaves), and its bound or None; an h* above a leaf is found here,
    before any trial.  The estimator is a ``partial``, so it pickles."""
    if not isinstance(Q, RateMatrix):
        raise ConfigError("the estimator needs a finite-chain process")
    est = _get(cfg, "estimator", dict)
    kind = _get(est, "kind", str)
    if kind == "majority":
        return partial(_majority, tree), None, None
    if kind == "map":
        return partial(_map, tree, Q, _uniform_prior(Q)), None, None
    if kind not in ("frequency", "uniform"):
        raise ConfigError(f"unknown estimator kind {kind!r}")
    s, h_star, eps = _test_inputs(est, None)
    plan = stretch_plan(tree, s, h_star)
    table = RowTable({i: Q.row(i, h_star) for i in Q.states}, Q.keys)
    # the tests differ in one argument: q* or the candidate states
    if kind == "uniform":
        test, arg = uniform_chain_tests, Q.q_star
        bound = clamp(prop54_uniform_bound(BoundInputs(
            f_star=math.exp(-Q.q_star * h_star), q_star=Q.q_star, s=s,
            m=plan.m, delta_q_hstar=min(table.delta(Q.states), 1.0))))
    else:
        lam = list(Q.states if eps is None
                   else lambda_epsilon(_uniform_prior(Q), eps))
        test, arg = frequency_tests, lam
        delta = table.delta(lam)
        bound = clamp(thm2_general_bound(BoundInputs(
            epsilon=eps or 0.0, n_epsilon=len(lam), delta_epsilon=delta,
            q_star_epsilon=max(max(Q.exit_rates[i - 1] for i in lam), 1.0),
            s=s, m=plan.m))) if math.isfinite(delta) else None
    return partial(test, plan, arg, table), plan, bound


def _root_draw(cfg: dict, process):
    """The process's ``roots`` of "root", the one key of two JSON types,
    which TKF91 does not read."""
    return process.roots(cfg.get("root", "uniform"))


def _trials(cfg: dict, default=_REQUIRED) -> int:
    return _positive("trials", _get(cfg, "trials", int, default))


def _seed(cfg: dict) -> int:
    seed = _get(cfg, "seed", int)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must be a non-negative 64-bit integer")
    return seed


def _tkf91_inputs(cfg: dict, family: NestedFamily) -> tuple:
    """s, h*, epsilon, "ks" (None: all members), "row_samples", and the
    stretch plans of the listed members (None without "ks"), so that an
    h* above a chosen leaf of one of them is found at set-up.  Laying out
    every member of a family is O(k²), so without "ks" each member's plan
    is laid out when its trials run."""
    est = _get(cfg, "estimator", dict)
    s, h_star, eps = _test_inputs(est, 0.3)
    ks = _get(cfg, "ks", list, None)
    for i, k in enumerate(ks or ()):
        if not 1 <= _typed(f"ks[{i}]", k, int) <= len(family):
            raise ConfigError(f"family member k={k} out of range "
                              f"1..{len(family)}")
    plans = None if ks is None else {
        k: stretch_plan(family[k - 1], s, h_star) for k in ks}
    return (s, h_star, eps, ks,
            _positive("row_samples", _get(est, "row_samples", int, 4000)),
            plans)


def _output(cfg: dict, suffixes=("",)):
    """The output path, None for stdout; no file it names with one of
    ``suffixes`` may be an existing directory."""
    path = _get(cfg, "output", str, None)
    head, tail = os.path.split("stdout" if path is None else path)
    if not tail or not os.path.isdir(head or "."):
        raise ConfigError(f"output {path!r} names no file in a directory")
    for name in () if path is None else (path + s for s in suffixes):
        if os.path.isdir(name):
            raise ConfigError(f"output {name!r} is a directory")
    return path


# what a run's trials need, built once at set-up and pickled to workers:
# ``count`` trials, drawn by ``simulated_trials`` from substreams keyed
# by ``key`` (block b from [*key, b]): each block draws its roots with
# one ``draw(rng, size)`` call and its leaves on ``tree``, then the leaves
# of the stretch plan ``stretch`` (or None) run forward; ``estimate`` maps
# a TrialBlock to one (estimate, fallback flag) per trial
Trials = namedtuple("Trials", "tree process estimate draw key count stretch")


def _trial_setup(cfg: dict) -> tuple:
    """The ``Trials`` of a finite-chain config, and its estimator's bound
    or None."""
    tree, Q = _build_tree(cfg), _build_process(cfg)
    estimate, stretch, bound = _build_estimator(cfg, tree, Q)
    return Trials(tree, Q, estimate, _root_draw(cfg, Q), (_seed(cfg),),
                  _trials(cfg), stretch), bound


def _trial_range(trials: Trials, lo: int, hi: int) -> list:
    """Rows (trial, truth, estimate, fallback) of trials lo to hi - 1; lo
    is a multiple of ``BLOCK``."""
    tree, process, estimate, draw, key, _, stretch = trials
    return [(t, truth, *row)
            for block in simulated_trials(tree, process, draw, key, hi, lo,
                                          stretch)
            for t, (truth, row) in enumerate(zip(block.roots,
                                                 estimate(block)),
                                             block.start)]


def _usable_cpus() -> int:
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def run_trials(trials: Trials, workers: int = 1) -> list:
    """All of ``trials``, ordered by trial index.

    A block of ``BLOCK`` trials reads one substream, so each worker gets
    a range of whole blocks, and any number of workers yields the same
    merged result.  The pool has at most one process per block and per
    usable CPU; each process gets the pickled ``trials``.
    """
    blocks = -(-trials.count // BLOCK)
    workers = max(1, min(workers, blocks, _usable_cpus()))
    if workers == 1:
        return _trial_range(trials, 0, trials.count)
    # imported here: it loads multiprocessing, which a one-process run
    # never needs
    from concurrent.futures import ProcessPoolExecutor
    cuts = [min(trials.count, BLOCK * (blocks * w // workers))
            for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_trial_range, [trials] * workers, cuts[:-1],
                         cuts[1:])
        return [row for part in parts for row in part]


def _write_trials_csv(rows, fh) -> None:
    fh.write("trial,true_root,estimate,fallback\n")
    for t, truth, state, fallback in rows:
        fh.write(f"{t},{truth},{state},{fallback}\n")


def _tally(rows) -> tuple:
    """(trials, errors, rate, Wilson interval low, high) of trial rows."""
    errors = sum(1 for _, truth, state, _ in rows if state != truth)
    return (len(rows), errors, errors / len(rows),
            *wilson_interval(errors, len(rows)))


def _write_summary_csv(rows, bound, fh) -> None:
    trials, _, rate, *_ = tally = _tally(rows)
    if bound is None:
        bound_s, ok = "", ""
    else:
        # 3 sigma slack on the empirical rate before comparing
        sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / trials)
        ok = int(rate - 3 * sigma <= bound) if bound < 1 else 1
        bound_s = f"{bound:.10g}"
    fh.write(f"{_TALLY},bound,empirical_le_bound\n"
             f"{_TALLY_CSV.format(*tally)},{bound_s},{ok}\n")


def _write_tkf91_csv(results, fh) -> None:
    fh.write(f"k,{_TALLY}\n")
    for k, *tally in results:
        fh.write(f"{k},{_TALLY_CSV.format(*tally)}\n")


def _emit(path, suffix: str, write_fn) -> int:
    with (nullcontext(sys.stdout) if path is None
          else open(path + suffix, "w")) as fh:
        write_fn(fh)
    return EXIT_OK


def _distribution(masses: dict) -> Distribution:
    return Distribution({int(k): _typed(f"mass of {k}", p, float)
                         for k, p in masses.items()})


# ---------------------------------------------------------------------------
# subcommands: each reads and builds all it needs, then returns its run


def _cmd_simulate(cfg: dict, workers: int):
    tree, proc = _build_tree(cfg), _build_process(cfg)
    draw = _root_draw(cfg, proc)
    key, trials, out = (_seed(cfg),), _trials(cfg, 1), _output(cfg)

    def write(fh):
        fh.write("trial,root,leaf,state\n")
        for block in simulated_trials(tree, proc, draw, key, trials):
            for t, truth, observed in block.trials(tree):
                for leaf in tree.leaves:
                    fh.write(f"{t},{truth},{leaf},{observed[leaf]}\n")
    return partial(_emit, out, "", write)


def _cmd_experiment(cfg: dict, workers: int):
    (trials, bound), out = (_trial_setup(cfg),
                            _output(cfg, _EXPERIMENT_SUFFIXES))

    def run():
        rows = run_trials(trials, workers)
        _emit(out, ".trials.csv", partial(_write_trials_csv, rows))
        return _emit(out, ".summary.csv",
                     partial(_write_summary_csv, rows, bound))
    return run


def _cmd_bounds(cfg: dict, workers: int):
    lines = []
    if "recon" in cfg:
        spec = _get(cfg, "recon", dict)
        prior = _distribution(_get(spec, "prior", dict))
        conds = {int(k): _distribution(_typed(f"conditionals[{k}]", d, dict))
                 for k, d in _get(spec, "conditionals", dict).items()}
        if set(prior.support) - set(conds):
            raise ConfigError("conditionals must cover every prior state")
        lines.append(f"recon_upper,{recon_upper(prior, conds):.10g}")
        lines.append(
            f"recon_lower,{recon_lower(prior, conds, prior.support):.10g}")
    if "estimator" in cfg:
        bound = _build_estimator(cfg, _build_tree(cfg),
                                 _build_process(cfg))[2]
        if bound is not None:
            lines.append(f"estimator_bound,{bound:.10g}")
    if not lines:
        raise ConfigError("nothing to bound: give recon and/or estimator")
    text = "".join(ln + "\n" for ln in lines)
    return partial(_emit, _output(cfg), "", lambda fh: fh.write(text))


def _cmd_tkf91(cfg: dict, workers: int):
    family, params = _build_family(cfg), _build_process(cfg)
    if isinstance(params, RateMatrix):
        raise ConfigError("tkf91 subcommand needs a tkf91 process")
    from . import tkf91
    s, h_star, eps, ks, row_samples, plans = _tkf91_inputs(cfg, family)
    count, seed, out = _trials(cfg), _seed(cfg), _output(cfg)
    draw = _root_draw(cfg, params)

    # member k's trials are keyed (seed, k); all share the plug-in rows
    def run():
        lam = tkf91.top_states(params, eps)
        rows = RowTable(tkf91.mc_rows(params, lam, h_star, row_samples,
                                      np.random.default_rng([seed, 10 ** 9])),
                        params.keys)
        results = []
        for k in range(1, len(family) + 1) if ks is None else ks:
            tree = family[k - 1]
            plan = (stretch_plan(tree, s, h_star) if plans is None
                    else plans[k])
            estimate = partial(frequency_tests, plan, lam, rows)
            results.append((k, *_tally(run_trials(
                Trials(tree, params, estimate, draw, (seed, k), count, plan),
                workers))))
        return _emit(out, "", partial(_write_tkf91_csv, results))
    return run


def validate_config(cfg: dict) -> list:
    """What the commands' readers raise on the sections the config has."""
    problems = []

    def read(reader, *args):
        # a reader whose input could not be read has nothing to check
        if any(arg is None for arg in args):
            return None
        try:
            return reader(cfg, *args)
        except ValueError as e:
            problems.append(str(e))

    # a process read is a RateMatrix or else TKF91's parameters
    Q = read(_build_process) if "process" in cfg else None
    read(_root_draw, Q)
    finite = isinstance(Q, RateMatrix)
    if Q is not None and not finite and "estimator" in cfg:
        read(_tkf91_inputs, read(_build_family))
    elif "family" in cfg:
        tree = read(_build_tree)
        if finite and "estimator" in cfg:
            read(_build_estimator, tree, Q)
    # the command is unknown here, so every file a command may write counts
    for key, reader in (("trials", _trials), ("seed", _seed),
                        ("output", partial(_output, suffixes=(
                            "", *_EXPERIMENT_SUFFIXES)))):
        if key in cfg:
            read(reader)
    return problems


def _cmd_validate(cfg: dict, workers: int):
    problems = validate_config(cfg)

    def run():
        for p in problems:
            print(f"violation: {p}")
        return EXIT_CONFIG if problems else EXIT_OK
    return run


_COMMANDS = {
    "simulate": _cmd_simulate,
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
    # argparse converts a string default too, so a bad ROOTREC_WORKERS
    # is a usage error like a bad --workers
    parser.add_argument("--workers", type=int,
                        default=os.environ.get("ROOTREC_WORKERS", "1"))
    args = parser.parse_args(argv)
    # ConfigError, CtmcError, TreeError and EstimatorError are ValueErrors
    try:
        run = _COMMANDS[args.command](_load_config(args.config),
                                      max(1, args.workers))
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run()
    except (ValueError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
