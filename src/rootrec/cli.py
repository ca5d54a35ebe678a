"""Command line interface and experiment orchestration.

``rootrec COMMAND CONFIG [--workers N]``: subcommands simulate, bounds,
experiment (also named tkf91) and validate each read a JSON config
through the same section readers.  The arguments are read by hand, not
by argparse, whose import and message catalogs would cost every command
a few ms.  Exit codes: 0 success; 2 a usage error, or the config is
wrong, found at set-up (reading it and building the trees, process,
root draw, estimator and stretch plans) before any trial; 3 a guard
fired during the run.  ``experiment`` runs any process on the members k
that "ks" lists, else on the family's last tree: its run builds the
tests' rows once, then runs each member's ``Trials`` through
``run_trials``, pickled to workers.  Block b of ``treechain.BLOCK``
trials draws from the substream (master seed, b), or (master seed, k, b)
on member k; workers get whole blocks, merged by trial index, so results
are identical for any worker count.  A config names one tree of a family
by its size ``k``: the tree is its last member.  The engine reaches a
process only through its members (README), so ``tkf91`` is imported
here alone, where a TKF91 process is read or its rows are built: a
finite chain's command never loads it.
"""

from __future__ import annotations

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
                         majority_estimates, map_estimates, stretch_plan,
                         uniform_chain_tests)
from .tree import NestedFamily, Tree, generate_family, parse_newick
from .treechain import BLOCK, simulated_trials

__all__ = ["Trials", "main", "run_trials", "validate_config"]

EXIT_OK, EXIT_CONFIG, EXIT_GUARD = 0, 2, 3

_REQUIRED = object()
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               list: "a list", dict: "an object"}
_FAMILY_KEYS = {"k": int, "m": int, "h": float, "s": float, "n_spine": int}
# experiment without "ks" writes output + each suffix; the rest write output
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
    seed = _get(spec, "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"family seed must be a non-negative integer, "
                          f"got {seed}")
    return generate_family(kind, params, seed)


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


def _point_estimates(estimates, block):
    """The block estimator of ``estimates``, which maps a block's leaf
    states to one estimate per trial: (estimate, no fallback) each."""
    return [(state, 0) for state in estimates(block.leaves)]


def _estimator_setup(cfg: dict, process, trees, bounded=False):
    """The run's builder ``build(seed)`` of each of ``trees``' (block
    estimator, stretch plan or None, bound or None), with the plans laid
    out here, so that an h* above a chosen leaf is found before any trial;
    ``bounded`` asks for a bound.  An estimator is a ``partial``, so it
    pickles."""
    est = _get(cfg, "estimator", dict)
    kind = _get(est, "kind", str, "frequency")
    if bounded and kind in ("majority", "map"):
        raise ConfigError(f"a {kind} estimator has no bound")
    row_samples = None
    if not isinstance(process, RateMatrix):
        # TKF91's rows are Monte Carlo plug-in rows: it runs the frequency
        # test on them, and no bound holds
        if bounded:
            raise ConfigError("a tkf91 estimator has no bound")
        if kind != "frequency":
            raise ConfigError(f"a tkf91 process runs the frequency "
                              f"estimator only, got {kind!r}")
        row_samples = _positive("row_samples",
                                _get(est, "row_samples", int, 4000))
    if kind == "majority":
        if process.n != 2:
            raise ConfigError(f"majority vote is two-state only, got a "
                              f"{process.n}-state chain")
        even = [len(t.leaves) for t in trees if len(t.leaves) % 2 == 0]
        if even:
            raise ConfigError(f"majority vote needs an odd leaf count, got "
                              f"{even[0]} leaves")
        votes = [majority_estimates] * len(trees)
    elif kind == "map":
        prior = _uniform_prior(process)
        votes = [partial(map_estimates, tree, process, prior)
                 for tree in trees]
    if kind in ("majority", "map"):
        return lambda seed: [(partial(_point_estimates, vote), None, None)
                             for vote in votes]
    if kind not in ("frequency", "uniform"):
        raise ConfigError(f"unknown estimator kind {kind!r}")
    # above 1, epsilon would leave no candidate
    eps = _get(est, "epsilon", float, None)
    if eps is not None and not 0 < eps <= 1:
        raise ConfigError(f"epsilon must lie in (0, 1], got {eps!r}")
    s = _positive("estimator s", _get(est, "s", float))
    h_star = _get(est, "h_star", float)
    return partial(_tests, process, kind, s, h_star, eps, row_samples,
                   [stretch_plan(tree, s, h_star) for tree in trees])


def _tests(process, kind, s, h_star, eps, row_samples, plans, seed) -> list:
    """(block estimator, plan, bound or None) of each of ``plans``, with
    one ``RowTable`` for all.  Here alone the process kinds differ: a
    finite chain's rows are exact (``row``), and TKF91's, whose epsilon
    defaults to 0.3, Monte Carlo plug-in rows from [seed, 10**9]."""
    if not isinstance(process, RateMatrix):
        from . import tkf91
        lam = tkf91.top_states(process, 0.3 if eps is None else eps)
        table = RowTable(tkf91.mc_rows(process, lam, h_star, row_samples,
                                       np.random.default_rng([seed, 10 ** 9])),
                         process.keys)
        return [(partial(frequency_tests, plan, lam, table), plan, None)
                for plan in plans]
    Q = process
    table = RowTable({i: Q.row(i, h_star) for i in Q.states}, Q.keys)
    # the tests differ in one argument, q* or the candidates, and a bound
    if kind == "uniform":
        test, arg, form = uniform_chain_tests, Q.q_star, prop54_uniform_bound
        inputs = BoundInputs(
            f_star=math.exp(-Q.q_star * h_star), q_star=Q.q_star, s=s,
            delta_q_hstar=min(table.delta(Q.states), 1.0))
    else:
        lam = list(Q.states if eps is None
                   else lambda_epsilon(_uniform_prior(Q), eps))
        test, arg, form = frequency_tests, lam, thm2_general_bound
        delta = table.delta(lam)
        # a lone candidate has no distance to another, and no bound
        inputs = math.isfinite(delta) and BoundInputs(
            epsilon=eps or 0.0, n_epsilon=len(lam), delta_epsilon=delta,
            q_star_epsilon=max(max(Q.exit_rates[i - 1] for i in lam), 1.0),
            s=s)
    return [(partial(test, plan, arg, table), plan,
             clamp(form(inputs._replace(m=plan.m))) if inputs else None)
            for plan in plans]


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


def _members(cfg: dict) -> list:
    """(k, member k) for each k of "ks"; without it (None, the last tree
    of the family, or the Newick tree)."""
    if "ks" not in cfg:
        return [(None, _build_tree(cfg))]
    if "newick" in _get(cfg, "family", dict):
        raise ConfigError("ks needs a family, not a newick tree")
    family, ks = _build_family(cfg), _get(cfg, "ks", list)
    for i, k in enumerate(ks):
        if not 1 <= _typed(f"ks[{i}]", k, int) <= len(family):
            raise ConfigError(f"family member k={k} out of range "
                              f"1..{len(family)}")
    return [(k, family[k - 1]) for k in ks]


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


# what a member's trials need, built when the run starts and pickled to
# workers: ``count`` trials, drawn by ``simulated_trials`` from substreams
# keyed by ``key`` (block b from [*key, b]): each block draws its roots
# with one ``draw(rng, size)`` call and its leaves on ``tree``, then the
# leaves of the stretch plan ``stretch`` (or None) run forward;
# ``estimate`` maps a TrialBlock to one (estimate, fallback flag) per trial
Trials = namedtuple("Trials", "tree process estimate draw key count stretch")


def _run_setup(cfg: dict):
    """Read and check a run's config; returns the builder of each member's
    (k, ``Trials`` keyed (seed, k), or (seed,) for k None, bound or None)."""
    members, process = _members(cfg), _build_process(cfg)
    build = _estimator_setup(cfg, process, [tree for _, tree in members])
    draw, seed, count = _root_draw(cfg, process), _seed(cfg), _trials(cfg)
    return lambda: [
        (k, Trials(tree, process, estimate, draw,
                   (seed,) if k is None else (seed, k), count, plan), bound)
        for (k, tree), (estimate, plan, bound) in zip(members, build(seed))]


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
    member_trials = _run_setup(cfg)
    out = _output(cfg, ("",) if "ks" in cfg else _EXPERIMENT_SUFFIXES)

    def run():
        members = member_trials()
        if "ks" in cfg:
            text = f"k,{_TALLY}\n"
            for k, trials, _ in members:
                tally = _tally(run_trials(trials, workers))
                text += f"{k},{_TALLY_CSV.format(*tally)}\n"
            return _emit(out, "", lambda fh: fh.write(text))
        ((_, trials, bound),) = members
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
        tree, process = _build_tree(cfg), _build_process(cfg)
        build = _estimator_setup(cfg, process, [tree], bounded=True)
        ((_, _, bound),) = build(None)
        if bound is None:
            raise ConfigError("a frequency estimator with one candidate "
                              "has no bound")
        lines.append(f"estimator_bound,{bound:.10g}")
    if not lines:
        raise ConfigError("nothing to bound: give recon and/or estimator")
    text = "".join(ln + "\n" for ln in lines)
    return partial(_emit, _output(cfg), "", lambda fh: fh.write(text))


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

    process = read(_build_process) if "process" in cfg else None
    read(_root_draw, process)
    members = read(_members) if "family" in cfg else None
    if "estimator" in cfg and members is not None:
        read(_estimator_setup, process, [tree for _, tree in members])
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
    # a second name for experiment, which runs every process
    "tkf91": _cmd_experiment,
    "validate": _cmd_validate,
}


_USAGE = "usage: rootrec COMMAND CONFIG [--workers N]"


def _usage_error(message: str):
    print(f"{_USAGE}\nrootrec: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_CONFIG)


def _parse_args(argv: list) -> tuple:
    """The command, config path and worker count of ``rootrec COMMAND
    CONFIG [--workers N]``: ``--workers N`` or ``--workers=N`` stands
    anywhere, and without it ``ROOTREC_WORKERS`` (default 1) is read."""
    names = ", ".join(sorted(_COMMANDS))
    if "-h" in argv or "--help" in argv:
        print(f"{_USAGE}\n\ncommands: {names}")
        raise SystemExit(EXIT_OK)
    args, positional = iter(argv), []
    workers = os.environ.get("ROOTREC_WORKERS", "1")
    for arg in args:
        if arg.startswith("--workers="):
            workers = arg[len("--workers="):]
        elif arg == "--workers":
            workers = next(args, None)
            if workers is None:
                _usage_error("argument --workers: expected one argument")
        elif arg.startswith("-") and arg != "-":
            _usage_error(f"unrecognized argument: {arg}")
        else:
            positional.append(arg)
    if len(positional) != 2:
        _usage_error(f"expected 2 arguments (COMMAND CONFIG), got "
                     f"{len(positional)}")
    if positional[0] not in _COMMANDS:
        _usage_error(f"unknown command {positional[0]!r} (choose from "
                     f"{names})")
    try:
        return (*positional, max(1, int(workers)))
    except ValueError:
        _usage_error(f"argument --workers: invalid int value: {workers!r}")


def main(argv=None) -> int:
    command, path, workers = _parse_args(
        sys.argv[1:] if argv is None else list(argv))
    # ConfigError, CtmcError, TreeError and EstimatorError are ValueErrors
    try:
        run = _COMMANDS[command](_load_config(path), workers)
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
