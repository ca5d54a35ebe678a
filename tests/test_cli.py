import concurrent.futures
import copy
import importlib.util
import json
import os
import pickle
import re
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_substreams
from oracles import Delegate, exact_leaf_law, map_estimate, simulate
from rootrec import cli
from rootrec.cli import (EXIT_CONFIG, EXIT_GUARD, EXIT_OK, Trials,
                         _build_process, _build_tree, _run_setup,
                         _trial_range, _uniform_prior, main, run_trials,
                         validate_config)
from rootrec.ctmc import RateMatrix, two_state_symmetric
from rootrec.estimators import (MAP_TIE_RTOL, EstimatorError, RowTable,
                                exclusivity_stats, frequency_tests,
                                stretch_plan, uniform_chain_tests)
from rootrec.tree import generate_family
from rootrec.treechain import BLOCK, TrialBlock, simulated_trials


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _trial_setup(cfg):
    """The ``Trials`` and bound of a config without "ks", whose run takes
    one member, as the run builds them."""
    ((_, trials, bound),) = _run_setup(cfg)()
    return trials, bound


def experiment_cfg(tmp_path, **overrides):
    cfg = {
        "family": {"kind": "figure1", "k": 20, "h": 1.0},
        "process": {"kind": "two_state", "q": 1.0},
        "estimator": {"kind": "frequency", "s": 0.05, "h_star": 1.0},
        "trials": 60,
        "seed": 5,
        "output": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


class TestBoundsCommand:
    def test_binary_symmetric_sandwich(self, tmp_path, capsys):
        cfg = {"recon": {
            "prior": {"1": 0.5, "2": 0.5},
            "conditionals": {"1": {"1": 0.9, "2": 0.1},
                             "2": {"1": 0.1, "2": 0.9}}}}
        path = write_cfg(tmp_path, "b.json", cfg)
        assert main(["bounds", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "recon_upper,0.9" in out
        assert "recon_lower,0.8" in out

    def test_nothing_to_bound(self, tmp_path):
        path = write_cfg(tmp_path, "b.json", {})
        assert main(["bounds", path]) == EXIT_CONFIG


class TestSimulateCommand:
    def test_zero_rate_leaves_equal_root(self, tmp_path):
        out = tmp_path / "sim.csv"
        qfile = tmp_path / "q.txt"
        qfile.write_text("0 0\n0 0\n")
        cfg = {
            "family": {"kind": "star", "k": 4, "h": 1.0},
            "process": {"kind": "matrix_file", "path": str(qfile)},
            "trials": 5, "seed": 1, "output": str(out),
        }
        path = write_cfg(tmp_path, "s.json", cfg)
        assert main(["simulate", path]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,root,leaf,state"
        for line in lines[1:]:
            _, root, _, state = line.split(",")
            assert root == state


class TestExperimentCommand:
    def test_emits_trials_and_summary(self, tmp_path):
        path = write_cfg(tmp_path, "e.json", experiment_cfg(tmp_path))
        assert main(["experiment", path]) == EXIT_OK
        trials = (tmp_path / "out.trials.csv").read_text().splitlines()
        summary = (tmp_path / "out.summary.csv").read_text().splitlines()
        assert trials[0] == "trial,true_root,estimate,fallback"
        assert len(trials) == 61
        assert summary[0] == \
            "trials,errors,rate,ci_low,ci_high,bound,empirical_le_bound"
        fields = summary[1].split(",")
        assert fields[0] == "60"
        assert fields[6] == "1"  # empirical below (possibly clamped) bound

    def test_csv_shape(self, tmp_path):
        # a run over "ks" writes one line per member: k, then the
        # summary's trials to ci_high
        out = tmp_path / "r.csv"
        path = write_cfg(tmp_path, "e.json", experiment_cfg(
            tmp_path, trials=5, ks=[10], output=str(out)))
        assert main(["experiment", path]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "k,trials,errors,rate,ci_low,ci_high"
        assert len(lines) == 2 and lines[1].startswith("10,5,")
        _, _, errors, rate, low, high = map(float, lines[1].split(","))
        assert low <= rate == errors / 5 <= high

    def test_identical_seed_identical_bytes(self, tmp_path):
        path = write_cfg(tmp_path, "e.json", experiment_cfg(tmp_path))
        main(["experiment", path])
        first = (tmp_path / "out.trials.csv").read_bytes()
        main(["experiment", path])
        assert (tmp_path / "out.trials.csv").read_bytes() == first

    def test_worker_count_does_not_change_output(self, tmp_path,
                                                 monkeypatch):
        # three blocks: three workers get one each
        trials, _ = _trial_setup(experiment_cfg(tmp_path,
                                                trials=2 * BLOCK + 3))
        serial = run_trials(trials, workers=1)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        parallel = run_trials(trials, workers=3)
        assert serial == parallel

    def test_map_on_small_tree(self, tmp_path):
        out = tmp_path / "est"
        cfg = {
            "family": {"kind": "pinched_star", "m": 3, "s": 0.1, "h": 1.0},
            "process": {"kind": "two_state", "q": 1.0},
            "estimator": {"kind": "map"},
            "trials": 20, "seed": 2, "output": str(out),
        }
        path = write_cfg(tmp_path, "m.json", cfg)
        assert main(["experiment", path]) == EXIT_OK
        trials = (tmp_path / "est.trials.csv").read_text().splitlines()
        assert len(trials) == 21

    def test_tkf91_process_rejected(self, tmp_path, capsys):
        # experiment runs a TKF91 process's frequency test on the last
        # member, and writes no bound; bounds refuses it with one line, as
        # its Monte Carlo plug-in rows carry none
        cfg = experiment_cfg(
            tmp_path, process={"kind": "tkf91", "nu": 1, "lam": 1, "mu": 2})
        path = write_cfg(tmp_path, "e.json", cfg)
        assert main(["experiment", path]) == EXIT_OK
        trials = (tmp_path / "out.trials.csv").read_text().splitlines()
        summary = (tmp_path / "out.summary.csv").read_text().splitlines()
        assert len(trials) == 61 and summary[1].startswith("60,")
        assert summary[1].endswith(",,")
        assert main(["bounds", path]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: a tkf91 estimator has no bound"]

    @pytest.mark.parametrize("kind", ["map", "majority", "uniform", "nope"])
    def test_tkf91_runs_the_frequency_test_only(self, tmp_path, capsys,
                                                kind):
        cfg = {**test_substreams.TKF91, "output": str(tmp_path / "out"),
               "estimator": {**test_substreams.TKF91["estimator"],
                             "kind": kind}}
        path = write_cfg(tmp_path, "t.json", cfg)
        problem = (f"a tkf91 process runs the frequency estimator only, "
                   f"got {kind!r}")
        assert validate_config(cfg) == [problem]
        for command in ("experiment", "tkf91"):
            assert main([command, path]) == EXIT_CONFIG
            assert capsys.readouterr().err.splitlines() == [
                f"config error: {problem}"]
        assert not list(tmp_path.glob("out*"))

    # (command, estimator or TKF91 config, what the run loads of
    # LOADED); None runs no command and reads a TKF91 name of the package
    LOADS = {
        "frequency": ("experiment", {"kind": "frequency", "s": 0.05,
                                     "h_star": 1.0}, []),
        "uniform": ("experiment", {"kind": "uniform", "s": 0.05,
                                   "h_star": 1.0}, []),
        "map": ("experiment", {"kind": "map"}, []),
        "tkf91": ("tkf91", {
            "family": {"kind": "figure1", "k": 20, "h": 1.0}, "ks": [20],
            "process": {"kind": "tkf91", "nu": 1.0, "lam": 0.5, "mu": 1.0},
            "estimator": {"s": 0.05, "h_star": 1.0, "epsilon": 0.3,
                          "row_samples": 50}, "trials": 5, "seed": 5},
                  ["rootrec.tkf91"]),
        "attribute": (None, None, ["rootrec.tkf91"]),
    }
    LOADED = ("oracles", "scipy", "hypothesis", "rootrec.tkf91",
              "dataclasses", "argparse", "gettext", "locale")

    def test_loads_no_test_code(self, tmp_path):
        # a command runs on the package alone: neither the tests' oracles
        # nor the test-only dependencies are imported in a fresh process;
        # and TKF91's module loads for a TKF91 process or name only, not
        # for a finite chain's command or a bare import of the package;
        # and no command pays for importing dataclasses, or for argparse
        # and the gettext and locale modules it loads
        src = os.path.dirname(os.path.dirname(cli.__file__))
        got = {}
        for case, (command, spec, _) in self.LOADS.items():
            here = tmp_path / case
            here.mkdir()
            if command is None:
                run = ("import rootrec\n"
                       "assert 'rootrec.tkf91' not in sys.modules\n"
                       "assert rootrec.Tkf91Params is "
                       "rootrec.tkf91.Tkf91Params\n")
            else:
                cfg = (experiment_cfg(here, trials=5, estimator=spec)
                       if command == "experiment"
                       else {**spec, "output": str(here / "out.csv")})
                path = write_cfg(here, "e.json", cfg)
                run = ("import rootrec.cli\n"
                       f"assert rootrec.cli.main([{command!r}, {path!r}])"
                       " == 0\n")
            script = (f"import sys\n{run}print(sorted(set({self.LOADED!r})"
                      " & set(sys.modules)))\n")
            got[case] = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True, cwd=here,
                env={**os.environ, "PYTHONPATH": src}).stdout
            if command == "experiment":
                assert (here / "out.summary.csv").read_text().count(
                    "\n") == 2
        assert got == {case: f"{loaded}\n"
                       for case, (_, _, loaded) in self.LOADS.items()}


class TestOneRunner:
    """``tkf91`` is a second name for ``experiment``, which runs any
    process on the members that "ks" lists, keyed (seed, k), into one
    line each, or without "ks" on the last member, keyed (seed,), into a
    trials and a summary CSV."""

    @staticmethod
    def outputs(tmp_path, name, command, cfg, workers=1) -> dict:
        here = tmp_path / name
        here.mkdir()
        path = write_cfg(here, "c.json", {**cfg, "output": str(here / "out")})
        assert main([command, path, "--workers", str(workers)]) == EXIT_OK
        return {p.name: p.read_bytes() for p in here.glob("out*")}

    @pytest.mark.parametrize("name", ["TKF91", "FREQUENCY"])
    def test_both_names_write_the_same_bytes(self, tmp_path, name):
        cfg = getattr(test_substreams, name)
        got = [self.outputs(tmp_path, command, command, cfg)
               for command in ("experiment", "tkf91")]
        assert got[0] == got[1]
        assert sorted(got[0]) == (["out"] if "ks" in cfg else
                                  ["out.summary.csv", "out.trials.csv"])

    def test_finite_members_write_one_line_each(self, tmp_path,
                                                monkeypatch):
        # three blocks per member, at 1, 2 and 3 workers
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        cfg = {**test_substreams.FREQUENCY_BLOCKS, "ks": [5, 20, 12]}
        got = [self.outputs(tmp_path, f"w{workers}", "experiment", cfg,
                            workers) for workers in (1, 2, 3)]
        assert got[0] == got[1] == got[2]
        lines = got[0]["out"].decode().splitlines()
        assert lines[0] == "k,trials,errors,rate,ci_low,ci_high"
        count = str(cfg["trials"])
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["5", count], ["20", count], ["12", count]]
        # member k's trials are keyed (seed, k), not (seed,) as the last
        # member's trials are without "ks"
        ((_, trials, _),) = _run_setup({**cfg, "ks": [20]})()
        assert trials.key == (cfg["seed"], 20)
        assert _trial_setup(test_substreams.FREQUENCY_BLOCKS)[0].key == (
            cfg["seed"],)

    def test_tkf91_without_ks_runs_its_last_member(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        cfg = {key: value for key, value
               in test_substreams.TKF91_BLOCKS.items() if key != "ks"}
        got = [self.outputs(tmp_path, f"w{workers}", "tkf91", cfg, workers)
               for workers in (1, 2)]
        assert got[0] == got[1]
        assert sorted(got[0]) == ["out.summary.csv", "out.trials.csv"]
        rows = got[0]["out.trials.csv"].decode().splitlines()
        assert len(rows) == cfg["trials"] + 1
        summary = got[0]["out.summary.csv"].decode().splitlines()
        assert summary[1].startswith(f"{cfg['trials']},")
        assert summary[1].endswith(",,")
        trials, bound = _trial_setup(cfg)
        assert (trials.key, len(trials.tree.leaves), bound) == (
            (cfg["seed"],), cfg["family"]["k"] + 1, None)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is
    asked for and maps in this process, so no process starts."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestProcessInterface:
    """A process is whatever has the members by which the package draws
    and reads one, so a third kind runs as the chain it wraps."""

    @pytest.mark.parametrize("test", [frequency_tests, uniform_chain_tests])
    def test_third_kind_gives_its_chains_rows(self, monkeypatch, test):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        chain = two_state_symmetric(1.0)
        tree = generate_family("figure1", {"k": 20, "h": 1.0})[19]
        plan = stretch_plan(tree, 0.05, 1.3)
        got = {}
        for process in (chain, Delegate(chain)):
            table = RowTable({i: chain.row(i, 1.3) for i in chain.states},
                             process.keys)
            trials = Trials(tree, process,
                            partial(test, plan, (1, 2) if test is
                                    frequency_tests else chain.q_star, table),
                            process.roots("uniform"), (7,), 2 * BLOCK + 3,
                            plan)
            direct = [(t, truth, *row) for block in simulated_trials(
                tree, process, trials.draw, (7,), trials.count, stretch=plan)
                for t, (truth, row) in enumerate(
                    zip(block.roots, trials.estimate(block)), block.start)]
            got[type(process)] = (
                simulate(tree, process, 2, np.random.default_rng(3)),
                direct, run_trials(trials, 1), run_trials(trials, 2))
        assert not isinstance(Delegate(chain), RateMatrix)
        assert got[Delegate] == got[RateMatrix]
        _, direct, one, two = got[Delegate]
        assert direct == one == two and RecordingPool.sizes == [2, 2]
        assert {row[2] for row in direct} == {1, 2}


class TestTrialRunner:
    ESTIMATORS = {
        "majority": {"kind": "majority"},
        "map": {"kind": "map"},
        "frequency": {"kind": "frequency", "s": 0.05, "h_star": 1.0,
                      "epsilon": 0.01},
        "uniform": {"kind": "uniform", "s": 0.05, "h_star": 1.0},
    }

    @pytest.mark.parametrize("kind", sorted(ESTIMATORS))
    def test_setup_survives_a_pickle_round_trip(self, tmp_path, kind):
        cfg = experiment_cfg(tmp_path, estimator=self.ESTIMATORS[kind])
        trials, _ = _trial_setup(cfg)
        copied = pickle.loads(pickle.dumps(trials))
        assert copied.tree is not trials.tree
        assert _trial_range(copied, 0, 30) == _trial_range(trials, 0, 30)

    def test_workers_use_the_parents_setup(self, tmp_path, monkeypatch):
        # a worker that read the config again would build its tree anew
        trials, _ = _trial_setup(experiment_cfg(tmp_path,
                                                trials=2 * BLOCK + 3))
        serial = run_trials(trials, workers=1)

        def no_tree(cfg):
            raise AssertionError("a worker built the tree again")

        monkeypatch.setattr(cli, "_build_tree", no_tree)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        assert run_trials(trials, workers=2) == serial

    def test_pool_capped_at_usable_cpus(self, tmp_path, monkeypatch):
        # run_trials imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(RecordingPool, "sizes", [])
        # at most one process per usable CPU and per block of trials
        trials, _ = _trial_setup(experiment_cfg(tmp_path,
                                                trials=4 * BLOCK + 3))
        serial = run_trials(trials, workers=1)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        assert run_trials(trials, workers=5000) == serial
        for count in (BLOCK + 1, BLOCK, 2):
            assert run_trials(trials._replace(count=count),
                              workers=5000) == serial[:count]
        assert RecordingPool.sizes == [3, 2]

    @pytest.mark.parametrize("kind", sorted(ESTIMATORS))
    def test_blocks_never_change_the_rows(self, tmp_path, kind,
                                          monkeypatch):
        # rows of 2 BLOCK + 3 trials: the same for two and three workers,
        # for ranges of whole blocks, and for every shorter run, whose
        # last block is cut short; a range cannot start inside a block.
        # An h* above the leaves stretches them
        est = dict(self.ESTIMATORS[kind])
        if "h_star" in est:
            est["h_star"] = 1.3
        cfg = experiment_cfg(tmp_path, estimator=est, trials=2 * BLOCK + 3)
        trials, _ = _trial_setup(cfg)
        rows = run_trials(trials, workers=1)
        assert [row[0] for row in rows] == list(range(trials.count))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        assert run_trials(trials, workers=2) == rows
        assert run_trials(trials, workers=3) == rows
        cuts = [0, BLOCK, 2 * BLOCK, trials.count]
        assert [row for lo, hi in zip(cuts, cuts[1:])
                for row in _trial_range(trials, lo, hi)] == rows
        for count in (1, 100, BLOCK + 1, 2 * BLOCK - 1):
            assert run_trials(trials._replace(count=count)) == rows[:count]
        with pytest.raises(ValueError, match="multiple of"):
            _trial_range(trials, 100, trials.count)

    def test_one_exclusivity_invocation_per_frequency_trial(self, tmp_path):
        cfg = experiment_cfg(tmp_path, trials=2 * BLOCK + 3,
                             estimator=self.ESTIMATORS["frequency"])
        trials, _ = _trial_setup(cfg)
        before = exclusivity_stats()["invocations"]
        run_trials(trials, workers=1)
        assert exclusivity_stats()["invocations"] - before == trials.count

    def test_usable_cpus_follow_the_affinity_mask(self):
        expected = (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count())
        assert cli._usable_cpus() == expected

    def test_bad_workers_environment_is_a_usage_error(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setenv("ROOTREC_WORKERS", "abc")
        path = write_cfg(tmp_path, "v.json", experiment_cfg(tmp_path))
        with pytest.raises(SystemExit) as exit_:
            main(["validate", path])
        assert exit_.value.code == EXIT_CONFIG
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        monkeypatch.setenv("ROOTREC_WORKERS", "2")
        assert main(["validate", path]) == EXIT_OK


class TestArguments:
    """``rootrec COMMAND CONFIG [--workers N]``, read without argparse:
    ``--workers`` anywhere, help on stdout with exit 0, and every usage
    error as one usage line and one error line on stderr with exit 2."""

    USAGE = "usage: rootrec COMMAND CONFIG [--workers N]"

    @pytest.mark.parametrize("spelling", [
        ["experiment", "{path}", "--workers=2"],
        ["experiment", "{path}", "--workers", "2"],
        ["--workers", "2", "experiment", "{path}"],
        ["experiment", "--workers", "2", "{path}"]])
    def test_workers_spellings_give_the_same_bytes(self, tmp_path,
                                                   monkeypatch, spelling):
        monkeypatch.delenv("ROOTREC_WORKERS", raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        path = write_cfg(tmp_path, "e.json",
                         experiment_cfg(tmp_path, trials=2 * BLOCK + 3))
        outputs = [tmp_path / f"out{suffix}"
                   for suffix in (".trials.csv", ".summary.csv")]
        assert main(["experiment", path]) == EXIT_OK
        serial = [p.read_bytes() for p in outputs]
        for p in outputs:
            p.unlink()
        assert main([arg.format(path=path) for arg in spelling]) == EXIT_OK
        assert [p.read_bytes() for p in outputs] == serial
        assert RecordingPool.sizes == [2]

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_0_with_the_usage_on_stdout(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_:
            main(["experiment", flag])
        assert exit_.value.code == EXIT_OK
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == self.USAGE and err == ""
        assert "bounds, experiment, simulate, tkf91, validate" in out

    @pytest.mark.parametrize("argv,env,error", [
        (["estimate", "{path}"], None,
         "unknown command 'estimate' (choose from bounds, experiment, "
         "simulate, tkf91, validate)"),
        ([], None, "expected 2 arguments (COMMAND CONFIG), got 0"),
        (["validate"], None,
         "expected 2 arguments (COMMAND CONFIG), got 1"),
        (["validate", "{path}", "{path}"], None,
         "expected 2 arguments (COMMAND CONFIG), got 3"),
        (["validate", "{path}", "--workers"], None,
         "argument --workers: expected one argument"),
        (["validate", "{path}", "--seed", "3"], None,
         "unrecognized argument: --seed"),
        (["validate", "{path}", "--work", "2"], None,
         "unrecognized argument: --work"),
        (["validate", "{path}", "--workers", "2.5"], None,
         "argument --workers: invalid int value: '2.5'"),
        (["validate", "{path}", "--workers="], None,
         "argument --workers: invalid int value: ''"),
        (["validate", "{path}"], "abc",
         "argument --workers: invalid int value: 'abc'")],
        ids=["unknown-command", "no-arguments", "no-config", "extra",
             "workers-without-value", "unknown-option", "abbreviation",
             "non-integer", "empty", "environment"])
    def test_usage_error_is_exit_2_with_two_lines(self, tmp_path,
                                                  monkeypatch, capsys,
                                                  argv, env, error):
        if env is None:
            monkeypatch.delenv("ROOTREC_WORKERS", raising=False)
        else:
            monkeypatch.setenv("ROOTREC_WORKERS", env)
        path = write_cfg(tmp_path, "v.json", experiment_cfg(tmp_path))
        with pytest.raises(SystemExit) as exit_:
            main([arg.format(path=path) for arg in argv])
        assert exit_.value.code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [self.USAGE, f"rootrec: error: {error}"]

    def test_workers_flag_overrides_a_bad_environment(self, tmp_path,
                                                      monkeypatch):
        # as under argparse, the environment is read only without the flag
        monkeypatch.setenv("ROOTREC_WORKERS", "abc")
        path = write_cfg(tmp_path, "v.json", experiment_cfg(tmp_path))
        assert main(["validate", path, "--workers", "2"]) == EXIT_OK
        assert main(["validate", path, "--workers=2"]) == EXIT_OK

    def test_no_argv_reads_the_process_arguments(self, tmp_path,
                                                 monkeypatch):
        path = write_cfg(tmp_path, "v.json", experiment_cfg(tmp_path))
        monkeypatch.setattr(sys, "argv", ["rootrec", "validate", path])
        assert main() == EXIT_OK
        monkeypatch.setattr(sys, "argv", ["rootrec", "validate"])
        with pytest.raises(SystemExit) as exit_:
            main()
        assert exit_.value.code == EXIT_CONFIG


class TestMapEstimator:
    SMALL_MAP = {
        "family": {"kind": "random_ultrametric", "k": 10, "h": 1.0,
                   "seed": 3},
        "process": {"kind": "uniform", "rate": 1.0, "n": 3},
        "estimator": {"kind": "map"},
        "trials": 2000,
        "seed": 12,
    }

    def test_pruning_agrees_with_enumerated_laws(self):
        # each trial's MAP estimate is the smallest root state whose
        # enumerated posterior is within MAP_TIE_RTOL of the largest
        cfg = self.SMALL_MAP
        tree, Q = _build_tree(cfg), _build_process(cfg)
        laws = {i: exact_leaf_law(tree, Q, i) for i in Q.states}
        prior = _uniform_prior(Q)
        trials = _trial_setup(cfg)[0]
        rows = run_trials(trials)
        assert len(rows) == cfg["trials"]
        observations = [
            (t, truth, obs) for block in simulated_trials(
                tree, Q, trials.draw, (cfg["seed"],), cfg["trials"])
            for t, truth, obs in block.trials(tree)]
        for (t, truth, state, _), (t_obs, root, obs) in zip(rows,
                                                            observations):
            assert (t, truth) == (t_obs, root)
            post = {i: prior.mass(i) * laws[i].mass(laws[i].outcome_of(obs))
                    for i in Q.states}
            top = max(post.values())
            near = [i for i in Q.states
                    if post[i] >= top * (1 - MAP_TIE_RTOL)]
            assert state == near[0], t

    def test_impossible_observation_rejected(self, tmp_path):
        # state 1 jumps to the absorbing state 2; state 3 is absorbing too
        qfile = tmp_path / "q.txt"
        qfile.write_text("-1 1 0\n0 0 0\n0 0 0\n")
        cfg = {"family": {"kind": "star", "k": 2, "h": 1.0},
               "process": {"kind": "matrix_file", "path": str(qfile)},
               "estimator": {"kind": "map"}}
        tree, Q = _build_tree(cfg), _build_process(cfg)
        obs = {"L0001": 1, "L0002": 3}
        ((est, _, _),) = cli._estimator_setup(cfg, Q, [tree])(None)
        block = TrialBlock(0, [1], np.array([[1, 3]]), None, Q.keys,
                           np.random.default_rng(0))
        with pytest.raises(EstimatorError, match="impossible"):
            est(block)
        with pytest.raises(EstimatorError, match="impossible"):
            map_estimate(tree, Q, _uniform_prior(Q), obs)

    def test_runs_past_the_enumeration_guard(self, tmp_path):
        # 2^201 leaf outcomes: enumerating the leaf laws is out of reach
        cfg = experiment_cfg(tmp_path, trials=20,
                             family={"kind": "figure1", "k": 200, "h": 1.0},
                             estimator={"kind": "map"})
        path = write_cfg(tmp_path, "e.json", cfg)
        assert main(["experiment", path]) == EXIT_OK
        summary = (tmp_path / "out.summary.csv").read_text().splitlines()
        assert summary[1].startswith("20,")


class TestValidateCommand:
    def test_valid_config_empty_report(self, tmp_path):
        cfg = experiment_cfg(tmp_path)
        assert validate_config(cfg) == []
        path = write_cfg(tmp_path, "v.json", cfg)
        assert main(["validate", path]) == EXIT_OK

    def test_lambda_ge_mu_flagged(self, tmp_path):
        cfg = {"process": {"kind": "tkf91", "nu": 1, "lam": 2, "mu": 2}}
        assert validate_config(cfg) == ["lambda must be < mu"]
        path = write_cfg(tmp_path, "v.json", cfg)
        assert main(["validate", path]) == EXIT_CONFIG

    def test_tkf91_config_reports_each_reader(self, tmp_path):
        # a TKF91 process reads its estimator section as the tkf91
        # command does, and no root: the key is a finite chain's
        cfg = {"family": {"kind": "figure1", "k": 4, "h": 1.0},
               "process": {"kind": "tkf91", "nu": 1.0, "lam": 0.5,
                           "mu": 1.0},
               "estimator": {"s": 0.05, "h_star": 1.0, "epsilon": 3.0},
               "root": 9, "trials": 0, "seed": -1}
        assert validate_config(cfg) == [
            "epsilon must lie in (0, 1], got 3.0", "trials must be positive",
            "seed must be a non-negative 64-bit integer"]
        cfg["estimator"] = {"s": 0.05, "h_star": 1.0}
        assert validate_config({**cfg, "ks": [2, 5]}) == [
            "family member k=5 out of range 1..4", "trials must be positive",
            "seed must be a non-negative 64-bit integer"]
        assert validate_config({**cfg, "trials": 3, "seed": 1}) == []
        path = write_cfg(tmp_path, "v.json", {**cfg, "ks": [2, 5]})
        assert main(["validate", path]) == EXIT_CONFIG

    def test_nonpositive_s_flagged(self, tmp_path):
        cfg = experiment_cfg(tmp_path,
                             estimator={"kind": "frequency", "s": 0.0,
                                        "h_star": 1.0})
        assert "estimator s must be positive" in validate_config(cfg)

    @pytest.mark.parametrize("size", [{"k": 1075}, {"k": 10 ** 6},
                                      {"m": 10 ** 6}])
    def test_underflowing_figure1_rejected_quickly(self, tmp_path, capsys,
                                                   size):
        cfg = experiment_cfg(tmp_path,
                             family={"kind": "figure1", "h": 1.0, **size})
        start = time.perf_counter()
        problems = validate_config(cfg)
        assert time.perf_counter() - start < 2.0
        assert len(problems) == 1 and "figure1 k" in problems[0]
        path = write_cfg(tmp_path, "v.json", cfg)
        assert main(["validate", path]) == EXIT_CONFIG
        assert main(["experiment", path]) == EXIT_CONFIG
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_underflowing_figure2_spine_rejected_quickly(self, tmp_path,
                                                         capsys):
        cfg = experiment_cfg(tmp_path, family={"kind": "figure2", "k": 5,
                                               "n_spine": 1075})
        start = time.perf_counter()
        problems = validate_config(cfg)
        assert len(problems) == 1 and "figure2 n_spine" in problems[0]
        path = write_cfg(tmp_path, "v.json", cfg)
        assert main(["validate", path]) == EXIT_CONFIG
        assert main(["experiment", path]) == EXIT_CONFIG
        assert time.perf_counter() - start < 2.0
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("length", ["inf", "nan"])
    def test_non_finite_edge_length_rejected_quickly(self, tmp_path, capsys,
                                                     length):
        cfg = experiment_cfg(
            tmp_path, family={"newick": f"(a:{length},b:1,c:1);"})
        path = write_cfg(tmp_path, "e.json", cfg)
        start = time.perf_counter()
        assert main(["experiment", path]) == EXIT_CONFIG
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "finite" in err[0]

    def test_deepest_figure1_runs(self, tmp_path):
        cfg = experiment_cfg(tmp_path, trials=2,
                             family={"kind": "figure1", "k": 1074, "h": 1.0})
        tree = _build_tree(cfg)
        assert len(tree.leaves) == 1075
        assert min(tree.length.values()) == 2.0 ** -1074
        path = write_cfg(tmp_path, "e.json", cfg)
        start = time.perf_counter()
        assert main(["validate", path]) == EXIT_OK
        assert time.perf_counter() - start < 2.0
        assert main(["experiment", path]) == EXIT_OK

    def test_bad_family_flagged(self):
        cfg = {"process": {"kind": "two_state"},
               "family": {"kind": "nope", "k": 2}}
        assert any("nope" in p for p in validate_config(cfg))


class TestTrialInputs:
    TKF91 = {"family": {"kind": "figure1", "k": 2, "h": 1.0},
             "process": {"kind": "tkf91", "nu": 1.0, "lam": 0.5, "mu": 1.0},
             "estimator": {"s": 0.05, "h_star": 1.0, "row_samples": 10},
             "trials": 2, "seed": 1}

    @pytest.mark.parametrize("root", [0, 7, "x", None])
    def test_root_outside_the_chain_rejected(self, tmp_path, capsys, root):
        cfg = experiment_cfg(tmp_path, root=root)
        assert validate_config(cfg) == [
            f'root must be "uniform" or a state 1..2, got {root!r}']
        path = write_cfg(tmp_path, "e.json", cfg)
        start = time.perf_counter()
        assert main(["validate", path]) == EXIT_CONFIG
        for command in ("experiment", "simulate"):
            assert main([command, path, "--workers", "2"]) == EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "root must be" in err[0]
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("k", [0, 3])
    def test_tkf91_member_outside_the_family_rejected(self, tmp_path, capsys,
                                                      k):
        path = write_cfg(tmp_path, "t.json", {**self.TKF91, "ks": [k]})
        start = time.perf_counter()
        assert main(["tkf91", path]) == EXIT_CONFIG
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: family member k={k} out of range "
                       f"1..2"]

    def test_tkf91_large_rates_run_within_budget(self, tmp_path, capsys):
        # about 10^7 substitutions per site and unit time: the time-t
        # sampler's cost does not grow with the rates, so the run ends
        # well inside 10 s (an event-by-event run would take hours)
        process = {**self.TKF91["process"], "nu": 1e7}
        path = write_cfg(tmp_path, "t.json", {**self.TKF91,
                                              "process": process})
        start = time.perf_counter()
        assert main(["tkf91", path]) == EXIT_OK
        assert time.perf_counter() - start < 10.0
        assert capsys.readouterr().err == ""

    def test_tkf91_runs_a_finite_chain(self, tmp_path, capsys):
        # tkf91 is a second name for experiment: on a finite chain it runs
        # the frequency test, the default kind, and writes its bound
        out = tmp_path / "out"
        path = write_cfg(tmp_path, "t.json", {
            **self.TKF91, "process": {"kind": "two_state", "q": 1.0},
            "output": str(out)})
        assert main(["tkf91", path]) == EXIT_OK
        assert capsys.readouterr().err == ""
        summary = Path(f"{out}.summary.csv").read_text().splitlines()
        assert summary[1].startswith("2,") and summary[1].split(",")[5]

    def test_guard_during_the_trials_is_exit_3(self, tmp_path, capsys,
                                              monkeypatch):
        # the config is sound, so set-up passes; the draws then outgrow
        # a length cap of 2 letters
        from rootrec import tkf91
        monkeypatch.setattr(tkf91, "LENGTH_CAP", 2)
        path = write_cfg(tmp_path, "t.json", self.TKF91)
        assert main(["tkf91", path]) == EXIT_GUARD
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: sequence length exceeded the cap")

    def test_family_member_refused(self, tmp_path, capsys):
        # member j is the tree of k = j; a run that ignored the key would
        # run another tree than the config asks for
        cfg = experiment_cfg(tmp_path, family={
            "kind": "figure1", "k": 3, "h": 1.0, "member": 2})
        (problem,) = validate_config(cfg)
        assert "family member" in problem and " k = j" in problem
        path = write_cfg(tmp_path, "e.json", cfg)
        for command in ("validate", "experiment", "simulate", "bounds"):
            assert main([command, path]) == EXIT_CONFIG
        tkf91_path = write_cfg(tmp_path, "t.json", {
            **self.TKF91, "family": cfg["family"]})
        assert main(["tkf91", tkf91_path]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {problem}"] * 4

    @pytest.mark.parametrize("seed", [-5, 2 ** 64])
    def test_seed_outside_numpy_range_rejected(self, tmp_path, seed):
        cfg = experiment_cfg(tmp_path, seed=seed)
        assert validate_config(cfg) == [
            "seed must be a non-negative 64-bit integer"]
        assert main(["validate", write_cfg(tmp_path, "v.json", cfg)]) == \
            EXIT_CONFIG

    def test_newick_deeper_than_recursion_limit(self, tmp_path):
        depth = 5000
        newick = ("(" * depth + "L0:1"
                  + ":1".join(f",L{i}:1)" for i in range(1, depth + 1))
                  + ";")
        cfg = experiment_cfg(tmp_path, trials=3, family={"newick": newick},
                             estimator={"kind": "map"})
        path = write_cfg(tmp_path, "e.json", cfg)
        assert main(["validate", path]) == EXIT_OK
        assert main(["experiment", path]) == EXIT_OK
        summary = (tmp_path / "out.summary.csv").read_text().splitlines()
        assert summary[1].startswith("3,")


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", str(tmp_path / "none.json")]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["simulate", str(p)]) == EXIT_CONFIG

    def test_missing_key_named(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "k.json",
                         {"family": {"kind": "star", "k": 2}})
        assert main(["simulate", path]) == EXIT_CONFIG
        assert "process" in capsys.readouterr().err


def replaced(cfg, path, value):
    """A copy of ``cfg`` with the value at ``path`` (a key sequence; empty
    for the whole config) replaced."""
    if not path:
        return value
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def existing_dir(suffix):
    """An output value, made from the test's directory, whose file
    ``output + suffix`` is an existing directory."""
    def make(tmp_path):
        (tmp_path / ("out" + suffix)).mkdir()
        return str(tmp_path / "out")
    return make


BASES = {"experiment": experiment_cfg,
         "tkf91": lambda tmp_path: {**test_substreams.TKF91,
                                    "output": str(tmp_path / "out")}}

# (base config, path, value, command): each config is wrong, so validate
# and the command both end in exit 2 before any trial; a callable value is
# made from the test's directory
BAD_CONFIGS = {
    "trials-null": ("experiment", ("trials",), None, "experiment"),
    "trials-2.7": ("experiment", ("trials",), 2.7, "experiment"),
    "seed-1.5": ("experiment", ("seed",), 1.5, "experiment"),
    "family-int": ("experiment", ("family",), 5, "experiment"),
    "config-null": ("experiment", (), None, "experiment"),
    "estimator-text": ("experiment", ("estimator",), "map", "experiment"),
    "estimator-kind": ("experiment", ("estimator",), {"kind": "nope"},
                       "experiment"),
    "no-h-star": ("experiment", ("estimator",),
                  {"kind": "frequency", "s": 0.05}, "experiment"),
    "member-0": ("experiment", ("family", "member"), 0, "experiment"),
    "q-negative": ("experiment", ("process", "q"), -1, "experiment"),
    "h-negative": ("experiment", ("family", "h"), -1, "experiment"),
    "pinch-above-h": ("experiment", ("family",),
                      {"kind": "pinched_star", "m": 3, "s": 2, "h": 1},
                      "experiment"),
    "newick-inf": ("experiment", ("family",),
                   {"newick": "(a:inf,b:1,c:1);"}, "experiment"),
    "epsilon-negative": ("experiment", ("estimator", "epsilon"), -1,
                         "experiment"),
    "h-star-above-leaves": ("experiment", ("estimator", "h_star"), 0.5,
                            "experiment"),
    "output-dir-missing": ("experiment", ("output",), "no-such-dir/out",
                           "experiment"),
    "output-is-dir-simulate": ("experiment", ("output",), existing_dir(""),
                               "simulate"),
    "output-is-dir-bounds": ("experiment", ("output",), existing_dir(""),
                             "bounds"),
    "output-is-dir-experiment": ("experiment", ("output",),
                                 existing_dir(".summary.csv"), "experiment"),
    "output-is-dir-tkf91": ("tkf91", ("output",), existing_dir(""), "tkf91"),
    "ks-text": ("tkf91", ("ks",), ["a"], "tkf91"),
    "ks-int": ("tkf91", ("ks",), 5, "tkf91"),
    "ks-float": ("tkf91", ("ks",), [1.5], "tkf91"),
    "h-star-above-leaves-tkf91": ("tkf91", ("estimator", "h_star"), 0.5,
                                  "tkf91"),
    "row-samples-0": ("tkf91", ("estimator", "row_samples"), 0, "tkf91"),
    "ks-newick": ("tkf91", ("family",), {"newick": "(a:1,b:1);"},
                  "experiment"),
}
# "ks" on a finite chain, whose experiment reads it as every process does
BAD_CONFIGS.update({
    f"{name}-finite": ("experiment", ("ks",), value, "experiment")
    for name, value in (("ks-text", ["a"]), ("ks-int", 5),
                        ("ks-float", [1.5]), ("ks-0", [0]),
                        ("ks-above-k", [3, 21]))})


def majority_cfg(key, value):
    """A majority-vote config, made from the test's directory: the base
    config with ``key`` set to ``value``."""
    return lambda tmp_path: experiment_cfg(
        tmp_path, estimator={"kind": "majority"}, **{key: value})


# a majority vote on an even leaf count, or on a chain of more than two
# states
BAD_CONFIGS.update({
    "majority-4-leaf-star": ("experiment", (), majority_cfg(
        "family", {"kind": "star", "k": 4}), "experiment"),
    "majority-4-state": ("experiment", (), majority_cfg(
        "process", {"kind": "uniform", "n": 4}), "experiment")})
# a figure2 family with no spine vertex, or whose heavy subtree's edges
# (h - 0.5) have no positive length, from every command that reads one
BAD_CONFIGS.update({
    f"figure2-{key}-{value}-{command}": (
        base, ("family",), {"kind": "figure2", "k": 10, key: value}, command)
    for key, value in (("n_spine", 0), ("h", 0.5))
    for base, command in (("experiment", "simulate"),
                          ("experiment", "bounds"),
                          ("experiment", "experiment"), ("tkf91", "tkf91"))})


@pytest.mark.parametrize("base,path,value,command",
                         list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_bad_config_is_exit_2_from_every_command(tmp_path, capsys, base,
                                                 path, value, command):
    if callable(value):
        value = value(tmp_path)
    cfg = replaced(BASES[base](tmp_path), path, value)
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["validate", path]) == EXIT_CONFIG
    capsys.readouterr()
    assert main([command, path]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize("key,value,problem", [
    ("family", {"kind": "star", "k": 4},
     "majority vote needs an odd leaf count, got 4 leaves"),
    ("process", {"kind": "uniform", "n": 4},
     "majority vote is two-state only, got a 4-state chain")])
def test_majority_refused_at_setup(tmp_path, capsys, key, value, problem):
    # both used to pass validate and fail in the run, the second only
    # once a draw held state 3 or 4
    cfg = majority_cfg(key, value)(tmp_path)
    assert validate_config(cfg) == [problem]
    path = write_cfg(tmp_path, "m.json", cfg)
    assert main(["experiment", path]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {problem}"]


def paths(node, prefix=()):
    """Every key path in a JSON value, the empty path included."""
    yield prefix
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from paths(child, prefix + (key,))


def json_values(ints):
    scalars = (st.none() | st.booleans() | ints | st.floats()
               | st.text(max_size=6))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=6), inner,
                                         max_size=3)),
        max_leaves=6)


SMALL_INTS = st.integers(-3, 60)
# validate runs nothing, so it also meets sizes that no run could take
VALIDATE_INTS = SMALL_INTS | st.sampled_from([1075, 2 ** 63, 2 ** 64])


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("command,ints", [("validate", VALIDATE_INTS),
                                          ("experiment", SMALL_INTS)])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_value_exits_0_2_or_3(tmp_path, capsys, base, command,
                                       ints, data):
    cfg = BASES[base](tmp_path)
    path = data.draw(st.sampled_from(list(paths(cfg))), label="path")
    cfg = replaced(cfg, path, data.draw(json_values(ints), label="value"))
    if isinstance(cfg, dict) and isinstance(cfg.get("output"), str):
        # keep every file the command writes inside tmp_path
        cfg["output"] = str(tmp_path / "out")
    config = write_cfg(tmp_path, "fuzz.json", cfg)
    capsys.readouterr()
    start = time.perf_counter()
    code = main([command, config])
    assert time.perf_counter() - start < 2.0
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_GUARD)
    assert len(capsys.readouterr().err.splitlines()) <= 1


REPO = Path(__file__).resolve().parents[1]


def _bench_workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _corpus() -> dict:
    corpus = {f"bench-{name}": w.config(12, w.trials, "out")
              for name, w in _bench_workloads().items()}
    corpus.update((f"substreams-{name}", getattr(test_substreams, name))
                  for name in ("FREQUENCY", "UNIFORM", "MAP", "TKF91",
                               "SIMULATE", "SIMULATE_TKF91"))
    readme = (REPO / "README.md").read_text()
    example = re.search(r"cat > exp.json <<'EOF'\n(.*?)\nEOF", readme, re.S)
    corpus["readme-example"] = json.loads(example.group(1))
    return corpus


CORPUS = _corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_config_corpus_is_valid(name):
    # the benchmark's workloads, the pinned-digest runs and the README
    # example: the readers refuse none of them
    assert validate_config(CORPUS[name]) == []
