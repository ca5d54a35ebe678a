"""The RNG substream contract, pinned.

A finite chain's trials come in blocks of ``treechain.BLOCK``, and block
b draws from the substream seeded ``[seed, b]``: its BLOCK roots, then
one array of uniforms for its edges and stretched leaves, then the
estimators' draws in trial order.  Its roots come from one call, which
reads the stream as one call per root does (pinned below too).  A TKF91
block b on tkf91's member k
draws from ``[seed, k, b]`` (``simulate``: ``[seed, b]``): the roots of
its own trials, then its batches of edges and its stretched leaves,
then the estimators' draws in trial order.  The digests below were
recorded from small runs; a change to any substream, or to the order in
which a block or trial consumes it, changes a digest.  Such a change must be
deliberate and recorded in CHANGES.md together with the new digests.
The runs of more than two blocks are pinned at 1, 2 and 3 workers, so
that the split of a run into whole blocks is pinned too.
"""

import hashlib
import json

import numpy as np
import pytest

from oracles import monte_carlo_error
from rootrec import cli, ctmc
from rootrec.cli import EXIT_OK, main
from rootrec.ctmc import Distribution, jukes_cantor, two_state_symmetric
from rootrec.tree import generate_family
from rootrec.treechain import BLOCK

FREQUENCY = {
    "family": {"kind": "figure1", "k": 20, "h": 1.0},
    "process": {"kind": "two_state", "q": 1.0},
    "estimator": {"kind": "frequency", "s": 0.05, "h_star": 1.0,
                  "epsilon": 0.01},
    "trials": 40, "seed": 12,
}
# three blocks, the last one short
FREQUENCY_BLOCKS = {**FREQUENCY, "trials": 2 * BLOCK + 3}
UNIFORM = {
    "family": {"kind": "pinched_star", "m": 21, "s": 0.002, "h": 0.02},
    "process": {"kind": "uniform", "rate": 0.05, "n": 4},
    "estimator": {"kind": "uniform", "s": 0.005, "h_star": 0.02},
    "trials": 40, "seed": 3,
}
# three blocks, the last one short: the roots of each from one call, and
# a finite block's states as its vocabulary
UNIFORM_BLOCKS = {**UNIFORM, "trials": 2 * BLOCK + 3}
MAP = {
    "family": {"kind": "random_ultrametric", "k": 6, "h": 1.0, "seed": 3},
    "process": {"kind": "uniform", "rate": 1.0, "n": 3},
    "estimator": {"kind": "map"},
    "trials": 40, "seed": 12, "root": 2,
}
TKF91 = {
    "family": {"kind": "figure1", "k": 10, "h": 1.0},
    "ks": [3, 10],
    "process": {"kind": "tkf91", "nu": 1.0, "lam": 0.5, "mu": 1.0},
    "estimator": {"s": 0.05, "h_star": 1.0, "epsilon": 0.3,
                  "row_samples": 100},
    "trials": 6, "seed": 12,
}
# three blocks of each member, the last one short
TKF91_BLOCKS = {**TKF91, "trials": 2 * BLOCK + 3}
# lengths geometric with ratio 0.95: about a quarter of the sequences pass
# the 27 letters that a key holds (tkf91.keys); epsilon 0.9 leaves six
# candidates
LONG_PROCESS = {"kind": "tkf91", "nu": 1.0, "lam": 0.95, "mu": 1.0}
TKF91_LONG = {**TKF91, "process": LONG_PROCESS,
              "estimator": {"s": 0.05, "h_star": 1.0, "epsilon": 0.9,
                            "row_samples": 200},
              "trials": 300}
SIMULATE = {
    "family": {"kind": "figure2", "k": 4, "n_spine": 3},
    "process": {"kind": "uniform", "rate": 1.0, "n": 4},
    "trials": 8, "seed": 4,
}
SIMULATE_TKF91 = {
    "family": {"kind": "star", "k": 3, "h": 0.5},
    "process": {"kind": "tkf91", "nu": 1.0, "lam": 0.5, "mu": 1.0},
    "trials": 4, "seed": 4,
}
SIMULATE_TKF91_LONG = {
    "family": {"kind": "figure1", "k": 10, "h": 1.0},
    "process": LONG_PROCESS,
    "trials": 20, "seed": 4,
}
# figure1 k=70: from spine edge 39 on (length 2^-40 and shorter) a
# two-state edge's matrix is the identity, and from spine edge 53 on a
# TKF91 edge's law is; the draws skip those edges without moving the
# stream
DEEP = {**FREQUENCY, "family": {"kind": "figure1", "k": 70, "h": 1.0},
        "trials": BLOCK + 44}
# the same tree under MAP, whose pruning meets those identity edges too
MAP_DEEP = {**DEEP, "estimator": {"kind": "map"}}
TKF91_DEEP = {**TKF91, "family": {"kind": "figure1", "k": 70, "h": 1.0},
              "ks": [40, 70], "trials": BLOCK + 44}
# the benchmark's tkf91_trend config: on figure1 k=200 spine edges 53 to
# 199 are an identity run of 147 depths, drawn as one batch in six
# groups of at most 27 edges (tkf91.draw_block at 150 trials)
TKF91_TREND = {**TKF91, "family": {"kind": "figure1", "k": 200, "h": 1.0},
               "ks": [10, 50, 200],
               "estimator": {**TKF91["estimator"], "row_samples": 4000},
               "trials": 150, "seed": 11}

# (id, command, config, --workers, {output suffix: the first 32 hex
# digits of that file's sha256})
PINNED = [
    ("frequency", "experiment", FREQUENCY, 1, {
        ".trials.csv": "ffc0fbcfba3c88a2ae8f14ffbd62aa91",
        ".summary.csv": "58a375903436bdcb7132911fed191ad4"}),
    ("frequency-workers2", "experiment", FREQUENCY, 2, {
        ".trials.csv": "ffc0fbcfba3c88a2ae8f14ffbd62aa91",
        ".summary.csv": "58a375903436bdcb7132911fed191ad4"}),
    ("frequency-blocks", "experiment", FREQUENCY_BLOCKS, 1, {
        ".trials.csv": "80d28c60b063bf5bf1390e7f147af955",
        ".summary.csv": "7cb3e103fd2da92cc901427fc9e608c5"}),
    ("frequency-blocks-workers2", "experiment", FREQUENCY_BLOCKS, 2, {
        ".trials.csv": "80d28c60b063bf5bf1390e7f147af955",
        ".summary.csv": "7cb3e103fd2da92cc901427fc9e608c5"}),
    ("frequency-blocks-workers3", "experiment", FREQUENCY_BLOCKS, 3, {
        ".trials.csv": "80d28c60b063bf5bf1390e7f147af955",
        ".summary.csv": "7cb3e103fd2da92cc901427fc9e608c5"}),
    ("uniform", "experiment", UNIFORM, 1, {
        ".trials.csv": "3010a077370da66f5059797022c03f94",
        ".summary.csv": "5ad5cf5f3d9ca9668d064d9fe64781b5"}),
    ("uniform-workers2", "experiment", UNIFORM, 2, {
        ".trials.csv": "3010a077370da66f5059797022c03f94",
        ".summary.csv": "5ad5cf5f3d9ca9668d064d9fe64781b5"}),
    ("uniform-blocks", "experiment", UNIFORM_BLOCKS, 1, {
        ".trials.csv": "e4ac977a95812f65279b903637f7d5f4",
        ".summary.csv": "31ee8b845a5ba4ebbc25745c8612c127"}),
    ("uniform-blocks-workers2", "experiment", UNIFORM_BLOCKS, 2, {
        ".trials.csv": "e4ac977a95812f65279b903637f7d5f4",
        ".summary.csv": "31ee8b845a5ba4ebbc25745c8612c127"}),
    ("map-fixed-root", "experiment", MAP, 1, {
        ".trials.csv": "af4a6ac38899c0064e14efe0bb777d29",
        ".summary.csv": "0c24a1954d0b50521a00f60237403343"}),
    ("map-fixed-root-workers2", "experiment", MAP, 2, {
        ".trials.csv": "af4a6ac38899c0064e14efe0bb777d29",
        ".summary.csv": "0c24a1954d0b50521a00f60237403343"}),
    ("tkf91", "tkf91", TKF91, 1, {
        "": "67e3f5a2fc97bfb28ee15ad86433ea0a"}),
    ("tkf91-blocks", "tkf91", TKF91_BLOCKS, 1, {
        "": "ca9a9cf38460520eeebf1cda9f75977f"}),
    ("tkf91-blocks-workers2", "tkf91", TKF91_BLOCKS, 2, {
        "": "ca9a9cf38460520eeebf1cda9f75977f"}),
    ("tkf91-blocks-workers3", "tkf91", TKF91_BLOCKS, 3, {
        "": "ca9a9cf38460520eeebf1cda9f75977f"}),
    ("simulate", "simulate", SIMULATE, 1, {
        "": "4ea401c8a63df81c274dca9241f3a834"}),
    ("simulate-tkf91", "simulate", SIMULATE_TKF91, 1, {
        "": "bf3ab35e2167938552e52a4ac89ab789"}),
    ("tkf91-long", "tkf91", TKF91_LONG, 1, {
        "": "1fbea53bc3c7f880b45740aa945d82c5"}),
    ("tkf91-long-workers2", "tkf91", TKF91_LONG, 2, {
        "": "1fbea53bc3c7f880b45740aa945d82c5"}),
    ("simulate-tkf91-long", "simulate", SIMULATE_TKF91_LONG, 1, {
        "": "3095523c990f763cacb66fbcde9bc1b6"}),
    ("frequency-deep", "experiment", DEEP, 1, {
        ".trials.csv": "b19a19c6786f63d159c6882e415f50f0",
        ".summary.csv": "00c63fc37d63d405aecf1e6c517d5b76"}),
    ("map-deep", "experiment", MAP_DEEP, 1, {
        ".trials.csv": "ba93fd0305e6365359d3ccbbf53da418",
        ".summary.csv": "3b462ebc4c498f9ac633190bfd7611b9"}),
    ("tkf91-deep", "tkf91", TKF91_DEEP, 1, {
        "": "98493c07eb98f983fe89d3558a802bd7"}),
    ("tkf91-trend", "tkf91", TKF91_TREND, 1, {
        "": "f5968ac94bca70ca975ccc32acb24042"}),
]


# a block's roots come from one bounded ``Generator.integers`` call
# (``RateMatrix.roots``), which must read the stream as one call per root
# does, as every finite-chain digest above assumes
STREAM = ("the root draws from one Generator.integers call no longer match "
          "one call per root for n={}, size={}: RateMatrix.roots draws a "
          "block's roots in one call, so this numpy moves every "
          "finite-chain digest")


@pytest.mark.parametrize("seed", [0, 12, [5, 3, 1]])
@pytest.mark.parametrize("size", [1, 255, BLOCK])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 20, 255, 2 ** 32 + 5])
def test_one_root_call_reads_the_stream_as_scalar_calls(n, size, seed):
    block, each = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ctmc._draw_roots(n, None, block, size)
    want = [int(each.integers(n)) + 1 for _ in range(size)]
    assert (got, block.bit_generator.state) == (
        want, each.bit_generator.state), STREAM.format(n, size)


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:32]


@pytest.mark.parametrize("command,cfg,workers,digests",
                         [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_cli_output_digest(tmp_path, monkeypatch, command, cfg, workers,
                           digests):
    # as many processes as workers, on any host
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "output": str(out)}))
    assert main([command, str(path), "--workers", str(workers)]) == EXIT_OK
    got = {suffix: _digest(tmp_path / f"out{suffix}") for suffix in digests}
    assert got == digests


@pytest.mark.parametrize("case", ["frequency-blocks", "uniform",
                                  "uniform-blocks", "map-fixed-root",
                                  "frequency", "simulate", "frequency-deep",
                                  "map-deep"])
def test_one_trial_slices_keep_the_digests(tmp_path, monkeypatch, case):
    # a finite chain's block whose uniforms are drawn and descended one
    # trial's row at a time reads its stream as one draw of the whole
    # array does
    monkeypatch.setattr(ctmc, "_UNIFORMS", 1)
    _, command, cfg, workers, digests = next(c for c in PINNED
                                             if c[0] == case)
    test_cli_output_digest(tmp_path, monkeypatch, command, cfg, workers,
                           digests)


def test_monte_carlo_error_counts():
    # the estimators read their block's stream after its uniforms, in
    # trial order, so their guesses pin where simulation leaves it
    def guess(obs, rng):
        return int(rng.integers(2)) + 1

    def guess4(obs, rng):
        return int(rng.integers(4)) + 1

    star = generate_family("star", {"k": 5, "h": 1.0})[4]
    ultra = generate_family("random_ultrametric", {"k": 6, "h": 1.0}, 1)[5]
    got = [
        monte_carlo_error(guess, star, two_state_symmetric(1.0), 1,
                          trials=300, master_seed=9)["errors"],
        monte_carlo_error(guess, star, two_state_symmetric(1.0),
                          Distribution({1: 0.5, 2: 0.5}),
                          trials=300, master_seed=10)["errors"],
        monte_carlo_error(guess4, ultra, jukes_cantor(1.0, 4),
                          Distribution({1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4}),
                          trials=300, master_seed=11)["errors"],
    ]
    assert got == [138, 149, 228]
