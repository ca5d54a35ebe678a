"""The RNG substream contract, pinned.

Every trial of every command draws from the substream seeded by its key
(``[seed, t]``, or ``[seed, k, t]`` for tkf91), and the estimator continues
that stream after the root and the leaves are drawn (a tkf91 trial takes
its leaves' uniforms in chunks, so after the last chunk).  The digests below
were recorded from small runs; a change to any substream, or to the order
in which a trial consumes it, changes a digest.  Such a change must be
deliberate and recorded in CHANGES.md together with the new digests.
"""

import hashlib
import json

import pytest

from rootrec.bounds import monte_carlo_error
from rootrec.cli import EXIT_OK, main
from rootrec.ctmc import Distribution, jukes_cantor, two_state_symmetric
from rootrec.tree import generate_family

FREQUENCY = {
    "family": {"kind": "figure1", "k": 20, "h": 1.0},
    "process": {"kind": "two_state", "q": 1.0},
    "estimator": {"kind": "frequency", "s": 0.05, "h_star": 1.0,
                  "epsilon": 0.01},
    "trials": 40, "seed": 12,
}
UNIFORM = {
    "family": {"kind": "pinched_star", "m": 21, "s": 0.002, "h": 0.02},
    "process": {"kind": "uniform", "rate": 0.05, "n": 4},
    "estimator": {"kind": "uniform", "s": 0.005, "h_star": 0.02},
    "trials": 40, "seed": 3,
}
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

# (id, command, config, --workers, {output suffix: the first 32 hex
# digits of that file's sha256})
PINNED = [
    ("frequency", "experiment", FREQUENCY, 1, {
        ".trials.csv": "66c9a6c6e0f946d99199e62996cca02b",
        ".summary.csv": "94be5a253d1b4a37725b3a099b4d3fb5"}),
    ("frequency-workers2", "experiment", FREQUENCY, 2, {
        ".trials.csv": "66c9a6c6e0f946d99199e62996cca02b",
        ".summary.csv": "94be5a253d1b4a37725b3a099b4d3fb5"}),
    ("uniform", "experiment", UNIFORM, 1, {
        ".trials.csv": "03aac8958c3240839d15f6c6b4b64797",
        ".summary.csv": "5ad5cf5f3d9ca9668d064d9fe64781b5"}),
    ("uniform-workers2", "experiment", UNIFORM, 2, {
        ".trials.csv": "03aac8958c3240839d15f6c6b4b64797",
        ".summary.csv": "5ad5cf5f3d9ca9668d064d9fe64781b5"}),
    ("map-fixed-root", "experiment", MAP, 1, {
        ".trials.csv": "e843f74e7b936b3a129431d7bccaeeb1",
        ".summary.csv": "dd3df0c4ba0d9dca1cc68fd44f21f2ed"}),
    ("map-fixed-root-workers2", "experiment", MAP, 2, {
        ".trials.csv": "e843f74e7b936b3a129431d7bccaeeb1",
        ".summary.csv": "dd3df0c4ba0d9dca1cc68fd44f21f2ed"}),
    ("estimate", "estimate", FREQUENCY, 1, {
        "": "66c9a6c6e0f946d99199e62996cca02b"}),
    ("tkf91", "tkf91", TKF91, 1, {
        "": "83ee2956cfbe49a06aaf8161a1932b7d"}),
    ("simulate", "simulate", SIMULATE, 1, {
        "": "c71e5800707d8101bb6e383808325ee7"}),
    ("simulate-tkf91", "simulate", SIMULATE_TKF91, 1, {
        "": "1407ed0c2b39672f754d311f5c83255c"}),
]


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:32]


@pytest.mark.parametrize("command,cfg,workers,digests",
                         [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_cli_output_digest(tmp_path, command, cfg, workers, digests):
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "output": str(out)}))
    assert main([command, str(path), "--workers", str(workers)]) == EXIT_OK
    got = {suffix: _digest(tmp_path / f"out{suffix}") for suffix in digests}
    assert got == digests


def test_monte_carlo_error_counts():
    # the estimators read the trial's stream after the leaves, so their
    # guesses pin where simulation leaves it
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
    assert got == [147, 146, 227]
