"""The benchmark's four workloads: configs, trial counts and output checks.

Each workload is one ``rootrec`` CLI command on a fixed family, process
and estimator.  The benchmark seed becomes the config's ``seed`` and
nothing else, so the same seed gives the same trials.  README.md beside
this file says why each workload was chosen.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

# The reference rate is known to within its Wilson interval at Z_REF; a
# run's error count is refused when it lies in a binomial tail of
# probability below ALPHA at every rate in that interval.  A correct
# program then fails a check about once in a million.
Z_REF = 5.0
ALPHA = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # rootrec subcommand: "experiment" or "tkf91"
    base: dict          # config without trials, seed and output
    trials: int         # trials per measured command
    # reference error count (errors, trials) measured with rootrec 0.1.0
    # as first benchmarked, on config seeds 900001-900005 (none of which a
    # benchmark run uses); for tkf91 one pair per member k
    reference: dict

    def config(self, seed: int, trials: int, output: str) -> dict:
        return {**self.base, "trials": trials, "seed": seed, "output": output}

    def trials_done(self, trials: int) -> int:
        """Trials a command completes: one per family member for tkf91."""
        return trials * len(self.base.get("ks") or [None])

    def output_files(self, output: str) -> list:
        if self.command == "tkf91":
            return [output]
        return [output + ".trials.csv", output + ".summary.csv"]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="deep_frequency",
        command="experiment",
        base={"family": {"kind": "figure1", "k": 200, "h": 1.0},
              "process": {"kind": "two_state", "q": 1.0},
              "estimator": {"kind": "frequency", "s": 0.05, "h_star": 1.0,
                            "epsilon": 0.01}},
        trials=200,
        reference={None: (222, 8000)},
    ),
    Workload(
        name="wide_uniform",
        command="experiment",
        base={"family": {"kind": "pinched_star", "m": 201, "s": 0.002,
                         "h": 0.02},
              "process": {"kind": "uniform", "rate": 0.05, "n": 4},
              "estimator": {"kind": "uniform", "s": 0.005,
                            "h_star": 0.02}},
        trials=2000,
        reference={None: (2, 20000)},
    ),
    Workload(
        name="tkf91_trend",
        command="tkf91",
        base={"family": {"kind": "figure1", "k": 200, "h": 1.0},
              "ks": [10, 50, 200],
              "process": {"kind": "tkf91", "nu": 1.0, "lam": 0.5,
                          "mu": 1.0},
              "estimator": {"s": 0.05, "h_star": 1.0, "epsilon": 0.3,
                            "row_samples": 4000}},
        trials=150,
        reference={10: (2269, 4000), 50: (1708, 4000), 200: (1255, 4000)},
    ),
    Workload(
        name="small_map",
        command="experiment",
        base={"family": {"kind": "random_ultrametric", "k": 10, "h": 1.0,
                         "seed": 3},
              "process": {"kind": "uniform", "rate": 1.0, "n": 3},
              "estimator": {"kind": "map"}},
        trials=2000,
        reference={None: (7539, 20000)},
    ),
)}


class CheckError(Exception):
    pass


def _wilson(errors: int, trials: int, z: float) -> tuple:
    # kept apart from rootrec.bounds.wilson_interval so that the check
    # does not lean on the code it checks
    p = errors / trials
    centre = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2))
    scale = 1 + z * z / trials
    return max((centre - half) / scale, 0.0), min((centre + half) / scale, 1.0)


def _binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    if k < 0:
        return 0.0
    if k >= n or p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    lp, lq, ln = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    return min(1.0, sum(
        math.exp(ln - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                 + i * lp + (n - i) * lq)
        for i in range(k + 1)))


def _rate_ok(errors: int, trials: int, ref: tuple) -> bool:
    """Whether ``errors`` out of ``trials`` is plausible at the reference
    rate ``ref`` = (reference errors, reference trials)."""
    lo, hi = _wilson(*ref, Z_REF)
    too_many = 1.0 - _binom_cdf(errors - 1, trials, hi)
    too_few = _binom_cdf(errors, trials, lo)
    return too_many >= ALPHA and too_few >= ALPHA


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_output(w: Workload, trials: int, output: str) -> dict:
    """Validate one command's output files; return what the traced
    metrics read from them.  Raises CheckError on the first problem."""
    if w.command == "tkf91":
        return _check_tkf91(w, trials, output)
    return _check_experiment(w, trials, output)


def _check_experiment(w: Workload, trials: int, output: str) -> dict:
    rows = _read_csv(output + ".trials.csv")
    summary = _read_csv(output + ".summary.csv")
    if [int(r["trial"]) for r in rows] != list(range(trials)):
        raise CheckError("trials CSV does not hold trials 0..N-1")
    if any(r["fallback"] not in ("0", "1") for r in rows):
        raise CheckError("fallback flag outside {0, 1}")
    mismatches = sum(r["true_root"] != r["estimate"] for r in rows)
    if len(summary) != 1:
        raise CheckError("summary CSV must hold one row")
    s = summary[0]
    if int(s["trials"]) != trials or int(s["errors"]) != mismatches:
        raise CheckError(f"summary says {s['errors']}/{s['trials']} errors, "
                         f"trials CSV has {mismatches}/{trials}")
    if s["bound"] != "" and s["empirical_le_bound"] != "1":
        raise CheckError(f"empirical rate {s['rate']} above bound "
                         f"{s['bound']}")
    if not _rate_ok(mismatches, trials, w.reference[None]):
        raise CheckError(f"{mismatches}/{trials} errors disagree with the "
                         f"reference {w.reference[None]}")
    return {"fallbacks": sum(r["fallback"] == "1" for r in rows)}


def _check_tkf91(w: Workload, trials: int, output: str) -> dict:
    rows = _read_csv(output)
    ks = w.base["ks"]
    if [int(r["k"]) for r in rows] != ks:
        raise CheckError(f"tkf91 rows are for k={[r['k'] for r in rows]}, "
                         f"expected {ks}")
    for r in rows:
        errors = int(r["errors"])
        if int(r["trials"]) != trials or not 0 <= errors <= trials:
            raise CheckError(f"k={r['k']}: {errors}/{r['trials']} errors")
        if not math.isclose(float(r["rate"]), errors / trials,
                            rel_tol=1e-9, abs_tol=1e-12):
            raise CheckError(f"k={r['k']}: rate {r['rate']} is not "
                             f"{errors}/{trials}")
        if not _rate_ok(errors, trials, w.reference[int(r["k"])]):
            raise CheckError(f"k={r['k']}: {errors}/{trials} errors "
                             f"disagree with the reference "
                             f"{w.reference[int(r['k'])]}")
    return {}
