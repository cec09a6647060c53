"""The three workloads.  Each builds its inputs from the seed in `setup`,
runs one round of operations per `run_round` call (the same operations in
every round), and checks the program's outputs in `check`, after the timed
rounds.

* campaign: `bilbt campaign` through `bilbt.cli.main`; one operation is one
  campaign case.
* reduce: the library path `bilbt reduce` wraps, on a corpus of system
  files; one operation is one (system, kind) reduction.
* simulate-wide: `bilbt.simulate` of heat-equation models too large for a
  dense Gramian; one operation is one trajectory.
"""

import json
import math
import os
import statistics
import time

import numpy as np

import checks
import models

class Workload:
    """State every workload keeps: failed operations (message set, counted
    per round by `run_round`) and problems found by the checks."""

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.failures = set()
        self.problems = []

    def layer_extra(self):
        """Per-layer metrics the workload measures itself (traced runs)."""
        return {}


# --------------------------------------------------------------------------
# campaign

CAMPAIGN_SEED = 2026  # the acceptance campaign's seed
CAMPAIGN_T = 0.5      # horizon; h stays at the CLI default 1e-3
CAMPAIGN_CHECK_T = 5.0


class Campaign(Workload):
    """The default campaign grid at a fixed seed and a short horizon.  The
    seed given to the benchmark draws the controls of the solve_ivp
    recomputation in `check`."""

    name = "campaign"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.report_text = None
        self.report = None
        self.report_bytes = 0

    def setup(self):
        import bilbt.cli  # noqa: F401  (import cost belongs to set-up)

    def run_round(self, index):
        import bilbt.cli

        path = os.path.join(self.workdir, "campaign.json")
        code = bilbt.cli.main(["campaign", "--seed", str(CAMPAIGN_SEED),
                               "--T", repr(CAMPAIGN_T), "--output", path, "--quiet"])
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)
        report = json.loads(text)
        if code != 0:
            self.problems.append(f"round {index}: bilbt campaign exited with {code}")
        if self.report_text is None:
            self.report_text, self.report = text, report
            self.report_bytes = len(text.encode())
        elif text != self.report_text:
            self.problems.append(f"round {index}: report differs from round 0")
        summary = report["summary"]
        return summary["total_cases"], summary["skipped"] + summary["certified_hard_failures"]

    def check(self):
        problems = list(self.problems) + checks.check_campaign_report(self.report)
        problems += self._recompute_worked_example()
        return problems

    def _recompute_worked_example(self):
        """Rebuild each certified type-2 ROM of the worked 2x2 system that the
        report scores, confirm its bound constant equals the report's, and
        recompute its output error under a seeded bounded control with
        solve_ivp."""
        import bilbt

        sys = bilbt.worked_2x2()
        full = (sys.A, sys.B, list(sys.N), sys.C)
        seen = {}
        for c in self.report["cases"]:
            if (c["system"] == "worked-2x2" and c["check"] == "error_bound_cor"
                    and c["kind"] == "type2_bilinear" and c["certified"]):
                seen.setdefault((c["k"], c["r"]), c["tail_sum"])
        problems = []
        if not seen:
            problems.append("campaign report scores no type-2 ROM of worked-2x2")
        rng = np.random.default_rng([self.seed, 2])
        for (k, r), tail_sum in sorted(seen.items()):
            rom = bilbt.truncate(bilbt.square_root_balance(
                sys, bilbt.type2_gramians(sys, k)), r)
            if abs(rom.bound_all - 2.0 * tail_sum) > 1e-9 * rom.bound_all:
                problems.append(f"worked-2x2 k={k}: rebuilt bound {rom.bound_all!r} "
                                f"!= report 2*tail_sum {2.0 * tail_sum!r}")
            params = models.sinusoid_params(sys.m, k, rng)
            rs = rom.system
            err, u_norm = checks.output_error(full, (rs.A, rs.B, list(rs.N), rs.C),
                                              params, CAMPAIGN_CHECK_T)
            if not err <= rom.bound_all * u_norm:
                problems.append(f"worked-2x2 k={k} r={r}: solve_ivp error {err!r} "
                                f"> bound {rom.bound_all * u_norm!r}")
        return problems

    def metrics(self, round_times):
        ratios = [c["ratio"] for c in self.report["cases"]
                  if c["check"] == "error_bound_cor" and c["certified"]
                  and c["ratio"] is not None]
        return {"bound_tightness_mean": (statistics.fmean(ratios), "1")}

    def layer_extra(self):
        return {"cli.report_bytes": float(self.report_bytes)}


# --------------------------------------------------------------------------
# reduce

K_FRACTION = 0.5       # type-2 control bound as a share of the largest feasible
REDUCE_CHECK_T = 2.0
LARGEST = "heat-20"
# (label, n, m, p) of the seeded random systems: n <= 3, where the coupling
# homotopy tends to win, and n >= 6, where the interior point wins
RANDOM_SPECS = (("random-2a", 2, 1, 1), ("random-2b", 2, 1, 1),
                ("random-3", 3, 2, 1), ("random-4", 4, 1, 2),
                ("random-6", 6, 2, 2), ("random-10", 10, 2, 1),
                ("random-16", 16, 1, 1))
HEAT_SIZES = (12, 20)


def reduce_corpus(seed):
    """[(label, system dict, k, order)]: the scalar closed-form system at
    k = 1, seeded random systems, and heat-equation rods, the largest last."""
    corpus = [("scalar", models.scalar_system(), 1.0, None)]
    for i, (label, n, m, p) in enumerate(RANDOM_SPECS):
        system = models.random_system(n, m, p, np.random.default_rng([seed, i]))
        corpus.append((label, system, K_FRACTION * models.k_max(system), min(2, n - 1)))
    for n in HEAT_SIZES:
        system = models.heat_system(n)
        corpus.append((f"heat-{n}", system, K_FRACTION * models.k_max(system), 2))
    return corpus


class Reduce(Workload):
    name = "reduce"
    KINDS = ("type1", "type2")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cases = []
        self.first = {}       # (label, kind) -> (pair, bal, rom) of round 0
        self.op_times = {}    # (label, kind) -> [seconds per round]
        self.tightness = []

    def setup(self):
        import bilbt

        corpus_dir = os.path.join(self.workdir, "corpus")
        os.makedirs(corpus_dir, exist_ok=True)
        for label, system, k, order in reduce_corpus(self.seed):
            path = os.path.join(corpus_dir, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(system, fh)
            self.cases.append({"label": label, "k": k, "order": order,
                               "system": bilbt.load_system(path),
                               "arrays": models.arrays(system)})

    def run_round(self, index):
        import bilbt

        failed = 0
        for case in self.cases:
            sys = case["system"]
            for kind in self.KINDS:
                start = time.perf_counter()
                try:
                    if kind == "type1":
                        bilbt.stability_report(sys)
                        pair = bilbt.type1_gramians(sys)
                    else:
                        bilbt.stability_report(sys, case["k"])
                        pair = bilbt.type2_gramians(sys, case["k"])
                    bal = bilbt.square_root_balance(sys, pair)
                    rom = bilbt.truncate(bal, case["order"]) if case["order"] else None
                except (bilbt.MatrixEquationError, bilbt.BalancingError,
                        ValueError) as exc:
                    failed += 1
                    self.failures.add(f"{case['label']} {kind}: "
                                      f"{type(exc).__name__}: {exc}")
                    continue
                key = (case["label"], kind)
                self.op_times.setdefault(key, []).append(time.perf_counter() - start)
                if index == 0:
                    self.first[key] = (pair, bal, rom)
                elif not np.array_equal(bal.hsv, self.first[key][1].hsv):
                    self.problems.append(f"round {index} {key}: Hankel values differ "
                                         "from round 0")
        return len(self.cases) * len(self.KINDS), failed

    def check(self):
        problems = list(self.problems)
        for i, case in enumerate(self.cases):
            for kind in self.KINDS:
                result = self.first.get((case["label"], kind))
                if result is None:
                    continue  # a failed operation, counted as such
                pair, bal, rom = result
                problems += checks.check_reduction(case, case["arrays"], pair, bal, rom)
                if kind == "type2" and rom is not None:
                    problems += self._check_output_error(i, case, rom)
            if case["label"] == "scalar":
                problems += checks.check_scalar(
                    [self.first[("scalar", kind)][0] for kind in self.KINDS])
        return problems

    def _check_output_error(self, i, case, rom):
        """The ROM's output error, integrated by solve_ivp under a seeded
        control bounded by k, against its certified bound."""
        params = models.sinusoid_params(rom.system.m, case["k"],
                                        np.random.default_rng([self.seed, 50 + i]))
        rs = rom.system
        err, u_norm = checks.output_error(case["arrays"], (rs.A, rs.B, list(rs.N), rs.C),
                                          params, REDUCE_CHECK_T)
        bound = rom.bound_all * u_norm
        self.tightness.append(err / bound)
        if err <= bound:
            return []
        return [f"{case['label']}: solve_ivp output error {err!r} > "
                f"certified bound {bound!r}"]

    def metrics(self, round_times):
        bounds = [rom.bound_all for (label, kind), (_p, _b, rom) in self.first.items()
                  if kind == "type2" and rom is not None]
        return {
            "rom_largest_s": (statistics.median(self.op_times[(LARGEST, "type2")]), "s"),
            "certified_bound_gmean": (math.exp(statistics.fmean(
                math.log(b) for b in bounds)), "1"),
            "bound_tightness_mean": (statistics.fmean(self.tightness), "1"),
        }


# --------------------------------------------------------------------------
# simulate-wide

# (n, T): at h = 1e-3 the integrator precomputes (2K+1) n^2 drift entries
# when that is at most its budget of 2e7; n = 64 over T = 2 stays below it
# (1.64e7 entries, 131 MB), the two larger rods take the per-term branch.
WIDE_MODELS = ((64, 2.0), (96, 4.0), (128, 4.0))
WIDE_H = 1e-3
WIDE_K = 1.0
# RK4 at h = 1e-3 on these rods (|h lambda| <= 0.4, smooth controls) is
# within about 1e-9 of the solve_ivp reference; a deviation above this
# tolerance is no longer integration error.
WIDE_TOL = 1e-7


class SimulateWide(Workload):
    name = "simulate-wide"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.models = []
        self.first = []
        self.steps = 0

    def setup(self):
        import bilbt

        for i, (n, T) in enumerate(WIDE_MODELS):
            system = models.heat_system(n)
            path = os.path.join(self.workdir, f"heat-{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(system, fh)
            x0 = models.smooth_profile(n, np.random.default_rng([self.seed, i]))
            self.models.append({"n": n, "T": T, "x0": x0,
                                "system": bilbt.load_system(path),
                                "arrays": models.arrays(system)})

    def run_round(self, index):
        import bilbt

        for i, model in enumerate(self.models):
            # a fresh control per round: no trajectory repeats within a run
            params = models.sinusoid_params(
                2, WIDE_K, np.random.default_rng([self.seed, index, i]))
            u = bilbt.ControlSignal.sinusoid_bank(*params)
            traj = bilbt.simulate(model["system"], model["x0"], u, model["T"], WIDE_H)
            self.steps += traj.grid.size - 1
            if index == 0:
                self.first.append((params, traj.grid, traj.outputs))
        return len(self.models), 0

    def check(self):
        problems = []
        for model, (params, grid, outputs) in zip(self.models, self.first):
            A, B, N, C = model["arrays"]
            ref = checks.integrate(A, B, N, model["x0"], params, model["T"], grid) @ C.T
            dev, ok = checks.check_trajectory(outputs, ref, WIDE_TOL)
            if not ok:
                problems.append(f"heat-{model['n']}: output deviates {dev:.3e} from "
                                f"the solve_ivp reference (tolerance {WIDE_TOL})")
        return problems

    def metrics(self, round_times):
        return {"steps_per_s": (self.steps / sum(round_times), "1/s")}


WORKLOADS = {w.name: w for w in (Campaign, Reduce, SimulateWide)}
