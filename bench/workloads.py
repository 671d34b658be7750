"""The three workloads.  Each builds its inputs from the seed, runs one
timed pass over its items through the library's public functions, and
checks every output.

``wall_s`` of a pass is the time spent inside the library calls; the checks
run outside it.  Every pass of a workload repeats the same operations on the
same inputs, so its outputs must repeat exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import checks


@dataclass
class Item:
    """One timed operation: its latency, its output as canonical text (for
    comparing passes and the traced run) and the checks it failed."""

    name: str
    latency_s: float
    output: str
    problems: list[str]


@dataclass
class Pass:
    wall_s: float
    items: list[Item]


def _failed(name: str, latency: float, exc: Exception) -> Item:
    text = f"{type(exc).__name__}: {exc}"
    return Item(name, latency, text, [f"raised {text}"])


def _params_text(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def _report_text(rep) -> str:
    dirs = ",".join(f"({a}:{b})" for a, b in rep.directions)
    return (
        f"{checks.type_signature(rep.polar_type)}|certified={rep.certified}"
        f"|teissier={rep.teissier_ok}|milnor={rep.milnor}|directions={dirs}"
    )


class StrataSweep:
    """``equising.stratum_sweep`` over all 18 gamma-5-12 rows, with the
    walls injected on row 18; one item is one sweep trial, timed by the
    ``mapper`` handed to the sweep."""

    # rows 1-17: one seeded draw each; row 18: its three walls plus four
    # draws, the fewest that leave the generic type in strict majority
    TRIALS = {**{row: 1 for row in range(1, 18)}, 18: 7}

    def __init__(self, bp, seed: int, expected: dict):
        self.bp = bp
        exp = expected["gamma_5_12"]
        n, m = exp["branch_semigroup"]
        self.mu = (n - 1) * (m - 1)
        self.by_row = {
            row: checks.expected_signature(e["type"])
            for e in exp["polar_by_row"]
            for row in e["rows"]
        }
        self.walls = checks.parse_walls(exp["row_18_walls"])
        self.families = {row: bp.families.gamma_5_12(row) for row in self.TRIALS}
        self.seeds = {row: seed * 1000 + row for row in self.TRIALS}

    def _sweep(self, row: int, trials: int):
        timed = []

        def mapper(fn, jobs):
            for job in jobs:
                t0 = perf_counter()
                out = fn(job)
                timed.append((perf_counter() - t0, out))
                yield out

        t0 = perf_counter()
        rep = self.bp.equising.stratum_sweep(
            self.families[row], trials, seed=self.seeds[row], samples=2, mapper=mapper
        )
        return perf_counter() - t0, rep, timed

    def warm_up(self) -> None:
        self._sweep(1, 1)

    def run_pass(self) -> Pass:
        wall = 0.0
        items = []
        for row, trials in self.TRIALS.items():
            t0 = perf_counter()
            try:
                elapsed, rep, timed = self._sweep(row, trials)
            except Exception as exc:  # counts the row's trials as failed items
                wall += perf_counter() - t0
                items += [_failed(f"gamma-5-12/{row}", 0.0, exc)] * trials
                continue
            wall += elapsed
            row_problems = self._row_problems(row, rep)
            for latency, (params, trial) in timed:
                if isinstance(trial, str):
                    problems, text = [f"sweep error: {trial}"], trial
                else:
                    want = self.by_row[row]
                    if row == 18:
                        want = checks.wall_signature(self.walls, params) or want
                    problems = checks.polar_report_problems(trial, want, self.mu)
                    text = _report_text(trial)
                name = f"gamma-5-12/{row} {_params_text(params)}"
                items.append(Item(name, latency, text, problems + row_problems))
        return Pass(wall, items)

    def _row_problems(self, row: int, rep) -> list[str]:
        problems = [f"sweep error: {e}" for e in rep.errors]
        if rep.uncertified:
            problems.append(f"{rep.uncertified} uncertified trials")
        sigs = [checks.type_signature(g.polar_type) for g in rep.groups]
        counts = [g.count for g in rep.groups]
        if sum(counts) != rep.trials:
            problems.append(f"groups hold {sum(counts)} of {rep.trials} trials")
        if row != 18:
            if sigs != [self.by_row[row]]:
                problems.append(f"sweep groups {sigs}, expected one group {self.by_row[row]}")
            return problems
        if not sigs or sigs[0] != self.by_row[18] or counts[0] <= sum(counts[1:]):
            problems.append(f"generic type not in strict majority: {list(zip(sigs, counts))}")
        if set(sigs[1:]) != {sig for _where, sig in self.walls}:
            problems.append(f"row 18 wall groups {sigs[1:]} differ from the walls")
        return problems


class Mult4Walls:
    """``equising.generic_polar_type`` at two seeded directions on Table 3.2
    instances of multiplicity four, genus one, in the second normal form
    x = t^4, y = t^m + t^(3m-4j) + sum_i a_i t^(2m-4(j-[m/4]-i))."""

    def __init__(self, bp, seed: int, expected: dict):
        self.bp = bp
        sqrt6 = bp.tower.Tower().adjoin("sqrt6", (Fraction(-6), Fraction(0), Fraction(1)))
        sqrt6 = sqrt6.generator(1)
        plain, walls = [], []
        for row in expected["mult4_g1_table_3_2"]:
            m, j = row["m"], row["j"]
            terms = {m: Fraction(1), 3 * m - 4 * j: Fraction(1)}
            in_tower = False
            for i, (rational, irrational) in row["a"].items():
                value = Fraction(rational)
                if Fraction(irrational):
                    value = sqrt6 * Fraction(irrational) + value
                    in_tower = True
                terms[2 * m - 4 * (j - m // 4 - int(i))] = value
            branch = bp.branch.PuiseuxBranch.from_terms(4, terms)
            want = checks.expected_signature(row["type"])
            # Rational rows with moduli (~50 ms each) run at four direction
            # draws: more of them than of the ~10 ms rows without moduli puts
            # the median item inside their cluster, not on its noisy edge.
            draws = 4 if row["a"] and not in_tower else 1
            for draw in range(draws):
                label = f"{row['row']}, draw {draw + 1}"
                # mu of the branch is the conductor of <4, m>
                (walls if in_tower else plain).append((draw, label, branch, want, 3 * (m - 1)))
        # The rational items, draw by draw, in as many runs as there are sqrt6
        # rows plus one, with a sqrt6 row (seconds long) between runs: the
        # items near the median latency then fall in several stretches of a
        # pass, not in one.
        plain.sort(key=lambda item: item[0])
        cut = -(-len(plain) // (len(walls) + 1))
        ordered = []
        for i in range(len(walls) + 1):
            ordered += plain[i * cut : (i + 1) * cut] + walls[i : i + 1]
        self.items = [
            (label, branch, want, mu, seed * 1000 + i)
            for i, (_draw, label, branch, want, mu) in enumerate(ordered)
        ]

    def _run(self, item) -> Item:
        label, branch, want, mu, item_seed = item
        t0 = perf_counter()
        try:
            rep = self.bp.equising.generic_polar_type(
                branch, samples=2, rng=random.Random(item_seed)
            )
        except Exception as exc:  # a failed item, reported with the others
            return _failed(label, perf_counter() - t0, exc)
        latency = perf_counter() - t0
        return Item(label, latency, _report_text(rep), checks.polar_report_problems(rep, want, mu))

    def warm_up(self) -> None:
        self._run(self.items[0])

    def run_pass(self) -> Pass:
        items = [self._run(item) for item in self.items]
        return Pass(sum(i.latency_s for i in items), items)


class EqualContact:
    """``dsl.parse_branch``, ``report.analyze`` at two directions and
    ``AnalysisReport.to_json`` on x = t^n, y = t^(k(n-1)+1)."""

    def __init__(self, bp, seed: int, expected: dict):
        self.bp = bp
        self.items = [
            (n, k, f"x=t^{n}; y=t^{k * (n - 1) + 1}", seed * 1000 + idx)
            for idx, (n, k) in enumerate(expected["equal_contact"]["n_k"])
        ]

    def _run(self, item) -> Item:
        n, k, text, item_seed = item
        t0 = perf_counter()
        try:
            spec = self.bp.dsl.parse_branch(text)
            out = self.bp.report.analyze(spec, directions=2, seed=item_seed).to_json()
        except Exception as exc:  # a failed item, reported with the others
            return _failed(text, perf_counter() - t0, exc)
        latency = perf_counter() - t0
        return Item(text, latency, out, checks.equal_contact_problems(json.loads(out), n, k))

    def warm_up(self) -> None:
        self._run(self.items[0])

    def run_pass(self) -> Pass:
        items = [self._run(item) for item in self.items]
        return Pass(sum(i.latency_s for i in items), items)


WORKLOADS = {
    "strata_sweep": StrataSweep,
    "mult4_walls": Mult4Walls,
    "equal_contact": EqualContact,
}
