"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.
"""

import io
import contextlib
from itertools import combinations

from conftest import criterion1_instances
from oracles import alternating_structures, chain_of

from veronese_sdepth import (
    CircularSet,
    block_structure,
    check_cross_level_disjoint,
    check_mixed_density_disjoint,
    check_superset_closure,
    conjectured_sdepth,
    exact_sdepth,
    interval_family,
    is_covered,
    lift,
    lower_bound_large_n,
    sdepth_upper_bound,
    validate_lift_params,
)
from veronese_sdepth.cli import main as cli_main


class criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} - {self.description}")
        return False


def test_criterion_1_exact_value_reproduction(c1_results):
    with criterion(1, "builder reproduces the closed-form value at desk scale"):
        assert len(c1_results) == len(criterion1_instances())
        for n, d, ok, min_upper in c1_results:
            assert ok, f"partition for ({n},{d}) failed verification"
            expected = (n - d) // (d + 1) + d
            assert min_upper == expected, (n, d, min_upper, expected)


def test_criterion_2_k3_construction(c2_results):
    with criterion(2, "n = 4d+3 construction reaches d + 3 with full base coverage"):
        for n, d, ok, min_upper in c2_results:
            assert ok and n == 4 * d + 3
            assert min_upper == d + 3
        # zero exceptions on base-layer coverage of the (d+1)-sets,
        # re-checked here against an independently rebuilt family
        for d in (1, 2, 3):
            n = 4 * d + 3
            fam = interval_family(n, d, 0, 3)
            for combo in combinations(range(1, n + 1), d + 1):
                assert is_covered(CircularSet(n, combo), fam), (d, combo)


def test_criterion_3_oracle_agreement():
    with criterion(3, "exact oracle equals the closed-form value (every n <= 9)"):
        for n in range(1, 7):
            for d in range(1, n + 1):
                got = exact_sdepth(n, d)
                assert got == conjectured_sdepth(n, d), (n, d, got)
        assert exact_sdepth(7, 1) == conjectured_sdepth(7, 1) == 4
        for n in range(7, 10):
            for d in range(1, n + 1):
                got = exact_sdepth(n, d)
                assert got == conjectured_sdepth(n, d), (n, d, got)


def test_criterion_4_large_regime_lower_bound(c4_results):
    with criterion(4, "beyond-threshold builds certify the square-root lower bound"):
        for n, d, ok, min_upper in c4_results:
            assert ok, (n, d)
            assert min_upper >= lower_bound_large_n(n, d), (n, d, min_upper)


def test_criterion_5_block_structure_laws():
    with criterion(5, "uniqueness, closure-size, and lifted-size laws, exhaustively"):
        # existence + uniqueness against the independent enumerator, n <= 12
        for n in range(1, 13):
            for r in range(1, n + 1):
                for members in combinations(range(1, n + 1), r):
                    for delta in range(1, (n - 1) // r + 1):
                        found = alternating_structures(n, members, delta, 1)
                        assert len(found) == 1, (n, members, delta, len(found))
                        bs = block_structure(CircularSet(n, members), delta)
                        assert chain_of(bs) in found
        # closure size at the matched density: |f(A)| = d + k for d-sets
        # of [(d+1)k + d]
        for d in range(1, 5):
            for k in range(1, 4):
                n = (d + 1) * k + d
                for combo in combinations(range(1, n + 1), d):
                    a = CircularSet(n, combo)
                    bs = block_structure(a, k + 1)
                    assert len(a) + len(bs.gap_positions()) == d + k, (n, d, k, combo)
        # lifted closure size: |f(lifted A)| = n + s, exhaustively for n <= 8
        for n in range(2, 9):
            for d in range(1, n):
                cap = (n - d) // (d + 1)
                for s in range(1, cap + 1):
                    params = validate_lift_params(n, d, s)
                    for combo in combinations(range(1, n + 1), d):
                        lifted = lift(CircularSet(n, combo), params)
                        bs = block_structure(lifted, s + 1)
                        assert len(lifted) + len(bs.gap_positions()) == n + s


def test_criterion_6_disjointness_and_closure_laws():
    with criterion(6, "family disjointness/closure and cross-density predicates, n <= 7"):
        # pairwise disjointness and superset closure for every admissible family
        for n in range(2, 8):
            for level in range(1, n):
                cap = (n - level) // (level + 1)
                for s in range(1, cap + 1):
                    fam = interval_family(n, level, 0, s)
                    intervals = list(fam)
                    for i in range(len(intervals)):
                        for j in range(i + 1, len(intervals)):
                            assert not intervals[i].intersects(intervals[j])
                    for size in range(level, n + 1):
                        for combo in combinations(range(1, n + 1), size):
                            dset = CircularSet(n, combo)
                            if not is_covered(dset, fam):
                                assert check_superset_closure(dset, fam)
        # mixed-density disjointness over every admissible pair of densities
        for n in range(2, 8):
            subsets = [
                CircularSet(n, c)
                for size in range(1, n)
                for c in combinations(range(1, n + 1), size)
            ]
            densities = [(k, 1) for k in range(1, n)] + [(3, 2), (5, 2), (4, 3)]
            for a in subsets:
                for b in subsets:
                    if len(a) > len(b):
                        continue
                    for dn, dd in densities:
                        if dn * len(a) > dd * (n - 1):
                            continue
                        for en, ed in densities:
                            if en * len(b) > ed * (n - 1):
                                continue
                            if dn * ed < en * dd:
                                continue
                            assert check_mixed_density_disjoint(
                                a, b, f"{dn}/{dd}", f"{en}/{ed}"
                            ), (n, a.members, b.members, (dn, dd), (en, ed))
        # cross-level disjointness over every admissible integer tuple
        for n in range(2, 8):
            for d in range(1, n):
                for q in range(0, n - d):
                    for l in range(q, n - d):
                        eta_cap = (n + 1) // (d + l + 1)
                        delta_cap = (n + 1) // (d + q + 1)
                        for eta in range(2, eta_cap + 1):
                            for delta in range(eta, delta_cap + 1):
                                if (d + l + 1) * eta < (d + q + 1) * delta:
                                    continue
                                if validate_lift_params(n, d + q, delta - 1) is None:
                                    continue
                                for cc in combinations(range(1, n + 1), d + q):
                                    for dd_ in combinations(range(1, n + 1), d + l):
                                        assert check_cross_level_disjoint(
                                            CircularSet(n, cc),
                                            CircularSet(n, dd_),
                                            d,
                                            q,
                                            l,
                                            delta,
                                            eta,
                                        ), (n, d, q, l, delta, eta, cc, dd_)


def test_criterion_7_upper_bound_consistency(c1_results, c2_results, c4_results):
    with criterion(7, "no verified partition exceeds the closed-form upper bound"):
        pool = list(c1_results) + list(c2_results) + list(c4_results)
        assert pool
        for n, d, ok, min_upper in pool:
            assert ok
            assert min_upper <= sdepth_upper_bound(n, d), (n, d, min_upper)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_8_cli_contract(tmp_path):
    with criterion(8, "build/verify round trips exit 0; mutations exit 4/4/2"):
        for n, d in criterion1_instances():
            path = tmp_path / f"p_{n}_{d}.txt"
            code, _, err = run_cli(["build", "-n", str(n), "-d", str(d), "--out", str(path)])
            assert code == 0, (n, d, err)
            code, out, err = run_cli(["verify", "--in", str(path)])
            assert code == 0, (n, d, out, err)
            path.unlink()

        path = tmp_path / "mutate.txt"
        assert run_cli(["build", "-n", "5", "-d", "2", "--out", str(path)])[0] == 0
        lines = path.read_text().splitlines(keepends=True)

        path.write_text("".join(lines[:-1]))
        assert run_cli(["verify", "--in", str(path)])[0] == 4

        path.write_text("".join(lines) + lines[-1])
        assert run_cli(["verify", "--in", str(path)])[0] == 4

        path.write_text("n=? d=2 regime=K1\n" + "".join(lines[1:]))
        assert run_cli(["verify", "--in", str(path)])[0] == 2
