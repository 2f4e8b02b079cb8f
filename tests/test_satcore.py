import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mcheck
from mcheck.satcore import UNDEF, BucketVsids, Solver, from_dimacs

from oracle import ShadowActivity, cnf_brute_force

SRC = str(Path(mcheck.__file__).resolve().parent.parent)


def _random_cnf(rng, max_vars=16, max_clauses=70):
    nv = rng.randint(2, max_vars)
    ncl = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(ncl):
        width = rng.randint(1, 4)
        clauses.append([2 * rng.randrange(nv) + rng.randint(0, 1)
                        for _ in range(width)])
    return nv, clauses


def _solver_for(nv, clauses):
    s = Solver()
    s.new_vars(nv)
    for cl in clauses:
        s.add_clause(cl)
    return s


def test_differential_against_truth_tables(rng):
    for i in range(500):
        nv, clauses = _random_cnf(rng)
        s = _solver_for(nv, clauses)
        res = s.solve()
        want = cnf_brute_force(nv, clauses)
        assert res == (want is not None), i
        if res:
            model = {v: s.model_value(v, default=False) for v in range(nv)}
            for cl in clauses:
                assert any(model[l >> 1] != bool(l & 1) for l in cl), (i, cl)


def test_differential_with_assumptions(rng):
    for i in range(300):
        nv, clauses = _random_cnf(rng)
        assumptions = list({2 * rng.randrange(nv) + rng.randint(0, 1)
                            for _ in range(rng.randint(1, 4))})
        if any(a ^ 1 in assumptions for a in assumptions):
            continue
        s = _solver_for(nv, clauses)
        res = s.solve(assumptions)
        want = cnf_brute_force(nv, clauses, assumptions)
        assert res == (want is not None), i
        if res:
            for a in assumptions:
                assert s.model_value(a >> 1) == (not a & 1), i


def test_unsat_core_is_unsat_subset(rng):
    checked = 0
    for i in range(400):
        nv, clauses = _random_cnf(rng)
        assumptions = list({2 * rng.randrange(nv) + rng.randint(0, 1)
                            for _ in range(rng.randint(2, 6))})
        if any(a ^ 1 in assumptions for a in assumptions):
            continue
        s = _solver_for(nv, clauses)
        if cnf_brute_force(nv, clauses) is None:
            continue  # want failures attributable to the assumptions
        if s.solve(assumptions) is False:
            core = s.unsat_core()
            assert set(core) <= set(assumptions), i
            assert cnf_brute_force(nv, clauses, core) is None, i
            checked += 1
    assert checked >= 20


def test_temporary_clauses_do_not_persist():
    s = Solver()
    s.new_vars(3)
    s.add_clause([2])  # x0
    s.add_clause([5], temporary=True)  # ~x1, this query only
    assert s.solve([3]) is False  # ~x0 contradicts the permanent unit
    assert s.solve([4]) is True  # x1 is free again: temporary is gone
    assert s.solve([5]) is True


def test_temporary_clause_affects_only_current_query():
    s = Solver()
    s.new_vars(3)
    s.add_clause([2, 4])  # x1 or x2
    s.add_clause([3], temporary=True)  # ~x1 for this query only
    assert s.solve() is True
    assert s.model_value(1) is False and s.model_value(2) is True
    assert s.solve([2]) is True  # x1 is assertable again


def test_incremental_clause_addition(rng):
    for _ in range(50):
        nv, clauses = _random_cnf(rng, max_vars=10, max_clauses=40)
        s = Solver()
        s.new_vars(nv)
        for k, cl in enumerate(clauses):
            s.add_clause(cl)
            if k % 7 == 0:
                res = s.solve()
                want = cnf_brute_force(nv, clauses[: k + 1])
                assert res == (want is not None)


def test_full_covering_domain_is_equivalent(rng):
    for i in range(150):
        nv, clauses = _random_cnf(rng)
        s = _solver_for(nv, clauses)
        full = s.solve()
        s2 = _solver_for(nv, clauses)
        restricted = s2.solve(domain=range(nv))
        assert full == restricted, i


def test_cancel_returns_none():
    s = Solver()
    s.new_vars(30)
    rng = random.Random(5)
    for _ in range(200):
        s.add_clause([2 * rng.randrange(30) + rng.randint(0, 1)
                      for _ in range(3)])
    assert s.solve(cancel_check=lambda: True) is None


def test_dimacs_round_trip(rng):
    nv, clauses = _random_cnf(rng, max_vars=8, max_clauses=20)
    s = _solver_for(nv, clauses)
    s2 = from_dimacs(s.to_dimacs())
    assert s.solve() == s2.solve()


def test_trivially_unsat_and_empty():
    s = Solver()
    assert s.solve() is True
    v = s.new_var()
    s.add_clause([2 * v])
    s.add_clause([2 * v + 1])
    assert s.solve() is False


def test_bucket_vsids_matches_exact_scores(rng):
    heap = BucketVsids()
    shadow = ShadowActivity()
    nvars = 0
    picks = 0
    for step in range(20000):
        op = rng.random()
        if nvars == 0 or (op < 0.05 and nvars < 150):
            heap.new_var()
            shadow.new_var()
            nvars += 1
        elif op < 0.55:
            v = rng.randrange(nvars)
            heap.bump(v)
            shadow.bump(v)
        elif op < 0.62:
            heap.decay()
            shadow.decay()
        elif op < 0.75:
            v = rng.randrange(nvars)
            heap.insert(v)
            shadow.insert(v)
        else:
            banned = {v for v in range(nvars) if rng.random() < 0.2}
            eligible = lambda v: v not in banned
            parked = []
            v = heap.pop_max(eligible, parked)
            best = shadow.best_bucket(eligible)
            if v is None:
                assert best is None
            else:
                assert eligible(v)
                assert shadow.bucket_of(v) == best, (step, v)
                picks += 1
            for p in parked:
                shadow.note_pop(p, taken=False)
            if v is not None:
                shadow.note_pop(v, taken=True)
    assert picks > 1000


def test_root_conflict_makes_solver_unsat_for_good():
    # a = b = ... : (a|b), (a|~b) force a; (~a|c), (~a|~c) then refute a
    s = Solver()
    s.new_vars(3)
    for cl in ([0, 2], [0, 3], [1, 4], [1, 5]):
        s.add_clause(cl)
    assert s.solve() is False
    assert s.solve([2]) is False
    assert s.solve() is False


def test_incremental_differential_with_temporaries(rng):
    """Query sequences mixing permanent clauses added between queries,
    temporaries, assumptions and covering domains, each checked by brute
    force."""
    def clause(nv, min_width):
        # permanent clauses of width >= 2 leave root refutations to search
        return [2 * rng.randrange(nv) + rng.randint(0, 1)
                for _ in range(rng.randint(min_width, 3))]

    for seq in range(400):
        nv = rng.randint(3, 8)
        s = Solver()
        s.new_vars(nv)
        perm = []
        for q in range(25):
            for _ in range(rng.randint(0, 3)):
                perm.append(clause(nv, 2))
                s.add_clause(perm[-1])
            temps = [clause(nv, 1) for _ in range(rng.choice((0, 0, 1, 2)))]
            for cl in temps:
                s.add_clause(cl, temporary=True)
            assume = sorted({2 * rng.randrange(nv) + rng.randint(0, 1)
                             for _ in range(rng.randint(0, 3))})
            domain = range(nv) if rng.random() < 0.4 else None
            res = s.solve(assume, domain=domain)
            want = cnf_brute_force(nv, perm + temps, assume)
            assert res == (want is not None), (seq, q)
            if res:
                model = {v: s.model_value(v, default=False) for v in range(nv)}
                for cl in perm + temps:
                    assert any(model[l >> 1] != bool(l & 1) for l in cl), (seq, q)
                assert all(model[l >> 1] != bool(l & 1) for l in assume)
            else:
                core = s.unsat_core()
                assert set(core) <= set(assume), (seq, q)
                assert cnf_brute_force(nv, perm + temps, core) is None, (seq, q)


def test_root_refuted_temporary_does_not_leak():
    # (a|b), (a|~b) imply a at the root, so the temporary (~a) refutes the
    # activation literal at level 0; later queries must not inherit that
    s = Solver()
    s.new_vars(3)
    s.add_clause([0, 2])
    s.add_clause([0, 3])
    s.add_clause([1], temporary=True)
    assert s.solve() is False
    s.add_clause([4], temporary=True)
    assert s.solve() is True
    assert s.solve([0]) is True


def test_temporary_queries_reuse_one_activation_var(rng):
    s = Solver()
    s.new_vars(5)
    for _ in range(1000):
        s.add_clause([2 * rng.randrange(5) + rng.randint(0, 1)
                      for _ in range(2)], temporary=True)
        s.solve()
    assert s.num_vars <= 7


def test_restricted_then_full_queries(rng):
    """Restricted queries drop out-of-domain vars from the heap; a later
    full-domain query must still assign every var.  Permanent clauses stay
    inside one of two var blocks and share a planted model, so a domain that
    is the queried block covers the query's cone."""
    for seq in range(150):
        nv = rng.randint(4, 10)
        half = nv // 2
        blocks = (range(half), range(half, nv))
        planted = [rng.randint(0, 1) for _ in range(nv)]
        s = Solver()
        s.new_vars(nv)
        perm = []
        for q in range(12):
            for _ in range(rng.randint(0, 3)):
                block = rng.choice(blocks)
                cl = [2 * rng.choice(block) + rng.randint(0, 1)
                      for _ in range(rng.randint(1, 3))]
                if all(planted[l >> 1] == l & 1 for l in cl):
                    cl[0] ^= 1  # keep the planted model
                perm.append(cl)
                s.add_clause(cl)
            block = rng.choice(blocks)
            temps = [[2 * rng.choice(block) + rng.randint(0, 1)
                      for _ in range(rng.randint(1, 2))]
                     for _ in range(rng.randint(0, 2))]
            for cl in temps:
                s.add_clause(cl, temporary=True)
            assume = sorted({2 * rng.choice(block) + rng.randint(0, 1)
                             for _ in range(rng.randint(0, 2))})
            restricted = rng.random() < 0.5
            res = s.solve(assume, domain=block if restricted else None)
            want = cnf_brute_force(nv, perm + temps, assume)
            assert res == (want is not None), (seq, q)
            if res:
                # a model assigns the whole domain; a full one satisfies all
                model = [s.model_value(v) for v in range(nv)]
                assert None not in [model[v] for v in block], (seq, q)
                if not restricted:
                    assert None not in model, (seq, q)
                    for cl in perm + temps:
                        assert any(model[l >> 1] != bool(l & 1) for l in cl)


def _run_isolated(code, timeout=30):
    """Run `code` in a fresh interpreter: a solver that hangs fails the test
    by timeout instead of stalling the suite."""
    done = subprocess.run([sys.executable, "-c", code], timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_luby_sequence():
    out = _run_isolated(
        "from mcheck.satcore import Solver\n"
        "print(*[Solver._luby(i) for i in range(15)])\n")
    assert out.split() == "1 1 2 1 1 2 4 1 1 2 1 1 2 4 8".split()


def test_search_survives_its_restarts():
    # 6 pigeons, 5 holes: refuting it takes more conflicts than the first
    # restart interval, so the search must restart and carry on
    out = _run_isolated(
        "from mcheck.satcore import Solver\n"
        "s = Solver()\n"
        "s.new_vars(30)\n"
        "for p in range(6):\n"
        "    s.add_clause([2 * (5 * p + h) for h in range(5)])\n"
        "for h in range(5):\n"
        "    for p in range(6):\n"
        "        for q in range(p):\n"
        "            s.add_clause([2 * (5 * p + h) + 1, 2 * (5 * q + h) + 1])\n"
        "print(s.solve(), s.stats.conflicts > s.LUBY_UNIT)\n")
    assert out.split() == ["False", "True"]


def test_reduce_db_drops_root_satisfied_learnts(rng):
    """A root unit added between queries satisfies some learnt clauses; the
    next reduction drops every one that is not a reason, and the solver
    stays exact."""
    nv = 14
    dropped = 0
    for i in range(100):
        clauses = [[2 * rng.randrange(nv) + rng.randint(0, 1) for _ in range(3)]
                   for _ in range(60)]
        s = _solver_for(nv, clauses)
        s.solve()
        in_learnts = sorted({l for c in s.learnts for l in c.lits
                             if s.assigns[l >> 1] == UNDEF})
        if not s.ok or not in_learnts:
            continue
        unit = rng.choice(in_learnts)
        sat_by_unit = [c for c in s.learnts if unit in c.lits]
        clauses.append([unit])
        s.add_clause([unit])
        s._reduce_db()
        for c in s.learnts:
            root_sat = any(s.vlevel[l >> 1] == 0 and s.value_lit(l) == 1
                           for l in c.lits)
            assert not root_sat or s.reason[c.lits[0] >> 1] is c, i
        for c in sat_by_unit:
            if s.reason[c.lits[0] >> 1] is not c:
                assert c not in s.learnts, i
                assert all(c not in ws for ws in s.watches), i
                dropped += 1
        want = cnf_brute_force(nv, clauses)
        assert s.solve() == (want is not None), i
    assert dropped >= 30


def test_backtrack_refiles_only_the_current_domain(rng):
    """One solver cycles through restricted domain A, restricted domain B
    and the full domain, so vars of the other block are backtracked while
    they are outside the domain.  Permanent clauses stay inside one block
    and share a planted model, so a block covers its queries' cones."""
    for seq in range(150):
        nv = rng.randint(6, 12)
        half = nv // 2
        blocks = (range(half), range(half, nv))
        planted = [rng.randint(0, 1) for _ in range(nv)]
        s = Solver()
        s.new_vars(nv)
        perm = []
        for q in range(15):
            domain = (blocks[0], blocks[1], None)[q % 3]
            scope = domain or range(nv)
            for _ in range(rng.randint(1, 4)):
                block = rng.choice(blocks)
                cl = [2 * rng.choice(block) + rng.randint(0, 1)
                      for _ in range(rng.randint(2, 3))]
                if all(planted[l >> 1] == l & 1 for l in cl):
                    cl[0] ^= 1  # keep the planted model
                perm.append(cl)
                s.add_clause(cl)
            temps = [[2 * rng.choice(scope) + rng.randint(0, 1)
                      for _ in range(rng.randint(1, 3))]
                     for _ in range(rng.randint(0, 2))]
            for cl in temps:
                s.add_clause(cl, temporary=True)
            assume = sorted({2 * rng.choice(scope) + rng.randint(0, 1)
                             for _ in range(rng.randint(0, 3))})
            res = s.solve(assume, domain=domain)
            want = cnf_brute_force(nv, perm + temps, assume)
            assert res == (want is not None), (seq, q)
            if res:
                model = [s.model_value(v) for v in range(nv)]
                assert None not in [model[v] for v in scope], (seq, q)
                for cl in perm + temps:
                    if all(l >> 1 in scope for l in cl):
                        assert any(model[l >> 1] != bool(l & 1) for l in cl), (seq, q)
            else:
                core = s.unsat_core()
                assert set(core) <= set(assume), (seq, q)
                assert cnf_brute_force(nv, perm + temps, core) is None, (seq, q)
