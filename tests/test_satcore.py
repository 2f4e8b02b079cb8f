import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mcheck
from mcheck.satcore import UNDEF, BucketVsids, Solver

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


def _flat(clauses):
    """`clauses` laid out as `Solver.add_root_clauses` reads them."""
    lits, ends = [], []
    for cl in clauses:
        lits += cl
        ends.append(len(lits))
    return lits, ends


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
                             if s.vals[l] == UNDEF})
        if not s.ok or not in_learnts:
            continue
        unit = rng.choice(in_learnts)
        sat_by_unit = [c for c in s.learnts if unit in c.lits]
        clauses.append([unit])
        s.add_clause([unit])
        s._reduce_db()
        for c in s.learnts:
            root_sat = any(s.vlevel[l >> 1] == 0 and s.vals[l] == 1
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


def _and_gate(g, a, b):
    """Tseitin clauses of g = a AND b over literals a, b."""
    return [[2 * g + 1, a], [2 * g + 1, b], [2 * g, a ^ 1, b ^ 1]]


def _watch_trail(s, allowed):
    """Wrap `s._propagate` to record every var assigned above the root that
    `allowed(v)` rejects; returns the list of offending vars."""
    offenders = []
    propagate = s._propagate

    def checked():
        confl = propagate()
        if s.trail_lim:
            offenders.extend(p >> 1 for p in s.trail[s.trail_lim[0]:]
                             if not allowed(p >> 1))
        return confl
    s._propagate = checked
    return offenders


def test_restricted_query_stays_in_its_domain():
    # domain A = x0..x4 under three clauses; the 10 gates g_ij = x_i & x_j
    # read A but lie outside its cone, so a restricted query leaves them open
    n = 5
    clauses = [[0, 2], [5, 6], [8, 1]]  # x0|x1, ~x2|x3, x4|~x0
    gates = {}
    for i in range(n):
        for j in range(i + 1, n):
            g = n + len(gates)
            gates[g] = (2 * i, 2 * j)
    for g, (a, b) in gates.items():
        clauses += _and_gate(g, a, b)
    nv = n + len(gates)
    domain = range(n)
    temp = [4, 9]  # x2 | ~x4

    for assume in ([0], [2, 6], [1, 3], [0, 7]):
        s = _solver_for(nv, clauses)
        offenders = _watch_trail(
            s, lambda v: v < n or v == s._temp_act)
        s.add_clause(temp, temporary=True)
        res = s.solve(assume, domain=domain)
        full = _solver_for(nv, clauses)
        full.add_clause(temp, temporary=True)
        want = cnf_brute_force(nv, clauses + [temp], assume)
        assert res == full.solve(assume) == (want is not None), assume
        assert offenders == [], assume
        if res:
            assert all(s.model_value(v) is not None for v in domain)
            assert all(s.model_value(g) is None for g in gates)
            fixed = [2 * v + (0 if s.model_value(v) else 1) for v in domain]
            assert cnf_brute_force(nv, clauses + [temp], fixed) is not None
        else:
            assert s.unsat_core() == full.unsat_core()
            assert cnf_brute_force(nv, clauses + [temp], s.unsat_core()) is None


def test_restricted_queries_match_full_ones_on_gate_circuits(rng):
    """Seeded incremental differential: free vars X under permanent clauses
    that share a planted model, AND gates over X and earlier gates, and one
    solver answering queries on the fan-in cone of random roots, closed over
    the permanent clauses.  A twin solver answers each query on the full
    domain; the brute-force oracle judges both."""
    units_mid_query = 0
    for seq in range(120):
        nx = rng.randint(3, 7)
        ng = rng.randint(3, 16 - nx)
        nv = nx + ng
        planted = [rng.randint(0, 1) for _ in range(nx)]
        fanin = {}
        gate_clauses = []
        for g in range(nx, nv):
            a, b = (2 * rng.randrange(g) + rng.randint(0, 1) for _ in range(2))
            if a >> 1 == b >> 1:
                b = 2 * ((b >> 1) + 1 if (b >> 1) + 1 < g else 0)
            fanin[g] = (a >> 1, b >> 1)
            gate_clauses += _and_gate(g, a, b)
        s, twin = _solver_for(nv, gate_clauses), _solver_for(nv, gate_clauses)
        perm = []
        for q in range(15):
            for _ in range(rng.randint(0, 3)):
                cl = [2 * rng.randrange(nx) + rng.randint(0, 1)
                      for _ in range(rng.randint(2, 3))]
                if all(planted[l >> 1] == l & 1 for l in cl):
                    cl[0] ^= 1  # keep the planted model
                perm.append(cl)
                s.add_clause(cl)
                twin.add_clause(cl)
            # domain: fan-in cone of the roots, closed over permanent clauses
            domain = set()
            todo = rng.sample(range(nv), rng.randint(1, 3))
            while todo:
                v = todo.pop()
                if v in domain:
                    continue
                domain.add(v)
                todo.extend(fanin.get(v, ()))
                todo.extend(l >> 1 for cl in perm if any(l >> 1 == v for l in cl)
                            for l in cl)
            scope = sorted(domain)
            temps = [[2 * rng.choice(scope) + rng.randint(0, 1)
                      for _ in range(rng.randint(1, 3))]
                     for _ in range(rng.randint(0, 2))]
            for cl in temps:
                s.add_clause(cl, temporary=True)
                twin.add_clause(cl, temporary=True)
            assume = sorted({2 * rng.choice(scope) + rng.randint(0, 1)
                             for _ in range(rng.randint(0, 3))})
            allowed = domain | {l >> 1 for l in assume}
            offenders = _watch_trail(
                s, lambda v: v in allowed or v == s._temp_act)
            root = len(s.trail)
            res = s.solve(assume, domain=domain)
            units_mid_query += len(s.trail) > root
            want = cnf_brute_force(nv, gate_clauses + perm + temps, assume)
            assert res == twin.solve(assume) == (want is not None), (seq, q)
            assert offenders == [], (seq, q)
            if res:
                model = [s.model_value(v) for v in range(nv)]
                assert None not in [model[v] for v in domain], (seq, q)
                for v in range(nv):
                    if v not in allowed and s.vals[2 * v] == UNDEF:
                        assert model[v] is None, (seq, q, v)
                # the partial model extends to a full one
                fixed = [2 * v + (0 if model[v] else 1)
                         for v in range(nv) if model[v] is not None]
                assert cnf_brute_force(nv, gate_clauses + perm + temps,
                                       fixed) is not None, (seq, q)
            else:
                core = s.unsat_core()
                assert set(core) <= set(assume), (seq, q)
                assert cnf_brute_force(nv, gate_clauses + perm + temps,
                                       core) is None, (seq, q)
    assert units_mid_query >= 20


def test_sat_answer_does_not_drain_the_heap(rng):
    """A restricted Sat answer comes from the last decision's propagation:
    no extra `pop_max` sweeps the heap to prove the domain is full."""
    n = 8
    clauses = [[2 * rng.randrange(n) + rng.randint(0, 1) for _ in range(2)]
               for _ in range(6)]
    gates = range(n, 3 * n)
    for g in gates:
        clauses += _and_gate(g, 2 * rng.randrange(g), 2 * rng.randrange(g) + 1)
    s = _solver_for(3 * n, clauses)
    calls = [0]
    pop_max = s.vsids.pop_max

    def counted(eligible, parked):
        calls[0] += 1
        return pop_max(eligible, parked)
    s.vsids.pop_max = counted
    sat = 0
    for q in range(20):
        assume = [2 * rng.randrange(n) + rng.randint(0, 1)]
        calls[0], decisions = 0, s.stats.decisions
        if s.solve(assume, domain=range(n)):
            sat += 1
            assert calls[0] == s.stats.decisions - decisions, q
    assert sat >= 5


def _root_closed(s, clauses):
    """No clause is false or unit under the root assignment of `s`."""
    for cl in clauses:
        vals = [s.vals[l] for l in cl]
        if 1 not in vals and vals.count(UNDEF) < 2:
            return False
    return True


def test_root_loader_matches_one_clause_at_a_time(rng):
    """Seeded batches go through `add_root_clauses` on one solver and one
    clause at a time through `add_clause` on its twin; incremental queries
    with assumptions, temporaries and restricted domains follow each batch.
    Permanent clauses keep a planted model inside one of two var blocks, so
    a block is a covering domain for a query on it, until a batch refutes
    the root on purpose: complementary units, or units that come after the
    clauses they falsify, so the conflict shows only in the final
    propagation."""
    refuted = {"units": 0, "final": 0}
    restricted_sat = 0
    for seq in range(150):
        nv = rng.randint(4, 10)
        half = nv // 2
        blocks = (range(half), range(half, nv))
        planted = [rng.randint(0, 1) for _ in range(nv)]
        loader, twin = Solver(), Solver()
        loader.new_vars(nv)
        twin.new_vars(nv)
        perm = []
        refute_at = rng.randrange(12) if rng.random() < 0.3 else None
        for q in range(12):
            batch = []
            for _ in range(rng.randint(1, 6)):
                block = rng.choice(blocks)
                # units mid-batch; each clause names each var once
                width = 1 if rng.random() < 0.3 else rng.randint(2, 3)
                cl = [2 * v + rng.randint(0, 1)
                      for v in rng.sample(block, min(width, len(block)))]
                if all(planted[l >> 1] == l & 1 for l in cl):
                    cl[0] ^= 1  # keep the planted model
                batch.append(cl)
            kind = None
            if q == refute_at:
                open_vars = [v for v in range(nv) if loader.vals[2 * v] == UNDEF]
                if rng.random() < 0.5 and len(open_vars) >= 2:
                    kind = "final"
                    x, y = rng.sample(open_vars, 2)
                    batch += [[2 * x + 1, 2 * y], [2 * x + 1, 2 * y + 1], [2 * x]]
                else:
                    kind = "units"
                    x = rng.randrange(nv)
                    batch.insert(rng.randrange(len(batch) + 1), [2 * x])
                    batch.insert(rng.randrange(len(batch) + 1), [2 * x + 1])
            loader.add_root_clauses(*_flat(batch))
            for cl in batch:
                twin.add_clause(cl)
            perm += batch
            assert loader.ok == twin.ok, (seq, q)
            if kind is not None:
                assert not loader.ok, (seq, q, kind)
                refuted[kind] += 1
            for s in (loader, twin):
                assert not s.ok or _root_closed(s, perm), (seq, q)

            block = rng.choice(blocks)
            temps = [[2 * v + rng.randint(0, 1)
                      for v in rng.sample(block, rng.randint(1, 2))]
                     for _ in range(rng.randint(0, 2))]
            assume = sorted({2 * rng.choice(block) + rng.randint(0, 1)
                             for _ in range(rng.randint(0, 2))})
            if any(a ^ 1 in assume for a in assume):
                assume = assume[:1]
            restricted = rng.random() < 0.5
            want = cnf_brute_force(nv, perm + temps, assume)
            for s in (loader, twin):
                for cl in temps:
                    s.add_clause(cl, temporary=True)
                res = s.solve(assume, domain=block if restricted else None)
                assert res == (want is not None), (seq, q)
                if res:
                    restricted_sat += restricted
                    model = [s.model_value(v) for v in range(nv)]
                    assert all(model[l >> 1] == (not l & 1) for l in assume)
                    if not restricted:
                        for cl in perm + temps:
                            assert any(model[l >> 1] == (not l & 1) for l in cl)
                else:
                    core = s.unsat_core()
                    assert set(core) <= set(assume), (seq, q)
                    assert cnf_brute_force(nv, perm + temps, core) is None
    assert min(refuted.values()) >= 5 and restricted_sat >= 100, (
        refuted, restricted_sat)


def test_binary_clauses_match_brute_force(rng):
    """Binary-heavy CNFs, mostly two-literal clauses (the binary implication
    lists) and some three-literal ones, load in batches through
    `add_root_clauses` or one at a time through `add_clause`; queries with
    assumptions, temporaries and restricted domains follow.  Answers and
    cores are checked by brute force, and every learnt clause and root unit
    must follow from the permanent clauses, which a wrong int reason in
    conflict analysis breaks.  Random clauses keep a planted model inside
    one of two var blocks, so a block covers a query on it.  A few more vars
    copy a block literal through two binary clauses each; they lie in no
    query's cone, so a restricted query leaves them open."""
    learnts_checked = unsat = 0
    for seq in range(120):
        nx = rng.randint(8, 13)
        half = nx // 2
        blocks = (range(half), range(half, nx))
        planted = [rng.randint(0, 1) for _ in range(nx)]
        copies = range(nx, nx + 3)
        nv = nx + len(copies)
        batch = []
        for c in copies:  # c = x
            x = 2 * rng.randrange(nx) + rng.randint(0, 1)
            batch += [[x ^ 1, 2 * c], [x, 2 * c + 1]]
        batched = seq % 2 == 0
        s = Solver()
        s.new_vars(nv)
        perm = []
        for q in range(10):
            for _ in range(rng.randint(2, 8)):
                block = rng.choice(blocks)
                width = 2 if rng.random() < 0.7 else 3
                cl = [2 * v + rng.randint(0, 1) for v in rng.sample(block, width)]
                if all(planted[l >> 1] == l & 1 for l in cl):
                    cl[0] ^= 1  # keep the planted model
                batch.append(cl)
            if batched:
                s.add_root_clauses(*_flat(batch))
            else:
                for cl in batch:
                    s.add_clause(cl)
            perm += batch
            batch = []
            block = rng.choice(blocks)
            temps = [[2 * v + rng.randint(0, 1)
                      for v in rng.sample(block, rng.randint(1, 2))]
                     for _ in range(rng.randint(0, 2))]
            for cl in temps:
                s.add_clause(cl, temporary=True)
            assume = sorted({2 * rng.choice(block) + rng.randint(0, 1)
                             for _ in range(rng.randint(1, 3))})
            if any(a ^ 1 in assume for a in assume):
                assume = assume[:1]
            restricted = rng.random() < 0.5
            res = s.solve(assume, domain=block if restricted else None)
            want = cnf_brute_force(nv, perm + temps, assume)
            assert res == (want is not None), (seq, q)
            if res:
                model = [s.model_value(v) for v in range(nv)]
                assert all(model[l >> 1] == (not l & 1) for l in assume)
                scope = block if restricted else range(nv)
                for cl in perm + temps:
                    if all(l >> 1 in scope for l in cl):
                        assert any(model[l >> 1] == (not l & 1) for l in cl), (seq, q)
                if restricted:
                    for c in copies:
                        assert s.vals[2 * c] != UNDEF or model[c] is None, (seq, q)
            else:
                unsat += 1
                core = s.unsat_core()
                assert set(core) <= set(assume), (seq, q)
                assert cnf_brute_force(nv, perm + temps, core) is None, (seq, q)
            for c in s.learnts:
                assert cnf_brute_force(nv, perm, [l ^ 1 for l in c.lits]) is None
                learnts_checked += 1
            for l in s.trail:
                if l >> 1 < nv:
                    assert cnf_brute_force(nv, perm, [l ^ 1]) is None, (seq, q)
        assert s.num_bins > 0
    assert learnts_checked >= 100 and unsat >= 100, (learnts_checked, unsat)


def test_binary_implication_respects_the_domain():
    # (a | b): a's false literal implies b, unless b is outside the domain
    s = Solver()
    s.new_vars(2)
    s.add_clause([0, 2])
    assert s.num_bins == 1 and s.clauses == []
    assert s.solve([1], domain=[0]) is True  # assume ~a; b lies outside
    assert s.model_value(0) is False and s.model_value(1) is None
    assert s.solve([1]) is True
    assert s.model_value(1) is True
    # an assumption var is inside: b's reason is literal a, that is 0
    assert s.solve([1, 3], domain=[0]) is False
    assert s.unsat_core() == (1, 3)


def _clause_closure(seeds, clauses):
    """The vars that share a clause, directly or through other vars, with a
    var of `seeds`."""
    out, todo = set(), list(seeds)
    while todo:
        v = todo.pop()
        if v in out:
            continue
        out.add(v)
        todo.extend(l >> 1 for cl in clauses if any(l >> 1 == v for l in cl)
                    for l in cl)
    return out


def test_cores_are_refuted_by_a_fresh_full_domain_solver(rng):
    """Seeded incremental sequences of restricted and full-domain queries.
    Permanent clauses share a planted model, so the clause-graph closure of
    a query's assumption and temporary vars covers its cone.  Brute force
    judges every answer, and every core is a subset of the assumptions that
    a fresh solver, loaded with the same clauses and temporaries as
    permanent ones, refutes on the full domain."""
    restricted_cores = 0
    for seq in range(200):
        nv = rng.randint(3, 8)
        planted = [rng.randint(0, 1) for _ in range(nv)]
        s = Solver()
        s.new_vars(nv)
        perm = []
        for q in range(25):
            for _ in range(rng.randint(0, 3)):
                cl = [2 * rng.randrange(nv) + rng.randint(0, 1)
                      for _ in range(rng.randint(1, 3))]
                if all(planted[l >> 1] == l & 1 for l in cl):
                    cl[0] ^= 1  # keep the planted model
                perm.append(cl)
                s.add_clause(cl)
            temps = [[2 * rng.randrange(nv) + rng.randint(0, 1)
                      for _ in range(rng.randint(1, 3))]
                     for _ in range(rng.choice((0, 0, 1, 2)))]
            for cl in temps:
                s.add_clause(cl, temporary=True)
            assume = sorted({2 * rng.randrange(nv) + rng.randint(0, 1)
                             for _ in range(rng.randint(0, 4))})
            domain = None
            if rng.random() < 0.7:
                seeds = {l >> 1 for cl in temps for l in cl}
                domain = _clause_closure(seeds | {l >> 1 for l in assume},
                                         perm + temps)
            res = s.solve(assume, domain=domain)
            want = cnf_brute_force(nv, perm + temps, assume)
            assert res == (want is not None), (seq, q)
            if res:
                model = [s.model_value(v) for v in range(nv)]
                fixed = [2 * v + (0 if model[v] else 1)
                         for v in range(nv) if model[v] is not None]
                assert cnf_brute_force(nv, perm + temps, fixed) is not None
                assert all(s.model_value(l >> 1) != bool(l & 1) for l in assume)
            else:
                core = s.unsat_core()
                assert set(core) <= set(assume), (seq, q)
                assert _solver_for(nv, perm + temps).solve(core) is False, \
                    (seq, q)
                restricted_cores += domain is not None and len(core) > 1
    assert restricted_cores >= 100


def test_only_a_restricted_query_puts_its_assumptions_on_one_level():
    """The decision level of each assumption at every propagation pass above
    the root: a restricted query enqueues all three on level 1 and
    propagates once; a full-domain query gives each its own level."""
    assume = [0, 3, 4]  # a, ~b, c: three free vars, no clause between them

    class Recording(Solver):
        def _propagate(self):
            if self.trail_lim:
                self.passes.append([self.vlevel[p >> 1]
                                    if self.vals[p] != UNDEF else None
                                    for p in assume])
            return super()._propagate()

    for domain, passes in ((range(3), [[1, 1, 1]]),
                           (None, [[1, None, None], [1, 2, None], [1, 2, 3]])):
        s = Recording()
        s.passes = []
        s.new_vars(3)
        assert s.solve(assume, domain=domain) is True
        assert s.passes == passes, domain


def _check_values(s, where):
    """Each var's two `vals` entries are both open or complementary, every
    trail literal reads 1, and only trail vars are assigned."""
    vals = s.vals
    assert len(vals) == 2 * s.num_vars, where
    for v in range(s.num_vars):
        assert (vals[2 * v], vals[2 * v + 1]) in (
            (UNDEF, UNDEF), (0, 1), (1, 0)), (where, v)
    assert all(vals[p] == 1 for p in s.trail), where
    assert sum(a != UNDEF for a in vals[0::2]) == len(s.trail), where


def test_literal_values_stay_complementary(rng):
    """Seeded incremental sequences: permanent batches through
    `add_root_clauses` or `add_clause`, temporaries, assumptions, and
    restricted or full domains.  The value array is checked after each load
    and each solve, and at every propagation pass inside the search, so an
    assignment above the root that sets one of a var's entries and not the
    other shows before backtracking erases it."""
    seen = {"restricted": 0, "full": 0, "conflicts": 0, "decisions": 0}
    for seq in range(100):
        nv = rng.randint(8, 16)
        planted = [rng.randint(0, 1) for _ in range(nv)]
        s = Solver()
        s.new_vars(nv)
        propagate = s._propagate

        def checked(s=s, propagate=propagate, seq=seq):
            confl = propagate()
            _check_values(s, (seq, "propagate"))
            return confl
        s._propagate = checked
        perm = []
        for q in range(15):
            batch = []
            for _ in range(rng.randint(0, 8)):
                width = 3 if rng.random() < 0.8 else rng.randint(1, 2)
                cl = [2 * v + rng.randint(0, 1)
                      for v in rng.sample(range(nv), width)]
                if all(planted[l >> 1] == l & 1 for l in cl):
                    cl[0] ^= 1  # keep the planted model
                batch.append(cl)
            if rng.random() < 0.5:
                s.add_root_clauses(*_flat(batch))
            else:
                for cl in batch:
                    s.add_clause(cl)
            perm += batch
            _check_values(s, (seq, q, "load"))
            temps = [[2 * rng.randrange(nv) + rng.randint(0, 1)
                      for _ in range(rng.randint(1, 3))]
                     for _ in range(rng.choice((0, 0, 1, 2)))]
            for cl in temps:
                s.add_clause(cl, temporary=True)
            assume = sorted({2 * rng.randrange(nv) + rng.randint(0, 1)
                             for _ in range(rng.randint(0, 4))})
            domain = None
            if rng.random() < 0.6:
                seeds = {l >> 1 for cl in temps for l in cl}
                domain = _clause_closure(seeds | {l >> 1 for l in assume},
                                         perm + temps)
            seen["restricted" if domain is not None else "full"] += 1
            res = s.solve(assume, domain=domain)
            _check_values(s, (seq, q, "solve"))
            want = cnf_brute_force(nv, perm + temps, assume)
            assert res == (want is not None), (seq, q)
        seen["conflicts"] += s.stats.conflicts
        seen["decisions"] += s.stats.decisions
    assert min(seen.values()) >= 100, seen
