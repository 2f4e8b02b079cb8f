"""Incremental CDCL SAT solver specialized for one-step model-checking
queries: assumptions with unsat cores, temporary clauses that vanish after
each query, a domain restricted per query, and a bucketed constant-time
activity heuristic.

A restricted domain bounds both decisions and propagation.  Above the root,
a clause whose implied literal lies outside the domain stays unit and
unpropagated, with both watches kept; assumption vars count as inside.
Root propagation, learnt units found mid-query included, runs over every
clause.  The query answers Sat as soon as every domain var open at its start
is assigned.  The caller guarantees that the domain covers the cone of
influence (COI) of the assumptions and temporary clauses, so the partial
model extends to a full one; it assigns only domain, assumption and root
vars, and `model_value` reads None elsewhere.

A restricted query also opens a single decision level for its assumptions:
it enqueues every open one there and propagates once.  A conflict on that
level ends the query as Unsat, with no clause learnt, and its core is the
set of assumptions reached backwards from the conflict clause, so it holds
only what the conflict used, in whatever order the assumptions came.  A
full-domain query (BMC, k-induction, certificate checks) gives each
assumption its own level, propagates after each open one, and learns from
conflicts among them.  On both paths an assumption found false ends the query, and
its core is that assumption plus the assumptions that falsified it;
`_analyze_final` walks back from the conflict clause or the false literal.

Temporary clauses are guarded by one activation literal per solver, reused by
every query and assumed in each once it exists.  Learnt clauses that contain
its negation were derived from the current query's temporaries; they are
filed and detached with them, so nothing an old query derived fires again.
Should a query leave the activation var assigned at the root, it is retired
and the next temporary clause allocates a fresh one.

A var that a query pops from the activity heap while it is assigned or
outside the domain leaves the heap for good, not just for that query.  It
comes back on backtrack only if it is in the current domain; otherwise when
a restricted domain names it, or in one sweep at the next full-domain query
after a restricted one.  Root-assigned vars never come back.  Per-query
heap work thus follows the domain, not the number of vars the solver has
seen.

Permanent clauses enter through one root loader, `add_root_clauses`.  It
takes a batch of clauses laid out flat, one after another in a literal list,
that name each var at most once; drops root-false literals, skips
root-satisfied clauses, enqueues units, files two-literal clauses in the
binary implication lists (one with both literals open is read in place,
with no list made for it), attaches the rest on two open literals and runs
root propagation once, at the end.  `add_clause` wraps it for a single
clause that may still need sorting, repeated literals removed or a
tautology dropped.

A permanent binary clause (a | b) is no `Clause`: `bins[a]` holds b and
`bins[b]` holds a, as plain ints, and a literal's list is created on its
first clause.  A literal's watch list, too, is () until its first watch,
so a var that no clause names costs no list.  Propagating a false literal
visits its binary list first, then the long clauses watching it; learnt
and temporary binary clauses stay on the watch path, where `_reduce_db`
and `_clear_temporaries` detach them.
Above the root, a binary clause that a restricted domain leaves unit is
visited again through its other literal's list should that var be assigned.
A var implied through `bins` takes the false literal as its reason, an int,
where a watched clause's reason is the `Clause`; analysis reads an int
reason r as the clause (r,) without the implied literal.  Literal 0 is a
valid reason, so a reason is tested only with `is None`.

Values are kept per literal, so reading one is a single index: `vals[l]`
is 1 when l is true, 0 when false, UNDEF when open.  An assignment writes
`vals[p] = 1` and `vals[p ^ 1] = 0`, and backtracking resets both; a model
is `vals[0::2]`.  A clause whose watch turns false takes as its new watch
the first literal from `lits[2]` on that is not false; a plain scan finds
it, reading only `lits[2]` in a three-literal clause.

`stats` counts this solver's work; an engine that runs several solvers
gives them one `SolverStats` object, so a run reports one count.  Nothing
in the search reads it.

Literals use the shared int encoding from :mod:`mcheck.logic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

UNDEF = 2  # vals[] sentinel


class Clause:
    __slots__ = ("lits", "learnt", "act")

    def __init__(self, lits: List[int], learnt: bool = False):
        self.lits = lits
        self.learnt = learnt
        self.act = 0.0


class BucketVsids:
    """Quantized activity: 16 buckets, O(1) amortized bump/decay/pick.

    Per-var absolute levels plus a moving origin; decay shifts the origin so
    every variable drops one bucket with no per-var work.  Buckets are lazy
    stacks: stale entries are re-filed or dropped when popped.
    """

    NBUCKETS = 16

    def __init__(self) -> None:
        self.level: List[int] = []
        self.present: List[bool] = []
        self.origin = 0
        self.buckets: List[List[int]] = [[] for _ in range(self.NBUCKETS)]

    def new_var(self) -> None:
        self.new_vars(1)

    def new_vars(self, n: int) -> None:
        v = len(self.level)
        self.level += [self.origin] * n
        self.present += [True] * n
        self.buckets[0].extend(range(v, v + n))  # bucket_of a new var is 0

    def bucket_of(self, v: int) -> int:
        b = self.level[v] - self.origin
        if b < 0:
            return 0
        if b >= self.NBUCKETS:
            return self.NBUCKETS - 1
        return b

    def insert(self, v: int) -> None:
        if not self.present[v]:
            self.present[v] = True
            self.buckets[self.bucket_of(v)].append(v)

    def bump(self, v: int) -> None:
        lev = self.level[v]
        if lev < self.origin:
            lev = self.origin
        top = self.origin + self.NBUCKETS - 1
        lev += 1
        if lev > top:
            lev = top
        self.level[v] = lev
        if self.present[v]:
            self.buckets[self.bucket_of(v)].append(v)

    def decay(self) -> None:
        self.origin += 1

    def pop_max(self, eligible: Callable[[int], bool], parked: List[int]) -> Optional[int]:
        """Pop the best eligible var; ineligible pops go to `parked`."""
        buckets = self.buckets
        present = self.present
        level = self.level
        origin = self.origin
        top = self.NBUCKETS - 1
        for i in range(top, -1, -1):
            b = buckets[i]
            while b:
                v = b.pop()
                if not present[v]:
                    continue
                cur = level[v] - origin  # bucket_of(v), inlined
                cur = 0 if cur < 0 else top if cur > top else cur
                if cur != i:
                    buckets[cur].append(v)  # re-file after decay
                    continue
                present[v] = False
                if eligible(v):
                    return v
                parked.append(v)
        return None


@dataclass
class SolverStats:
    solves: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0


class Solver:
    DECAY_INTERVAL = 256
    LUBY_UNIT = 128

    def __init__(self) -> None:
        self.ok = True
        self.vals: List[int] = []  # per literal: 1 true, 0 false, UNDEF open
        self.polarity: List[bool] = []
        self.vlevel: List[int] = []
        self.reason: List[Union[Clause, int, None]] = []
        self.watches: List[Sequence[Clause]] = []  # () until the first watch
        self.bins: List[Sequence[int]] = []  # () until the literal's first clause
        self.num_bins = 0
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.clauses: List[Clause] = []
        self.learnts: List[Clause] = []
        self.vsids = BucketVsids()
        self.stats = SolverStats()  # an engine may share one among its solvers
        self._conflicts = 0  # this solver's own, for the decay schedule

        self._seen: List[bool] = []
        self._model: List[int] = []
        self._core: Tuple[int, ...] = ()
        self._domain_stamp: List[int] = []
        self._domain_gen = 0
        self._domain_full = True
        self._temp_clauses: List[Clause] = []
        self._temp_act: Optional[int] = None
        self._temp_contra = False
        self._popped: List[int] = []  # pop_max's parked list, never re-filed
        self._cla_inc = 1.0

    # -- variables ----------------------------------------------------------

    def new_var(self) -> int:
        return self.new_vars(1)

    def new_vars(self, n: int) -> int:
        """Allocate `n` fresh vars; returns the first."""
        v = len(self.vlevel)
        self.vals += [UNDEF] * (2 * n)
        self.polarity += [False] * n
        self.vlevel += [0] * n
        self.reason += [None] * n
        self.watches += [()] * (2 * n)
        self.bins += [()] * (2 * n)
        self._seen += [False] * n
        self._domain_stamp += [-1] * n
        self.vsids.new_vars(n)
        return v

    @property
    def num_vars(self) -> int:
        return len(self.vlevel)

    def decision_level(self) -> int:
        return len(self.trail_lim)

    # -- clause management --------------------------------------------------

    def add_clause(self, lits: Iterable[int], temporary: bool = False) -> None:
        """Add one clause at the root.  It is sorted, rid of repeated
        literals and dropped if a tautology; a permanent clause then goes
        through `add_root_clauses`, a temporary one is guarded for the next
        query only."""
        assert self.decision_level() == 0
        if not self.ok:
            return
        out: List[int] = []
        last = -2
        for l in sorted(lits):  # a var's two literals are adjacent
            if l == last:
                continue
            if l == last ^ 1:
                return  # tautology
            out.append(l)
            last = l
        if not temporary:
            self.add_root_clauses(out, (len(out),))
            return

        vals = self.vals
        kept: List[int] = []
        for l in out:
            a = vals[l]
            if a == UNDEF:
                kept.append(l)
            elif a == 1:
                return  # satisfied at root
        # one activation var, reused: learnt clauses that contain its
        # negation are filed with the temporaries and go with them
        if self._temp_act is None:
            self._temp_act = self.new_var()
        if not kept:
            self._temp_contra = True
            return
        kept.insert(0, 2 * self._temp_act + 1)
        c = Clause(kept)
        self._temp_clauses.append(c)
        self._attach(c)

    def add_root_clauses(self, lits: List[int], ends: Iterable[int]) -> None:
        """Load permanent clauses at the root in one pass.

        The clauses lie one after another in `lits`: clause i ends before
        index `ends[i]`, and each names each var at most once.  A clause of
        two open literals goes to the binary lists straight from `lits`;
        any other is copied out, and the solver keeps the copy of a clause
        it attaches.  Root-false literals are dropped and root-satisfied
        clauses skipped.  A unit is enqueued without propagating, a clause
        with two open literals goes to the binary lists, any longer one is
        attached on its first two open literals, which keep their order,
        and an empty clause makes the solver unsat for good.  Root
        propagation runs once, at the end, and a conflict there also makes
        the solver unsat for good.
        """
        assert not self.trail_lim
        if not self.ok:
            return
        vals = self.vals
        watches = self.watches
        bins = self.bins
        attached = self.clauses
        vlevel = self.vlevel
        reason = self.reason
        trail = self.trail
        num_bins = self.num_bins
        start = 0
        for end in ends:
            i, start = start, end
            if (end - i != 2 or vals[lits[i]] != UNDEF
                    or vals[lits[i + 1]] != UNDEF):
                cl = lits[i:end]
                n = 0  # open literals, moved to the front
                for l in cl:
                    a = vals[l]
                    if a == UNDEF:
                        cl[n] = l
                        n += 1
                    elif a == 1:
                        n = -1  # satisfied at root
                        break
                if n != 2:
                    if n > 2:
                        del cl[n:]
                        c = Clause(cl)
                        attached.append(c)
                        for w in cl[0], cl[1]:  # _attach(c), inlined
                            ws = watches[w]
                            if ws:
                                ws.append(c)
                            else:
                                watches[w] = [c]
                    elif n == 1:
                        l = cl[0]  # _enqueue(l, None), inlined
                        v = l >> 1
                        vals[l] = 1
                        vals[l ^ 1] = 0
                        vlevel[v] = 0
                        reason[v] = None
                        trail.append(l)
                    elif n == 0:
                        self.ok = False
                        break
                    continue
                x, y = cl[0], cl[1]
            else:  # two open literals, read in place
                x, y = lits[i], lits[i + 1]
            bx = bins[x]
            if bx:
                bx.append(y)
            else:
                bins[x] = [y]
            by = bins[y]
            if by:
                by.append(x)
            else:
                bins[y] = [x]
            num_bins += 1
        self.num_bins = num_bins
        if self.ok and self.qhead < len(trail) and self._propagate() is not None:
            self.ok = False

    def _attach(self, c: Clause) -> None:
        # watches[l] lists the clauses watching literal l; they are visited
        # when l becomes false.  It is () until l's first watch.
        watches = self.watches
        for w in c.lits[0], c.lits[1]:
            ws = watches[w]
            if ws:
                ws.append(c)
            else:
                watches[w] = [c]

    def _detach(self, c: Clause) -> None:
        # a watched literal's list exists: the clause went in through it
        for w in (c.lits[0], c.lits[1]):
            try:
                self.watches[w].remove(c)
            except ValueError:
                pass

    def _clear_temporaries(self) -> None:
        for c in self._temp_clauses:
            self._detach(c)
        self._temp_clauses = []
        self._temp_contra = False
        if self._temp_act is not None and self.vals[2 * self._temp_act] != UNDEF:
            self._temp_act = None  # refuted at the root: retire it

    # -- domain -------------------------------------------------------------

    def _activate_domain(self, domain: Optional[Iterable[int]],
                         assume: Sequence[int]) -> int:
        """Stamp the query's domain and assumption vars, and put the domain's
        unassigned vars back in the heap; called at decision level 0.
        Returns how many stamped vars are open (a restricted domain names
        each var once), or -1 for the full domain."""
        vals = self.vals
        present = self.vsids.present
        insert = self.vsids.insert
        if domain is None:
            if not self._domain_full:
                # a restricted query may have dropped any var from the heap
                self._domain_full = True
                for v in range(len(present)):
                    if not present[v] and vals[2 * v] == UNDEF:
                        insert(v)
            return -1
        self._domain_full = False
        self._domain_gen += 1
        gen = self._domain_gen
        stamp = self._domain_stamp
        n_open = 0
        for v in domain:
            stamp[v] = gen
            if vals[2 * v] == UNDEF:
                n_open += 1
                if not present[v]:
                    insert(v)
        for p in assume:  # assigned before any decision: no heap entry
            v = p >> 1
            if stamp[v] != gen:
                stamp[v] = gen
                if vals[p] == UNDEF:
                    n_open += 1
        return n_open

    def in_domain(self, v: int) -> bool:
        return self._domain_full or self._domain_stamp[v] == self._domain_gen

    # -- trail --------------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[Clause]) -> None:
        v = lit >> 1
        self.vals[lit] = 1
        self.vals[lit ^ 1] = 0
        self.vlevel[v] = self.decision_level()
        self.reason[v] = reason
        self.trail.append(lit)

    def _cancel_until(self, level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= level:
            return
        trail = self.trail
        vals = self.vals
        polarity = self.polarity
        reason = self.reason
        vsids = self.vsids
        present = vsids.present
        vsids_level = vsids.level
        buckets = vsids.buckets
        origin = vsids.origin
        top = BucketVsids.NBUCKETS - 1
        full = self._domain_full
        stamp = self._domain_stamp
        gen = self._domain_gen
        bound = trail_lim[level]
        for i in range(len(trail) - 1, bound - 1, -1):
            p = trail[i]
            v = p >> 1
            polarity[v] = not p & 1
            vals[p] = vals[p ^ 1] = UNDEF
            reason[v] = None
            # BucketVsids.insert, for vars of the current domain only
            if not present[v] and (full or stamp[v] == gen):
                present[v] = True
                b = vsids_level[v] - origin
                buckets[0 if b < 0 else top if b > top else b].append(v)
        del trail[bound:]
        del trail_lim[level:]
        self.qhead = len(trail)

    # -- propagation --------------------------------------------------------

    def _propagate(self) -> Optional[Clause]:
        vals = self.vals
        bins = self.bins
        watches = self.watches
        trail = self.trail
        vlevel = self.vlevel
        reason = self.reason
        level = len(self.trail_lim)
        # above the root, a restricted query implies nothing outside its domain
        bounded = level > 0 and not self._domain_full
        stamp = self._domain_stamp
        gen = self._domain_gen
        qhead = start = self.qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            for other in bins[false_lit]:
                a = vals[other]
                if a == UNDEF:
                    v = other >> 1
                    if bounded and stamp[v] != gen:
                        continue  # left unit: revisited if v is assigned
                    vals[other] = 1
                    vals[other ^ 1] = 0
                    vlevel[v] = level
                    reason[v] = false_lit
                    trail.append(other)
                elif a == 0:  # other is false: conflict
                    self.stats.propagations += qhead - start
                    self.qhead = qhead
                    return Clause([other, false_lit])
            ws = watches[false_lit]
            if not ws:
                continue
            j = 0
            for i, c in enumerate(ws):
                lits = c.lits
                first = lits[0]
                if first == false_lit:
                    first = lits[0] = lits[1]
                    lits[1] = false_lit
                a = vals[first]
                if a == 1:
                    ws[j] = c
                    j += 1
                    continue
                k = 2  # the first non-false literal from lits[2] on
                n = len(lits)
                while k < n and vals[lits[k]] == 0:
                    k += 1
                if k < n:
                    lk = lits[k]
                    lits[1] = lk
                    lits[k] = false_lit
                    wk = watches[lk]
                    if wk:
                        wk.append(c)
                    else:  # lk's first watch
                        watches[lk] = [c]
                    continue
                ws[j] = c
                j += 1
                if a != UNDEF:  # first is false: conflict
                    del ws[j:i + 1]
                    self.stats.propagations += qhead - start
                    self.qhead = qhead
                    return c
                v = first >> 1
                if bounded and stamp[v] != gen:
                    continue  # left unit: revisited only if v is assigned
                # _enqueue(first, c), inlined
                vals[first] = 1
                vals[first ^ 1] = 0
                vlevel[v] = level
                reason[v] = c
                trail.append(first)
            del ws[j:]
        self.stats.propagations += qhead - start
        self.qhead = qhead
        return None

    # -- conflict analysis --------------------------------------------------

    def _analyze(self, confl: Clause) -> Tuple[List[int], int]:
        seen = self._seen
        vlevel = self.vlevel
        reason = self.reason
        trail = self.trail
        learnt: List[int] = [0]  # placeholder for asserting literal
        path = 0
        index = len(trail)
        cur_level = len(self.trail_lim)
        to_clear: List[int] = []
        if confl.learnt:
            self._bump_clause(confl)
        lits: Sequence[int] = confl.lits
        while True:
            for l in lits:
                v = l >> 1
                if not seen[v] and vlevel[v] > 0:
                    seen[v] = True
                    to_clear.append(v)
                    self.vsids.bump(v)
                    if vlevel[v] >= cur_level:
                        path += 1
                    else:
                        learnt.append(l)
            while True:
                index -= 1
                p = trail[index]
                if seen[p >> 1]:
                    break
            path -= 1
            if path == 0:
                break
            r = reason[p >> 1]
            if isinstance(r, int):
                lits = (r,)
            else:  # a Clause, never None: p was implied
                if r.learnt:
                    self._bump_clause(r)
                lits = r.lits[1:]  # lits[0] is p
            seen[p >> 1] = False
        learnt[0] = p ^ 1

        # conflict-clause minimization: drop lits implied by the rest
        keep = [learnt[0]]
        for l in learnt[1:]:
            r = reason[l >> 1]
            if r is None:
                keep.append(l)
                continue
            if any((x >> 1) != (l >> 1) and not seen[x >> 1] and vlevel[x >> 1] > 0
                   for x in ((r,) if isinstance(r, int) else r.lits)):
                keep.append(l)
        learnt = keep

        for v in to_clear:
            seen[v] = False

        if len(learnt) == 1:
            bt = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if self.vlevel[learnt[i] >> 1] > self.vlevel[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = self.vlevel[learnt[1] >> 1]
        return learnt, bt

    def _analyze_final(self, confl: Sequence[int],
                       failed: Optional[int] = None) -> Tuple[int, ...]:
        """The query's unsat core: the assumptions whose implications falsify
        every literal of `confl`, found by walking reasons back along the
        trail above the root, plus the assumption `failed` if the query
        found it false (then `confl` is `(failed,)`).  `confl` is otherwise
        the clause that conflicts on the assumption level.  The temporaries'
        activation literal is left out."""
        out = set() if failed is None else {failed}
        trail_lim = self.trail_lim
        if trail_lim:
            seen = self._seen
            vlevel = self.vlevel
            reason = self.reason
            trail = self.trail
            to_clear = []
            for l in confl:
                v = l >> 1
                if vlevel[v] > 0 and not seen[v]:
                    seen[v] = True
                    to_clear.append(v)
            for i in range(len(trail) - 1, trail_lim[0] - 1, -1):
                q = trail[i]
                v = q >> 1
                if not seen[v]:
                    continue
                r = reason[v]
                if r is None:
                    out.add(q)  # above the root, only assumptions lack a reason
                else:
                    for l in (r,) if isinstance(r, int) else r.lits:
                        w = l >> 1
                        if vlevel[w] > 0 and not seen[w]:
                            seen[w] = True
                            to_clear.append(w)
            for v in to_clear:
                seen[v] = False
        if self._temp_act is not None:
            out.discard(2 * self._temp_act)
        return tuple(sorted(out))

    def _bump_clause(self, c: Clause) -> None:
        c.act += self._cla_inc
        if c.act > 1e20:
            for x in self.learnts + self._temp_clauses:
                x.act *= 1e-20
            self._cla_inc *= 1e-20

    def _reduce_db(self) -> None:
        """Drop the less active half of the long learnts, and every learnt
        satisfied at the root; clauses that are a current reason stay."""
        vals = self.vals
        vlevel = self.vlevel
        self.learnts.sort(key=lambda c: c.act)
        keep_from = len(self.learnts) // 2
        kept = []
        for idx, c in enumerate(self.learnts):
            locked = self.reason[c.lits[0] >> 1] is c
            root_sat = any(vlevel[l >> 1] == 0 and vals[l] == 1
                           for l in c.lits)
            if not locked and (root_sat or (idx < keep_from and len(c.lits) > 2)):
                self._detach(c)
            else:
                kept.append(c)
        self.learnts = kept

    # -- search -------------------------------------------------------------

    @staticmethod
    def _luby(i: int) -> int:
        """Term i (from 0) of the Luby sequence 1,1,2,1,1,2,4,1,1,2,..."""
        size, seq = 1, 0
        while size < i + 1:  # smallest complete subsequence 2^seq - 1 > i
            seq += 1
            size = 2 * size + 1
        while size - 1 != i:  # descend into the half that holds i
            size = (size - 1) >> 1
            seq -= 1
            i %= size
        return 1 << seq

    def solve(
        self,
        assumptions: Sequence[int] = (),
        domain: Optional[Iterable[int]] = None,
        cancel_check: Optional[Callable[[], bool]] = None,
    ) -> Optional[bool]:
        """Complete search; True = Sat, False = Unsat, None = cancelled.

        With a restricted domain, decisions and implications above the root
        stay inside it and the assumption vars.  The verdict matches
        full-domain solving provided the domain covers the COI of the
        assumptions and temporary clauses, which the caller guarantees.  A
        Sat model then assigns only domain, assumption and root vars;
        `model_value` is None for the rest.

        On Unsat, `unsat_core()` holds a subset of the assumptions that the
        clauses, the query's temporaries included, refute: with a restricted
        domain, which puts every assumption on one level, the ones reached
        backwards from the conflict among them; on either path, an
        assumption found false at its turn plus the earlier ones that
        falsified it.  The core is empty when the clauses are unsat without
        assumptions, and it never holds the temporaries' activation literal.
        """
        self.stats.solves += 1
        try:
            if not self.ok or self._temp_contra:
                self._core = ()
                return False

            assume = list(assumptions)
            if self._temp_act is not None:
                assume.insert(0, 2 * self._temp_act)

            n_open = self._activate_domain(domain, assume)
            return self._search(assume, cancel_check, n_open)
        finally:
            self._cancel_until(0)
            self._popped.clear()
            self._clear_temporaries()

    def _search(
        self,
        assume: List[int],
        cancel_check: Optional[Callable[[], bool]],
        n_open: int,
    ) -> Optional[bool]:
        """CDCL loop; with `n_open` >= 0 (a restricted domain) it answers Sat
        once the `n_open` vars open at the root are all assigned."""
        if cancel_check is not None and cancel_check():
            return None
        restarts = 0
        conflicts_until_restart = self._luby(restarts) * self.LUBY_UNIT
        conflict_count = 0
        max_learnts = max(4000, 2 * (len(self.clauses) + self.num_bins))
        temp_guard = None if self._temp_act is None else 2 * self._temp_act + 1
        n_assume = len(assume)
        one_level = n_open >= 0 and n_assume > 0
        vals = self.vals
        vlevel = self.vlevel
        polarity = self.polarity
        trail = self.trail
        trail_lim = self.trail_lim
        root_len = len(trail)

        while True:
            confl = self._propagate()
            if confl is not None:
                self.stats.conflicts += 1
                conflict_count += 1
                if not trail_lim or (one_level and len(trail_lim) == 1):
                    # at the root the clause set is unsat (temporaries cannot
                    # conflict there: their guard is assumed above it); on a
                    # restricted query's one assumption level, the
                    # assumptions conflict
                    if not trail_lim:
                        self.ok = False
                    self._core = self._analyze_final(confl.lits)
                    return False
                self._conflicts += 1
                if self._conflicts % self.DECAY_INTERVAL == 0:
                    self.vsids.decay()
                    if cancel_check is not None and cancel_check():
                        return None
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)  # level 0: survives the query
                else:
                    c = Clause(learnt, learnt=True)
                    if temp_guard is not None and temp_guard in learnt:
                        self._temp_clauses.append(c)  # leaves with the query
                    else:
                        self.learnts.append(c)
                    self._attach(c)
                    self._bump_clause(c)
                    self._enqueue(learnt[0], c)
                self._cla_inc *= 1.0 / 0.999
                continue

            if not trail_lim and len(trail) != root_len:
                # a learnt unit fixed vars at the root: they are open no more
                if n_open >= 0:
                    n_open -= sum(1 for p in trail[root_len:] if self.in_domain(p >> 1))
                root_len = len(trail)

            if conflict_count >= conflicts_until_restart:
                if cancel_check is not None and cancel_check():
                    return None
                restarts += 1
                conflict_count = 0
                conflicts_until_restart = self._luby(restarts) * self.LUBY_UNIT
                self._cancel_until(0)
                continue

            if len(self.learnts) > max_learnts:
                self._reduce_db()
                max_learnts = int(max_learnts * 1.3)

            # a restricted query enqueues every open assumption on level 1
            # and propagates once; any other query gives each assumption a
            # level, where true ones take dummy levels with no propagation
            # pass each and the first open one is enqueued and propagated
            dl = len(trail_lim)
            if one_level:
                if not dl:
                    trail_lim.append(len(trail))
                    for p in assume:
                        a = vals[p]
                        if a == UNDEF:  # _enqueue(p, None), inlined
                            vals[p] = 1
                            vals[p ^ 1] = 0
                            vlevel[p >> 1] = 1
                            trail.append(p)
                        elif a == 0:
                            self._core = self._analyze_final((p,), p)
                            return False
                    continue
            else:
                while dl < n_assume:
                    p = assume[dl]
                    a = vals[p]
                    if a == UNDEF:
                        break
                    if a == 0:
                        self._core = self._analyze_final((p,), p)
                        return False
                    trail_lim.append(len(trail))
                    dl += 1
                if dl < n_assume:
                    trail_lim.append(len(trail))
                    # _enqueue(p, None), inlined: an open var's reason is None
                    vals[p] = 1
                    vals[p ^ 1] = 0
                    vlevel[p >> 1] = dl + 1
                    trail.append(p)
                    continue

            # a restricted query is Sat once its open vars are all assigned
            v = (None if len(trail) - root_len == n_open
                 else self.vsids.pop_max(self._decision_eligible, self._popped))
            if v is None:
                self._model = vals[0::2]
                return True
            self.stats.decisions += 1
            trail_lim.append(len(trail))
            p = 2 * v + (0 if polarity[v] else 1)  # _enqueue(p, None), inlined
            vals[p] = 1
            vals[p ^ 1] = 0
            vlevel[v] = len(trail_lim)
            trail.append(p)

    def _decision_eligible(self, v: int) -> bool:
        return self.vals[2 * v] == UNDEF and (
            self._domain_full or self._domain_stamp[v] == self._domain_gen)

    # -- results ------------------------------------------------------------

    def model_value(self, var: int, default: Optional[bool] = None) -> Optional[bool]:
        a = self._model[var] if var < len(self._model) else UNDEF
        if a == UNDEF:
            return default
        return a == 1

    def model(self) -> bytes:
        """The last Sat answer's value per var: 1 true, 0 false, UNDEF open."""
        return bytes(self._model)

    def unsat_core(self) -> Tuple[int, ...]:
        return self._core
