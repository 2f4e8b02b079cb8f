"""CNF transition-system representation built from an and-inverter graph.

Variable layout: CNF var i corresponds to AIG node i (var 0 is the reserved
constant, asserted true by a unit clause).  A latch's next state is the
AIG's own next-state literal, with no var of its own, so a query over the
next states assumes those literals.  `num_vars` follows the largest node
the AIG defines, not the header's M, so an oversized header does not size
the solvers.  Every var the system defines is an AND gate of the AIG, and
bad is the AIG's own bad literal.

Constraints follow AIGER 1.9 (Biere, Heljanko and Wieringa, "AIGER 1.9 and
Beyond", 2011): a counterexample of length d is a path from an initial state
on which every constraint holds at steps 0..d and bad holds at step d;
nothing is required after step d.  Constraints meet bad in two places
only: `Unroller`, the one place that builds timed frames, conjoins them in
`held` and `reach`, and IC3 loads them as root units of its one solver.
`Unroller` builds each frame from `defs`, gate by
gate, folding constants: a frame maps a latch to the previous frame's
next-state literal, an initial frame maps a reset latch to a constant, and
only a gate left open gets a var and clauses.  The gates come in two parts,
the cone of the latches' next states and then the logic that only bad and
the constraints read; an unroller built with init leaves the second part
out of a frame that no query will read.

`coi_vars` is the one cone-of-influence walk.  `encode(..., cone=True)` walks
it from bad and the active constraints through gate fanins and latch
next-state functions, keeping only the logic that can reach them.  Variable
numbers stay those of the full encoding, so lemmas and certificates need no
back-map; only the lists of gates, latches, inputs and clauses shrink.  The
certificate check walks from the vars its clauses name as well, for at most
k latch steps: every clause of that bounded cone is a clause of the full
encoding, and one left out defines a var that nothing kept reads within k
steps.
`widen_witness` turns a trace over the cone back into one over the source
AIG's latches and inputs; `simulate` runs random traces over `defs`, many
at once, widens the first that reaches bad, and returns its lanes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import (Collection, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .aiger import Aig, WitnessTrace
from .logic import FALSE_LIT, TRUE_LIT, Clause, Lit, mklit
from .satcore import Solver


@dataclass
class Simulation:
    """The lanes of `TranSys.simulate`, lane j in bit j of each int: by
    step d, `states[d]` holds the latches' values (in `latch_vars` order),
    `inputs[d]` the inputs' and `alive[d]` the lanes whose constraints held
    at steps 0..d.  `states` holds one step more than `alive`, the state
    the last step leads to, unless every lane dropped out.  `witness` is
    the trace of the first lane that reached bad, where the run stopped."""

    lanes: int
    states: List[List[int]] = field(default_factory=list)
    inputs: List[List[int]] = field(default_factory=list)
    alive: List[int] = field(default_factory=list)
    witness: Optional[WitnessTrace] = None


def ref_to_lit(ref: int) -> Lit:
    """AIGER node ref to CNF literal; constant refs flip onto var 0."""
    return ref ^ 1 if ref < 2 else ref


@dataclass
class TranSys:
    """A transition system in CNF.  Every entry of `clauses` is a sorted
    tuple that names each var at most once: `encode` collapses repeated
    literals and leaves tautologies out.  `TranSys.load` reads `clauses`;
    `FrameTemplate` reads `defs` instead.  `latch_vars` lists every state
    var, and `next_map` maps each to its next-state literal, which two
    latches may share.  `defs` maps each gate the system defines to its two
    fanins, in an evaluation order.  Latches, inputs and var 0 have no
    entry, and neither has a gate that a bounded cone leaves out.  `bad`
    and `constraints` are the AIG's own literals: bad does not fold the
    constraints in."""

    num_vars: int
    latch_vars: List[int]
    input_vars: List[int]
    next_map: Dict[int, int]
    init_lits: Tuple[Lit, ...]  # cube over latches; uninitialized bits absent
    bad: Lit  # the AIG's bad literal
    constraints: List[Lit]
    clauses: List[Clause]
    defs: Dict[int, Tuple[Lit, ...]]
    init_value: Dict[int, Optional[int]]  # reset value by latch, None if open
    source: Aig
    bad_index: int = 0

    @cached_property
    def frame_template(self) -> FrameTemplate:
        """This system compiled for `Unroller`, once; a system derived with
        `dataclasses.replace` compiles its own."""
        return FrameTemplate(self)

    def load(self, solver: Solver, units: Iterable[Lit] = ()) -> None:
        """Load this system into the fresh `solver`: allocate `num_vars`,
        then one root load of `clauses` and one unit per literal of `units`."""
        solver.new_vars(self.num_vars)
        lits: List[Lit] = []
        ends: List[int] = []
        for c in self.clauses:
            lits += c
            ends.append(len(lits))
        for l in units:
            lits.append(l)
            ends.append(len(lits))
        solver.add_root_clauses(lits, ends)

    def prime(self, lit: Lit) -> Lit:
        """The next-state literal of `lit`, a literal over a latch."""
        return self.next_map[lit >> 1] ^ (lit & 1)

    def widen_witness(self, init_bits: Sequence[Optional[int]],
                      input_frames: Sequence[Sequence[int]]) -> WitnessTrace:
        """Witness over the source AIG from bits over `latch_vars` and over
        the inputs.  An input outside the system is 0; a latch outside it,
        or one left open (None), takes its reset value, or 0 if it has none."""
        own = dict(zip(self.latch_vars, init_bits))
        init: List[Optional[int]] = []
        for lt in self.source.latches:
            bit = own.get(lt.var)
            if bit is None:
                bit = lt.init
            init.append(0 if bit is None else bit)
        pos = {v: j for j, v in enumerate(self.input_vars)}
        cols = [pos.get(v) for v in self.source.inputs]
        frames: List[List[Optional[int]]] = [
            [0 if j is None else f[j] for j in cols] for f in input_frames]
        return WitnessTrace(self.bad_index, init, frames)

    def simulate(self, lanes: int, steps: int, work: int) -> Simulation:
        """`lanes` random traces run side by side, lane j in bit j of one int
        per var (the bit-parallel simulation of Mishchenko, Chatterjee, Jiang
        and Brayton, "FRAIGs: A Unifying Representation for Logic Synthesis
        and Verification", 2005), with the witness of the first lane that
        reaches bad, if one does.  A reset latch starts at its reset value,
        an open one and every input at each step at random bits of a fixed
        seed, so two runs give the same witness.  A lane drops out at the
        first step where a constraint fails, so bad at step d counts only if
        the constraints held at steps 0..d.  The run takes at most `steps`
        steps and `work` node evaluations, a gate, latch or input each: a
        system of more than `work` nodes is not simulated at all."""
        nodes = len(self.defs) + len(self.latch_vars) + len(self.input_vars)
        steps = min(steps, work // max(nodes, 1))
        sim = Simulation(lanes)
        if not steps:
            return sim
        full = (1 << lanes) - 1
        flip = (0, full)  # by literal sign: the XOR that reads a literal
        gates = [(g, a >> 1, flip[a & 1], b >> 1, flip[b & 1])
                 for g, (a, b) in self.defs.items()]
        rng = random.Random(0)
        state = [rng.getrandbits(lanes) if iv is None else full * iv
                 for iv in map(self.init_value.get, self.latch_vars)]
        nexts = [self.next_map[v] for v in self.latch_vars]
        val = [0] * self.num_vars
        val[0] = full  # var 0 is the constant true
        alive = full  # the lanes whose constraints held so far
        for _ in range(steps):
            sim.states.append(state)
            for v, x in zip(self.latch_vars, state):
                val[v] = x
            sim.inputs.append([rng.getrandbits(lanes) for _ in self.input_vars])
            for v, x in zip(self.input_vars, sim.inputs[-1]):
                val[v] = x
            for g, a, fa, b, fb in gates:
                val[g] = (val[a] ^ fa) & (val[b] ^ fb)
            for c in self.constraints:
                alive &= val[c >> 1] ^ flip[c & 1]
            sim.alive.append(alive)
            hit = alive & (val[self.bad >> 1] ^ flip[self.bad & 1])
            if hit:
                j = (hit & -hit).bit_length() - 1  # the lowest lane that hit
                sim.witness = self.widen_witness(
                    [x >> j & 1 for x in sim.states[0]],
                    [[x >> j & 1 for x in f] for f in sim.inputs])
                return sim
            if not alive:
                return sim
            state = [val[l >> 1] ^ flip[l & 1] for l in nexts]
        sim.states.append(state)
        return sim

    def cube_intersects_init(self, cube: Sequence[Lit]) -> bool:
        """Whether no literal of `cube`, a cube over latches, is false in the
        initial states, that is, whether some initial state lies in it."""
        for l in cube:
            val = self.init_value.get(l >> 1)
            if val is not None and val == (l & 1):
                return False  # literal false at init
        return True


def coi_vars(roots: Iterable[int], defs: Mapping[int, Iterable[Lit]],
             adj: Mapping[int, Iterable[int]]) -> Set[int]:
    """Cone of influence: the vars reachable from the vars `roots` over the
    definitions `defs` (var -> the literals it reads) and the var edges
    `adj` (extra edges, such as IC3's lemma co-occurrence)."""
    stack = list(roots)
    seen: Set[int] = set()
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        for l in defs.get(v, ()):
            if l >> 1 not in seen:
                stack.append(l >> 1)
        for w in adj.get(v, ()):
            if w not in seen:
                stack.append(w)
    return seen


def _and_clauses(out: List[Clause], g: Lit, a: Lit, b: Lit) -> None:
    """Append the Tseitin clauses of g = a AND b to `out`, each sorted; a
    repeated fanin is collapsed, and a complementary pair (g is constant
    false) leaves out the tautology it would make."""
    ng = g ^ 1
    out.append((ng, a) if ng < a else (a, ng))
    if b == a:
        out.append((g, a ^ 1) if g < a ^ 1 else (a ^ 1, g))
        return
    out.append((ng, b) if ng < b else (b, ng))
    if b != a ^ 1:
        out.append(tuple(sorted((g, a ^ 1, b ^ 1))))


def encode(
    aig: Aig,
    bad_index: int = 0,
    active_constraints: Optional[Sequence[int]] = None,
    cone: bool = False,
    roots: Collection[int] = (),
    steps: Optional[int] = None,
) -> TranSys:
    """Tseitin-encode the transition relation for one bad property.

    `active_constraints` selects a subset of constraint indices (all by
    default); the localization-abstraction loop re-encodes with fewer.
    With `cone`, only the logic that can reach bad, an active constraint or
    a var of `roots` is encoded (`coi_vars` through gate fanins and latch
    next-state functions).  `steps` bounds the walk to that many latch
    steps: a latch first reached at the last step keeps its next-state
    literal, but the logic behind it is left out, so a frame reads that
    literal's var as a free one.  Each clause of such a system is a clause
    of the full encoding.  Variable numbers are those of the full encoding
    either way.
    """
    if not aig.bads:
        raise ValueError("model has no bad properties")
    if not 0 <= bad_index < len(aig.bads):
        raise ValueError("bad index %d out of range" % bad_index)
    if active_constraints is None:
        active_constraints = range(len(aig.constraints))
    cst_refs = [aig.constraints[i] for i in active_constraints]
    bad_ref = aig.bads[bad_index]

    ands = aig._ands_by_var
    latches, inputs = aig.latches, aig.inputs
    if cone:
        fanin = {g.var: (g.rhs0, g.rhs1) for g in ands}  # refs as literals
        nxt = {lt.var: lt.next >> 1 for lt in latches}
        if steps is None:
            fanin.update((lt.var, (lt.next,)) for lt in latches)
        keep = coi_vars([*(r >> 1 for r in [bad_ref] + cst_refs), *roots],
                        fanin, {})
        walked: Set[int] = set()  # latches whose next-state function is kept
        for _ in range(steps or 0):  # one latch step each
            new = [v for v in keep if v in nxt and v not in walked]
            if not new:
                break
            walked.update(new)
            keep |= coi_vars([nxt[v] for v in new], fanin, {})
        ands = [g for g in ands if g.var in keep]
        latches = [lt for lt in latches if lt.var in keep]
        inputs = [v for v in inputs if v in keep]

    clauses: List[Clause] = [(TRUE_LIT,)]
    defs: Dict[int, Tuple[Lit, ...]] = {}
    for g in ands:
        a, b = defs[g.var] = ref_to_lit(g.rhs0), ref_to_lit(g.rhs1)
        _and_clauses(clauses, mklit(g.var), a, b)

    return TranSys(
        # after the largest defined node, not the header's M
        num_vars=1 + max([0, *aig.inputs, *(lt.var for lt in aig.latches),
                          *(g.var for g in aig.ands)]),
        latch_vars=[lt.var for lt in latches],
        input_vars=list(inputs),
        next_map={lt.var: ref_to_lit(lt.next) for lt in latches},
        init_lits=tuple(sorted(mklit(lt.var, lt.init == 0) for lt in latches
                               if lt.init is not None)),
        bad=ref_to_lit(bad_ref),
        constraints=[ref_to_lit(r) for r in cst_refs],
        clauses=clauses,
        defs=defs,
        init_value={lt.var: lt.init for lt in latches},
        source=aig,
        bad_index=bad_index,
    )


# ---------------------------------------------------------------------------
# CNF simplification


def simplify_cnf(ts: TranSys) -> TranSys:
    """Unit propagation to fixpoint, satisfied-clause removal and clause
    deduplication; the input system is left unchanged.  Units are kept as
    unit clauses, so every variable keeps its meaning: they come first, in
    var order, then the other clauses in their order, rid of false
    literals.  A clause made empty raises `AssertionError`, since a
    transition relation is never unsatisfiable outright.

    Linear: one scan finds the units and the clauses that name var 0, a
    queue runs propagation over occurrence lists (Eén and Sörensson, "An
    Extensible SAT-solver", SAT 2003), and one pass emits.  A lone unit on
    var 0 that no other clause names propagates nothing, and then no list
    is built."""
    clauses = ts.clauses
    # var 0's literals sort first, so a clause names it only in front
    special = [i for i, c in enumerate(clauses) if len(c) < 2 or c[0] < 2]
    units = [clauses[i] for i in special]
    if len(units) < 2 and all(len(u) == 1 and u[0] < 2 for u in units):
        rest = dict.fromkeys(clauses)
        for u in units:
            del rest[u]
        return replace(ts, clauses=units + list(rest))

    val = bytearray(2 * ts.num_vars)  # by literal: 0 open, 1 true, 2 false
    occ: List[List[int]] = [[] for _ in val]  # clause indices by literal
    for i, c in enumerate(clauses):
        for l in c:
            occ[l].append(i)
    left = [len(c) for c in clauses]  # literals not yet false
    trail: List[Lit] = []  # true literals, in assignment order

    def unit(i: int) -> None:
        """Clause i has at most one literal not yet false: make it true."""
        x = next((x for x in clauses[i] if val[x] != 2), None)
        if x is None:
            raise AssertionError("contradiction during CNF simplification")
        if not val[x]:
            val[x], val[x ^ 1] = 1, 2
            trail.append(x)

    for i in special:
        if left[i] < 2:
            unit(i)
    for l in trail:  # grows while it is read
        for i in occ[l ^ 1]:
            left[i] -= 1
            if left[i] < 2:
                unit(i)

    out: List[Optional[Clause]] = list(clauses)
    for l in trail:
        for i in occ[l]:
            out[i] = None  # satisfied
    for l in trail:
        for i in occ[l ^ 1]:
            if out[i] is clauses[i]:
                out[i] = tuple([x for x in clauses[i] if val[x] != 2])
    final: List[Clause] = [(l,) for l in sorted(trail)]
    final += dict.fromkeys(c for c in out if c is not None)
    return replace(ts, clauses=final)


# ---------------------------------------------------------------------------
# Unrolling


class FrameTemplate:
    """A system's frame logic compiled once for `Unroller`, over frame slots.

    Slot 0 is the constant var 0.  Then come the latches, the free vars (the
    inputs, and the var of any next-state literal that a bounded cone leaves
    undefined), and last the vars of `TranSys.defs` in two parts, each in
    `defs` order, which is an evaluation order.  The next-state part is the
    cone of the next-state literals: the gates a latch's next state reads.
    The property part is every other gate, the logic that only bad and the
    constraints read.  The next-state part reads no property slot, so the
    slot order stays an evaluation order, and the property part is a suffix
    of it that a frame can leave out whole.

    The compile keeps what a frame needs: `latch_src`, each latch's
    next-state literal; `reset`, each latch's literal in an initial state
    (the constant of its reset value, or None for an open latch); the count
    of free vars; `bad` and `constraints`; and the gate program, every
    literal packed as `(slot << 1) | sign`.  Two latches may share a
    next-state literal, and it may be a constant, a latch or an input.
    `gates` (the next-state part) and `prop` (the property part) hold each
    gate's two fanins, smaller first.  A gate that reads a later slot
    raises `IndexError` in the first frame, so the order needs no check of
    its own.
    """

    def __init__(self, ts: TranSys):
        defs, latches = ts.defs, ts.latch_vars
        nexts = [ts.next_map[lv] for lv in latches]
        next_vars = [l >> 1 for l in nexts]
        known = {0, *latches, *defs}
        free = [v for v in dict.fromkeys(chain(ts.input_vars, next_vars))
                if v not in known]
        cone = coi_vars(next_vars, defs, {})
        narrow = [v for v in defs if v in cone]
        prop = [v for v in defs if v not in cone]
        order = [0, *latches, *free, *narrow, *prop]
        self.slot_of: Dict[int, int] = {v: j for j, v in enumerate(order)}
        slot_of = self.slot_of

        def pack(l: Lit) -> int:
            return (slot_of[l >> 1] << 1) | (l & 1)

        self.latch_src = [pack(l) for l in nexts]
        reset = {l >> 1: TRUE_LIT ^ (l & 1) for l in ts.init_lits}
        self.reset = [reset.get(lv) for lv in latches]
        self.free = len(free)

        pairs = [(pack(a), pack(b)) for a, b in map(defs.get, narrow + prop)]
        gates = [(a, b) if a <= b else (b, a) for a, b in pairs]
        self.gates, self.prop = gates[:len(narrow)], gates[len(narrow):]
        self.bad = pack(ts.bad)
        self.constraints = [pack(c) for c in ts.constraints]


def _and(lits: Iterable[Lit], g: Lit, out: List[List[Lit]]) -> Lit:
    """The AND of the solver literals `lits`, folded as `Unroller.add_frame`
    folds a gate; if two or more stay open, the fresh literal `g`, with the
    clauses that define it appended to `out`."""
    kept: List[Lit] = []
    for l in lits:
        if l == FALSE_LIT or l ^ 1 in kept:
            return FALSE_LIT
        if l != TRUE_LIT and l not in kept:
            kept.append(l)
    if len(kept) < 2:
        return kept[0] if kept else TRUE_LIT
    out += [[l, g ^ 1] for l in kept]
    out.append([l ^ 1 for l in kept] + [g])
    return g


class Unroller:
    """Timed copies of the transition relation, written into `solver`.

    Frame d+1 maps each latch to its next-state literal in frame d, sign
    included (Biere, Cimatti, Clarke and Zhu, "Symbolic Model Checking
    without BDDs", 1999).  Solver var 0 stays
    the shared constant, true by a unit in the first frame's load.  With
    `init`, frame 0 maps each reset latch to the constant of its reset
    value; every other latch of frame 0 and every free var of each frame
    gets a fresh var.

    A frame then runs the system's `FrameTemplate` program gate by gate and
    folds constants as it goes (Kuehlmann, Paruthi, Krohm and Ganai,
    "Robust Boolean Reasoning for Equivalence Checking and Functional
    Property Verification", TCAD 2002): an AND with a false fanin, or with
    complementary fanins, is false; one with a true fanin, or with the same
    literal twice, is its other fanin.  Only a gate left open gets a fresh
    var and its three clauses, `(x, -g)`, `(y, -g)`, `(-x, -y, g)` with the
    fanins in slot order, so no clause names a var twice.  A frame
    allocates the vars of its latches, free vars and gates with one
    `Solver.new_vars` call, in slot order, and loads its clauses with one
    `Solver.add_root_clauses` call.  Logic the reset state fixes thus costs
    no var, no clause and no query.

    Constraints are those of AIGER 1.9: bad at depth d needs them at frames
    0..d and at no frame after d.  `held(d)` is the AND of C_0..C_d, and
    `reach(d)`, the literal to query for a counterexample of length d, the
    AND of bad at frame d and `held(d)`.  Both fold as gates do: without
    constraints `held` is true and `reach` is the bad literal, with no var,
    and a `reach` that folds to false needs no query.  Under `held(d)`,
    `reach(d)` is bad at frame d.

    With `init`, a frame whose `reach(d)` folds to false and whose
    `held(d)` folds to a constant leaves out the template's property part:
    no query and no later frame reads it.  It is folded, then cut off
    before anything of it is allocated, and `lit_at` on one of its vars
    raises `ValueError`.  BMC and the k-induction base case read only
    `reach`, frame 0's latches and the inputs; the init-free unrollers of
    the k-induction step and the certificate check keep every frame whole.
    """

    def __init__(self, ts: TranSys, solver: Solver, init: bool = True):
        self.ts = ts
        self.solver = solver
        self.init = init
        self.template = ts.frame_template
        self._frames: List[List[Lit]] = []  # per frame: solver literal by slot
        self._held: List[Lit] = []
        self._reach: List[Lit] = []
        if solver.num_vars == 0:
            solver.new_var()  # var 0, the constant

    @property
    def depth(self) -> int:
        return len(self._frames) - 1

    def add_frame(self) -> None:
        """Append one frame and write its clauses into the solver."""
        s, t = self.solver, self.template
        nv = s.num_vars  # the next fresh var
        lits: List[Lit] = []
        ends: List[int] = []
        if self._frames:
            prev = self._frames[-1]
            fm = [0] + [prev[j >> 1] ^ (j & 1) for j in t.latch_src]
        else:
            lits.append(TRUE_LIT)  # the constant's unit
            ends.append(1)
            fm = [0]
            for r in t.reset if self.init else [None] * len(t.latch_src):
                if r is None:
                    r = 2 * nv
                    nv += 1
                fm.append(r)
        fm += range(2 * nv, 2 * (nv + t.free), 2)
        lm = [0] * (2 * len(fm))  # frame literal by packed template literal
        lm[0::2] = fm
        lm[1::2] = [x ^ 1 for x in fm]
        g = 2 * (nv + t.free)  # the next open gate's literal
        for part in t.gates, t.prop:
            # where the property part starts, to cut it off
            cut = len(lits), len(ends), len(lm), g
            for a, b in part:  # literals 0 and 1 are the constants
                x, y = lm[a], lm[b]
                if x > 1 and y > 1 and x ^ y > 1:
                    ng = g + 1
                    lits += (x, ng, y, ng, lm[a ^ 1], lm[b ^ 1], g)
                    k = len(lits)
                    ends += (k - 5, k - 3, k)
                    lm += (g, ng)
                    g += 2
                elif x == y or y == TRUE_LIT:
                    lm += (x, x ^ 1)
                elif x == TRUE_LIT:
                    lm += (y, y ^ 1)
                else:  # a false fanin, or x AND NOT x
                    lm += (FALSE_LIT, TRUE_LIT)
        tail: List[List[Lit]] = []  # clauses of held and reach

        def conj(ls: List[Lit]) -> Lit:
            nonlocal g
            x = _and(ls, g, tail)
            if x == g:
                g += 2
            return x

        prior = self._held[-1:]  # held(d-1), if there is a frame before
        held = conj([lm[c] for c in t.constraints] + prior)
        reach = conj([lm[t.bad], held])
        if self.init and reach == FALSE_LIT and held < 2:
            # no query reads this frame's property logic, and no later
            # frame does either: leave it out before anything is allocated
            del lits[cut[0]:], ends[cut[1]:], lm[cut[2]:], tail[:]
            g = cut[3]
        s.new_vars(g // 2 - s.num_vars)
        for cl in tail:
            lits += cl
            ends.append(len(lits))
        self._frames.append(lm[0::2])
        self._held.append(held)
        self._reach.append(reach)
        s.add_root_clauses(lits, ends)

    def grow(self, depth: int) -> None:
        while self.depth < depth:
            self.add_frame()

    def lit_at(self, lit: Lit, frame: int) -> Lit:
        """The solver literal of `lit` in `frame`; `ValueError` if the frame
        left out the property logic that defines it."""
        row = self._frames[frame]
        j = self.template.slot_of[lit >> 1]
        if j >= len(row):
            raise ValueError("var %d has no literal in frame %d: the frame "
                             "left out its property logic" % (lit >> 1, frame))
        return row[j] ^ (lit & 1)

    def held(self, frame: int) -> Lit:
        return self._held[frame]

    def reach(self, frame: int) -> Lit:
        return self._reach[frame]
