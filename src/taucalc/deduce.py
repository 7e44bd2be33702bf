"""Monotone interval propagation over a fact graph of knots.

Each knot's record holds one integer interval per quantity: the
concordance invariant tau, the slice genus g4, the Seifert genus g3 and
the Thurston-Bennequin number tb of a Legendrian representative.
Relations (mirror, connected sum, crossing change, cobordism, unknotting,
Whitehead double) and stored presentations generate monotone narrowing
rules; propagation runs the rules to their least fixpoint and records
every narrowing in a replayable certificate.

Rule catalog.  A rule instance is a relation, the R2 instance of a knot, or
the R7 seed of a stored presentation.  `_named` builds the instances a step
names by its `cite`, the seeds and relations; `propagate` adds each knot's
R2 instance (`_instances`), and `replay` looks each cite up in one table of
`_named`'s instances.  A rule only reads: `implications(state)` yields
every conclusion whatever the state (the top interval if it cannot narrow)
with the (knot, quantity, value) triples it was computed from, because
those `reads` re-queue the instance when a key narrows, and a step records
them as they are.  It computes each conclusion from the state as it is when
it yields it, so `propagate` can narrow between two conclusions.  The state
is one column per quantity (quantity -> knot id -> Interval), the base's
`bounds` copied once per run; `_narrow`, the one function that meets a
bound into a knot, writes one entry of a column in place, for input facts
too.  Every conclusion is an Interval, so a conflict is always an empty
meet there.  A certificate is the tuple of its steps: each names its
instance by the instance's `cite` (None for R2, found by its target) and
records the reads its rule yielded.  R3 and R5 are one difference bound
(`_difference`); a `Presentation` computes its R7 seeds once.
  R1          Mirror          tau(-K) = -tau(K), g4(-K) = g4(K)
  R2          each knot       -g4 <= tau <= g4, max(0, |tau|) <= g4, and
                              g4 <= g3's upper end; g3's lower end stays
  R3          CrossingChange  0 <= tau(K+) - tau(K-) <= 1
  R4          Sum             tau(a # b) = tau(a) + tau(b), so tau(b) = 0
                              when a # b = a
  R5          Cobordism       |tau(a) - tau(b)| <= g  when g4(a # -b) <= g
  R6          Unknotting      -m <= tau <= p, g4 <= p + m  for p pos-to-neg
                              and m neg-to-pos changes reaching the unknot
  R7-braid    braid word      tau >= slice-Bennequin bound, g3 <= Bennequin
                              genus; a positive word gives tau = g4 = genus
  R7-torus    torus "p q"     tau = g4 = (p-1)(q-1)/2, g3 <= the same
  R7-pretzel  pretzel twists  tau = (k-1)/2 under the odd-pretzel criterion
  R7-grid     grid diagram    tb >= tb(D)
  R7-double   Double          tau = g4 = 1 when the companion has tb >= 0

All rules are meets on a product lattice, so the fixpoint is independent
of application order.  Every rule instance is idempotent, so a narrowing
re-queues the instances that read its key, but not the one that made it.
`propagate` orders its work in two priority classes: the seeds and
relations, then R2, which is most of the instances and narrows least, so
it runs after what its knot's other rules narrowed.

`braid`, `grid` and `families` are lazy (`_lazy`): each runs only when a
presentation, a `Double` or a `tau` subcommand first uses it.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from collections import deque, namedtuple
from dataclasses import dataclass, field, replace

from .errors import (BrokenStepError, EmptyIntervalError, InconsistentError,
                     TaucalcError)
from .interval import NEG_INF, POS_INF, Interval, _unchecked


def _lazy(name: str):
    """`taucalc.<name>`, in sys.modules and on the package, run on its first
    attribute access; a module already in sys.modules is returned as is."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# `cli` takes these from here: `import taucalc.braid` would run braid.
braid_mod, grid_mod, families = map(_lazy, ("braid", "grid", "families"))

DEFAULT_STEP_BUDGET = 10**6
# fact kind -> (quantity, the bound on that quantity the fact's value gives)
FACT_KINDS = {
    "g3": ("g3", Interval.exact),
    "g4_upper": ("g4", Interval.at_most),
    "tb_lower": ("tb", Interval.at_least),
    "tau_lower": ("tau", Interval.at_least),
    "tau_upper": ("tau", Interval.at_most),
}
_CROSSING = Interval(0, 1)  # R3's tau(K+) - tau(K-)


# ---------------------------------------------------------------------------
# presentations


class Presentation(namedtuple("Presentation", "kind value parsed seeds")):
    """Tagged presentation string in one of the `PRESENTATION_KINDS`
    grammars: braid / grid / torus / pretzel.  It is built from `kind` and
    `value` alone: construction parses the value into `parsed` and keeps
    the R7 seed bounds it proves in `seeds`; computing them checks that the
    value presents a knot.  Both follow from `kind` and `value`, so two
    presentations are equal, and hash alike, when those two fields are.
    `_replace` and `_make` are the named tuple's own and do not re-derive
    `parsed` and `seeds`: build a new presentation with
    `Presentation(kind, value)`."""

    __slots__ = ()

    def __new__(cls, kind, value):
        if kind not in PRESENTATION_KINDS:
            raise TaucalcError(f"unknown presentation kind {kind!r} "
                               f"for value {value!r}")
        if type(value) is not str:
            raise TaucalcError(f"{kind} presentation value must be a "
                               f"string, got {value!r}")
        parsed, seeds = PRESENTATION_KINDS[kind][1](value)
        return super().__new__(cls, kind, value, parsed, tuple(seeds))

    def __getnewargs__(self):  # copy and pickle rebuild it from two fields
        return self[:2]

    def __str__(self):
        return f"{self.kind}: {self.value}"


def _ints(kind: str, value: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in value.split())
    except ValueError:
        raise TaucalcError(f"{kind} presentation {value!r}: parameters "
                           f"must be integers") from None


def _exact_seeds(v: int) -> list:
    """Bounds of a knot with tau = g4 = v whose Seifert genus is at most v."""
    return [("tau", Interval.exact(v)), ("g4", Interval.exact(v)),
            ("g3", Interval.at_most(v))]


def _braid(value: str):
    b = braid_mod.parse_braid(value)
    c = braid_mod.closure_components(b)  # traced once for all three bounds
    seeds = [("tau", Interval.at_least(braid_mod.slice_bennequin_lower(b, c))),
             ("g3", Interval.at_most(braid_mod.bennequin_genus(b, c)))]
    if b.is_positive:
        seeds += _exact_seeds(braid_mod.tau_positive_braid(b, c))
    return b, seeds


def _grid(value: str):
    g = grid_mod.parse_grid(value)
    return g, [("tb", Interval.at_least(grid_mod.tb(g)))]


def _torus(value: str):
    pq = _ints("torus", value)
    if len(pq) != 2:
        raise TaucalcError(
            f"torus presentation {value!r}: expected two parameters 'p q'")
    t = families.TorusParams(*pq)
    return t, _exact_seeds(families.tau_torus(t))


def _pretzel(value: str):
    p = families.PretzelParams(_ints("pretzel", value))
    v = families.pretzel_tau(p)
    return p, [] if v is None else [("tau", Interval.exact(v))]


# kind -> (rule name, value -> (parsed value, seed bounds as (quantity,
# constraint) pairs)); computing the seeds checks that it presents a knot.
PRESENTATION_KINDS = {"braid": ("R7-braid", _braid), "grid": ("R7-grid", _grid),
                      "torus": ("R7-torus", _torus),
                      "pretzel": ("R7-pretzel", _pretzel)}


# ---------------------------------------------------------------------------
# rule instances


class _Relation:
    """Base of the relation types.  Every rule instance (a relation, a
    knot's _GenusChain or a presentation's _Seed) has a `rule` name for
    certificate steps, the `cite` that names it in its steps (None for R2),
    the `priority` class of its queue in `propagate` (seeds and relations 0,
    R2 1), and `implications(state)` yielding the narrowings the bounds in
    `state` (quantity -> knot id -> Interval) imply as (target, quantity,
    constraint, reads): `reads` are the (knot, quantity, value) triples
    the constraint was computed from, each value the Interval it read
    from `state`.  It yields every conclusion whatever the state, the top
    interval if it cannot narrow, since only its `reads` re-queue it, and
    computes each one from `state` as it is when it yields it: a key that
    an earlier conclusion of the same evaluation may have narrowed is read
    again.  Every instance is idempotent, on any
    knots: a second evaluation right after the first narrows nothing, so
    `propagate` does not re-queue it on its own narrowings.  A relation
    also lists the `knots` it reads or narrows, which `FactBase.extend`
    checks: its leading fields, which the `counts` and then `kind` follow.
    A relation is a named tuple whose last field is its fact-file `kind`,
    fixed by default so that relations of different types never compare
    equal."""

    __slots__ = ()
    priority = 0
    counts: dict[str, int] = {}  # integer fields -> their least valid value

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind != cls._field_defaults["kind"]:
            raise TypeError(f"{cls.__name__} has kind "
                            f"{cls._field_defaults['kind']!r}, not "
                            f"{self.kind!r}")
        for f, least in self.counts.items():
            v = getattr(self, f)
            if type(v) is not int or v < least:
                raise TaucalcError(
                    f"{self.kind} relation on {self.knots}: {f} must be an "
                    f"integer >= {least}, got {v!r}")
        return self

    @property
    def knots(self) -> tuple[str, ...]:
        return self[:len(self) - 1 - len(self.counts)]

    @property
    def cite(self) -> tuple:
        return ("relation", self)


class Mirror(_Relation, namedtuple("Mirror", "a b kind", defaults=["mirror"])):
    __slots__ = ()
    rule = "R1"

    def implications(self, state: dict):
        for x, y in ((self.a, self.b), (self.b, self.a)):
            # The second pair reads what the first narrowed.
            tau, g4 = state["tau"][x], state["g4"][x]
            yield y, "tau", -tau, ((x, "tau", tau),)
            yield y, "g4", g4, ((x, "g4", g4),)


class Sum(_Relation, namedtuple("Sum", "a b c kind", defaults=["sum"])):
    """c = a # b.  If c is a summand, the other summand has tau = 0: that
    exact bound, which reads nothing, is then the one conclusion, where
    the three interval ones would narrow one step per evaluation."""

    __slots__ = ()
    rule = "R4"

    def implications(self, state: dict):
        a, b, c = self.a, self.b, self.c
        if c == a or c == b:
            yield b if c == a else a, "tau", Interval(0, 0), ()
            return
        tau = state["tau"]
        ta, tb = tau[a], tau[b]
        yield c, "tau", ta + tb, ((a, "tau", ta), (b, "tau", tb))
        tc = tau[c]  # c was just narrowed; b is not c, so tb holds
        yield a, "tau", tc - tb, ((c, "tau", tc), (b, "tau", tb))
        ta = tau[a]  # a was just narrowed; a is not c, so tc holds
        yield b, "tau", tc - ta, ((c, "tau", tc), (a, "tau", ta))


def _difference(state: dict, x: str, y: str, d: Interval):
    """tau(x) - tau(y) in `d` (R3, R5): tau(x) within tau(y) + d, then
    tau(y) within tau(x) - d, read again: one `d` for both directions."""
    tau = state["tau"]
    v = tau[y]
    yield x, "tau", v + d, ((y, "tau", v),)
    v = tau[x]
    yield y, "tau", v - d, ((x, "tau", v),)


class CrossingChange(_Relation, namedtuple(
        "CrossingChange", "plus minus kind", defaults=["crossing_change"])):
    """`minus` is obtained from `plus` by one positive-to-negative change."""

    __slots__ = ()
    rule = "R3"

    def implications(self, state: dict):
        return _difference(state, self.plus, self.minus, _CROSSING)


class Cobordism(_Relation, namedtuple(
        "Cobordism", "a b genus kind", defaults=["cobordism"])):
    __slots__ = ()
    rule = "R5"
    counts = {"genus": 0}

    def implications(self, state: dict):
        return _difference(state, self.b, self.a,
                           Interval(-self.genus, self.genus))


class Unknotting(_Relation, namedtuple(
        "Unknotting", "knot positive negative kind", defaults=["unknotting"])):
    """`positive` positive-to-negative and `negative` negative-to-positive
    crossing changes turn `knot` into the unknot."""

    __slots__ = ()
    rule = "R6"
    counts = {"positive": 0, "negative": 0}

    def implications(self, state: dict):
        p, m = Interval(0, self.positive), Interval(0, self.negative)
        yield self.knot, "tau", p - m, ()
        yield self.knot, "g4", p + m, ()


class Double(_Relation, namedtuple(
        "Double", "companion result iterations kind", defaults=[1, "double"])):
    """`result` is the `iterations`-fold untwisted positive Whitehead
    double of `companion`."""

    __slots__ = ()
    rule = "R7-double"
    counts = {"iterations": 1}

    def implications(self, state: dict):
        tb = state["tb"][self.companion]  # neither conclusion narrows it
        v = families.whitehead_double_tau(tb.lo)
        bound = Interval.top() if v is None else Interval.exact(v)
        reads = ((self.companion, "tb", tb),)
        yield self.result, "tau", bound, reads
        yield self.result, "g4", bound, reads


Relation = Mirror | Sum | CrossingChange | Cobordism | Unknotting | Double


class _GenusChain(namedtuple("_GenusChain", "knot")):
    """R2 on one knot.  Its steps cite no instance, so `replay` finds it by
    the knot.  Its conclusions come in dependency order, g4 <= g3 first, as
    it lowers the g4 the tau bound reads: one evaluation is R2's fixpoint."""

    __slots__ = ()
    rule = "R2"
    priority = 1
    cite = None

    def implications(self, state: dict):
        # Unchecked: the ends of valid intervals (see `interval`).
        id = self.knot
        g3 = state["g3"][id]
        yield id, "g4", _unchecked((NEG_INF, g3.hi)), ((id, "g3", g3),)
        g4 = state["g4"][id]
        yield id, "tau", _unchecked((-g4.hi, g4.hi)), ((id, "g4", g4),)
        tau = state["tau"][id]
        lo = max(0, tau.lo, -tau.hi)
        yield id, "g4", _unchecked((lo, POS_INF)), ((id, "tau", tau),)


class _Seed:
    """The R7 seed of one stored presentation: the bounds it proved for
    its knot when it was constructed, whatever the state."""

    __slots__ = ("knot", "presentation", "rule", "cite")
    priority = 0

    def __init__(self, knot: str, presentation: Presentation):
        self.knot = knot
        self.presentation = presentation
        self.rule = PRESENTATION_KINDS[presentation.kind][0]
        self.cite = ("presentation", knot, presentation)

    def implications(self, state: dict):
        for qty, constraint in self.presentation.seeds:
            yield self.knot, qty, constraint, ()


# ---------------------------------------------------------------------------
# fact base


class KnotRecord(namedtuple("KnotRecord", "id tau g4 g3 tb presentations",
                            defaults=(Interval.top(), Interval(0, POS_INF),
                                      Interval(0, POS_INF), Interval.top(),
                                      ()))):
    """A knot's element of the lattice as one tuple: one interval per
    quantity (`tau`, `g4`, `g3`, `tb`) and its tuple of Presentations; the
    defaults are its top.  Facts pin `g3` or raise `tb`, and seeds bound
    `g3` by a Seifert surface and `tb` by a grid.  A view, built by
    `FactBase.knot` and `FactBase.records`: a run reads and narrows the
    base's `bounds`, not records."""

    __slots__ = ()


# quantity -> its top, in KnotRecord's order: the keys of `FactBase.bounds`
_TOP = dict(zip(KnotRecord._fields[1:5], KnotRecord(None)[1:5]))


def _unknown(id) -> TaucalcError:
    return TaucalcError(f"unknown knot id {id!r}")


def _columns(base: "FactBase") -> dict:
    """A run's own copy of `base`'s bounds, one new dict per column.
    Refuses bounds whose keys are not exactly the quantities of `_TOP`,
    naming the missing columns (or, if none is missing, every column), so
    that no run takes a missing column for an unknown knot."""
    bounds = base.bounds
    if bounds.keys() != _TOP.keys():
        missing = [q for q in _TOP if q not in bounds]
        raise TaucalcError(f"fact base bounds lack the column(s) {missing}"
                           if missing else f"fact base bounds must be the "
                           f"columns {list(_TOP)}, got {list(bounds)}")
    return {q: dict(col) for q, col in bounds.items()}


@dataclass(frozen=True)
class FactBase:
    """Snapshot of knots, their bounds and relations, which nothing
    changes once it is built.  `presentations` maps each knot id to its tuple of Presentations; its
    keys, in insertion order, are the knots.  `bounds` maps each quantity
    (`tau`, `g4`, `g3`, `tb`) to a column: knot id -> Interval.  Every
    run copies the columns once and narrows its copies in place, so no
    run writes into the base it was given.  `extend` meets each input fact
    into its column and keeps no copy, so on a freshly built base the
    bounds are what the input facts alone imply; `propagate` returns a new
    base whose bounds are at the rule fixpoint."""

    presentations: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=lambda: {q: {} for q in _TOP})
    relations: tuple[Relation, ...] = ()

    def knot(self, id: str) -> KnotRecord:
        if id not in self.presentations:
            raise _unknown(id)
        return KnotRecord(id, *(self.bounds[q][id] for q in _TOP),
                          self.presentations[id])

    @property
    def records(self) -> dict[str, KnotRecord]:
        """knot id -> KnotRecord, a fresh dict built on each access in
        O(knots): a view for the library API and the tests, which no run
        of `tau` reads."""
        return {id: self.knot(id) for id in self.presentations}

    def extend(self, knots=(), facts=(), relations=()) -> "FactBase":
        """The base plus `knots` ((id, presentations) pairs), `facts` ((knot,
        kind, value, source)) and `relations`, in one pass: knots, then facts,
        then relations, each checked and applied in order.  A presentation
        object ({kind, value}) repeated in one call is parsed and seeded
        once: its knots share one `Presentation`.  Only a fact that
        contradicts its bound has its `source` quoted."""
        presentations = dict(self.presentations)
        bounds = _columns(self)
        tops = [(bounds[q], top) for q, top in _TOP.items()]
        built = {}  # (kind, value) -> the Presentation built from them
        for id, given in knots:
            if id in presentations:
                raise TaucalcError(f"knot id {id!r} already present")
            pres = []
            for p in given:
                try:
                    # Only exactly a kind and a string value can be shared.
                    if (type(p) is dict and len(p) == 2
                            and type(p.get("value")) is str):
                        key = p.get("kind"), p["value"]
                        p = built.get(key) or built.setdefault(
                            key, Presentation(**p))
                    elif not isinstance(p, Presentation):
                        p = Presentation(**p)
                except TypeError:  # not an object of exactly kind and value
                    raise TaucalcError(
                        f"knot {id!r}: bad presentation entry {p!r}") from None
                except TaucalcError as e:
                    raise TaucalcError(f"knot {id!r}: {e}") from e
                pres.append(p)
            presentations[id] = tuple(pres)
            for col, top in tops:
                col[id] = top
        for knot, kind, value, source in facts:
            if knot not in presentations:
                raise _unknown(knot)
            if type(kind) is not str or kind not in FACT_KINDS:
                raise TaucalcError(f"fact on {knot!r}: unknown kind {kind!r}")
            if type(value) is not int:
                raise TaucalcError(f"fact {kind} on {knot!r}: value "
                                   f"must be an integer, got {value!r}")
            qty, bound = FACT_KINDS[kind]
            try:
                _narrow(bounds[qty], knot, qty, bound(value))
            except EmptyIntervalError:
                raise InconsistentError(
                    f"fact {kind} {value} on {knot!r} (source {source!r}) "
                    f"contradicts {knot}.{qty} = {bounds[qty][knot]}"
                ) from None
        rels = []
        for rel in relations:
            for id in rel.knots:
                if id not in presentations:
                    raise _unknown(id)
            rels.append(rel)
        return replace(self, presentations=presentations, bounds=bounds,
                       relations=self.relations + tuple(rels))


# ---------------------------------------------------------------------------
# certificates


class CertStep(namedtuple(
        "CertStep", "index rule target quantity cite reads conclusion result")):
    """One narrowing: `rule` applied to the instance named by `cite` read
    the (knot, quantity, value) triples in `reads` and concluded
    `conclusion` for (target, quantity); `result` is the meet with the
    prior value."""

    __slots__ = ()

    def describe(self) -> str:
        return (f"[{self.index}] {self.rule}: {self.target}.{self.quantity} "
                f"<- {self.conclusion} => {self.result}")


class Certificate(tuple):
    """The steps of a run, in index order."""

    __slots__ = ()

    def for_knot(self, id: str) -> "Certificate":
        """Minimal sub-derivation supporting the knot's current intervals:
        the steps targeting the knot, plus every step that narrowed a
        (knot, quantity) a later wanted step read.  One backward pass over
        the steps, which are in index order."""
        read: set[tuple[str, str]] = set()  # keys read by later wanted steps
        wanted = []
        for s in reversed(self):
            if s.target == id or (s.target, s.quantity) in read:
                wanted.append(s)
                read.update((k, q) for k, q, _ in s.reads)
        return Certificate(reversed(wanted))


# ---------------------------------------------------------------------------
# propagation engine


def _named(base: FactBase):
    """The rule instances a step names by its `cite`: each knot's
    presentation seeds, knot by knot, then the relations."""
    for id, presentations in base.presentations.items():
        for p in presentations:
            yield _Seed(id, p)
    yield from base.relations


def _instances(base: FactBase) -> list:
    """Every rule instance of the base: each knot's R2 instance, then the
    `_named` ones, so every seed comes before every relation.  Within each
    priority class this is the order of `propagate`'s first evaluations."""
    return [*map(_GenusChain, base.presentations), *_named(base)]


def _narrow(col: dict, id: str, qty: str, constraint: Interval):
    """Meet `constraint` into knot `id`'s entry of `col`, the column of
    quantity `qty` (knot id -> Interval), in place; returns the new value.
    The one place a bound is met into a knot: input facts, `propagate` and
    `replay` all narrow through it, and only `propagate` first asks whether
    the constraint holds the value, since only there do most constraints
    narrow nothing.  An empty meet raises EmptyIntervalError and leaves
    the entry as it was; the constraint must be printable, since the
    certificate and the error message print it."""
    if not constraint.is_printable:
        raise TaucalcError(f"{id}.{qty}: a bound has more digits than str() "
                           f"prints")
    col[id] = new = col[id].meet(constraint)
    return new


def propagate(base: FactBase) -> tuple[FactBase, Certificate]:
    """Run all rules to their least fixpoint.

    Two FIFO queues, one per priority class, hold each rule instance once:
    the R7 seeds and the relations, then the R2 instances, each queue
    first in `_instances` order (Schulte & Stuckey, "Efficient constraint
    propagation engines", TOPLAS 31(1), 2008).  A seed reads nothing, so
    no narrowing re-queues it: every seed runs before every relation.  An
    evaluation takes the front instance of the first non-empty queue off
    it and runs through all its conclusions.  The instance's first
    evaluation makes it a reader of each key a conclusion reads, as the
    conclusion is yielded, before it narrows anything; `readers` is one
    dict per quantity, like the state.  A step records the conclusion's
    `reads` as the rule yielded them, not read again.  Each narrowing
    sends the readers of the narrowed key to the back of their own class's
    queue, except the instance that made it: every instance is idempotent,
    so running it again would narrow nothing.  R2 goes last: it is one
    instance per knot and most of the evaluations, most of which narrow
    nothing, so it waits until the seeds and relations have narrowed what
    they can; on wide bases that makes about a quarter fewer evaluations
    than one queue.  The fixpoint does not depend on the order (the rules
    are monotone meets); certificates do.  The environment variable
    `TAU_STEP_BUDGET` (default 10**6) caps evaluations.  Raises
    InconsistentError (empty interval; carries the certificate prefix), or
    TaucalcError when the budget runs out, naming the last narrowing: what
    was still changing.  Also raises TaucalcError naming a knot that a rule
    reads or narrows and the base's bounds lack, which only a base built
    without `extend` can: a KeyError becomes it, at no cost until raised;
    and one naming the missing column of bounds that are not exactly
    `tau`, `g4`, `g3` and `tb`, checked once before the run.
    """
    env = os.environ.get("TAU_STEP_BUDGET")
    try:
        budget = int(env) if env else DEFAULT_STEP_BUDGET
    except ValueError:
        budget = -1
    if budget < 0:
        raise TaucalcError(f"TAU_STEP_BUDGET must be a non-negative integer, "
                           f"got {env!r}")
    state = _columns(base)
    instances = _instances(base)
    queues = rules, chains = deque(), deque()
    for inst in instances:
        queues[inst.priority].append(inst)
    queued = set(map(id, instances))
    popped = set()  # ids of the instances evaluated, so in `readers`
    readers = {q: {} for q in state}  # quantity -> knot -> its readers
    steps: list[CertStep] = []
    spent = 0

    try:
        while queue := rules or chains:
            spent += 1
            if spent > budget:
                last = (f"last narrowing {steps[-1].describe()}" if steps
                        else "nothing has narrowed yet")
                raise TaucalcError(
                    f"propagation exceeded step budget {budget}; {last}")
            inst = queue.popleft()
            j = id(inst)
            queued.discard(j)
            first = j not in popped
            popped.add(j)
            for target, qty, constraint, reads in inst.implications(state):
                if first:  # a key read twice has this instance last already
                    for k, q, _ in reads:
                        rs = readers[q].setdefault(k, [])
                        if not rs or rs[-1] is not inst:
                            rs.append(inst)
                col = state[qty]
                cur = col[target]
                if constraint[0] <= cur[0] and cur[1] <= constraint[1]:
                    continue  # `constraint` holds `cur`: nothing narrows
                try:
                    result = _narrow(col, target, qty, constraint)
                except EmptyIntervalError:
                    raise InconsistentError(
                        f"{inst.rule} on {target}.{qty}: conclusion "
                        f"{constraint} is disjoint from {target}.{qty} = "
                        f"{cur}", certificate=Certificate(steps)) from None
                # tuple.__new__: no Python-level __new__
                steps.append(tuple.__new__(CertStep, (
                    len(steps), inst.rule, target, qty, inst.cite, reads,
                    constraint, result)))
                for reader in readers[qty].get(target, ()):
                    j = id(reader)
                    if j not in queued and reader is not inst:
                        queues[reader.priority].append(reader)
                        queued.add(j)
    except KeyError as e:  # a base built without `extend` can lack a knot
        raise _unknown(e.args[0]) from None

    return replace(base, bounds=state), Certificate(steps)


def query(base: FactBase, cert: Certificate, id: str) -> tuple[KnotRecord, Certificate]:
    """Record of `id` in a propagated base, plus the minimal certificate
    slice supporting its intervals."""
    return base.knot(id), cert.for_knot(id)


def replay(cert: Certificate, base: FactBase) -> FactBase:
    """Re-derive every step from the base's axioms: the step must cite a
    rule instance of the base, which must yield the step's conclusion in
    the replayed state with the step's `reads` (compared with the reads
    the instance yields, not read again), and the conclusion must narrow
    its target to the step's `result`.  A cite is looked up among the
    `_named` instances, an R2 step's by its target.  Raises
    BrokenStepError at the first failure; returns the base with the bounds
    the steps re-derived, for a certificate of `propagate` its fixpoint.
    Refuses a base whose bounds lack a knot or a column as `propagate`
    does."""
    state = _columns(base)
    named = {inst.cite: inst for inst in _named(base)}
    try:
        for index, rule, target, qty, cite, reads, conclusion, result in cert:
            try:
                inst = (named.get(cite) if cite is not None else
                        _GenusChain(target) if target in base.presentations
                        else None)
            except TypeError:  # an unhashable cite or target names nothing
                inst = None
            if inst is None or inst.rule != rule:
                raise BrokenStepError(
                    f"step {index}: cites no {rule} instance of the base",
                    step_index=index)
            for t, q, c, read in inst.implications(state):
                if t == target and q == qty and c == conclusion:
                    break
            else:
                raise BrokenStepError(
                    f"step {index}: {rule} does not yield {conclusion} for "
                    f"{target}.{qty}", step_index=index)
            if reads != read:
                raise BrokenStepError(
                    f"step {index}: recorded reads {reads} but replay read "
                    f"{read}", step_index=index)
            col = state[q]
            prior = col[t]
            try:
                new = _narrow(col, t, q, c)  # what the rule implied
            except EmptyIntervalError as e:
                raise BrokenStepError(f"step {index}: meet is empty: {e}",
                                      step_index=index) from e
            if new == prior:
                raise BrokenStepError(f"step {index}: narrows nothing",
                                      step_index=index)
            if new != result:
                raise BrokenStepError(
                    f"step {index}: recorded result {result} but replay "
                    f"produced {new}", step_index=index)
    except KeyError as e:  # a base built without `extend` can lack a knot
        raise _unknown(e.args[0]) from None
    return replace(base, bounds=state)
