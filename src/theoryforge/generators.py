"""Derived constructions over an equational theory.

Each generator consumes a validated :class:`~theoryforge.theory.EqTheory`
and produces either another theory (signature, product) or a declaration
(term languages, homomorphism family).  All generation is deterministic.
Every name a construction adds is decided here, suffix scheme included,
and drawn from one :class:`NameSupply` per output module, which hands out
the default name while it is free and primes it (``fst'``) once it is
taken, so a theory and all of its constructions can live in one module
under the distinct-member-names rule.
"""

from __future__ import annotations

import enum
from collections.abc import Container, Iterable
from functools import cached_property

from .ast import (
    RESERVED_WORDS,
    App,
    Arrow,
    Binder,
    Constr,
    DataDecl,
    Decl,
    Equation,
    Quant,
    RecordDecl,
    SetKind,
    SortRef,
    Sym,
    Term,
    TyApp,
    Var,
    apply_spine,
    arity,
    arrow_chain,
    decl_members,
    default_constructor,
    map_names,
)
from .theory import (
    Axiom,
    EqTheory,
    associativity,
    associativity_op,
    embed,
    rename_with,
)

PROD_TYPE_NAME = "Prod"


class GenError(Exception):
    """A construction cannot be generated for this theory."""


class GenKind(enum.Enum):
    """Catalog of constructions, in emission order; each value is the
    construction's command-line name."""

    SIGNATURE = "sig"
    PRODUCT = "prod"
    TERM_LANG = "termlang"
    OPEN_TERM_LANG = "open-termlang"
    HOM = "hom"
    MONOMORPHISM = "mono"
    ENDOMORPHISM = "endo"


DEFAULT_KINDS: tuple[GenKind, ...] = (
    GenKind.SIGNATURE,
    GenKind.PRODUCT,
    GenKind.TERM_LANG,
    GenKind.HOM,
)

# the constructions that rename members, with their default suffixes; no
# other construction takes a suffix
DEFAULT_SUFFIXES: dict[GenKind, str] = {
    GenKind.SIGNATURE: "S",
    GenKind.PRODUCT: "P",
    GenKind.TERM_LANG: "L",
    GenKind.OPEN_TERM_LANG: "OL",
}


def kind_from_flag(flag: str) -> GenKind:
    try:
        return GenKind(flag)
    except ValueError:
        raise ValueError(f"unknown construction {flag!r}") from None


# -- names ------------------------------------------------------------------------

class NameSupply:
    """The names taken in one output module.  :meth:`fresh` returns the
    default name when it is free and primes it until it is; either way the
    name is taken from then on.  A reserved word (``Set``) is never free."""

    def __init__(self, taken: Iterable[str] = ()) -> None:
        self.taken = set(taken)

    @classmethod
    def for_module(cls, head: Decl) -> NameSupply:
        """A supply seeded with every name ``head`` declares, as written:
        its own name, parameters and members, a record's constructor among them."""
        params = (n for b in head.params for n in b.names)
        return cls([head.name, *params, *(m.name for m in decl_members(head))])

    def fresh(self, name: str, avoid: Container[str] = ()) -> str:
        while name in self.taken or name in avoid or name in RESERVED_WORDS:
            name += "'"
        self.taken.add(name)
        return name

    def scope(self) -> NameSupply:
        """A child supply for the names local to one declaration or binder
        group: it avoids every name taken here, and takes nothing here."""
        return NameSupply(self.taken)

    @cached_property
    def prod_type(self) -> str:
        """The name of the module's ``Prod`` helper, drawn on first use."""
        return self.fresh(PROD_TYPE_NAME)


def _supply(t: EqTheory, names: NameSupply | None) -> NameSupply:
    return NameSupply.for_module(embed(t)) if names is None else names


def _renaming(t: EqTheory, suffix: str, names: NameSupply, bound: Container[str]) -> dict[str, str]:
    """The sort and each operation to ``name + suffix``, drawn from the
    supply; they also avoid ``bound``, the variables a name would capture."""
    return {old: names.fresh(old + suffix, bound) for old in [t.sort.name, *(f.name for f in t.func_types)]}


def _symbols(ax: Axiom) -> set[str]:
    """The symbols either side of the axiom mentions."""
    found: set[str] = set()
    todo: list[Term] = [ax.lhs, ax.rhs]
    while todo:
        n = todo.pop()
        if type(n) is App:
            todo += (n.fn, n.arg)
        elif type(n) is Sym:
            found.add(n.name)
    return found


def _record(t: EqTheory, names: NameSupply) -> RecordDecl:
    d = embed(t)
    d.constructor_name = names.fresh(d.constructor_name)
    return d


# -- signature ------------------------------------------------------------------

def gen_signature(
    t: EqTheory, suffix: str = DEFAULT_SUFFIXES[GenKind.SIGNATURE], names: NameSupply | None = None
) -> EqTheory:
    """The axiom-free part of the theory, with members suffixed so the
    result can share a module with its source."""
    names = _supply(t, names)
    name = names.fresh(t.name + "Sig")
    bare = EqTheory(t.name, t.sort, t.func_types, [], t.waist)
    return rename_with(bare, _renaming(bare, suffix, names, ()), new_name=name)


# -- product algebra ---------------------------------------------------------------

def gen_product(
    t: EqTheory, suffix: str = DEFAULT_SUFFIXES[GenKind.PRODUCT], names: NameSupply | None = None
) -> EqTheory:
    """The theory over the binary product of the carrier: every occurrence
    of the sort becomes ``Prod s s``, axiom binders become explicit (one per
    variable, variables suffixed), and a recognised associativity axiom is
    restated canonically as ``f (f x y) z == f x (f y z)``.  Axioms are
    named ``associative_<op><suffix>``, else after the first constant they
    mention, ``<axiom>_<constant><suffix>``, else ``<axiom><suffix>``."""
    names = _supply(t, names)
    name = names.fresh(t.name + "Prod")
    bound = {v for ax in t.axioms for v in ax.var_names}
    mapping = _renaming(t, suffix, names, bound)
    constants = [f.name for f in t.func_types if type(f.ty) is not Arrow]
    ops = []
    for ax in t.axioms:
        op = associativity_op(ax)
        if op is not None:
            target = "associative_" + op
        else:
            mentioned = _symbols(ax)
            target = next((f"{ax.name}_{c}" for c in constants if c in mentioned), ax.name)
        mapping[ax.name] = names.fresh(target + suffix, bound)
        ops.append(op)
    sort2 = mapping[t.sort.name]
    prod_ty = TyApp(names.prod_type, [SortRef(sort2), SortRef(sort2)])
    funcs = [Constr(mapping[f.name], map_names(f.ty, {t.sort.name: prod_ty})) for f in t.func_types]
    axioms = []
    for ax, op in zip(t.axioms, ops):
        scope = names.scope()
        var_map = {v: scope.fresh(v + suffix) for v in ax.var_names}
        if op is not None:
            lhs, rhs = associativity(mapping[op], *map(Var, var_map.values()))
        else:
            lhs, rhs = (map_names(side, syms=mapping, vars=var_map) for side in (ax.lhs, ax.rhs))
        binders = [Binder([v], prod_ty) for v in var_map.values()]
        axioms.append(Axiom(mapping[ax.name], binders, lhs, rhs))
    return EqTheory(name, Constr(sort2, SetKind()), funcs, axioms, t.waist)


def prod_decl(names: NameSupply | None = None) -> RecordDecl:
    """The ``Prod`` helper record generated output relies on; emitted once
    per output module."""
    names = NameSupply() if names is None else names
    return RecordDecl(
        names.prod_type,
        [Binder(["A"], SetKind()), Binder(["B"], SetKind())],
        names.fresh("prodC"),
        [Constr(names.fresh("fst"), SortRef("A")), Constr(names.fresh("snd"), SortRef("B"))],
    )


# -- term languages ------------------------------------------------------------------

def _term_constructors(t: EqTheory, lang: str, suffix: str, names: NameSupply) -> list[Constr]:
    return [
        Constr(names.fresh(f.name + suffix), arrow_chain([SortRef(lang)] * (arity(f.ty) + 1)))
        for f in t.func_types
    ]


def gen_termlang(
    t: EqTheory, suffix: str = DEFAULT_SUFFIXES[GenKind.TERM_LANG], names: NameSupply | None = None
) -> DataDecl:
    """The closed term language: one constructor per function symbol with
    the same arity, axioms dropped, no parameters."""
    names = _supply(t, names)
    lang = names.fresh(t.name + "Lang")
    return DataDecl(lang, [], _term_constructors(t, lang, suffix, names))


def gen_open_termlang(
    t: EqTheory, suffix: str = DEFAULT_SUFFIXES[GenKind.OPEN_TERM_LANG], names: NameSupply | None = None
) -> DataDecl:
    """The term language extended with variables drawn from a parameter
    type ``V``, via a constructor ``v : V -> <name>OpenLang``."""
    names = _supply(t, names)
    lang = names.fresh(t.name + "OpenLang")
    var = names.scope().fresh("V")
    ctors = [Constr(names.fresh("v"), Arrow(SortRef(var), SortRef(lang)))]
    return DataDecl(lang, [Binder([var], SetKind())], ctors + _term_constructors(t, lang, suffix, names))


# -- homomorphism family ----------------------------------------------------------------

# kind: record name suffix, carrier copies, whether injectivity is stated,
# and the member prefix used when several of the family share a module
_HOM_FAMILY = {
    GenKind.HOM: ("Hom", 2, False, ""),
    GenKind.MONOMORPHISM: ("Mono", 2, True, "m"),
    GenKind.ENDOMORPHISM: ("End", 1, False, "e"),
}


def _hom_record(t: EqTheory, kind: GenKind, names: NameSupply | None, prefixed: bool = False) -> RecordDecl:
    """The shape hom, mono and endo share: carriers and instances, a
    carrier map, one preservation axiom per function symbol and, for mono,
    an injectivity axiom.  Member names come from the module's supply,
    parameters and bound variables from a scope of this record, so the
    three records share their local names."""
    if t.waist < 1:
        raise GenError(
            f"{t.name}: homomorphisms need the carrier as a record parameter (waist >= 1)"
        )
    suffix, copies, injective, prefix = _HOM_FAMILY[kind]
    prefix = prefix if prefixed else ""
    names = _supply(t, names)
    name = names.fresh(t.name + suffix)
    constructor = names.fresh(default_constructor(name))
    hom_name = names.fresh(prefix + "hom")
    pres_names = [names.fresh(f"{prefix}pres-{f.name}") for f in t.func_types]
    injective_name = names.fresh("injective") if injective else ""

    local = names.scope()
    lifted = [t.sort] + t.func_types[: t.waist - 1]
    copy_names = [{e.name: local.fresh(f"{e.name}{i}") for e in lifted} for i in range(1, copies + 1)]
    instances = [local.fresh(f"{t.name[:2]}{i}") for i in range(1, copies + 1)]
    params: list[Binder] = []
    for copy in copy_names:
        to_carrier = {t.sort.name: SortRef(copy[t.sort.name])}
        params += [Binder([copy[e.name]], map_names(e.ty, to_carrier)) for e in lifted]
    for inst, copy in zip(instances, copy_names):
        params.append(Binder([inst], TyApp(t.name, [SortRef(copy[e.name]) for e in lifted])))

    carrier = SortRef(copy_names[0][t.sort.name])
    hom = Sym(hom_name)
    fields = [Constr(hom_name, Arrow(carrier, SortRef(copy_names[-1][t.sort.name])))]
    for f, pres in zip(t.func_types, pres_names):

        def occurrence(k: int, args: list[Term]) -> Term:
            # a lifted parameter symbol is its copy; a field is projected
            # through the instance.  With one copy (endo) both sides use it.
            copy = copy_names[k]
            if f.name in copy:
                return apply_spine(Sym(copy[f.name]), args)
            return apply_spine(Sym(f.name), [Sym(instances[k]), *args])

        scope = local.scope()
        xs = [Var(scope.fresh(f"x{i}")) for i in range(1, arity(f.ty) + 1)]
        eq = Equation(App(hom, occurrence(0, xs)), occurrence(-1, [App(hom, x) for x in xs]))
        fields.append(Constr(pres, Quant([Binder([x.name], carrier) for x in xs], eq) if xs else eq))
    if injective:
        scope = local.scope()
        x, y = Var(scope.fresh("x")), Var(scope.fresh("y"))
        inj = Arrow(Equation(App(hom, x), App(hom, y)), Equation(x, y))
        fields.append(Constr(injective_name, Quant([Binder([x.name, y.name], carrier)], inj)))
    return RecordDecl(name, params, constructor, fields)


def gen_hom(t: EqTheory, names: NameSupply | None = None) -> RecordDecl:
    """The homomorphism record: two carriers, two instances, a carrier map,
    and one preservation axiom per function symbol."""
    return _hom_record(t, GenKind.HOM, names)


def gen_monomorphism(t: EqTheory, names: NameSupply | None = None) -> RecordDecl:
    """A homomorphism plus an injectivity axiom."""
    return _hom_record(t, GenKind.MONOMORPHISM, names)


def gen_endomorphism(t: EqTheory, names: NameSupply | None = None) -> RecordDecl:
    """A homomorphism from one instance to itself: one carrier, one
    instance, preservation axioms over that single instance."""
    return _hom_record(t, GenKind.ENDOMORPHISM, names)


# -- batch generation ---------------------------------------------------------------------


def gen_all(
    t: EqTheory,
    kinds: list[GenKind] | tuple[GenKind, ...] = DEFAULT_KINDS,
    suffixes: dict[GenKind, str] | None = None,
    names: NameSupply | None = None,
) -> list[Decl]:
    """Generate the selected constructions in catalog order, drawing every
    name they add from ``names`` (by default, a supply seeded with the
    embedded theory)."""
    suffixes = {**DEFAULT_SUFFIXES, **(suffixes or {})}
    names = _supply(t, names)
    selected = [k for k in GenKind if k in kinds]
    prefixed = sum(k in _HOM_FAMILY for k in selected) > 1

    out: list[Decl] = []
    for kind in selected:
        if kind is GenKind.SIGNATURE:
            out.append(_record(gen_signature(t, suffixes[kind], names), names))
        elif kind is GenKind.PRODUCT:
            out.append(_record(gen_product(t, suffixes[kind], names), names))
        elif kind is GenKind.TERM_LANG:
            out.append(gen_termlang(t, suffixes[kind], names))
        elif kind is GenKind.OPEN_TERM_LANG:
            out.append(gen_open_termlang(t, suffixes[kind], names))
        else:
            out.append(_hom_record(t, kind, names, prefixed))
    return out


__all__ = [
    "DEFAULT_KINDS",
    "DEFAULT_SUFFIXES",
    "GenError",
    "GenKind",
    "NameSupply",
    "PROD_TYPE_NAME",
    "gen_all",
    "gen_endomorphism",
    "gen_hom",
    "gen_monomorphism",
    "gen_open_termlang",
    "gen_product",
    "gen_signature",
    "kind_from_flag",
    "prod_decl",
]
