"""Derived constructions over an equational theory.

Each generator consumes a validated :class:`~theoryforge.theory.EqTheory`
and produces either another theory (signature, product) or a declaration
(term languages, homomorphism family).  All generation is deterministic and
name-systematic so that a theory and all of its constructions can live in
one output module under the distinct-member-names rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .ast import (
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
    TypeExpr,
    Var,
    apply_spine,
    arity,
    arrow_chain,
    decl_member_names,
    map_names,
)
from .theory import (
    Axiom,
    EqTheory,
    RenameScheme,
    associativity_op,
    embed,
    rename_with,
)

PROD_TYPE_NAME = "Prod"


class GenError(Exception):
    """A construction cannot be generated for this theory."""


class GenKind(enum.Enum):
    """Catalog of constructions, in emission order."""

    SIGNATURE = "sig"
    PRODUCT = "prod"
    TERM_LANG = "termlang"
    OPEN_TERM_LANG = "open-termlang"
    HOM = "hom"
    MONOMORPHISM = "mono"
    ENDOMORPHISM = "endo"

    @property
    def flag(self) -> str:
        return self.value


_CATALOG_ORDER = {k: i for i, k in enumerate(GenKind)}

DEFAULT_KINDS: tuple[GenKind, ...] = (
    GenKind.SIGNATURE,
    GenKind.PRODUCT,
    GenKind.TERM_LANG,
    GenKind.HOM,
)

DEFAULT_SUFFIXES: dict[GenKind, str] = {
    GenKind.SIGNATURE: "S",
    GenKind.PRODUCT: "P",
    GenKind.TERM_LANG: "L",
    GenKind.OPEN_TERM_LANG: "OL",
}


def kind_from_flag(flag: str) -> GenKind:
    for k in GenKind:
        if k.flag == flag:
            return k
    raise ValueError(f"unknown construction {flag!r}")


# -- signature ------------------------------------------------------------------

def gen_signature(t: EqTheory, suffix: str = "S") -> EqTheory:
    """The axiom-free part of the theory, with members suffixed so the
    result can share a module with its source."""
    renamed = rename_with(t, RenameScheme(suffix).mapping_for(t), new_name=t.name + "Sig")
    renamed.axioms = []
    return renamed


# -- product algebra ---------------------------------------------------------------

def gen_product(t: EqTheory, suffix: str = "P") -> EqTheory:
    """The theory over the binary product of the carrier: every occurrence
    of the sort becomes ``Prod s s``, axiom binders become explicit (one per
    variable, variables suffixed), and a recognised associativity axiom is
    restated canonically as ``f (f x y) z == f x (f y z)``."""
    renamed = rename_with(t, RenameScheme(suffix).mapping_for(t), new_name=t.name + "Prod")
    sort2 = renamed.sort.name
    prod_ty = TyApp(PROD_TYPE_NAME, [SortRef(sort2), SortRef(sort2)])
    to_prod = {sort2: prod_ty}

    funcs = [Constr(f.name, map_names(f.ty, to_prod)) for f in renamed.func_types]
    axioms: list[Axiom] = []
    for ax in renamed.axioms:
        var_map = {v: v + suffix for v in ax.var_names}
        binders = [Binder([var_map[v]], prod_ty, hidden=False) for v in ax.var_names]
        op = associativity_op(ax)
        if op is not None:
            a, b, c = (Var(var_map[v]) for v in ax.var_names)
            lhs: Term = apply_spine(Sym(op), [apply_spine(Sym(op), [a, b]), c])
            rhs: Term = apply_spine(Sym(op), [Var(a.name), apply_spine(Sym(op), [Var(b.name), Var(c.name)])])
        else:
            lhs = map_names(ax.lhs, vars=var_map)
            rhs = map_names(ax.rhs, vars=var_map)
        axioms.append(Axiom(ax.name, binders, lhs, rhs))
    return EqTheory(renamed.name, renamed.sort, funcs, axioms, renamed.waist)


def prod_decl() -> RecordDecl:
    """The ``Prod`` helper record generated output relies on; emitted once
    per output module."""
    return RecordDecl(
        PROD_TYPE_NAME,
        [Binder(["A"], SetKind()), Binder(["B"], SetKind())],
        "prodC",
        [Constr("fst", SortRef("A")), Constr("snd", SortRef("B"))],
    )


# -- term languages ------------------------------------------------------------------

def gen_termlang(t: EqTheory, suffix: str = "L") -> DataDecl:
    """The closed term language: one constructor per function symbol with
    the same arity, axioms dropped, no parameters."""
    lang = t.name + "Lang"
    ctors = []
    for f in t.func_types:
        ctors.append(Constr(f.name + suffix, arrow_chain([SortRef(lang)] * (arity(f.ty) + 1))))
    return DataDecl(lang, [], ctors)


def gen_open_termlang(t: EqTheory, suffix: str = "OL") -> DataDecl:
    """The term language extended with variables drawn from a parameter
    type ``V``, via a constructor ``v : V -> <name>OpenLang``."""
    lang = t.name + "OpenLang"
    ctors = [Constr("v", Arrow(SortRef("V"), SortRef(lang)))]
    for f in t.func_types:
        ctors.append(Constr(f.name + suffix, arrow_chain([SortRef(lang)] * (arity(f.ty) + 1))))
    return DataDecl(lang, [Binder(["V"], SetKind())], ctors)


# -- homomorphism family ----------------------------------------------------------------

@dataclass(frozen=True)
class HomNaming:
    """Machine-generated names used by the homomorphism family."""

    carrier_names: tuple[str, str]
    instance_names: tuple[str, str]
    func_name: str = "hom"
    pres_prefix: str = "pres-"

    @classmethod
    def for_theory(cls, t: EqTheory, func_name: str = "hom", pres_prefix: str = "pres-") -> HomNaming:
        stem = t.name[:2] if len(t.name) >= 2 else t.name
        sort = t.sort.name
        return cls((sort + "1", sort + "2"), (stem + "1", stem + "2"), func_name, pres_prefix)

    def validate(self, t: EqTheory) -> None:
        names = [*self.carrier_names, *self.instance_names]
        if len(set(names)) != len(names) or t.name in names or self.func_name in names:
            raise GenError(
                f"{t.name}: generated names {names} must be pairwise distinct"
                " and distinct from the theory name"
            )


def _pick_var_base(reserved: set[str], count: int) -> str:
    for base in ("x", "y", "z", "u", "v", "w"):
        if all(f"{base}{i}" not in reserved for i in range(1, count + 1)):
            return base
    return "x_"


def _hom_like(t: EqTheory, naming: HomNaming, copies: int) -> tuple[list[Binder], list[Constr], set[str]]:
    """Shared parameter/field scaffolding for hom, mono, and endo."""
    if t.waist < 1:
        raise GenError(
            f"{t.name}: homomorphisms need the carrier as a record parameter (waist >= 1)"
        )
    naming.validate(t)
    lifted = [t.sort] + t.func_types[: t.waist - 1]
    param_funcs = {f.name for f in t.func_types[: t.waist - 1]}

    def copy_name(n: str, i: int) -> str:
        if n == t.sort.name:
            return naming.carrier_names[i - 1]
        return f"{n}{i}"

    params: list[Binder] = []
    for i in range(1, copies + 1):
        to_carrier = {t.sort.name: SortRef(naming.carrier_names[i - 1])}
        for entry in lifted:
            params.append(Binder([copy_name(entry.name, i)], map_names(entry.ty, to_carrier)))
    instances = [naming.instance_names[i - 1] for i in range(1, copies + 1)]
    for i, inst in enumerate(instances, start=1):
        inst_ty = TyApp(t.name, [SortRef(copy_name(e.name, i)) for e in lifted])
        params.append(Binder([inst], inst_ty))

    c1 = naming.carrier_names[0]
    c2 = naming.carrier_names[1] if copies == 2 else c1
    hom = Sym(naming.func_name)
    fields = [Constr(naming.func_name, Arrow(SortRef(c1), SortRef(c2)))]

    reserved = set(t.declared_names()) | {b for p in params for b in p.names} | {naming.func_name}
    used_vars: set[str] = set()
    for f in t.func_types:
        n = arity(f.ty)
        base = _pick_var_base(reserved, n)
        xs = [f"{base}{i}" for i in range(1, n + 1)]
        used_vars.update(xs)

        def occurrence(i: int) -> list[Term]:
            # Projection through the instance for fields; the lifted copy
            # itself for parameter symbols.  With a single instance (endo)
            # both sides refer to copy 1.
            i = min(i, copies)
            if f.name in param_funcs:
                return [Sym(copy_name(f.name, i))]
            return [Sym(f.name), Sym(instances[i - 1])]

        src_head = occurrence(1)
        tgt_head = occurrence(2)
        lhs = apply_spine(hom, [apply_spine(src_head[0], [*src_head[1:], *map(Var, xs)])])
        rhs = apply_spine(
            tgt_head[0],
            [*tgt_head[1:], *[apply_spine(Sym(naming.func_name), [Var(x)]) for x in xs]],
        )
        eq = Equation(lhs, rhs)
        ty: TypeExpr = (
            Quant([Binder([x], SortRef(c1)) for x in xs], eq) if xs else eq
        )
        fields.append(Constr(naming.pres_prefix + f.name, ty))
    return params, fields, reserved | used_vars


def gen_hom(t: EqTheory, naming: HomNaming | None = None) -> RecordDecl:
    """The homomorphism record: two carriers, two instances, a carrier map,
    and one preservation axiom per function symbol."""
    naming = naming or HomNaming.for_theory(t)
    params, fields, _ = _hom_like(t, naming, copies=2)
    name = t.name + "Hom"
    return RecordDecl(name, params, name + "C", fields)


def gen_monomorphism(t: EqTheory, naming: HomNaming | None = None) -> RecordDecl:
    """A homomorphism plus an injectivity axiom."""
    naming = naming or HomNaming.for_theory(t)
    params, fields, reserved = _hom_like(t, naming, copies=2)
    c1 = naming.carrier_names[0]
    x, y = ("x", "y") if {"x", "y"}.isdisjoint(reserved) else ("x'", "y'")
    hom = naming.func_name
    inj = Quant(
        [Binder([x, y], SortRef(c1))],
        Arrow(
            Equation(apply_spine(Sym(hom), [Var(x)]), apply_spine(Sym(hom), [Var(y)])),
            Equation(Var(x), Var(y)),
        ),
    )
    name = t.name + "Mono"
    return RecordDecl(name, params, name + "C", fields + [Constr("injective", inj)])


def gen_endomorphism(t: EqTheory, naming: HomNaming | None = None) -> RecordDecl:
    """A homomorphism from one instance to itself: one carrier, one
    instance, preservation axioms over that single instance."""
    naming = naming or HomNaming.for_theory(t)
    params, fields, _ = _hom_like(t, naming, copies=1)
    name = t.name + "End"
    return RecordDecl(name, params, name + "C", fields)


# -- batch generation ---------------------------------------------------------------------

_HOM_FAMILY = (GenKind.HOM, GenKind.MONOMORPHISM, GenKind.ENDOMORPHISM)

# member names must stay distinct inside one module, so when several of the
# hom family are selected together the later ones get their own prefixes
_DISAMBIGUATED = {
    GenKind.HOM: ("hom", "pres-"),
    GenKind.MONOMORPHISM: ("mhom", "mpres-"),
    GenKind.ENDOMORPHISM: ("ehom", "epres-"),
}


def gen_all(
    t: EqTheory,
    kinds: list[GenKind] | tuple[GenKind, ...] = DEFAULT_KINDS,
    suffixes: dict[GenKind, str] | None = None,
    skip_log: list[str] | None = None,
) -> list[Decl]:
    """Generate the selected constructions in catalog order.

    With ``skip_log`` set, a construction that cannot be generated is
    skipped and a message appended there; otherwise :class:`GenError`
    propagates.
    """
    suffixes = {**DEFAULT_SUFFIXES, **(suffixes or {})}
    selected = sorted(set(kinds), key=_CATALOG_ORDER.get)
    hom_selected = [k for k in selected if k in _HOM_FAMILY]

    def hom_naming(kind: GenKind) -> HomNaming:
        func, prefix = _DISAMBIGUATED[kind] if len(hom_selected) > 1 else ("hom", "pres-")
        return HomNaming.for_theory(t, func_name=func, pres_prefix=prefix)

    def build(kind: GenKind) -> Decl:
        if kind is GenKind.SIGNATURE:
            return embed(gen_signature(t, suffixes[kind]))
        if kind is GenKind.PRODUCT:
            return embed(gen_product(t, suffixes[kind]))
        if kind is GenKind.TERM_LANG:
            return gen_termlang(t, suffixes[kind])
        if kind is GenKind.OPEN_TERM_LANG:
            return gen_open_termlang(t, suffixes[kind])
        if kind is GenKind.HOM:
            return gen_hom(t, hom_naming(kind))
        if kind is GenKind.MONOMORPHISM:
            return gen_monomorphism(t, hom_naming(kind))
        return gen_endomorphism(t, hom_naming(kind))

    out: list[Decl] = []
    for kind in selected:
        try:
            out.append(build(kind))
        except GenError as e:
            if skip_log is None:
                raise
            skip_log.append(f"{t.name}: skipped {kind.flag}: {e}")

    seen: set[str] = set(decl_member_names(embed(t))) | {t.name + "C"}
    for d in out:
        for n in decl_member_names(d):
            if n in seen:
                raise GenError(f"{t.name}: generated member name {n!r} is not unique")
            seen.add(n)
    return out


__all__ = [
    "DEFAULT_KINDS",
    "DEFAULT_SUFFIXES",
    "GenError",
    "GenKind",
    "HomNaming",
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
