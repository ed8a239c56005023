"""Properties of generation over random well-formed theories whose names
are chosen to collide with the names the constructions add."""

from __future__ import annotations

from hypothesis import assume, given, strategies as st

from theoryforge.ast import (
    App,
    Arrow,
    Binder,
    Constr,
    DataDecl,
    Decl,
    Quant,
    RecordDecl,
    SetKind,
    SortRef,
    Sym,
    Term,
    TypeExpr,
    Var,
    arrow_chain,
    decl_members,
    map_names,
)
from theoryforge.checker import check_module
from theoryforge.generators import GenKind, NameSupply, gen_all, prod_decl
from theoryforge.parser import parse_file
from theoryforge.printer import print_decl, print_module
from theoryforge.theory import Axiom, EqTheory, embed, extract, rename_with

THEORY_NAMES = ["Mo", "Monoid", "Prod", "M", "Ab"]

# names a construction adds by default, suffixed names, and primed ones
ADVERSARIAL = [
    "Prod", "prodC", "fst", "snd", "hom", "hom'", "mhom", "ehom", "v", "V", "injective",
    "e", "eS", "eP", "eL", "op", "opS", "opL", "opOL", "pres-op", "lunit_eS", "x", "y",
    "x1", "x2", "x1'", "A", "A1", "A2", "AS",
]

# renaming targets: no adversarial name, and no name derived from one, starts with q
TARGETS = [f"q{c}" for c in "abcdefghijklmnop"]

ALL_KINDS = list(GenKind)


def _term(draw, arities: dict[str, int], variables: list[str], depth: int) -> Term:
    leaves = [Sym(f) for f, n in arities.items() if n == 0] + [Var(x) for x in variables]
    nodes = [f for f, n in arities.items() if n > 0] if depth > 0 else []
    choice = draw(st.integers(0, len(leaves) + len(nodes) - 1))
    if choice < len(leaves):
        return leaves[choice]
    f = nodes[choice - len(leaves)]
    t: Term = Sym(f)
    for _ in range(arities[f]):
        t = App(t, _term(draw, arities, variables, depth - 1))
    return t


@st.composite
def theories(draw) -> EqTheory:
    """An equational theory: one sort, up to four operations of arity 0-3,
    up to three axioms, and a random split into parameters and fields."""
    name = draw(st.sampled_from(THEORY_NAMES))
    pool = ADVERSARIAL + [f"{name[:2]}1", f"{name[:2]}2", f"{name}1", name + "Sig", name + "HomC"]
    pool += [name + "C", name + "C'"]  # the default constructor name, and its primed form
    sort = draw(st.sampled_from(pool))
    ops = draw(st.lists(st.sampled_from([n for n in pool if n != sort]), unique=True, max_size=4))
    arities = {f: draw(st.integers(0, 3)) for f in ops}
    taken = {sort, *ops}
    axioms: list[Axiom] = []
    # bound variables may also be named like the renamed operations
    targets = [f + suffix for f in ops for suffix in ("S", "P")]
    for _ in range(draw(st.integers(0, 3))):
        free = [n for n in pool if n not in taken]
        ax_name = draw(st.sampled_from(free))
        taken.add(ax_name)
        candidates = sorted({*free, *targets} - taken)
        variables = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=3))
        if not variables and not any(n == 0 for n in arities.values()):
            continue
        hidden = draw(st.booleans())
        binders = [Binder(variables, SortRef(sort), hidden)] if variables else []
        lhs = _term(draw, arities, variables, 2)
        rhs = _term(draw, arities, variables, 2)
        axioms.append(Axiom(ax_name, binders, lhs, rhs))
    funcs = [Constr(f, arrow_chain([SortRef(sort)] * (n + 1))) for f, n in arities.items()]
    waist = draw(st.integers(1, 1 + len(funcs)))
    return EqTheory(name, Constr(sort, SetKind()), funcs, axioms, waist)


@st.composite
def theory_decls(draw) -> RecordDecl:
    """A record that is an equational theory, with a constructor name that
    may clash with the names the constructions add."""
    decl = embed(draw(theories()))
    decl.constructor_name = draw(st.sampled_from([decl.constructor_name, "hom", "fst", "v", "prodC"]))
    assume(check_module([decl]) == [])
    return decl


def module(decl: RecordDecl, t: EqTheory, kinds: list[GenKind]) -> list[Decl]:
    """The output module ``gen`` writes for ``decl``: the source, the
    ``Prod`` helper when the product is selected, and the constructions."""
    names = NameSupply.for_module(decl)
    head: list[Decl] = [decl]
    if GenKind.PRODUCT in kinds:
        head.append(prod_decl(names))
    return head + gen_all(t, kinds, names=names)


@given(theories())
def test_every_embedded_theory_checks_clean(t):
    # a member may be named like the default constructor, which is then primed
    assert check_module([embed(t)]) == [], print_decl(embed(t))


@given(theory_decls())
def test_every_construction_checks_clean_alone_and_all_together(decl):
    t = extract(decl)
    for kinds in [[k] for k in ALL_KINDS] + [ALL_KINDS]:
        decls = module(decl, t, kinds)
        assert check_module(decls) == [], print_module(decls)
        assert check_module(parse_file(print_module(decls))) == []


@given(theory_decls())
def test_every_declaration_reparses_to_itself(decl):
    for d in module(decl, extract(decl), ALL_KINDS):
        assert parse_file(print_decl(d)) == [d]


def test_every_library_module_with_all_seven_constructions_reparses_to_what_was_generated(library):
    # the print → parse round trip that the per-theory unit runs on every
    # module, held here for whole modules and not only declaration by declaration
    from theoryforge.cli import RunConfig, generate_for_theory

    theories = library.theories()
    for t in theories:
        out = generate_for_theory(t, RunConfig(kinds=tuple(ALL_KINDS)))
        assert parse_file(out.module_text) == module(embed(t), t, ALL_KINDS), t.name
    assert len(theories) == 62


# -- curried quantifiers -----------------------------------------------------------

@given(theory_decls(), st.data())
def test_a_curried_quantifier_chain_generates_like_one_quantifier(decl, data):
    # split each axiom's binder group at random places; the grouped record
    # quantifies once over the groups, the curried one once per group
    grouped_fields, curried_fields = [], []
    for f in decl.fields:
        grouped = curried = f.ty
        if isinstance(f.ty, Quant):
            (b,) = f.ty.binders
            n = len(b.names)
            cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
            bounds = [0, *cuts, n]
            groups = [Binder(b.names[i:j], b.ty, data.draw(st.booleans())) for i, j in zip(bounds, bounds[1:])]
            grouped = Quant(groups, f.ty.body)
            curried = f.ty.body
            for g in reversed(groups):
                curried = Quant([g], curried)
        grouped_fields.append(Constr(f.name, grouped))
        curried_fields.append(Constr(f.name, curried))
    grouped = RecordDecl(decl.name, decl.params, decl.constructor_name, grouped_fields)
    curried = RecordDecl(decl.name, decl.params, decl.constructor_name, curried_fields)
    assert check_module([curried]) == []
    assert parse_file(print_decl(curried)) == [curried]
    t = extract(curried)
    assert t == extract(grouped)
    assert gen_all(t, ALL_KINDS) == gen_all(extract(grouped), ALL_KINDS)


# -- renaming equivariance ------------------------------------------------------

def _quantified(ty: TypeExpr) -> list[str]:
    if isinstance(ty, Quant):
        return [n for b in ty.binders for n in b.names] + _quantified(ty.body)
    if isinstance(ty, Arrow):
        return _quantified(ty.dom) + _quantified(ty.cod)
    return []


def _bindings(d: Decl) -> tuple[list[str], list[str], list[str]]:
    """The names a declaration binds: module-wide ones (its name,
    constructor and members), its parameters, and its quantified variables."""
    members = d.fields if isinstance(d, RecordDecl) else d.constructors
    module_wide = [d.name, *(m.name for m in decl_members(d))]
    params = [n for b in d.params for n in b.names]
    return module_wide, params, [n for m in members for n in _quantified(m.ty)]


def _bijection(pairs: list[tuple[str, str]]) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for a, b in pairs:
        assert mapping.setdefault(a, b) == b, (a, b, mapping[a])
    assert len(set(mapping.values())) == len(mapping), mapping
    return mapping


def _rename_decl(d: Decl, names: dict[str, str], variables: dict[str, str]) -> Decl:
    """``d`` with declared names mapped by ``names`` and quantified
    variables by ``variables``."""
    sorts = {a: SortRef(b) for a, b in names.items()}

    def ty(x: TypeExpr) -> TypeExpr:
        return map_names(x, sorts, names, variables)

    params = [Binder([names.get(n, n) for n in b.names], ty(b.ty), b.hidden) for b in d.params]
    if isinstance(d, RecordDecl):
        fields = [Constr(names.get(f.name, f.name), ty(f.ty)) for f in d.fields]
        constructor = names.get(d.constructor_name, d.constructor_name)
        return RecordDecl(names.get(d.name, d.name), params, constructor, fields)
    ctors = [Constr(names.get(c.name, c.name), ty(c.ty)) for c in d.constructors]
    return DataDecl(names.get(d.name, d.name), params, ctors)


@given(theory_decls(), st.data())
def test_generation_follows_a_renaming_to_unused_names(decl, data):
    t = extract(decl)
    renamed_names = data.draw(st.lists(st.sampled_from(t.declared_names()), unique=True))
    m = dict(zip(renamed_names, TARGETS))
    t2 = rename_with(t, m)
    decl2 = embed(t2)
    decl2.constructor_name = decl.constructor_name
    out, out2 = module(decl, t, ALL_KINDS), module(decl2, t2, ALL_KINDS)
    assert len(out) == len(out2)

    # one map over the module-wide names; each declaration adds its own
    # parameters on top, and maps its quantified variables apart
    bindings = [(_bindings(d), _bindings(d2)) for d, d2 in zip(out, out2)]
    for ours, theirs in bindings:
        assert [len(names) for names in ours] == [len(names) for names in theirs]
    extended = _bijection([p for (wide, _, _), (wide2, _, _) in bindings for p in zip(wide, wide2)])
    for d, d2, ((_, params, bound), (_, params2, bound2)) in zip(out, out2, bindings):
        names = {**extended, **_bijection(list(zip(params, params2)))}
        assert _rename_decl(d, names, _bijection(list(zip(bound, bound2)))) == d2
        if d is decl:
            assert all(names[a] == b for a, b in m.items())
