"""Internal form of a single-sorted equational theory and its conversions.

A theory is a telescope: one sort, then function symbols whose types are
arrow chains over that sort, then equational axioms.  ``waist`` counts how
many leading telescope entries are record parameters rather than fields.

``add_members`` is the one reader of telescope entries, for a record
(``extract``) and a library's ``base``, ``extend`` and ``combine`` alike;
``embed`` writes a theory back as a record, and ``rename_with`` applies an
explicit name map consistently everywhere the names occur; the names that
generation adds are decided in :mod:`theoryforge.generators`.
``associativity`` builds the one canonical associativity statement, which
``associativity_op`` recognises and the product construction restates.
Quantifier structure of axioms (grouping and hidden/explicit marks) is
preserved verbatim so that ``embed(extract(d)) == d`` for records in
telescope order whose axioms quantify at most once: a curried chain of
quantifiers, ``(x : A) → (y : A) → …``, reads as one quantifier over its
binder groups, and comes back grouped that way.
"""

from __future__ import annotations

from collections.abc import Container, Mapping

from .ast import (
    App,
    Arrow,
    Binder,
    Constr,
    Equation,
    Quant,
    RecordDecl,
    SetKind,
    SortRef,
    Structure,
    Sym,
    Term,
    TypeExpr,
    Var,
    arity,
    arrow_components,
    default_constructor,
    map_names,
    spine,
)


class ShapeError(Exception):
    """The declaration is not a single-sorted equational theory."""


class CollisionError(Exception):
    """A renaming would produce duplicate or captured names."""


class Axiom(Structure):
    __slots__ = ("name", "binders", "lhs", "rhs", "pos")

    @property
    def var_names(self) -> list[str]:
        return [n for b in self.binders for n in b.names]

    def to_constr(self) -> Constr:
        eq = Equation(self.lhs, self.rhs)
        ty: TypeExpr = Quant(list(self.binders), eq) if self.binders else eq
        return Constr(self.name, ty, pos=self.pos)


class EqTheory(Structure):
    __slots__ = ("name", "sort", "func_types", "axioms", "waist")

    @property
    def arities(self) -> dict[str, int]:
        return {f.name: arity(f.ty) for f in self.func_types}

    def declared_names(self) -> list[str]:
        return [self.sort.name] + [f.name for f in self.func_types] + [a.name for a in self.axioms]


# -- extraction -----------------------------------------------------------------

def _check_axiom_term(
    t: Term, vars_: Container[str], arities: Mapping[str, int], where: str, sort: str | None = None
) -> None:
    head, args = spine(t)
    if isinstance(head, Var):
        if head.name not in vars_:
            raise ShapeError(f"{where}: unbound variable {head.name!r}")
        if args:
            raise ShapeError(f"{where}: variable {head.name!r} applied to arguments")
        return
    if isinstance(head, Sym):
        if head.name == sort:
            raise ShapeError(f"{where}: {sort!r} is a type, not a term")
        if head.name not in arities:
            raise ShapeError(f"{where}: unknown symbol {head.name!r}")
        if len(args) != arities[head.name]:
            raise ShapeError(
                f"{where}: {head.name!r} expects {arities[head.name]} arguments, got {len(args)}"
            )
        for a in args:
            _check_axiom_term(a, vars_, arities, where, sort)
        return
    raise ShapeError(f"{where}: malformed term")


def _variables(axiom: str, binders: list[Binder], sort: str, taken: Container[str]) -> set[str]:
    vars_: set[str] = set()
    for b in binders:
        if not (isinstance(b.ty, SortRef) and b.ty.name == sort):
            raise ShapeError(f"axiom {axiom!r}: variables must range over the sort {sort!r}")
        for n in b.names:
            if n in vars_ or n in taken:
                raise ShapeError(f"axiom {axiom!r}: variable {n!r} shadows another name")
            vars_.add(n)
    return vars_


def constr_to_axiom(c: Constr, sort: str, arities: Mapping[str, int], taken: Container[str]) -> Axiom:
    """The axiom ``c`` states, a curried chain of quantifiers read as one:
    each variable over the sort and named unlike ``taken``, then its sides."""
    binders: list[Binder] = []
    body: TypeExpr = c.ty
    while isinstance(body, Quant):
        binders += body.binders
        body = body.body
    if not isinstance(body, Equation):
        raise ShapeError(f"{c.name!r} is neither an operation over the sort nor an equation")
    vars_ = _variables(c.name, binders, sort, taken)
    for side, t in (("left side", body.lhs), ("right side", body.rhs)):
        _check_axiom_term(t, vars_, arities, f"axiom {c.name!r}, {side}", sort)
    return Axiom(c.name, binders, body.lhs, body.rhs, pos=c.pos)


def add_members(t: EqTheory, name: str, members: list[Constr]) -> EqTheory:
    """The theory ``name``: ``t`` with ``members`` read after its entries,
    as a record's fields are.  An arrow chain over the sort is an
    operation, any other entry an axiom, checked against every operation
    wherever it stands.  A higher-order type, a second sort or a repeated
    name is a :class:`ShapeError`, entry by entry, before any axiom's
    fault.  No variable may take the name of the sort, of any operation or
    of an earlier axiom; an axiom of ``t`` has only its variables checked."""
    sort = t.sort.name
    names = set(t.declared_names())
    funcs: list[Constr] = []
    rest: list[Constr] = []
    for c in members:
        if isinstance(c.ty, SetKind):
            sorts = ", ".join([sort] + [m.name for m in members if isinstance(m.ty, SetKind)])
            raise ShapeError(f"multiple sorts ({sorts}); theories are single-sorted")
        if c.name in names:
            raise ShapeError(f"duplicate declaration name {c.name!r}")
        names.add(c.name)
        parts = arrow_components(c.ty)
        if all(isinstance(p, SortRef) and p.name == sort for p in parts):
            funcs.append(c)
        elif any(isinstance(p, Arrow) for p in parts):
            raise ShapeError(f"{c.name!r}: higher-order argument types are not supported")
        else:
            rest.append(c)
    arities = {**t.arities, **{f.name: arity(f.ty) for f in funcs}}
    taken = {sort, *arities}
    axioms: list[Axiom] = []
    for a in [*t.axioms, *rest]:
        if isinstance(a, Constr):
            a = constr_to_axiom(a, sort, arities, taken)
        else:
            _variables(a.name, a.binders, sort, taken)
        axioms.append(a)
        taken.add(a.name)
    return EqTheory(name, t.sort, t.func_types + funcs, axioms, t.waist)


def extract(d: RecordDecl) -> EqTheory:
    """Read the equational-theory shape off a record declaration.

    The first ``Set``-typed entry is the sort; the other entries are read
    after it by :func:`add_members`; the parameter count is the waist, so
    every parameter must be the sort or a function symbol (:func:`embed`
    puts the axioms after them).  Raises :class:`ShapeError` otherwise.
    Messages do not name the record.
    """
    telescope = [Constr(n, b.ty, pos=b.pos) for b in d.params for n in b.names]
    waist = len(telescope)
    telescope.extend(d.fields)

    sort = next((c for c in telescope if isinstance(c.ty, SetKind)), None)
    if sort is None:
        raise ShapeError("no sort declaration (a field of type Set)")
    t = add_members(EqTheory(d.name, sort, [], [], waist), d.name, [c for c in telescope if c is not sort])
    params = {c.name for c in telescope[:waist]}
    for a in t.axioms:
        if a.name in params:
            raise ShapeError(
                f"axiom {a.name!r} is a record parameter; parameters must be the sort and operations"
            )
    return t


# -- renaming --------------------------------------------------------------------

def rename_with(t: EqTheory, mapping: dict[str, str], new_name: str | None = None) -> EqTheory:
    """Apply an explicit name map to every occurrence of the declared names.

    Bound variables are left alone; the theory name changes only when
    ``new_name`` says so.  Raises :class:`CollisionError` if the renaming
    would produce duplicate declared names or capture a bound variable.
    """
    declared = t.declared_names()
    unknown = set(mapping) - set(declared)
    if unknown:
        raise CollisionError(f"renaming of undeclared names: {', '.join(sorted(unknown))}")
    renamed = [mapping.get(n, n) for n in declared]
    if len(set(renamed)) != len(renamed):
        raise CollisionError("renaming produces duplicate names")
    targets = set(mapping.values())
    for ax in t.axioms:
        captured = targets.intersection(ax.var_names)
        if captured:
            raise CollisionError(
                f"renaming captures variable(s) {', '.join(sorted(captured))} in axiom {ax.name!r}"
            )

    sort = Constr(mapping.get(t.sort.name, t.sort.name), SetKind())
    sorts = {t.sort.name: SortRef(sort.name)}
    funcs = [Constr(mapping.get(f.name, f.name), map_names(f.ty, sorts, mapping)) for f in t.func_types]
    axioms = [
        Axiom(
            mapping.get(a.name, a.name),
            [map_names(b, sorts) for b in a.binders],
            map_names(a.lhs, syms=mapping),
            map_names(a.rhs, syms=mapping),
        )
        for a in t.axioms
    ]
    return EqTheory(new_name if new_name is not None else t.name, sort, funcs, axioms, t.waist)


# -- axiom shape recognition ----------------------------------------------------

def associativity(op: str, x: Term, y: Term, z: Term) -> tuple[Term, Term]:
    """The canonical statement that ``op`` is associative, as the two sides
    of ``op (op x y) z == op x (op y z)``."""
    f = Sym(op)
    return App(App(f, App(App(f, x), y)), z), App(App(f, x), App(App(f, y), z))


def associativity_op(ax: Axiom) -> str | None:
    """If the axiom states associativity of a binary symbol, return that
    symbol's name: its two sides, in either order, are what
    :func:`associativity` builds for that symbol and the axiom's three
    distinct variables, in some order."""
    names = ax.var_names
    if len(names) != 3 or len(set(names)) != 3:
        return None
    for one, other in ((ax.lhs, ax.rhs), (ax.rhs, ax.lhs)):
        head, args = spine(one)
        if type(head) is not Sym or len(args) != 2:
            continue
        xyz = [*spine(args[0])[1], args[1]]
        if (
            len(xyz) == 3
            and all(type(v) is Var for v in xyz)
            and {v.name for v in xyz} == set(names)
            and (one, other) == associativity(head.name, *xyz)
        ):
            return head.name
    return None


# -- embedding ---------------------------------------------------------------------

def embed(t: EqTheory) -> RecordDecl:
    """Write the theory back as a record: the first ``waist`` telescope
    entries become parameters, the rest fields; the constructor is the
    default for the theory's name (``ast.default_constructor``), primed
    past every name of the telescope."""
    telescope: list[Constr] = [t.sort] + t.func_types + [a.to_constr() for a in t.axioms]
    if not 0 <= t.waist <= len(telescope):
        raise ShapeError(f"{t.name}: waist {t.waist} out of range 0..{len(telescope)}")
    params = [Binder([c.name], c.ty, hidden=False, pos=c.pos) for c in telescope[: t.waist]]
    fields = telescope[t.waist:]
    constructor = default_constructor(t.name, {c.name for c in telescope})
    return RecordDecl(t.name, params, constructor, list(fields))


__all__ = [
    "Axiom",
    "CollisionError",
    "EqTheory",
    "ShapeError",
    "add_members",
    "associativity",
    "associativity_op",
    "constr_to_axiom",
    "embed",
    "extract",
    "rename_with",
]
