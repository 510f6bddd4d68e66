"""Partitionable binding contexts: decision procedures and bounded verification.

The package implements multiset binding contexts (built from empty,
cons, and union, identified up to permutation), the relational
vocabulary over them, three type systems for a small lambda/let
language, a let-elimination translation with its coordinated context
relation, and a schematic engine that elaborates context specifications,
generates their distributivity lemmas, and lifts member-based lemmas
from list contexts to multiset contexts.  Every lemma is checked by
bounded-exhaustive enumeration.
"""

from .ctx import (
    Cons,
    Ctx,
    EMPTY,
    Empty,
    Union,
    depth,
    elems,
    from_list,
    gen_ctxs,
    is_list,
    mem_transport,
    member,
    multiset,
    no_elems,
    parse_ctx,
    part_to_perm,
    partition_list,
    perm,
    perm_rel,
    perm_to_part,
    perm_to_part_mask,
    print_ctx,
    sel_transport,
    select,
    splits,
)
from .ctxspec import (
    Clause,
    ContextSpec,
    DistrLemma,
    LemmaStmt,
    align_mset,
    check_distr_cases,
    check_list_pred,
    gen_distr_lemma,
    lift_lemma,
    parse_lemma,
    parse_lemma_file,
    parse_spec,
    parse_spec_file,
    render_lemma,
    verify_lemma_cases,
)
from .errors import (
    LinctxError,
    LinearityError,
    MalformedTermError,
    PreconditionError,
    ShapeError,
    SyntaxError_,
    UnboundIdentifierError,
    UnmappedVariableError,
)
from .report import CheckReport, GenBounds, render_structured, render_text
from .suites import (
    core_lemma_suite,
    equivalence_suite,
    translation_lemma_suite,
    typing_lemma_suite,
)
from .terms import (
    Abs,
    App,
    Arrow,
    Base,
    Bound,
    Free,
    Let,
    Name,
    Tm,
    Ty,
    close_term,
    free_names,
    fresh,
    open_term,
    parse_term,
    parse_type,
    print_term,
    print_type,
    term_size,
)
from .translate import (
    ltrans_rel,
    trans_rel_list,
    trans_rel_mset,
    translate,
)
from .typecheck import (
    Leftover,
    TyAssoc,
    VarAssoc,
    linear_type,
    ltype_check,
    ltype_rel,
    ltype_types,
    ml_type,
    mltype_check,
    mltype_rel,
    mltype_types,
    ty_ctx_list,
    ty_ctx_mset,
    type_of_enum,
    type_of_infer,
)
