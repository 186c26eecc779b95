"""Ingredient pools, selection strategies, and ingredient transformation.

An ingredient is a code fragment reused from the program under repair.
Pools are built per scope (file, module, global) and deduplicated by
printed form.  Selection can be uniform, guided by donor-function
similarity (token-multiset cosine), or weighted by variable-name
frequency.  Transformation handles out-of-scope variables: discard the
ingredient (vanilla behavior), substitute random same-typed in-scope
variables, or enumerate substitutions ranked by a name-frequency or
name-similarity score.

Expression templates are ingredients whose variable references have been
abstracted to typed placeholders (`a + b` becomes `_int_0 + _int_1`);
since placeholders are never in scope, template instantiation is exactly
the name-probability transformation applied to a template ingredient.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from minirepair.lang.ast import EXPRESSION_KINDS, Node, SourceProject, Type, pre_order
from minirepair.lang.lexer import tokenize
from minirepair.lang.printer import print_tree
from minirepair.lang.types import ProjectTypes, free_refs, free_variables
from minirepair.rng import SplitMix64

# non-atomic expression kinds: the ones worth mining templates from and
# targeting as expression-granularity modification points
COMPOSITE_EXPRESSION_KINDS = frozenset({"binary-op", "unary-op", "call", "index"})

# bound on enumerated placeholder/variable assignments per ingredient
MAX_INSTANTIATIONS = 200


@dataclass(frozen=True)
class Ingredient:
    printed: str
    subtree: Node  # attached to the original project; clone before splicing
    node_id: int
    origin_function: str
    free_vars: frozenset[tuple[str, Type]]

    @cached_property
    def ref_names(self) -> tuple[str, ...]:
        """Names of the variable references in the subtree, in pre-order."""
        return tuple(n.name for n in pre_order(self.subtree) if n.kind == "var-ref")

    @cached_property
    def free_refs(self) -> tuple[Node, ...]:
        """The subtree's var-refs that no `let` inside it binds, in pre-order."""
        return tuple(free_refs(self.subtree))

    @cached_property
    def as_is(self) -> "Candidates":
        """The plan of the entry at every point where all its free
        variables are in scope: one candidate, the entry itself."""
        return Candidates(self, (), (), [()], [self.printed])


# the ingredient-scope extension point: config lists its keys; each maps
# a point's file and module to the key of the pool list it draws from
SCOPES = {
    "file": lambda file_path, module: file_path,
    "module": lambda file_path, module: module,
    "global": lambda file_path, module: "*",
}


@dataclass
class IngredientPool:
    scope: str
    entries_by_key: dict[str, list[Ingredient]] = field(default_factory=dict)

    def scope_key(self, file_path: str, module: str) -> str:
        return SCOPES[self.scope](file_path, module)

    def entries(self, file_path: str, module: str) -> list[Ingredient]:
        return self.entries_by_key.get(self.scope_key(file_path, module), [])


def _harvest_nodes(project: SourceProject, granularity: str):
    for sf in project.files:
        for fn in sf.functions:
            for node in pre_order(fn):
                if granularity == "statement" and node.is_statement():
                    yield sf, fn, node
                elif granularity == "expression" and node.kind in EXPRESSION_KINDS:
                    yield sf, fn, node


def _pool(project: SourceProject, scope: str, harvest: str, entry) -> IngredientPool:
    """The pool of the project's nodes of granularity `harvest`, each made
    into an entry by `entry(node) -> (subtree, free variables)` or skipped
    where that gives None, grouped by scope key and deduplicated by printed
    form (first occurrence in node-id order wins)."""
    pool = IngredientPool(scope)
    seen: set[tuple[str, str]] = set()
    for sf, fn, node in _harvest_nodes(project, harvest):
        made = entry(node)
        if made is None:
            continue
        subtree, free_vars = made
        key = pool.scope_key(sf.path, sf.module)
        printed = print_tree(subtree)
        if (key, printed) not in seen:
            seen.add((key, printed))
            pool.entries_by_key.setdefault(key, []).append(Ingredient(
                printed, subtree, node.node_id, fn.name, free_vars))
    return pool


def build_pool(
    project: SourceProject,
    scope: str,
    granularity: str,
    types: ProjectTypes,
) -> IngredientPool:
    """Collect every subtree of the granularity, grouped by scope key and
    deduplicated by printed form (first occurrence in node-id order wins)."""
    return _pool(project, scope, granularity, lambda node: (node, free_variables(node, types)))


# -- templates ---------------------------------------------------------------


def abstract_expression(node: Node, types: ProjectTypes) -> tuple[Node, list[tuple[str, Type]]] | None:
    """Clone an expression with each variable reference replaced by a typed
    placeholder (`_int_0`, `_string_1`, ...).  Distinct source variables map
    to distinct placeholders in first-occurrence order.  Returns None when
    some variable's type is unknown."""
    mapping: dict[str, tuple[str, Type]] = {}

    def walk(n: Node) -> Node | None:
        if n.kind == "var-ref":
            if n.name not in mapping:
                ty = types.type_of(n.node_id)
                if ty is None:
                    return None
                label = str(ty).replace("[", "arr_").replace("]", "")
                mapping[n.name] = (f"_{label}_{len(mapping)}", ty)
            return Node("var-ref", name=mapping[n.name][0])
        children = []
        for child in n.children:
            sub = walk(child)
            if sub is None:
                return None
            children.append(sub)
        return n.copy_node(children)

    abstracted = walk(node)
    if abstracted is None:
        return None
    return abstracted, [mapping[name] for name in mapping]


def mine_templates(project: SourceProject, types: ProjectTypes, scope: str = "global") -> IngredientPool:
    """Template pool mined from every composite expression in the project."""

    def template(node):
        if node.kind not in COMPOSITE_EXPRESSION_KINDS:
            return None
        result = abstract_expression(node, types)
        return None if result is None else (result[0], frozenset(result[1]))

    return _pool(project, scope, "expression", template)


# -- name statistics and similarity -------------------------------------------


@dataclass
class NameFrequencyModel:
    counts: dict[str, int]

    def frequency(self, name: str) -> int:
        return self.counts.get(name, 1)

    def score(self, names) -> float:
        product = 1.0
        for name in names:
            product *= self.frequency(name)
        return product


def build_name_model(project: SourceProject) -> NameFrequencyModel:
    """Occurrence counts of variable names (declarations, parameters and
    references) over the whole project."""
    counts: Counter[str] = Counter()
    for sf in project.files:
        for fn in sf.functions:
            for name, _ in fn.params:
                counts[name] += 1
            for node in pre_order(fn):
                if node.kind == "var-ref" or node.kind == "var-decl":
                    counts[node.name] += 1
    return NameFrequencyModel(dict(counts))


def token_multiset(text: str) -> Counter:
    return Counter(tok.text for tok in tokenize("<tokens>", text) if tok.kind != "eof")


def cosine_similarity(a: Counter, b: Counter) -> float:
    dot = sum(count * b.get(token, 0) for token, count in a.items())
    if dot == 0:
        return 0.0
    norm_a = math.sqrt(sum(c * c for c in a.values()))
    norm_b = math.sqrt(sum(c * c for c in b.values()))
    return dot / (norm_a * norm_b)


def lcs_length(a: str, b: str) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for ch_a in a:
        cur = [0]
        for j, ch_b in enumerate(b, start=1):
            if ch_a == ch_b:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


class FunctionSimilarity:
    """Token-multiset cosine similarity between the functions of a project
    (the lexical stand-in for learned method similarity)."""

    def __init__(self, project: SourceProject):
        self._tokens = {}
        # scores by ordered (fn_a, fn_b); the functions never change
        self._scores: dict[tuple[str, str], float] = {}
        for sf in project.files:
            for fn in sf.functions:
                tokens = token_multiset(print_tree(fn))
                # drop the defining occurrence of the name: two functions
                # that differ only in name are maximally similar
                tokens[fn.name] -= 1
                if tokens[fn.name] <= 0:
                    del tokens[fn.name]
                self._tokens[fn.name] = tokens

    def similarity(self, fn_a: str, fn_b: str) -> float:
        score = self._scores.get((fn_a, fn_b))
        if score is None:
            a = self._tokens.get(fn_a)
            b = self._tokens.get(fn_b)
            score = 0.0 if a is None or b is None else cosine_similarity(a, b)
            self._scores[fn_a, fn_b] = score
        return score


# -- selection -----------------------------------------------------------------


def _uniform(untried: list[Ingredient], point, rng, similarity, name_model) -> Ingredient:
    return untried[rng.below(len(untried))]


def _most_similar(untried: list[Ingredient], point, rng, similarity, name_model) -> Ingredient:
    # the key ends in the node id, so the minimum is unique
    return min(untried, key=lambda e: (
        -similarity.similarity(point.function, e.origin_function), e.origin_function, e.node_id
    ))


def _by_name_probability(
    untried: list[Ingredient], point, rng, similarity, name_model
) -> Ingredient:
    return untried[rng.weighted_index([name_model.score(e.ref_names) for e in untried])]


# the ingredient-selection extension point: config lists its keys
SELECTIONS = {
    "uniform": _uniform,
    "similarity": _most_similar,
    "name-probability": _by_name_probability,
}


def select_ingredient(
    pool: IngredientPool,
    point,
    tried: set[str],
    strategy: str,
    rng: SplitMix64,
    similarity: FunctionSimilarity | None = None,
    name_model: NameFrequencyModel | None = None,
) -> Ingredient | None:
    """Pick an untried ingredient for one (point, operator) pair, or None
    when the pool for the point's scope key is exhausted.

    `point` must expose file, module and function attributes, and `tried`
    holds the printed forms the pair has tried.  An entry counts as tried
    once its own printed form is in `tried` (the engine adds it when the
    entry is used up there); entries whose transformations still have
    untried concrete instantiations remain selectable.  Every pick keeps
    the entries of the point's pool list that are not in `tried`; uniform
    and name-probability draw over them in pool order, and similarity
    takes the best-ranked one.
    """
    untried = [e for e in pool.entries(point.file, point.module) if e.printed not in tried]
    if not untried:
        return None
    return SELECTIONS[strategy](untried, point, rng, similarity, name_model)


# -- transformation --------------------------------------------------------------


def substitute_variables(ingredient: Ingredient, mapping: dict[str, str]) -> Node:
    """Clone of the ingredient's subtree with its free references to mapped
    variables renamed; references bound by a `let` inside the subtree are
    left alone."""
    renamed = {id(ref): mapping[ref.name] for ref in ingredient.free_refs if ref.name in mapping}

    def copy(n: Node) -> Node:
        dup = n.copy_node([copy(child) for child in n.children])
        name = renamed.get(id(n))
        if name is not None:
            dup.name = name
        return dup

    return copy(ingredient.subtree)


def out_of_scope_vars(ingredient: Ingredient, env: dict[str, Type]) -> list[tuple[str, Type]]:
    """Free variables with no same-named, same-typed binding at the point."""
    return sorted((name, ty) for name, ty in ingredient.free_vars if env.get(name) != ty)


def ranked_substitutions(choices, score) -> list[tuple[str, ...]]:
    """Replacement names drawn from `choices` (`Candidates.choices`), one
    tuple per substitution: at most MAX_INSTANTIATIONS of them, ranked by
    descending `score(names)`, ties broken by the tuple itself.  With no
    out-of-scope variables the one substitution is the empty tuple; when
    some variable's type has no in-scope name there are none."""
    combos = list(itertools.islice(itertools.product(*choices), MAX_INSTANTIATIONS))
    combos.sort(key=lambda names: (-score(names), names))
    return combos


@dataclass(frozen=True, eq=False, slots=True)
class Candidates(Sequence):
    """The concrete subtrees an ingredient offers at one point, one per
    substitution of its out-of-scope variables, each built when read:
    item i is a fresh copy with `names` renamed to `substitutions[i]`.
    `choices` holds, for each of `names`, the sorted in-scope names of its
    type, from which every substitution takes its replacements.

    A plan is complete when it is made and the same for every session on
    the project, which shares it (`engine.RepairSession`); `printed` holds
    the printed form of every candidate, which the engine prints when it
    makes the plan.  So a candidate is built to be printed once per
    project, and again only to be spliced into a variant.  Picks scan the
    plan in order, except random-var's, which draw an index into it from
    `choices`."""

    ingredient: Ingredient
    names: tuple[str, ...]  # the out-of-scope variables
    choices: tuple[tuple[str, ...], ...]  # per variable, its same-typed in-scope names
    substitutions: list[tuple[str, ...]]  # replacement names, in the order to try
    printed: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.substitutions)

    def __getitem__(self, index: int) -> Node:
        mapping = dict(zip(self.names, self.substitutions[index]))
        return substitute_variables(self.ingredient, mapping)


def _by_name_similarity(names, choices, name_model) -> list[tuple[str, ...]]:
    return ranked_substitutions(choices, lambda new_names: math.prod(
        lcs_length(orig, new) + 1 for orig, new in zip(names, new_names)
    ))


# the ingredient-transformation extension point: config lists its keys;
# each gives the planned substitutions of the out-of-scope `names`, whose
# replacements come from `choices`
TRANSFORMS = {
    "none": lambda names, choices, name_model: [],
    "random-var": lambda names, choices, name_model: ranked_substitutions(
        choices, lambda new_names: 0
    ),
    "name-probability": lambda names, choices, name_model: ranked_substitutions(
        choices, name_model.score
    ),
    "name-similarity": _by_name_similarity,
}


def transform_ingredient(
    ingredient: Ingredient,
    env: dict[str, Type],
    strategy: str,
    name_model: NameFrequencyModel | None = None,
) -> Candidates:
    """The plan of an ingredient at a point whose scope is `env`: the
    ingredient itself when no free variable is out of scope, else

    none          : no substitution (the ingredient is discarded, never
                    adapted)
    random-var    : the substitutions of ranked_substitutions under one
                    score: the product of the sorted `choices` in product
                    order, from which each pick draws one
                    (`engine.RepairSession._draw_candidate`)
    name-probability / name-similarity
                  : the substitutions of ranked_substitutions, ranked by
                    name-frequency product or by name-LCS score
    """
    out_vars = out_of_scope_vars(ingredient, env)
    if not out_vars:
        return ingredient.as_is
    names = tuple(name for name, _ in out_vars)
    choices = tuple(
        tuple(sorted(name for name, env_ty in env.items() if env_ty == ty)) for _, ty in out_vars
    )
    return Candidates(ingredient, names, choices, TRANSFORMS[strategy](names, choices, name_model))
