"""The type checker is the one block-scope walker.

`scope_stack` resumes the checker along the path to a statement, and
`free_refs` (behind `free_variables` and `substitute_variables`) applies
the checker's binding rule inside a subtree.  The walkers below are the
hand-written block walks these replaced; they are kept as oracles.  Over
every corpus bug the new functions must agree with them: scope stacks at
every statement and expression point, free variables and renamed copies
of every statement-pool, expression-pool and template-pool entry.
"""

from minirepair.engine import create_modification_points
from minirepair.faultloc import SuspiciousLocation
from minirepair.ingredients import build_pool, mine_templates, substitute_variables
from minirepair.lang.ast import nodes_equal, parse_project, pre_order
from minirepair.lang.printer import print_tree
from minirepair.lang.types import cached_types, flatten_scopes, scope_stack
from minirepair.rng import SplitMix64

from conftest import load_bug


def oracle_scope_stack(project, node_id):
    """Scope stack by reading each earlier declaration's type from the
    project's type table (the walk `scope_stack` used before)."""
    fn = project.enclosing_function(node_id)
    path = []
    cur = node_id
    while cur != fn.node_id:
        path.append(cur)
        cur = project.parents[cur]
    path.reverse()
    types = cached_types(project)
    scopes = [dict(fn.params)]
    node = fn
    for child_id in path:
        if node.kind == "block":
            scope = {}
            for stmt in node.children:
                if stmt.node_id == child_id:
                    break
                if stmt.kind == "var-decl":
                    scope[stmt.name] = stmt.type_ann or types.type_of(stmt.node_id)
            scopes.append(scope)
        node = project.nodes[child_id]
    return scopes


def oracle_free_variables(node, types):
    free = set()

    def walk(n, bound):
        if n.kind == "var-ref":
            if not any(n.name in scope for scope in bound):
                ty = types.type_of(n.node_id)
                if ty is not None:
                    free.add((n.name, ty))
            return
        if n.kind == "block":
            names = set()
            for stmt in n.children:
                inner = bound + (frozenset(names),)
                if stmt.kind == "var-decl":
                    walk(stmt.children[0], inner)
                    names.add(stmt.name)
                else:
                    walk(stmt, inner)
            return
        if n.kind == "var-decl":
            walk(n.children[0], bound)
            return
        for child in n.children:
            walk(child, bound)

    walk(node, (frozenset(),))
    return frozenset(free)


def oracle_substitute(node, mapping):
    def walk(n, bound):
        if n.kind == "var-ref":
            clone = n.copy_node([])
            if n.name in mapping and n.name not in bound:
                clone.name = mapping[n.name]
            return clone
        if n.kind == "block":
            children = []
            names = set()
            for stmt in n.children:
                inner = frozenset(bound | names)
                if stmt.kind == "var-decl":
                    children.append(stmt.copy_node([walk(stmt.children[0], inner)]))
                    names.add(stmt.name)
                else:
                    children.append(walk(stmt, inner))
            return n.copy_node(children)
        return n.copy_node([walk(child, bound) for child in n.children])

    return walk(node, frozenset())


def test_scope_stack_matches_oracle_at_every_point(corpus_names):
    checked = 0
    for name in corpus_names:
        project, _, _ = load_bug(name)
        suspicious = [SuspiciousLocation(nid, 1.0) for nid, node in sorted(project.nodes.items())
                      if node.is_statement()]
        for granularity in ("statement", "expression"):
            for point in create_modification_points(project, suspicious, granularity):
                expected = oracle_scope_stack(project, point.node_id)
                assert point.env == flatten_scopes(expected), (name, point.node_id)
                checked += 1
        for node_id, node in project.nodes.items():
            if node.kind != "function":
                assert scope_stack(project, node_id) == oracle_scope_stack(project, node_id)
    assert checked > 500


def random_mapping(rng, names):
    """Each name renamed with probability 1/2, to another name of the
    list or to a fresh one."""
    targets = sorted(names) + ["fresh"]
    return {name: rng.choice(targets) for name in sorted(names) if rng.below(2)}


def assert_same_substitution(ingredient, mapping):
    got = substitute_variables(ingredient, mapping)
    expected = oracle_substitute(ingredient.subtree, mapping)
    assert nodes_equal(got, expected), (ingredient.printed, mapping)
    assert print_tree(got) == print_tree(expected)
    assert all(n.node_id == -1 for n in pre_order(got))


def test_free_variables_and_substitution_match_oracles(corpus_names):
    rng = SplitMix64(31)
    entries = renamed = 0
    for name in corpus_names:
        project, _, _ = load_bug(name)
        types = cached_types(project)
        pools = [(build_pool(project, "global", "statement", types), False),
                 (build_pool(project, "global", "expression", types), False),
                 (mine_templates(project, types), True)]
        for pool, template in pools:
            for ingredient in pool.entries_by_key["*"]:
                if not template:
                    assert ingredient.free_vars == oracle_free_variables(
                        ingredient.subtree, types)
                names = set(ingredient.ref_names)
                for _ in range(3):
                    mapping = random_mapping(rng, names)
                    assert_same_substitution(ingredient, mapping)
                    renamed += bool(mapping)
                entries += 1
    assert entries > 700 and renamed > 1000


SHADOWING = """\
fn f(n: int, m: int) -> int {
    let r = 0;
    if (n > 0) {
        let n = n * 2;
        r = r + n;
        {
            let r = n;
            n = r + m;
        }
        r = r + n;
    }
    r = r + n;
    return r;
}
"""


def test_a_let_that_shadows_a_free_name():
    project = parse_project([("main.mini", SHADOWING)])
    types = cached_types(project)
    pool = build_pool(project, "global", "statement", types)
    entries = pool.entries_by_key["*"]
    rng = SplitMix64(7)
    for ingredient in entries:
        assert ingredient.free_vars == oracle_free_variables(ingredient.subtree, types)
        for mapping in ({"n": "m", "r": "m"}, {"m": "n"},
                        random_mapping(rng, set(ingredient.ref_names))):
            assert_same_substitution(ingredient, mapping)
    shadowing_if = next(e for e in entries if e.subtree.kind == "if")
    assert {ref.name for ref in shadowing_if.free_refs} == {"n", "r", "m"}
    renamed = substitute_variables(shadowing_if, {"n": "m", "r": "m"})
    assert print_tree(renamed) == (
        "if (m > 0) {\n    let n = m * 2;\n    m = m + n;\n    {\n        let r = n;\n"
        "        n = r + m;\n    }\n    m = m + n;\n}"
    )
