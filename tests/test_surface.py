"""The public surface carries its weight: every public name is reached.

A name in a module's `__all__` is reached when `cli.py`, the acceptance
criteria (`tests/test_acceptance.py`) or a README Python block uses it, or
when a reached definition uses it, so a cluster of names that only call one
another is not reached. A public method of a reached public class is
checked too: it is reached when reached code reads an attribute of its name.
A value type is reached through the function that builds it. A public name
that is not reached is either listed in EXCEPTIONS with its reason, or
deleted.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "haar_digits"
README = (ROOT / "README.md").read_text(encoding="utf-8")

# Public names that no root reaches, each with why it stays.
EXCEPTIONS = {
    "samplers.sample_upper_triangular_window": "full-layout reference that the "
    "sample_triangular_entry bit-identity tests compare against",
    "samplers.sample_diagonal_window": "full-layout reference that the "
    "sample_diagonal_entry bit-identity tests compare against",
    "samplers.sample_unitary_haar": "whole-matrix reference that the "
    "sample_unitary_entry bit-identity tests compare against",
    "sphere.sphere_sig_cdf_exact": "bench/tracer.py REQUIRED_HOOKS (ROADMAP item 11)",
    "sphere.sphere_sig_cdf_erf": "bench/tracer.py REQUIRED_HOOKS (ROADMAP item 11)",
    "sphere.sphere_limit_cdf": "bench/tracer.py REQUIRED_HOOKS (ROADMAP item 11)",
    "laws.ProductLaw": "bench/tracer.py LAW_CDFS; the joint law of ROADMAP item 6",
    "sphere.sphere_joint_sig_approx": "the joint sphere law of ROADMAP item 6",
    "rng.RngStream.gamma": "bench/tracer.py hooks it; no command draws a gamma deviate "
    "(ROADMAP item 11)",
    "rng.RngStream.chi_square": "bench/test_bench.py calls it; no command draws a gamma "
    "deviate (ROADMAP item 11)",
}
# The module that is a root as a whole: every name it defines is reached.
ROOT_MODULE = "cli"


def _uses(nodes) -> set:
    """Every name and attribute the nodes read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in nodes
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _definitions(module: str, tree: ast.Module):
    """(key, name, owner class key or None, uses) for each top-level definition
    of the module and each public method of its classes."""
    defs = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            key = f"{module}.{stmt.name}"
            body = [stmt]
            if isinstance(stmt, ast.ClassDef):
                methods = [
                    s for s in stmt.body
                    if isinstance(s, ast.FunctionDef) and not s.name.startswith("_")
                ]
                defs += [(f"{key}.{m.name}", m.name, key, _uses([m])) for m in methods]
                rest = [s for s in stmt.body if s not in methods]
                body = [*stmt.bases, *stmt.keywords, *stmt.decorator_list, *rest]
            defs.append((key, stmt.name, None, _uses(body)))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defs += [(f"{module}.{name}", name, None, _uses([stmt.value])) for name in _uses(targets)]
    return defs


def _public(trees: dict) -> list:
    """module.name for every name in every module's __all__."""
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and _uses(stmt.targets) == {"__all__"}
        for name in ast.literal_eval(stmt.value)
    ]


def _unreached(trees: dict, roots: list) -> list:
    """The public names of the modules (name -> ast), and the public methods of
    their reached public classes, that the root trees and ROOT_MODULE do not
    reach."""
    public = _public(trees)
    used = _uses(roots + [trees[ROOT_MODULE]])
    defs = [
        d for module, tree in trees.items() if module != ROOT_MODULE for d in _definitions(module, tree)
    ]
    reached = {key for key in public if key.split(".")[0] == ROOT_MODULE}
    grown = True
    while grown:
        grown = False
        for key, name, owner, uses in defs:
            if key not in reached and name in used and (owner is None or owner in reached):
                reached.add(key)
                used |= uses
                grown = True
    methods = [key for key, _, owner, _ in defs if owner in reached and owner in public]
    return [key for key in public + methods if key not in reached]


def _package_trees() -> dict:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"  # it imports every public name and uses none
    }


def _package_roots() -> list:
    roots = [ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))]
    roots += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", README, flags=re.S)]
    return roots


def _package_unreached() -> list:
    return _unreached(_package_trees(), _package_roots())


def test_every_public_name_is_reached():
    unreached = [key for key in _package_unreached() if key not in EXCEPTIONS]
    assert unreached == [], f"no command, criterion or README example reaches {unreached}"


def test_every_exception_is_public_and_unreached():
    # An exception that became reached, or whose name is gone, is taken out.
    assert sorted(EXCEPTIONS) == sorted(set(EXCEPTIONS) & set(_package_unreached()))


def test_a_cluster_that_only_calls_itself_is_not_reached():
    lib = ast.parse(
        '__all__ = ["used", "ping", "pong", "Box"]\n'
        "def used(): return _helper()\n"
        "def _helper(): return Box(1).size()\n"
        "def ping(n): return pong(n - 1)\n"
        "def pong(n): return ping(n) if n else Box(0).unread()\n"
        "class Box:\n"
        "    def __init__(self, n): self.n = n\n"
        "    def size(self): return self.n\n"
        "    def unread(self): return -self.n\n"
    )
    cli = ast.parse('__all__ = ["main"]\nfrom .lib import used\ndef main(): return used()\n')
    assert _unreached({"lib": lib, "cli": cli}, []) == ["lib.ping", "lib.pong", "lib.Box.unread"]
    assert _unreached({"lib": lib, "cli": cli}, [ast.parse("lib.pong(3)")]) == []


# Synthetic modules, one rule each: (lib source, cli source, root sources, the
# unreached names).
CLI = '__all__ = ["main"]\ndef main(): pass\n'
RULES = {
    "a-root-reaches-a-name": (
        '__all__ = ["f", "g"]\ndef f(): pass\ndef g(): pass\n', CLI, ["lib.f()"], ["lib.g"]
    ),
    "a-constant-through-its-user": (
        '__all__ = ["TILE", "SPARE", "f"]\nTILE = 8\nSPARE = 9\ndef f(): return TILE\n',
        CLI, ["f()"], ["lib.SPARE"],
    ),
    "a-base-class-through-its-subclass": (
        '__all__ = ["Base", "Leaf"]\nclass Base: pass\nclass Leaf(Base): pass\n',
        CLI, ["Leaf()"], [],
    ),
    "an-unreached-class-is-named-once": (
        '__all__ = ["Box"]\nclass Box:\n    def size(self): return 1\n', CLI, [], ["lib.Box"]
    ),
    "a-private-method-is-not-checked": (
        '__all__ = ["Box"]\nclass Box:\n    def _size(self): return 1\n', CLI, ["Box()"], []
    ),
    "a-method-through-an-attribute-read": (
        '__all__ = ["Box"]\nclass Box:\n    def size(self): return 1\n    def area(self): return 1\n',
        CLI, ["Box().size()"], ["lib.Box.area"],
    ),
    "the-cli-module-is-a-root-as-a-whole": (
        '__all__ = ["f", "g"]\ndef f(): pass\ndef g(): pass\n',
        '__all__ = ["main"]\ndef main(): pass\ndef _helper(): return f()\n', [], ["lib.g"],
    ),
}


@pytest.mark.parametrize("lib, cli, roots, expected", RULES.values(), ids=RULES)
def test_reach_rules(lib, cli, roots, expected):
    trees = {"lib": ast.parse(lib), "cli": ast.parse(cli)}
    assert _unreached(trees, [ast.parse(root) for root in roots]) == expected


# The names this change deleted, put back in the package as their call
# structure: (module, source) pairs, a call that would reach them all, and the
# names the test must give. A class in a source adds its methods to the
# module's class of that name.
PERMUTATIONS = (
    "samplers",
    "def permutation_parity(sigma): return 1\n"
    "def _permutation_matrix(sigma): return sigma\n"
    "def random_even_permutation(n, rng):\n"
    "    sigma = rng.index_below(n)\n"
    "    return _permutation_matrix(sigma) if permutation_parity(sigma) else None\n"
    "def _extract_permutation(P): return P\n"
    "def apply_even_permutations(A, P, Q): return permutation_parity(_extract_permutation(P))\n",
)
INDEX_BELOW = (
    "rng",
    "class RngStream:\n"
    "    def index_below(self, bound): return min(int(self.random() * bound), bound - 1)\n",
)
PERMUTED = "apply_even_permutations(g, random_even_permutation(3, rng), P)"
PERMUTATION_NAMES = [
    "samplers.permutation_parity",
    "samplers.random_even_permutation",
    "samplers.apply_even_permutations",
]
DELETED = {
    "adjoint_product": (
        [("lie", "def adjoint_product(d, u=None):\n"
                 "    return adjoint_det_on_u(d, u) * adjoint_det_on_l(d, u)\n")],
        "adjoint_product(d)",
        ["lie.adjoint_product"],
    ),
    "sample_sphere": (
        [("samplers", "def sample_sphere(n, rng, count):\n"
                      "    return sample_sphere_coords(n, n + 1, rng, count)\n")],
        "sample_sphere(3, rng, 10)",
        ["samplers.sample_sphere"],
    ),
    "sphere_band_prob": (
        [("sphere", "def sphere_band_prob(n, a, b):\n"
                    "    return 0.5 * float(_band(n, *sorted((a * a, b * b))))\n")],
        "sphere_band_prob(3, 0.1, 0.5)",
        ["sphere.sphere_band_prob"],
    ),
    "sl2_cone_induced_cdf": (
        [("lie", "def sl2_cone_induced_cdf(s, eps, base=10):\n"
                 "    cone = ConeProblem(float(base), eps)\n"
                 "    return sl2_cone_volume(ConeProblem(s, eps)) / sl2_cone_volume(cone)\n")],
        "sl2_cone_induced_cdf(2.0, 0.1)",
        ["lie.sl2_cone_induced_cdf"],
    ),
    "permutations": ([PERMUTATIONS], PERMUTED, PERMUTATION_NAMES),
    "index_below": ([INDEX_BELOW], "rng.index_below(7)", ["rng.RngStream.index_below"]),
    # index_below's only caller was random_even_permutation: both go unreached
    # together, and one criterion drawing a permutation reaches both.
    "permutations-and-index_below": (
        [PERMUTATIONS, INDEX_BELOW],
        PERMUTED,
        PERMUTATION_NAMES + ["rng.RngStream.index_below"],
    ),
}


def _put_back(trees: dict, module: str, source: str) -> None:
    tree = trees[module]
    names = next(
        stmt.value for stmt in tree.body
        if isinstance(stmt, ast.Assign) and _uses(stmt.targets) == {"__all__"}
    )
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            owner = next(s for s in tree.body if isinstance(s, ast.ClassDef) and s.name == stmt.name)
            owner.body += stmt.body
            continue
        tree.body.append(stmt)
        if not stmt.name.startswith("_"):
            names.elts.append(ast.Constant(stmt.name))


@pytest.mark.parametrize("sources, call, expected", DELETED.values(), ids=DELETED)
def test_a_deleted_name_put_back_is_named(sources, call, expected):
    trees = _package_trees()
    for module, source in sources:
        _put_back(trees, module, source)
    roots = _package_roots()
    assert [key for key in _unreached(trees, roots) if key not in EXCEPTIONS] == expected
    # A criterion that used it, as the parent's criterion 07 used the
    # permutations, would keep it.
    unreached = _unreached(trees, roots + [ast.parse(call)])
    assert [key for key in unreached if key not in EXCEPTIONS] == []
