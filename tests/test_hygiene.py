"""Static checks on the package source, with the standard library's ``ast`` only.

Every import of the package is at module level (a check below keeps it so),
so the import checks read the module body: what a module imports is what
it loads, and the load-time graph is the whole import graph.
"""

import ast
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "cfx"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _module_imports(tree: ast.Module):
    return [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = _tree(path)
    bound = {}
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in bound.items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_imports_only_the_package_and_the_standard_library(path):
    # the package has no runtime dependency: every load-time import is cfx or stdlib
    foreign = []
    for node in _module_imports(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                continue
            names = [node.module]
        else:
            names = [alias.name for alias in node.names]
        foreign += [f"{name} (line {node.lineno})" for name in names
                    if name.split(".")[0] not in {"cfx", *sys.stdlib_module_names}]
    assert not foreign, f"{path.name}: imports outside cfx and the standard library {foreign}"


@pytest.mark.parametrize("path", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    # an import inside a function would hide a foreign or cyclic import from
    # the checks above, which read only the module body
    tree = _tree(path)
    top = set(map(id, _module_imports(tree)))
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert not nested, f"{path.name}: imports below module level on lines {nested}"


def _package_edges() -> dict:
    """module -> modules of the package it imports at load time."""
    edges = {}
    for path in [*MODULES, PACKAGE / "__init__.py"]:
        targets = set()
        for node in _module_imports(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                targets.update(alias.name.split(".")[1] for alias in node.names
                               if alias.name.startswith("cfx."))
        edges[path.stem] = targets
    return edges


def test_package_import_graph_is_acyclic():
    edges = _package_edges()
    state = {}  # absent: unseen, 1: on the current path, 2: done

    def visit(module, path):
        state[module] = 1
        for target in sorted(edges.get(module, ())):
            if state.get(target) == 1:
                cycle = path[path.index(target):] + [target]
                pytest.fail("import cycle: " + " -> ".join(cycle))
            if target not in state:
                visit(target, path + [target])
        state[module] = 2

    for module in sorted(edges):
        if module not in state:
            visit(module, [module])


def test_linalg_eliminates_on_ints_only():
    # no Fraction or ComplexRational arithmetic inside an elimination
    imported = set()
    for node in ast.walk(_tree(PACKAGE / "linalg.py")):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update("." * node.level + alias.name for alias in node.names
                            if not node.module)
    assert not imported & {"fractions", "cfx.rational", ".rational"}, sorted(imported)


def test_boundary_does_not_import_flat():
    assert "flat" not in _package_edges()["boundary"]
    assert "boundary" in _package_edges()["flat"]


# Every module outside cfx that `import cfx.cli` and `build_parser()` load in
# a bare interpreter, by top-level name, grouped by the reason it is there.
# Every command pays for these before it starts.  The records are plain
# classes and annotations are never evaluated, so dataclasses (with inspect,
# ast and dis) and typing stay out
CLI_START_MODULES = {
    "argument parsing, its translated messages and its terminal width": {
        "argparse", "gettext", "locale", "_locale", "shutil", "errno", "fnmatch", "zlib",
        "bz2", "_bz2", "lzma", "_lzma", "_compression"},
    "csv and json reports, json input files": {"csv", "_csv", "json", "_json"},
    "Fraction, with its numbers and decimal bases and its re parser": {
        "fractions", "numbers", "decimal", "_decimal", "re", "_sre", "enum", "types", "copyreg"},
    "seeded sampling in randgen and ma (_sha2 on Python 3.12+)": {
        "random", "_random", "_sha512", "_sha2", "bisect", "_bisect"},
    "what the modules above and the package import: os, collections, functools": {
        "os", "posixpath", "genericpath", "stat", "_stat", "warnings", "collections",
        "_collections", "_collections_abc", "keyword", "reprlib", "functools", "_functools",
        "itertools", "operator", "_operator", "math", "__future__"},
}


def test_cli_start_loads_only_the_listed_modules():
    # -S: a site-packages .pth file may preload typing or re and hide an import
    import subprocess

    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
            "import cfx.cli; cfx.cli.build_parser()\n"
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.split()} - {"cfx"}
    allowed = set().union(*CLI_START_MODULES.values())
    assert not allowed & {"dataclasses", "inspect", "typing"}
    assert loaded <= allowed, f"cfx.cli loads unlisted modules {sorted(loaded - allowed)}"


@pytest.mark.parametrize("path", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_no_environment_reads(path):
    # settings are command-line flags, never environment variables
    tree = _tree(path)
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names
             and isinstance(node.value, ast.Name) and node.value.id == "os"]
    reads += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in names for alias in node.names)]
    assert not reads, f"{path.name}: environment read on lines {sorted(reads)}"


def test_every_public_definition_is_named_elsewhere():
    # a public module-level function or class that no other code names is dead
    sources = {p: p.read_text(encoding="utf-8").splitlines()
               for folder in ("src", "tests", "scripts", "bench")
               for p in sorted((REPO / folder).rglob("*.py"))}
    orphans = []
    for path in [*MODULES, PACKAGE / "__init__.py"]:
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno, node.end_lineno + 1)
            if not any(word.search(line) for p, lines in sources.items()
                       for number, line in enumerate(lines, 1)
                       if not (p == path and number in own)):
                orphans.append(f"{path.name}: {node.name}")
    assert not orphans, f"public definitions named nowhere else: {orphans}"


def _acceptance_imports() -> set:
    """Names that tests/test_acceptance.py imports from the package."""
    tree = _tree(REPO / "tests" / "test_acceptance.py")
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cfx")
            for alias in node.names}


def test_every_public_definition_has_a_caller_outside_the_tests():
    # a public function or class that only tests name is test code: it belongs
    # in the test module that uses it, as a reference or a helper.  A
    # re-export in __init__.py calls nothing, so it does not count; the names
    # the acceptance suite imports stay, because that suite is the fixed gate
    callers = {p: p.read_text(encoding="utf-8").splitlines()
               for folder in ("src", "scripts", "bench")
               for p in sorted((REPO / folder).rglob("*.py"))
               if p != PACKAGE / "__init__.py"}
    allowed = _acceptance_imports()
    test_only = []
    for path in MODULES:
        for node in _tree(path).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in allowed):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno, node.end_lineno + 1)
            if not any(word.search(line) for p, lines in callers.items()
                       for number, line in enumerate(lines, 1)
                       if not (p == path and number in own)):
                test_only.append(f"{path.name}: {node.name}")
    assert not test_only, f"public definitions only the tests call: {test_only}"


def test_every_public_method_has_a_caller_outside_the_tests():
    # the rule above for methods: a public method that no code outside the
    # tests reads by name (an attribute, or a bare name such as a callback)
    # is test code.  Names are matched without their class, so a name two
    # classes share counts for both.  As above, what the acceptance suite
    # reads stays, because that suite is the fixed gate
    trees = {p: _tree(p) for folder in ("src", "scripts", "bench")
             for p in sorted((REPO / folder).rglob("*.py"))}
    trees[REPO / "tests" / "test_acceptance.py"] = _tree(REPO / "tests" / "test_acceptance.py")
    read = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name:
                read.setdefault(name, []).append((path, node.lineno))
    test_only = []
    for path in MODULES:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                own = range(node.lineno, node.end_lineno + 1)
                if not any(not (p == path and line in own) for p, line in read.get(node.name, ())):
                    test_only.append(f"{path.name}: {cls.name}.{node.name}")
    assert not test_only, f"public methods only the tests call: {test_only}"


def test_scalars_have_one_layout():
    # the package computes on (re, im) ints over one den and hands out an
    # exact scalar as an (re, im) pair of Fractions: the second scalar type,
    # its coercion and its coefficient view stay out of the source, docstrings
    # included (the tests keep them as references, in test_rational.py)
    word = re.compile(r"\b(ComplexRational|cq|Terms)\b")
    found = [f"{path.name}:{number}: {match.group(0)}"
             for path in [*MODULES, PACKAGE / "__init__.py"]
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             for match in word.finditer(line)]
    assert not found, f"a second scalar layout in the package: {found}"


def test_spinor_fields_have_one_layout():
    # a SpinorField holds slots only; the symmetric-tuple realization is a
    # plain dict {primed multi-index: ExtForm}, so no module tags a field "tuple"
    from cfx.exterior import ExtForm
    from cfx.poly import x_vars
    from cfx.spinor import SpinorField

    tagged = [f"{path.name} (line {node.lineno})" for path in [*MODULES, PACKAGE / "__init__.py"]
              for node in ast.walk(_tree(path))
              if isinstance(node, ast.Constant) and node.value == "tuple"]
    assert not tagged, f"the string constant 'tuple' in {tagged}"
    assert "tuples" not in SpinorField.__slots__
    zero = ExtForm.zero(2, 0, x_vars(2))
    with pytest.raises(ValueError, match="unknown basis tag"):
        SpinorField(1, "tuple", [zero, zero])
    with pytest.raises(TypeError):
        SpinorField(0, "S", [zero], dim=2)


# exponent-tuple arithmetic: a monomial product, a lowered variable or a
# substituted axis built as a new tuple.  Packed keys are added, shifted and
# masked instead; a tuple exists only at the pack/unpack edge of poly.py
TUPLE_ARITHMETIC = re.compile(r"tuple\(map\(add\b|\bexpo\[:")
MONOMIAL_EDGE = {("poly.py", "pack"), ("poly.py", "unpack")}


def _enclosing_function(tree: ast.Module, line: int) -> str:
    """The innermost function whose body spans ``line``; "" at module level."""
    spans = [(node.lineno, node.end_lineno, node.name) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    inside = [span for span in spans if span[0] <= line <= span[1]]
    return max(inside)[2] if inside else ""


def test_monomials_have_one_layout(tmp_path, monkeypatch):
    # every numerator dict keys its terms by packed ints (poly.pack); the
    # tuple kernels they replaced are references in test_monomials.py
    from cfx import poly

    found = []
    for path in MODULES:
        tree = _tree(path)
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if TUPLE_ARITHMETIC.search(line):
                owner = _enclosing_function(tree, number)
                if (path.name, owner) not in MONOMIAL_EDGE:
                    found.append(f"{path.name}:{number} in {owner or 'module level'}")
    assert not found, f"exponent-tuple arithmetic outside the pack/unpack edge: {found}"

    # and every key the program builds is an int, through either constructor
    keys = []
    make, init = poly.Poly._make.__func__, poly.Poly.__init__

    def checked_make(cls, variables, num, den=1):
        keys.extend(map(type, num))
        return make(cls, variables, num, den)

    def checked_init(self, variables, terms=None):
        init(self, variables, terms)
        keys.extend(map(type, self.num))

    monkeypatch.setattr(poly.Poly, "_make", classmethod(checked_make))
    monkeypatch.setattr(poly.Poly, "__init__", checked_init)
    codes = _program_traffic(tmp_path)
    assert codes == [0] * len(codes), codes
    assert keys and set(keys) == {int}, f"Poly.num keys of types {set(keys)}"


# float() and complex() calls the exact package makes: `cfx ma` rounds its exact
# values once, where the report is written, and samples its sup norms in floats
FLOAT_CALLS = {("ma.py", "_float"): {"float"},
               ("ma.py", "sup_norm_on_grid"): {"complex"}}


def _float_calls(tree: ast.Module) -> list:
    """(enclosing function, name, line) of every float() and complex() call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("float", "complex")):
                found.append((owner, child.func.id, child.lineno))
            visit(child, owner)

    visit(tree, "module level")
    return found


@pytest.mark.parametrize("path", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_floats_only_at_the_ma_report_edge(path):
    # every verdict is exact: a float tolerance or float arithmetic elsewhere
    # would bring float verdicts back
    tree = _tree(path)
    sites = [f"{name}() in {owner} (line {line})" for owner, name, line in _float_calls(tree)
             if name not in FLOAT_CALLS.get((path.name, owner), ())]
    if path.name != "ma.py":
        sites += [f"literal {node.value!r} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) in (float, complex)]
    assert not sites, f"{path.name}: float sites outside the report edge {sites}"


# functions that may delete a key from a dict: poly.add_term is the one merge
# of a numerator dict, and exterior.put_component the one store-or-delete of
# a form component (a Poly, or the numerator dict frak_d and wedge build)
KEY_DELETIONS = {("poly.py", "add_term"), ("exterior.py", "put_component")}


def _key_deletions(tree: ast.Module) -> list:
    """(qualified function name, line) of every ``del x[k]`` and ``.pop``/``.popitem`` call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Delete) and any(
                    isinstance(t, ast.Subscript) for t in child.targets):
                found.append((owner, child.lineno))
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in ("pop", "popitem")):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(tree, "")
    return found


def test_only_add_term_merges_into_a_numerator_dict():
    # the layout's no-(0, 0) rule lives in poly.add_term: a builder that
    # deletes a cancelled key itself restates it, so only the named sites may
    sites = {(path.name, owner): line for path in MODULES
             for owner, line in _key_deletions(_tree(path))}
    stray = sorted(f"{name}: {owner or 'module level'} (line {line})"
                   for (name, owner), line in sites.items() if (name, owner) not in KEY_DELETIONS)
    assert not stray, f"dict key deletions outside poly.add_term {stray}"
    assert set(sites) == KEY_DELETIONS, "an allowed deletion site is gone: update KEY_DELETIONS"


def _names_called(tree: ast.Module) -> dict:
    """Qualified function name -> names it calls (bare or as an attribute)."""
    calls = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(owner, set()).add(called)
            visit(child, owner)

    visit(tree, "")
    return calls


def test_the_exterior_layout_has_one_home():
    # the wedge sign is exterior.insert_index (merge_sign folds it), the
    # only user of bisect; boundary and flat restate no exterior rule; the
    # component product is poly.mul_into, in Poly and in ExtForm.wedge
    bisect_users = sorted(path.name for path in [*MODULES, PACKAGE / "__init__.py"]
                          for node in ast.walk(_tree(path))
                          if (isinstance(node, ast.Import)
                              and any(a.name == "bisect" for a in node.names))
                          or (isinstance(node, ast.ImportFrom) and node.module == "bisect"))
    assert bisect_users == ["exterior.py"], bisect_users
    exterior = _names_called(_tree(PACKAGE / "exterior.py"))
    assert [owner for owner, names in exterior.items() if "bisect_left" in names] == \
        ["insert_index"]
    assert "insert_index" in exterior["merge_sign"]
    assert "mul_into" in exterior["ExtForm.wedge"]
    assert "mul_into" in _names_called(_tree(PACKAGE / "poly.py"))["Poly.__mul__"]
    for name in ("boundary.py", "flat.py"):
        named = {node.id for node in ast.walk(_tree(PACKAGE / name))
                 if isinstance(node, ast.Name)}
        assert not named & {"merge_sign", "bisect_left", "bisect"}, name


def test_wedge_builds_no_poly_per_pair(monkeypatch):
    # ExtForm.wedge adds every pair of components into one numerator dict
    # per merged index: no Poly product, scaling or sum
    from cfx.exterior import ExtForm
    from cfx.poly import Poly, x_vars
    from cfx.randgen import SectionGenerator

    V = x_vars(4)
    gen = SectionGenerator(12, degree=2)
    pairs = []
    for t in range(30):
        g = gen.spawn(t)
        f = g.form(5, t % 3, V).scale(Fraction(t + 1, 6))
        pairs.append((f, g.form(5, 1 + t % 2, V).scale(Fraction(5, t + 2))))
    want = [f.wedge(h) for f, h in pairs]

    def forbidden(*args, **kwargs):
        raise AssertionError("Poly arithmetic inside ExtForm.wedge")

    for name in ("__mul__", "scale", "__add__"):
        monkeypatch.setattr(Poly, name, forbidden)
    got = [f.wedge(h) for f, h in pairs]
    assert got == want and sum(not form.is_zero() for form in got) > 20


def test_symbol_and_classify_run_on_ints(monkeypatch):
    # symbol ranks and the classification take no ExtForm wedge once the
    # spec and the group are built
    from cfx.exterior import ExtForm
    from cfx.flat import ComplexSpec, check_exactness
    from cfx.groups import GroupSpec, classify
    from cfx.randgen import SectionGenerator

    spec = ComplexSpec(2, 2)
    gen = SectionGenerator(3)
    v = gen.rational_vector(12)
    group = GroupSpec(2, gen.symmetric_matrix(8))

    def forbidden(*args, **kwargs):
        raise AssertionError("rational or exterior arithmetic on an integer path")

    monkeypatch.setattr(ExtForm, "wedge", forbidden)
    assert check_exactness(spec, v)["exact"]
    result = classify(group)
    assert not result["right_type"] and result["block_certificates"]


def test_sections_and_frames_are_built_on_ints(monkeypatch):
    # random sections, the inputs of `cfx ma` and a group's horizontal fields
    # are built straight in the integer layout: no validated Poly and no Poly sum
    from cfx.groups import GroupSpec, horizontal_fields
    from cfx.poly import Poly, group_vars, x_vars
    from cfx.randgen import SectionGenerator
    from test_poly import total_degree

    gen = SectionGenerator(5, degree=4, terms=4)
    groups = [GroupSpec(2, gen.symmetric_matrix(8)), GroupSpec(1, gen.right_type_matrix(1)),
              GroupSpec(1, [[x / 6 for x in row] for row in gen.symmetric_matrix(4)])]

    def forbidden(*args, **kwargs):
        raise AssertionError("validated Poly or rational arithmetic on an integer path")

    for cls, name in ((Poly, "__init__"), (Poly, "__add__")):
        monkeypatch.setattr(cls, name, forbidden)
    V = x_vars(8)
    for t in range(20):
        g = gen.spawn(t)
        assert not g.slot_field(2, "S", 4, 1, V).is_zero()
        assert not all(form.is_zero() for form in g.tuple_field(2, 4, 2, V).values())
        assert total_degree(g.psh_quadratic(group_vars(2), 8)) == 2
    for group in groups:
        fields = horizontal_fields(group)
        assert len(fields) == 4 * group.n and all(len(X.num) > 1 for X in fields)


def test_condition_h_runs_on_ints(monkeypatch):
    # once the group, its integer brackets and the grid are built, condition H
    # takes no Fraction arithmetic and no rank: Pfaffians and int forms only
    from fractions import Fraction

    from cfx import groups, linalg
    from cfx.groups import GroupSpec, check_condition_H
    from cfx.randgen import SectionGenerator

    dense = [[x / 6 for x in row] for row in SectionGenerator(7).symmetric_matrix(8)]
    cases = [GroupSpec.right_qh(3), GroupSpec(2, dense), GroupSpec.abelian(2)]
    for g in cases:
        assert g.integer_brackets
    groups._direction_grid(4)

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction arithmetic or a rank on the condition-H path")

    for name in ("add", "sub", "mul", "truediv", "pow"):
        for prefix in ("__", "__r"):
            monkeypatch.setattr(Fraction, f"{prefix}{name}__", forbidden)
    for module in (groups, linalg):
        monkeypatch.setattr(module, "bareiss", forbidden)
    verdicts = [check_condition_H(g, mode)["verdict"] for g in cases
                for mode in ("sampled", "exact")]
    assert verdicts == ["sampled-true"] * 4 + ["false"] * 2


def test_groups_are_read_through_one_integer_view(monkeypatch):
    # from a validated Fraction S on, a group takes no Fraction arithmetic:
    # its brackets, classification, tangent frame and the condition-H grid
    # all read (den, den S)
    from cfx import groups
    from cfx.boundary import TangentFrame
    from cfx.groups import GroupSpec, classify
    from cfx.randgen import SectionGenerator

    gen = SectionGenerator(11)
    matrices = [[[x / 6 for x in row] for row in S]
                for S in (gen.symmetric_matrix(8), gen.right_type_matrix(2))]

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction arithmetic on a group's path")

    for name in ("add", "sub", "mul", "truediv", "pow"):
        for prefix in ("__", "__r"):
            monkeypatch.setattr(Fraction, f"{prefix}{name}__", forbidden)
    groups._direction_grid.cache_clear()
    assert len(groups._direction_grid(4)) == 9 ** 3 - 7 ** 3
    right = []
    for S in matrices:
        g = GroupSpec(2, S)
        assert g.integer_S[0] == 6
        result = classify(g, "exact")
        assert result["routes_agree"]
        frame = TangentFrame(g)
        assert frame.right_type == result["right_type"]
        right.append(frame.right_type)
    assert right == [False, True]


def test_operator_algebra_runs_on_ints(monkeypatch):
    # a frame's rows and translations, the bracket check's commutators and
    # table comparisons, and the Leibniz step of a cutoff jet work on the
    # operators' integer tables: no Poly sum or product
    from cfx.boundary import TangentFrame, bracket_identity
    from cfx.groups import GroupSpec
    from cfx.poly import Poly
    from cfx.quadrature import CutoffJet
    from cfx.randgen import SectionGenerator

    groups = [GroupSpec.left_qh(2), GroupSpec(2, SectionGenerator(9).right_type_matrix(2))]

    def forbidden(*args, **kwargs):
        raise AssertionError("Poly or rational arithmetic in the operator algebra")

    for cls, name in ((Poly, "__add__"), (Poly, "__mul__")):
        monkeypatch.setattr(cls, name, forbidden)
    verdicts = []
    for group in groups:
        frame = TangentFrame(group)
        verdicts.append((frame.right_type, bracket_identity(frame)["pass"]))
        # Z chi = sum_v c_v d_v chi: one part per coefficient, none at alpha = 0
        row = frame.Z_lower[1][0]
        jet = CutoffJet.bump(frame.vars).apply_op(row)
        assert len(jet.parts) == len(row.num) > 2
    assert verdicts == [(False, True), (True, True)]


# names the benchmark tooling still asks for although the package no longer
# has them: predictions for deleted functions and wrap-table entries for
# deleted methods.  A change that deletes or renames a predicted or wrapped
# name adds it here, so the stale list only grows on purpose.  ROADMAP
# item 1 mends them in bench/ and empties the set
STALE_BENCH_NAMES = {
    "groups.central_pairing_det",
    "groups.central_pairing_det_poly",
    "quadrature.uni_integral",
    "operators.SecondOrderOp.apply",
    "quadrature.SeparableSum.integrate_box",
    # the scalar class left the package: its predictions and METHODS entries
    "rational.new",
    "rational.mul",
    "rational.add",
    "rational.div",
    "rational.ComplexRational.__init__",
    "rational.ComplexRational.__mul__",
    "rational.ComplexRational.__add__",
    "rational.ComplexRational.__truediv__",
}


def test_stale_benchmark_names_are_exactly_the_listed_ones(monkeypatch):
    # predictions resolve as bench/test_bench.py resolves them: a name ending
    # in ".*" is a module prefix, any other name is a traced function name
    import importlib.util
    import json

    import cfx.cli  # noqa: F401  (loads every module the CLI uses)

    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look the module up
    spec.loader.exec_module(tracer)
    known = set(tracer.discover().values())
    predictions = json.loads((REPO / "bench" / "predictions.json").read_text(encoding="utf-8"))
    stale = set()
    for pattern in [*predictions["calls_nonzero"], *predictions["calls_zero"]]:
        if pattern.endswith(".*"):
            if not any(name.startswith(pattern[:-1]) for name in known):
                stale.add(pattern)
        elif pattern not in known:
            stale.add(pattern)
    modules = tracer._cfx_modules()
    for short, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(modules.get(f"cfx.{short}"), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            stale.add(f"{short}.{cls_name}.{attr}")
    assert stale == STALE_BENCH_NAMES


# -- every definition is reached by the program ------------------------------------------------

# src/cfx functions and methods that the traffic below never enters, each
# with the reason it stays in the package.  A change that leaves a
# definition unreached moves it to the tests or names it here, so this set
# only changes on purpose
UNREACHED = {
    "groups.quaternion_relations_ok": "the acceptance suite imports it",
    "groups.mat_mul": "quaternion_relations_ok multiplies the quaternion units with it",
    "randgen.SectionGenerator.right_type_matrix": "the acceptance suite draws groups with it",
    "poly.Poly.var": "bench/test_bench.py builds polynomials with it",
    "poly.Poly.diff": "bench/tracer.py wraps it (METHODS)",
    "poly.Poly.terms": "bench/tracer.py counts terms with it (COUNTERS)",
    "reports.Report.passed": "the acceptance gate reads it",
}

# value-type protocol methods: Python calls them implicitly, and a type keeps
# them whether or not the traffic happens to compare, hash or print a value
PROTOCOL_METHODS = {"__setattr__", "__str__", "__repr__", "__eq__", "__hash__", "__bool__",
                    "__len__"}


def _definitions() -> dict:
    """(resolved path, first line) -> "module.Qualified.name" of every function
    and method in the package; the first line is the first decorator's, as in
    the code object."""
    found = {}
    for path in MODULES:
        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{owner}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        found[(path.resolve(), first)] = name
                    visit(child, name)

        visit(_tree(path), path.stem)
    return found


def _program_traffic(tmp_path) -> list:
    """Run every cfx subcommand on each --group, an {"n", "S"} and a {"phi"}
    group file, --u, --v, --format csv and --out, and the main of the three
    experiment scripts, all at small sizes; return the exit codes."""
    import contextlib
    import importlib.util
    import io
    import json

    from cfx.cli import main

    x4 = [f"x{i}" for i in range(1, 5)]
    right = [["-3", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    phi = [{"c": c, "e": e} for c, e in (("-3", [2, 0, 0, 0, 0]), ("1", [0, 2, 0, 0, 0]),
                                         ("1/2", [1, 0, 1, 0, 0]), ("1", [0, 0, 0, 2, 0]))]
    u = [{"c": "1", "e": [2, 0, 0, 0, 0, 0, 0]}, {"c": "1/3", "e": [0, 1, 1, 0, 0, 0, 0]}]
    files = {"S.json": {"n": 1, "S": right},
             "phi.json": {"phi": {"vars": [*x4, "t1"], "terms": phi}},
             "u.json": [{"vars": [*x4, "t1", "t2", "t3"], "terms": u}]}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    S, PHI, U, OUT = (str(tmp_path / name) for name in (*files, "out.json"))
    one = ("--n", "1", "--trials", "1")
    argvs = [
        ["classify", "--group", "rightQH", "--n", "1"],
        ["classify", "--group", "leftQH", "--n", "1", "--condition-h", "exact"],
        ["classify", "--group", "abelian", "--n", "1", "--format", "csv"],
        ["classify", "--file", S, "--out", OUT],
        ["classify", "--file", PHI],
        # k = 0 at n = 1: the ascending tuple branch symmetrizes two primed indices
        ["verify", "flat", *one, "--k", "0", "--degree", "2"],
        ["verify", "boundary", "--group", "rightQH", *one, "--k", "1", "--check", "all"],
        ["verify", "boundary", "--group", "leftQH", "--n", "2", "--trials", "1", "--k", "1",
         "--degree", "1", "--check", "composition"],
        ["verify", "boundary", "--group", "abelian", "--n", "2", "--trials", "1", "--k", "1",
         "--degree", "1", "--check", "subcomplex"],
        ["verify", "boundary", "--file", PHI, "--trials", "1", "--check", "anticommute"],
        ["symbol", "--n", "1", "--k", "1", "--v", "1,2,0,0,0,0,0,1/2", "--trials", "1",
         "--format", "csv"],
        ["ma", "--group", "rightQH", "--n", "1", "--u", U],
        ["ma", "--group", "rightQH", "--n", "2", "--power", "1"],
    ]
    scripts = {"classify_random": (3, 1), "symbol_table": (1, 1), "ma_convergence": (64, 7)}
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes += [main(argv) for argv in argvs]
        for name, args in scripts.items():
            spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            codes.append(module.main(*args))
    return codes


def test_every_definition_is_reached_by_the_program(tmp_path):
    # a definition that no command and no experiment script enters is test
    # code: it belongs in the test module that uses it.  Unlike the name
    # checks above, this one sees methods by class and sees operators
    import cfx.cli  # noqa: F401  (loads every module the CLI uses)

    # a cached function or method is entered only on a miss: start from
    # empty caches
    for name, module in list(sys.modules.items()):
        if name.startswith("cfx."):
            for value in vars(module).values():
                members = vars(value).values() if isinstance(value, type) else ()
                for cached in (value, *members):
                    if hasattr(cached, "cache_clear"):
                        cached.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = _program_traffic(tmp_path)
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(codes), codes
    lines = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in entered}
    unreached = {name for key, name in _definitions().items()
                 if key not in lines and name.rsplit(".", 1)[1] not in PROTOCOL_METHODS}
    assert unreached == set(UNREACHED), (
        f"never entered and not in UNREACHED: {sorted(unreached - set(UNREACHED))}; "
        f"in UNREACHED but entered: {sorted(set(UNREACHED) - unreached)}")
