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


def test_only_randgen_imports_random():
    # every seeded draw goes through randgen.SectionGenerator
    importers = []
    for path in [*MODULES, PACKAGE / "__init__.py"]:
        for node in _module_imports(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                names = [alias.name for alias in node.names]
            if any(name.split(".")[0] == "random" for name in names):
                importers.append(path.name)
    assert importers == ["randgen.py"], importers


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
    "seeded sampling in randgen (_sha2 on Python 3.12+)": {
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


# Every functools cache in the package (lru_cache, cache, cached_property), by
# the reason it stays: what it saved when the calls of two benchmark rounds
# were replayed with and without it, interleaved, median of 21 reps (seeds
# 2719, 3571 and 9277; BENCH_51.json, "replay").  A speed-only path goes when
# the median over the seeds of its saving is under 0.5% of the in-process
# time of every workload it serves; see ROADMAP, "speed-only paths, measured".
CACHES = {
    "the argparse tree: about 0.9 ms a build, one build per main call, "
    "31-66% of every workload": {"cli.build_parser"},
    "one frame per n and the kernels it builds: 24.2-24.9 ms over the 240 calls of two "
    "flat rounds and 13.4-13.9 ms over 136 of symbol-classify for the frame builds "
    "alone, 117% and 24-32% of them": {"boundary.ambient_frame"},
    "the symbol's basis tables: 0.83-0.86 ms over the 68 calls of two rounds, "
    "1.4-2.0% of symbol-classify": {"spinor.LevelTable.symbol_table"},
    "the slot rule: 0.19-0.20 ms over the 172 calls of two flat rounds, 0.89-0.92% of "
    "flat": {"spinor.LevelTable.slot_rule"},
    "the moment tables: 1.39-1.40 ms over the 1362-1402 calls of two rounds, "
    "1.4-1.5% of boundary-ma": {"quadrature._moments"},
    "condition H's direction grid: 3.6-3.7 ms over the 12 builds of two rounds, "
    "6.2-8.6% of symbol-classify": {"groups._direction_grid"},
    "the brackets of a group: 0.92-1.47 ms over the 36 reads (12 groups) of two rounds, "
    "2.2-2.9% of symbol-classify; boundary-ma reads none (BENCH_53.json)": {
        "groups.GroupSpec.integer_brackets"},
}


def _cached_definitions() -> set:
    """'module.name' or 'module.Class.name' of every function the package
    decorates with functools' lru_cache, cache or cached_property."""
    kinds = {"lru_cache", "cache", "cached_property"}
    found = set()

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(
                        target, "id", None)
                    if name in kinds:
                        found.add(f"{prefix}{node.name}")
                visit(node.body, f"{prefix}{node.name}.")

    for path in MODULES:
        visit(_tree(path).body, f"{path.stem}.")
    return found


def test_every_cache_is_listed_with_its_measured_reason():
    listed = set().union(*CACHES.values())
    found = _cached_definitions()
    assert found - listed == set(), f"caches without a measured reason: {sorted(found - listed)}"
    assert listed - found == set(), f"listed caches that are gone: {sorted(listed - found)}"


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
# values once, where the report is written
FLOAT_CALLS = {("ma.py", "_float"): {"float"}}


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


# one reader per kind of exact input, in rational.py: an int a caller hands in
# is checked by exact_int, never coerced by int(), and a rational is read by
# exact_fraction or, from text, parse_fraction.  The single-argument
# Fraction() calls left elsewhere read no caller's value, each named here
# with its reason
FRACTION_CALLS = {
    ("quadrature.py", "_integrate"): "the exact zero pair of an empty integrand",
    ("randgen.py", "SectionGenerator.symmetric_matrix"):
        "the generator's own draws and the Fraction(0) fill of its matrix",
}


def _coercions(tree: ast.Module) -> list:
    """(enclosing qualified name, call, line) of every int() call and every
    single-argument Fraction() call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and (
                    child.func.id == "int" or child.func.id == "Fraction"
                    and len(child.args) + len(child.keywords) == 1):
                found.append((owner or "module level", child.func.id, child.lineno))
            visit(child, owner)

    visit(tree, "")
    return found


@pytest.mark.parametrize("path", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_exact_input_is_read_only_in_rational(path):
    if path.name == "rational.py":
        return
    sites = [f"{name}() in {owner} (line {line})"
             for owner, name, line in _coercions(_tree(path))
             if name == "int" or (path.name, owner) not in FRACTION_CALLS]
    assert not sites, f"{path.name}: a second reader of exact input {sites}"


def test_every_listed_fraction_call_is_still_there():
    found = {(path.name, owner) for path in MODULES
             for owner, name, _ in _coercions(_tree(path)) if name == "Fraction"}
    assert set(FRACTION_CALLS) <= found, sorted(set(FRACTION_CALLS) - found)


# functions that may delete a key from a dict: poly.add_term is the one merge
# of a numerator dict (a Poly's, an operator's, a form's or a cutoff jet's)
KEY_DELETIONS = {("poly.py", "add_term")}


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


# the functions that call poly.reduce_gaussian and the classes that define
# __setattr__ or __eq__, each with its reason.  The canonical rules of the
# packed layout (gcd 1, den 1 for zero, exact ==) live in poly.Packed, which
# Poly, ExtForm, FirstOrderOp and CutoffJet subclass, and the immutability
# of every record in poly.Immutable: a kind that restates them adds a site
# here on purpose
CANONICAL_SITES = {
    ("poly.py", "Packed._make"): "the trusted constructor of every packed kind",
    ("exterior.py", "ExtForm._make"): "a form's shape adds dim and degree, checked on the way in",
    ("poly.py", "Immutable"): "the one __setattr__: every record and value is immutable",
    ("poly.py", "Packed"): "the one value type of the layout: exact ==",
    ("boundary.py", "BoundaryField"): "a lead and a companion field, compared field by field",
    ("spinor.py", "SpinorField"): "the form slots of a spinor field, compared slot by slot",
    ("spinor.py", "LevelTable"): "an immutable (n, k) record, hashed by the slot-rule caches",
}


def _class_names(cls: ast.ClassDef) -> set:
    """The names a class body binds with ``def`` or a plain assignment."""
    names = set()
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            names.add(item.name)
        elif isinstance(item, ast.Assign):
            names.update(getattr(target, "id", None) for target in item.targets)
    return names


def _canonical_sites(tree: ast.Module) -> set:
    """The qualified name of every function that calls ``reduce_gaussian``
    and every class that defines ``__setattr__`` or ``__eq__``."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
                if (isinstance(child, ast.ClassDef)
                        and _class_names(child) & {"__setattr__", "__eq__"}):
                    found.add(name)
                visit(child, name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "reduce_gaussian"):
                found.add(owner)
            visit(child, owner)

    visit(tree, "")
    return found


def test_the_canonical_rules_have_one_home():
    sites = {(path.name, owner) for path in MODULES for owner in _canonical_sites(_tree(path))}
    stray = sorted(f"{name}: {owner or 'module level'}"
                   for name, owner in sites - set(CANONICAL_SITES))
    assert not stray, f"reduce_gaussian calls or __setattr__/__eq__ outside the allow-list {stray}"
    assert sites == set(CANONICAL_SITES), "an allowed site is gone: update CANONICAL_SITES"
    from cfx.exterior import ExtForm
    from cfx.operators import FirstOrderOp
    from cfx.poly import Packed, Poly
    from cfx.quadrature import CutoffJet

    for kind in (Poly, ExtForm, FirstOrderOp, CutoffJet):
        assert kind.__bases__ == (Packed,), kind


def test_immutability_has_one_home():
    # one __setattr__, poly.Immutable's, and one object.__setattr__ alias,
    # poly._set, through which every immutable kind sets its attributes once
    from cfx.boundary import BoundaryField
    from cfx.groups import GroupSpec
    from cfx.ma import Region
    from cfx.poly import Immutable, Packed, Poly
    from cfx.spinor import LevelTable, SpinorField

    defs = sorted(f"{path.name}:{node.lineno}" for path in MODULES
                  for node in ast.walk(_tree(path))
                  if isinstance(node, ast.FunctionDef) and node.name == "__setattr__")
    aliases = sorted(f"{path.name}:{node.lineno}" for path in MODULES
                     for node in ast.walk(_tree(path))
                     if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                     and isinstance(node.value, ast.Name) and node.value.id == "object")
    assert len(defs) == 1 and defs[0].startswith("poly.py:"), defs
    assert len(aliases) == 1 and aliases[0].startswith("poly.py:"), aliases
    for kind in (Packed, GroupSpec, Region, SpinorField, LevelTable, BoundaryField):
        assert issubclass(kind, Immutable), kind
    assert "__slots__" in vars(Immutable) and not Immutable.__slots__
    for value in (Poly.const(("x",), 1), GroupSpec(1, [[int(i == j) for j in range(4)]
                                                       for i in range(4)]),
                  Region((0,), (1,))):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            value.anything = 0


def test_constructors_merge_through_one_routine():
    # the public constructors of Poly, ExtForm and FirstOrderOp merge their
    # canonical parts over the lcm of their dens in poly._merge, and a form's
    # or an operator's coefficient is read by poly._coefficient; Fractions
    # go to ints over the lcm of their denominators in
    # rational.clear_denominators alone
    calls = {f"{path.name}:{owner}": names for path in MODULES
             for owner, names in _names_called(_tree(path)).items()}
    merging = sorted(site for site, names in calls.items() if "_merge" in names)
    assert merging == ["exterior.py:ExtForm.__init__", "operators.py:FirstOrderOp.__init__",
                       "poly.py:Poly.__init__"], merging
    reading = sorted(site for site, names in calls.items() if "_coefficient" in names)
    assert reading == ["exterior.py:ExtForm.__init__",
                       "operators.py:FirstOrderOp.__init__"], reading
    clearing = sorted((path.name, _enclosing_function(tree, node.lineno))
                      for path in MODULES for tree in [_tree(path)] for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lcm"
                      and any(isinstance(sub, ast.Attribute) and sub.attr == "denominator"
                              for arg in node.args for sub in ast.walk(arg)))
    assert clearing == [("rational.py", "clear_denominators")], clearing


def test_a_coefficient_on_another_table_is_refused_with_one_message():
    # every site of the one variable-table check, poly.Packed._check, on two
    # tables of one width: each names the two tables in the same words
    from cfx.boundary import ambient_frame, frak_d
    from cfx.exterior import ExtForm
    from cfx.operators import FirstOrderOp
    from cfx.poly import Poly
    from cfx.quadrature import CutoffJet, integrate_jets
    from cfx.spinor import SpinorField

    frame = ambient_frame(1)
    table = frame.vars
    other = table[:-1] + ("y",)
    coeff = Poly.var(other, "x1", Fraction(1, 2))
    form, form2 = (ExtForm.zero(frame.dim, 1, v) for v in (table, other))
    op, op2 = (FirstOrderOp.partial(v, "x1") for v in (table, other))
    jet = CutoffJet.bump(table)
    box = [0] * len(table), [1] * len(table)
    sites = {
        "ExtForm coefficient": (lambda: ExtForm(2, 1, table, {(0,): coeff}), table),
        "FirstOrderOp coefficient": (lambda: FirstOrderOp(table, {"x1": coeff}), table),
        "Poly +": (lambda: Poly.zero(table) + coeff, table),
        "Poly *": (lambda: Poly.zero(table) * coeff, table),
        "ExtForm +": (lambda: form + form2, table),
        "ExtForm -": (lambda: form - form2, table),
        "ExtForm.wedge": (lambda: form.wedge(form2), table),
        "frak_d": (lambda: frak_d(0, form2, frame), other),
        "FirstOrderOp.apply": (lambda: op.apply(form2), table),
        "FirstOrderOp.commutator": (lambda: op.commutator(op2), table),
        "CutoffJet.apply_op": (lambda: jet.apply_op(op2), table),
        "integrate_jets": (lambda: integrate_jets(*box, [[(jet, Poly.zero(other))]]), table),
        "SpinorField": (lambda: SpinorField(1, "S", [form, form2]), table),
    }
    messages = {}
    for site, (call, first) in sites.items():
        with pytest.raises(ValueError) as info:
            call()
        second = other if first == table else table
        messages[site] = str(info.value) == f"variable tables differ: {first} vs {second}"
    assert all(messages.values()), messages


def _owned_nodes(tree: ast.Module):
    """(qualified name of the innermost enclosing def or class, node) for every node."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            yield owner, child
            yield from visit(child, owner)

    yield from visit(tree, "")


def _compared_attributes(node: ast.Compare, attr: str) -> int:
    """How many operands of an ``==``/``!=`` comparison read ``.attr``,
    directly or as an element of a tuple."""
    if not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
        return 0
    count = 0
    for operand in (node.left, *node.comparators):
        items = operand.elts if isinstance(operand, ast.Tuple) else [operand]
        count += any(isinstance(item, ast.Attribute) and item.attr == attr for item in items)
    return count


# the functions that compare a variable table (``.vars``) with ``==`` or
# ``!=``, each with its reason; a new comparison restates the rule that
# poly.Packed._check holds
VARS_COMPARISONS = {
    ("poly.py", "Packed._check"): "the one variable-table check of two operands",
    ("boundary.py", "frak_d"): "a guard that raises through ExtForm._check: a call per "
                               "frak_d costs 0.2-0.4% of flat (BENCH_54.json, replay)",
    ("cli.py", "cmd_ma"): "outside input: a --u file's table against the group's, "
                          "with the command's own message",
}

# the functions whose messages name a variable table, each with its reason
VARIABLE_TABLE_MESSAGES = {
    ("poly.py", "Packed._check"): "the one message of two operands on two tables",
    ("poly.py", "Poly.__init__"): "outside input: an exponent vector needs one exponent "
                                  "per variable (a --u file reaches it)",
    ("quadrature.py", "_check_box"): "a box needs one axis per variable",
    ("quadrature.py", "_integrate"): "a face axis must be one of the box's axes",
}


def test_operand_rules_have_one_home():
    # one variable-table check (poly.Packed._check), one form-shape check
    # (ExtForm._check, which adds the dim and degree tests), and values that
    # combine only with their own kind: Poly has no scalar coercion of its own
    from cfx.poly import Poly

    vars_sites, dim_sites, message_sites = set(), set(), set()
    for path in MODULES:
        tree = _tree(path)
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        for owner, node in _owned_nodes(tree):
            if isinstance(node, ast.Compare):
                if _compared_attributes(node, "vars"):
                    vars_sites.add((path.name, owner))
                if _compared_attributes(node, "dim") >= 2:
                    dim_sites.add((path.name, owner))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "variable table" in node.value and id(node) not in docstrings):
                message_sites.add((path.name, owner))
    assert vars_sites == set(VARS_COMPARISONS), sorted(vars_sites)
    # frak_d's guard reads the form's dim and vars, as VARS_COMPARISONS says
    assert dim_sites == {("exterior.py", "ExtForm._check"), ("boundary.py", "frak_d")}, \
        sorted(dim_sites)
    assert message_sites == set(VARIABLE_TABLE_MESSAGES), sorted(message_sites)
    checking = sorted(f"{path.name}:{owner}" for path in MODULES
                      for owner, names in _names_called(_tree(path)).items() if "_check" in names)
    assert checking == [
        "boundary.py:frak_d", "exterior.py:ExtForm._check", "exterior.py:ExtForm.wedge",
        "operators.py:FirstOrderOp.apply", "operators.py:FirstOrderOp.commutator",
        "poly.py:Packed.__add__", "poly.py:Packed.__sub__", "poly.py:Poly.__mul__",
        "poly.py:_coefficient", "quadrature.py:CutoffJet.apply_op",
        "quadrature.py:integrate_jets", "spinor.py:SpinorField.__init__"], checking
    assert not {"__sub__", "__radd__", "__rmul__"} & set(vars(Poly))


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
    # the wedge sign is exterior.wedge_sign, the parity of the mask bits
    # below the inserted index: the package's only popcount, folded by
    # merge_sign.  The fields past the variables' fields (a form's index
    # mask, an operator's or a jet's alpha) are placed and grouped only in
    # poly.py (_past_table and _split hand them out).  boundary and flat read
    # the sign and restate no exterior rule; the component product is
    # poly.mul_into, in Poly and in ExtForm.wedge
    bisect_users = sorted(path.name for path in [*MODULES, PACKAGE / "__init__.py"]
                          for node in ast.walk(_tree(path))
                          if (isinstance(node, ast.Import)
                              and any(a.name == "bisect" for a in node.names))
                          or (isinstance(node, ast.ImportFrom) and node.module == "bisect"))
    assert bisect_users == [], bisect_users
    parities = sorted(f"{path.name}:{owner}" for path in MODULES
                      for owner, names in _names_called(_tree(path)).items()
                      if "bit_count" in names)
    assert parities == ["exterior.py:wedge_sign"], parities
    placed = sorted({path.name for path in MODULES
                     if re.search(r"BITS \* len\(", path.read_text(encoding="utf-8"))})
    assert placed == ["poly.py"], placed
    exterior = _names_called(_tree(PACKAGE / "exterior.py"))
    assert "wedge_sign" in exterior["merge_sign"]
    assert {"merge_sign", "mul_into"} <= exterior["ExtForm.wedge"]
    assert "mul_into" in _names_called(_tree(PACKAGE / "poly.py"))["Poly.__mul__"]
    for name in ("boundary.py", "flat.py"):
        named = {node.id for node in ast.walk(_tree(PACKAGE / name))
                 if isinstance(node, ast.Name)}
        assert not named & {"merge_sign", "bisect_left", "bisect", "insertions"}, name
        assert "wedge_sign" in named, name


def test_forms_have_one_layout(tmp_path, monkeypatch):
    # a form is one packed numerator dict (exterior.py): outside exterior.py
    # no module builds a form from an {index tuple: Poly} dict or reads the
    # per-component view wholesale, and every form the fixed traffic builds
    # has int keys and Gaussian-integer numerators; the per-component
    # reference is tests/test_exterior.py's RefForm
    from cfx.exterior import ExtForm
    from cfx.poly import Poly

    readers = [f"{path.name} (line {node.lineno})" for path in MODULES
               if path.name != "exterior.py" for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute) and node.attr == "comps"]
    assert not readers, f"the per-component view read outside exterior.py: {readers}"

    kinds, callers = set(), []
    init, public = ExtForm._init, ExtForm.__init__

    def checked_init(self, dim, degree, variables, num, den):
        kinds.update((type(key), type(re), type(im)) for key, (re, im) in num.items())
        init(self, dim, degree, variables, num, den)

    def checked_public(self, dim, degree, variables, comps=None):
        if comps and any(isinstance(c, Poly) for c in comps.values()):
            callers.append(Path(sys._getframe(1).f_code.co_filename).name)
        public(self, dim, degree, variables, comps)

    monkeypatch.setattr(ExtForm, "_init", checked_init)
    monkeypatch.setattr(ExtForm, "__init__", checked_public)
    codes = _program_traffic(tmp_path)
    assert codes == [0] * len(codes), codes
    assert kinds == {(int, int, int)}, kinds
    assert callers and set(callers) == {"exterior.py"}, set(callers)


def test_form_keys_never_reach_a_whole_key_reader(tmp_path, monkeypatch):
    # a form's key carries its index mask past the variable table, and an
    # operator's or a cutoff jet's key its alpha, which poly.unpack,
    # Poly.__str__ and the moment sums would misread: only the views that
    # strip the field (ExtForm.comps, FirstOrderOp.kernel and the grouping
    # of integrate_jets) may hand their terms on.  The traffic integrates
    # cutoff jets and reads operator coefficients, and every operator of a
    # tangent frame is printed below
    from cfx import cli, groups, ma, poly, quadrature
    from cfx.boundary import TangentFrame
    from cfx.operators import FirstOrderOp

    seen = {"unpack": 0, "str": 0, "moments": 0, "jets": 0, "coefficients": 0}
    unpack, poly_str, moment_sum = poly.unpack, poly.Poly.__str__, quadrature._moment_sum
    integrate_jets, coefficient = quadrature.integrate_jets, FirstOrderOp.coefficient

    def counted_jets(lows, highs, sums):
        seen["jets"] += 1
        return integrate_jets(lows, highs, sums)

    def counted_coefficient(self, name):
        seen["coefficients"] += 1
        return coefficient(self, name)

    def checked_unpack(key, width):
        assert key >> poly.BITS * width == 0, "a key with bits past its table reached unpack"
        seen["unpack"] += 1
        return unpack(key, width)

    def checked_str(self):
        assert all(key >> poly.BITS * len(self.vars) == 0 for key in self.num)
        seen["str"] += 1
        return poly_str(self)

    def checked_moments(num, tables, offset=0):
        assert all((key + offset) >> poly.BITS * len(tables) == 0 for key in num)
        seen["moments"] += 1
        return moment_sum(num, tables, offset)

    for module in (poly, quadrature, ma, cli, groups):
        if getattr(module, "unpack", None) is unpack:
            monkeypatch.setattr(module, "unpack", checked_unpack)
    monkeypatch.setattr(poly.Poly, "__str__", checked_str)
    for module in (quadrature, ma):
        monkeypatch.setattr(module, "_moment_sum", checked_moments)
    monkeypatch.setattr(ma, "integrate_jets", counted_jets)
    monkeypatch.setattr(FirstOrderOp, "coefficient", counted_coefficient)
    codes = _program_traffic(tmp_path)
    assert codes == [0] * len(codes), codes
    assert seen["jets"] and seen["coefficients"], seen
    # every residual of the traffic is "0": print a form of each degree too
    from cfx.randgen import SectionGenerator

    gen = SectionGenerator(3)
    assert all(str(gen.form(4, d, poly.x_vars(6)).scale(Fraction(1, 3))) != "0"
               for d in range(5))
    frame = TangentFrame(groups.GroupSpec(1, gen.right_type_matrix(1)))
    ops = [*frame.X, *(op for row in frame.Z_upper for op in row), *frame.T_upper.values()]
    assert all(str(op.scale(Fraction(1, 3))).count(" d/d") == len(op.kernel())
               for op in ops)
    assert all(seen.values()), seen


def test_wedge_builds_no_poly_per_pair(monkeypatch):
    # ExtForm.wedge adds every pair of component masks into the one
    # numerator dict of the product: no Poly product, scaling or sum, and
    # no Poly built at all
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

    for name in ("__mul__", "scale", "__add__", "_make"):
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
    from cfx.poly import BITS, Poly
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
        # Z chi = sum_v c_v d_v chi: the alpha e_v of each coefficient c_v,
        # none at alpha = 0
        row = frame.Z_lower[1][0]
        jet = CutoffJet.bump(frame.vars).apply_op(row)
        shift = BITS * len(frame.vars)
        alphas = {key >> shift for key in jet.num}
        assert alphas == {key >> shift for key in row.num} and len(alphas) > 2
        assert 0 not in alphas
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
    # the sup-norm sampler, replaced by the exact ma.sup_bound
    "ma.sup_norm_on_grid",
    # the scalar class left the package: its predictions and METHODS entries
    "rational.new",
    "rational.mul",
    "rational.add",
    "rational.div",
    "rational.ComplexRational.__init__",
    "rational.ComplexRational.__mul__",
    "rational.ComplexRational.__add__",
    "rational.ComplexRational.__truediv__",
    # the symbol ranks are proved by linalg.rank_mod_p and the rank sums;
    # linalg.bareiss, which rank_exact wrapped, computes only an open rank
    "flat.rank_exact",
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
        # j = k - 1 at k = 2: boundary_D's companion term
        ["verify", "boundary", "--group", "rightQH", "--n", "2", "--trials", "1", "--k", "2",
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
