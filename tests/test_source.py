import ast
import subprocess
import sys
from pathlib import Path

import mackeydim

SOURCES = sorted(Path(mackeydim.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # exactness invariants must be raised errors: python -O drops asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_no_cross_module_private_access():
    # a private name of a sibling module is not an API: move it or make it public
    modules = {path.stem for path in SOURCES}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module in modules:
                names = [a.name for a in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.value.id != path.stem):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith("_") and not name.startswith("__")]
    assert SOURCES and not found, found


def test_mackey_leaves_closure_to_transfer():
    # disk-likeness is decided in transfer alone (require_disk_like)
    path = Path(mackeydim.__file__).parent / "mackey.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "close"
        and isinstance(node.value, ast.Name) and node.value.id == "transfer"
    ]
    assert not found, found


def _calls(node):
    """Names of the functions and methods called anywhere inside node."""
    return {
        getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def _function(module, name):
    path = Path(mackeydim.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_close_validates_its_result():
    # the two-pass closure keeps its postcondition: every closure is validated
    assert "validate" in _calls(_function("transfer", "close"))


def test_monotonicity_scan_reads_the_closed_form():
    # scan_monotonicity takes each gldim from the family (family_gldims)
    banned = {"gldim_mackey", "class_dim", "validate", "inseparability_classes"}
    found = _calls(_function("mackey", "scan_monotonicity")) & banned
    assert not found, found


def _call_names(node):
    """Names of the functions and methods called inside node, one per call."""
    return [getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)]


def test_monotonicity_scan_reads_gldims_per_lattice():
    # one enumeration and one gldim table per lattice: no c_S or section
    # type is read per system, in the scan or in the evaluator's last step,
    # the comprehension over the families
    names = _call_names(_function("mackey", "scan_monotonicity"))
    assert names.count("enumerate_disk_like") == 1
    assert names.count("family_gldims") == 1
    found = set(names) & {"_class_tops", "section_type", "_factor_count"}
    assert not found, found
    last = _function("mackey", "family_gldims").body[-1]
    assert isinstance(last, ast.Return) and isinstance(last.value, ast.ListComp)
    assert set(_call_names(last)) == {"bit_length"}


def test_izext_builds_no_lattice():
    # the section route reads types off the caller's lattice and the closed form
    path = Path(mackeydim.__file__).parent / "izext.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "subgroup_lattice" not in _calls(tree)


def test_izext_walks_intervals_as_masks():
    # intervals stay bitmasks of the caller's poset: no sub-poset is built
    path = Path(mackeydim.__file__).parent / "izext.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _calls(tree) & {"restrict", "open_interval", "closed_interval"}
    assert not found, found


def test_one_block_enumerator():
    # every primary type, elementary ones too, goes through the recursive
    # HNF enumerator; the echelon-basis route is a test oracle
    assert "hnf_columns" not in _calls(_function("groups", "_prime_block_bases"))


def test_section_types_are_read_off_the_lattice():
    # Phi and section types come from SubgroupLattice, with no SNF or meet
    banned = {"quotient_invariants", "quotient_type_key", "smith_normal_form",
              "meet", "frattini_closed_form"}
    for module, name in [("mackey", "_pair_scan"), ("izext", "ext_dims_section")]:
        found = _calls(_function(module, name)) & banned
        assert not found, (name, found)


def test_pair_scan_has_no_per_pair_loop():
    # eligible pairs are counted off the primary tables and each type is
    # checked once: no section type or interval is read per pair
    found = _calls(_function("mackey", "_pair_scan")) & {"section_type", "open_interval"}
    assert not found, found


def test_no_smith_forms_or_element_sets_in_src():
    # labels, types and r(H/K) come from the primary tables; the SNF and
    # element-set routes are test oracles (tests/group_oracle.py)
    banned = {"quotient_invariants", "smith_normal_form", "subgroup_elements", "iso_name"}
    found = [
        f"{path.name} {name}"
        for path in SOURCES
        for name in sorted(_calls(ast.parse(path.read_text(), filename=str(path))) & banned)
    ]
    assert SOURCES and not found, found


def test_runs_without_numpy():
    # numpy is not a dependency: block its import and run a CLI command
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from click.testing import CliRunner\n"
        "from mackeydim.cli import main\n"
        "res = CliRunner().invoke(main, ['gldim-ia', '--group', 'C6'])\n"
        "sys.exit(res.exit_code)\n"
    )
    src_dir = str(Path(mackeydim.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": src_dir},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Reachability: src/ defines only what a caller reaches
# ---------------------------------------------------------------------------

REPO = Path(mackeydim.__file__).resolve().parent.parent.parent
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
CALLERS = sorted((REPO / "perfbench").glob("*.py")) + [REPO / "tests" / "test_acceptance.py"]


def _definitions():
    """(module, name) -> node for every top-level function, class and
    constant, and (module, "Class.method") -> node for every method."""
    defs = {}
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            defs[module, f"{node.name}.{item.name}"] = item
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        defs[module, target.id] = node
    return defs


def _imported_names(tree):
    """local name -> (module, name) for `from .m import name` and
    `from mackeydim.m import name`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("mackeydim.")
            if (node.level or node.module.startswith("mackeydim.")) and module in MODULES:
                for alias in node.names:
                    out[alias.asname or alias.name] = (module, alias.name)
    return out


def _references(node, module, imported, defs, methods):
    """The definitions node refers to.  A bare name resolves in its own
    module (None outside the package) or through `imported`; `m.name` with
    m a package module resolves there; any other attribute resolves to
    every method of that name, since the receiver's class is not known
    statically."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if (module, sub.id) in defs:
                yield module, sub.id
            elif sub.id in imported:
                yield imported[sub.id]
        elif isinstance(sub, ast.Attribute):
            owner = sub.value
            owner_name = getattr(owner, "id", None) or getattr(owner, "attr", None)
            if owner_name in MODULES and (owner_name, sub.attr) in defs:
                yield owner_name, sub.attr
            else:
                yield from methods.get(sub.attr, ())


def _is_command(node):
    # `@main.command(...)` and the `@click.group()` entry point itself
    return any(
        isinstance(sub, ast.Name) and sub.id in {"main", "click"}
        for dec in node.decorator_list for sub in ast.walk(dec)
    )


def reachable(callers=CALLERS):
    """(the definitions reached from the CLI commands and from what the
    caller files name, every definition of src/mackeydim)."""
    defs = _definitions()
    methods = {}
    for module, name in defs:
        if "." in name:
            methods.setdefault(name.split(".")[1], []).append((module, name))
    todo = [("cli", node.name) for node in MODULES["cli"].body
            if isinstance(node, ast.FunctionDef) and _is_command(node)]
    for path in callers:
        tree = ast.parse(path.read_text())
        todo += _references(tree, None, _imported_names(tree), defs, methods)
    imported = {module: _imported_names(tree) for module, tree in MODULES.items()}
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen or key not in defs:
            continue
        seen.add(key)
        module, name = key
        node = defs[key]
        if isinstance(node, ast.ClassDef):
            # bases, class attributes and the dunder methods Python calls
            for item in node.bases + node.body:
                if not isinstance(item, ast.FunctionDef):
                    todo += _references(item, module, imported[module], defs, methods)
                elif item.name.startswith("__"):
                    todo.append((module, f"{name}.{item.name}"))
        else:
            todo += _references(node, module, imported[module], defs, methods)
    return seen, defs


def test_src_defines_only_what_a_caller_reaches():
    # test-only oracles live in tests/; code that nothing calls is deleted
    seen, defs = reachable()
    unreached = sorted(f"{module}.{name}" for module, name in defs
                       if (module, name) not in seen and not name.split(".")[-1].startswith("__"))
    assert not unreached, unreached


def test_reachability_tells_the_roots_apart():
    # from the CLI commands alone, what only perfbench/ or the acceptance
    # suite calls is unreached: the walk does not reach everything by name
    seen, _defs = reachable(callers=[])
    for key in [("posets", "OrderComplex.total_simplices"), ("mackey", "class_dim"),
                ("transfer", "TransferSystem.is_complete")]:
        assert key not in seen, key
    assert ("groups", "_in_span") in seen and ("cli", "gldim_ia") in seen


def test_all_lists_only_defined_names():
    # a stale export left behind by a move or a deletion fails here
    found = []
    for module, tree in MODULES.items():
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        defined |= {alias.asname or alias.name for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                found += [f"{module}.{name}" for name in ast.literal_eval(node.value)
                          if name not in defined]
    assert not found, found
