"""Source layout rules that keep the module graph acyclic and explicit."""

import ast
import os
import re
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import ratpark

PACKAGE = Path(ratpark.__file__).parent


def _imports_inside_functions(path: Path) -> list[tuple[str, str, str]]:
    """``(module, function, imported module)`` for each function-level import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or "")]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                sites.extend((path.stem, fn.name, name) for name in names)
    return sites


# the one exception to module-top imports: only ``ratpark verify`` loads
# the suites and their reference tables, so no other command's cold start
# compiles them
IMPORTS_INSIDE_FUNCTIONS = [("cli", "_run", ".verify")]


def test_no_imports_inside_functions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    sites = [site for path in modules for site in _imports_inside_functions(path)]
    assert sites == IMPORTS_INSIDE_FUNCTIONS


def test_no_module_imports_dataclasses():
    # the value types are errors._Record subclasses and verify's results are
    # plain classes: dataclasses, and the inspect, ast and dis it loads, cost
    # a third of a cold start
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert imported and "dataclasses" not in imported


def test_cli_cold_start_loads_no_dataclasses():
    # -S keeps site's own imports out of the count
    probe = (
        "import sys, ratpark.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _relative_imports(path: Path) -> set[str]:
    """Sibling modules named by ``from .x import ...`` or ``from . import x``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    deps = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                deps.update(alias.name for alias in node.names)
            else:
                deps.add(node.module.split(".")[0])
    return deps


def test_module_graph_is_acyclic():
    graph = {
        path.stem: _relative_imports(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    assert set().union(*graph.values()) <= set(graph)
    # the solver sits below filters and tuples, which build its warm starts
    assert graph["action"] == {"errors", "words"}
    # raises CycleError naming the cycle
    TopologicalSorter(graph).prepare()


# every site that builds a value without validation, by the type it builds;
# each one's docstring, or that of its type, argues why the value is valid:
# a filter's minima, a word's letters, sorted coordinates made by the action
# or read off row minima, and a window read off a checked balanced tuple
TRUSTED_SITES = {
    "Filter": {
        "filters.to_dyck",
        "filters.to_balanced",
        "filters.remove",
        "filters.mn_swap",
        "filters._dyck_filter",
        "filters._walk_filter",
        "sweep.sweep",
        "tuples.FilterTuple.stages",
        "tuples.translate",
    },
    "Word": {"words._derived_word", "words.enumerate_words"},
    "Point": {
        "action.apply_letter",
        "action.apply_word",
        "action.find_fixed_point",
        "tuples._fixed_filter",
        "tuples.fixed_point_oracle",
    },
    "AffinePermutation": {"affine.tuple_to_window", "affine.enumerate_sommers"},
    "FilterTuple": {"tuples.tuple_from_rank_word"},
}


def _scopes(match) -> list[str]:
    """Qualified names of the package scopes holding a node ``match`` accepts."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if match(node):
            sites.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), [path.stem])
    return sites


def _named(node, name: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == name) or (
        isinstance(node, ast.Name) and node.id == name
    )


def _sites(name: str) -> list[str]:
    """Qualified names of the package scopes that mention ``name``, bare or
    as an attribute."""
    return _scopes(lambda node: _named(node, name))


def _trusted(name: str):
    """Whether a node is ``name._of``, the constructor of ``name`` that skips
    checks."""
    return lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr == "_of"
        and _named(node.value, name)
    )


def test_trusted_filter_constructor_stays_at_its_sites():
    # each type's trusted constructor stays at its own sites, matched by the
    # type it is called on, and no other type has one
    for name, sites in TRUSTED_SITES.items():
        assert set(_scopes(_trusted(name))) == sites, name
    assert set(_sites("_of")) == set().union(*TRUSTED_SITES.values())


def test_one_orbit_loop():
    # the solver and the gcd > 1 block builder share one orbit loop: only
    # it applies words with their slots traced, builds affine pieces and
    # walks to a cycle's first repeat, at its one cycle exit; a piece is
    # built in one step
    for name in ("_act_traced", "_Piece", "_first_repeat"):
        assert _sites(name) == ["action._orbit"], name
    assert not hasattr(ratpark.action._Piece, "_affine")
    # one loop in one frame: the plain and the traced kernel are called
    # once each, in the same while loop, and the loop holds the one escape
    # test, so no second copy of the orbit's tests can come back
    for name in ("_act", "_act_traced", "_norm"):
        assert _scopes(_calls(name)).count("action._orbit") == 1, name
    tree = ast.parse((PACKAGE / "action.py").read_text())
    (orbit,) = [node for node in tree.body if getattr(node, "name", None) == "_orbit"]
    loops = [node for node in ast.walk(orbit) if isinstance(node, ast.While)]
    called = [
        {
            node.func.id
            for statement in loop.body
            for node in ast.walk(statement)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        for loop in loops
    ]
    assert [names >= {"_act", "_act_traced"} for names in called].count(True) == 1


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_exports_are_the_supported_surface():
    # README's "Supported surface" list names every export of the package,
    # and nothing else
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Supported surface\n", 1)[1].split("\n## ", 1)[0]
    listed = [
        name
        for line in section.splitlines()
        if line.startswith(("- ", "  "))
        for name in re.findall(r"`([A-Za-z_]\w*)`", line)
    ]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(_exports())


def test_one_residue_table():
    # a filter's row minima by residue are built by one helper, for the
    # filter's own table, which both constructors store outside the fields,
    # and for the column table of the m<->n mirror builder; no per-call
    # rebuild is left, a Dyck filter's rows are counted from its column
    # lengths, and a path's rows are read off its walk, with no table
    assert sorted(_sites("_residue_table")) == [
        "filters.Filter.__post_init__",
        "filters.Filter._of",
        "filters.filter_from_column_minima",
    ]
    assert not hasattr(ratpark.filters, "_by_residue")
    assert ratpark.Filter._fields == ("m", "n", "row_minima")


def _calls(name: str):
    return lambda node: isinstance(node, ast.Call) and _named(node.func, name)


def test_one_sorted_minima_step():
    # a minimal level leaves the sorted row minima by one in-place step on a
    # list the replay owns; the routes that hand out filters copy once per
    # stage, through after_removal
    assert _sites("insort") == ["filters._lift_minimum"]
    assert sorted(_scopes(_calls("_lift_minimum"))) == [
        "filters.after_removal",
        "tuples._rank_removals",
        "tuples.rank_word",
    ]
    assert sorted(_scopes(_calls("after_removal"))) == [
        "filters.remove",
        "tuples.FilterTuple.stages",
    ]


def test_one_insertion_per_letter():
    # the plain in-place kernel puts each moved value back with one
    # insort_left; only the traced in-place kernel, which records the slot,
    # bisects and inserts
    assert _sites("insort_left") == ["action._act"]
    in_action = [s for s in _sites("bisect_left") if s.startswith("action.")]
    assert in_action == ["action._act_traced"]


def test_sommers_routes_read_positions_off_one_table():
    # membership reads one position table per call; only the Pak-Stanley
    # inversion count still scans the window for each inverse evaluation
    assert _scopes(_calls("value_position")) == ["affine.pak_stanley"]
    # the sweep bisects the column minima once per row, with no step string
    # to parse and no walk: only a path's step string is walked
    for name in ("filter_from_path", "join"):
        assert "sweep.sweep" not in _scopes(_calls(name)), name
    assert _scopes(_calls("_walk_filter")) == ["filters.filter_from_path"]


def test_column_minima_only_where_the_columns_are_unknown():
    # a Dyck class's builder hands over the column minima it starts from,
    # so column minima are derived only from filters known by their rows
    assert not hasattr(ratpark.tuples, "_area_groups")
    sites = [s for s in _scopes(_calls("column_minima")) if not s.startswith("verify.")]
    assert sorted(sites) == [
        "affine.filter_to_dominant",
        "filters.dyck_word",
        "filters.filter_from_column_minima",
        "filters.mn_swap",
        "sweep.sweep",
        "tuples.dyck_embedding",
    ]


def test_one_dyck_filter_rule():
    # the parking inequality is written once, as the letter starts of
    # words._letter_starts, counted once per word or Dyck class: every
    # parking test reads them, the precondition hands them on to the Dyck
    # filter and the removals, and only the whole-space qt_table groups a
    # class's columns by area letter
    defined = _scopes(
        lambda node: isinstance(node, ast.FunctionDef) and node.name == "_letter_starts"
    )
    assert defined == ["words._letter_starts"]
    assert sorted(_scopes(_calls("_letter_starts"))) == [
        "filters._dyck_classes",
        "words._require_parking",
        "words.is_parking_word",
        "words.touch_points",
    ]
    assert _scopes(_calls("_column_groups")) == ["tuples.qt_table"]


def _raises(name: str):
    return lambda node: isinstance(node, ast.Raise) and _calls(name)(node.exc)


def test_words_are_validated_once_at_the_boundary():
    # a word the library derives is built in words, by the one trusted
    # builder that checks the theorem making it parking; letters are
    # validated only where they come in, and only words decides that a
    # word is not parking
    assert sorted(_scopes(_trusted("Word"))) == [
        "words._derived_word",
        "words.enumerate_words",
    ]
    assert sorted(_scopes(_calls("Word"))) == [
        "serialize.word_from_text",
        "verify._suite_reference_action",
        "words.word",
    ]
    assert sorted(_scopes(_raises("NotAParkingWord"))) == [
        "words._require_parking",
        "words.touch_points",
    ]


def test_every_serialize_function_has_a_program_caller():
    # serialize keeps only the readers and writers that the CLI, verify or
    # a script call: a format with test callers only is not kept
    tree = ast.parse((PACKAGE / "serialize.py").read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    scripts = PACKAGE.parent.parent / "scripts"
    callers = [PACKAGE / "cli.py", PACKAGE / "verify.py", *sorted(scripts.glob("*.py"))]
    called = {
        name
        for path in callers
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in public
        if _calls(name)(node)
    }
    assert public and called == public, sorted(public - called)


def _balanced_sum(node) -> bool:
    """Whether ``node`` is a call ``comb(... + 1, 2)``, the balanced row-minima sum."""
    if not _calls("comb")(node):
        return False
    total, k = node.args
    return (
        isinstance(total, ast.BinOp)
        and isinstance(total.op, ast.Add)
        and ast.dump(total.right) == ast.dump(ast.Constant(1))
        and ast.dump(k) == ast.dump(ast.Constant(2))
    )


def test_one_balancing_shift():
    # only one helper balances by m; a tuple's window is its removals
    # shifted by it, with no balanced tuple built
    assert _scopes(_balanced_sum) == ["filters._balancing_shift"]
    assert sorted(_sites("_balancing_shift")) == [
        "affine.enumerate_sommers",
        "affine.tuple_to_window",
        "filters.is_balanced",
        "filters.to_balanced",
        "tuples._fixed_filter",
        "tuples.tuple_to_balanced",
    ]
    for name in ("Filter", "FilterTuple", "translate", "tuple_to_balanced"):
        assert "affine.tuple_to_window" not in _scopes(_calls(name)), name
    assert "affine.tuple_to_window" not in _scopes(_trusted("Filter"))


def _enumerates_dyck_words(node) -> bool:
    """Whether ``node`` is a call ``enumerate_words(..., "dyck")``."""
    if not (isinstance(node, ast.Call) and _named(node.func, "enumerate_words")):
        return False
    kinds = [*node.args[2:], *(k.value for k in node.keywords if k.arg == "kind")]
    return any(isinstance(k, ast.Constant) and k.value == "dyck" for k in kinds)


def test_one_dyck_class_builder():
    # every whole-space path reads the Dyck classes from one builder
    assert _scopes(_enumerates_dyck_words) == ["filters._dyck_classes"]


def test_records_derive_their_methods_from_their_fields():
    # errors._Record derives equality, hash, repr, pickling and the plain
    # constructor from _fields; a type writes __init__ only to call its
    # __post_init__, which the benchmark's tracer and the validation
    # counters patch
    records = ratpark.errors._Record.__subclasses__()
    derived = {"__eq__", "__hash__", "__repr__", "__reduce__"}
    assert len(records) == 10
    for cls in records:
        assert not derived & cls.__dict__.keys(), cls
    validating = [cls for cls in records if "__post_init__" in cls.__dict__]
    assert [cls for cls in records if "__init__" in cls.__dict__] == validating
    assert sorted(cls.__name__ for cls in validating) == [
        "AffinePermutation",
        "Filter",
        "FilterTuple",
        "Point",
        "Word",
    ]
