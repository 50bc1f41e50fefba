"""Static checks of the core's source: stdlib-only imports, no declared
dependency and no assert statement."""
import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "densalg"


def test_imports_are_stdlib_or_densalg():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "densalg", (path.name, name)


def test_pyproject_declares_no_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]


def test_no_assert_statements():
    # an AssertionError gets past the CLI's DensalgError handler as a
    # traceback, and python -O strips the check
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, ast.Assert), "%s:%d" % (path.name, node.lineno)


KERNEL_HELPERS = {"_mul_into", "_rows", "_scaled_rows", "_partial_rows", "_strip", "_strip_t",
                  "_add_into", "_odd_mask", "_reorder_is_odd", "_plan_core"}
T_SLOT_CODEC = {"_T_UNIT", "_t_slot", "_t_exp"}


def test_only_brackets_imports_the_kernel_helpers():
    # spoly defines the rows, masks and products of the bracket kernel and
    # brackets its core: every bracket loop lives in brackets.  A hatted key
    # holds t's exponent times _T_UNIT, so one raw exponent written to a t
    # slot silently means t^(e/_T_UNIT): no module but spoly reaches the
    # slot's codec, and every other one reads and writes plain exponents
    # through Chart.power_key, Chart._to_key and Chart._exponents
    importers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & (KERNEL_HELPERS | T_SLOT_CODEC)
                if names:
                    importers.setdefault(path.stem, set()).update(names)

    def importing(wanted):
        return {stem for stem, names in importers.items() if names & wanted}

    assert importing(KERNEL_HELPERS) == {"brackets"}, importers
    assert importing(T_SLOT_CODEC) == set(), importers
