"""divkit's public surface: every public name is there for a caller."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from divkit import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "divkit"

#: public names kept with no caller in the package or the benchmark, because
#: README documents them as API; each must appear in README.md
DOCUMENTED = {"miller_gap", "population_rke_mc"}


def _public_definitions(tree):
    """(qualified name, node, class or None) of each public top-level function
    and class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, node.name


def _references(tree):
    """Each name, attribute and string constant in ``tree``, with the name an
    attribute is read from (or "str"); a string counts because the CLI picks
    constructors by name with ``getattr``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, None
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.value.id if isinstance(node.value, ast.Name) else None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, "str"


def _is_static(node):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def _uncalled():
    """Public names referenced nowhere in the package (``__init__`` aside) or
    the benchmark harness, outside their own definition."""
    sources = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    trees = [ast.parse(p.read_text()) for p in sources + sorted((ROOT / "perfbench").glob("*.py"))]
    total = Counter(ref for tree in trees for ref in _references(tree))
    missing = []
    for tree in trees[:len(sources)]:
        for qualified, node, owner in _public_definitions(tree):
            outside = total - Counter(_references(node))
            if owner and _is_static(node):
                # a static method is called through its class, or picked by name
                found = outside[node.name, owner] or outside[node.name, "str"]
            else:
                found = any(ref == node.name for ref, _ in outside)
            if not found:
                missing.append(qualified)
    return missing


def test_every_public_name_has_a_caller():
    assert sorted(set(_uncalled()) - DOCUMENTED) == []
    readme = (ROOT / "README.md").read_text()
    assert [name for name in sorted(DOCUMENTED) if name not in readme] == []


def test_one_spectral_gate():
    # every entropy passes entropy._spectrum, and every eigensolve entropy._eigensolve;
    # the Frechet distance's covariance roots are not unit-trace and skip the gate
    sites = {"eigh": set(), "eigvalsh": set(), "_eigensolve": set()}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for name, _ in _references(top):
                if name in sites:
                    sites[name].add(f"{path.stem}.{getattr(top, 'name', None)}")
    assert sites["eigh"] == sites["eigvalsh"] == {"entropy._eigensolve"}
    gated = {s for s in sites["_eigensolve"] if not s.startswith("discrepancy.")}
    assert gated == {"entropy._spectrum"}


def test_spectral_floor_is_read_by_entropy_alone():
    # which eigenvalues count is decided in entropy, next to H, its gradient and
    # its Hessian product; the tangent screen's rounding bound also needs it
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(name == "SPECTRAL_FLOOR" for name, _ in _references(top)):
                readers.add(f"{path.stem}.{getattr(top, 'name', None)}")
    assert {r for r in readers if not r.startswith("entropy.")} == {"projection._screen_slack"}


@pytest.mark.slow
def test_readme_quick_reference_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick reference", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick reference", "exec"), {})


def _readme_config_table():
    """{command: {key: type cell}} of README's table of run-command config keys."""
    readme = (ROOT / "README.md").read_text()
    rows = readme.split("| command | key | type | default |\n|---|---|---|---|\n", 1)[1]
    table, command = {}, None
    for row in rows.split("\n\n", 1)[0].splitlines():
        name, keys, kind, _ = (cell.strip() for cell in row.strip("|").split("|"))
        command = name.strip("`") or command
        for key in re.findall(r"`(\w+)`", keys):
            table.setdefault(command, {})[key] = kind
    return table


def _choices(fields) -> dict:
    """{tag value: fields} of a ``cli._Tagged`` table; plain fields are one untagged choice."""
    return fields.fields if isinstance(fields, cli._Tagged) else {None: fields}


def test_readme_config_table_matches_the_commands():
    # cli.COMMANDS declares each config key and nested field once; README's table,
    # which leaves seed and stream_id to its prose, names the same ones.  Where a tag
    # picks the top-level keys (project's "mode"), the tag's row names every choice,
    # and a row that names some choices in its type cell is a key of those alone
    table = _readme_config_table()
    assert set(table) == set(cli.COMMANDS)
    for name, command in cli.COMMANDS.items():
        rows, choices = dict(table[name]), _choices(command.keys)
        if isinstance(command.keys, cli._Tagged):
            assert set(re.findall(r"`(\w+)`", rows.pop(command.keys.tag))) == set(choices), name
        only = {key: set(re.findall(r"`(\w+)`", cell)) & set(choices) for key, cell in rows.items()}
        for choice, fields in choices.items():
            shown = {key for key, tags in only.items() if not tags or choice in tags}
            assert shown == {key for key, _, _ in fields} - {"seed", "stream_id"}, (name, choice)
            for key, cast, _ in fields:
                if not isinstance(cast, tuple):
                    continue  # a leaf, not a nested object
                tagged = isinstance(cast, cli._Tagged)
                declared = {field for each in _choices(cast).values() for field, _, _ in each}
                declared |= {cast.tag} if tagged else set()
                # a quoted name after ': ' or 'or ' is a value, such as a tag; the others are fields
                assert set(re.findall(r'(?<!: )(?<!or )"(\w+)"', rows[key])) == declared, (name, key)
                if tagged:
                    tags = re.findall(rf'"{cast.tag}": "(\w+)"', rows[key])
                    assert set(tags) == set(cast.fields), (name, key)


def _slow_tests():
    """The tests marked ``@pytest.mark.slow``: criterion numbers and other test names."""
    criteria, names = set(), set()
    for path in sorted(ROOT.glob("tests/test_*.py")) + sorted(ROOT.glob("perfbench/tests/test_*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and any(
                    ast.unparse(d) == "pytest.mark.slow" for d in node.decorator_list):
                criterion = re.fullmatch(r"test_criterion_0*(\d+[a-z]?)_\w+", node.name)
                if criterion:
                    criteria.add(criterion[1])
                else:
                    names.add(node.name)
    return criteria, names


def test_readme_names_every_slow_test():
    # README's paragraph on the marker says what `pytest -m "not slow"` leaves out
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("The `slow` marker", 1)[1].split("\n\n", 1)[0]
    listed = re.search(r"criteria ((?:\d+[a-z]?(?:,\s+|\s+and\s+)?)+)", paragraph)
    criteria = set(re.findall(r"\d+[a-z]?", listed[1])) if listed else set()
    assert (criteria, set(re.findall(r"`(test_\w+)`", paragraph))) == _slow_tests()
