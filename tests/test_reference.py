"""The reference kernel imports nothing it is compared against.

`tests/reference.py` may import constructors and data classes, the
delay monad's Now, Later and bind, and the goal and script parsers.  A
function the differential tests compare with it, any function of
refkit.state, a structure's methods, a tactical, the script compiler or
a private name of the kernel would let it share a bug with the code it
checks.
"""

import ast
import inspect
from pathlib import Path

from refkit import state
from refkit.judgment import JudgmentStructure

CHECKED = set(
    "subst_apply instantiate check_term term_vars subst_compose ctx_concat"
    " NameSupply render_term TeleBuilder render_prop prove_oracle".split()
)
CHECKED |= {
    name
    for name, f in vars(state).items()
    if inspect.isfunction(f) and f.__module__ == state.__name__
}
CHECKED |= {name for name in vars(JudgmentStructure) if not name.startswith("_")}
# ref_execute runs the script's AST itself: no tactical, no run_delayed and
# no script compiler
CHECKED |= set(
    "id_tactic from_rule orelse try_tactic all_mt each_mt seq then_tactic fix"
    " repeat repeat_multitactic never_tactic race force search lub run_delayed"
    " compile_script compile_text execute".split()
)


def used_names(source):
    """The names a module imports and the attributes it reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def forbidden(names):
    return sorted(
        n for n in names if n in CHECKED or (n.startswith("_") and n[:2] != "__")
    )


def test_the_reference_imports_nothing_it_checks():
    source = Path(__file__).with_name("reference.py").read_text()
    assert forbidden(used_names(source)) == []
    # the scan sees imports, module attributes and method calls
    caught = "from refkit.theory import subst_apply\nstate.state_mul(s)\nj.subst(g, s)"
    assert forbidden(used_names(caught)) == ["state_mul", "subst", "subst_apply"]
    assert forbidden(used_names("Context._extended(c, e)")) == ["_extended"]
