"""Every module-level function of the program has a caller in it.

A function that only the tests call is code the program carries for no
run of its own, and a private helper left behind by its last caller is
dead code. A reference by name anywhere in ``src/greencross`` (outside the
function's own body) counts as a caller, a call or a function passed on
alike. The few public functions that stay without one are kept below, each
with its reason; a private function has no such exception.
"""
import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "greencross")

# module.function -> why it stays without a caller in src
KEEP = {
    "assembly.mass_block": "the benchmark's assembly.mass_s span times it",
    "h2.spectral_error_estimate": "the acceptance criteria's relative "
    "spectral error; compress divides each method's error norm by one "
    "h2.operator_norm of the dense reference instead",
}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


def _uncalled(private=False):
    """The public (or, with ``private``, the private) module-level
    functions that nothing in src references."""
    defined, used = [], set()
    for module, tree in _modules():
        for top in tree.body:
            own = None
            if isinstance(top, ast.FunctionDef):
                own = top.name
                if own.startswith("_") == private:
                    defined.append((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return ["%s.%s" % key for key in defined if key[1] not in used]


def test_public_functions_have_callers_in_src():
    assert sorted(set(_uncalled()) - set(KEEP)) == []


def test_private_functions_have_callers_in_src():
    assert _uncalled(private=True) == []


def test_kept_functions_still_lack_callers():
    """A kept function that gained a caller leaves the list."""
    assert sorted(set(KEEP) - set(_uncalled())) == []
