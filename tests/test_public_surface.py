"""Every module-level public function of cnlab has a caller in the package,
or its reason to stay is written down in KEEP; every module-level private
helper (a _name, not a dunder) has a caller in the package, with no exception.

A function has a caller when its name is read (an ast.Name in load context)
somewhere in src/cnlab outside its own def; importing a name does not read
it. A KEEP entry is stale once its function gains a caller or is gone.
"""

import ast
from pathlib import Path

import cnlab

SRC = Path(cnlab.__file__).parent

KEEP = {
    "bv_variation": "acceptance 10; the blow-up verdict (ROADMAP direction 1) gives it a caller",
    "giga_rate_fit": "acceptance 10; the blow-up verdict (ROADMAP direction 1) gives it a caller",
    "expected_blowup_exponent": "acceptance 10; the blow-up verdict (ROADMAP direction 1) "
                                "gives it a caller",
    "probe_contraction_threshold": "acceptance 08's amplitude sweep",
    "read_monitor_csv": "the reader of the monitor CSV format",
    "run_checks": "the in-process order that cnlab verify must match",
    "zero_field": "25 test uses; moving it into tests would move code, not remove it",
    "to_physical": "the inverse of to_spectral",
    "energy": "defines the monitor CSV's energy column",
    "derivative": "hides the Nyquist-zeroed k_deriv",
    "block": "checks the block index and hides the multiplier layout",
    "low_pass": "checks the low-pass index and hides the multiplier layout",
    "scalar_paraproduct": "the form in which Bony's split is stated",
}


def scan() -> tuple[set[str], set[str], set[str]]:
    """(the module-level public functions of src/cnlab, its module-level
    private helpers, the names read outside the def of the function they
    name)."""
    public, private, read = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, ast.FunctionDef):
                own = stmt.name
                if not own.startswith("_"):
                    public.add(own)
                elif not (own.startswith("__") and own.endswith("__")):
                    private.add(own)
            read |= {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load) and node.id != own}
    return public, private, read


def test_every_public_function_has_a_caller_or_a_reason():
    public, _, read = scan()
    assert sorted(public - read - set(KEEP)) == []


def test_every_private_helper_has_a_caller():
    _, private, read = scan()
    assert private and sorted(private - read) == []


def test_no_keep_entry_has_gained_a_caller():
    _, _, read = scan()
    assert sorted(set(KEEP) & read) == []


def test_every_keep_entry_names_a_public_function():
    public, _, _ = scan()
    assert sorted(set(KEEP) - public) == []
