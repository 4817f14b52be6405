"""Every module-level public function of cnlab has a caller in the package,
and every public method or property of a module-level class a reader, or
its reason to stay is written down in KEEP; every module-level private
helper (a _name, not a dunder) has a caller in the package, with no exception.

A function has a caller when its name is read (an ast.Name in load context)
somewhere in src/cnlab outside its own def; importing a name does not read
it. A method or property has a reader when its name is read as an attribute
(an ast.Attribute in load context) somewhere in src/cnlab. KEEP names a
member as Class.name. A KEEP entry is stale once its function gains a caller,
or its member a reader, or once it is gone.
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
    "etdrk4_integrate": "the collector of etdrk4_rows: whole ETDRK4 trajectories for the "
                        "acceptance suite, and BlowupSuspected's partial trajectory",
    "read_monitor_csv": "the reader of the monitor CSV format",
    "zero_field": "25 test uses; moving it into tests would move code, not remove it",
    "to_physical": "the inverse of to_spectral",
    "derivative": "hides the Nyquist-zeroed k_deriv",
    "block": "checks the block index and hides the multiplier layout",
    "low_pass": "checks the low-pass index and hides the multiplier layout",
    "scalar_paraproduct": "the form in which Bony's split is stated",
    "BlowupSuspected.last_state": "the blow-up verdict (ROADMAP direction 1) reads it",
    "_Parser.error": "argparse calls it on a usage error",
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


def scan_members() -> tuple[set[str], set[str]]:
    """(the public methods and properties of the module-level classes of
    src/cnlab as Class.name, the attribute names read in src/cnlab)."""
    members, attrs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        members |= {f"{stmt.name}.{item.name}" for stmt in tree.body
                    if isinstance(stmt, ast.ClassDef) for item in stmt.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
        attrs |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)}
    return members, attrs


def unread(members: set[str], attrs: set[str]) -> set[str]:
    return {m for m in members if m.split(".")[1] not in attrs}


def test_every_public_function_has_a_caller_or_a_reason():
    public, _, read = scan()
    assert sorted(public - read - set(KEEP)) == []


def test_every_private_helper_has_a_caller():
    _, private, read = scan()
    assert private and sorted(private - read) == []


def test_every_public_member_has_a_reader_or_a_reason():
    members, attrs = scan_members()
    assert members and sorted(unread(members, attrs) - set(KEEP)) == []


def test_no_keep_entry_has_gained_a_caller():
    _, _, read = scan()
    members, attrs = scan_members()
    assert sorted(set(KEEP) & read) == []
    assert sorted(set(KEEP) & (members - unread(members, attrs))) == []


def test_every_keep_entry_names_a_public_function():
    public, _, _ = scan()
    members, _ = scan_members()
    assert sorted(set(KEEP) - public - members) == []
