"""CLI surface: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wol
from wol.classes import equiv_class
from wol.cli import run
from wol.diagrams import Diagram, count_ST, enumerate_ST
from wol.errors import ResourceCapError
from wol.posets import Poset, linear_extensions_L


def capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "call", json.loads((GOLDEN / "calls.json").read_text()), ids=lambda call: call["name"]
)
def test_golden_outputs(call, capsys):
    """The README's example calls and ``verify --suite all --nmax 4`` print
    what ``tests/golden`` holds: a change to an output edits its file."""
    code, out, err = capture(call["argv"], capsys)
    assert (code, err) == (call["exit"], call["stderr"])
    assert out == (GOLDEN / f"{call['name']}.stdout").read_text()


def test_diagram_golden_json(capsys):
    code, out, err = capture(
        ["diagram", "--S", "{2,5}", "--rho", "231564", "--format", "json"], capsys
    )
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "n": 6,
        "cells": [[1, 2], [2, 1], [2, 2], [3, 3], [4, 2], [4, 3]],
    }


def test_upper_diagram(capsys):
    code, out, _ = capture(["diagram", "--S", "{1,3,4}", "--sigma", "546213"], capsys)
    assert code == 0
    assert json.loads(out)["n"] == 6


def test_class_singleton(capsys):
    code, out, _ = capture(["class", "--lo", "123456", "--hi", "654321"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["members"] == [["123456", "654321"]]
    assert data["hasse"] == []


def test_class_text_and_dot(capsys):
    code, out, _ = capture(
        ["class", "--lo", "132456", "--hi", "142563", "--format", "text"], capsys
    )
    assert code == 0
    assert "9 members" in out
    code, out, _ = capture(
        ["class", "--lo", "132456", "--hi", "142563", "--format", "dot"], capsys
    )
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 11


def test_family_summary(capsys):
    code, out, _ = capture(["family", "--kind", "Q", "--alpha", "(3,2,3,1)"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 594
    assert data["min"] == ["132547689", "142659783"]
    assert data["max"] == ["756834129", "967845123"]


def test_minmax(capsys):
    code, out, _ = capture(["minmax", "--S", "{2,5}", "--rho", "231564"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "min": ["132465", "231564"],
        "max": ["134652", "235641"],
    }
    code, out, _ = capture(["minmax", "--S", "{1,3,4}", "--sigma", "546213"], capsys)
    assert json.loads(out) == {
        "min": ["542136", "643125"],
        "max": ["546213", "645312"],
    }


def test_hull_cover_commands(capsys):
    code, out, _ = capture(["hull", "--S", "{2}", "--rho", "142563"], capsys)
    assert code == 0
    assert json.loads(out)["projective_indecomposable"]
    code, out, _ = capture(["hull", "--family", "Q", "--alpha", "(3,2,3,1)"], capsys)
    assert json.loads(out)["kind"] == "injective_hull"
    code, out, _ = capture(["cover", "--family", "RX", "--alpha", "(2,2)"], capsys)
    assert json.loads(out)["kind"] == "projective_cover"
    code, out, _ = capture(["cover", "--sigma", "345126", "--S", "{3}"], capsys)
    assert json.loads(out)["interval"] == ["132456", "562341"]


FAMILY_GOLDENS = [
    (
        ["hull", "--family", "Shat", "--alpha", "(3,2,4)"],
        '{"kind": "injective_hull", "interval": ["432157698", "987456231"], '
        '"lower_set": [1, 2, 3, 6, 8], "upper_set": [1, 2, 3, 6, 8], '
        '"projective_indecomposable": true}\n',
    ),
    (
        ["cover", "--family", "RV", "--alpha", "(3,2,4)"],
        '{"kind": "projective_cover", "interval": ["321456789", "984567312"], '
        '"lower_set": [1, 2], "upper_set": [1, 2, 6, 7], '
        '"projective_indecomposable": false}\n',
    ),
    (
        ["cover", "--family", "RShat", "--alpha", "(3,2,4)"],
        '{"kind": "projective_cover", "interval": ["132654789", "896751234"], '
        '"lower_set": [2, 4, 5], "upper_set": [2, 4, 5], '
        '"projective_indecomposable": true}\n',
    ),
    (
        ["cover", "--family", "Q", "--alpha", "(3,2,3,1)"],
        '{"kind": "projective_cover", "interval": ["132547689", "896745231"], '
        '"lower_set": [2, 4, 6], "upper_set": [2, 4, 6, 8], '
        '"projective_indecomposable": false}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, expected", FAMILY_GOLDENS, ids=["hull-Shat", "cover-RV", "cover-RShat", "cover-Q"]
)
def test_family_hull_cover_goldens(argv, expected, capsys):
    assert capture(argv, capsys) == (0, expected, "")


EMPTY_ALPHA = "family diagrams need a nonempty composition"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hull", "--family", "Q", "--alpha", "(1,2)"], "(1, 2) is not a peak composition"),
        (["cover", "--family", "Q", "--alpha", "(3,1,2)"], "(3, 1, 2) is not a peak composition"),
        (["hull", "--family", "V", "--alpha", "()"], EMPTY_ALPHA),
        (["cover", "--family", "RX", "--alpha", "()"], EMPTY_ALPHA),
    ],
    ids=["hull-Q-non-peak", "cover-Q-non-peak", "hull-empty-alpha", "cover-empty-alpha"],
)
def test_family_hull_cover_domain_errors(argv, message, capsys):
    code, out, err = capture(argv, capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "domain", "message": message}


def test_domain_error_exit_code(capsys):
    code, out, err = capture(["diagram", "--S", "{2,5}", "--rho", "123456"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


# Cell lists that are not a JSON list of distinct [column, row] pairs of ints.
MALFORMED_CELLS = [
    "[[1]]",
    "[[1,1,1]]",
    '{"a":1}',
    "[[1e400,1]]",
    "[[null,1]]",
    "[[1.5,1]]",
    "[[true,1]]",
    '[["1",1]]',
    "[[1,1],[1,1]]",
    "[" * 2000,  # deeper than json.loads recurses
]


@pytest.mark.parametrize(
    "argv, env",
    [
        (["class", "--lo", "12x", "--hi", "123"], None),
        (["family", "--kind", "Q", "--alpha", "(a,2)"], None),
        (["hasse", "--cells", "[[1,1"], None),
        (["class", "--lo", "132456", "--hi", "142563"], "abc"),
        *((["hasse", "--cells", cells], None) for cells in MALFORMED_CELLS),
    ],
    ids=["perm", "alpha", "cells", "nmax-override", *(cells[:20] for cells in MALFORMED_CELLS)],
)
def test_malformed_input_is_domain_error(argv, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("WOL_NMAX_OVERRIDE", env)
    code, out, err = capture(argv, capsys)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["error"] == "domain" and error["message"]


def test_resource_error_exit_code(capsys):
    code, out, err = capture(
        ["class", "--lo", "132456", "--hi", "142563", "--cap", "2"], capsys
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "resource" and payload["partial_count"] == 2


def test_class_cap_error_line(capsys):
    # the exact cap error line is part of the CLI contract
    code, out, err = capture(
        ["class", "--lo", "132456", "--hi", "142563", "--cap", "3"], capsys
    )
    assert (code, out) == (2, "")
    assert err == (
        '{"error": "resource", "message": "class size exceeds the count cap 3; '
        'raise it with --cap", "partial_count": 3}\n'
    )


SQUARE = Diagram(frozenset((x, y) for x in range(1, 4) for y in range(1, 4)))
EXPLICIT = "raise it with the cap= argument"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: equiv_class(wol.weak_interval((1, 3, 2, 4, 5, 6), (1, 4, 2, 5, 6, 3), "L"), cap=3),
         f"class size exceeds the count cap 3; {EXPLICIT}"),
        (lambda: enumerate_ST(SQUARE, cap=3),
         f"standard tableau count exceeds the count cap 3; {EXPLICIT}"),
        (lambda: count_ST(SQUARE, cap=3), f"down-set count exceeds the count cap 3; {EXPLICIT}"),
        (lambda: linear_extensions_L(Poset(4), cap=3),
         f"linear extension ground set 4 exceeds the ground-set size cap 3; {EXPLICIT}"),
        (lambda: linear_extensions_L(Poset(10)),
         "linear extension ground set 10 exceeds the ground-set size cap 9; "
         "raise it with WOL_NMAX_OVERRIDE"),
    ],
    ids=["class", "tableaux", "down-sets", "ground-set-explicit", "ground-set-default"],
)
def test_cap_errors_say_how_to_raise_the_cap(call, message, monkeypatch):
    """An explicit cap wins over the environment, so the error names the
    cap argument when one was passed, and WOL_NMAX_OVERRIDE otherwise; only
    the CLI's class command, which reads --cap, names that flag."""
    monkeypatch.delenv("WOL_NMAX_OVERRIDE", raising=False)
    with pytest.raises(ResourceCapError) as info:
        call()
    assert str(info.value) == message


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        run(["bogus-command"])
    assert info.value.code == 3
    capsys.readouterr()


def test_verify_suite(capsys):
    code, out, _ = capture(["verify", "--suite", "perm", "--nmax", "3"], capsys)
    assert code == 0
    assert "6/6 checks passed" in out


def test_verify_fails_the_rows_without_cases(capsys):
    code, out, _ = capture(["verify", "--suite", "all", "--nmax", "1"], capsys)
    assert code == 1
    lines = out.splitlines()
    failed = [line.split("  ")[1].strip() for line in lines if line.startswith("FAIL")]
    assert failed == ["perm:coset decomposition", "poset:relabel classification"]
    assert sum(line.endswith("  no cases for n <= 1") for line in lines) == 2
    # The seeded diagram sample does not shrink with nmax.
    assert any("diagram:reflections" in line and "(50 cases, n = 2..8)" in line for line in lines)
    assert lines[-1] == "30/32 checks passed"


def test_verify_rejects_an_unknown_suite(capsys):
    with pytest.raises(SystemExit) as info:
        run(["verify", "--suite", "bogus"])
    assert info.value.code == 3
    assert capsys.readouterr() == (
        "",
        '{"error": "usage", "message": "argument --suite: invalid choice: \'bogus\' '
        "(choose from 'all', 'perm', 'poset', 'diagram', 'class', 'family', 'module')\"}\n",
    )


# Run in a fresh interpreter: in this one other tests have imported wol.verify.
IMPORT_PATH_PROBE = """
import io, sys
from contextlib import redirect_stdout
import wol, wol.cli
with redirect_stdout(io.StringIO()):
    wol.cli.run(["family", "--kind", "P", "--alpha", "(2,1)"])
    after_family = "wol.verify" in sys.modules
    wol.cli.run(["verify", "--suite", "perm", "--nmax", "2"])
    after_verify = "wol.verify" in sys.modules
from wol import verify
print(after_family, after_verify, wol.cli.SUITE_NAMES == tuple(verify.SUITES))
"""


def fresh_interpreter(code: str) -> str:
    """The standard output of ``code`` run in a new interpreter that imports
    this wol; the run must exit 0 and write nothing to stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(wol.__file__).parents[1])}
    probe = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (probe.returncode, probe.stderr) == (0, "")
    return probe.stdout


def test_only_the_verify_command_imports_the_oracles():
    assert fresh_interpreter(IMPORT_PATH_PROBE) == "False True True\n"


SHELL_COMMANDS = [
    ["class", "--lo", "2134", "--hi", "4321"],
    ["hull", "--S", "{2}", "--rho", "142563"],
    ["cover", "--sigma", "345126", "--S", "{3}"],
    ["family", "--kind", "Q", "--alpha", "(3,2,3,1)"],
    ["minmax", "--S", "{2,5}", "--rho", "231564"],
    ["diagram", "--S", "{2,5}", "--rho", "231564"],
    ["hasse", "--cells", "[[1,1],[2,1],[1,2],[2,2]]"],
]

SHELL_PATH_PROBE = f"""
import io, sys
from contextlib import redirect_stdout
import wol, wol.cli
with redirect_stdout(io.StringIO()):
    codes = [wol.cli.run(argv) for argv in {SHELL_COMMANDS!r}]
loaded = ("numpy", "wol.hecke", "dataclasses", "inspect")
print(codes, [name for name in loaded if name in sys.modules])
"""


def test_the_shell_commands_run_without_numpy():
    """Nor do they load ``dataclasses`` and the ``inspect`` it imports."""
    assert fresh_interpreter(SHELL_PATH_PROBE) == f"{[0] * len(SHELL_COMMANDS)} []\n"


def test_importing_the_cli_does_not_import_argparse():
    code = "import sys, wol.cli; print('argparse' in sys.modules)"
    assert fresh_interpreter(code) == "False\n"


@pytest.mark.parametrize("nmax", [0, -3])
@pytest.mark.parametrize("suite", ["perm", "class"])
def test_verify_rejects_nmax_below_one(suite, nmax, capsys):
    code, out, err = capture(["verify", "--suite", suite, "--nmax", str(nmax)], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "domain",
        "message": f"nmax must be at least 1, got {nmax}",
    }


def test_reused_parser_keeps_no_state(capsys):
    sequence = [
        ["class", "--lo", "132456"],
        ["class", "--lo", "132456", "--hi", "142563", "--format", "text"],
        ["class", "--lo", "132456", "--hi", "142563"],
        ["diagram", "--S", "{2,5}", "--rho", "231564"],
    ]
    codes = []
    for argv in sequence:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "wol.cli", *argv], capture_output=True, text=True
        )
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [3, 0, 0, 0]


def test_hasse_class(capsys):
    code, out, _ = capture(["hasse", "--lo", "132465", "--hi", "231564"], capsys)
    assert code == 0 and out.startswith("digraph")


def test_hasse_tableaux(capsys):
    code, out, _ = capture(["hasse", "--cells", "[[1,1],[2,1],[1,2],[2,2]]"], capsys)
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 1


def test_repeated_runs_byte_identical():
    env = dict(os.environ)
    cmd = [
        sys.executable,
        "-m",
        "wol.cli",
        "class",
        "--lo",
        "132456",
        "--hi",
        "142563",
    ]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.stdout == second.stdout and first.returncode == 0


def test_nmax_override_env(capsys, monkeypatch):
    monkeypatch.setenv("WOL_NMAX_OVERRIDE", "200000")
    from wol.errors import resolve_cap

    assert resolve_cap(None, 100) == 200000
    assert resolve_cap(7, 100) == 7
