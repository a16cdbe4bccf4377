"""The verify table and its runner: row names, verdicts, swept ranges,
case counts, first failures and the sharing of domains."""

import re

from wol import cli, verify

from wol.verify import SUITES, Check, run_check, run_suite, symmetric_group

ROW_NAMES = [
    "perm:descent symmetry",
    "perm:weak order oracle",
    "perm:w0/w1 identities",
    "perm:descent class oracle",
    "perm:coset decomposition",
    "perm:interval closure",
    "poset:interval/poset round trip",
    "poset:extremes formula",
    "poset:relabel classification",
    "poset:bar involution",
    "diagram:reflections",
    "diagram:canonical fill intervals",
    "diagram:northeast filling",
    "diagram:star action relations",
    "diagram:descent diagram intervals",
    "diagram:ribbons free",
    "class:iso oracle",
    "class:class structure",
    "class:class census",
    "class:moves preserve descents",
    "family:closed forms vs BFS",
    "family:diagram freeness",
    "family:singleton classes",
    "family:twisted translates",
    "family:tableau bijections",
    "module:relation suite",
    "module:one-dimensional actions",
    "module:dimension audits",
    "module:twist consistency",
    "module:intertwiner ladder",
    "module:hulls and covers",
    "module:projective decompositions",
]

SWEPT = re.compile(r" \((\d[\d,]*) cases, n = (\d+)\.\.(\d+)\)$")


def test_every_row_passes_and_reports_its_sweep():
    rows = run_suite("all", 4, 0)
    assert [name for name, _, _ in rows] == ROW_NAMES
    checks = [check for suite in SUITES.values() for check in suite]
    for (name, ok, detail), check in zip(rows, checks):
        assert ok, (name, detail)
        swept = SWEPT.search(detail)
        assert swept, detail
        cases, lo, hi = int(swept[1].replace(",", "")), int(swept[2]), int(swept[3])
        assert cases > 0 and 1 <= lo <= hi
        # Only a fixed seeded sample runs past nmax.
        assert hi <= 4 or check.sample, detail


def test_the_runner_returns_the_first_failure_verbatim():
    seen = []

    def third_fails(w):
        seen.append(w)
        if len(seen) == 3:
            return f"made-up failure at {w}"

    check = Check("fake", "never shown", ((symmetric_group, 4, third_fails),))
    assert run_check(check, 9, 0) == (False, "made-up failure at (2, 1)")
    assert seen == [(1,), (1, 2), (2, 1)]


def test_a_check_without_cases_fails():
    check = Check("empty", "never shown", ((symmetric_group, 4, lambda w: None),), nmin=2)
    assert run_check(check, 1, 0) == (False, "no cases for n <= 1")


def test_checks_build_a_shared_domain_once_per_n():
    calls = []

    def domain(n, seed):
        calls.append(n)
        return [(n,)]

    first = Check("first", "first holds", ((domain, 3, lambda n: None),))
    second = Check("second", "second holds", ((domain, 2, lambda n: None),))
    cases = {}
    assert run_check(first, 5, 0, cases) == (True, "first holds (3 cases, n = 1..3)")
    assert run_check(second, 5, 0, cases) == (True, "second holds (2 cases, n = 1..2)")
    assert calls == [1, 2, 3]


def test_tableau_bijections_count_only_the_free_diagrams():
    # 271 lower and 271 upper descent intervals of S_1..S_5 have a free
    # diagram; the row checks those and no others.
    (check,) = [check for check in SUITES["family"] if check.name == "tableau bijections"]
    assert run_check(check, 5, 0) == (
        True,
        "free-diagram classes match their standard tableaux (542 cases, n = 1..5)",
    )


def test_a_row_that_raises_fails_alone(capsys, monkeypatch):
    real = verify.equiv_class

    def breaks_at_four(I, *args, **kwargs):
        if I.n == 4:
            raise IndexError("made-up failure")
        return real(I, *args, **kwargs)

    monkeypatch.setattr(verify, "equiv_class", breaks_at_four)
    code = cli.run(["verify", "--suite", "class", "--nmax", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split("  ")[:2] for line in lines[:-1]] == [
        ["FAIL", "class:iso oracle"],
        ["FAIL", "class:class structure"],
        ["FAIL", "class:class census"],
        ["PASS", "class:moves preserve descents"],
    ]
    assert all(line.endswith("  IndexError: made-up failure") for line in lines[:3])
    assert lines[-1] == "1/4 checks passed"


def test_tableau_bijection_failures_say_why(monkeypatch):
    monkeypatch.setattr(verify, "enumerate_ST", lambda D: [])
    (check,) = [check for check in SUITES["family"] if check.name == "tableau bijections"]
    assert run_check(check, 5, 0) == (
        False,
        "bijection fails for ([], (1,)): |ST(D^x)| = 0 but |C| = 1",
    )
