import io
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    annihilating_placement,
    assembled_k_is_unitriangular,
    column_swapping_placement,
    per_word,
    qsym_json,
    qsym_text,
    report_analyze_text,
    row_swapping_full_step,
    swapping_placement,
    swapping_quotient_step,
)
import extschur
import extschur.cli as cli
from extschur import compositions, hecke_action, module_analysis, tableaux
from extschur.cli import ALL_CHECKS, main
from extschur.compositions import (
    _bits,
    _composition_of_mask,
    _labels,
    _mask,
    _texts,
    compositions_of,
    format_composition,
    is_partition,
    parse_composition,
)
from extschur.module_analysis import _Shape
from extschur.hecke_action import verify_relations
from extschur.module_analysis import (
    analysis_report,
    characteristic,
    commutant_basis,
    verify_submodule_closure,
)
from extschur.qsym import (
    QSymElement,
    extended_schur_in_F,
    extended_schur_in_M,
    k_matrix,
    ribbon_in_shin,
)
from extschur.tableaux import descent_composition, enumerate_set, enumerate_srit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_fundamental_text(capsys):
    code, out, _ = run(capsys, "expand", "--alpha", "2,1,3", "--basis", "F")
    assert code == 0
    assert out == "F[1,1,2,2] + F[1,2,3] + F[2,1,3]\n"


def test_expand_single_part(capsys):
    code, out, _ = run(capsys, "expand", "--alpha", "3", "--basis", "F")
    assert code == 0
    assert out == "F[3]\n"
    code, out, _ = run(capsys, "expand", "--alpha", "40", "--max-n", "40", "--basis", "F")
    assert code == 0
    assert out == "F[40]\n"


def test_expand_monomial(capsys):
    code, out, _ = run(capsys, "expand", "--alpha", "1,2", "--basis", "M")
    assert code == 0
    assert out == "M[1,1,1] + M[1,2]\n"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "--alpha", "2,1,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "degree": 6,
        "basis": "F",
        "terms": [
            {"composition": [1, 1, 2, 2], "coefficient": 1},
            {"composition": [1, 2, 3], "coefficient": 1},
            {"composition": [2, 1, 3], "coefficient": 1},
        ],
    }


def test_expand_rejects_malformed_composition(capsys):
    code, _, err = run(capsys, "expand", "--alpha", "2,x,3")
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("text", ["2_0,1", "+2,1", "\u0662,1"])
def test_expand_rejects_what_int_alone_accepts(capsys, text):
    code, out, err = run(capsys, "expand", "--alpha", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed composition string")


def test_expand_rejects_nonpositive_parts(capsys):
    code, _, err = run(capsys, "expand", "--alpha", "2,0,3")
    assert code == 2


def test_expand_rejects_weight_over_cap(capsys):
    code, _, err = run(capsys, "expand", "--alpha", "5,5")
    assert code == 2
    assert "max-n" in err
    code, out, _ = run(capsys, "expand", "--alpha", "5,5", "--max-n", "10")
    assert code == 0


def test_expand_rejects_csv(capsys):
    code, _, err = run(capsys, "expand", "--alpha", "2,1", "--format", "csv")
    assert code == 2


def test_usage_error_on_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_repeated_calls_print_what_a_fresh_process_prints(capsys, monkeypatch):
    # argparse wraps its usage text to COLUMNS; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("PYTHONPATH", str(Path(extschur.__file__).parents[1]))
    for argv in (
        ("expand", "--alpha", "2,1,3", "--basis", "M"),
        ("analyze", "--alpha"),  # usage error raised by the parser itself
        ("verify", "--n", "3", "--format", "json"),
        ("expand", "--al", "2,1"),  # argparse's abbreviation and = forms
        ("expand", "--alpha=2,1"),
        ("verify", "--n", "-1"),
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "extschur.cli", *argv],
            capture_output=True, text=True, env=os.environ.copy(), check=False,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_cli_import_loads_neither_dataclasses_nor_typing():
    # -I ignores PYTHONPATH, so the child puts the source tree on sys.path;
    # argparse, with gettext, is built only for help and usage errors
    src = str(Path(extschur.__file__).resolve().parents[1])
    code = """
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
names = ("dataclasses", "typing", "inspect", "ast", "argparse", "gettext", "csv",
         "json", "re", "enum")
import extschur.cli
print(*[m for m in names if m in sys.modules])
with redirect_stdout(io.StringIO()):
    codes = [extschur.cli.main(call.split(" ")) for call in sys.argv[2:]]
print(*codes, *[m for m in names if m in sys.modules])
"""
    calls = ["expand --alpha 2,1,3 --basis M", "analyze --alpha 2,1 --format json",
             "verify --n 3 --checks relations,kmatrix", "tableaux --alpha 2,1 --show-descents",
             "kmatrix --n 3 --format csv --max-n 4", "char --alpha 1,2"]
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src, *calls],
        capture_output=True, text=True, check=True,
    )
    assert child.stdout == "\n0 0 0 0 0 0\n"
    assert child.stderr == ""


@pytest.mark.parametrize("argv, usage", [
    (("--help",), "usage: extschur [-h] {expand,"),
    (("verify", "--help"), "usage: extschur verify [-h]"),
])
def test_help_still_comes_from_argparse(capsys, argv, usage):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(usage)


def argparse_result(argv):
    """``vars()`` of argparse's namespace for ``argv``, or the SystemExit it raised."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc


def assert_parsed_as_argparse_parses(argv) -> bool:
    """The strict parser declines ``argv`` or agrees with argparse; True when it accepts."""
    fast = cli._parse_strict(argv)
    if fast is None:
        return False
    expected = argparse_result(argv)
    assert not isinstance(expected, SystemExit), (argv, vars(fast))
    assert vars(fast) == expected, argv
    return True


_FLAGS = ["--alpha", "--basis", "--kind", "--show-descents", "--n", "--checks",
          "--format", "--max-n"]
_ODD_FLAGS = ["--al", "--max", "--sh", "--alpha=2,1", "--n=3", "--format=json",
              "--bogus", "-h", "--"]
_VALUES = ["2,1", "", " 5", "\u0665", "1_0", "-1", "-", "x", "3", "0", "text", "json", "csv",
           "xml", "F", "M", "G", "set", "srit", "relations,kmatrix"]
_PLAUSIBLE = {
    "--basis": ["F", "M", "G"], "--kind": ["set", "srit", "x"], "--format": ["text", "json", "csv"],
    "--n": ["3", "0", " 5", "\u0665", "1_0"], "--max-n": ["9", "0", "1_0"],
}


@st.composite
def cli_argvs(draw):
    """Mostly a command with its own options and plausible values, with
    repeats, other commands' options, abbreviations, '=' forms, '-h', '--',
    negative numbers and stray values mixed in."""
    command = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", "-h", "--alpha"]))
    options = {**cli._SHARED, **cli._COMMANDS[command][1]} if command in cli._COMMANDS else {}
    own = [flag for flag in _FLAGS if flag in options] or _FLAGS
    required = "--n" if command in ("verify", "kmatrix") else "--alpha"
    flags = draw(st.lists(st.sampled_from(own), unique=True, max_size=3))
    if required not in flags and draw(st.integers(0, 3)):
        flags.append(required)
    if not draw(st.integers(0, 2)):
        flags += draw(st.lists(st.sampled_from(_FLAGS + _ODD_FLAGS), min_size=1, max_size=2))
    flags = draw(st.permutations(flags))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag not in ("--show-descents", "--") and draw(st.integers(0, 9)):
            plausible = _PLAUSIBLE.get(flag, _VALUES)
            argv.append(draw(st.sampled_from(plausible if draw(st.integers(0, 3)) else _VALUES)))
    return argv


@settings(deadline=None, max_examples=400)
@given(cli_argvs())
def test_strict_parse_declines_or_agrees_with_argparse(argv):
    assert_parsed_as_argparse_parses(argv)


def test_well_formed_calls_take_the_strict_parse():
    calls = [
        ["expand", "--alpha", "2,1,3", "--basis", "M", "--format", "json", "--max-n", "9"],
        ["expand", "--max-n", "\u0665", "--alpha", ""],
        ["tableaux", "--show-descents", "--alpha", "2,1", "--kind", "srit"],
        ["char", "--alpha", "1,2", "--format", "csv"],
        ["analyze", "--format", "text", "--alpha", "x"],
        ["verify", "--n", " 5", "--checks", "relations,kmatrix"],
        ["verify", "--checks", "", "--n", "1_0", "--max-n", "0"],
        ["kmatrix", "--n", "3", "--format", "csv"],
    ]
    for argv in calls:
        assert assert_parsed_as_argparse_parses(argv), argv
    for argv in (["expand"], ["expand", "--alpha", "2", "--alpha", "2"], ["kmatrix", "--n", "-1"],
                 ["verify", "--n", "x"], ["expand", "--alpha", "2", "--basis", "G"],
                 ["expand", "--alpha", "2", "--max-n"], ["expand", "--alpha", 2], [],
                 ["char", "--alpha", "2", "--kind", "set"], ["expand", "--alpha", "2", "--bogus"]):
        assert cli._parse_strict(argv) is None, argv


@pytest.mark.parametrize("argv", [("--format", "json"), ("--kind", "srit")])
def test_a_closed_pipe_ends_the_listing_quietly(argv):
    # each listing is larger than a 64 KB pipe buffer, so the reader closes
    # the pipe while the CLI is still writing
    env = {**os.environ, "PYTHONPATH": str(Path(extschur.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "extschur.cli", "tableaux", "--alpha", "4,3,2,1", "--max-n", "10",
         *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert err == b""


def test_tableaux_set_with_descents(capsys):
    code, out, _ = run(
        capsys, "tableaux", "--alpha", "2,1,3", "--kind", "set", "--show-descents"
    )
    assert code == 0
    assert out == (
        "4 5 6\n3\n1 2\nDes: 2,1,3\n"
        "\n4 5 6\n2\n1 3\nDes: 1,2,3\n"
        "\n3 5 6\n2\n1 4\nDes: 1,1,2,2\n"
    )


def test_tableaux_srit_count(capsys):
    code, out, _ = run(capsys, "tableaux", "--alpha", "1,1", "--kind", "srit")
    assert code == 0
    assert out.count("\n\n") == 1  # two tableaux separated by a blank line


def test_tableaux_single_column(capsys):
    code, out, _ = run(capsys, "tableaux", "--alpha", "1,1,1", "--kind", "set")
    assert code == 0
    assert out == "3\n2\n1\n"


def test_tableaux_json(capsys):
    code, out, _ = run(
        capsys, "tableaux", "--alpha", "1,2", "--kind", "set", "--show-descents",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [
        {"shape": [1, 2], "rows": [[1], [2, 3]], "descent_composition": [1, 2]}
    ]


def test_char_matches_expand(capsys):
    _, via_char, _ = run(capsys, "char", "--alpha", "2,1,3")
    _, via_expand, _ = run(capsys, "expand", "--alpha", "2,1,3", "--basis", "F")
    assert via_char == via_expand


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "--alpha", "2,1,3")
    assert code == 0
    assert out == (
        "alpha: 2,1,3\n"
        "dimension: 3\n"
        "factors: 1,1,2,2; 1,2,3; 2,1,3\n"
        "characteristic: F[1,1,2,2] + F[1,2,3] + F[2,1,3]\n"
        "commutant dimension: 1\n"
        "indecomposable: true\n"
    )


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--alpha", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == [4]
    assert payload["dim"] == 1
    assert payload["factors"] == [[4]]
    assert payload["commutant_dimension"] == 1
    assert payload["indecomposable"] is True


def test_analyze_two_rows_of_one(capsys):
    code, out, _ = run(capsys, "analyze", "--alpha", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [[1, 1]]
    assert payload["characteristic"]["terms"] == [
        {"composition": [1, 1], "coefficient": 1}
    ]


def test_kmatrix_csv(capsys):
    code, out, _ = run(capsys, "kmatrix", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        ',"1,1,1","1,2","2,1",3',
        '"1,1,1",1,0,0,0',
        '"1,2",0,1,0,0',
        '"2,1",0,1,1,0',
        "3,0,0,0,1",
    ]


def test_kmatrix_identity_degrees(capsys):
    code, out, _ = run(capsys, "kmatrix", "--n", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [",1", "1,1"]
    code, out, _ = run(capsys, "kmatrix", "--n", "2", "--format", "csv")
    assert out.splitlines() == [',"1,1",2', '"1,1",1,0', "2,0,1"]


def test_kmatrix_rejects_bad_n(capsys):
    for n in ("0", "-1"):
        assert run(capsys, "kmatrix", "--n", n) == (2, "", "error: --n must be at least 1\n")
    assert run(capsys, "kmatrix", "--n", "9") == (2, "", "error: --n 9 exceeds --max-n 8\n")
    assert run(capsys, "kmatrix", "--n", "4", "--max-n", "3")[0] == 2
    assert run(capsys, "kmatrix", "--n", "4", "--max-n", "4")[0] == 0


def test_verify_small_sweep_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3")
    assert code == 0
    assert "result: all checks passed" in out
    for name in cli.ALL_CHECKS:
        assert f"{name}:" in out


def test_verify_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "--n", "0")
    assert code == 0
    assert "relations: 0 pass, 0 fail" in out


def test_verify_endomorphism_only(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--checks", "endomorphism")
    assert code == 0
    assert "endomorphism: 31 pass, 0 fail" in out
    assert "relations" not in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--checks", "kmatrix,roundtrip",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [c["name"] for c in payload["checks"]] == ["kmatrix", "roundtrip"]
    assert all(c["failed"] == 0 for c in payload["checks"])
    assert all(c["first_counterexample"] is None for c in payload["checks"])


def test_verify_rejects_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--n", "2", "--checks", "nonsense")
    assert code == 2
    assert "unknown checks" in err


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_verify_rejects_empty_check_list(capsys, checks):
    code, out, err = run(capsys, "verify", "--n", "3", "--checks", checks)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --checks selects no check")


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "6"),
    ("analyze", "--alpha", "4,2,1,1"),
    ("expand", "--alpha", "2,1"),
    ("char", "--alpha", "2,1"),
    ("tableaux", "--alpha", "2,1"),
])
def test_csv_refused_before_any_work(capsys, monkeypatch, argv):
    def reached(*args):
        raise AssertionError("handler ran for a refused csv request")

    for name in ("_cmd_expand", "_cmd_tableaux", "_cmd_char", "_cmd_analyze",
                 "_cmd_verify", "_run_checks"):
        monkeypatch.setattr(cli, name, reached)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2
    assert out == ""
    assert err == "error: csv output is only available for the kmatrix command\n"


def patch_everywhere(monkeypatch, module, name, replacement):
    """Replace every reference the package holds to ``module.name``,
    wherever it was imported."""
    real = getattr(module, name)
    for loaded in list(sys.modules.values()):
        if loaded.__name__.startswith("extschur") and getattr(loaded, name, None) is real:
            monkeypatch.setattr(loaded, name, replacement)
    return real


def test_verify_builds_each_shape_once(capsys, monkeypatch):
    by_check = []
    for name in ALL_CHECKS:
        code, out, _ = run(capsys, "verify", "--n", "5", "--checks", name)
        assert code == 0
        by_check.append(out.removesuffix("result: all checks passed\n"))

    shapes = [alpha for m in range(1, 6) for alpha in compositions_of(m)]
    set_words = {alpha: tableaux._set_words(alpha) for alpha in shapes}
    calls = Counter()
    for module, name in (
        (tableaux, "_srit_words"), (tableaux, "_grown"), (hecke_action, "filtration"),
        (hecke_action, "_quotient_images"),
    ):
        def counted(alpha, *args, real=getattr(module, name), name=name):
            calls[name, tuple(alpha)] += 1
            return real(alpha, *args)

        patch_everywhere(monkeypatch, module, name, counted)

    # each shape's row-increasing words and standard extended tableaux are
    # grown once, for the row words and the column pass alike, the kmatrix
    # check included, no Filtration is built, and the word-level quotient
    # rule runs once per SET, for the relations table alone; calls made in
    # a forked child are not counted here, so at two parts this process
    # grows the shapes of its own part alone
    for cores, grown in ((1, shapes), (2, cli._plan(shapes, 2)[0])):
        monkeypatch.setattr(cli, "_cores", lambda: cores)
        calls.clear()
        code, out, _ = run(capsys, "verify", "--n", "5")
        assert code == 0
        assert out == "".join(by_check) + "result: all checks passed\n"
        assert calls == Counter(
            {("_srit_words", tuple(alpha)): 1 for alpha in grown}
            | {("_grown", tuple(alpha)): 1 for alpha in grown}
            | {("_quotient_images", w): 1 for alpha in grown for w in set_words[alpha]}
        )
    assert len(grown) < len(shapes)
    calls.clear()
    others = ",".join(name for name in ALL_CHECKS if name != "relations")
    assert run(capsys, "verify", "--n", "5", "--checks", others)[0] == 0
    assert not any(name == "_quotient_images" for name, _ in calls)
    assert all(calls["_grown", tuple(alpha)] == 1 for alpha in grown)
    # alone, as in every subset, a check that reads a shape's SETs grows
    # them once, marked, and the others grow none: no subset picks how they
    # are grown (schur reads the SETs of a partition alone)
    monkeypatch.setattr(cli, "_cores", lambda: 1)
    unmarked = []

    def marked_only(alpha, marks=None):
        if marks is None:
            unmarked.append(alpha)
        return grow(alpha, marks)

    grow = patch_everywhere(monkeypatch, tableaux, "_grown", marked_only)
    partitions = [alpha for alpha in shapes if is_partition(alpha)]
    reads_sets = dict.fromkeys(("relations", "submodule", "characteristic", "endomorphism"),
                               shapes) | {"schur": partitions}
    for name, out in zip(ALL_CHECKS, by_check):
        calls.clear()
        expected = out + "result: all checks passed\n"
        assert run(capsys, "verify", "--n", "5", "--checks", name) == (0, expected, ""), name
        assert Counter({alpha: count for (called, alpha), count in calls.items()
                        if called == "_grown"}) == Counter(
            {tuple(alpha): 1 for alpha in reads_sets.get(name, ())}), name
    assert unmarked == []


def test_expansions_and_kmatrix_never_grow_tableaux(capsys, monkeypatch):
    # an empty memo, so the sub-shape recursion runs here
    monkeypatch.setattr(tableaux, "_MASKS_BY_LAST_COLUMN", {(): {-1: {0: 1}}})
    calls = Counter()
    real = patch_everywhere(
        monkeypatch, tableaux, "_grown",
        lambda alpha: calls.update([tuple(alpha)]) or real(alpha),
    )
    for alpha in compositions_of(5):
        extended_schur_in_F(alpha)
        extended_schur_in_M(alpha)
    k_matrix(5)
    ribbon_in_shin((2, 1, 2))
    for argv in (
        ("expand", "--alpha", "2,1,3", "--basis", "F"),
        ("expand", "--alpha", "2,1,3", "--basis", "M", "--format", "json"),
        ("kmatrix", "--n", "6"),
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert calls == Counter()
    # the check is live: enumerate_set still grows
    tableaux.enumerate_set((2, 1))
    assert calls == Counter({(2, 1): 1})


def test_verify_characteristic_fails_on_skewed_descent_masks(capsys, monkeypatch):
    # the operator route shares no enumeration with the descent masks, so
    # one extra count in the masks shows as a failure
    def skewed(alpha):
        masks = real(alpha)
        if sum(alpha) >= 2:
            masks[0] += 1
        return masks

    real = patch_everywhere(monkeypatch, tableaux, "_descent_masks", skewed)
    code, out, err = run(capsys, "verify", "--n", "3", "--checks", "characteristic")
    assert code == 1
    assert "characteristic: 1 pass, 6 fail" in out
    assert "first counterexample: alpha=1,1" in out
    assert "Traceback" not in out + err


def test_expand_deeper_than_the_recursion_limit(capsys):
    n = 1200
    assert n > sys.getrecursionlimit()
    code, out, _ = run(capsys, "expand", "--alpha", str(n), "--max-n", str(n))
    assert code == 0
    assert out == f"F[{n}]\n"


@pytest.mark.parametrize("command", ["tableaux", "char", "analyze"])
def test_one_row_deeper_than_the_recursion_limit(capsys, command):
    # the SET growth keeps its own stack, so a shape of more entries than
    # the recursion limit answers instead of raising RecursionError
    n = 1200
    assert n > sys.getrecursionlimit()
    code, out, err = run(capsys, command, "--alpha", str(n), "--max-n", str(n))
    assert code == 0, err
    expected = {
        "tableaux": " ".join(map(str, range(1, n + 1))) + "\n",
        "char": f"F[{n}]\n",
    }
    if command in expected:
        assert out == expected[command]
    else:
        assert f"characteristic: F[{n}]\n" in out
        assert out.endswith("indecomposable: true\n")


def _grown_must_not_run(*_):
    raise AssertionError("the refused shape was grown")


@pytest.mark.parametrize("argv, rows", [
    (("analyze",), 20),
    (("char", "--format", "json"), 20),
    (("tableaux",), 20),
    (("tableaux", "--kind", "set", "--show-descents"), 20),
    (("analyze",), 600),
])
def test_set_budget_refuses_before_growing(capsys, monkeypatch, argv, rows):
    # two equal rows of k: Catalan(k) standard extended tableaux
    patch_everywhere(monkeypatch, tableaux, "_grown", _grown_must_not_run)
    alpha = f"{rows},{rows}"
    code, out, err = run(capsys, *argv, "--alpha", alpha, "--max-n", str(2 * rows))
    assert code == 2
    assert out == ""
    budget, seconds = ((cli.ANALYZE_SET_BUDGET, cli.ANALYZE_SET_SECONDS)
                       if argv[0] in ("analyze", "char") else (cli.SET_BUDGET, cli.SET_SECONDS))
    assert err == (
        f"error: {alpha} has {comb(2 * rows, rows) // (rows + 1)} standard extended "
        f"tableaux, over the budget of {budget} at about {seconds * 1e6:g} us each\n"
    )


def test_analyze_and_char_have_their_own_set_budget(capsys, monkeypatch):
    # 6,4,3,2,1 has 1,153,152 SETs: within the budget of analyze and char,
    # which read them off one growth that keeps no word, and over the
    # budget of tableaux, which prints each one
    assert cli.SET_BUDGET < 1_153_152 <= cli.ANALYZE_SET_BUDGET
    assert (cli.SET_BUDGET, cli.SET_SECONDS) == (300_000, 30e-6)
    patch_everywhere(monkeypatch, tableaux, "_grown", _grown_must_not_run)

    class Admitted(Exception):
        pass

    def admitted(alpha):
        raise Admitted(alpha)

    monkeypatch.setattr(cli, "_Shape", admitted)
    for command in ("analyze", "char"):
        with pytest.raises(Admitted):
            main([command, "--alpha", "6,4,3,2,1", "--max-n", "16"])
    code, out, err = run(capsys, "tableaux", "--alpha", "6,4,3,2,1", "--max-n", "16")
    assert (code, out) == (2, "")
    assert err == (
        "error: 6,4,3,2,1 has 1153152 standard extended tableaux, over the budget of "
        "300000 at about 30 us each\n"
    )


def test_set_budget_boundary(capsys, monkeypatch):
    # (2,1,3) has three standard extended tableaux and 6!/(2!3!) = 60
    # row-increasing ones
    expected = {}
    for argv in (("analyze",), ("char",), ("tableaux",), ("tableaux", "--kind", "srit")):
        code, expected[argv], _ = run(capsys, *argv, "--alpha", "2,1,3")
        assert code == 0
    for budget in (60, 59, 3, 2):
        monkeypatch.setattr(cli, "SET_BUDGET", budget)
        monkeypatch.setattr(cli, "ANALYZE_SET_BUDGET", budget)
        for argv, out in expected.items():
            code, got, err = run(capsys, *argv, "--alpha", "2,1,3")
            count, name = (60, "row-increasing") if argv[-1] == "srit" else (3, "extended")
            if count <= budget:
                assert (code, got, err) == (0, out, "")
            else:
                assert (code, got) == (2, "")
                assert err.startswith(f"error: 2,1,3 has {count} standard {name} tableaux, ")


def _srit_must_not_run(*_):
    raise AssertionError("the refused shape was listed")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_srit_budget_refuses_before_listing(capsys, monkeypatch, fmt):
    # 16!/(4!)^4 = 63,063,000 row-increasing fillings
    patch_everywhere(monkeypatch, tableaux, "_srit_words", _srit_must_not_run)
    patch_everywhere(monkeypatch, tableaux, "enumerate_srit", _srit_must_not_run)
    patch_everywhere(monkeypatch, tableaux, "_set_count", _srit_must_not_run)
    code, out, err = run(
        capsys, "tableaux", "--alpha", "4,4,4,4", "--max-n", "16", "--kind", "srit",
        "--format", fmt,
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: 4,4,4,4 has 63063000 standard row-increasing tableaux, over the "
        f"budget of {cli.SET_BUDGET} at about {cli.SET_SECONDS * 1e6:.0f} us each\n"
    )


def test_tableaux_json_streams_what_json_dumps_prints(capsys):
    # the oracle: the whole listing built first, then dumped at once
    for n in range(0, 7):
        for alpha in compositions_of(n):
            for kind in ("set", "srit"):
                listing = (enumerate_set if kind == "set" else enumerate_srit)(alpha)
                for descents in (False, True):
                    payload = [t.to_json() for t in listing]
                    if descents:
                        for item, t in zip(payload, listing):
                            item["descent_composition"] = list(descent_composition(t))
                    argv = ["tableaux", "--alpha", format_composition(alpha), "--kind", kind,
                            "--format", "json"] + ["--show-descents"] * descents
                    assert run(capsys, *argv) == (0, json.dumps(payload, indent=2) + "\n", "")


def test_tableaux_text_written_in_chunks_is_one_join(capsys):
    # the 10,080 row-increasing tableaux of 2,2,1,1,1,1 span three chunks of blocks
    listing = enumerate_srit((2, 2, 1, 1, 1, 1))
    for descents in (False, True):
        blocks = [str(t) + f"\nDes: {format_composition(descent_composition(t))}" * descents
                  for t in listing]
        argv = ["tableaux", "--alpha", "2,2,1,1,1,1", "--kind", "srit"]
        argv += ["--show-descents"] * descents
        assert run(capsys, *argv) == (0, "\n\n".join(blocks) + "\n", "")


@given(st.lists(st.integers() | st.sampled_from([-(10 ** 40), 2 ** 63])),
       st.sampled_from(["", "  ", "      "]))
def test_json_list_is_what_json_dumps_prints(ints, indent):
    expected = json.dumps(ints, indent=2).replace("\n", "\n" + indent)
    assert cli._json_list(ints, indent) == expected
    assert cli._json_list(tuple(ints), indent) == expected


def assert_json_dumps_form(out: str) -> None:
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_every_json_command_prints_what_json_dumps_prints(capsys):
    shapes = [format_composition(alpha) for n in range(0, 6) for alpha in compositions_of(n)]
    requests = [("analyze", "--alpha", alpha) for alpha in shapes]
    requests += [("expand", "--alpha", alpha, "--basis", basis)
                 for alpha in shapes for basis in ("F", "M")]
    requests += [("char", "--alpha", alpha) for alpha in shapes]
    requests += [("kmatrix", "--n", str(n)) for n in range(1, 6)]
    requests += [("verify", "--n", "4")]
    for argv in requests:
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, ""), argv
        assert_json_dumps_form(out)


qsym_elements = st.integers(0, 7).flatmap(lambda n: st.builds(
    QSymElement,
    st.just(n),
    st.sampled_from("FM"),
    st.dictionaries(
        st.sampled_from(compositions_of(n)),
        st.integers().filter(bool) | st.sampled_from([-(10 ** 40), 2 ** 63]),
        max_size=40,
    ),
))


def written(x: QSymElement, fmt: str = "text", indent: str = "") -> str:
    """What the mask writer writes of x, from the count of each descent mask."""
    masks = {_mask(alpha): c for alpha, c in x.coeffs.items()}
    return "".join(cli._qsym_chunks(x.basis, x.degree, masks, fmt, indent))


@given(qsym_elements)
def test_streamed_qsym_json_is_what_json_dumps_prints(element):
    out = io.StringIO()
    with redirect_stdout(out):
        print(written(element, "json"))
    assert out.getvalue() == json.dumps(element.to_json(), indent=2) + "\n"


@given(qsym_elements)
@example(QSymElement(6, "F", {(2, 1, 3): 1, (1, 2, 3): 2, (6,): -1}))
@example(QSymElement(3, "M", {(1, 1, 1): -1, (1, 2): -3, (3,): 1}))
@example(QSymElement(0, "F", {(): -1}))
def test_mask_writer_is_the_composition_writer(element):
    assert written(element) == qsym_text(element)
    for indent in ("", "  "):
        assert written(element, "json", indent) == "".join(qsym_json(element, indent))


def test_expand_writes_what_the_composition_writer_writes(capsys):
    for n in range(0, 10):
        for alpha in compositions_of(n):
            for basis, element in (("F", extended_schur_in_F(alpha)),
                                   ("M", extended_schur_in_M(alpha))):
                argv = ("expand", "--alpha", format_composition(alpha), "--basis", basis,
                        "--max-n", "9")
                assert run(capsys, *argv) == (0, qsym_text(element) + "\n", ""), argv
                expected = "".join(qsym_json(element)) + "\n"
                assert run(capsys, *argv, "--format", "json") == (0, expected, ""), argv


def test_char_and_analyze_write_what_the_composition_writer_writes(capsys):
    for n in range(0, 9):
        for alpha in compositions_of(n):
            label, char = format_composition(alpha), characteristic(alpha)
            assert run(capsys, "char", "--alpha", label) == (0, qsym_text(char) + "\n", "")
            expected = "".join(qsym_json(char)) + "\n"
            assert run(capsys, "char", "--alpha", label, "--format", "json") == (0, expected, "")
            if n > 7:
                continue
            out = run(capsys, "analyze", "--alpha", label)[1]
            assert f"\ncharacteristic: {qsym_text(char)}\n" in out
            out = run(capsys, "analyze", "--alpha", label, "--format", "json")[1]
            assert f'\n  "characteristic": {"".join(qsym_json(char, "  "))},\n' in out


def test_bit_strings_sort_and_label_masks_as_compositions(monkeypatch):
    monkeypatch.setattr(compositions, "_TEXTS", {})
    # weights 0..12 have 4,096 compositions, so the cold read fills the table
    for read in ("cold", "warm"):
        for n in range(0, 13):
            masks = range(1 << max(n - 1, 0))
            order = sorted(zip(_bits(n, masks), masks), reverse=True)
            alphas = sorted(_composition_of_mask(m, n) for m in masks)
            assert [_composition_of_mask(m, n) for _, m in order] == alphas
            bits = [bits for bits, _ in order]
            assert list(_labels(bits)) == list(map(format_composition, alphas))
            texts = list(_texts(bits))
            assert texts == list(map(format_composition, alphas)), (read, n)
            # the JSON list of a composition is its text, a line break after each ','
            for alpha, text in zip(alphas, texts):
                as_json = "[\n  " + text.replace(",", ",\n  ") + "\n]" if n else "[]"
                assert as_json == json.dumps(list(alpha), indent=2)
        assert len(compositions._TEXTS) == compositions._TEXT_CAP
        # the warm read makes no text
        monkeypatch.setattr(compositions, "_labels", None)


def test_one_process_writes_every_request_from_one_bounded_table(capsys, monkeypatch):
    monkeypatch.setattr(compositions, "_TEXTS", {})

    def expand(alpha, basis, max_n="8"):
        element = (extended_schur_in_F if basis == "F" else extended_schur_in_M)(alpha)
        argv = ("expand", "--alpha", format_composition(alpha), "--basis", basis, "--max-n", max_n)
        assert run(capsys, *argv) == (0, qsym_text(element) + "\n", ""), argv
        expected = "".join(qsym_json(element)) + "\n"
        assert run(capsys, *argv, "--format", "json") == (0, expected, ""), argv
        # the table only grows, so its size after a request is its largest
        assert len(compositions._TEXTS) <= compositions._TEXT_CAP

    for basis in "FM":
        for n in range(0, 9):
            for alpha in compositions_of(n):
                expand(alpha, basis)
    assert len(compositions._TEXTS) == 256
    # every composition of 14, twice as many as the table holds
    assert compositions._TEXT_CAP < 1 << 13
    expand(parse_composition("14"), "M", "14")
    assert len(compositions._TEXTS) == compositions._TEXT_CAP
    for alpha in compositions_of(8):
        expand(alpha, "M")


def test_expand_and_char_json_are_what_json_dumps_prints(capsys):
    for n in range(0, 7):
        for alpha in compositions_of(n):
            label = format_composition(alpha)
            for argv, element in (
                (("expand", "--alpha", label), extended_schur_in_F(alpha)),
                (("expand", "--alpha", label, "--basis", "M"), extended_schur_in_M(alpha)),
                (("char", "--alpha", label), characteristic(alpha)),
            ):
                expected = json.dumps(element.to_json(), indent=2) + "\n"
                assert run(capsys, *argv, "--format", "json") == (0, expected, ""), argv


def test_analyze_json_is_what_json_dumps_prints(capsys):
    # 5,3,3,1 has 4,158 factors, so they are written in two chunks
    shapes = [alpha for n in range(0, 8) for alpha in compositions_of(n)] + [(5, 3, 3, 1)]
    for alpha in shapes:
        expected = json.dumps(analysis_report(alpha), indent=2) + "\n"
        argv = ("analyze", "--alpha", format_composition(alpha), "--format", "json", "--max-n", "12")
        assert run(capsys, *argv) == (0, expected, ""), alpha


def test_analyze_reads_the_placement_rule_once_per_shape_and_builds_no_table(capsys, monkeypatch):
    # the SETs are grown once; the placement rule is read per pair of
    # columns, as a table, never per SET, and no word rule or table runs
    calls = Counter()
    grown, rule, images, word_table = (module_analysis._grown, hecke_action._placement,
                                       hecke_action._quotient_images, hecke_action._word_table)

    def counted_grown(*args):
        calls["grown"] += 1
        return grown(*args)

    def counted_rule(q, c):
        calls["placement"] += 1
        return rule(q, c)

    def counted_word_table(*args):
        calls["table"] += 1
        return word_table(*args)

    def counted_images(w):
        calls["word rule"] += 1
        return images(w)

    monkeypatch.setattr(module_analysis, "_grown", counted_grown)
    monkeypatch.setattr(hecke_action, "_placement", counted_rule)
    monkeypatch.setattr(hecke_action, "_quotient_images", counted_images)
    for module in (hecke_action, module_analysis):
        monkeypatch.setattr(module, "_word_table", counted_word_table)
    for alpha in ("", "2,1,3", "3,1,2,2", "2,2,1,1", "5,4,3"):
        for fmt in ("text", "json"):
            module_analysis._row_pair_marks.cache_clear()
            calls.clear()
            argv = ("analyze", "--alpha", alpha, "--format", fmt, "--max-n", "12")
            assert run(capsys, *argv)[0] == 0
            assert set(calls) <= {"grown", "placement"}, alpha
            assert calls["grown"] == 1, alpha
            # at most three reads per pair of columns of two rows: 432 at
            # 5,4,3, which has 2,112 SETs
            assert calls["placement"] <= 3 * parse_composition(alpha).weight ** 2, alpha
    assert tableaux._set_count(parse_composition("5,4,3")) == 2112


def test_verify_json_prints_a_failure_as_json_dumps_does(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._PER_ALPHA_CHECKS, "characteristic", lambda shape: shape.alpha.weight != 2
    )
    code, out, _ = run(capsys, "verify", "--n", "3", "--format", "json")
    assert code == 1
    assert_json_dumps_form(out)
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [check["first_counterexample"] for check in payload["checks"]
            if check["name"] == "characteristic"] == ["alpha=1,1"]


def _superset_sums_must_not_run(*_):
    raise AssertionError("the refused expansion was refined")


@pytest.mark.parametrize("alpha, free", [("1200", 1199), ("21", 20), ("1,1,21", 20)])
def test_expand_refuses_an_m_expansion_over_budget_before_refining(
    capsys, monkeypatch, alpha, free
):
    monkeypatch.setattr(cli, "_superset_sums", _superset_sums_must_not_run)
    code, out, err = run(capsys, "expand", "--alpha", alpha, "--max-n", "1200", "--basis", "M")
    assert code == 2
    assert out == ""
    assert f"has at least 2^{free} terms" in err
    assert str(cli.M_TERM_BUDGET) in err
    assert f"at about {cli.M_TERM_SECONDS * 1e6:.0f} us per term" in err
    assert "Traceback" not in err
    # the F expansion is not refined, so it is not refused
    code, out, _ = run(capsys, "expand", "--alpha", alpha, "--max-n", "1200")
    assert code == 0 and out.startswith("F[")


def test_expand_budget_counts_the_coarsest_mask(capsys, monkeypatch):
    # the SETs of 2,2 have descent masks 010 and 101; the coarser refines
    # into 2^2 terms, so a budget of 3 refuses the shape and one of 4 does not
    monkeypatch.setattr(cli, "M_TERM_BUDGET", 4)
    code, out, _ = run(capsys, "expand", "--alpha", "2,2", "--basis", "M")
    assert code == 0
    assert out == written(extended_schur_in_M((2, 2))) + "\n"
    monkeypatch.setattr(cli, "M_TERM_BUDGET", 3)
    monkeypatch.setattr(cli, "_superset_sums", _superset_sums_must_not_run)
    code, out, err = run(capsys, "expand", "--alpha", "2,2", "--basis", "M")
    assert code == 2 and out == ""
    assert "has at least 2^2 terms, over the budget of 3" in err


def certified(alpha) -> bool:
    """Whether ``commutant_basis`` certifies the commutant of alpha rather
    than refusing it."""
    try:
        return commutant_basis(alpha).dimension == 1
    except ValueError as refusal:
        assert "not certified one-dimensional" in str(refusal)
        return False


@pytest.mark.parametrize("rule, mutant, check, holds", [
    ("_full_step", row_swapping_full_step, "relations",
     lambda alpha: verify_relations(alpha, "full").ok),
    ("_full_step", row_swapping_full_step, "submodule", verify_submodule_closure),
    ("_quotient_images", per_word(swapping_quotient_step), "relations",
     lambda alpha: verify_relations(alpha, "quotient").ok),
    # the column pass reads the placement twin of each word-level mutant
    ("_placement", swapping_placement, "characteristic",
     lambda alpha: characteristic(alpha) == extended_schur_in_F(alpha)),
    ("_placement", swapping_placement, "endomorphism", certified),
    ("_placement", annihilating_placement, "endomorphism",
     lambda alpha: commutant_basis(alpha).dimension == 1),
    ("_placement", column_swapping_placement, "characteristic",
     lambda alpha: characteristic(alpha) == extended_schur_in_F(alpha)),
], ids=["full-relations", "full-submodule", "quotient-relations",
        "quotient-characteristic", "quotient-endomorphism",
        "unreached-endomorphism", "outside-basis-characteristic"])
def test_verify_counts_what_a_broken_operator_breaks(capsys, monkeypatch, rule, mutant, check, holds):
    # the shared per-shape tables must give each check the verdict of its
    # public function, shape by shape; a public function that raises
    # counts the shape as broken, and verify reports it without a traceback
    monkeypatch.setattr(hecke_action, rule, mutant)

    def fails(alpha) -> bool:
        try:
            return not holds(alpha)
        except (KeyError, ValueError):
            return True

    shapes = [alpha for m in range(1, 6) for alpha in compositions_of(m)]
    broken = [alpha for alpha in shapes if fails(alpha)]
    assert broken
    # at two parts broken shapes lie in both parts, in some cases the
    # earliest one in the child's
    for cores in (1, 2):
        monkeypatch.setattr(cli, "_cores", lambda: cores)
        code, out, err = run(capsys, "verify", "--n", "5", "--checks", check, "--format", "json")
        assert code == 1
        assert "Traceback" not in out + err
        assert json.loads(out)["checks"] == [{
            "name": check,
            "passed": len(shapes) - len(broken),
            "failed": len(broken),
            "first_counterexample": "alpha=" + format_composition(broken[0]),
        }]


@pytest.mark.parametrize("command, mutant, error", [
    ("analyze", annihilating_placement,
     "error: tableau ((1, 3), (2,)) is not reached from the super-standard "
     "tableau ((1, 2), (3,)); the module is not cyclic on it, so its commutant "
     "cannot be certified\n"),
    ("analyze", column_swapping_placement, "error: Tableau(rows=((2, 3), (1,)))\n"),
    ("char", column_swapping_placement, "error: Tableau(rows=((2, 3), (1,)))\n"),
    ("analyze", swapping_placement,
     "error: the commutant of the module on the super-standard tableau ((1, 2), (3,)) "
     "is not certified one-dimensional; operator 2 sends tableau ((1, 3), (2,)) to the "
     "later tableau ((1, 2), (3,)), so the order is not a filtration\n"),
], ids=["unreached", "outside-basis", "char-outside-basis", "later-swap"])
def test_analyze_reports_a_broken_operator_with_exit_1(capsys, monkeypatch, command, mutant, error):
    # the placement twins of the word-level mutants, with the texts the
    # per-word pass gave under those
    monkeypatch.setattr(hecke_action, "_placement", mutant)
    code, out, err = run(capsys, command, "--alpha", "2,1")
    assert (code, out, err) == (1, "", error)
    assert "Traceback" not in out + err


def test_verify_rejects_n_over_cap(capsys):
    assert run(capsys, "verify", "--n", "9") == (2, "", "error: --n 9 exceeds --max-n 8\n")


def test_verify_rejects_negative_n(capsys):
    assert run(capsys, "verify", "--n", "-1") == (2, "", "error: --n must be nonnegative\n")


@pytest.mark.parametrize("terms, failed, first", [(1, 7, "alpha=1"), (2, 4, "alpha=2")],
                         ids=["every-element", "sums-only"])
def test_verify_counts_a_broken_basis_change(capsys, monkeypatch, terms, failed, first):
    # doubling every element breaks the F -> M -> F round trip on every
    # shape; doubling only sums leaves each single F term and every shape
    # of parts 1 intact, but breaks M -> F -> M wherever a part exceeds 1
    real = cli.fundamental_to_monomial

    def broken(x):
        image = real(x)
        if len(x.coeffs) < terms:
            return image
        return QSymElement(image.degree, image.basis, {k: 2 * c for k, c in image.coeffs.items()})

    monkeypatch.setattr(cli, "fundamental_to_monomial", broken)
    code, out, err = run(capsys, "verify", "--n", "3", "--checks", "roundtrip")
    assert code == 1
    assert out == (
        f"roundtrip: {7 - failed} pass, {failed} fail\n"
        f"  first counterexample: {first}\n"
        "result: FAILURES detected\n"
    )
    assert err == ""


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._PER_ALPHA_CHECKS, "characteristic", lambda shape: shape.alpha.weight != 2
    )
    code, out, _ = run(capsys, "verify", "--n", "3", "--checks", "characteristic")
    assert code == 1
    assert "characteristic: 5 pass, 2 fail" in out
    assert "first counterexample: alpha=1,1" in out


def _skew_descent_masks(monkeypatch, shape_of, mask_of) -> None:
    """Give every shape ``shape_of(m)``, m >= 2, one more tableau, with
    the descent mask ``mask_of(m)``, in what each ``_Shape`` reads."""
    real = module_analysis._descent_masks

    def skewed(alpha):
        masks = real(alpha)
        if alpha.weight >= 2 and alpha == shape_of(alpha.weight):
            masks[mask_of(alpha.weight)] += 1
        return masks

    monkeypatch.setattr(module_analysis, "_descent_masks", skewed)


def test_verify_reports_non_triangular_kmatrix_with_exit_1(capsys, monkeypatch):
    # 1^m comes first in lexicographic order and (m) last, so a tableau of
    # shape 1^m with descent composition (m) is an entry above the diagonal
    _skew_descent_masks(monkeypatch, lambda m: (1,) * m, lambda m: _mask((m,)))
    code, out, err = run(capsys, "verify", "--n", "3", "--checks", "kmatrix")
    assert code == 1
    assert "kmatrix: 1 pass, 2 fail" in out
    assert "first counterexample: n=2" in out
    assert "Traceback" not in out + err


def test_verify_reports_a_kmatrix_diagonal_of_2_with_exit_1(capsys, monkeypatch):
    # a second tableau of shape (m) with descent composition (m)
    _skew_descent_masks(monkeypatch, lambda m: (m,), lambda m: _mask((m,)))
    code, out, err = run(capsys, "verify", "--n", "3", "--checks", "kmatrix")
    assert code == 1
    assert "kmatrix: 1 pass, 2 fail" in out
    assert "first counterexample: n=2" in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize("cores", [1, 2])
def test_a_kmatrix_check_that_raises_value_error_fails_its_weight(capsys, monkeypatch, cores):
    real = cli._PER_ALPHA_CHECKS["kmatrix"]

    def check(shape):
        if shape.alpha == (2, 1):
            raise ValueError("no K row")
        return real(shape)

    monkeypatch.setitem(cli._PER_ALPHA_CHECKS, "kmatrix", check)
    monkeypatch.setattr(cli, "_cores", lambda: cores)
    code, out, err = run(capsys, "verify", "--n", "3", "--checks", "kmatrix")
    assert code == 1
    assert "kmatrix: 2 pass, 1 fail" in out
    assert "first counterexample: n=3" in out
    assert "Traceback" not in out + err


def no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forked_pids(monkeypatch) -> list:
    """The pid of each child forked from now on, as the parent sees it."""
    pids = []

    def fork(real=os.fork):
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def test_verify_prints_the_same_at_any_number_of_parts(capsys, monkeypatch):
    pids = forked_pids(monkeypatch)
    for fmt in ("text", "json"):
        outputs = set()
        for cores in (1, 2, 3):
            monkeypatch.setattr(cli, "_cores", lambda: cores)
            pids.clear()
            outputs.add(run(capsys, "verify", "--n", "6", "--format", fmt))
            assert len(pids) == cores - 1
            no_child_left()
        [(code, out, err)] = outputs
        assert (code, err) == (0, "")


@pytest.mark.parametrize("cores", [1, 2, 3, 10_000])
def test_plan_puts_each_composition_in_one_nonempty_part(cores):
    for n in range(0, 9):
        shapes = [alpha for m in range(1, n + 1) for alpha in compositions_of(m)]
        parts = cli._plan(shapes, cores)
        assert len(parts) == min(cores, len(shapes))
        assert all(parts)
        assert Counter(alpha for part in parts for alpha in part) == Counter(shapes)
        assert all(part == sorted(part, key=shapes.index) for part in parts)
        # a shape joins the least loaded part, so no part exceeds the least
        # loaded one by more than the costliest shape
        loads = [sum(map(cli._srit_count, part)) for part in parts]
        assert not shapes or max(loads) <= min(loads) + max(map(cli._srit_count, shapes))


def test_a_check_that_fails_or_raises_in_a_child_acts_as_in_one_pass(capsys, monkeypatch):
    shapes = [alpha for m in range(1, 6) for alpha in compositions_of(m)]
    own, other = cli._plan(shapes, 2)
    first = other[1]
    later = next(alpha for alpha in own if shapes.index(alpha) > shapes.index(first))
    pids = forked_pids(monkeypatch)
    for broken, outcome in (({first}, False), ({first}, RuntimeError),
                            ({first, later}, RuntimeError), ((), True)):
        def check(shape):
            if shape.alpha not in broken:
                return True
            if outcome is RuntimeError:
                raise RuntimeError(f"no verdict on {format_composition(shape.alpha)}")
            return outcome

        monkeypatch.setitem(cli._PER_ALPHA_CHECKS, "characteristic", check)
        seen = []
        for cores in (1, 2):
            monkeypatch.setattr(cli, "_cores", lambda: cores)
            pids.clear()
            try:
                seen.append(run(capsys, "verify", "--n", "5", "--checks", "characteristic"))
            except RuntimeError as exc:
                seen.append((type(exc), str(exc)))
            assert len(pids) == cores - 1
            no_child_left()
        assert seen[0] == seen[1]
        if outcome is RuntimeError:
            assert seen[0] == (RuntimeError, f"no verdict on {format_composition(first)}")
        elif not outcome:
            assert f"first counterexample: alpha={format_composition(first)}" in seen[0][1]


def test_a_part_whose_child_dies_is_checked_again_here(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cores", lambda: 1)
    expected = run(capsys, "verify", "--n", "5")
    parent = os.getpid()
    real = cli._PER_ALPHA_CHECKS["submodule"]
    # a child killed, or leaving with 0 before it writes its verdicts
    for die in (lambda: os.kill(os.getpid(), signal.SIGKILL), lambda: os._exit(0)):
        def check(shape):
            if os.getpid() != parent:
                die()
            return real(shape)

        monkeypatch.setitem(cli._PER_ALPHA_CHECKS, "submodule", check)
        monkeypatch.setattr(cli, "_cores", lambda: 3)
        assert run(capsys, "verify", "--n", "5") == expected
        no_child_left()


def test_an_interrupted_verify_leaves_no_child(monkeypatch):
    shapes = [alpha for m in range(1, 6) for alpha in compositions_of(m)]
    own = cli._plan(shapes, 2)[0]
    parent = os.getpid()

    def check(shape):
        if os.getpid() != parent:
            time.sleep(60)  # the child is still checking
        elif shape.alpha == own[-1]:
            raise KeyboardInterrupt
        return True

    monkeypatch.setitem(cli._PER_ALPHA_CHECKS, "characteristic", check)
    monkeypatch.setattr(cli, "_cores", lambda: 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--n", "5", "--checks", "characteristic"])
    assert time.monotonic() - start < 30
    no_child_left()


def test_a_child_stops_at_its_next_shape_once_its_parent_is_killed():
    # the child says when it starts, and holds the copy of stdout it
    # inherited until it exits; 15 shapes of 1 s each would take 15 s
    code = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
import extschur.cli as cli
parent = os.getpid()
def check(shape):
    if os.getpid() == parent:
        time.sleep(60)
    elif shape.alpha == (2,):
        os.write(1, b"started\\n")
    time.sleep(1)
    return True
cli._PER_ALPHA_CHECKS["characteristic"] = check
cli._cores = lambda: 2
cli.main(["verify", "--n", "5", "--checks", "characteristic"])
"""
    assert cli._plan([alpha for m in range(1, 6) for alpha in compositions_of(m)], 2)[1][0] == (2,)
    src = str(Path(extschur.__file__).resolve().parents[1])
    parent = subprocess.Popen([sys.executable, "-c", code, src], stdout=subprocess.PIPE)
    try:
        assert select.select([parent.stdout], [], [], 30)[0]
        assert parent.stdout.readline() == b"started\n"
    finally:
        parent.kill()
        parent.wait()
    start = time.monotonic()
    # end of file once the child has exited too
    assert select.select([parent.stdout], [], [], 10)[0]
    assert parent.stdout.read() == b""
    assert time.monotonic() - start < 5
    parent.stdout.close()


def test_a_fork_that_fails_after_the_first_child_checks_every_shape_here(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cores", lambda: 1)
    expected = run(capsys, "verify", "--n", "5")
    forks = []

    def fork(real=os.fork):
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError("no process left")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_cores", lambda: 3)
    assert run(capsys, "verify", "--n", "5") == expected
    assert len(forks) == 2
    # the first child was killed and reaped
    no_child_left()


@pytest.mark.parametrize("why", ["no-fork", "fork-fails", "another-thread"])
def test_verify_checks_every_part_here_where_it_cannot_fork(capsys, monkeypatch, why):
    monkeypatch.setattr(cli, "_cores", lambda: 1)
    expected = run(capsys, "verify", "--n", "4")
    monkeypatch.setattr(cli, "_cores", lambda: 2)
    if why == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        def fork():
            if why == "fork-fails":
                raise BlockingIOError("no process left")
            raise AssertionError("forked while another thread runs")

        monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    waiting = threading.Thread(target=stop.wait)
    if why == "another-thread":
        waiting.start()
    try:
        assert run(capsys, "verify", "--n", "4") == expected
    finally:
        stop.set()
        if why == "another-thread":
            waiting.join(timeout=10)
    assert not waiting.is_alive()
    no_child_left()


def test_kmatrix_check_matches_the_assembled_determinant():
    # one K row per shape against K assembled per weight, on the true
    # descent masks of every weight up to 9 and, up to weight 6, with each
    # shape given one more tableau of each descent mask in turn
    for n in range(1, 10):
        shapes = [_Shape(alpha) for alpha in compositions_of(n)]
        assert all(map(cli._check_kmatrix, shapes)), n
        assert assembled_k_is_unitriangular(n), n
    for n in range(1, 7):
        comps = compositions_of(n)
        for skewed in comps:
            for beta in comps:
                def masks_of(alpha):
                    masks = module_analysis._descent_masks(alpha)
                    if alpha == skewed:
                        masks[_mask(beta)] += 1
                    return masks

                rows = []
                for alpha in comps:
                    shape = _Shape(alpha)
                    shape.descent_masks = masks_of(alpha)
                    rows.append(cli._check_kmatrix(shape))
                verdict = assembled_k_is_unitriangular(n, masks_of)
                assert all(rows) == verdict, (skewed, beta)
                # only a tableau on or right of the diagonal breaks K
                assert verdict == (beta < skewed), (skewed, beta)


def test_analyze_text_matches_the_report_dict(capsys):
    for n in range(0, 8):
        for alpha in compositions_of(n):
            code, out, err = run(capsys, "analyze", "--alpha", format_composition(alpha))
            assert (code, out, err) == (0, report_analyze_text(alpha), ""), alpha


def test_output_is_deterministic(capsys):
    first = run(capsys, "analyze", "--alpha", "2,2", "--format", "json")
    second = run(capsys, "analyze", "--alpha", "2,2", "--format", "json")
    assert first == second


def test_empty_composition_commands(capsys):
    code, out, _ = run(capsys, "expand", "--alpha", "")
    assert code == 0
    assert out == "F[]\n"
    code, out, _ = run(capsys, "tableaux", "--alpha", "", "--kind", "set")
    assert code == 0
    assert out == "(empty)\n"


def test_max_n_must_be_positive(capsys):
    code, _, err = run(capsys, "expand", "--alpha", "1", "--max-n", "0")
    assert code == 2
