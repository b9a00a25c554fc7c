import json
import os
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from helpers import row_swapping_full_step, swapping_quotient_step
import extschur
import extschur.cli as cli
from extschur import hecke_action, tableaux
from extschur.cli import ALL_CHECKS, main
from extschur.compositions import compositions_of, format_composition
from extschur.hecke_action import verify_relations
from extschur.module_analysis import (
    characteristic,
    commutant_basis,
    verify_submodule_closure,
)
from extschur.qsym import (
    KMatrix,
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
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "extschur.cli", *argv],
            capture_output=True, text=True, env=os.environ.copy(), check=False,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_cli_import_loads_neither_dataclasses_nor_typing():
    # -I ignores PYTHONPATH, so the child puts the source tree on sys.path
    src = str(Path(extschur.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import extschur.cli; "
        "print(*[m for m in ('dataclasses', 'typing', 'inspect', 'ast') if m in sys.modules])"
    )
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert child.stdout == "\n"
    assert child.stderr == ""


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
    assert run(capsys, "kmatrix", "--n", "0")[0] == 2
    assert run(capsys, "kmatrix", "--n", "9")[0] == 2
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

    calls = Counter()
    for module, name in (
        (tableaux, "_srit_words"), (tableaux, "_grown"), (hecke_action, "filtration")
    ):
        def counted(alpha, real=getattr(module, name), name=name):
            calls[name, tuple(alpha)] += 1
            return real(alpha)

        patch_everywhere(monkeypatch, module, name, counted)

    code, out, _ = run(capsys, "verify", "--n", "5")
    assert code == 0
    assert out == "".join(by_check) + "result: all checks passed\n"
    # each shape's row-increasing words and standard extended tableaux are
    # grown once, the kmatrix check included, and no Filtration is built
    shapes = [tuple(alpha) for m in range(1, 6) for alpha in compositions_of(m)]
    assert calls == Counter(
        {("_srit_words", alpha): 1 for alpha in shapes}
        | {("_grown", alpha): 1 for alpha in shapes}
    )


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
    assert err == (
        f"error: {alpha} has {comb(2 * rows, rows) // (rows + 1)} standard extended "
        f"tableaux, over the budget of {cli.SET_BUDGET} at about "
        f"{cli.SET_SECONDS * 1e6:.0f} us each\n"
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


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-(10 ** 40), -1, 0, 2 ** 63, 10 ** 100])
    | st.floats()
    | st.text()
    | st.sampled_from(["", "\"", "\\", "\n\t\x00", "\u00e9t\u00e9", "\u2028", "\U0001f600"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.lists(st.integers())
        | st.dictionaries(st.text(), inner)
    ),
    max_leaves=30,
)


@given(json_values)
def test_json_text_is_what_json_dumps_prints(value):
    expected = json.dumps(value, indent=2)
    assert cli._json_text(value) == expected
    # strings are escaped, so every newline of the text starts a line
    assert cli._json_text(value, "  ") == expected.replace("\n", "\n  ")


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


def _refine_masks_must_not_run(*_):
    raise AssertionError("the refused expansion was refined")


@pytest.mark.parametrize("alpha, free", [("1200", 1199), ("21", 20), ("1,1,21", 20)])
def test_expand_refuses_an_m_expansion_over_budget_before_refining(
    capsys, monkeypatch, alpha, free
):
    monkeypatch.setattr(cli, "_refine_masks", _refine_masks_must_not_run)
    code, out, err = run(capsys, "expand", "--alpha", alpha, "--max-n", "1200", "--basis", "M")
    assert code == 2
    assert out == ""
    assert f"has at least 2^{free} terms" in err
    assert str(cli.M_TERM_BUDGET) in err
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
    assert out == cli.format_qsym(extended_schur_in_M((2, 2))) + "\n"
    monkeypatch.setattr(cli, "M_TERM_BUDGET", 3)
    monkeypatch.setattr(cli, "_refine_masks", _refine_masks_must_not_run)
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
    ("_quotient_step", swapping_quotient_step, "relations",
     lambda alpha: verify_relations(alpha, "quotient").ok),
    ("_quotient_step", swapping_quotient_step, "characteristic",
     lambda alpha: characteristic(alpha) == extended_schur_in_F(alpha)),
    ("_quotient_step", swapping_quotient_step, "endomorphism", certified),
], ids=["full-relations", "full-submodule", "quotient-relations",
        "quotient-characteristic", "quotient-endomorphism"])
def test_verify_counts_what_a_broken_operator_breaks(capsys, monkeypatch, rule, mutant, check, holds):
    # the shared per-shape tables must give each check the verdict of its
    # public function, shape by shape
    monkeypatch.setattr(hecke_action, rule, mutant)
    shapes = [alpha for m in range(1, 6) for alpha in compositions_of(m)]
    broken = [alpha for alpha in shapes if not holds(alpha)]
    assert broken
    code, out, _ = run(capsys, "verify", "--n", "5", "--checks", check, "--format", "json")
    assert code == 1
    assert json.loads(out)["checks"] == [{
        "name": check,
        "passed": len(shapes) - len(broken),
        "failed": len(broken),
        "first_counterexample": "alpha=" + format_composition(broken[0]),
    }]


def test_verify_rejects_n_over_cap(capsys):
    assert run(capsys, "verify", "--n", "9")[0] == 2


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._PER_ALPHA_CHECKS, "characteristic", lambda shape: shape.alpha.weight != 2
    )
    code, out, _ = run(capsys, "verify", "--n", "3", "--checks", "characteristic")
    assert code == 1
    assert "characteristic: 5 pass, 2 fail" in out
    assert "first counterexample: alpha=1,1" in out


def test_verify_reports_non_triangular_kmatrix_with_exit_1(capsys, monkeypatch):
    real = cli._k_matrix_of_masks

    def skewed(n, masks_by_shape):
        km = real(n, masks_by_shape)
        if n < 2:
            return km
        entries = [list(row) for row in km.entries]
        entries[0][-1] = 1
        return KMatrix(km.n, km.compositions, tuple(map(tuple, entries)))

    monkeypatch.setattr(cli, "_k_matrix_of_masks", skewed)
    code, out, err = run(capsys, "verify", "--n", "3", "--checks", "kmatrix")
    assert code == 1
    assert "kmatrix: 1 pass, 2 fail" in out
    assert "first counterexample: n=2" in out
    assert "Traceback" not in out + err


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
