import io
import math
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import independent_antichain
from rookpaths import Subset, catalan, cli, icn_modules, rook_monoid
from rookpaths.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def plain_and_json(argv):
    code_p, out_p, _ = invoke(argv)
    code_j, out_j, _ = invoke(argv + ["--json"])
    assert code_p == code_j == 0
    return out_p, json.loads(out_j)


# ----------------------------------------------------------------- counting


def test_paths_count_value_and_json():
    plain, payload = plain_and_json(["paths-count", "--dir", "dec", "--heights", "4,2"])
    assert plain.strip() == "12"
    assert payload == {
        "input": {"dir": "dec", "heights": [4, 2]},
        "method": "iterative",
        "value": "12",
    }


def test_paths_count_methods_agree():
    for direction, heights, expected in [("dec", "5,3,2", "37"), ("inc", "1,2,4", "19")]:
        for method in ["auto", "iterative", "determinant", "oracle"]:
            code, out, _ = invoke(
                ["paths-count", "--dir", direction, "--heights", heights,
                 "--method", method, "--check"]
            )
            assert code == 0
            assert out.strip() == expected


def test_paths_count_auto_resolves_by_direction():
    _, payload = plain_and_json(["paths-count", "--dir", "inc", "--heights", "1,2"])
    assert payload["method"] == "determinant"
    assert payload["value"] == "5"


def test_paths_list_output():
    plain, payload = plain_and_json(
        ["paths-list", "--dir", "dec", "--heights", "2,1", "--cap", "10"]
    )
    lines = [line for line in plain.splitlines() if line]
    assert lines == ["0,0", "1,0", "1,1", "2,0", "2,1"]
    assert payload["items"] == [[0, 0], [1, 0], [1, 1], [2, 0], [2, 1]]
    assert payload["truncated"] is False


def test_paths_list_truncation():
    code, out, err = invoke(["paths-list", "--dir", "dec", "--heights", "3,1", "--cap", "2"])
    assert code == 0
    assert out.splitlines() == ["0,0", "1,0"]
    assert "truncated" in err
    _, payload = plain_and_json(["paths-list", "--dir", "dec", "--heights", "3,1", "--cap", "2"])
    assert payload["truncated"] is True


def test_listing_text_is_the_json_items_one_a_line():
    for argv, truncated in [
        (["paths-list", "--dir", "inc", "--heights", "1,2,3,4,5,7,8", "--cap", "1000000"], False),
        (["paths-list", "--dir", "dec", "--heights", "4,4,2,1", "--cap", "30"], True),
        (["monoid-list", "--n", "6", "--cap", "1000"], False),
        (["monoid-list", "--n", "6", "--cap", "100"], True),
    ]:
        code, out, err = invoke(argv)
        _, payload = plain_and_json(argv)
        lines = [item if isinstance(item, str) else ",".join(map(str, item))
                 for item in payload["items"]]
        assert code == 0 and payload["truncated"] is truncated, argv
        assert out == "\n".join(lines) + "\n", argv
        assert err == ("output truncated at cap\n" if truncated else ""), argv


# --------------------------------------------------------------- dimensions


def test_dim_subset_value():
    plain, payload = plain_and_json(["dim-subset", "--n", "8", "--set", "2,4,6"])
    assert plain.strip() == "14"
    assert payload == {
        "input": {"n": 8, "set": [2, 4, 6]},
        "method": "iterative",
        "value": "14",
    }


def test_dim_subset_methods_and_check():
    for method in ["auto", "iterative", "determinant", "oracle"]:
        code, out, _ = invoke(
            ["dim-subset", "--n", "8", "--set", "2,4,6", "--method", method, "--check"]
        )
        assert code == 0 and out.strip() == "14"
    code, out, _ = invoke(["dim-subset", "--n", "5", "--set", "", "--method", "determinant"])
    assert code == 0 and out.strip() == "1"


def test_dim_vector_value():
    vector = "1:{};1:{3};1:{4,7};1:{5,6};1:{1,2,3}"
    plain, payload = plain_and_json(["dim-vector", "--n", "7", "--vector", vector])
    assert plain.strip() == "24"
    assert payload["value"] == "24"
    for method in ["oracle", "iterative"]:
        code, out, _ = invoke(
            ["dim-vector", "--n", "7", "--vector", vector, "--method", method, "--check"]
        )
        assert code == 0 and out.strip() == "24"
    argv = ["dim-vector", "--n", "17", "--vector", "1:{1}", "--method", "oracle"]
    assert invoke(argv) == (0, "1\n", "")


def test_reduce_output():
    vector = "1:{};-2:{1};1:{3};5:{1,2};3:{4,7};-2:{5,6};1:{1,2,3}"
    plain, payload = plain_and_json(["reduce", "--n", "7", "--vector", vector])
    assert plain.strip() == "1:{};1:{3};1:{4,7};1:{5,6};1:{1,2,3}"
    assert payload["reduced_form"] == plain.strip()
    assert payload["reduced_support"] == [[], [3], [4, 7], [5, 6], [1, 2, 3]]


# ------------------------------------------------------------------- monoid


def test_monoid_size():
    for n in range(1, 11):
        c = catalan(n + 1)
        assert invoke(["monoid-size", "--n", str(n)]) == (0, f"{c}\n", "")
        json_bytes = f'{{"input":{{"n":{n}}},"value":"{c}"}}\n'
        assert invoke(["monoid-size", "--n", str(n), "--json"]) == (0, json_bytes, "")


def test_monoid_size_builds_no_map(monkeypatch):
    def refuse(*args):
        raise AssertionError("monoid-size built a map")

    monkeypatch.setattr(cli, "enumerate_icn", refuse)
    monkeypatch.setattr(rook_monoid, "trusted", refuse)
    monkeypatch.setattr(rook_monoid, "trusted_all", refuse)
    assert invoke(["monoid-size", "--n", "10"]) == (0, "58786\n", "")


def test_monoid_list_builds_no_map_past_the_cap(monkeypatch):
    built = []
    trusted_all = rook_monoid.trusted_all

    def counted(cls, first, seconds):
        seconds = list(seconds)
        built.extend(seconds)
        return trusted_all(cls, first, seconds)

    monkeypatch.setattr(rook_monoid, "trusted_all", counted)
    code, out, err = invoke(["monoid-list", "--n", "10", "--cap", "5"])
    assert (code, len(out.splitlines()), err) == (0, 5, "output truncated at cap\n")
    assert len(built) <= 6


def test_monoid_list():
    plain, payload = plain_and_json(["monoid-list", "--n", "2", "--cap", "100"])
    assert len(payload["items"]) == 5
    assert payload["truncated"] is False
    assert plain.splitlines() == payload["items"]
    assert "/" in payload["items"][0]
    _, payload = plain_and_json(["monoid-list", "--n", "3", "--cap", "4"])
    assert len(payload["items"]) == 4 and payload["truncated"] is True


def test_monoid_list_truncation_note_goes_to_stderr_in_text_mode_only():
    code, out, err = invoke(["monoid-list", "--n", "3", "--cap", "4"])
    assert code == 0 and len(out.splitlines()) == 4
    assert err == "output truncated at cap\n"
    code, out, err = invoke(["monoid-list", "--n", "3", "--cap", "4", "--json"])
    assert code == 0 and json.loads(out)["truncated"] is True
    assert err == ""


def test_listings_default_to_a_cap_of_1000():
    for argv in [["paths-list", "--dir", "dec", "--heights", "1000"], ["monoid-list", "--n", "7"]]:
        _, payload = plain_and_json(argv)
        assert payload["input"]["cap"] == 1000 and len(payload["items"]) == 1000, argv
        assert payload["truncated"] is True, argv


def test_the_cap_is_checked_before_anything_is_listed():
    # --n 99 is over the monoid's bound too, so the cap must be checked first.
    for argv in [
        ["monoid-list", "--n", "99", "--cap", "0"],
        ["paths-list", "--dir", "dec", "--heights", "1", "--cap", "0"],
    ]:
        assert invoke(argv) == (2, "", "error: cap must be a positive count, got 0\n"), argv


def test_a_cap_past_sys_maxsize_lists_everything():
    # No listing holds sys.maxsize items, so such a cap cuts nothing, and
    # monoid-list asking for one map past it needs no room either.
    for argv, count in ((["monoid-list", "--n", "3"], 14),
                        (["paths-list", "--dir", "dec", "--heights", "2,1"], 5)):
        whole, payload = plain_and_json(argv + ["--cap", "1000"])
        assert len(whole.splitlines()) == len(payload["items"]) == count
        assert payload["truncated"] is False
        for cap in (sys.maxsize, sys.maxsize + 1, 10**30):
            capped = argv + ["--cap", str(cap)]
            assert invoke(capped) == (0, whole, ""), capped
            given = {**payload["input"], "cap": cap}
            assert plain_and_json(capped)[1] == {**payload, "input": given}


def test_monoid_compose():
    plain, payload = plain_and_json(
        ["monoid-compose", "--n", "3", "--f", "2 3 / 1 2", "--g", "1 2 / 1 2"]
    )
    assert plain.strip() == "2 / 1"
    assert payload["value"] == "2 / 1"


# ------------------------------------------------------------------- verify


def test_verify_cor35():
    plain, payload = plain_and_json(["verify", "--identity", "cor35", "--k", "4"])
    assert plain.strip() == "lhs=42 rhs=42 equal=true"
    assert payload == {
        "input": {"identity": "cor35", "k": 4},
        "lhs": "42",
        "rhs": "42",
        "equal": True,
    }


def test_verify_cor34_and_hockey():
    plain, payload = plain_and_json(["verify", "--identity", "cor34", "--heights", "4,2"])
    assert plain.strip() == "lhs=12 rhs=12 equal=true"
    assert payload["equal"] is True
    plain, payload = plain_and_json(
        ["verify", "--identity", "hockey", "--a", "2", "--b", "3", "--p", "1"]
    )
    assert plain.strip() == "lhs=9 rhs=9 equal=true"
    assert payload["lhs"] == payload["rhs"] == "9"


# --------------------------------------------------------------- exit codes


def test_usage_errors_exit_1():
    for argv in [
        [],
        ["no-such-command"],
        ["paths-count", "--nope"],
        ["paths-count", "--dir", "sideways", "--heights", "1"],
        ["paths-count", "--dir", "dec"],
        ["dim-subset", "--n", "-3", "--set", "1"],
        ["dim-vector", "--n", "4", "--vector", "1:{1}", "--method", "determinant"],
        ["verify", "--identity", "cor35"],
        ["verify", "--identity", "cor34"],
        ["verify", "--identity", "hockey", "--a", "1"],
    ]:
        code, _, err = invoke(argv)
        assert code == 1, argv
        assert err


def test_subset_check_answers_where_the_downset_walk_refused():
    # 9.8 * 10^9 subsets lie below this one: the subset oracle counts them by
    # its DP in a few milliseconds, where the walk stopped at its bound.
    set_text = "20,25,30,35,40,45,50,55,60"
    for method in ("auto", "determinant", "oracle"):
        argv = ["dim-subset", "--n", "60", "--set", set_text, "--method", method, "--check"]
        assert invoke(argv) == (0, "9835923040\n", ""), method


def test_the_oracle_squares_what_its_cell_bound_refused():
    # Once refused as 2 * 10^31, 2^63 + 1 and 10^7 cells: each is one short
    # run of the conjugate, taken as one product.  20 heights of 2^400 were
    # refused as a squared run too, and now cost 28,224 cells.
    for h in (10**30, 2**400):
        heights = ",".join([str(h)] * 20)
        argv = ["paths-count", "--dir", "dec", "--heights", heights, "--method", "oracle",
                "--check"]
        assert invoke(argv) == (0, f"{math.comb(h + 20, 20)}\n", "")
    for check in (["--method", "oracle"], ["--check"]):
        argv = ["paths-count", "--dir", "dec", "--heights", str(2**63), *check]
        assert invoke(argv) == (0, f"{2**63 + 1}\n", "")
    for n, elems in ((10**6, range(999991, 10**6 + 1)), (2**63, (2**63,))):
        argv = ["dim-subset", "--n", str(n), "--set", ",".join(map(str, elems)), "--check"]
        assert invoke(argv) == (0, f"{math.comb(n, len(elems))}\n", "")


def test_flat_led_boundaries_cost_only_their_tail():
    # gamma_2..gamma_(L+1) are 0 across a leading run of L equal heights, and
    # the gamma recursion starts past it.  Walking rows over the run, these
    # took 2.7 s, over 30 s and 43.8 s on CPython 3.11 (2-vCPU VM).  Below k
    # heights of h lie C(h + k, k) sequences, and below the top k of {1..n}
    # C(n, k) subsets.
    for h, k in ((5000, 3000), (10**6, 10**4)):
        argv = ["paths-count", "--dir", "dec", "--heights", ",".join([str(h)] * k)]
        assert invoke(argv) == (0, f"{Decimal(math.comb(h + k, k))}\n", "")
    argv = ["dim-subset", "--n", "20000", "--set", ",".join(map(str, range(10001, 20001)))]
    assert invoke(argv) == (0, f"{Decimal(math.comb(20000, 10000))}\n", "")


def test_domain_errors_exit_2():
    for argv in [
        ["paths-count", "--dir", "dec", "--heights", "1,5"],
        ["paths-count", "--dir", "dec", "--heights", "4,x"],
        ["paths-count", "--dir", "dec", "--heights", ""],
        # Over the oracle's bound in both orientations, refused before any row
        # is allocated: the staircase 1..5000, and 1000 heights of 10^4 after
        # the iterative route has answered.
        ["paths-count", "--dir", "inc", "--heights", ",".join(map(str, range(1, 5001))),
         "--method", "oracle"],
        ["paths-count", "--dir", "dec", "--heights", ",".join(["10000"] * 1000), "--check"],
        ["paths-list", "--dir", "dec", "--heights", "1", "--cap", "0"],
        # Over the listing bound: 48,903,492 sequences lie below this one.
        ["paths-list", "--dir", "dec", "--heights", ",".join(["30"] * 8), "--cap", "100000000"],
        ["dim-subset", "--n", "8", "--set", "3,3"],
        ["dim-subset", "--n", "4", "--set", "9"],
        ["dim-vector", "--n", "7", "--vector", "1:{1"],
        # Over the subset oracle's bound in both orientations: the top 1000
        # of {1..11000}.
        ["dim-subset", "--n", "11000", "--set", ",".join(map(str, range(10001, 11001))),
         "--check"],
        # Over the vector oracle's walk bound: 9.8 * 10^9 subsets lie below
        # this one generator.
        ["dim-vector", "--n", "60", "--vector", "1:{20,25,30,35,40,45,50,55,60}", "--check"],
        # Over the inclusion-exclusion work bound: 2^13 - 1 distinct meets.
        ["dim-vector", "--n", "26", "--vector",
         ";".join("1:{%s}" % ",".join(map(str, g)) for g in independent_antichain(13))],
        ["monoid-size", "--n", "0"],
        ["monoid-size", "--n", "99"],
        ["monoid-compose", "--n", "3", "--f", "1 1 / 1 2", "--g", "/"],
        ["verify", "--identity", "cor35", "--k", "1"],
        # Over the staircase recursion's work bound.
        ["verify", "--identity", "cor35", "--k", "100000"],
        # Over the inclusion-exclusion work bound: the top 300 of {1..10^100}.
        ["dim-subset", "--n", str(10**100), "--method", "determinant",
         "--set", ",".join(map(str, range(10**100 - 299, 10**100 + 1)))],
        ["verify", "--identity", "cor34", "--heights", "3"],
        # Over the hockey-stick work bound: 10^7 summands, and C(10^6, 5 * 10^5).
        ["verify", "--identity", "hockey", "--a", "0", "--b", "10000000", "--p", "0"],
        ["verify", "--identity", "hockey", "--a", "1000000", "--b", "1", "--p", "500000"],
        # Over the reduced-support work bound: the antichain {i, 8001 - i}.
        *([cmd, "--n", "8000", "--vector",
           ";".join("1:{%d,%d}" % (i, 8001 - i) for i in range(1, 4001))]
          for cmd in ("reduce", "dim-vector")),
        # Within the reduced-support work bound, whose 999,000 units leave
        # dim-vector's one budget too little for the meets that follow.
        ["dim-vector", "--n", "2000", "--vector",
         ";".join("1:{%d,%d}" % (i, 2001 - i) for i in range(1, 1001))],
    ]:
        code, _, err = invoke(argv)
        assert code == 2, argv
        assert err


def module_env():
    """The environment for `python -m rookpaths.cli`, importing this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_main_exits_with_the_code_run_returns():
    for argv, code, out in [
        (["paths-count", "--dir", "dec", "--heights", "4,2"], 0, "12\n"),
        (["no-such-command"], 1, ""),
        (["paths-count", "--dir", "dec", "--heights", "1,2"], 2, ""),
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "rookpaths.cli", *argv], capture_output=True, text=True,
            env=module_env(), timeout=60,
        )
        assert (done.returncode, done.stdout) == (code, out), argv
        assert bool(done.stderr) == (code != 0), argv


def test_a_closed_pipe_ends_a_listing_quietly():
    # The listing is ~500 KB, well past a pipe buffer, so the writer meets
    # the closed pipe while it is still printing.
    argv = [sys.executable, "-m", "rookpaths.cli", "monoid-list", "--n", "9", "--cap", "100000"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=module_env()
    ) as proc:
        assert proc.stdout.readline() == "/\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert (code, err) == (1, "")


def test_help_is_written_to_out_and_returns_0():
    code, out, err = invoke(["--help"])
    assert code == 0 and not err
    assert out.startswith("usage: rookpaths")
    code, out, err = invoke(["paths-count", "--help"])
    assert code == 0 and not err
    assert "--method {auto,iterative,determinant,oracle}" in out
    code, out, _ = invoke(["dim-vector", "--help"])
    assert code == 0 and "--method {auto,iterative,oracle}" in out


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no limit on integer string conversion",
)
def test_integers_over_the_digit_limit_name_the_bound_briefly():
    limit = sys.get_int_max_str_digits()
    nines = "9" * (limit + 1)
    for argv, expected in [
        (["paths-count", "--dir", "dec", "--heights", nines], 2),
        (["dim-subset", "--n", nines, "--set", "1"], 1),
        (["dim-vector", "--n", "7", "--vector", f"1:{{{nines}}}"], 2),
        (["dim-vector", "--n", "7", "--vector", f"{nines}:{{1}}"], 2),
        (["monoid-compose", "--n", "3", "--f", f"{nines} / 1", "--g", "/"], 2),
    ]:
        code, out, err = invoke(argv)
        assert code == expected, argv
        assert not out
        assert str(limit) in err and len(err.encode()) < 200, argv


def test_coefficient_exponents_over_the_digit_limit_are_refused():
    # Fraction would compute 10**e first: minutes for 1e30000000, and about
    # 40 GB for 1e99999999999.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    for coeff in ["1e30000000", "1e99999999999", "1e-30000000", f"1e{limit + 1}"]:
        code, out, err = invoke(["dim-vector", "--n", "4", "--vector", f"{coeff}:{{1}}"])
        assert (code, out) == (2, ""), coeff
        assert err == f"error: coefficient exponents are limited to {limit}, got {coeff!r}\n"
    for coeff in ["1e7", f"1e{limit}", "2.5E-3"]:
        assert invoke(["dim-vector", "--n", "4", "--vector", f"{coeff}:{{1}}"]) == (0, "1\n", "")


def test_malformed_inputs_are_echoed_briefly():
    xs = "x" * 5000
    for argv, expected in [
        (["paths-count", "--dir", "dec", "--heights", xs], 2),
        (["dim-subset", "--n", xs, "--set", "1"], 1),
        (["dim-vector", "--n", "7", "--vector", f"1:{{{xs}}}"], 2),
        (["dim-vector", "--n", "7", "--vector", f"{xs}:{{1}}"], 2),
        (["dim-vector", "--n", "7", "--vector", xs], 2),
        (["monoid-compose", "--n", "3", "--f", f"{xs} / 1", "--g", "/"], 2),
        (["monoid-compose", "--n", "3", "--f", xs, "--g", "/"], 2),
    ]:
        code, out, err = invoke(argv)
        assert code == expected, argv
        assert not out
        assert "x" * 19 in err and "x" * 21 not in err and len(err.encode()) < 200, argv


def test_no_crash_on_weird_input():
    code, _, err = invoke(["paths-count", "--dir", "dec", "--heights", ",,,"])
    assert code == 2 and err


def test_answers_longer_than_the_string_conversion_limit_print_exactly():
    # 4300 nines parse (the limit is 4300 digits); the count below them,
    # 10^4300, has 4301 digits.
    nines = "9" * 4300
    plain, payload = plain_and_json(["paths-count", "--dir", "dec", "--heights", nines])
    assert plain == "1" + "0" * 4300 + "\n"
    assert payload["value"] == "1" + "0" * 4300
    argv = ["verify", "--identity", "hockey", "--a", "20000", "--b", "2", "--p", "10000"]
    plain, payload = plain_and_json(argv)
    lhs, rhs, equal = plain.split()
    assert lhs == "lhs=" + payload["lhs"] and rhs == "rhs=" + payload["rhs"]
    assert payload["lhs"] == payload["rhs"] and len(payload["lhs"]) > 4300
    assert equal == "equal=true" and payload["equal"] is True


@pytest.fixture
def off_by_one_oracles(monkeypatch):
    count, dim_subset, dim = (
        cli.count_below_oracle, cli.dim_principal_oracle, cli.dim_submodule_oracle)
    monkeypatch.setattr(cli, "count_below_oracle", lambda h: count(h) + 1)
    monkeypatch.setattr(cli, "dim_principal_oracle", lambda s: dim_subset(s) + 1)
    monkeypatch.setattr(cli, "dim_submodule_oracle", lambda v: dim(v) + 1)


def test_check_of_the_oracle_uses_an_independent_route(off_by_one_oracles):
    # With every oracle off by one, checking the oracle against itself would
    # pass; the check must use another route and catch the error.
    for argv in [
        ["paths-count", "--dir", "dec", "--heights", "4,2"],
        ["paths-count", "--dir", "inc", "--heights", "1,2,4"],
        ["dim-subset", "--n", "8", "--set", "2,4,6"],
        ["dim-vector", "--n", "7", "--vector", "1:{3};1:{4,7}"],
    ]:
        code, out, err = invoke(argv + ["--method", "oracle", "--check"])
        assert code == 2, argv
        assert not out
        assert "check failed: oracle gave" in err and "iterative gave" in err, argv


def test_check_of_every_other_route_uses_the_oracle(off_by_one_oracles):
    for argv, methods, value in [
        (["paths-count", "--dir", "dec", "--heights", "4,2"], ["iterative", "determinant"], 12),
        (["paths-count", "--dir", "inc", "--heights", "1,2,4"], ["iterative", "determinant"], 19),
        (["dim-subset", "--n", "8", "--set", "2,4,6"], ["iterative", "determinant"], 14),
        (["dim-vector", "--n", "7", "--vector", "1:{3};1:{4,7}"], ["iterative"], 21),
    ]:
        for method in ["auto", *methods]:
            code, out, err = invoke(argv + ["--method", method, "--check"])
            assert code == 2 and not out, (argv, method)
            assert err.endswith(f" gave {value}, oracle gave {value + 1}\n"), (argv, method)


def test_the_vector_oracle_shares_no_code_with_dim_submodule(monkeypatch):
    # A reduced support that loses the generator {3} makes dim_submodule
    # wrong; an oracle that read the reduced support too would agree with it.
    maximal = icn_modules._maximal_terms

    def losing_3(v):
        kept, work = maximal(v)
        return [s for s in kept if s != Subset(7, (3,))], work

    monkeypatch.setattr(icn_modules, "_maximal_terms", losing_3)
    code, out, err = invoke(["dim-vector", "--n", "7", "--vector", "1:{3};1:{4,7}", "--check"])
    assert (code, out, err) == (2, "", "check failed: iterative gave 18, oracle gave 21\n")


def test_long_inputs_do_not_exhaust_the_stack():
    ones = ",".join(["1"] * 1500)
    code, out, _ = invoke(["paths-list", "--dir", "dec", "--heights", ones, "--cap", "3"])
    assert code == 0
    assert out.splitlines() == [
        ",".join(["0"] * 1500),
        ",".join(["1"] + ["0"] * 1499),
        ",".join(["1", "1"] + ["0"] * 1498),
    ]
    code, out, _ = invoke(["paths-list", "--dir", "inc", "--heights", ones, "--cap", "3"])
    assert code == 0
    assert out.splitlines() == [
        ",".join(["0"] * 1500),
        ",".join(["0"] * 1499 + ["1"]),
        ",".join(["0"] * 1498 + ["1", "1"]),
    ]
    full = ",".join(str(e) for e in range(1, 1501))
    code, out, _ = invoke(["dim-subset", "--n", "1500", "--set", full, "--method", "oracle"])
    assert code == 0
    assert out == "1\n"


def test_check_never_mismatches_on_exhaustive_ranges():
    from itertools import combinations

    from rookpaths import HeightSequence, iter_below

    for k in range(1, 7):
        for lam in iter_below(HeightSequence.decreasing((6,) * k)):
            heights = ",".join(str(x) for x in lam.heights)
            code, _, err = invoke(
                ["paths-count", "--dir", "dec", "--heights", heights, "--check"]
            )
            assert code == 0 and not err, lam
    for k in range(1, 9):
        for elems in combinations(range(1, 9), k):
            subset = ",".join(str(x) for x in elems)
            code, _, err = invoke(
                ["dim-subset", "--n", "8", "--set", subset, "--method", "determinant", "--check"]
            )
            assert code == 0 and not err, elems


def test_one_parser_serves_every_request_as_a_fresh_one_would(off_by_one_oracles):
    requests = [
        ["paths-count", "--dir", "up", "--heights", "4,2"],  # usage error
        ["--help"],
        ["dim-vector", "--help"],
        ["paths-count", "--dir", "dec", "--heights", "4,2", "--check"],  # check failed
        ["paths-count", "--dir", "dec", "--heights", "1,2"],  # domain error
        ["dim-subset", "--n", "8", "--set", "2,4,6"],
        ["dim-subset", "--n", "8", "--set", "2,4,6", "--json"],
    ]
    fresh = []
    for argv in requests:
        cli._build_parser.cache_clear()
        fresh.append(invoke(argv))
    assert [code for code, _, _ in fresh] == [1, 0, 0, 2, 2, 0, 0]
    assert cli._build_parser() is cli._build_parser()
    assert [invoke(argv) for argv in requests + requests[::-1]] == fresh + fresh[::-1]
