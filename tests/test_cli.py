"""CLI surface: verbs, exit codes, JSON determinism, round trips."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilbound import bounds, search
from nilbound.cli import (
    EXIT_GUARD,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from nilbound.constructions import _KINDS, blueprint_from_json, realize
from nilbound.perm import PermGroup

from conftest import WITNESS_BLUEPRINTS

_INTS = st.integers(0, 5) | st.integers(-1, 9) | st.integers()
_PRIMES = st.sampled_from([2, 3, 5]) | _INTS
_SCALARS = _INTS | st.booleans() | st.floats() | st.none() | st.text(max_size=3)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _leaf(kind: str):
    names = _KINDS[kind].params
    params = st.fixed_dictionaries(
        {name: _PRIMES if name == "p" else _INTS for name in names}
    ) | st.dictionaries(
        st.sampled_from(names), _VALUES, max_size=len(names)
    )
    return st.fixed_dictionaries({"kind": st.just(kind), "params": params})


_BLUEPRINTS = st.recursive(
    st.one_of(
        *(_leaf(kind) for kind in _KINDS),
        st.fixed_dictionaries({"kind": _VALUES, "params": _VALUES}),
    ),
    lambda inner: st.fixed_dictionaries(
        {"kind": st.just("product"), "params": st.fixed_dictionaries(
            {"factors": st.lists(inner, min_size=2, max_size=2) | st.lists(inner, max_size=3)}
        )}
    ),
    max_leaves=4,
)
_NUMBERS = _INTS.map(str)
_ARGVS = st.one_of(
    _BLUEPRINTS.map(lambda bp: ["construct", "--blueprint", json.dumps(bp)]),
    st.builds(
        lambda degree, gens: ["analyze", "--group", json.dumps({"degree": degree, "generators": gens})],
        _INTS | _VALUES,
        st.lists(st.lists(_INTS, max_size=6), max_size=3) | _VALUES,
    ),
    st.builds(lambda p, k, c: ["bound", "--p", p, "--k", k, "--c", c], _PRIMES.map(str), _NUMBERS, _NUMBERS),
    st.builds(lambda p, k, c: ["search", "--p", p, "--k", k, "--cmax", c], _PRIMES.map(str), _NUMBERS, _NUMBERS),
    _NUMBERS.map(lambda kmax: ["table", "--table1", "--kmax", kmax]),
    st.lists(st.sampled_from(["bound", "search", "table", "--p", "--k", "--c", "--json", "--table1",
                              "--kmax", "--cmax", "--dedupe", "set", "2", "3", "-1", "x"]), max_size=6),
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_table_entry(self, capsys):
        code, out, _ = run(capsys, "bound", "--p", "2", "--k", "6", "--c", "4")
        assert code == EXIT_OK
        assert "188" in out

    def test_degree_p_row(self, capsys):
        code, out, _ = run(capsys, "bound", "--p", "2", "--k", "1", "--c", "1", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["f_upper"] == 1
        assert data["elementary"] == 1
        assert data["class2_exact"] is None
        assert data["binomial_lower"] == 1

    def test_mixed_bounds(self, capsys):
        code, out, _ = run(capsys, "bound", "--p", "5", "--k", "4", "--c", "2", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["f_upper"] == 8
        assert data["binomial_lower"] == 4

    @pytest.mark.parametrize("k,c", [(0, 3), (3, 0), (-2, 3)])
    def test_nonpositive_k_or_c_is_a_usage_error(self, capsys, k, c):
        code, out, err = run(capsys, "bound", "--p", "2", "--k", str(k), "--c", str(c))
        assert (code, out, err) == (EXIT_USAGE, "", "error: k and c must be positive\n")

    def test_non_prime_rejected(self, capsys):
        code, _, err = run(capsys, "bound", "--p", "6", "--k", "2", "--c", "2")
        assert code == EXIT_USAGE
        assert "prime" in err

    @pytest.mark.parametrize("k,c", [(40, 8), (300, 8)])
    def test_large_cells_finish(self, capsys, k, c):
        code, out, _ = run(capsys, "bound", "--p", "2", "--k", str(k), "--c", str(c), "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert sum(data["witness_composition"]) == k
        assert len(data["witness_composition"]) == c

    @pytest.mark.parametrize(
        "k,c,message",
        [
            (3, 3000, "f_upper scores reach c*log10(k+1) = 1807 digits, over the limit 1000"),
            (2, 20000, "f_upper scores reach c*log10(k+1) = 9543 digits, over the limit 1000"),
            pytest.param(1, 10**400, f"f_upper needs k*k*c = {10**400} DP cells, over the limit 4000000",
                         id="c-past-float-range"),
            (3000, 3, "f_upper needs k*k*c = 27000000 DP cells, over the limit 4000000"),
        ],
    )
    def test_guard_names_quantity_and_limit(self, capsys, k, c, message):
        code, out, err = run(capsys, "bound", "--p", "2", "--k", str(k), "--c", str(c))
        assert (code, out, err) == (EXIT_GUARD, "", f"refused: {message}\n")


class TestConstruct:
    def test_affine_blueprint(self, capsys):
        blueprint = '{"kind":"affine-unitriangular","params":{"p":2,"k":2,"m":1}}'
        code, out, _ = run(capsys, "construct", "--blueprint", blueprint)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["realized"] is True
        assert data["prediction"]["degree"] == 4
        assert data["prediction"]["log_p_order"] == 3
        assert len(data["group"]["generators"]) == 3

    def test_wreath_polynomial_blueprint(self, capsys):
        blueprint = '{"kind":"wreath-polynomial","params":{"p":2,"u":2,"v":2,"c":2}}'
        code, out, _ = run(capsys, "construct", "--blueprint", blueprint)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["prediction"]["degree"] == 16
        assert data["prediction"]["log_p_order"] == 8

    def test_product_of_cyclic_groups(self, capsys):
        blueprint = json.dumps(
            {
                "kind": "product",
                "params": {
                    "factors": [
                        {"kind": "sylow-wreath", "params": {"p": 2, "k": 1}},
                        {"kind": "sylow-wreath", "params": {"p": 3, "k": 1}},
                    ]
                },
            }
        )
        code, out, _ = run(capsys, "construct", "--blueprint", blueprint)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["prediction"]["degree"] == 6
        assert data["prediction"]["order"] == 6

    def test_guarded_realization_returns_prediction_only(self, capsys):
        blueprint = '{"kind":"wreath-polynomial","params":{"p":2,"u":3,"v":4,"c":2}}'
        code, out, _ = run(capsys, "construct", "--blueprint", blueprint)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["realized"] is False
        assert data["group"] is None
        assert data["prediction"]["degree"] == 128
        assert data["reason"] == "degree 128 exceeds realization guard 64"

    def test_product_guard_comes_before_its_factors(self, capsys):
        # each factor is the degree-32 tower, which alone is realized
        tower = {"kind": "sylow-wreath", "params": {"p": 2, "k": 5}}
        blueprint = json.dumps({"kind": "product", "params": {"factors": [tower, tower]}})
        code, out, _ = run(capsys, "construct", "--blueprint", blueprint)
        data = json.loads(out)
        assert (code, data["realized"]) == (EXIT_OK, False)
        assert data["reason"] == "degree 1024 exceeds realization guard 256"

    @pytest.mark.parametrize(
        "blueprint,message",
        [
            ('{"kind":"sylow-wreath","params":{"p":2,"k":14}}',
             "predicted order 2^16383 is over the limit 2^3321 (1000 digits)"),
            ('{"kind":"affine-unitriangular","params":{"p":2,"k":100000,"m":3}}',
             "predicted degree 2^100000 is over the limit 2^3321 (1000 digits)"),
            ('{"kind":"sylow-wreath","params":{"p":1099511627791,"k":1}}',
             "p = 1099511627791 is over the primality check limit 1099511627776"),
        ],
        ids=["sylow-wreath-order", "affine-degree", "p-past-prime-limit"],
    )
    def test_oversize_prediction_is_refused(self, capsys, blueprint, message):
        code, out, err = run(capsys, "construct", "--blueprint", blueprint)
        assert (code, out, err) == (EXIT_GUARD, "", f"refused: {message}\n")

    def test_invalid_blueprint(self, capsys):
        code, _, err = run(capsys, "construct", "--blueprint", '{"kind":"nope","params":{}}')
        assert code == EXIT_USAGE
        assert "blueprint" in err

    @pytest.mark.parametrize(
        "blueprint",
        [
            '{"kind":"sylow-wreath","params":{"p":1,"k":3}}',
            '{"kind":"wreath-polynomial","params":{"p":2,"u":1,"v":1,"c":0}}',
            '{"kind":"wreath-polynomial","params":{"p":2,"u":-1,"v":2,"c":2}}',
        ],
        ids=["sylow-wreath-p1", "wreath-polynomial-c0", "wreath-polynomial-u-negative"],
    )
    def test_out_of_range_params_are_invalid_blueprints(self, capsys, blueprint):
        code, _, err = run(capsys, "construct", "--blueprint", blueprint)
        assert code == EXIT_USAGE
        assert err.startswith("error: invalid blueprint: need ")

    @pytest.mark.parametrize(
        "blueprint,message",
        [
            ('{"kind":"dihedral-abelian","params":{"k":2.5,"c":1}}', "need an integer k, got k=2.5"),
            ('{"kind":"sylow-wreath","params":{"p":true,"k":2}}', "need an integer p, got p=True"),
            ('{"kind":"sylow-wreath","params":{"p":4,"k":2}}', "p must be prime, got 4"),
            ('{"kind":"affine-unitriangular","params":{"p":4,"k":2,"m":1}}', "p must be prime, got 4"),
            ('{"kind":"abelian-class2","params":{"p":6,"k":2,"m":1,"a":0}}', "p must be prime, got 6"),
            ('{"kind":"wreath-polynomial","params":{"p":9,"u":1,"v":1,"c":2}}', "p must be prime, got 9"),
            ('{"kind":"sylow-wreath","params":{"p":2}}', "missing key 'k'"),
            ('{"params":{}}', "missing key 'kind'"),
            ('{"kind":"sylow-wreath"}', "missing key 'params'"),
            ('{"kind":"product","params":{}}', "missing key 'factors'"),
            ('{"kind":"product","params":{"factors":[{"kind":"sylow-wreath","params":{"p":2,"k":1}},'
             '{"kind":"sylow-wreath","params":{"k":1}}]}}', "missing key 'p'"),
            ('{"kind":"sylow-wreath","params":5}', "params must be an object"),
            ('{"kind":"sylow-wreath","params":[1]}', "params must be an object"),
            ('{"kind":["x"],"params":{}}', "kind must be a string"),
            ('{"kind":"product","params":{"factors":5}}', "factors must be a list"),
            ('{"kind":"product","params":{"factors":[1,2]}}', "blueprint must be an object"),
            ('{"kind":"sylow-wreath","params":{"p":2,"k":1,"typo":7}}', "unknown param 'typo'"),
            ('{"kind":"product","params":{"factors":[{"kind":"sylow-wreath","params":{"p":2,"k":1}},'
             '{"kind":"sylow-wreath","params":{"p":2,"k":1}}],"p":2}}', "unknown param 'p'"),
            ('{"kind":"sylow-wreath","params":{"p":2,"k":1},"class":2}', "unknown key 'class'"),
        ],
        ids=["float-k", "bool-p", "sylow-wreath-p4", "affine-p4", "abelian-class2-p6",
             "wreath-polynomial-p9", "missing-k", "missing-kind", "missing-params", "missing-factors",
             "missing-p-in-factor", "int-params", "list-params", "list-kind", "int-factors",
             "int-factor", "unknown-param", "unknown-product-param", "unknown-top-level-key"],
    )
    def test_non_integer_or_non_prime_params_are_invalid_blueprints(self, capsys, blueprint, message):
        code, out, err = run(capsys, "construct", "--blueprint", blueprint)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: invalid blueprint: {message}\n")

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "construct", "--blueprint", '{"kind": ')
        assert code == EXIT_USAGE
        assert "line" in err and "column" in err


class TestAnalyze:
    def test_one_orbit_search_per_analyze(self, capsys, monkeypatch):
        # is_transitive keeps its answer, so analyze's three readers of it
        # (the transitive field, is_regular and center) search orbits once
        groups = [json.dumps(realize(blueprint_from_json(bp)).to_json()) for bp in WITNESS_BLUEPRINTS]
        calls = []
        real_orbit = PermGroup.orbit

        def orbit(self, point):
            calls.append(point)
            return real_orbit(self, point)

        monkeypatch.setattr(PermGroup, "orbit", orbit)
        for group in groups:
            calls.clear()
            code, out, _ = run(capsys, "analyze", "--group", group)
            assert code == EXIT_OK and json.loads(out)["transitive"] is True
            assert calls == [0]

    def test_dihedral(self, capsys):
        group = '{"degree":4,"generators":[[1,2,3,0],[2,1,0,3]]}'
        code, out, _ = run(capsys, "analyze", "--group", group)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["order"] == 8
        assert data["nilpotency_class"] == 2
        assert data["transitive"] is True
        assert data["regular"] is False
        assert data["center_order"] == 2
        assert data["lower_central_orders"] == [8, 2, 1]

    def test_single_cycle_is_regular_class_one(self, capsys):
        group = '{"degree":8,"generators":[[1,2,3,4,5,6,7,0]]}'
        code, out, _ = run(capsys, "analyze", "--group", group)
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["regular"] is True
        assert data["nilpotency_class"] == 1

    def test_affine_three_squared(self, capsys):
        from nilbound.constructions import affine_unitriangular

        group = json.dumps(affine_unitriangular(3, 2, 1).to_json())
        code, out, _ = run(capsys, "analyze", "--group", group)
        data = json.loads(out)
        assert data["order"] == 27
        assert data["nilpotency_class"] == 2
        assert data["center_order"] == 3

    def test_non_nilpotent_marker(self, capsys):
        group = '{"degree":3,"generators":[[1,2,0],[1,0,2]]}'
        code, out, _ = run(capsys, "analyze", "--group", group)
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["nilpotent"] is False
        assert data["nilpotency_class"] is None
        # the series of a non-nilpotent group runs on to where it stalls
        assert data["lower_central_orders"] == [6, 3]
        assert data["center_order"] == 1

    def test_rejects_non_bijection_with_position(self, capsys):
        group = '{"degree":3,"generators":[[0,1,2],[0,0,1]]}'
        code, _, err = run(capsys, "analyze", "--group", group)
        assert code == EXIT_USAGE
        assert "generators[1]" in err

    def test_rejects_bool_points_with_position(self, capsys):
        group = '{"degree":2,"generators":[[0,1],[true,false]]}'
        code, _, err = run(capsys, "analyze", "--group", group)
        assert code == EXIT_USAGE
        assert "generators[1]" in err

    @pytest.mark.parametrize(
        "group,message",
        [
            ('{"degree":true,"generators":[]}', "degree must be a positive integer"),
            ('{"generators":[]}', "missing key 'degree'"),
            ('{"degree":2,"generators":5}', "generators must be a list"),
            ('{"degree":2,"generators":[5]}', "generators[0] must be a list of 2 points"),
            ('{"degree":2,"generators":null}', "generators must be a list"),
            ('{"degree":2,"generators":"ab"}', "generators must be a list"),
            ('{"degree":4,"gens":[[1,2,3,0]]}', "unknown key 'gens'"),
            ('{"generators":[],"degree":2,"b":0,"a":0}', "unknown key 'a'"),
        ],
        ids=["bool-degree", "missing-degree", "int-generators", "int-generator", "null-generators",
             "string-generators", "unknown-key", "unknown-keys-sorted"],
    )
    def test_invalid_group_is_a_usage_error(self, capsys, group, message):
        code, out, err = run(capsys, "analyze", "--group", group)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: invalid group: {message}\n")

    @pytest.mark.parametrize("group", ["[]", " [1, 2]"])
    def test_inline_array_is_parsed_not_opened(self, capsys, group):
        # an array is read as inline JSON, not as a file path
        code, out, err = run(capsys, "analyze", "--group", group)
        assert (code, out, err) == (EXIT_USAGE, "", "error: expected a JSON object\n")

    @pytest.mark.parametrize("degree,code", [(256, EXIT_OK), (257, EXIT_GUARD), (10**9, EXIT_GUARD)])
    def test_degree_limit(self, capsys, degree, code):
        got, _, err = run(capsys, "analyze", "--group", json.dumps({"degree": degree}))
        assert got == code
        if code == EXIT_GUARD:
            assert err == f"refused: analyze of degree {degree} is over the limit 256\n"


class TestSearch:
    def test_degree_four_row(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "2", "--k", "2", "--cmax", "4", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["exponents"] == [2, 3, 3, 3]

    def test_guard_refusal_exit_code(self, capsys):
        code, _, err = run(capsys, "search", "--p", "2", "--k", "4", "--cmax", "2")
        assert code == EXIT_GUARD
        assert "guard" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--k", str(10**12)), f"degree 2^{10**12} exceeds exhaustive search guard 9"),
            (("--k", "2", "--cmax", "1001"), "search --cmax 1001 is over the limit 1000"),
        ],
        ids=["k-huge", "cmax-past-limit"],
    )
    def test_oversize_arguments_are_refused(self, capsys, argv, message):
        code, out, err = run(capsys, "search", "--p", "2", *argv)
        assert (code, out) == (EXIT_GUARD, "")
        assert err.startswith(f"refused: {message}")

    def test_budget_refusal_exit_code(self, capsys):
        code, _, err = run(capsys, "search", "--p", "2", "--k", "3", "--budget", "5")
        assert code == EXIT_GUARD
        assert "budget" in err

    def test_budget_refusal_names_count_and_limit(self, capsys):
        code, out, err = run(capsys, "search", "--p", "2", "--k", "3", "--budget", "10")
        assert (code, out) == (EXIT_GUARD, "")
        assert err == "refused: search budget exceeded: visited 11 subgroups, over the budget 10\n"

    def test_set_mode_budget_refusal_names_count_and_limit(self, capsys):
        # set mode counts every subgroup it yields, conjugates included
        code, out, err = run(capsys, "search", "--p", "2", "--k", "3", "--dedupe", "set", "--budget", "10")
        assert (code, out) == (EXIT_GUARD, "")
        assert err == "refused: search budget exceeded: visited 11 subgroups, over the budget 10\n"

    def test_zero_budget_counts_the_trivial_subgroup(self, capsys):
        # the trivial subgroup counts against the budget like every other
        code, out, err = run(capsys, "search", "--p", "2", "--k", "3", "--budget", "0")
        assert (code, out) == (EXIT_GUARD, "")
        assert err == "refused: search budget exceeded: visited 1 subgroups, over the budget 0\n"

    def test_negative_budget_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "search", "--p", "2", "--k", "3", "--budget", "-5")
        assert (code, out, err) == (EXIT_USAGE, "", "error: --budget must be non-negative, got -5\n")

    @pytest.mark.parametrize(
        "argv",
        [("--k", "0", "--audit"), ("--k", "2", "--cmax", "0"), ("--k", "-1")],
        ids=["k0-audit", "cmax0", "k-negative"],
    )
    def test_out_of_range_arguments_are_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, "search", "--p", "2", *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "Traceback" not in err

    def test_audit_flag(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "2", "--k", "2", "--cmax", "3", "--audit")
        assert code == EXIT_OK
        assert "audit ok" in out
        assert "FAIL" not in out

    def test_audit_embedded_in_json_mode(self, capsys):
        code, out, _ = run(
            capsys, "search", "--p", "2", "--k", "3", "--cmax", "8", "--audit", "--json"
        )
        assert code == EXIT_OK
        data = json.loads(out)  # a single valid JSON document
        assert data["exponents"] == [3, 5, 6, 7, 7, 7, 7, 7]
        assert data["audit"]["ok"] is True


class TestTable:
    def test_table1_contains_exceptional_entry(self, capsys):
        code, out, _ = run(capsys, "table", "--table1", "--kmax", "10")
        assert code == EXIT_OK
        row6 = next(line for line in out.splitlines() if line.strip().startswith("6 |"))
        assert "188" in row6
        assert "MISMATCH" not in out

    def test_table1_work_guard(self, capsys):
        assert run(capsys, "table", "--table1", "--kmax", "105")[0] == EXIT_OK
        code, out, err = run(capsys, "table", "--table1", "--kmax", "106")
        assert (code, out) == (EXIT_GUARD, "")
        assert err == ("refused: table --table1 --kmax 106 needs sum of k*k*c = 4026410 "
                       "DP cells, over the limit 4000000\n")

    def test_table1_is_one_forward_pass(self, capsys, monkeypatch):
        calls = []
        real_pass = bounds.composition_maxima

        def counted(kmax, cmax):
            calls.append((kmax, cmax))
            return real_pass(kmax, cmax)

        monkeypatch.setattr(bounds, "composition_maxima", counted)
        bounds._maximize.cache_clear()  # no cell f_upper cached may hide a per-cell pass
        assert run(capsys, "table", "--table1", "--kmax", "40")[0] == EXIT_OK
        assert calls == [(40, 4)]

    def test_table1_outputs_are_pinned(self, capsys):
        # stdout, stderr and exit code of every admitted --kmax and of the
        # first refused one, as the per-cell dynamic program printed them
        digest = hashlib.sha256()
        for kmax in range(1, 107):
            code, out, err = run(capsys, "table", "--table1", "--kmax", str(kmax))
            digest.update(f"{kmax} {code}\n{out}{err}".encode())
        assert code == EXIT_GUARD
        assert digest.hexdigest() == "5f1612c2edfe1416226a7f2675ee81c49d416c68ed2095c66dfd28a47cd851da"

    @pytest.mark.parametrize("kmax", [0, -3])
    def test_table1_nonpositive_kmax_is_a_usage_error(self, capsys, kmax):
        code, out, err = run(capsys, "table", "--table1", "--kmax", str(kmax))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: --kmax must be positive, got {kmax}\n")

    def test_table2_marks_sources(self, capsys):
        code, out, _ = run(capsys, "table", "--table2")
        assert code == EXIT_OK
        assert "exact (exhaustive search)" in out
        assert "reference (not recomputed)" in out
        row3 = next(line for line in out.splitlines() if line.strip().startswith("3 |"))
        assert row3.split("|")[1].split() == "3 5 6 7 7 7 7 7 7 7 7 7 7 7 7 7".split()

    def test_table2_refusal_leaves_stdout_empty(self, capsys, monkeypatch):
        # the budget admits rows 1 and 2 but not row 3
        monkeypatch.setattr(search, "DEFAULT_BUDGET", 50)
        code, out, err = run(capsys, "table", "--table2")
        assert (code, out) == (EXIT_GUARD, "")
        assert err.startswith("refused: search budget exceeded: visited 51 subgroups")


class TestContracts:
    def test_round_trip_analyze_reproduces_prediction(self, capsys):
        blueprint = '{"kind":"abelian-class2","params":{"p":3,"k":2,"m":1,"a":1}}'
        code, out, _ = run(capsys, "construct", "--blueprint", blueprint)
        assert code == EXIT_OK
        constructed = json.loads(out)
        code, out, _ = run(capsys, "analyze", "--group", json.dumps(constructed["group"]))
        assert code == EXIT_OK
        analysis = json.loads(out)
        prediction = constructed["prediction"]
        assert analysis["degree"] == prediction["degree"]
        assert analysis["order"] == prediction["order"]
        assert analysis["log_p_order"] == prediction["log_p_order"]
        assert analysis["nilpotency_class"] <= prediction["class_bound"]

    def test_json_output_stable_across_runs(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "search", "--p", "3", "--k", "2", "--cmax", "3", "--json")
            outputs.append(out)
        assert outputs[0] == outputs[1]
        for _ in range(2):
            _, out, _ = run(capsys, "bound", "--p", "2", "--k", "9", "--c", "3", "--json")
            outputs.append(out)
        assert outputs[2] == outputs[3]

    def test_missing_verb_is_usage_error(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "nilbound.cli", "bound", "--p", "2", "--k", "2", "--c", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "3" in result.stdout


# argv lists that one process may run in any order: every verb, a verb with
# and without a flag, each table mode and both at once, and argparse's own
# exits for a missing required flag, an unknown verb and --help
_SEQUENCE = [
    ["bound", "--p", "2", "--k", "6", "--c", "4"],
    ["bound", "--p", "3", "--k", "2", "--c", "2", "--json"],
    ["construct", "--blueprint", '{"kind":"sylow-wreath","params":{"p":2,"k":2}}'],
    ["analyze", "--group", '{"degree":4,"generators":[[1,2,3,0],[2,1,0,3]]}'],
    ["search", "--p", "2", "--k", "3", "--audit"],
    ["search", "--p", "2", "--k", "3"],
    ["search", "--p", "3", "--k", "2", "--dedupe", "set", "--json"],
    ["table", "--table1", "--kmax", "4"],
    ["table", "--table2"],
    ["table", "--table1", "--table2"],
    ["bound", "--p", "2", "--k", "3"],
    ["frobnicate"],
    ["--help"],
    ["search", "--help"],
]


class TestParserReuse:
    """main builds its parser once per process; no call sees another's."""

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
        assert run(capsys, "bound", "--p", "2", "--k", "2", "--c", "2")[0] == EXIT_OK
        first = len(built)  # 0 once an earlier test has called main
        assert run(capsys, "table", "--table1", "--kmax", "2")[0] == EXIT_OK
        assert run(capsys, "search", "--p", "2")[0] == EXIT_USAGE
        assert len(built) == first

    def test_outputs_do_not_depend_on_earlier_calls(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
        forward = [run(capsys, *argv) for argv in _SEQUENCE]
        backward = [run(capsys, *argv) for argv in reversed(_SEQUENCE)]
        assert forward == backward[::-1]
        assert [code for code, _, _ in forward] == [EXIT_OK] * 9 + [EXIT_USAGE] * 3 + [EXIT_OK] * 2
        assert forward[4][1].startswith(forward[5][1]) and "audit ok" not in forward[5][1]
        assert forward[12][1].startswith("usage: nilbound [-h]") and forward[12][2] == ""

    @pytest.mark.parametrize("index", [4, 9, 10, 11, 12], ids=["audit", "both-tables", "missing", "unknown", "help"])
    def test_reused_parser_matches_a_fresh_process(self, capsys, monkeypatch, index):
        monkeypatch.setenv("COLUMNS", "80")
        run(capsys, *_SEQUENCE[0])  # the parser exists before argv is parsed
        fresh = subprocess.run(
            [sys.executable, "-m", "nilbound.cli", *_SEQUENCE[index]],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run(capsys, *_SEQUENCE[index]) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestRobustness:
    """Every invocation ends in one line and exit 0, 1 or 2, in bounded time."""

    @pytest.mark.parametrize(
        "argv",
        [["bound", "--p", "2", "--k", "2", "--c", "2"], ["table", "--table1", "--kmax", "5"]],
        ids=["bound", "table1"],
    )
    def test_closed_stdout_exits_quietly(self, argv):
        # stdout is a pipe whose reader has already gone, as in `nilbound ... | head`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "nilbound.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (EXIT_USAGE, "")

    @pytest.mark.parametrize(
        "verb,flag,text",
        [
            ("analyze", "--group", '{"degree":2,"generators":' + "[" * 5000 + "]" * 5000 + "}"),
            ("construct", "--blueprint", '{"kind":"sylow-wreath","params":' * 1000 + "{}" + "}" * 1000),
            (
                "construct",
                "--blueprint",
                '{"kind":"product","params":{"factors":[' * 400
                + '{"kind":"sylow-wreath","params":{"p":2,"k":1}}'
                + ',{"kind":"affine-unitriangular","params":{"p":2,"k":0,"m":0}}]}}' * 400,
            ),
        ],
        ids=["group-lists", "blueprint-params", "blueprint-products"],
    )
    def test_deep_nesting_is_a_usage_error(self, capsys, verb, flag, text):
        code, out, err = run(capsys, verb, flag, text)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1

    @settings(max_examples=150, deadline=timedelta(seconds=20),
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(argv=_ARGVS)
    def test_fuzzed_invocations_end_cleanly(self, capsys, argv):
        # capsys is safe to share across examples: run() drains it each time
        code, _, err = run(capsys, *argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_GUARD), (argv, err)
        assert "Traceback" not in err
        assert err.count("\n") <= 1 or err.startswith("usage:"), err
