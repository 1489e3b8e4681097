import json

import pytest
from click.testing import CliRunner

from mackeydim import izext, mackey, oracle, posets, transfer
from mackeydim.cli import main

from conftest import FIXTURES


@pytest.fixture
def runner():
    return CliRunner()


class TestLattice:
    def test_c6_text(self, runner):
        res = runner.invoke(main, ["lattice", "C6"])
        assert res.exit_code == 0
        assert "subgroups of C2xC3: 4" in res.output

    def test_c1_single_row(self, runner):
        res = runner.invoke(main, ["lattice", "C1"])
        assert res.exit_code == 0
        assert "subgroups of C1: 1" in res.output

    def test_prime_power_grammar(self, runner):
        res = runner.invoke(main, ["lattice", "2^2*3"])
        assert res.exit_code == 0
        assert "subgroups of C4xC3: 6" in res.output

    def test_dot_output(self, runner):
        res = runner.invoke(main, ["lattice", "C6", "--format", "dot"])
        assert res.exit_code == 0
        assert res.output.startswith("digraph")

    def test_deterministic_json(self, runner, tmp_path):
        a = runner.invoke(main, ["lattice", "C12", "--format", "json"]).output
        b = runner.invoke(main, ["lattice", "C12", "--format", "json"]).output
        assert a == b
        payload = json.loads(a)
        assert payload["schema"] == 1 and len(payload["subgroups"]) == 6

    def test_order_above_2000(self, runner):
        res = runner.invoke(main, ["lattice", "C2048"])
        assert res.exit_code == 0
        assert "subgroups of C2048: 12" in res.output

    def test_bad_spec_is_domain_error(self, runner):
        res = runner.invoke(main, ["lattice", "C0"])
        assert res.exit_code == 3

    def test_missing_arg_is_usage_error(self, runner):
        res = runner.invoke(main, ["lattice"])
        assert res.exit_code == 2


class TestGldimIA:
    def test_group_c30(self, runner):
        res = runner.invoke(main, ["gldim-ia", "--group", "C30"])
        assert res.exit_code == 0
        assert "= 3" in res.output

    def test_group_c1(self, runner):
        res = runner.invoke(main, ["gldim-ia", "--group", "C1"])
        assert res.exit_code == 0
        assert "= 0" in res.output

    def test_poset_fixture(self, runner):
        res = runner.invoke(
            main, ["gldim-ia", "--poset", str(FIXTURES / "f5_subgroups.poset")]
        )
        assert res.exit_code == 0
        assert "= 2" in res.output

    def test_table_json(self, runner):
        res = runner.invoke(
            main, ["gldim-ia", "--group", "C6", "--table", "--format", "json"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["gldim"] == 2
        offdiag = [e for e in payload["ext_table"] if e["x"] != e["y"]]
        assert sorted(e["n"] for e in offdiag) == [1, 1, 1, 1, 2]

    def test_both_sources_rejected(self, runner):
        res = runner.invoke(
            main,
            ["gldim-ia", "--group", "C6", "--poset", str(FIXTURES / "f5_conjugacy.poset")],
        )
        assert res.exit_code == 2

    def test_threads_flag_rejected(self, runner):
        # the option never changed a result and is gone
        res = runner.invoke(main, ["--threads", "2", "gldim-ia", "--group", "C6"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("spec", [
        "C1000000000000000003",  # a cofactor past the trial-division budget
        "2^100000",  # an exponent whose power has too many digits to print
        "2^3000000",
    ])
    def test_huge_spec_is_refused_by_the_budget(self, runner, spec):
        res = runner.invoke(main, ["gldim-ia", "--group", spec])
        assert res.exit_code == 3
        assert len(res.output.splitlines()) == 1
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("error, code", [
        (izext.IzextError("no section route"), 3),
        (izext.DiscrepancyError("routes disagree"), 4),
    ], ids=["izext", "discrepancy"])
    def test_errors_map_to_exit_codes(self, runner, monkeypatch, error, code):
        def fail(G):
            raise error

        monkeypatch.setattr(izext, "gldim_subgroup_lattice", fail)
        res = runner.invoke(main, ["gldim-ia", "--group", "C6"])
        assert res.exit_code == code
        lines = res.output.splitlines()
        if code == 4:
            # a discrepancy first writes its details as one JSON line
            assert json.loads(lines.pop(0)) == {"discrepancy": str(error), "details": {}}
        assert lines == [f"Error: {error}"]
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("text, error", [
        ("elements: a b\ncover: a < c\n", "Error: line 2: unknown element 'c'"),
        ("elements: a b\ncover: a < b\ncover: b < a\n", "Error: cover relation has a cycle"),
    ], ids=["unknown-element", "cycle"])
    def test_malformed_poset_file_exits_3(self, runner, tmp_path, text, error):
        path = tmp_path / "bad.poset"
        path.write_text(text)
        res = runner.invoke(main, ["gldim-ia", "--poset", str(path)])
        assert res.exit_code == 3
        assert res.output.splitlines() == [error]
        assert "Traceback" not in res.output


class TestGldimMackey:
    def test_oprime2_fixture(self, runner):
        res = runner.invoke(
            main,
            [
                "gldim-mackey",
                "--group",
                "2^3*3^2",
                "--gens",
                str(FIXTURES / "oprime2.gen"),
            ],
        )
        assert res.exit_code == 0
        assert "gldim = 1" in res.output

    def test_empty_generator_file(self, runner):
        res = runner.invoke(
            main,
            ["gldim-mackey", "--group", "C6", "--gens", str(FIXTURES / "trivial.gen")],
        )
        assert res.exit_code == 0
        assert "gldim = 2" in res.output

    def test_order_above_2000(self, runner):
        res = runner.invoke(
            main,
            ["gldim-mackey", "--group", "C2048", "--gens", str(FIXTURES / "trivial.gen")],
        )
        assert res.exit_code == 0
        assert "gldim = 1" in res.output

    def test_routes_disagree_exits_4(self, runner, monkeypatch):
        monkeypatch.setattr(mackey, "gldim_mackey_via_ext", lambda G, T: 7)
        res = runner.invoke(
            main,
            ["gldim-mackey", "--group", "C6", "--gens", str(FIXTURES / "trivial.gen")],
        )
        assert res.exit_code == 4
        assert res.output.splitlines() == [
            "Error: two routes disagree: 2 (classes) vs 7 (Ext)"
        ]

    def test_discrepancy_details_on_stderr(self, runner, monkeypatch):
        # a height bound below the gldim is a discrepancy inside gldim_mackey
        monkeypatch.setattr(posets.FinitePoset, "height", lambda self: 0)
        res = runner.invoke(
            main,
            ["gldim-mackey", "--group", "C6", "--gens", str(FIXTURES / "trivial.gen")],
        )
        assert res.exit_code == 4
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert json.loads(lines[0]) == {
            "discrepancy": "global dimension exceeds the height bound",
            "details": {"gldim": 2, "height_bound": 0},
        }
        assert lines[1:] == ["Error: global dimension exceeds the height bound"]
        assert "Traceback" not in res.output

    def test_complete_generators(self, runner, tmp_path):
        gens = tmp_path / "complete.gen"
        gens.write_text(
            "gen: C1 -> C6\ngen: C2 -> C6\ngen: C3 -> C6\n"
        )
        res = runner.invoke(
            main, ["gldim-mackey", "--group", "C6", "--gens", str(gens)]
        )
        assert res.exit_code == 0
        assert "gldim = 0" in res.output

    def test_bad_generator_label(self, runner, tmp_path):
        gens = tmp_path / "bad.gen"
        gens.write_text("gen: C5 -> C6\n")
        res = runner.invoke(main, ["gldim-mackey", "--group", "C6", "--gens", str(gens)])
        assert res.exit_code == 3

    def test_system_validated_once(self, runner, monkeypatch):
        calls = []
        real = transfer.validate

        def counted(T):
            calls.append(T)
            return real(T)

        monkeypatch.setattr(transfer, "validate", counted)
        res = runner.invoke(
            main,
            ["gldim-mackey", "--group", "2^3*3^2", "--gens", str(FIXTURES / "oprime2.gen")],
        )
        assert res.exit_code == 0
        assert len(calls) == 1

    def test_not_disk_like_exits_3(self, runner, tmp_path):
        gens = tmp_path / "c4.gen"
        gens.write_text("gen: C1 -> C2\n")
        res = runner.invoke(main, ["gldim-mackey", "--group", "C4", "--gens", str(gens)])
        assert res.exit_code == 3
        assert res.output.splitlines() == [
            "Error: not disk-like: arrow C1 -> C2 is not generated by the "
            "arrows into the full group"
        ]


class TestScan:
    def test_monotonicity_budget_exits_3(self, runner):
        res = runner.invoke(main, ["scan", "--group", "C2xC2xC4", "monotonicity"])
        assert res.exit_code == 3
        assert res.output.splitlines() == [
            "Error: disk-like enumeration budget exceeded: 27 > 16 subgroups"
        ]

    def test_conjectures_over_budget_omits_monotonicity(self, runner):
        res = runner.invoke(main, ["scan", "--group", "C2xC2xC4", "conjectures"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert "disk_like_systems" not in payload
        assert "monotonicity_violations" not in payload

    def test_monotonicity_c6(self, runner):
        res = runner.invoke(main, ["scan", "--group", "C6", "monotonicity"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["violations"] == []

    def test_frattini_c4(self, runner):
        res = runner.invoke(main, ["scan", "--group", "C4", "frattini"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["realization"] == {"degree": 1, "subgroup": "C4"}

    def test_frattini_klein(self, runner):
        res = runner.invoke(main, ["scan", "--group", "2^1*2^1", "frattini"])
        assert res.exit_code == 0
        assert json.loads(res.output)["realization"]["degree"] == 2

    def test_frattini_discrepancy_exits_4(self, runner, monkeypatch):
        # a non-vanishing interval on one witness is reported, not raised
        right = izext.ext_dims

        def wrong_at_c4(P, x, y):
            return {3: 1} if P.labels[x] == "C4.1" else right(P, x, y)

        monkeypatch.setattr(izext, "ext_dims", wrong_at_c4)
        res = runner.invoke(main, ["scan", "--group", "C2xC4", "frattini"])
        assert res.exit_code == 4
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert json.loads(lines[0]) == {
            "discrepancy": "eligible pair with non-vanishing interval cohomology",
            "details": {"H": "C4.1", "K": "C1", "section": "C4"},
        }
        assert lines[1:] == ["Error: eligible pair with non-vanishing interval cohomology"]
        assert "Traceback" not in res.output

    def test_conjectures(self, runner):
        res = runner.invoke(main, ["scan", "--group", "C12", "conjectures"])
        assert res.exit_code == 0
        assert json.loads(res.output)["frattini_realizes_gldim"] is True

    def test_deterministic_output(self, runner):
        a = runner.invoke(main, ["scan", "--group", "C12", "frattini"]).output
        b = runner.invoke(main, ["scan", "--group", "C12", "frattini"]).output
        assert a == b


class TestOracleCheck:
    def test_small_clean_run(self, runner):
        res = runner.invoke(
            main,
            ["oracle-check", "--max-group-order", "8", "--samples", "10", "--max-elements", "5"],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["ok"] is True and payload["diffs"] == []

    def test_inject_fault_reports_diff(self, runner):
        res = runner.invoke(
            main,
            [
                "oracle-check",
                "--max-group-order",
                "4",
                "--samples",
                "0",
                "--inject-fault",
            ],
        )
        assert res.exit_code == 4

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_elements_below_one_is_usage_error(self, runner, value):
        res = runner.invoke(main, ["oracle-check", "--max-elements", value])
        assert res.exit_code == 2
        assert "Traceback" not in res.output

    def test_oracle_error_exits_3(self, runner, monkeypatch):
        def fail(P):
            raise oracle.OracleError("resolution did not terminate")

        monkeypatch.setattr(oracle, "ext_table_oracle", fail)
        res = runner.invoke(main, ["oracle-check", "--max-group-order", "2", "--samples", "0"])
        assert res.exit_code == 3
        assert res.output.splitlines() == ["Error: resolution did not terminate"]
        assert "Traceback" not in res.output

    def test_random_poset_corpus(self, runner):
        res = runner.invoke(
            main,
            [
                "oracle-check",
                "--max-group-order",
                "1",
                "--max-elements",
                "6",
                "--samples",
                "200",
            ],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["ok"] is True and payload["cases"] == 201

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(
            main,
            [
                "oracle-check",
                "--max-group-order",
                "6",
                "--samples",
                "5",
                "--output",
                str(out),
            ],
        )
        assert res.exit_code == 0
        assert json.loads(out.read_text())["ok"] is True


class TestRoundTrip:
    def test_poset_files_reload_identically(self, tmp_path, lattice_cache):
        from mackeydim import posets

        P = lattice_cache("C12").poset
        text = posets.poset_to_text(P)
        path = tmp_path / "c12.poset"
        path.write_text(text)
        Q = posets.parse_poset_text(path.read_text())
        assert Q.labels == P.labels and Q.up == P.up

    def test_cli_written_poset_reloads(self, runner, tmp_path, lattice_cache):
        from mackeydim import posets

        out = tmp_path / "c12.poset"
        res = runner.invoke(
            main, ["lattice", "C12", "--format", "poset", "--output", str(out)]
        )
        assert res.exit_code == 0
        Q = posets.parse_poset_text(out.read_text())
        P = lattice_cache("C12").poset
        assert Q.labels == P.labels and Q.up == P.up
        # and gldim-ia accepts the written file
        res = runner.invoke(main, ["gldim-ia", "--poset", str(out)])
        assert res.exit_code == 0 and "= 2" in res.output
