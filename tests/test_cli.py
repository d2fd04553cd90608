from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kegraph
import kegraph.cli
import kegraph.harness.checks
from kegraph.cli import main
from kegraph.errors import InternalInvariantError
from kegraph.graph import format_edge_list, from_edge_list
from kegraph.harness import GeneratorConfig, generate


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(format_edge_list(generate(GeneratorConfig("cycle", 5))))
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text(format_edge_list(generate(GeneratorConfig("tree", 12, seed=17))))
    return str(path)


class TestAnalyze:
    def test_fixture_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "k3_plus_e")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 2 and payload["mu"] == 2 and payload["is_ke"] is True
        assert payload["mu_critical_edges"] == [[0, 3], [1, 2]]

    def test_input_file(self, capsys, c5_file):
        code, out, _ = run(capsys, "analyze", "--input", c5_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 2 and payload["is_ke"] is False

    def test_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "analyze", "--fixture", "fig9_iii")
        _, out2, _ = run(capsys, "analyze", "--fixture", "fig9_iii")
        assert out1 == out2

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "w1", "--format", "text")
        assert code == 0 and "alpha = 3" in out and "is_ke = False" in out

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "k3_plus_e", "--format", "dot")
        assert code == 0
        assert out.startswith("graph G {")
        assert '3 [class="core"];' in out
        assert '1 -- 2 [class="alpha_critical mu_critical"];' in out
        assert '0 -- 3 [class="mu_critical"];' in out

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2 and "error" in err

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "/nonexistent/没有.txt")
        assert code == 2 and "error" in err

    def test_capacity_exit_code(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(format_edge_list(generate(GeneratorConfig("path", 45))))
        code, _, err = run(capsys, "analyze", "--input", str(path))
        assert code == 3 and "capacity" in err

    def test_max_n_override(self, capsys, tmp_path):
        path = tmp_path / "p22.txt"
        path.write_text(format_edge_list(generate(GeneratorConfig("path", 22))))
        code, _, _ = run(capsys, "analyze", "--input", str(path), "--max-n", "22")
        assert code == 0

    def test_alpha_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # Omega of 1500 isolated vertices is one set of 1500: the enumeration
        # goes 1500 levels deep, beyond the interpreter's recursion limit.
        path = tmp_path / "edgeless.txt"
        path.write_text("1500 0\n")
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--max-n", "1500")
        assert code == 0
        assert json.loads(out)["alpha"] == 1500


class TestCritical:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "critical", "--fixture", "w1")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == 3
        assert payload["alpha_critical_edges"] == [[2, 3], [2, 5], [3, 5]]

    def test_max_n_zero_keeps_defaults_and_negative_exits_2(self, capsys):
        _, default, _ = run(capsys, "critical", "--fixture", "w1")
        assert run(capsys, "critical", "--fixture", "w1", "--max-n", "0") == (0, default, "")
        code, out, err = run(capsys, "critical", "--fixture", "w1", "--max-n", "-3")
        assert code == 2 and out == ""
        assert "--max-n must be non-negative, got -3" in err


class TestDecompose:
    def test_ke_graph(self, capsys):
        code, out, _ = run(capsys, "decompose", "--fixture", "k3_plus_e")
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == [1, 3]
        assert payload["cut_matching"] == [[0, 3], [1, 2]]

    def test_non_ke_exits_2(self, capsys, c5_file):
        code, _, err = run(capsys, "decompose", "--input", c5_file)
        assert code == 2
        assert "not a König-Egerváry graph" in err


class TestVerify:
    def test_tree_c1_passes(self, capsys, tree_file):
        code, out, _ = run(capsys, "verify", "--input", tree_file, "--checks", "C1")
        assert code == 0
        verdicts = json.loads(out)
        assert verdicts[0]["status"] == "Pass"

    def test_multiple_checks(self, capsys, tree_file):
        code, out, _ = run(
            capsys, "verify", "--input", tree_file, "--checks", "C1,C4,C5,P3,T1i,T1ii,T1iii"
        )
        assert code == 0
        assert {v["status"] for v in json.loads(out)} == {"Pass"}

    def test_fail_exits_1_and_prints_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixture", "w1", "--checks", "P7-unguarded")
        assert code == 1
        verdict = json.loads(out)[0]
        assert verdict["status"] == "Fail"
        assert "6 6" in verdict["witness"]["graph"]

    def test_text_format_includes_witness(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--fixture", "w1", "--checks", "P7-unguarded", "--format", "text"
        )
        assert code == 1
        assert "P7-unguarded: Fail" in out and '"graph"' in out

    def test_unknown_check_exits_2(self, capsys, tree_file):
        code, _, err = run(capsys, "verify", "--input", tree_file, "--checks", "NOPE")
        assert code == 2 and "unknown check" in err

    def test_l1_on_two_odd_cliques(self, capsys, tmp_path):
        # 2 x K19: no perfect matching, and n = 38 is inside the alpha cap.
        clique = [(u, v) for u in range(19) for v in range(u + 1, 19)]
        two_k19 = from_edge_list(38, clique + [(u + 19, v + 19) for u, v in clique])
        path = tmp_path / "two_k19.txt"
        path.write_text(format_edge_list(two_k19))
        code, out, _ = run(capsys, "verify", "--input", str(path), "--checks", "L1")
        assert code == 0
        verdict = json.loads(out)[0]
        assert verdict["status"] == "NotApplicable"
        assert verdict["reason"] == "no perfect matching and not a König-Egerváry graph"

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n")
        code, _, err = run(capsys, "verify", "--input", str(path), "--checks", "C1")
        assert code == 2 and "error" in err


class TestFuzzCommand:
    ARGS = (
        "fuzz", "--gen", "tree", "--n", "10", "--trials", "25",
        "--seed", "5", "--checks", "C1,C4,C5",
    )

    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 25
        assert payload["per_check"]["C1"]["fail"] == 0

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, *self.ARGS)
        _, out2, _ = run(capsys, *self.ARGS)
        assert out1 == out2

    def test_failing_campaign_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--gen", "gnp", "--n", "8", "--trials", "40",
            "--seed", "7", "--checks", "P7-unguarded",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["witnesses"]

    def test_ke_generator_alias(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--gen", "ke", "--n", "9", "--trials", "10",
            "--seed", "3", "--checks", "T2,C2",
        )
        assert code == 0
        assert json.loads(out)["cfg"]["kind"] == "ke_synth"

    def test_repeated_check_id_exits_2(self, capsys):
        code, out, err = run(
            capsys, "fuzz", "--gen", "tree", "--n", "6", "--trials", "5",
            "--seed", "1", "--checks", "C1,C1",
        )
        assert code == 2 and out == ""
        assert "'C1' is listed more than once" in err

    def test_negative_n2_exits_2(self, capsys):
        code, out, err = run(
            capsys, "fuzz", "--gen", "bipartite", "--n", "3", "--n2", "-4",
            "--trials", "2", "--checks", "P3",
        )
        assert code == 2 and out == ""
        assert "n2 must be non-negative, got -4" in err

    def test_n2_on_a_kind_that_ignores_it_exits_2(self, capsys):
        code, out, err = run(
            capsys, "fuzz", "--gen", "tree", "--n", "5", "--n2", "7",
            "--trials", "1", "--checks", "C1",
        )
        assert code == 2 and out == ""
        assert "n2 is read only by the bipartite generator, got n2=7 for tree" in err

    def test_p_on_a_kind_that_ignores_it_exits_2(self, capsys):
        code, out, err = run(
            capsys, "fuzz", "--gen", "tree", "--n", "5", "--p", "0.5",
            "--trials", "1", "--checks", "C1",
        )
        assert code == 2 and out == ""
        assert "p is read only by the bipartite, ke_synth, gnp generators, got p=0.5 for tree" in err

    def test_check_list_is_read_before_the_config(self, capsys):
        code, out, err = run(
            capsys, "fuzz", "--gen", "gnp", "--n", "5", "--p", "1.5",
            "--trials", "1", "--checks", "NOPE",
        )
        assert code == 2 and out == ""
        assert "unknown check id 'NOPE'" in err

    def test_negative_max_n_exits_2(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--max-n", "-1")
        assert code == 2 and out == ""
        assert "--max-n must be non-negative, got -1" in err


class TestInternalError:
    # A crash exits 4 with one line on stderr, so it never reads as exit 1,
    # "a check failed".

    def test_invariant_error_in_decompose_exits_4(self, capsys, monkeypatch):
        def broken(g, caps):
            raise InternalInvariantError("stable side is not stable")

        monkeypatch.setattr(kegraph.cli, "ke_decompose", broken)
        code, out, err = run(capsys, "decompose", "--fixture", "k3_plus_e")
        assert (code, out) == (4, "")
        assert err == "internal error: InternalInvariantError: stable side is not stable\n"

    def test_memory_error_exits_4(self, capsys, monkeypatch):
        def exhausted(g, caps):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(kegraph.cli, "parameter_report", exhausted)
        code, out, err = run(capsys, "analyze", "--fixture", "w1")
        assert (code, out, err) == (4, "", "internal error: MemoryError: cannot allocate\n")

    def test_crashing_check_makes_fuzz_exit_4(self, capsys, monkeypatch):
        def crash(g, caps):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setitem(kegraph.harness.checks._REGISTRY, "C1", (crash, ()))
        code, out, err = run(capsys, *TestFuzzCommand.ARGS)
        assert (code, out) == (4, "")
        assert err == "internal error: ZeroDivisionError: division by zero\n"


class TestFixturesCommand:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        assert "k3_plus_e" in out and "fig7_g0" in out

    def test_emit_round_trip(self, capsys):
        from kegraph import parse_edge_list
        from kegraph.harness import fixtures as fixture_table

        code, out, _ = run(capsys, "fixtures", "--fixture", "fig7_g0")
        assert code == 0
        assert "labels:" in out and "5=b1" in out
        assert parse_edge_list(out) == fixture_table()["fig7_g0"].graph

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "fixtures", "--fixture", "petersen")
        assert code == 2 and "unknown fixture" in err


class TestChecksCommand:
    def test_lists_catalog(self, capsys):
        code, out, _ = run(capsys, "checks")
        assert code == 0
        assert "T1i:" in out and "P7-unguarded:" in out


class TestClosedStdout:
    def test_reader_closing_early_exits_1_quietly(self):
        # `kegraph verify ... | head -c 100`. The output (about 370 kB) is
        # larger than a pipe holds, so the writer is still writing when the
        # reader closes, whatever the scheduling.
        env = dict(os.environ, PYTHONPATH=str(Path(kegraph.__file__).parents[1]))
        argv = ["verify", "--fixture", "w1", "--checks", ",".join(["NC"] * 4000)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "kegraph.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err
