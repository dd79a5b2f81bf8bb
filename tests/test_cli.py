"""Command-line surface: outputs and the 0/1/2 exit-status contract."""

import ast
import concurrent.futures
import itertools
import json
import re
import shlex
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from edgemagic import emit_graph6, generate_mops, named_family, parse_graph6, verify_labeling
import edgemagic.census as census_mod
from edgemagic.cli import build_parser, main
from edgemagic.solver import witness_from_dict

from conftest import corrupt_solver_witnesses

K2_RECORD = "A_"
MOP4_RECORD = emit_graph6(generate_mops(4)[0])
C3_RECORD = emit_graph6(named_family("cycle", 3))
C4_RECORD = emit_graph6(named_family("cycle", 4))


class TestSolve:
    def test_witness_found(self, capsys):
        assert main(["solve", K2_RECORD, "--k", "0"]) == 0
        out = capsys.readouterr().out.strip()
        witness, p = witness_from_dict(json.loads(out))
        assert p == 2 and verify_labeling(parse_graph6(K2_RECORD), witness.labeling).valid

    def test_mop4_at_two(self, capsys):
        assert main(["solve", MOP4_RECORD, "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 4 and payload["k"] == 2

    def test_no_witness(self, capsys):
        assert main(["solve", C3_RECORD, "--k", "1"]) == 1
        assert capsys.readouterr().out.strip() == "none"

    def test_malformed_record(self, capsys):
        assert main(["solve", "garbage(", "--k", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_k(self, capsys):
        assert main(["solve", K2_RECORD, "--k", "-3"]) == 2

    # The solver's order-4 MOP witness at k = 2 with one label raised past
    # the interval, or with its claimed c moved off the vertex sums.
    @pytest.mark.parametrize("edit", ["label", "c"])
    def test_unverified_witness_not_printed(self, capsys, monkeypatch, edit):
        corrupt_solver_witnesses(monkeypatch, edit)
        assert main(["solve", MOP4_RECORD, "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: solver witness for k=2")


class TestClassify:
    def test_stream(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_text(f"{MOP4_RECORD}\n{K2_RECORD}\n{C4_RECORD}\n")
        assert main(["classify", str(source)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{MOP4_RECORD}\t2", f"{K2_RECORD}\t0;1", f"{C4_RECORD}\t-"]

    def test_bad_record_exit_code(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_text(f"oops(\n{K2_RECORD}\n")
        assert main(["classify", str(source)]) == 2
        captured = capsys.readouterr()
        assert "line 1" in captured.err
        assert f"{K2_RECORD}\t0;1" in captured.out  # processing continued

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{K2_RECORD}\n"))
        assert main(["classify"]) == 0
        assert capsys.readouterr().out == f"{K2_RECORD}\t0;1\n"

    def test_non_utf8_byte_is_a_bad_record(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_bytes(b"C^\n\xff\nA_\n")
        assert main(["classify", str(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == f"C^\t2\n{K2_RECORD}\t0;1\n"
        assert captured.err.startswith("line 2: ")

    def test_stdin_read_as_utf8_in_any_locale(self, capsys, monkeypatch):
        import io
        stdin = io.TextIOWrapper(io.BytesIO(b"C^\n\xff\nA_\n"), encoding="latin-1")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["classify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == f"C^\t2\n{K2_RECORD}\t0;1\n"
        assert captured.err == "line 2: character '\\udcff' out of graph6 range 63..126\n"

    def test_unverified_member_not_printed(self, tmp_path, capsys, monkeypatch):
        # The order-4 MOP's k = 2 witness with one label raised past the interval.
        corrupt_solver_witnesses(monkeypatch)
        source = tmp_path / "graphs.g6"
        source.write_text(f"{MOP4_RECORD}\n")
        assert main(["classify", str(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: solver witness for k=2")


class TestGenerate:
    def test_mop(self, capsys):
        assert main(["generate", "mop", "--p", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert parse_graph6(lines[0]).q == 5

    def test_sparse(self, capsys):
        assert main(["generate", "sparse", "--p", "4", "--h", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_sparse_connected_only(self, capsys):
        assert main(["generate", "sparse", "--p", "4", "--h", "1", "--connected-only"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_family(self, capsys):
        assert main(["generate", "family", "path", "3"]) == 0
        record = capsys.readouterr().out.strip()
        assert parse_graph6(record).edges == ((0, 1), (1, 2))

    def test_family_bad_size(self, capsys):
        assert main(["generate", "family", "cycle", "2"]) == 2

    def test_cap_respects_environment(self, tmp_path, capsys, monkeypatch):
        # The named order is the cap of generate mop; census keeps the vertex cap.
        monkeypatch.setenv("EDGEMAGIC_P_MAX", "4")
        assert main(["generate", "mop", "--p", "5"]) == 0
        record = capsys.readouterr().out.strip()
        assert parse_graph6(record).p == 5
        source = tmp_path / "mop5.g6"
        source.write_text(record + "\n")
        assert main(["census", str(source)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [f"{record},5,7,skipped"]

    def test_mop_order_past_default_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("EDGEMAGIC_P_MAX", raising=False)
        assert main(["generate", "mop", "--p", "11"]) == 0
        records = capsys.readouterr().out.splitlines()
        assert records == [emit_graph6(g) for g in generate_mops(11, p_max=11)]

    def test_invalid_environment_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("EDGEMAGIC_P_MAX", "0")
        assert main(["generate", "mop", "--p", "4"]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("EDGEMAGIC_Q_ENUM", "abc"),
                                             ("EDGEMAGIC_Q_BRUTE", "0")])
    def test_unused_environment_variables_ignored(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        assert main(["solve", K2_RECORD, "--k", "0"]) == 0
        assert main(["generate", "mop", "--p", "4"]) == 0


class TestCensus:
    def test_csv_to_stdout(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_text(f"{MOP4_RECORD}\n")
        assert main(["census", str(source)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph6,p,q,spectrum\n")
        assert ",4,5,2\n" in out

    def test_k_list_mode_and_outfile(self, tmp_path):
        source = tmp_path / "graphs.g6"
        source.write_text(f"{MOP4_RECORD}\n")
        out = tmp_path / "report.csv"
        assert main(["census", str(source), "--k", "3,4", "--out", str(out)]) == 0
        body = out.read_text().splitlines()
        assert body[0] == "graph6,p,q,spectrum"
        assert body[1].endswith(",4,5,")  # neither 3 nor 4 (=0 mod 4) is magic

    def test_jsonl_format_with_store(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_text(f"{MOP4_RECORD}\n{K2_RECORD}\n")
        store = tmp_path / "store.jsonl"
        assert main(["census", str(source), "--format", "jsonl", "--store", str(store)]) == 0
        first = capsys.readouterr().out
        assert store.exists()
        assert main(["census", str(source), "--format", "jsonl", "--store", str(store)]) == 0
        assert capsys.readouterr().out == first

    def test_bad_records_reported(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_text(f"junk(\n{K2_RECORD}\n")
        assert main(["census", str(source)]) == 0
        captured = capsys.readouterr()
        assert "line 1" in captured.err
        assert "A_,2,1,0;1" in captured.out

    def test_missing_source_file(self, capsys):
        assert main(["census", "/nonexistent/path.g6"]) == 2

    def test_non_utf8_byte_is_a_bad_record(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_bytes(b"C^\n\xff\nA_\n")
        assert main(["census", str(source)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "graph6,p,q,spectrum\nA_,2,1,0;1\nC},4,5,2\n"
        assert captured.err.startswith("line 2: ")

    def solver_fault(self, tmp_path, capsys, monkeypatch, jobs):
        corrupt_solver_witnesses(monkeypatch)
        source = tmp_path / "graphs.g6"
        source.write_text(f"{MOP4_RECORD}\n")
        store = tmp_path / "store.jsonl"
        args = ["census", str(source), "--store", str(store), "--jobs", str(jobs)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: solver witness for k=2, c=1 on {MOP4_RECORD}: ")
        assert not store.exists()

    def test_solver_fault_exits_2(self, tmp_path, capsys, monkeypatch):
        self.solver_fault(tmp_path, capsys, monkeypatch, jobs=1)

    def test_pooled_solver_fault_exits_2(self, tmp_path, capsys, monkeypatch):
        # Threads stand in for worker processes so that they see the fault.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
        self.solver_fault(tmp_path, capsys, monkeypatch, jobs=2)

    def test_unwritable_destination(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_text(f"{K2_RECORD}\n")
        assert main(["census", str(source), "--out", "/nonexistent/dir/report.csv"]) == 2

    def test_stdin_source_with_mode_and_jobs(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{MOP4_RECORD}\n"))
        assert main(["census", "-", "--mode", "k-list", "--k", "2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].endswith(",4,5,2")

    def test_k_list_mode_requires_k(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_text(f"{K2_RECORD}\n")
        assert main(["census", str(source), "--mode", "k-list"]) == 2

    def test_spectrum_mode_rejects_k(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_text(f"{K2_RECORD}\n")
        assert main(["census", str(source), "--mode", "spectrum", "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert "--k" in captured.err and captured.out == ""

    @pytest.mark.parametrize("value", ["2,,3", "x"])
    def test_non_integer_k_named(self, tmp_path, capsys, value):
        source = tmp_path / "graphs.g6"
        source.write_text(f"{K2_RECORD}\n")
        assert main(["census", str(source), "--mode", "k-list", "--k", value]) == 2
        captured = capsys.readouterr()
        assert "--k" in captured.err and repr(value) in captured.err
        assert captured.out == ""

    def test_non_integer_environment_jobs_named(self, tmp_path, capsys, monkeypatch):
        source = tmp_path / "graphs.g6"
        source.write_text(f"{K2_RECORD}\n")
        monkeypatch.setenv("EDGEMAGIC_JOBS", "abc")
        assert main(["census", str(source)]) == 2
        captured = capsys.readouterr()
        assert "EDGEMAGIC_JOBS" in captured.err and "'abc'" in captured.err
        assert captured.out == ""

    def test_nonpositive_jobs_rejected(self, tmp_path, capsys):
        source = tmp_path / "graphs.g6"
        source.write_text(f"{K2_RECORD}\n")
        assert main(["census", str(source), "--jobs", "-3"]) == 2
        captured = capsys.readouterr()
        assert "jobs must be >= 1" in captured.err and captured.out == ""

    def test_unknown_environment_format_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        source = tmp_path / "graphs.g6"
        source.write_text("".join(f"{emit_graph6(g)}\n" for g in generate_mops(7)))
        store = tmp_path / "store.jsonl"
        monkeypatch.setenv("EDGEMAGIC_FORMAT", "xml")
        assert main(["census", str(source), "--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert "unknown report format 'xml'" in captured.err and captured.out == ""
        assert not store.exists()


class TestConjecture:
    def test_order_five_holds(self, capsys):
        assert main(["conjecture", "5"]) == 0
        assert capsys.readouterr().out.startswith("HOLDS")

    def test_order_seven_holds(self, capsys):
        assert main(["conjecture", "7"]) == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out and "4" in out

    def test_not_prime(self, capsys):
        assert main(["conjecture", "6"]) == 2
        assert "prime" in capsys.readouterr().err

    def test_zero_jobs_rejected(self, capsys):
        assert main(["conjecture", "7", "--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_counterexample_fails(self, capsys, monkeypatch):
        # One order-7 class made to lose k = 2 is printed with its spectrum.
        target = emit_graph6(generate_mops(7)[2])
        real = census_mod.classify_detailed

        def dropping_two(g, ks=None):
            outcomes = real(g, ks)
            if emit_graph6(g) == target:
                outcomes[2] = "search-exhausted"
            return outcomes

        monkeypatch.setattr(census_mod, "classify_detailed", dropping_two)
        assert main(["conjecture", "7"]) == 1
        assert capsys.readouterr().out == "FAILS: 1 of 4 graphs deviate\n  FzhSO\t-\n"

    def test_cap_lifted_to_order(self, capsys, monkeypatch):
        monkeypatch.setenv("EDGEMAGIC_P_MAX", "5")
        assert main(["conjecture", "7"]) == 0
        assert capsys.readouterr().out.startswith("HOLDS: all 4 ")


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(section: str = "Command line", language: str = "sh") -> str:
    """The first ``language`` code block of a README section."""
    text = README.read_text()
    return text.split(f"## {section}", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_commands():
    """Each ``edgemagic ...`` command of README's "Command line" code block.

    Pipelines are split at unquoted pipes, and ``[...]`` optional parts dropped.
    """
    commands = []
    for line in readme_block().splitlines():
        lexer = shlex.shlex(line, posix=True, punctuation_chars="|")
        lexer.whitespace_split = True
        words = [w for w in lexer if not (w.startswith("[") and w.endswith("]"))]
        for is_pipe, command in itertools.groupby(words, key=lambda w: w == "|"):
            if not is_pipe:
                commands.append(list(command))
    return commands


class TestReadme:
    def test_block_found(self):
        assert len(readme_commands()) > 5

    @pytest.mark.parametrize("words", readme_commands(), ids=" ".join)
    def test_documented_command_parses(self, words):
        assert words[0] == "edgemagic"
        build_parser().parse_args(words[1:])  # exits 2 on an unknown flag

    def test_configuration_table_lists_every_variable_read(self):
        # Every EDGEMAGIC_* string literal of the package, and no other, has a table row.
        package = Path(__file__).resolve().parents[1] / "src" / "edgemagic"
        read = {
            node.value
            for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"EDGEMAGIC_[A-Z_]+", node.value)
        }
        section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `(EDGEMAGIC_[A-Z_]+)` \|", section, re.MULTILINE))
        assert read and read == documented

    def test_solve_example_prints_documented_witness(self, capsys):
        lines = readme_block().splitlines()
        documented = lines[lines.index("edgemagic solve 'C|' --k 2") + 1]
        assert documented.startswith("# {")
        assert main(["solve", "C|", "--k", "2"]) == 0
        assert capsys.readouterr().out == documented.removeprefix("# ") + "\n"

    def test_library_example_shows_documented_values(self):
        # Each commented line's value must print as its comment, "..." matching anything.
        namespace = {}
        shown = 0
        for line in readme_block("Library", "python").splitlines():
            code, _, documented = line.partition("#")
            if not code.strip():
                continue
            statement = ast.parse(code).body[0]
            if isinstance(statement, ast.Expr):
                value = eval(code, namespace)
            else:
                exec(code, namespace)
                value = namespace[statement.targets[0].id] if documented else None
            if documented:
                pattern = ".*".join(map(re.escape, documented.strip().split("...")))
                assert re.fullmatch(pattern, repr(value)), line
                shown += 1
        assert shown == 4


class TestPublicSurface:
    # Public functions that only tests call, each kept as a reference.
    TEST_REFERENCES = {
        "relabel": "the tests build isomorphic copies of a graph with it",
    }

    def test_every_public_function_has_a_caller(self):
        # A module-level public function of the package must be referenced by
        # package code outside its own def (re-exports do not count), by the
        # benchmark, or by README; otherwise it restates another name.
        root = Path(__file__).resolve().parents[1]
        package = root / "src" / "edgemagic"
        defined = {}  # name -> (path, line) of its def
        sites = {}  # name -> {(path, line) of each top-level statement using it}
        for path in [*package.glob("*.py"), *(root / "bench").glob("*.py")]:
            for top in ast.parse(path.read_text()).body:
                if (path.parent == package and isinstance(top, ast.FunctionDef)
                        and not top.name.startswith("_")):
                    defined[top.name] = (path, top.lineno)
                for node in ast.walk(top):
                    if isinstance(node, (ast.Name, ast.Attribute)):
                        name = node.id if isinstance(node, ast.Name) else node.attr
                        sites.setdefault(name, set()).add((path, top.lineno))
        in_readme = set(re.findall(r"\w+", README.read_text()))
        unused = {name for name, site in defined.items()
                  if not sites.get(name, set()) - {site} and name not in in_readme}
        assert sorted(unused - set(self.TEST_REFERENCES)) == []

    def test_one_entry_to_the_canonical_search(self):
        # The benchmark counts canonical searches by wrapping canonical_graph,
        # so it must be the search's only caller, and only graphs may build
        # canonical_form on top of it (__init__ re-exports the name).
        package = Path(__file__).resolve().parents[1] / "src" / "edgemagic"
        sites = {"_canonical_bits": set(), "canonical_form": set()}
        for path in package.glob("*.py"):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    name = (node.id if isinstance(node, ast.Name) else
                            node.attr if isinstance(node, ast.Attribute) else
                            node.name if isinstance(node, ast.alias) else None)
                    if name in sites:
                        sites[name].add((path.stem, getattr(top, "name", None)))
        assert sites["_canonical_bits"] == {("graphs", "canonical_graph")}
        assert {module for module, _ in sites["canonical_form"]} <= {"graphs", "__init__"}

    @staticmethod
    def package_uses(*names):
        """{name: {(module, top-level def) of each use of the name in the
        package}} and {top-level def name: its ast node}.  Imports and
        re-exports are not uses."""
        package = Path(__file__).resolve().parents[1] / "src" / "edgemagic"
        sites = {name: set() for name in names}
        defs = {}
        for path in package.glob("*.py"):
            for top in ast.parse(path.read_text()).body:
                defs[getattr(top, "name", None)] = top
                for node in ast.walk(top):
                    name = (node.id if isinstance(node, ast.Name) else
                            node.attr if isinstance(node, ast.Attribute) else None)
                    if name in sites:
                        sites[name].add((path.stem, getattr(top, "name", None)))
        return sites, defs

    def test_one_check_per_witness(self):
        # The solver checks each witness it builds, and the census each outcome
        # it reads from its store; no other code checks one, so none is checked
        # twice.
        sites, _ = self.package_uses("outcome_fault", "verify_labeling")
        assert sites["outcome_fault"] == {("solver", "_decide"), ("census", "_stored_outcomes")}
        assert sites["verify_labeling"] == {("solver", "outcome_fault")}

    def test_one_search_mode(self):
        # The engine needs one solution per (k, c) search, so the search has
        # no all-solutions mode and one caller; the tests' oracles enumerate.
        sites, defs = self.package_uses("_magic_residue_solutions")
        assert sites["_magic_residue_solutions"] == {("solver", "_first_solution")}
        search = defs["_magic_residue_solutions"].args
        assert "limit" not in [a.arg for a in (*search.args, *search.kwonlyargs)]
