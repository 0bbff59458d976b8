import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict, replace

import pytest

import knapdep
from knapdep import cli as cli_module
from knapdep.bench import BenchConfig, TuneSpec
from knapdep.cli import main
from knapdep.core import KnapsackSpec, dumps_instance, loads_instance
from knapdep.engine import run as engine_run
from knapdep.instances import FAMILIES, GenSpec, generate
from knapdep.jsontext import JSON_BATCH
from knapdep.oracle import bruteforce_accepts
from knapdep.threshold import for_instance


def one_item_instance():
    return {
        "horizon": 10,
        "knapsacks": [
            {"capacity": 10.0, "theta": 4.0, "duration_lo": 1,
             "duration_hi": 4, "size_cap": 10.0}
        ],
        "items": [
            {"id": 0, "arrival": 1, "options": [
                {"eligible": True, "size": 2.5, "value": 7.0,
                 "start": 1, "duration": 2}
            ]}
        ],
    }


def tenths_instance():
    """Five items on one slot of capacity 1.3; the optimum 9.5 is 0.9 + 0.4."""
    pairs = [(1.1, 6.0), (0.6, 4.0), (0.2, 0.5), (0.9, 7.0), (0.4, 2.5)]
    return {
        "horizon": 1,
        "knapsacks": [
            {"capacity": 1.3, "theta": 8.0, "duration_lo": 1,
             "duration_hi": 1, "size_cap": 1.3}
        ],
        "items": [
            {"id": i, "arrival": 1, "options": [
                {"eligible": True, "size": size, "value": value,
                 "start": 1, "duration": 1}
            ]}
            for i, (size, value) in enumerate(pairs)
        ],
    }


def cli(*argv):
    return main(list(argv))


def run_pipe(argv, stdin_text=""):
    return subprocess.run(
        [sys.executable, "-m", "knapdep.cli", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert cli("gen", "--n", "6", "--k", "2", "--seed", "3", "--out", str(path)) == 0
    capsys.readouterr()
    return path


class TestGen:
    def test_empty_instance(self, capsys):
        assert cli("gen", "--family", "uniform", "--n", "0", "--seed", "1") == 0
        out = capsys.readouterr().out
        inst = loads_instance(out)
        assert inst.num_items == 0

    def test_deterministic_bytes(self, capsys):
        cli("gen", "--n", "5", "--seed", "1")
        first = capsys.readouterr().out
        cli("gen", "--n", "5", "--seed", "1")
        assert capsys.readouterr().out == first

    def test_staircase_prefix_files(self, tmp_path, capsys):
        base = tmp_path / "stair"
        assert cli(
            "gen", "--family", "staircase", "--theta", "4", "--alpha", "1",
            "--capacity", "1", "--eps", "0.5", "--dlo", "2", "--t", "10",
            "--levels", "3", "--out", str(base),
        ) == 0
        capsys.readouterr()
        files = sorted(tmp_path.glob("stair_prefix*.json"))
        assert len(files) == 3
        sizes = [loads_instance(p.read_text()).num_items for p in files]
        assert sizes == [2, 4, 6]

    def test_staircase_single_level_to_stdout(self, capsys):
        assert cli(
            "gen", "--family", "staircase", "--theta", "4", "--alpha", "1",
            "--capacity", "1", "--dlo", "2", "--t", "10", "--levels", "2",
            "--level", "1",
        ) == 0
        inst = loads_instance(capsys.readouterr().out)
        assert inst.num_items == 1

    def test_unknown_flag_exits_2(self):
        result = run_pipe(["gen", "--bogus"])
        assert result.returncode == 2
        assert "usage" in result.stderr

    def test_family_choices_are_the_generator_families(self, capsys):
        (commands,) = [a for a in cli_module._build_parser()._actions if a.dest == "command"]
        (family,) = [a for a in commands.choices["gen"]._actions if a.dest == "family"]
        assert family.choices is FAMILIES
        with pytest.raises(SystemExit) as info:
            cli("gen", "--family", "nope")
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = captured.err.splitlines()[-1]
        assert line.startswith("knapdep gen: error: argument --family: invalid choice: 'nope' ")
        assert all(name in line for name in FAMILIES)

    @pytest.mark.parametrize(
        "flags",
        [("--level", "2"), ("--levels", "4"), ("--family", "burst", "--level", "1"),
         ("--family", "burst", "--levels", "3", "--level", "1")],
    )
    def test_staircase_flags_refused_for_other_families(self, capsys, flags):
        # Uniform and burst draw one instance; a level flag would be ignored.
        with pytest.raises(SystemExit) as info:
            cli("gen", "--n", "3", *flags)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --level and --levels apply only to --family staircase\n"
        assert captured.out == ""


class TestValidate:
    def test_valid_instance(self, instance_file, capsys):
        assert cli("validate", "--input", str(instance_file), "--strict") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    def test_strict_violation_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = {
            "horizon": 10,
            "knapsacks": [
                {"capacity": 10.0, "theta": 4.0, "duration_lo": 1,
                 "duration_hi": 4, "size_cap": 10.0}
            ],
            "items": [
                {"id": 0, "arrival": 1, "options": [
                    {"eligible": True, "size": 2.0, "value": 1.0,
                     "start": 1, "duration": 2}  # density 0.25
                ]}
            ],
        }
        path.write_text(json.dumps(data))
        assert cli("validate", "--input", str(path)) == 0  # lax: warning only
        capsys.readouterr()
        assert cli("validate", "--input", str(path), "--strict") == 1

    def test_gamma_bounds_sizes(self, tmp_path, capsys):
        # Capacities 10 and 20 at gamma 1.5 bound sizes by about 4.62 and
        # 9.24: size 2.5 passes both; size 6.0 exceeds the first.
        doc = one_item_instance()
        doc["knapsacks"].append(dict(doc["knapsacks"][0], capacity=20.0, size_cap=20.0))
        doc["items"][0]["options"].append(dict(doc["items"][0]["options"][0]))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert cli("validate", "--input", str(path), "--gamma", "1.5") == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert [o["size_bound"] for o in report["knapsacks"]] == [
            10.0 * math.log(2.0) / 1.5, 20.0 * math.log(2.0) / 1.5,
        ]
        assert report["ok"] and report["warnings"] == [] and err == ""

        option = doc["items"][0]["options"][0]
        option.update(size=6.0, value=24.0)  # density 2
        path.write_text(json.dumps(doc))
        finding = (
            "knapsack 0: max size 6.0 exceeds capacity*ln2/gamma = "
            f"{10.0 * math.log(2.0) / 1.5}"
        )
        assert cli("validate", "--input", str(path), "--gamma", "1.5") == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["warnings"] == [finding]
        assert err == f"warning: {finding}\n"
        assert cli("validate", "--input", str(path), "--gamma", "1.5", "--strict") == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["errors"] == [finding]
        assert err == f"error: {finding}\n"

    def test_malformed_gamma_is_usage_error(self, instance_file, capsys):
        for command in ("validate", "run"):
            with pytest.raises(SystemExit) as info:
                cli(command, "--input", str(instance_file), "--gamma", "abc")
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert "error: --gamma must be a number or 'auto', got 'abc'" in err

    @pytest.mark.parametrize("raw", ["0", "-1", "nan", "inf"])
    def test_nonpositive_or_non_finite_gamma_exits_1(self, instance_file, capsys, raw):
        assert cli("validate", "--input", str(instance_file), "--gamma", raw) == 1
        assert "error: gamma must be a finite number > 0" in capsys.readouterr().err

    def test_nan_size_rejected_under_strict(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(one_item_instance()).replace("2.5", "NaN"))
        assert cli("validate", "--input", str(path), "--strict") == 1
        err = capsys.readouterr().err
        assert "item at position 0, option 0: field 'size' must be a finite number" in err

    def test_unreadable_file_exits_1(self, capsys):
        assert cli("validate", "--input", "/nonexistent/x.json") == 1
        assert "/nonexistent/x.json" in capsys.readouterr().err


class TestRunOpt:
    def test_run_single_item_profit(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        data = {
            "horizon": 10,
            "knapsacks": [
                {"capacity": 10.0, "theta": 4.0, "duration_lo": 1,
                 "duration_hi": 4, "size_cap": 10.0}
            ],
            "items": [
                {"id": 0, "arrival": 1, "options": [
                    {"eligible": True, "size": 1.0, "value": 7.0,
                     "start": 1, "duration": 2}
                ]}
            ],
        }
        path.write_text(json.dumps(data))
        assert cli("run", "--input", str(path)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["profit"] == 7.0

    def test_run_nan_gamma_exits_1(self, instance_file, capsys):
        assert cli("run", "--input", str(instance_file), "--gamma", "nan") == 1
        assert "error: gamma must be a finite number > 0, got nan" in capsys.readouterr().err

    def test_run_overflowing_gamma_declines(self, tmp_path, capsys):
        # At gamma 1e5 the charge over any occupied slot overflows exp.
        data = one_item_instance()
        data["items"].append(
            {"id": 1, "arrival": 1, "options": [
                {"eligible": True, "size": 1.0, "value": 9.0, "start": 2, "duration": 2}
            ]}
        )
        path = tmp_path / "two.json"
        path.write_text(json.dumps(data))
        assert cli("run", "--input", str(path), "--gamma", "1e5") == 0
        out = capsys.readouterr().out
        assert '"phi": Infinity' in out
        records = json.loads(out)["decisions"]
        assert [r["admitted"] for r in records] == [True, False]
        assert records[1]["audit"][0]["phi"] == math.inf

    def test_opt_methods_agree(self, instance_file, capsys):
        assert cli("opt", "--input", str(instance_file)) == 0
        exact = json.loads(capsys.readouterr().out)
        assert cli("opt", "--input", str(instance_file), "--method", "bruteforce") == 0
        brute = json.loads(capsys.readouterr().out)
        assert exact["objective"] == brute["objective"]
        assert exact["proof"] == "exact"

    def test_opt_tenths_sized_optimum(self, tmp_path, capsys):
        # Sizes in tenths are not exact in binary: loads must be restored
        # exactly on backtrack, or 0.9 + 0.4 no longer fits in 1.3.
        path = tmp_path / "tenths.json"
        path.write_text(json.dumps(tenths_instance()))
        for method in ("exact", "bruteforce"):
            assert cli("opt", "--input", str(path), "--method", method) == 0
            solution = json.loads(capsys.readouterr().out)
            assert solution["proof"] == "exact"
            assert solution["objective"] == 9.5

    def test_bruteforce_refuses_many_items_without_knapsacks(self, tmp_path, capsys):
        # With no knapsacks (K+1)^N is 1, yet the enumerator recurses once
        # per item: 1200 items are refused by count, not walked.
        items = [{"id": i, "arrival": 1, "options": []} for i in range(1200)]
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"horizon": 1, "knapsacks": [], "items": items}))
        assert cli("opt", "--input", str(path), "--method", "bruteforce") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: instance too large for brute force: N = 1200, (max(K, 1) + 1)^N > 1e8"
        ]
        assert cli("opt", "--input", str(path)) == 0
        assert json.loads(capsys.readouterr().out)["objective"] == 0.0

    def test_pipe_gen_run_and_opt(self):
        gen = run_pipe(["gen", "--n", "5", "--seed", "2"])
        assert gen.returncode == 0
        ran = run_pipe(["run"], stdin_text=gen.stdout)
        assert ran.returncode == 0
        profit = json.loads(ran.stdout)["profit"]
        opt = run_pipe(["opt"], stdin_text=gen.stdout)
        assert opt.returncode == 0
        objective = json.loads(opt.stdout)["objective"]
        assert profit <= objective + 1e-9


def two_knapsack_one_used():
    """Knapsack 1 is never eligible, so it covers no slot: ``"1": {}``."""
    data = one_item_instance()
    data["knapsacks"] *= 2
    option = data["items"][0]["options"][0]
    data["items"][0]["options"] = [option, dict(option, eligible=False)]
    return data


STREAM_CASES = {
    "no-knapsacks": {
        "horizon": 3, "knapsacks": [],
        "items": [{"id": 0, "arrival": 1, "options": []}],
    },
    "no-items": dict(one_item_instance(), items=[]),
    "knapsack-without-slots": two_knapsack_one_used(),
}


class TestRunStreamed:
    """``run`` writes its document in batches, as ``to_json()`` plus a newline."""

    def check_both_sinks(self, path, tmp_path, capsys):
        inst = loads_instance(path.read_text())
        result = engine_run(inst, for_instance(inst))
        expected = result.to_json() + "\n"
        assert cli("run", "--input", str(path)) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "run.json"
        assert cli("run", "--input", str(path), "--out", str(out)) == 0
        assert out.read_bytes() == expected.encode()
        return result, expected

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_edge_cases(self, case, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(STREAM_CASES[case]))
        _, text = self.check_both_sinks(path, tmp_path, capsys)
        if case == "knapsack-without-slots":
            assert '"1": {}' in text

    def test_several_batches(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        assert cli("gen", "--n", "5000", "--k", "2", "--t", "6000", "--out", str(path)) == 0
        result, text = self.check_both_sinks(path, tmp_path, capsys)
        # Decisions and each knapsack's slots both span batch seams.
        assert len(result.decisions) > 2 * JSON_BATCH
        for k in range(2):
            assert len(list(result.state.covered(k))) > JSON_BATCH
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_emit_memory_stays_below_document(self, tmp_path, monkeypatch):
        # Memory is traced from the moment the engine returns, so the peak
        # is what writing the document costs, over the input and result.
        knapsack = KnapsackSpec(capacity=10.0, theta=8.0, duration_lo=4,
                                duration_hi=16, size_cap=2.0)
        inst = generate(GenSpec("uniform", 20_000, 500_000, (knapsack,), seed=1))[0]
        path = tmp_path / "inst.json"
        path.write_text(dumps_instance(inst))
        original = cli_module.engine_run

        def run_then_trace(inst, thresholds):
            result = original(inst, thresholds)
            tracemalloc.start()
            return result

        class Discard:
            length = 0

            def write(self, text):
                self.length += len(text)
                return len(text)

            def writelines(self, parts):
                for part in parts:
                    self.write(part)

        sink = Discard()
        monkeypatch.setattr(cli_module, "engine_run", run_then_trace)
        monkeypatch.setattr(sys, "stdout", sink)
        try:
            assert cli("run", "--input", str(path)) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.length > 8_000_000
        assert peak < sink.length / 4


@pytest.fixture(scope="module")
def dense_document(tmp_path_factory):
    """A document shaped as the benchmark's stream-dense, with 3000 items."""
    knapsack = KnapsackSpec(capacity=10.0, theta=8.0, duration_lo=4,
                            duration_hi=16, size_cap=2.0)
    inst = generate(GenSpec("uniform", 3000, 2000, (knapsack,) * 4, seed=1))[0]
    path = tmp_path_factory.mktemp("dense") / "inst.json"
    path.write_text(dumps_instance(inst))
    return path


class TestStreamedInput:
    """``run`` and ``validate`` hold a batch of their input at a time, not all of it."""

    # Whole-document reading peaks at about 2.8 times the document's length
    # for either command; streamed, validate keeps almost nothing, and run
    # keeps its result.
    @pytest.mark.parametrize("command, bound", [(("validate", "--strict"), 0.5), (("run",), 2.0)])
    def test_peak_memory_below_document(self, dense_document, tmp_path, capsys, command, bound):
        import knapdep.stream  # noqa: F401  (its import is not what is measured)

        out = tmp_path / "out.json"
        tracemalloc.start()
        try:
            assert cli(*command, "--input", str(dense_document), "--out", str(out)) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        length = len(dense_document.read_text())
        assert length > 2_000_000
        assert peak < bound * length

    def test_stdin_is_held_once(self, dense_document, capsys, monkeypatch):
        # Standard input that can seek, here a string, is streamed from where
        # it stands in batches: its text is held once, and its parse never
        # whole.
        import knapdep.stream  # noqa: F401

        text = dense_document.read_text()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        tracemalloc.start()
        try:
            assert cli("validate", "--strict") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(text)

    @pytest.mark.parametrize("command", [("validate", "--strict"), ("run",)])
    def test_pipe_peaks_as_the_file(self, dense_document, tmp_path, capsys, monkeypatch,
                                    deadline, command):
        # A pipe on standard input is copied to a temporary file and
        # streamed from there: it holds no more than the file reading, and
        # writes the same bytes.
        import knapdep.stream  # noqa: F401

        out = tmp_path / "out.json"

        def peak(*argv):
            tracemalloc.start()
            try:
                assert cli(*command, *argv, "--out", str(out)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        from_file = peak("--input", str(dense_document))
        expected = out.read_bytes()
        read_end, write_end = os.pipe()
        writer = threading.Thread(target=write_all, args=(write_end, dense_document.read_bytes()),
                                  daemon=True)
        with open(read_end, encoding="utf-8", newline="\n") as stdin:
            monkeypatch.setattr(sys, "stdin", stdin)
            writer.start()
            from_pipe = peak()
        writer.join(5.0)
        assert not writer.is_alive()
        assert out.read_bytes() == expected
        assert from_pipe < 1.2 * from_file


def write_all(fd, data):
    """Write ``data`` to the file descriptor ``fd``, then close it."""
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


class TestBenchTune:
    def make_suite(self, tmp_path, capsys, n=8, count=3):
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir(exist_ok=True)
        paths = []
        for seed in range(count):
            p = suite_dir / f"s{seed}.json"
            assert cli(
                "gen", "--n", str(n), "--seed", str(seed), "--out", str(p)
            ) == 0
            paths.append(p)
        capsys.readouterr()
        return paths

    def test_bench_matches_per_instance_opt(self, tmp_path, capsys):
        paths = self.make_suite(tmp_path, capsys)
        assert cli("bench", "--input", str(tmp_path / "suite"), "--out", str(tmp_path / "rep")) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "rep.json").read_text())
        opts = {}
        for p in paths:
            assert cli("opt", "--input", str(p)) == 0
            opts[p.name] = json.loads(capsys.readouterr().out)["objective"]
        for row in report["rows"]:
            assert row["opt"] == opts[row["instance_id"]]
            assert row["opt_tag"] == "exact"
        csv_text = (tmp_path / "rep.csv").read_text()
        assert csv_text.splitlines()[0] == (
            "instance_id,n_items,alg,opt,opt_tag,ratio,infinite,error"
        )

    def test_bench_tenths_sized_suite(self, tmp_path, capsys):
        # Branch-and-bound and the brute-force cross-check agree on 9.5.
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        (suite_dir / "tenths.json").write_text(json.dumps(tenths_instance()))
        assert cli("bench", "--input", str(suite_dir)) == 0
        captured = capsys.readouterr()
        assert "mismatch" not in captured.err
        [row] = json.loads(captured.out)["rows"]
        assert (row["opt"], row["opt_tag"]) == (9.5, "exact")

    def test_bench_proves_what_enumeration_refuses(self, tmp_path, capsys):
        # (K+1)^N = 7^10 is past the enumerator's limit; branch-and-bound
        # still proves the optimum, and the row stays exact, unchecked.
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        path = suite_dir / "a.json"
        assert cli("gen", "--n", "10", "--k", "6", "--seed", "1", "--out", str(path)) == 0
        assert not bruteforce_accepts(loads_instance(path.read_text()))
        assert cli("opt", "--input", str(path)) == 0
        objective = json.loads(capsys.readouterr().out)["objective"]
        assert cli("bench", "--input", str(suite_dir)) == 0
        captured = capsys.readouterr()
        assert "error" not in captured.err
        [row] = json.loads(captured.out)["rows"]
        assert (row["opt"], row["opt_tag"], row["error"]) == (objective, "exact", None)

    def test_crosscheck_mismatch_is_an_error_row(self, tmp_path, capsys, monkeypatch):
        # An enumeration one ulp above branch-and-bound: the row is an error
        # row, and bench exits 1 with its report written.
        from knapdep import oracle

        (path,) = self.make_suite(tmp_path, capsys, count=1)
        exact = oracle.solve_exact(loads_instance(path.read_text())).objective
        off = math.nextafter(exact, math.inf)
        real = oracle.solve_bruteforce
        monkeypatch.setattr(oracle, "solve_bruteforce",
                            lambda inst: replace(real(inst), objective=off))
        out = tmp_path / "rep"
        assert cli("bench", "--input", str(tmp_path / "suite"), "--out", str(out)) == 1
        message = f"AssertionError: oracle mismatch: branch-and-bound {exact} vs enumeration {off}"
        assert capsys.readouterr().err.endswith(f"error: s0.json: {message}\n")
        [row] = json.loads((tmp_path / "rep.json").read_text())["rows"]
        assert (row["opt_tag"], row["error"]) == ("error", message)
        assert message in (tmp_path / "rep.csv").read_text()

    def test_error_row_report_is_strict_json(self, tmp_path, capsys):
        self.make_suite(tmp_path, capsys, count=1)
        config = tmp_path / "cfg.json"
        # A table threshold whose capacity is not the knapsack's: an error row.
        config.write_text(json.dumps({"threshold": {"kind": "table", "points": [[0, 0], [1, 1]]}}))
        out = tmp_path / "BASE"
        args = ("bench", "--input", str(tmp_path / "suite"), "--config", str(config))
        assert cli(*args, "--out", str(out)) == 1
        capsys.readouterr()

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((tmp_path / "BASE.json").read_text(), parse_constant=refuse)
        [row] = report["rows"]
        assert (row["opt_tag"], row["ratio"]) == ("error", None)

    def test_bench_stdout_json(self, tmp_path, capsys):
        self.make_suite(tmp_path, capsys, count=2)
        assert cli("bench", "--input", str(tmp_path / "suite")) == 0
        data = json.loads(capsys.readouterr().out)
        assert "empirical_cr" in data and len(data["rows"]) == 2

    def test_bench_reproducible_bytes(self, tmp_path, capsys):
        self.make_suite(tmp_path, capsys, count=2)
        cli("bench", "--input", str(tmp_path / "suite"), "--out", str(tmp_path / "a"))
        cli("bench", "--input", str(tmp_path / "suite"), "--out", str(tmp_path / "b"))
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bench_config_file(self, tmp_path, capsys):
        paths = self.make_suite(tmp_path, capsys, count=2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [str(p) for p in paths],
            "threshold": {"kind": "exponential", "gamma": "auto"},
            "exact_cutoff": 12,
        }))
        assert cli("bench", "--config", str(cfg)) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["exact_cutoff"] == 12

    def test_tune_outputs(self, tmp_path, capsys):
        self.make_suite(tmp_path, capsys, count=2)
        assert cli(
            "tune", "--input", str(tmp_path / "suite"), "--grid-points", "5",
            "--out", str(tmp_path / "tuned"),
        ) == 0
        data = json.loads((tmp_path / "tuned.json").read_text())
        assert data["method"] == "band-constrained-grid-search"
        for gamma, (lo, hi) in zip(data["gammas"], data["bands"]):
            assert lo <= gamma <= hi
        curve = (tmp_path / "tuned.curve.csv").read_text()
        assert curve.startswith("multiplier,mean_profit\n")

    def test_tune_one_grid_point_runs_the_defaults(self, tmp_path, capsys):
        self.make_suite(tmp_path, capsys, count=2)
        assert cli("tune", "--input", str(tmp_path / "suite"), "--grid-points", "1") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["multiplier"] == 1.0
        assert data["gammas"] == data["default_gammas"]
        assert [point["multiplier"] for point in data["curve"]] == [1.0]

    def test_missing_input_usage_error(self):
        result = run_pipe(["bench"])
        assert result.returncode == 2

    def test_flags_over_config_over_defaults(self, tmp_path, capsys):
        paths = self.make_suite(tmp_path, capsys, n=4, count=1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [str(p) for p in paths],
            "threshold": {"kind": "exponential", "gamma": 0.5},
            "exact_cutoff": 12,
            "node_budget": None,
        }))
        assert cli("bench", "--config", str(cfg)) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["threshold"] == {"kind": "exponential", "gamma": 0.5}
        assert (config["exact_cutoff"], config["node_budget"]) == (12, None)
        assert (config["crosscheck_cutoff"], config["jobs"]) == (10, 1)

        assert cli(
            "bench", "--config", str(cfg), "--gamma", "auto", "--exact-cutoff", "5"
        ) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["threshold"] == {"kind": "exponential", "gamma": "auto"}
        assert config["exact_cutoff"] == 5

    @pytest.mark.parametrize(
        "command, body, message",
        [
            ("bench", {"exact_cutof": 3}, "unknown keys ['exact_cutof']"),
            ("tune", {"tuner": {"grid": 3}}, "tuner: unknown keys ['grid']"),
            ("tune", {"tuner": [3]}, "tuner: expected an object"),
            ("bench", [1], "expected an object"),
        ],
    )
    def test_bad_config_exits_1(self, tmp_path, capsys, command, body, message):
        self.make_suite(tmp_path, capsys, n=4, count=1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        argv = (command, "--input", str(tmp_path / "suite"), "--config", str(cfg))
        assert cli(*argv) == 1
        err = capsys.readouterr().err
        assert f"error: config {cfg}" in err and message in err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("bench", b"{\n",
             "Expecting property name enclosed in double quotes: line 2 column 1 (char 2)"),
            ("tune", b"[" * 200_000, ""),  # RecursionError, worded by the Python version
            ("bench", b"\xff", ""),  # the decoder's message depends on the locale
        ],
        ids=["not-json", "too-deep", "not-utf8"],
    )
    def test_config_not_json_exits_1(self, tmp_path, capsys, command, text, message):
        self.make_suite(tmp_path, capsys, n=4, count=1)
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        argv = (command, "--input", str(tmp_path / "suite"), "--config", str(cfg))
        assert cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config {cfg}: invalid JSON: {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_config_keys_are_the_settings_fields(self, tmp_path, capsys):
        # Every accepted key, each at its default: the settings' fields, the
        # suite, and the tuner's fields under "tuner".
        paths = self.make_suite(tmp_path, capsys, n=4, count=1)
        body = {**asdict(BenchConfig()), "instances": [str(p) for p in paths],
                "tuner": asdict(TuneSpec())}
        assert set(body) == {"threshold", "exact_cutoff", "crosscheck_cutoff",
                             "node_budget", "jobs", "instances", "tuner"}
        assert set(body["tuner"]) == {"delta", "grid_points"}
        config_keys, tuner_keys = cli_module._config_keys()
        assert config_keys == set(body)
        assert tuner_keys == set(body["tuner"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        assert cli("bench", "--config", str(cfg)) == 0
        assert cli("tune", "--config", str(cfg)) == 0

    @pytest.mark.parametrize(
        "command, body, flags, message",
        [
            ("bench", {"threshold": 5}, (), "threshold must be an object, got 5"),
            ("bench", {"instances": 5}, (),
             "config {cfg}: 'instances' must be an array of paths, got 5"),
            ("bench", {"jobs": "2"}, (), "jobs must be an integer >= 1, got '2'"),
            ("tune", {"tuner": {"delta": "x"}}, (),
             "delta must be a number in (0, 1), got 'x'"),
            ("tune", {"tuner": {"grid_points": 0}}, (),
             "grid_points must be an integer >= 1, got 0"),
            ("bench", {"exact_cutoff": "x"}, (),
             "exact_cutoff must be an integer >= 0, got 'x'"),
            ("bench", {"crosscheck_cutoff": None}, (),
             "crosscheck_cutoff must be an integer >= 0, got None"),
            ("bench", {"node_budget": "x"}, (),
             "node_budget must be an integer >= 0 or null, got 'x'"),
            ("bench", {}, ("--exact-cutoff", "-1"),
             "exact_cutoff must be an integer >= 0, got -1"),
            ("bench", {}, ("--node-budget", "-5"),
             "node_budget must be an integer >= 0 or null, got -5"),
            ("bench", {}, ("--jobs", "0"), "jobs must be an integer >= 1, got 0"),
            ("tune", {}, ("--grid-points", str(10**400)),  # its grid step would overflow a float
             f"grid_points must be at most 2**53, got {10**400}"),
            ("tune", {"tuner": {"grid_points": 10**400}}, (),
             f"grid_points must be at most 2**53, got {10**400}"),
        ],
    )
    def test_bad_config_value_exits_1(
        self, tmp_path, capsys, deadline, command, body, flags, message
    ):
        self.make_suite(tmp_path, capsys, n=4, count=1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        argv = (command, "--input", str(tmp_path / "suite"), "--config", str(cfg), *flags)
        assert cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(cfg=cfg)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, body, message",
        [
            ("bench", {"jobs": "2"}, "jobs must be an integer >= 1, got '2'"),
            ("tune", {"tuner": {"delta": 5}}, "delta must be a number in (0, 1), got 5"),
        ],
    )
    def test_config_checked_before_suite_read(self, tmp_path, capsys, command, body, message):
        # The second file is malformed; the config value is still the one reported.
        (good,) = self.make_suite(tmp_path, capsys, n=4, count=1)
        bad = tmp_path / "bad.json"
        data = one_item_instance()
        data["horizon"] = 0
        bad.write_text(json.dumps(data))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        assert cli(command, "--input", str(good), str(bad), "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "content, message",
        [
            (json.dumps({**one_item_instance(), "horizon": 0}).encode(),
             "horizon must be an integer >= 1, got 0"),
            (b"{", "invalid JSON: Expecting property name enclosed in double quotes"),
            (b"\xff", ""),  # the decoder's message depends on the locale
        ],
        ids=["malformed", "not-json", "not-utf8"],
    )
    @pytest.mark.parametrize("command", ["bench", "tune"])
    def test_malformed_suite_file_is_named(self, tmp_path, capsys, command, content, message):
        # One bad file among three; it is named, and nothing is run.
        self.make_suite(tmp_path, capsys, n=4, count=2)
        bad = tmp_path / "suite" / "b.json"
        bad.write_bytes(content)
        assert cli(command, "--input", str(tmp_path / "suite")) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: {message}")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize(
        "body, flags, bad",
        [
            ({}, ("--gamma", "nan"), "nan"),
            ({}, ("--gamma", "inf"), "inf"),
            ({"threshold": {"gamma": math.nan}}, (), "nan"),
            ({"threshold": {"kind": "exponential", "gamma": -math.inf}}, (), "-inf"),
        ],
        ids=["flag-nan", "flag-inf", "config-nan", "config-inf"],
    )
    def test_non_finite_threshold_refused_before_suite_read(
        self, tmp_path, capsys, body, flags, bad
    ):
        # One error line, no report, and the malformed suite file is not read.
        (good,) = self.make_suite(tmp_path, capsys, n=4, count=1)
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))  # NaN and Infinity, which json.loads accepts
        out = tmp_path / "rep"
        argv = ("bench", "--input", str(good), str(broken), "--config", str(cfg),
                "--out", str(out), *flags)
        assert cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: threshold must hold only finite numbers, got {bad}\n"
        assert captured.out == ""
        assert not (tmp_path / "rep.json").exists() and not (tmp_path / "rep.csv").exists()

    @pytest.mark.parametrize(
        "body, flags, bad",
        [
            ({}, ("--gamma", "-1"), "-1.0"),
            ({}, ("--gamma", "0"), "0.0"),
            ({"threshold": {"gamma": -1}}, (), "-1"),
            ({"threshold": {"kind": "exponential", "gamma": 0.0}}, (), "0.0"),
            ({"threshold": {"gamma": 10**400}}, (), str(10**400)),  # float() overflows
        ],
        ids=["flag-negative", "flag-zero", "config-negative", "config-zero", "config-huge"],
    )
    def test_gamma_outside_domain_refused_before_suite_read(
        self, tmp_path, capsys, body, flags, bad
    ):
        # One error line, no report, and the malformed suite file is not read.
        (good,) = self.make_suite(tmp_path, capsys, n=4, count=1)
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        out = tmp_path / "rep"
        argv = ("bench", "--input", str(good), str(broken), "--config", str(cfg),
                "--out", str(out), *flags)
        assert cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: gamma must be a finite number > 0, got {bad}\n"
        assert captured.out == ""
        assert not (tmp_path / "rep.json").exists() and not (tmp_path / "rep.csv").exists()

    @pytest.mark.parametrize("command", ["bench", "tune"])
    def test_refuses_empty_suite(self, tmp_path, capsys, command):
        # Directories without *.json files: no result from no instances, exit 1.
        empty, other = tmp_path / "empty", tmp_path / "other"
        empty.mkdir()
        other.mkdir()
        (other / "notes.txt").write_text("not an instance")
        out = tmp_path / "rep"
        assert cli(command, "--input", str(empty), str(other), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: no *.json instance files in {empty}, {other}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty", "other"]

    def test_unknown_threshold_key_gives_error_rows(self, tmp_path, capsys):
        self.make_suite(tmp_path, capsys, n=4, count=2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": {"kind": "exponential", "gama": 0.5}}))
        assert cli("bench", "--input", str(tmp_path / "suite"), "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        rows = json.loads(captured.out)["rows"]
        assert [r["opt_tag"] for r in rows] == ["error", "error"]
        for name in ("s0.json", "s1.json"):
            assert (f"error: {name}: ValueError: exponential threshold: "
                    f"unknown keys ['gama']\n") in captured.err

    @pytest.mark.parametrize("budget", ["1", "5000000", "-5"])
    def test_opt_node_budget_refused_for_bruteforce(self, instance_file, capsys, budget):
        # The enumerator has no budget: the flag would be ignored.
        with pytest.raises(SystemExit) as info:
            cli("opt", "--input", str(instance_file), "--method", "bruteforce",
                "--node-budget", budget)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --node-budget applies only to --method exact\n"
        assert captured.out == ""

    def test_opt_default_node_budget(self, tmp_path, capsys, monkeypatch):
        # Without the flag, opt still gives the search its budget of 5 000 000.
        from knapdep import oracle

        seen = []
        real = oracle.solve_exact
        monkeypatch.setattr(oracle, "solve_exact",
                            lambda inst, node_budget: seen.append(node_budget) or real(inst))
        path = tmp_path / "one.json"
        path.write_text(json.dumps(one_item_instance()))
        assert cli("opt", "--input", str(path)) == 0
        assert cli("opt", "--input", str(path), "--node-budget", "7") == 0
        assert seen == [5_000_000, 7]

    def test_opt_negative_node_budget_exits_1(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(one_item_instance()))
        assert cli("opt", "--input", str(path), "--node-budget", "-5") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: node_budget must be an integer >= 0, got -5\n"
        assert captured.out == ""


def set_path(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


EXTRA_OPTION = {"eligible": True, "size": 1.0, "value": 3.0, "start": 1, "duration": 1}

# One malformed document per structural rule, and the message it is refused with.
MALFORMED = {
    "more-options-than-knapsacks": (
        lambda d: d["items"][0]["options"].append(EXTRA_OPTION),
        "item 0: expected 1 options, got 2",
    ),
    "fewer-options-than-knapsacks": (
        lambda d: d["items"][0]["options"].clear(),
        "item 0: expected 1 options, got 0",
    ),
    "window-past-horizon": (
        lambda d: set_path(d, ("items", 0, "options", 0, "start"), 10),
        "item 0, knapsack 0: window ends at 11, beyond horizon 10",
    ),
    "zero-size": (
        lambda d: set_path(d, ("items", 0, "options", 0, "size"), 0),
        "item 0, knapsack 0: nonpositive size 0.0",
    ),
    "negative-value": (
        lambda d: set_path(d, ("items", 0, "options", 0, "value"), -7.0),
        "item 0, knapsack 0: nonpositive value -7.0",
    ),
    "duplicate-id": (
        lambda d: d["items"].append(json.loads(json.dumps(d["items"][0]))),
        "duplicate item id 0",
    ),
    "arrival-order": (
        lambda d: d["items"].insert(0, {**json.loads(json.dumps(d["items"][0])),
                                        "id": 5, "arrival": 2}),
        "item 0: arrival 1 breaks nondecreasing order",
    ),
    "arrival-zero": (
        lambda d: set_path(d, ("items", 0, "arrival"), 0),
        "item 0: arrival must be >= 1, got 0",
    ),
    "horizon-zero": (
        lambda d: set_path(d, ("horizon",), 0),
        "horizon must be an integer >= 1, got 0",
    ),
}


def three_item_doc():
    doc = one_item_instance()
    doc["items"] = [dict(one_item_instance()["items"][0], id=i) for i in range(3)]
    return doc


def three_item_text():
    """The canonical layout (``dumps_instance``'s), 833 characters on 53 lines."""
    return json.dumps(three_item_doc(), indent=2)


def reversed_keys():
    return json.dumps(dict(reversed(three_item_doc().items())))


def repeated_items(good_last):
    # json.loads keeps the last of a repeated key, so only the last array counts.
    doc = three_item_doc()
    head = f'{{"horizon": 10, "knapsacks": {json.dumps(doc["knapsacks"])}'
    arrays = [json.dumps([{"id": 0}]), json.dumps(doc["items"])]
    if not good_last:
        arrays.reverse()
    return f'{head}, "items": {arrays[0]}, "items": {arrays[1]}}}'


def huge_horizon_late_fault():
    # Refused for its last item, before any slot row is made for the horizon.
    doc = three_item_doc()
    doc["horizon"] = 10**12
    doc["items"][2]["options"].clear()
    return json.dumps(doc, indent=2)


def late_fault_and_syntax_error():
    doc = three_item_doc()
    doc["items"][2]["options"][0]["size"] = -1.0
    return json.dumps(doc, indent=2)[:-1]  # the closing brace dropped


# Documents in other forms than the canonical one, for run and validate:
# (text, refusal message), or None as the message where the document is
# accepted with the canonical document's output.
INPUT_FORMS = {
    "not-utf-8": lambda: (
        b'{"horizon": 1\xff}',
        "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte",
    ),
    "open-brace": lambda: (
        "{\n",
        "invalid JSON: Expecting property name enclosed in double quotes: "
        "line 2 column 1 (char 2)",
    ),
    "empty": lambda: ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "text-after-brace": lambda: (
        three_item_text() + "\n{}",
        "invalid JSON: Extra data: line 54 column 1 (char 834)",
    ),
    "reversed-keys": lambda: (reversed_keys(), None),
    "repeated-items-good-last": lambda: (repeated_items(good_last=True), None),
    "repeated-items-bad-last": lambda: (
        repeated_items(good_last=False),
        "item at position 0: missing fields ['arrival', 'options']",
    ),
    "no-closing-brace": lambda: (
        three_item_text()[:-1],
        "invalid JSON: Expecting ',' delimiter: line 53 column 1 (char 832)",
    ),
    "huge-horizon-late-fault": lambda: (
        huge_horizon_late_fault(), "item 2: expected 1 options, got 0",
    ),
    "late-field-fault-then-syntax-error": lambda: (
        late_fault_and_syntax_error(),
        "invalid JSON: Expecting ',' delimiter: line 53 column 1 (char 833)",
    ),
}


class TestRefusal:
    """A structurally malformed instance: every command exits 1 with a message."""

    @pytest.mark.parametrize("command", ["validate", "run", "opt", "bench"])
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_instance_exits_1(self, tmp_path, capsys, case, command):
        mutate, message = MALFORMED[case]
        data = one_item_instance()
        mutate(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli(command, "--input", str(path)) == 1
        captured = capsys.readouterr()
        if command == "bench":  # a suite file is named
            message = f"{path}: {message}"
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "opt"])
    def test_rows_too_large_to_allocate_exit_1(self, tmp_path, capsys, command):
        # A slot row of 8 x 10^17 bytes is past a 47-bit address space, so
        # its allocation fails at once, touching no memory.
        path = tmp_path / "huge.json"
        assert cli("gen", "--n", "0", "--t", str(10**17), "--dlo", "1", "--alpha", "1",
                   "--out", str(path)) == 0
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert cli(command, "--input", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not out.exists()

    def test_bench_row_too_large_to_allocate_names_memory(self, tmp_path, capsys):
        # The same document in a suite: an error row that names memory.
        suite = tmp_path / "s"
        suite.mkdir()
        assert cli("gen", "--n", "0", "--t", str(10**17), "--dlo", "1", "--alpha", "1",
                   "--out", str(suite / "h.json")) == 0
        capsys.readouterr()
        assert cli("bench", "--input", str(suite)) == 1
        captured = capsys.readouterr()
        assert captured.err.endswith("\nerror: h.json: MemoryError: out of memory\n")
        rows = json.loads(captured.out)["rows"]
        assert [r["error"] for r in rows] == ["MemoryError: out of memory"]

    def test_no_traceback_in_a_fresh_process(self, tmp_path):
        mutate, message = MALFORMED["more-options-than-knapsacks"]
        data = one_item_instance()
        mutate(data)
        for command in ("validate", "run", "opt"):
            result = run_pipe([command], stdin_text=json.dumps(data))
            assert (result.returncode, result.stderr) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("command", ["validate", "run", "opt", "bench", "tune"])
    def test_deeply_nested_input_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert cli(command, "--input", str(path)) == 1
        captured = capsys.readouterr()
        where = f"{path}: " if command in ("bench", "tune") else ""
        assert captured.err.startswith(f"error: {where}invalid JSON: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_deeply_nested_input_in_a_fresh_process(self):
        result = run_pipe(["run"], stdin_text="[" * 200_000)
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith("error: invalid JSON: ")
        assert "Traceback" not in result.stderr and result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--theta", "inf"), "theta must be a finite number >= 1, got inf"),
            (("--theta", "nan"), "theta must be a finite number >= 1, got nan"),
            (("--capacity", "inf", "--eps", "1"),
             "capacity must be a finite number > 0, got inf"),
            (("--alpha", "inf"), "alpha must be a finite number >= 1, got inf"),
            (("--alpha", "nan"), "alpha must be a finite number >= 1, got nan"),
            (("--alpha", "0.5"), "alpha must be a finite number >= 1, got 0.5"),
            (("--family", "staircase", "--level", "1", "--capacity", "1e308", "--eps", "1e-308"),
             "capacity / size_cap must be finite, got 1e+308 / 1e-308"),
            (("--family", "staircase", "--eps", "1e-300"),
             "staircase prefixes must hold at most 1000000 items in all, "
             "got 4 levels of ceil(10.0 / 1e-300) items"),
            (("--family", "staircase", "--levels", "2000000000"),
             "staircase prefixes must hold at most 1000000 items in all, "
             "got 2000000000 levels of ceil(10.0 / 10.0) items"),
            (("--family", "staircase", "--levels", "1414"),
             "staircase prefixes must hold at most 1000000 items in all, "
             "got 1414 levels of ceil(10.0 / 10.0) items"),
            (("--alpha", "1e308", "--dlo", "2"),
             "dlo * alpha must be a finite number, got 2 * 1e+308"),
            (("--dlo", str(10**400)),  # past the largest float before alpha multiplies it
             f"dlo * alpha must be a finite number, got {10**400} * 2.0"),
            (("--k", "0"), "at least one knapsack is required"),
            (("--eligibility", "1.5"), "eligibility must be in [0, 1], got 1.5"),
            (("--family", "staircase", "--dlo", "20", "--t", "10", "--level", "1"),
             "horizon 10 too short for duration 20"),
        ],
    )
    def test_gen_refuses_non_finite_knapsack(self, capsys, deadline, flags, message):
        assert cli("gen", "--n", "3", *flags) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("gen", "--family", "staircase", "--level", "9"), "--level must be in [1, 4]"),
            (("gen", "--family", "staircase"),
             "staircase emits one instance per prefix; pass --out PREFIX "
             "or select one with --level"),
            (("bench",), "no instances: pass --input files/dirs or --config"),
            (("tune",), "no instances: pass --input files/dirs or --config"),
        ],
    )
    def test_usage_error_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            cli(*argv)
        assert info.value.code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", [("run",), ("validate", "--strict")])
    @pytest.mark.parametrize("case", sorted(INPUT_FORMS))
    def test_input_forms_by_file_and_stdin(self, tmp_path, capsys, case, command):
        text, expected = INPUT_FORMS[case]()
        data = text if isinstance(text, bytes) else text.encode()
        if expected is None:  # accepted: the canonical document's output
            path = tmp_path / "canonical.json"
            path.write_text(three_item_text())
            assert cli(*command, "--input", str(path)) == 0
            captured = capsys.readouterr()
            expected = (0, captured.out, captured.err)
        else:
            expected = (1, "", f"error: {expected}\n")
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        rc = cli(*command, "--input", str(path))
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == expected
        # Strict decoding, so a non-UTF-8 byte is refused by stdin as by the
        # file whatever the locale's error handler for stdin.
        piped = subprocess.run(
            [sys.executable, "-m", "knapdep.cli", *command], input=data,
            capture_output=True, env=dict(os.environ, PYTHONIOENCODING="utf-8:strict"),
        )
        assert (piped.returncode, piped.stdout.decode(), piped.stderr.decode()) == expected

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_malformed_document_reported_before_malformed_gamma(self, tmp_path, capsys, command):
        path = tmp_path / "doc.json"
        path.write_text(late_fault_and_syntax_error())
        assert cli(command, "--input", str(path), "--gamma", "abc") == 1
        assert capsys.readouterr() == (
            "", "error: invalid JSON: Expecting ',' delimiter: line 53 column 1 (char 833)\n"
        )

    @pytest.mark.parametrize("raw", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_gamma_outside_domain_refused_without_knapsacks(self, tmp_path, capsys, command, raw):
        # No knapsack builds a threshold, so the flag is checked on its own.
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"horizon": 5, "knapsacks": [], "items": []}, indent=2))
        assert cli(command, "--input", str(path), "--gamma", raw) == 1
        assert capsys.readouterr() == (
            "", f"error: gamma must be a finite number > 0, got {float(raw)}\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_piped_input_file_is_read_once(self):
        # A pipe cannot be read twice: it is copied once to an unnamed
        # temporary file and streamed from there, and a fault is reported as
        # the whole reading reports it.
        for text, expected in (INPUT_FORMS["late-field-fault-then-syntax-error"](),
                               INPUT_FORMS["no-closing-brace"]()):
            piped = run_pipe(["run", "--input", "/dev/stdin"], stdin_text=text)
            assert (piped.returncode, piped.stdout, piped.stderr) == (1, "", f"error: {expected}\n")
        piped = run_pipe(["validate", "--input", "/dev/stdin"], stdin_text=three_item_text())
        assert piped.returncode == 0 and json.loads(piped.stdout)["ok"] is True

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_named_pipe_input_is_read_once(self, tmp_path, capsys, deadline):
        # A named pipe cannot seek: run copies it once to a temporary file,
        # streams that, and writes what it writes for the file; a fault in
        # the last item is reported as the whole reading reports it.
        good = tmp_path / "good.json"
        assert cli("gen", "--n", "50", "--out", str(good)) == 0
        doc = json.loads(good.read_text())
        doc["items"][49]["options"][0]["size"] = -1.0
        faulty = tmp_path / "faulty.json"
        faulty.write_text(json.dumps(doc, indent=2) + "\n")  # the layout gen writes
        capsys.readouterr()
        for source, status in ((good, 0), (faulty, 1)):
            assert cli("run", "--input", str(source)) == status
            expected = (status, *capsys.readouterr())
            pipe = tmp_path / "pipe"
            os.mkfifo(pipe)
            writer = threading.Thread(target=pipe.write_bytes, args=(source.read_bytes(),),
                                      daemon=True)
            writer.start()
            rc = cli("run", "--input", str(pipe))
            assert (rc, *capsys.readouterr()) == expected
            writer.join(5.0)
            assert not writer.is_alive()
            pipe.unlink()
        assert expected == (1, "", "error: item 49, knapsack 0: nonpositive size -1.0\n")

    @pytest.mark.parametrize("command", [("run",), ("validate", "--strict")])
    def test_stdin_from_a_file_reads_on_from_its_offset(self, tmp_path, capsys, command):
        # Standard input redirected from a regular file is read from where
        # it stands, by the streamed pass and by the whole reading it falls
        # back to alike: as --input of the bytes after that offset.
        prefix = b"not JSON, "
        for text in (three_item_text(), reversed_keys(), late_fault_and_syntax_error()):
            doc = tmp_path / "doc.json"
            doc.write_text(text)
            rc = cli(*command, "--input", str(doc))
            expected = (rc, *capsys.readouterr())
            shifted = tmp_path / "shifted.json"
            shifted.write_bytes(prefix + text.encode())
            with open(shifted, "rb", buffering=0) as stdin:
                stdin.seek(len(prefix))
                piped = subprocess.run([sys.executable, "-m", "knapdep.cli", *command],
                                       stdin=stdin, capture_output=True, text=True)
            assert (piped.returncode, piped.stdout, piped.stderr) == expected
        assert expected[2] == f"error: {INPUT_FORMS['late-field-fault-then-syntax-error']()[1]}\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_crlf_fault_offsets_from_stdin_and_a_named_pipe(self, tmp_path, capsys, deadline):
        # Standard input translates no "\r\n", so a fault's offset counts
        # each "\r"; a path is opened with universal newlines, so from a
        # named pipe the offset is the translated text's.
        data = late_fault_and_syntax_error().replace("\n", "\r\n").encode()
        fault = "error: invalid JSON: Expecting ',' delimiter: line 53 column 1 (char {})\n"
        piped = subprocess.run([sys.executable, "-m", "knapdep.cli", "run"], input=data,
                               capture_output=True)
        assert (piped.returncode, piped.stdout, piped.stderr.decode()) == (1, b"", fault.format(885))
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
        writer.start()
        rc = cli("run", "--input", str(pipe))
        assert (rc, *capsys.readouterr()) == (1, "", fault.format(833))
        writer.join(5.0)
        assert not writer.is_alive()

    def test_bench_error_rows_exit_1_with_report(self, tmp_path, capsys):
        inst = tmp_path / "one.json"
        inst.write_text(json.dumps(one_item_instance()))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": {"kind": "table"}}))
        out = tmp_path / "rep"
        assert cli("bench", "--input", str(inst), "--config", str(cfg),
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "error: one.json: ValueError: table points must be [z, phi] number pairs" in err
        rows = json.loads((tmp_path / "rep.json").read_text())["rows"]
        assert [r["opt_tag"] for r in rows] == ["error"]
        assert (tmp_path / "rep.csv").exists()


# Outputs pinned by sha256, so byte identity is checked across commits,
# not only within one run.  Most are IEEE-exact (+, *, / and comparisons);
# burst arrivals draw from random.gauss (libm log and cos) but are rounded
# to integer slots.  The run and bench charges go through libm exp, so
# those digests also assume a platform exp that rounds as glibc's does.
UNIFORM = ("gen", "--n", "16", "--k", "2", "--t", "30", "--capacity", "4",
           "--theta", "8", "--eps", "2", "--seed", "5")
BURST = ("gen", "--family", "burst", "--n", "30", "--k", "2", "--t", "40",
         "--capacity", "4", "--theta", "8", "--eps", "2", "--seed", "11")
# Half the options ineligible, so the generator's placeholder record and
# its eligibility draw are pinned too; the two above have none.
UNIFORM_INELIGIBLE = ("gen", "--k", "3", "--eligibility", "0.5")
BURST_INELIGIBLE = ("gen", "--family", "burst", "--eligibility", "0.4")
STAIRCASE = ("gen", "--family", "staircase", "--theta", "4", "--alpha", "1",
             "--eps", "2.5", "--level", "3")
# The benchmark's oracle knapsack at n = 60, T = 40: a budget-bound search
# deep enough that most children are refused at their watched slot.
DEEP = ("gen", "--n", "60", "--k", "2", "--t", "40", "--capacity", "4", "--theta", "8",
        "--eps", "4", "--dlo", "2", "--alpha", "3", "--seed", "5")
GOLDEN = {
    "uniform": "4e463e285294543fd9589e563cb19056d2891de9fa7ce4e3f528efc4b58300fd",
    "burst": "36e0bc5defa2c8a69a70165c70b9120583dce93db19d1ebf696edf8d3f3ca9e5",
    "validate": "460cd860e5aad9bddf3aed3412e0c7dd0d671f2fc9ac4320bb14fc36aba840ae",
    "opt": "b40bc9c9d2225bd73d41b386eae2934a7282932c22ddead8f0e79cc186f42a73",
    "budget": "6c08e1a602cef56203b52a0ecc254c00507ea0117419d6141e852203e0bf7e33",
    "uniform_ineligible": "5aad842b4c223b1e86b7070bf1adc55d3eb41ac7108a96838cde7f8b1c8b0915",
    "burst_ineligible": "f13b7a54223cadf3b2df1a7bee7440cf7b722a440ced1a9bad1571ee0429bdd9",
    "run": "fd183b08b9c0b9b4e4171eb33a7b3073a43ee057bb9b4985166d2ba2a338570d",
    "run_ineligible": "65de122892efc2032281991670cab2a25e85f1bad60206f9706ec41856b64038",
    "staircase": "f39001ae52f016b886e85470e254af0a65f4cd97ee65b2dd437cd0ed15aa6af7",
    "bench": "89b43d9e6056730514c24e680cd183536dc38af82e86b46d581741428c98652c",
    "deep_budget": "ee9a7d052e1185351b77a393093e78a00bfc4202d0524f22e335b91f3887bd46",
}


def test_golden_bytes(tmp_path, capsys):
    def digest(*argv):
        assert cli(*argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    uniform, burst = tmp_path / "uniform.json", tmp_path / "burst.json"
    ineligible, suite = tmp_path / "ineligible.json", tmp_path / "suite"
    deep = tmp_path / "deep.json"
    got = {
        "uniform": digest(*UNIFORM),
        "burst": digest(*BURST),
        "uniform_ineligible": digest(*UNIFORM_INELIGIBLE),
        "burst_ineligible": digest(*BURST_INELIGIBLE),
        "staircase": digest(*STAIRCASE),
    }
    assert cli(*UNIFORM, "--out", str(uniform)) == 0
    assert cli(*BURST, "--out", str(burst)) == 0
    assert cli(*BURST_INELIGIBLE, "--out", str(ineligible)) == 0
    assert cli(*DEEP, "--out", str(deep)) == 0
    suite.mkdir()
    for seed in (1, 2, 3):
        out = str(suite / f"i{seed}.json")
        assert cli("gen", "--n", "8", "--k", "2", "--seed", str(seed), "--out", out) == 0
    capsys.readouterr()
    got["validate"] = digest("validate", "--input", str(uniform), "--strict")
    got["opt"] = digest("opt", "--input", str(uniform))
    got["budget"] = digest("opt", "--input", str(burst), "--node-budget", "2000")
    got["run"] = digest("run", "--input", str(uniform))
    got["run_ineligible"] = digest("run", "--input", str(ineligible))
    got["bench"] = digest("bench", "--input", str(suite))
    got["deep_budget"] = digest("opt", "--input", str(deep), "--node-budget", "15000")
    assert got == GOLDEN


def test_public_names_resolve():
    # Each to the very object of the module that defines it.
    for name in knapdep.__all__:
        obj = getattr(knapdep, name)
        assert obj is not None, name
        if name != "__version__":
            assert obj.__module__.startswith("knapdep."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
