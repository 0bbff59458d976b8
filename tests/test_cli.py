import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import pytest

import knapdep
from knapdep import cli as cli_module
from knapdep.bench import BenchConfig, TuneSpec
from knapdep.cli import main
from knapdep.core import JSON_BATCH, KnapsackSpec, dumps_instance, loads_instance
from knapdep.engine import run as engine_run
from knapdep.instances import GenSpec, generate
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
        ],
    )
    def test_bad_config_value_exits_1(self, tmp_path, capsys, command, body, flags, message):
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

    def test_bench_refuses_empty_suite(self, tmp_path, capsys):
        # A directory without *.json files: no report of no rows, exit 1.
        empty, other = tmp_path / "empty", tmp_path / "other"
        empty.mkdir()
        other.mkdir()
        (other / "notes.txt").write_text("not an instance")
        out = tmp_path / "rep"
        assert cli("bench", "--input", str(empty), str(other), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: no *.json instance files in {empty}, {other}\n"
        assert captured.out == ""
        assert not (tmp_path / "rep.json").exists() and not (tmp_path / "rep.csv").exists()

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
        ],
    )
    def test_gen_refuses_non_finite_knapsack(self, capsys, flags, message):
        assert cli("gen", "--n", "3", *flags) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

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
}


def test_golden_bytes(tmp_path, capsys):
    def digest(*argv):
        assert cli(*argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    uniform, burst = tmp_path / "uniform.json", tmp_path / "burst.json"
    ineligible, suite = tmp_path / "ineligible.json", tmp_path / "suite"
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
    assert got == GOLDEN


def test_public_names_resolve():
    # Each to the very object of the module that defines it.
    for name in knapdep.__all__:
        obj = getattr(knapdep, name)
        assert obj is not None, name
        if name != "__version__":
            assert obj.__module__.startswith("knapdep."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
