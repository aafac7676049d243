import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import compassmodel
from compassmodel import _kernel, analysis, cli, run
from compassmodel.analysis import read_samples_csv
from compassmodel.cli import (ConfigError, WORKERS_ENV, load_config, main,
                              parse_config, run_batch)


def minimal_raw(**extra):
    raw = {"graph": {"kind": "path", "n": 5}, "stop": {"max_events": 10}}
    raw.update(extra)
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def strip_metadata(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("metadata")
    return data


class TestParseConfig:
    def test_defaults_fill_in(self):
        cfg = parse_config(minimal_raw())
        assert cfg == {
            "model": "compass", "graph": {"kind": "path", "n": 5}, "mu": 0.5,
            "theta": None, "init": {"kind": "uniform"}, "seed": 0, "replicates": 1,
            "stop": {"max_events": 10, "w_check_interval": 100}, "probes": [],
            "tol": 1e-6,
        }
        assert list(cfg) == ["model", "graph", "mu", "theta", "init", "seed",
                             "replicates", "stop", "probes", "tol"]

    def test_deffuant_model_selects_interval_space(self):
        cfg = parse_config(minimal_raw(model="deffuant"))
        assert cfg["model"] == "deffuant"

    def test_normalized_config_is_the_aggregate_echo(self, tmp_path):
        raw = minimal_raw(graph={"kind": "ring", "n": 5, "dims": [3]}, theta=1,
                          init={"kind": "uniform", "value": 0.5},
                          stop={"w_below": 1e-3, "max_events": 10, "max_time": None},
                          probes=[1, 2], tol=1)
        cfg = parse_config(raw)
        assert cfg["graph"] == {"kind": "ring", "n": 5}
        assert cfg["init"] == {"kind": "uniform"}
        assert list(cfg["stop"].items()) == [("max_events", 10), ("w_below", 1e-3),
                                             ("w_check_interval", 100)]
        assert [type(cfg[k]) for k in ("mu", "theta", "tol")] == [float] * 3
        assert [type(p) for p in cfg["probes"]] == [float, float]
        assert parse_config(minimal_raw(theta=math.inf))["theta"] is None
        run_batch(cfg, tmp_path)
        echo = json.loads((tmp_path / "aggregate.json").read_text())["config"]
        assert json.dumps(echo) == json.dumps(cfg)

    def test_every_problem_reported_at_once(self):
        raw = {
            "extra": 1,
            "model": "ising",
            "graph": {"kind": "blob"},
            "mu": 2.0,
            "init": {"kind": "spike"},
            "seed": "zero",
            "replicates": 0,
            "stop": {},
            "probes": [3.0, 1.0],
            "tol": -1.0,
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        problems = exc.value.problems
        assert len(problems) >= 10
        joined = "\n".join(problems)
        assert "unknown key 'extra'" in joined
        assert "model" in joined
        assert "graph kind" in joined
        assert "mu" in joined
        assert "init kind" in joined
        assert "seed" in joined
        assert "replicates" in joined
        assert "at least one of" in joined
        assert "strictly increasing" in joined
        assert "tol" in joined

    def test_unknown_keys_at_every_level(self):
        raw = minimal_raw(init={"kind": "uniform", "sigma": 1.0})
        raw["graph"]["color"] = "red"
        raw["stop"]["patience"] = 5
        raw["bogus"] = True
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        joined = "\n".join(exc.value.problems)
        assert "unknown key 'bogus'" in joined
        assert "unknown graph key 'color'" in joined
        assert "unknown init key 'sigma'" in joined
        assert "unknown stop key 'patience'" in joined

    def test_constant_init_needs_a_value(self):
        with pytest.raises(ConfigError, match="init.value"):
            parse_config(minimal_raw(init={"kind": "constant"}))
        cfg = parse_config(minimal_raw(init={"kind": "constant", "value": 0.25}))
        assert cfg["init"] == {"kind": "constant", "value": 0.25}

    def test_explicit_init_roundtrips_values(self):
        cfg = parse_config(minimal_raw(graph={"kind": "path", "n": 3},
                                       init={"kind": "explicit",
                                             "values": [0.1, -0.2, 1]}))
        assert cfg["init"] == {"kind": "explicit", "values": [0.1, -0.2, 1.0]}
        assert [type(v) for v in cfg["init"]["values"]] == [float] * 3

    def test_torus_dims(self):
        cfg = parse_config(minimal_raw(graph={"kind": "torus", "dims": [3, 4]}))
        assert cfg["graph"] == {"kind": "torus", "dims": [3, 4]}
        with pytest.raises(ConfigError, match="at least 3"):
            parse_config(minimal_raw(graph={"kind": "torus", "dims": [2, 4]}))

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(minimal_raw(seed=True))

    @pytest.mark.parametrize("graph,whole", [
        ({"kind": "ring", "n": 6}, {"kind": "ring", "n": 6.0}),
        ({"kind": "torus", "dims": [3, 4]}, {"kind": "torus", "dims": [3.0, 4]}),
    ])
    def test_whole_float_counts_run_as_their_ints(self, graph, whole, tmp_path):
        # a JSON writer may give a count as 6.0 or a budget as 2e2, as the
        # library takes them: the same bytes, and the int echoed
        stop = {"max_events": 200, "w_below": 1e-9, "w_check_interval": 10}
        ints = minimal_raw(graph=graph, seed=3, replicates=2, stop=stop, probes=[0.5])
        floats = minimal_raw(graph=whole, seed=3.0, replicates=2.0, probes=[0.5],
                             stop={"max_events": 2e2, "w_below": 1e-9, "w_check_interval": 10.0})
        outs = []
        for name, raw in [("ints", ints), ("floats", floats)]:
            out = tmp_path / name
            assert main(["run", str(write_config(tmp_path, raw, f"{name}.json")), "-o",
                         str(out)]) == 0
            outs.append([strip_metadata(out / "aggregate.json"),
                         *[(out / f"replicate_{i:04d}.csv").read_bytes() for i in range(2)]])
        assert outs[0] == outs[1]
        assert json.dumps(outs[1][0]["config"]) == json.dumps(parse_config(ints))

    @pytest.mark.parametrize("extra,message", [
        ({"stop": {"max_events": -1}}, "stop.max_events must be a nonnegative integer, got -1"),
        ({"stop": {"max_events": 1.5}}, "stop.max_events must be a nonnegative integer, got 1.5"),
        ({"stop": {"max_events": True}},
         "stop.max_events must be a nonnegative integer, got True"),
        ({"stop": {"max_time": 1.0, "w_check_interval": 2.5}},
         "stop.w_check_interval must be a positive integer, got 2.5"),
        ({"graph": {"kind": "ring", "n": True}}, "graph.n must be an integer, got True"),
        ({"graph": {"kind": "path", "n": 5.5}}, "graph.n must be an integer, got 5.5"),
        ({"graph": {"kind": "torus", "dims": [3, True]}},
         "graph.dims must be a list of integers, got [3, True]"),
        ({"replicates": 2.5}, "replicates must be a positive integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ])
    def test_a_count_that_is_not_whole_is_one_problem(self, extra, message):
        # a budget that is given but bad is not also reported missing
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_raw(**extra))
        assert exc.value.problems == [message]

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.json")

    def test_bad_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestRunBatch:
    def test_zero_event_run_writes_single_initial_row(self, tmp_path):
        raw = minimal_raw(stop={"max_events": 0},
                          init={"kind": "explicit",
                                "values": [0.2, 0.4, 0.6, 0.8, -0.9]})
        run_batch(parse_config(raw), tmp_path / "out")
        rows = read_samples_csv(tmp_path / "out" / "replicate_0000.csv")
        assert len(rows) == 1
        assert rows[0].time == 0.0
        agg = json.loads((tmp_path / "out" / "aggregate.json").read_text())
        assert agg["schema"] == "compassmodel-aggregate-v1"
        assert agg["replicates"][0]["events_applied"] == 0

    def test_reruns_are_byte_identical(self, tmp_path):
        raw = minimal_raw(replicates=3, seed=42,
                          stop={"max_events": 200}, probes=[0.5, 1.0])
        cfg = parse_config(raw)
        run_batch(cfg, tmp_path / "a")
        run_batch(cfg, tmp_path / "b")
        for i in range(3):
            name = f"replicate_{i:04d}.csv"
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()
        assert strip_metadata(tmp_path / "a" / "aggregate.json") == \
               strip_metadata(tmp_path / "b" / "aggregate.json")

    def test_parallel_matches_serial_bytes(self, tmp_path, monkeypatch):
        raw = minimal_raw(replicates=4, seed=7, stop={"max_events": 100},
                          probes=[0.25])
        cfg = parse_config(raw)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        run_batch(cfg, tmp_path / "serial")
        monkeypatch.setenv(WORKERS_ENV, "2")
        run_batch(cfg, tmp_path / "parallel")
        for i in range(4):
            name = f"replicate_{i:04d}.csv"
            assert (tmp_path / "serial" / name).read_bytes() == \
                   (tmp_path / "parallel" / name).read_bytes()
        assert strip_metadata(tmp_path / "serial" / "aggregate.json") == \
               strip_metadata(tmp_path / "parallel" / "aggregate.json")

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_workers_below_one_exit_two(self, tmp_path, monkeypatch, capsys, value):
        path = write_config(tmp_path, minimal_raw())
        monkeypatch.setenv(WORKERS_ENV, value)
        code = main(["run", str(path), "-o", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {WORKERS_ENV} must be at least 1, got '{value}'" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("checks", ["kernel", "numpy"])
    def test_a_sparse_edge_list_is_a_config_error_in_bounded_memory(self, tmp_path, checks):
        lib = _kernel.load() if checks == "kernel" else False
        if lib is None:
            pytest.skip("no compiled kernel")
        edges = tmp_path / "sparse.txt"
        edges.write_text("1 10000000\n")
        cfg = parse_config(minimal_raw(graph={"kind": "file", "path": str(edges)}))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="cannot build graph: graph is not connected"), \
                    mock.patch.object(_kernel, "_lib", lib):
                run_batch(cfg, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert not list((tmp_path / "out").iterdir())

    def test_unwritable_output_is_a_config_error(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        with pytest.raises(ConfigError, match="cannot write"):
            run_batch(parse_config(minimal_raw()), blocker / "out")

    def test_a_replicate_that_raises_leaves_no_partial_file(self, tmp_path, monkeypatch):
        cfg = parse_config(minimal_raw(replicates=3, seed=5, stop={"max_events": 200},
                                       probes=[0.5, 1.0]))
        run_batch(cfg, tmp_path / "clean")
        written = analysis.write_samples_csv

        def dies_writing_the_second(rows, path):
            if "0001" not in path.name:
                return written(rows, path)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# half a file")
            raise OSError("disk full")

        monkeypatch.setattr(analysis, "write_samples_csv", dies_writing_the_second)
        with pytest.raises(OSError, match="disk full"):
            run_batch(cfg, tmp_path / "writer")
        monkeypatch.setattr(analysis, "write_samples_csv", written)

        runs = []

        def dies_in_the_third(*args, **kwargs):
            runs.append(1)
            if len(runs) == 3:
                raise RuntimeError("replicate failed")
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "run", dies_in_the_third)
        with pytest.raises(RuntimeError, match="replicate failed"):
            run_batch(cfg, tmp_path / "engine")

        for out, done in (("writer", 1), ("engine", 2)):
            names = sorted(p.name for p in (tmp_path / out).iterdir())
            assert names == [f"replicate_{i:04d}.csv" for i in range(done)]
            for name in names:
                assert (tmp_path / out / name).read_bytes() == \
                    (tmp_path / "clean" / name).read_bytes()

    def test_graph_file_problems_surface_as_config_errors(self, tmp_path):
        raw = minimal_raw(graph={"kind": "file",
                                 "path": str(tmp_path / "missing.edges")})
        with pytest.raises(ConfigError, match="cannot build graph"):
            run_batch(parse_config(raw), tmp_path / "out")


class TestMain:
    def test_run_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_raw(stop={"max_events": 50}))
        code = main(["run", str(path), "-o", str(tmp_path / "out")])
        assert code == 0
        assert "1 replicate(s)" in capsys.readouterr().out

    def test_a_batch_of_equal_limits_reports_no_uniformity_pvalue(self, tmp_path, capsys):
        # 500 equal limits made the KS test raise after the last replicate,
        # and no aggregate.json was written
        raw = minimal_raw(graph={"kind": "ring", "n": 3}, replicates=500,
                          init={"kind": "constant", "value": 0.3}, stop={"max_events": 5})
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, raw)), "-o", str(out)]) == 0
        summary = json.loads((out / "aggregate.json").read_text())["summary"]
        assert summary["limits"]["count"] == 500 and summary["limits"]["sd"] == 0.0
        assert summary["limit_uniformity_pvalue"] is None

    def test_bad_config_exits_two_listing_every_problem(self, tmp_path, capsys):
        path = write_config(tmp_path, {"graph": {"kind": "blob"},
                                       "stop": {}, "tol": 0})
        code = main(["run", str(path), "-o", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 3
        assert "graph kind" in err
        assert "at least one of" in err
        assert "tol" in err

    @pytest.mark.parametrize("stop,problem", [
        ({"max_events": 2**63}, "max_events must be below 2**63, got 9223372036854775808"),
        ({"max_events": 10, "w_below": 1e-3, "w_check_interval": 10**400},
         f"w_check_interval must be below 2**63, got {10**400}")],
        ids=["max_events", "w_check_interval"])
    def test_a_count_past_int64_exits_two(self, tmp_path, capsys, stop, problem):
        # a w_check_interval of 10**400 exited 1, with run's OverflowError
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_raw(stop=stop))
        assert exc.value.problems == [f"stop: {problem}"]
        path = write_config(tmp_path, minimal_raw(stop=stop))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: stop: {problem}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["path", "ring"])
    @pytest.mark.parametrize("n", [2**40, 10**400], ids=["2**40", "10**400"])
    def test_a_path_or_ring_past_2_32_exits_two(self, tmp_path, capsys, kind, n):
        # 2**40 exited 1 with a MemoryError, and 10**400 named numpy's limit
        path = write_config(tmp_path, minimal_raw(graph={"kind": kind, "n": n}))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot build graph: need 1 to 2**32 vertices, got {n}\n"

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_raw())
        blocker = tmp_path / "file_in_the_way"
        blocker.write_text("")
        code = main(["run", str(path), "-o", str(blocker / "out")])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_scenario_contract_failure_exits_one(self, tmp_path, capsys):
        code = main(["scenario", "butterfly",
                     "--set", "n=4", "--set", "min_distance=1.5"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().err

    def test_scenario_pass_exits_zero_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(["scenario", "butterfly", "--set", "n=4",
                     "-o", str(out)])
        assert code == 0
        assert "scenario butterfly passed" in capsys.readouterr().out
        report = json.loads((out / "butterfly.json").read_text())
        assert report["scenario"] == "butterfly"
        assert report["passed"] is True
        assert report["distance"] >= 0.8

    def test_bad_scenario_override_exits_two(self, capsys):
        code = main(["scenario", "signflip", "--set", "wings=3"])
        assert code == 2
        assert "bad scenario override" in capsys.readouterr().err

    @pytest.mark.parametrize("name,override,message", [
        ("signflip", "c=5", "need 0 < c <= 1"),
        ("butterfly", "n=2", "need n >= 3"),
        ("butterfly", "n=4.5", "n must be a whole number, got 4.5"),
        # it ran one alternation
        ("butterfly", "alternations=true", "alternations must be a whole number, got True"),
        ("butterfly", "alternations=-4", "need alternations >= 0, got -4"),
        ("butterfly", "flatten_eps=NaN", "eps must be positive, got nan"),
        # it ran as seed 1
        ("deffuant_vs_compass", "seed=1.5", "master seeds must be integers, got 1.5"),
    ])
    def test_out_of_range_scenario_override_exits_two(self, name, override, message,
                                                      capsys):
        code = main(["scenario", name, "--set", override])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad scenario override: ")
        assert message in err

    def test_bad_workers_value_exits_two(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, minimal_raw())
        monkeypatch.setenv(WORKERS_ENV, "two")
        code = main(["run", str(path), "-o", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {WORKERS_ENV} must be an integer, got 'two'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model,graph,init,message", [
        ("compass", {"kind": "path", "n": 3}, {"kind": "explicit", "values": [0.1, -1, 0.2]},
         "init: explicit value -1.0 outside the circle chart (-1, 1]"),
        ("compass", {"kind": "path", "n": 3}, {"kind": "constant", "value": 1.5},
         "init: constant value 1.5 outside the circle chart (-1, 1]"),
        ("deffuant", {"kind": "path", "n": 3}, {"kind": "explicit", "values": [0.1, 1, -0.2]},
         "init: explicit value -0.2 outside [0, 1]"),
        ("deffuant", {"kind": "path", "n": 3}, {"kind": "constant", "value": -1},
         "init: constant value -1.0 outside [0, 1]"),
        ("compass", {"kind": "path", "n": 5}, {"kind": "explicit", "values": [0.1, 0.2, 0.3]},
         "init.values has 3 values for 5 vertices"),
        ("compass", {"kind": "ring", "n": 3}, {"kind": "explicit", "values": [0.1, 0.2]},
         "init.values has 2 values for 3 vertices"),
        ("deffuant", {"kind": "torus", "dims": [3, 4]}, {"kind": "explicit", "values": [0.5] * 9},
         "init.values has 9 values for 12 vertices"),
    ])
    def test_init_outside_the_chart_or_graph_exits_two(self, model, graph, init, message,
                                                      tmp_path, capsys):
        path = write_config(tmp_path, minimal_raw(model=model, graph=graph, init=init))
        code = main(["run", str(path), "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra,message", [
        ({"mu": 10**400}, "mu must be a finite number"),
        ({"mu": -10**400}, "mu must be a finite number"),
        ({"theta": 10**400}, "theta must be a positive number"),
        ({"probes": [1.0, 10**400]}, "probes must be a list of numbers"),
        ({"init": {"kind": "constant", "value": 10**400}}, "init.value must be a number"),
        ({"init": {"kind": "explicit", "values": [0.1, 0.2, 10**400, 0.3, 0.4]}},
         "init.values must be a list of numbers"),
        ({"tol": 10**400}, "tol must be a positive number"),
        ({"stop": {"max_events": 10, "max_time": 10**400}},
         "stop.max_time must be a nonnegative number"),
        ({"stop": {"max_events": 10, "w_below": 10**400}},
         "stop.w_below must be a positive number"),
    ])
    def test_integer_too_large_for_a_float_exits_two(self, extra, message, tmp_path, capsys):
        code = main(["run", str(write_config(tmp_path, minimal_raw(**extra))),
                     "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra,message", [
        ({"stop": {"max_events": 10, "max_time": math.nan}},
         "stop.max_time must be a nonnegative number, got nan"),
        ({"stop": {"max_events": 10, "max_time": math.inf}},
         "stop.max_time must be a nonnegative number, got inf"),
        ({"stop": {"max_events": 10, "w_below": math.nan}},
         "stop.w_below must be a positive number, got nan"),
        ({"stop": {"max_events": 10, "w_below": math.inf}},
         "stop.w_below must be a positive number, got inf"),
        ({"tol": math.nan}, "tol must be a positive number, got nan"),
        ({"tol": math.inf}, "tol must be a positive number, got inf"),
        ({"probes": [1.0, math.nan]}, "probes must be a list of numbers"),
        ({"probes": [math.inf]}, "probes must be a list of numbers"),
        ({"probes": [-math.inf, 1.0]}, "probes must be a list of numbers"),
    ])
    def test_non_finite_number_exits_two(self, extra, message, tmp_path, capsys):
        # json writes and reads these as the bare words NaN and Infinity
        path = write_config(tmp_path, minimal_raw(**extra))
        code = main(["run", str(path), "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_the_digit_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_raw()).replace("10", "1" + "0" * 5000, 1),
                        encoding="utf-8")
        code = main(["run", str(path), "-o", str(tmp_path / "out")])
        assert code == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_explicit_init_checked_against_a_file_graph(self, tmp_path, capsys):
        edges = tmp_path / "tri.edges"
        edges.write_text("1 2\n2 3\n3 1\n", encoding="utf-8")
        raw = minimal_raw(graph={"kind": "file", "path": str(edges)},
                          init={"kind": "explicit", "values": [0.1, 0.2, 0.3, 0.4]})
        code = main(["run", str(write_config(tmp_path, raw)), "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: init.values has 4 values for 3 vertices\n"
        assert not (tmp_path / "out" / "replicate_0000.csv").exists()
        raw["init"]["values"] = [0.1, 0.2, 0.3]
        code = main(["run", str(write_config(tmp_path, raw)), "-o", str(tmp_path / "out")])
        assert code == 0

    def test_scenario_that_cannot_run_exits_one_without_a_report(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(["scenario", "deffuant_vs_compass", "--set", "n=5",
                     "--set", "replicates=3", "--set", "compass_max_events=1",
                     "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: scenario deffuant_vs_compass could not run: "
            "no circle replicate converged; raise compass_max_events\n")
        assert not out.exists()

    def test_override_without_equals_exits_two(self, capsys):
        code = main(["scenario", "signflip", "--set", "c0.5"])
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        code = main([])
        assert code == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_sweep_writes_one_dir_per_value(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_raw(stop={"max_events": 20}))
        out = tmp_path / "sweep"
        code = main(["sweep", str(path), "--param", "mu",
                     "--values", "0.25,0.5", "-o", str(out)])
        assert code == 0
        assert (out / "mu=0.25" / "replicate_0000.csv").exists()
        assert (out / "mu=0.5" / "replicate_0000.csv").exists()
        index = json.loads((out / "sweep.json").read_text())
        assert index["param"] == "mu"
        assert [p["value"] for p in index["points"]] == [0.25, 0.5]
        assert [p["dir"] for p in index["points"]] == ["mu=0.25", "mu=0.5"]
        for sub in ("mu=0.25", "mu=0.5"):
            echo = json.loads((out / sub / "aggregate.json").read_text())
            assert echo["config"]["mu"] == float(sub.split("=")[1])

    def test_sweep_dirs_are_one_component_under_the_output(self, tmp_path, monkeypatch,
                                                           capsys):
        # graphs/tri.txt went to the nested sweep/graph.path=graphs/tri.txt,
        # recorded as "tri.txt", and ../tri.txt to a batch beside sweep/
        (tmp_path / "work" / "graphs").mkdir(parents=True)
        ring, tri = "1 2\n2 3\n3 4\n4 1\n", "1 2\n2 3\n3 1\n"
        for name, edges in [("work/sq.txt", ring), ("work/graphs/tri.txt", tri),
                            ("tri.txt", tri)]:
            (tmp_path / name).write_text(edges, encoding="utf-8")
        monkeypatch.chdir(tmp_path / "work")
        path = write_config(tmp_path, minimal_raw(stop={"max_events": 20}))
        code = main(["sweep", str(path), "--param", "graph.path",
                     "--values", "sq.txt,graphs/tri.txt,../tri.txt", "-o", "sweep"])
        assert code == 0
        dirs = ["graph.path=sq.txt", "graph.path=graphs%2Ftri.txt", "graph.path=..%2Ftri.txt"]
        index = json.loads(Path("sweep", "sweep.json").read_text())
        assert [p["dir"] for p in index["points"]] == dirs
        assert sorted(p.name for p in Path("sweep").iterdir()) == sorted([*dirs, "sweep.json"])
        for name in dirs:
            assert (Path("sweep") / name / "aggregate.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "tri.txt", "work"]
        # '%' is escaped too, so the names stay one per value
        assert cli._point_dir("p", "a%2Fb") == "p=a%252Fb" != cli._point_dir("p", "a/b")

    def test_sweep_rejects_bad_value(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_raw())
        code = main(["sweep", str(path), "--param", "mu",
                     "--values", "0.25,oops", "-o", str(tmp_path / "s")])
        assert code == 2
        assert "mu" in capsys.readouterr().err


def test_import_leaves_scipy_out():
    # scipy.stats costs about a second to import; only the KS test needs it
    src = str(Path(compassmodel.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import compassmodel, compassmodel.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
