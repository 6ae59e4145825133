"""Config parsing, CLI verbs, output schemas, and snapshot round-trips."""

import collections
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

import freeagent
from freeagent import config
from freeagent.cli import main
from freeagent.config import (
    SCHEMA,
    AgentSpec,
    _kind,
    _table,
    config_to_dict,
    load_config,
    parse_config,
    preset_config,
    section_4_4_preset,
)
from freeagent.domain import FRAUD_ROLE, Agent, AgentStatus, ConfigError, DispatchedRole
from freeagent.engine import (
    METRICS_COLUMNS,
    Engine,
    RunTotals,
    SnapshotError,
    restore_engine,
    write_snapshot,
)
from freeagent.lifecycle import LifecycleConfig, RoleSpec
from freeagent.simulator import generate_cycle
from tests.test_engine import BLIND_EXPERT, GOOD_EXPERT, small_config

MINIMAL = {
    "stream": {
        "seed": 3,
        "samples_per_cycle": 20,
        "total_cycles": 2,
        "patterns": [
            {
                "name": "A",
                "fraud_rate": 0.5,
                "fraud_shift": {"0": 4.0},
                "modality_base": [0.7, 0.3, 0.0],
            }
        ],
        "schedule": [{"start_cycle": 0, "mixture": {"A": 1.0}}],
    },
    "roles": [{"name": "FraudDetection", "required_skills": ["fraud"]}],
    "roster": [
        {
            "role": "FraudDetection",
            "skills": ["fraud"],
            "experts": [
                {"profile": [1.0, 0.0, 0.0], "weights": [1, 0, 0, 0, 0, 0], "threshold": 2.0}
            ],
        }
    ],
}

# A summary with every key ``report`` prints, each entry well formed.
SUMMARY = {
    "seed": 3, "total_cycles": 2, "samples_per_cycle": 20, "event_counts": {},
    "phases": [{"start_cycle": 0, "end_cycle": 1, "mixture": {"A": 1.0},
                "decided": 40, "accuracy": 0.5, "f1": 0.5}],
    "key_cycles": {"first_release": None, "first_sign": None, "first_promote": None},
    "final_roster": [], "final_pool": [],
}


class TestParsing:
    def test_minimal_config_parses(self):
        cfg = parse_config(MINIMAL)
        assert cfg.stream.seed == 3
        assert cfg.roster[0].skills == frozenset({"fraud"})

    def test_unknown_top_level_key_rejected_with_path(self):
        bad = dict(MINIMAL, extra=1)
        with pytest.raises(ConfigError, match="extra"):
            parse_config(bad)

    def test_unknown_nested_key_rejected_with_path(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["lifecycle"] = {"sustain_widow": 3}
        with pytest.raises(ConfigError, match=r"lifecycle.*sustain_widow"):
            parse_config(bad)

    def test_sustain_window_zero_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["lifecycle"] = {"sustain_window": 0}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_mixture_pattern_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["stream"]["schedule"][0]["mixture"] = {"Z": 1.0}
        with pytest.raises(ConfigError, match="Z"):
            parse_config(bad)

    def test_json_parse_error_is_line_precise(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "stream": [,]\n}\n')
        with pytest.raises(ConfigError, match=r"bad\.json:2:"):
            load_config(path)

    def test_integer_too_long_to_convert_rejected(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"schema_version": 1' + "0" * 5000 + "}")
        with pytest.raises(ConfigError, match=r"long\.json: .*4300"):
            load_config(path)

    def test_round_trip_through_dict(self):
        cfg = section_4_4_preset()
        again = parse_config(config_to_dict(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)

    @pytest.mark.parametrize("names,mixtures", [
        pytest.param("AB", [{"A": 1.0}], id="unused_pattern"),
        pytest.param("BA", [{"A": 1.0}, {"B": 1.0}], id="not_in_first_use_order"),
    ])
    def test_pattern_list_round_trips_as_written(self, names, mixtures):
        node = json.loads(json.dumps(MINIMAL))
        pattern = node["stream"]["patterns"][0]
        node["stream"]["patterns"] = [dict(pattern, name=name) for name in names]
        node["stream"]["schedule"] = [
            {"start_cycle": start, "mixture": mixture} for start, mixture in enumerate(mixtures)
        ]
        dumped = config_to_dict(parse_config(node))
        assert dumped["stream"]["patterns"] == node["stream"]["patterns"]

    def test_every_schema_table_covers_every_field(self):
        for cls, table in SCHEMA.items():
            assert [key.name for key in table] == [f.name for f in fields(cls)], cls.__name__

    def test_a_field_without_a_json_kind_fails_naming_it(self):
        @dataclass(frozen=True)
        class Odd:
            count: int
            bits: set[int]

        with pytest.raises(TypeError, match=r"Odd\.bits: no JSON kind"):
            _table(Odd)

    @pytest.mark.parametrize("hint,value,named", [
        pytest.param(DispatchedRole, "Triage", "at.key: expected one of ['FraudDetection']",
                     id="literal"),
        pytest.param(AgentStatus, "active", "at.key: expected one of ['Active', 'Probationary",
                     id="enum"),
        pytest.param(AgentStatus, ["Active"], "at.key: expected one of", id="enum_list"),
        pytest.param(list[int], [1, "2"], "at.key[1]: expected int", id="list_item"),
        pytest.param(tuple[AgentStatus, ...], "Active", "at.key: expected list", id="tuple_str"),
        pytest.param(tuple[int, bool], [1], "at.key: expected a list of 2", id="fixed_short"),
        pytest.param(tuple[int, bool], [1, 0], "at.key[1]: expected bool", id="fixed_item"),
        pytest.param(dict[str, int], {"a": 1.0}, "at.key.a: expected int", id="dict_value"),
        pytest.param(dict[str, int], [], "at.key: expected dict", id="dict_list"),
        pytest.param(int | None, "1", "at.key: expected int", id="optional"),
    ])
    def test_a_kind_built_from_a_type_hint_names_the_bad_part(self, hint, value, named):
        parse, _ = _kind(hint)
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse(value, "at", "key")

    @pytest.mark.parametrize("hint,value,parsed", [
        pytest.param(DispatchedRole, "FraudDetection", "FraudDetection", id="literal"),
        pytest.param(AgentStatus, "Active", AgentStatus.ACTIVE, id="enum"),
        pytest.param(tuple[AgentStatus, ...], ["Released"], (AgentStatus.RELEASED,),
                     id="tuple_of_enums"),
        pytest.param(list[tuple[int, bool]], [[1, True]], [(1, True)], id="list_of_fixed"),
        pytest.param(dict[str, int | None], {"a": None, "b": 2}, {"a": None, "b": 2},
                     id="dict_of_optional"),
        pytest.param(dict[str, AgentStatus], {"a": "Active"}, {"a": AgentStatus.ACTIVE},
                     id="dict_of_enums"),
        pytest.param(AgentStatus | None, "Released", AgentStatus.RELEASED, id="optional_enum"),
        pytest.param(AgentStatus | None, None, None, id="optional_enum_null"),
    ])
    def test_a_kind_built_from_a_type_hint_round_trips(self, hint, value, parsed):
        parse, dump = _kind(hint)
        assert parse(value, "at", "key") == parsed
        assert type(parse(value, "at", "key")) is type(parsed)
        assert (parsed if dump is None else dump(parsed)) == value

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("nope")


class TestCli:
    def test_validate_preset_ok(self, capsys):
        assert main(["validate", "--preset", "section-4.4"]) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_preset_outside_its_calibration_bands_exits_nonzero(
        self, tmp_path, capsys, monkeypatch, verb
    ):
        monkeypatch.setitem(config.CALIBRATION_BANDS, "incumbent on pattern A", (0.999, 1.0))
        config._check_calibration.cache_clear()
        out = tmp_path / "out"
        args = [verb, "--preset", "section-4.4"] + (["--out", str(out)] if verb == "run" else [])
        assert main(args) == 2
        assert "calibration failed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("key,value,named", [
        # a range check names the section it was read from
        pytest.param("lifecycle", {"sustain_window": 0}, "cfg.json.lifecycle: sustain_window",
                     id="sustain_window_0"),
        pytest.param(None, None, "absent.json", id="missing_file"),
        pytest.param("lifecycle", [], "cfg.json.lifecycle", id="lifecycle_list"),
        pytest.param("stream.total_cycles", "abc", "cfg.json.stream.total_cycles",
                     id="total_cycles_text"),
        pytest.param("stream.patterns", [1], "cfg.json.stream.patterns[0]", id="pattern_number"),
        pytest.param("stream.schedule.0.mixture.A", "x", "cfg.json.stream.schedule[0].mixture.A",
                     id="mixture_weight_text"),
        # a mixture names listed patterns, and its weights sum to 1
        pytest.param("stream.schedule", [{"start_cycle": 0, "mixture": {"A": 1.0}},
                                         {"start_cycle": 1, "mixture": {"Z": 1.0}}],
                     "cfg.json.stream.schedule[1].mixture: unknown patterns ['Z']",
                     id="mixture_pattern_unknown"),
        pytest.param("stream.schedule", [{"start_cycle": 0, "mixture": {"A": 1.0}},
                                         {"start_cycle": 1, "mixture": {"A": 0.5}}],
                     "cfg.json.stream.schedule[1].mixture: mixture weights must sum to 1",
                     id="mixture_weights_sum"),
        # a string would otherwise be taken as the set of its letters
        pytest.param("roles.0.required_skills", "fraud", "cfg.json.roles[0].required_skills",
                     id="skills_string"),
        pytest.param("roster.0.experts.0.weights", [1.0],
                     "cfg.json.roster[0].experts[0].weights", id="expert_weights_short"),
        pytest.param("roster.0.experts.0.profile", [1.0, 0.0, 0.0, 0.0],
                     "cfg.json.roster[0].experts[0].profile", id="expert_profile_long"),
        # scalars must have their JSON type: no truthy strings, truncated
        # floats, bools as numbers or numbers as strings
        pytest.param("roster.0.misbehaving", "false", "cfg.json.roster[0].misbehaving",
                     id="misbehaving_text"),
        pytest.param("output", {"emit_detections": "no"}, "cfg.json.output.emit_detections",
                     id="emit_detections_text"),
        pytest.param("lifecycle", {"keep_service_time_on_resign": 0},
                     "cfg.json.lifecycle.keep_service_time_on_resign", id="keep_service_number"),
        pytest.param("stream.total_cycles", 2.9, "cfg.json.stream.total_cycles",
                     id="total_cycles_float"),
        pytest.param("stream.seed", True, "cfg.json.stream.seed", id="seed_bool"),
        pytest.param("schema_version", True, "cfg.json.schema_version", id="schema_version_bool"),
        pytest.param("stream.patterns.0.fraud_rate", "0.5",
                     "cfg.json.stream.patterns[0].fraud_rate", id="fraud_rate_text"),
        pytest.param("roles.0.required_skills", ["fraud", 7], "cfg.json.roles[0].required_skills",
                     id="required_skill_number"),
        pytest.param("roster.0.skills", ["fraud", None], "cfg.json.roster[0].skills",
                     id="agent_skill_null"),
        # lists of numbers are checked as a whole: no strings or bools inside
        pytest.param("roster.0.experts.0.weights", ["1", 0, 0, 0, 0, 0],
                     "cfg.json.roster[0].experts[0].weights", id="expert_weight_text"),
        pytest.param("roster.0.experts.0.profile", [True, 0, 0],
                     "cfg.json.roster[0].experts[0].profile", id="expert_profile_bool"),
        pytest.param("stream.patterns.0.modality_base", [0.7, "0.3", 0.0],
                     "cfg.json.stream.patterns[0].modality_base", id="modality_base_text"),
        pytest.param("stream.patterns.0.fraud_shift", {"0": "4.0"},
                     "cfg.json.stream.patterns[0].fraud_shift.0", id="fraud_shift_text"),
        pytest.param("stream.patterns.0.fraud_shift", {"0": True},
                     "cfg.json.stream.patterns[0].fraud_shift.0", id="fraud_shift_bool"),
        # coordinates are canonical integers, so no two keys name one coordinate
        pytest.param("stream.patterns.0.fraud_shift", {"01": 1.0, "1": 2.0},
                     "cfg.json.stream.patterns[0].fraud_shift", id="fraud_shift_key_zero_padded"),
        pytest.param("stream.patterns.0.fraud_shift", {" 1": 1.0},
                     "cfg.json.stream.patterns[0].fraud_shift", id="fraud_shift_key_space"),
        # numbers are finite floats: no overflow, NaN or Infinity
        pytest.param("roster.0.experts.0.threshold", 10**400,
                     "cfg.json.roster[0].experts[0].threshold", id="threshold_overflow"),
        pytest.param("stream.schedule.0.mixture.A", 10**400,
                     "cfg.json.stream.schedule[0].mixture.A", id="mixture_weight_overflow"),
        pytest.param("roster.0.experts.0.weights", [10**400, 0, 0, 0, 0, 0],
                     "cfg.json.roster[0].experts[0].weights", id="expert_weight_overflow"),
        pytest.param("roster.0.experts.0.threshold", math.nan,
                     "cfg.json.roster[0].experts[0].threshold", id="threshold_nan"),
        pytest.param("roster.0.experts.0.weights", [math.inf, 0, 0, 0, 0, 0],
                     "cfg.json.roster[0].experts[0].weights", id="expert_weight_inf"),
        pytest.param("roster.0.experts.0.profile", [math.nan, 0, 0],
                     "cfg.json.roster[0].experts[0].profile", id="expert_profile_nan"),
        pytest.param("stream.patterns.0.modality_base", [math.nan, 0.3, 0.0],
                     "cfg.json.stream.patterns[0].modality_base", id="modality_base_nan"),
        pytest.param("stream.schedule.0.mixture.A", math.nan,
                     "cfg.json.stream.schedule[0].mixture.A", id="mixture_weight_nan"),
        pytest.param("roster.0.learning_rate", math.nan, "cfg.json.roster[0].learning_rate",
                     id="learning_rate_nan"),
        pytest.param("roster.0.cost_per_sample", math.nan, "cfg.json.roster[0].cost_per_sample",
                     id="cost_per_sample_nan"),
        pytest.param("reward", {"baseline_cost_per_sample": math.inf},
                     "cfg.json.reward.baseline_cost_per_sample", id="baseline_cost_inf"),
        pytest.param("lifecycle", {"reward_threshold": math.nan},
                     "cfg.json.lifecycle.reward_threshold", id="reward_threshold_nan"),
        pytest.param("stream.patterns.0.fraud_shift", {"0": -math.inf},
                     "cfg.json.stream.patterns[0].fraud_shift.0", id="fraud_shift_inf"),
        # validate checks what the run would: the agent spec, not only the gate
        pytest.param("roster.0.learning_rate", -1, "cfg.json.roster[0]: learning_rate",
                     id="learning_rate_negative"),
        pytest.param("roster.0.learning_rate", 800, "cfg.json.roster[0]: learning_rate",
                     id="learning_rate_above_its_bound"),
        # the run config's own checks name the section they read
        pytest.param("output", {"snapshot_interval": -1},
                     "cfg.json.output: snapshot_interval must be >= 0",
                     id="snapshot_interval_negative"),
        pytest.param("roles", MINIMAL["roles"] * 2, "cfg.json.roles: duplicate role names",
                     id="duplicate_role_names"),
        # a cycle's batch is built in memory at once: too large a one would
        # fail inside numpy after the output directory exists
        pytest.param("stream.samples_per_cycle", 2**62,
                     "cfg.json.stream: samples_per_cycle must be in [1, 1048576]",
                     id="samples_per_cycle_too_large"),
    ])
    def test_validate_bad_config_exits_nonzero(self, tmp_path, capsys, verb, key, value, named):
        path = tmp_path / "absent.json"
        if key is not None:
            bad = json.loads(json.dumps(MINIMAL))
            *parents, last = key.split(".")
            node = bad
            for part in parents:
                node = node[int(part) if part.isdigit() else part]
            node[last] = value
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        args = [verb, "--config", str(path)] + (["--out", str(out)] if verb == "run" else [])
        assert main(args) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,field", [("roles", "name"), ("roster", "role")])
    def test_validate_rejects_undispatched_role(self, tmp_path, capsys, section, field):
        # only FraudDetection is dispatched; any other role would churn undecided
        path = tmp_path / "cfg.json"
        bad = json.loads(json.dumps(MINIMAL))
        bad[section][0][field] = "Triage"
        path.write_text(json.dumps(bad))
        assert main(["validate", "--config", str(path)]) == 2
        assert f"{section}[0].{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("make,at", [
        (lambda role: AgentSpec(role, frozenset(), small_config().roster[0].experts), "role"),
        (lambda role: RoleSpec(role, frozenset()), "name"),
    ], ids=["agent_spec", "role_spec"])
    def test_specs_built_in_python_refuse_another_role(self, make, at):
        make(FRAUD_ROLE)
        with pytest.raises(ConfigError, match="expected one of") as exc:
            make("Triage")
        assert exc.value.at == at

    def test_validate_requires_exactly_one_source(self, capsys):
        for sources in ([], ["--config", "cfg.json", "--preset", "section-4.4"]):
            assert main(["validate", *sources]) == 2
            assert capsys.readouterr().err == (
                "invalid: exactly one of --config or --preset is required\n"
            )

    def test_run_config_and_report(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        for name in ("events.jsonl", "metrics.csv", "summary.json"):
            assert (out / name).exists()
        # a quiet run: its log is empty, and both lines about it say so
        assert (out / "events.jsonl").read_text() == ""
        assert capsys.readouterr().out.startswith("completed 2 cycles (seed 3): no transitions\n")
        assert main(["report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "phase" in report and "final roster" in report
        assert "\nevents: no transitions\n" in report

    def test_run_seed_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--seed", "9", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 9

    def test_emit_detections_rows_match_metrics(self, tmp_path):
        # a blind incumbent is released at once, so the run has shadow rows,
        # a stalled cycle and assigned rows of the promoted candidate
        node = json.loads(json.dumps(MINIMAL))
        node["stream"]["total_cycles"] = 4
        node["lifecycle"] = {"sustain_window": 1}
        node["pool"] = [dict(node["roster"][0])]
        node["roster"][0]["experts"] = [
            {"profile": [1.0, 0.0, 0.0], "weights": [0, 0, 0, 0, 0, 0], "threshold": 1.0}
        ]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(node))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--emit-detections", "--out", str(out)]) == 0

        rows = [json.loads(line) for line in (out / "detections.jsonl").read_text().splitlines()]
        assert all(isinstance(r["verdict"], bool) for r in rows)
        decided = {"Active": 0, "Probationary": 0}
        for line in (out / "metrics.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            decided[cells[2]] = decided.get(cells[2], 0) + sum(int(c) for c in cells[3:7])
        assert sum(not r["shadow"] for r in rows) == decided["Active"] > 0
        assert sum(r["shadow"] for r in rows) == decided["Probationary"] > 0

    @pytest.mark.parametrize("content,reason", [
        (None, "No such file"),
        (b"\xff\xfe{}", "codec can't decode"),
        (b"[1, 2]", "not a run summary"),
        (b"{}", "not a run summary"),
        (json.dumps({**SUMMARY, "phases": [{}]}).encode(), "KeyError: 'mixture'"),
        (json.dumps({**SUMMARY, "key_cycles": {"first_sign": None, "first_promote": None}})
         .encode(), "KeyError: 'first_release'"),
    ], ids=["missing", "not-utf8", "not-object", "no-keys", "phase-entry", "key-cycles-entry"])
    def test_report_missing_dir_errors(self, tmp_path, capsys, content, reason):
        out = tmp_path / "nothing"
        if content is not None:
            out.mkdir()
            (out / "summary.json").write_bytes(content)
        assert main(["report", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing of the report is printed before the error
        err = captured.err
        assert err.startswith(f"error: cannot read {out / 'summary.json'}: ") and reason in err

    def test_a_report_into_a_closed_pipe_exits_without_a_traceback(self, tmp_path):
        # far more report than a pipe holds, so the reader closes it mid-write
        pool = [{"id": i, "status": "Released", "performance": 0.5, "service_time": 1}
                for i in range(20000)]
        (tmp_path / "summary.json").write_text(json.dumps({**SUMMARY, "final_pool": pool}))
        src = str(Path(freeagent.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-m", "freeagent.cli", "report", str(tmp_path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"run seed 3, 2 cycles, 20 samples/cycle\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""

    def test_unwritable_output_dir_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        code = main(["run", "--config", str(path), "--out", "/proc/nonexistent/out"])
        assert code != 0
        assert "cannot write" in capsys.readouterr().err

    def test_preset_run_seed_42_produces_full_transition_chain(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--preset", "section-4.4", "--seed", "42", "--out", str(out)])
        assert code == 0
        kinds = [
            json.loads(line)["kind"]
            for line in (out / "events.jsonl").read_text().splitlines()
        ]
        assert kinds.count("Release") >= 1
        assert kinds.count("Sign") >= 1
        assert kinds.count("Promote") >= 1


class TestOutputSchemas:
    def test_metrics_header_golden(self, tmp_path):
        engine = Engine(small_config(cycles=1))
        engine.run(tmp_path)
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == (
            "cycle,agent,status,TP,FP,FN,TN,precision,recall,f1,accuracy,"
            "synergy,efficiency,penalty,reward,service_time"
        )
        assert header == ",".join(METRICS_COLUMNS)

    def test_event_fields_golden(self, tmp_path):
        # a blind incumbent is released on its first evaluation and, the only
        # pool candidate, signed again into its role in the same cycle
        engine = Engine(small_config(cycles=1, roster_experts=(BLIND_EXPERT,),
                                     lifecycle=LifecycleConfig(sustain_window=1)))
        engine.run(tmp_path)
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert [(e["cycle"], e["kind"], e["agent"]) for e in events] == [
            (0, "Release", 0), (0, "Sign", 0)]
        for event in events:
            assert list(event) == ["cycle", "kind", "agent", "detail", "performance_snapshot"]

    def test_summary_phases_stop_at_the_end_of_the_run(self, tmp_path):
        # a segment that starts after the last cycle is no phase
        node = json.loads(json.dumps(MINIMAL))
        node["stream"]["total_cycles"] = 3
        node["stream"]["schedule"].append({"start_cycle": 10, "mixture": {"A": 1.0}})
        summary = Engine(parse_config(node)).run(tmp_path)
        (phase,) = summary["phases"]
        assert (phase["start_cycle"], phase["end_cycle"]) == (0, 2)
        assert phase["decided"] == sum(c["decided"] for c in summary["cycles"]) > 0

    def test_csv_floats_fixed_to_six_decimals(self, tmp_path):
        engine = Engine(small_config(cycles=1))
        engine.run(tmp_path)
        row = (tmp_path / "metrics.csv").read_text().splitlines()[1].split(",")
        assert all("." in cell and len(cell.split(".")[1]) == 6 for cell in row[7:15])

    def test_non_finite_scores_are_written_as_json_writes_them(self, tmp_path):
        # Finite weights that validate accepts, whose products overflow: the
        # incumbent's scores run to +-inf, and to NaN where the two meet.
        weights = (1e308, -1e308, 1e308, 0.0, 0.0, 0.0)
        node = config_to_dict(preset_config("section-4.4"))
        node["stream"]["total_cycles"] = 3
        node["output"]["emit_detections"] = True
        incumbent = node["roster"][0]
        threshold = incumbent["experts"][0]["threshold"]
        incumbent["experts"] = [
            {"profile": [1.0, 0.0, 0.0], "weights": list(weights), "threshold": threshold}
        ]
        cfg = parse_config(node)
        Engine(cfg).run(tmp_path)

        spc = cfg.stream.samples_per_cycle
        batches = [generate_cycle(cfg.stream, cycle) for cycle in range(3)]
        written = collections.Counter()
        for line in (tmp_path / "detections.jsonl").read_text().splitlines():
            seq, agent, shadow = (json.loads(line)[key] for key in ("seq", "agent", "shadow"))
            if agent != 0:
                continue
            cycle, row = divmod(seq, spc)
            score = 0.0  # one expert, summed from 0.0 one feature at a time
            for weight, x in zip(weights, batches[cycle].features[:, row].tolist()):
                score += weight * x
            verdict = score >= threshold
            assert line == json.dumps(
                {"seq": seq, "agent": 0, "verdict": verdict, "score": score, "shadow": shadow,
                 "action": "Block" if verdict and not shadow else "None"},
                separators=(",", ":"),
            )
            written[json.dumps(score) if not math.isfinite(score) else "finite"] += 1
        assert {"NaN", "Infinity", "-Infinity"} <= written.keys()


class TestSnapshots:
    def test_snapshot_round_trip_resumes_exactly(self, tmp_path):
        cfg = small_config(cycles=6)
        full = Engine(cfg)
        full_events = [e for _ in range(6) for e in full.run_cycle().events]

        half = Engine(cfg)
        for _ in range(3):
            half.run_cycle()
        snap = tmp_path / "snap.json"
        write_snapshot(half, snap)
        restored = restore_engine(snap)
        assert restored.cycle == 3
        restored_events = [e for _ in range(3) for e in restored.run_cycle().events]

        full_tail = [e for e in full_events if e.cycle >= 3]
        assert restored_events == full_tail
        assert restored.build_summary() == full.build_summary()
        assert {k: v.performance for k, v in restored.roster.items()} == {
            k: v.performance for k, v in full.roster.items()
        }
        assert {k: v.gate_weights for k, v in restored.roster.items()} == {
            k: v.gate_weights for k, v in full.roster.items()
        }

    def test_snapshot_of_empty_state_restorable(self, tmp_path):
        from freeagent.config import RunConfig

        cfg = small_config(cycles=2)
        empty = RunConfig(stream=cfg.stream, roles=cfg.roles, roster=(), pool=())
        engine = Engine(empty)
        snap = tmp_path / "empty.json"
        write_snapshot(engine, snap)
        restored = restore_engine(snap)
        assert restored.roster == {} and restored.pool == []
        restored.run_cycle()  # still runs

    def test_truncated_snapshot_refused(self, tmp_path):
        engine = Engine(small_config())
        snap = tmp_path / "snap.json"
        write_snapshot(engine, snap)
        snap.write_text(snap.read_text()[: snap.stat().st_size // 2])
        with pytest.raises(SnapshotError):
            restore_engine(snap)

    def test_snapshot_that_is_not_utf8_refused(self, tmp_path):
        snap = tmp_path / "snap.json"
        snap.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SnapshotError, match="snapshot corrupt at .*utf-8"):
            restore_engine(snap)

    def test_version_mismatch_refused(self, tmp_path):
        engine = Engine(small_config())
        snap = tmp_path / "snap.json"
        write_snapshot(engine, snap)
        node = json.loads(snap.read_text())
        # format 1 lacks the run totals, formats 1 and 2 repeat each agent's spec,
        # formats up to 3 drew each sample from its own stream, formats up to 4
        # stepped the gate once per decision, and format 5's event counts
        # include Evaluate and ServiceTick events: resumed now, such a run
        # would write other bytes than the run it came from
        for version in (1, 2, 3, 4, 5, 999):
            node["format_version"] = version
            snap.write_text(json.dumps(node))
            with pytest.raises(SnapshotError, match=f"snapshot format {version} != supported 6"):
                restore_engine(snap)

    def test_missing_snapshot_refused(self, tmp_path):
        with pytest.raises(SnapshotError, match="not found"):
            restore_engine(tmp_path / "absent.json")

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_write_keeps_previous_snapshot(self, tmp_path, monkeypatch, failing):
        engine = Engine(small_config())
        snap = tmp_path / "snap.json"
        write_snapshot(engine, snap)
        before = snap.read_bytes()
        engine.run_cycle()
        if failing == "write":
            real_write = Path.write_text

            def write_half(self, text, *args, **kwargs):
                real_write(self, text[: len(text) // 2], *args, **kwargs)
                raise OSError("disk full")

            monkeypatch.setattr(Path, "write_text", write_half)
        else:
            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_snapshot(engine, snap)
        monkeypatch.undo()
        assert snap.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_restored_engine_resnapshots_identical_bytes(self, tmp_path):
        # churn-like: a short service cap keeps agents moving between the
        # roster and a pool with a misbehaving, unreliable member
        node = json.loads(json.dumps(MINIMAL))
        node["stream"].update(samples_per_cycle=30, total_cycles=8)
        node["lifecycle"] = {
            "max_service_time": 2, "sustain_window": 1, "keep_service_time_on_resign": False,
        }
        node["output"] = {"snapshot_interval": 1}
        node["pool"] = [
            dict(node["roster"][0], handoff_reliability=0.7, misbehaving=i == 1, service_time=i)
            for i in range(3)
        ]
        out = tmp_path / "out"
        Engine(parse_config(node)).run(out)
        snaps = sorted((out / "snapshots").glob("*.json"))
        assert len(snaps) == 8
        probation_seen = False
        for snap in snaps:
            again = tmp_path / "again.json"
            write_snapshot(restore_engine(snap), again)
            assert again.read_bytes() == snap.read_bytes(), snap.name
            probation_seen |= any(
                a["status"] == "Probationary" for a in json.loads(snap.read_text())["roster"]
            )
        assert probation_seen

    def test_resume_after_transitions_writes_identical_summary_and_snapshots(self, tmp_path):
        # churn-like: resume from a snapshot taken after a Release, a Sign and
        # a Promote, so key_cycles and event_counts reach back before the resume
        node = json.loads(json.dumps(MINIMAL))
        node["stream"].update(samples_per_cycle=30, total_cycles=12)
        node["lifecycle"] = {"max_service_time": 3, "sustain_window": 1}
        node["output"] = {"snapshot_interval": 1}
        node["pool"] = [dict(node["roster"][0], handoff_reliability=0.8) for _ in range(2)]
        node["roster"][0]["experts"] = [  # blind incumbent, released at once
            {"profile": [1.0, 0.0, 0.0], "weights": [0, 0, 0, 0, 0, 0], "threshold": 1.0}
        ]
        full = tmp_path / "full"
        Engine(parse_config(node)).run(full)
        summary = json.loads((full / "summary.json").read_text())
        assert None not in summary["key_cycles"].values()
        resume_at = max(summary["key_cycles"].values()) + 1
        assert resume_at < 12

        resumed = tmp_path / "resumed"
        restore_engine(full / "snapshots" / f"state_cycle_{resume_at:04d}.json").run(resumed)
        assert (resumed / "summary.json").read_bytes() == (full / "summary.json").read_bytes()
        later = sorted(p.name for p in (resumed / "snapshots").glob("*.json"))
        assert later == [f"state_cycle_{c:04d}.json" for c in range(resume_at + 1, 13)]
        for name in later:
            assert (resumed / "snapshots" / name).read_bytes() == (
                full / "snapshots" / name
            ).read_bytes(), name

    def test_resume_keeps_a_mixture_order_that_first_use_would_break(self, tmp_path):
        # the first segment uses only B, so listing patterns by first use
        # would turn the A/B mixture into B/A and change every later sample
        node = json.loads(json.dumps(MINIMAL))
        node["stream"]["total_cycles"] = 3
        node["stream"]["patterns"].append(
            dict(node["stream"]["patterns"][0], name="B", fraud_shift={"1": 4.0})
        )
        node["stream"]["schedule"] = [
            {"start_cycle": 0, "mixture": {"B": 1.0}},
            {"start_cycle": 1, "mixture": {"A": 0.25, "B": 0.75}},
        ]
        node["output"] = {"snapshot_interval": 1}
        cfg = parse_config(node)
        assert parse_config(config_to_dict(cfg)) == cfg
        Engine(cfg).run(tmp_path / "full")
        restore_engine(tmp_path / "full" / "snapshots" / "state_cycle_0001.json").run(
            tmp_path / "resumed"
        )
        for name in ("summary.json", "snapshots/state_cycle_0003.json"):
            assert (tmp_path / "resumed" / name).read_bytes() == (
                tmp_path / "full" / name
            ).read_bytes(), name

    def test_snapshot_holds_exactly_the_engine_state(self, tmp_path):
        engine = Engine(small_config(pool_specs=small_config().roster))
        engine.run_cycle()
        snap = tmp_path / "snap.json"
        write_snapshot(engine, snap)
        text = snap.read_text()
        node = json.loads(text)
        assert sorted(node) == ["config", "format_version", "next_cycle", "pool", "roster", "totals"]
        assert sorted(node["totals"]) == ["cycles", "event_counts", "key_cycles"]
        # an agent is its spec, which the config holds, plus this state
        state = ["consecutive_below", "gate_weights", "id", "performance", "service_time",
                 "status"]
        assert node["roster"] and node["pool"]
        assert all(sorted(a) == state for a in node["roster"] + node["pool"])
        # the keys are the dataclass fields, spelled nowhere else
        assert state == sorted(f.name for f in fields(Agent) if f.name != "spec")
        assert sorted(node["totals"]) == sorted(f.name for f in fields(RunTotals))
        assert text == json.dumps(node, separators=(",", ":"), sort_keys=True) + "\n"

    def test_restore_refuses_a_snapshot_past_the_end_of_its_run(self, tmp_path, capsys):
        # a finished 2-cycle run, edited to a third cycle its totals cover
        engine = Engine(small_config(cycles=2))
        engine.run_cycle()
        engine.run_cycle()
        snap = tmp_path / "snap.json"
        write_snapshot(engine, snap)
        node = json.loads(snap.read_text())
        node["next_cycle"] = 3
        node["totals"]["cycles"].append(node["totals"]["cycles"][-1])
        snap.write_text(json.dumps(node))
        out = tmp_path / "out"
        assert main(["run", "--restore", str(snap), "--out", str(out)]) == 2
        assert "snap.json.next_cycle" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_restore_flow(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        node = json.loads(json.dumps(MINIMAL))
        node["stream"]["total_cycles"] = 4
        node["output"] = {"snapshot_interval": 2}
        cfg_path.write_text(json.dumps(node))
        out1 = tmp_path / "out1"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        snap = out1 / "snapshots" / "state_cycle_0002.json"
        assert snap.exists()
        out2 = tmp_path / "out2"
        assert main(["run", "--restore", str(snap), "--out", str(out2)]) == 0
        full_events = [
            json.loads(line)
            for line in (out1 / "events.jsonl").read_text().splitlines()
            if json.loads(line)["cycle"] >= 2
        ]
        resumed_events = [
            json.loads(line) for line in (out2 / "events.jsonl").read_text().splitlines()
        ]
        assert resumed_events == full_events

    @pytest.mark.parametrize("override", [
        ["--config", "cfg.json"], ["--preset", "section-4.4"], ["--seed", "0"],
        ["--emit-detections"],
    ])
    def test_cli_restore_rejects_overrides(self, tmp_path, capsys, override):
        # the restored run would ignore them, or embed them in later snapshots
        engine = Engine(small_config(cycles=2))
        engine.run_cycle()
        snap = tmp_path / "snap.json"
        write_snapshot(engine, snap)
        out = tmp_path / "out"
        assert main(["run", "--restore", str(snap), *override, "--out", str(out)]) == 2
        assert f"{override[0]} cannot be combined with --restore" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_restore_refuses_gate_weights_whose_total_overflows(self, tmp_path, capsys):
        # each weight is finite, their total is not: the gate cannot renormalize
        engine = Engine(small_config(roster_experts=(GOOD_EXPERT,) * 3))
        engine.run_cycle()
        snap = tmp_path / "snap.json"
        write_snapshot(engine, snap)
        node = json.loads(snap.read_text())
        node["roster"][0]["gate_weights"] = [1e308, 1e308, 1e308]
        snap.write_text(json.dumps(node))
        out = tmp_path / "out"
        assert main(["run", "--restore", str(snap), "--out", str(out)]) == 2
        assert "snap.json.roster[0].gate_weights: gate weights must add up" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key,value,named", [
        # an agent entry holds its state only; an old spec key is unknown
        pytest.param("roster.0.skills", ["fraud"], "snap.json.roster[0]: unknown keys ['skills']",
                     id="old_spec_key"),
        pytest.param("roster.0.skills", "fraud", "snap.json.roster[0]: unknown keys",
                     id="skills_string"),
        pytest.param("roster.0.role", "Other", "snap.json.roster[0]: unknown keys ['role']",
                     id="role_other"),
        pytest.param("pool.0.handoff_reliability", math.nan, "snap.json.pool[0]: unknown keys",
                     id="handoff_reliability_nan"),
        pytest.param("pool.0.cost_per_sample", -1.0, "snap.json.pool[0]: unknown keys",
                     id="cost_per_sample_negative"),
        pytest.param("roster.0.extra", 1, "snap.json.roster[0]: unknown keys ['extra']",
                     id="unknown_key"),
        pytest.param("roster.0.performance", None,
                     "snap.json.roster[0]: missing required key 'performance'", id="missing_key"),
        # counts are JSON integers >= 0
        pytest.param("roster.0.id", 0.0, "snap.json.roster[0].id", id="id_float"),
        pytest.param("pool.0.id", -1, "snap.json.pool[0].id", id="id_negative"),
        pytest.param("roster.0.service_time", "3", "snap.json.roster[0].service_time",
                     id="service_time_text"),
        pytest.param("roster.0.service_time", -1, "snap.json.roster[0].service_time",
                     id="service_time_negative"),
        pytest.param("roster.0.consecutive_below", True, "snap.json.roster[0].consecutive_below",
                     id="consecutive_below_bool"),
        pytest.param("roster.0.consecutive_below", -2, "snap.json.roster[0].consecutive_below",
                     id="consecutive_below_negative"),
        # performance is a finite number in [0, 1]
        pytest.param("roster.0.performance", "0.9", "snap.json.roster[0].performance",
                     id="performance_text"),
        pytest.param("roster.0.performance", math.nan, "snap.json.roster[0].performance",
                     id="performance_nan"),
        pytest.param("roster.0.performance", 1.5, "snap.json.roster[0].performance",
                     id="performance_above_one"),
        # the gate weights must fit the experts of the spec at the agent's id
        pytest.param("roster.0.gate_weights", [0.5, 0.5],
                     "snap.json.roster[0].gate_weights: expected one weight per expert (1), got 2",
                     id="gate_weights_long"),
        pytest.param("roster.0.gate_weights", [-1.0], "snap.json.roster[0].gate_weights: gate",
                     id="gate_weights_negative"),
        pytest.param("roster.0.gate_weights", [0.0], "snap.json.roster[0].gate_weights: gate",
                     id="gate_weights_zero"),
        pytest.param("roster.0.gate_weights", ["1"], "snap.json.roster[0].gate_weights",
                     id="gate_weights_text"),
        # ids are spec order: 0..n-1, each once, and a status fits the list
        pytest.param("pool.0.id", 0, "snap.json: roster and pool ids", id="id_in_roster_and_pool"),
        pytest.param("pool", [], "snap.json: roster and pool ids", id="id_missing"),
        pytest.param("pool.0.id", 2, "snap.json: roster and pool ids", id="id_without_spec"),
        pytest.param("roster.0.status", "Released", "snap.json.roster[0].status",
                     id="roster_agent_released"),
        pytest.param("pool.0.status", "Active", "snap.json.pool[0].status",
                     id="pool_agent_active"),
        pytest.param("pool.0.status", "Other", "snap.json.pool[0].status", id="status_unknown"),
        # a cycle's totals are four integers and a bool
        pytest.param("totals.cycles.0", "x", "snap.json.totals.cycles[0]", id="cycle_text"),
        pytest.param("totals.cycles.0", [1, 2, 3, 4], "snap.json.totals.cycles[0]",
                     id="cycle_short"),
        pytest.param("totals.cycles.0", [1, 2, 3, 4.0, False], "snap.json.totals.cycles[0][3]",
                     id="cycle_count_float"),
        pytest.param("totals.cycles.0", [1, 2, 3, 4, 0], "snap.json.totals.cycles[0][4]",
                     id="cycle_stalled_number"),
        # the rest of the totals and the cycle count are checked too
        pytest.param("totals.event_counts.Bogus", 1, "snap.json.totals.event_counts",
                     id="event_count_unknown_kind"),
        pytest.param("totals.event_counts.Sign", "1", "snap.json.totals.event_counts.Sign",
                     id="event_count_text"),
        pytest.param("totals.key_cycles.first_sign", None,
                     "snap.json.totals.key_cycles: missing required key 'first_sign'",
                     id="key_cycle_missing"),
        pytest.param("next_cycle", "1", "snap.json.next_cycle", id="next_cycle_text"),
        pytest.param("next_cycle", 2, "snap.json: totals cover 1 cycles, not 2",
                     id="next_cycle_past_the_totals"),
        # a snapshot lies within its run: a cycle it names is one the run has had
        pytest.param("next_cycle", 3, "snap.json.next_cycle: expected a cycle in [0, 2], got 3",
                     id="next_cycle_past_the_run"),
        pytest.param("totals.key_cycles.first_release", 99,
                     "snap.json.totals.key_cycles.first_release: expected a cycle in [0, 0], got 99",
                     id="key_cycle_past_the_totals"),
    ])
    def test_cli_restore_rejects_a_bad_snapshot(self, tmp_path, capsys, key, value, named):
        # one Active roster agent and one Released pool agent, after a cycle
        engine = Engine(small_config(cycles=2, pool_specs=small_config().roster))
        engine.run_cycle()
        snap = tmp_path / "snap.json"
        write_snapshot(engine, snap)
        node = json.loads(snap.read_text())
        *parents, last = (int(part) if part.isdigit() else part for part in key.split("."))
        entry = node
        for part in parents:
            entry = entry[part]
        if value is None:
            del entry[last]
        else:
            entry[last] = value
        snap.write_text(json.dumps(node))
        out = tmp_path / "out"
        assert main(["run", "--restore", str(snap), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_append_only_outputs(tmp_path):
    # earlier bytes never change while the run appends
    cfg = small_config(cycles=3)
    engine = Engine(cfg)
    out = tmp_path / "run"
    engine.run(out)
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # header plus one row per cycle
    cycles = [int(line.split(",")[0]) for line in lines[1:]]
    assert cycles == sorted(cycles)
