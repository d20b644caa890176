"""Tests for scenario configuration, the run harness, and the CLI."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucircle.cli import main
from ucircle.geometry import Point, dist
from ucircle.harness import (
    ALGORITHMS,
    EXIT_CODES,
    SCHEDULERS,
    ConfigError,
    InfeasibleScenario,
    RunSummary,
    _ring_metrics,
    curated_local_configs,
    curated_placement,
    curated_rad,
    exit_code_for,
    generate_scenario,
    nonuniform_variant,
    parse_config,
    run_scenario,
)

P = Point


def base_global(**over):
    raw = {
        "algorithm": "global",
        "n": 4,
        "a": 4.0,
        "scheduler": "SSYNC",
        "seed": 1,
        "placement": "random-disc",
    }
    raw.update(over)
    return raw


def base_local(**over):
    raw = {
        "algorithm": "local",
        "n": 4,
        "rad": 24.0,
        "vis": 24.0,
        "scheduler": "ASYNC",
        "seed": 1,
        "placement": "random-disc",
    }
    raw.update(over)
    return raw


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


class TestParseConfig:
    def test_valid_global(self):
        cfg = parse_config(base_global())
        assert cfg.algorithm == "global"
        assert cfg.cycle_budget == 800
        assert cfg.fairness == 4  # SSYNC default: n

    def test_valid_local_defaults(self):
        cfg = parse_config(base_local())
        assert cfg.fairness == 12  # ASYNC default: 3n

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_global(extra=1))

    def test_missing_key_rejected(self):
        raw = base_global()
        del raw["seed"]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError):
            parse_config(base_global(algorithm="teleport"))

    def test_bad_n(self):
        for n in (1, 0, -2, 2.5, True):
            with pytest.raises(ConfigError):
                parse_config(base_global(n=n))

    def test_global_spacing_too_small(self):
        with pytest.raises(ConfigError):
            parse_config(base_global(a=3.0))

    def test_global_rejects_local_fields(self):
        with pytest.raises(ConfigError):
            parse_config(base_global(rad=10.0))
        with pytest.raises(ConfigError):
            parse_config(base_global(vis=5.0))

    def test_local_requires_rad_and_vis(self):
        raw = base_local()
        del raw["vis"]
        with pytest.raises(ConfigError):
            parse_config(raw)
        raw = base_local()
        del raw["rad"]
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("placement", ["random-disc", [[0, 0], [3, 0], [0, 3]]])
    def test_local_rad_too_small_for_n(self, placement):
        # 2*pi*0.3/3 < 2: three unit discs cannot sit two units apart on CIR.
        with pytest.raises(ConfigError, match="cannot space 3"):
            parse_config(base_local(n=3, rad=0.3, vis=1.0, placement=placement))

    def test_local_rejects_global_field(self):
        with pytest.raises(ConfigError):
            parse_config(base_local(a=4.0))

    def test_vis_list_length_checked(self):
        with pytest.raises(ConfigError):
            parse_config(base_local(vis=[8.0, 8.0]))
        cfg = parse_config(base_local(vis=[8.0, 9.0, 10.0, 11.0]))
        assert cfg.vis == (8.0, 9.0, 10.0, 11.0)

    def test_explicit_placement(self):
        pts = [[0, 0], [5, 0], [0, 5], [5, 5]]
        cfg = parse_config(base_local(placement=pts))
        assert cfg.placement == (P(0, 0), P(5, 0), P(0, 5), P(5, 5))

    def test_overlapping_placement_rejected(self):
        pts = [[0, 0], [1.5, 0], [0, 5], [5, 5]]
        with pytest.raises(ConfigError):
            parse_config(base_local(placement=pts))

    def test_placement_count_mismatch(self):
        with pytest.raises(ConfigError):
            parse_config(base_local(placement=[[0, 0], [5, 0]]))

    def test_bad_placement_mode(self):
        with pytest.raises(ConfigError):
            parse_config(base_global(placement="grid"))

    def test_bad_budget_and_fairness(self):
        with pytest.raises(ConfigError):
            parse_config(base_global(max_cycles=0))
        with pytest.raises(ConfigError):
            parse_config(base_global(fairness_bound=0))

    @pytest.mark.parametrize(
        "raw",
        [
            base_global(max_cycles=True),
            base_global(fairness_bound=True),
            base_local(rad=True),
            base_local(vis=True),
            base_local(vis=[8.0, True, 10.0, 11.0]),
            base_local(placement=[[0, 0], [5, 0], [0, 5], [5, True]]),
        ],
    )
    def test_booleans_are_not_numbers(self, raw):
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: base_global(a=x),
            lambda x: base_local(rad=x),
            lambda x: base_local(vis=x),
            lambda x: base_local(vis=[8.0, 9.0, x, 11.0]),
            lambda x: base_local(placement=[[0, 0], [5, 0], [x, 5], [5, 5]]),
            lambda x: base_global(placement=[[0, 0], [5, 0], [0, 5], [5, x]]),
        ],
    )
    def test_non_finite_numbers_rejected(self, make, bad):
        with pytest.raises(ConfigError):
            parse_config(make(bad))

    def test_placement_coordinates_must_be_numbers(self):
        for item in (["0", 5], [None, 5], [10**400, 5]):
            with pytest.raises(ConfigError):
                parse_config(base_local(placement=[[0, 0], [5, 0], item, [5, 5]]))


# Wrong types, booleans, non-finite numbers and short lists.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.floats(-30, 30), max_size=3),
)


@st.composite
def raw_configs(draw):
    """A valid config for n <= 6 and at most 10 cycles, with up to two
    fields replaced by junk."""
    n = draw(st.integers(2, 6))
    coords = st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=3)
    modes = st.sampled_from(("random-disc", "random-annulus"))
    raw = {
        "algorithm": draw(st.sampled_from(ALGORITHMS)),
        "n": n,
        "scheduler": draw(st.sampled_from(SCHEDULERS)),
        "seed": draw(st.integers(0, 50)),
        "max_cycles": draw(st.integers(1, 10)),
        "placement": draw(st.one_of(modes, st.lists(coords, min_size=n - 1, max_size=n))),
    }
    if raw["algorithm"] == "global":
        raw["a"] = draw(st.floats(3.5, 8.0))
    else:
        raw["rad"] = draw(st.floats(0.0, 60.0))
        radii = st.floats(0.0, 60.0)
        raw["vis"] = draw(st.one_of(radii, st.lists(radii, min_size=n - 1, max_size=n)))
    if draw(st.booleans()):
        raw["fairness_bound"] = draw(st.integers(1, 6))
    keys = sorted(set(raw) | {"a", "rad", "vis", "fairness_bound"})
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        raw[key] = draw(JUNK)
    return raw


@settings(max_examples=200, deadline=None, database=None)
@given(raw=raw_configs())
def test_parse_config_rejects_or_runs_to_an_outcome(raw):
    try:
        trace, summary = run_scenario(parse_config(raw))
    except (ConfigError, InfeasibleScenario):
        return
    assert summary.outcome in EXIT_CODES
    line = summary.to_json_line()
    assert json.loads(line, parse_constant=pytest.fail)["outcome"] == trace.outcome


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------


class TestGenerateScenario:
    def test_deterministic(self):
        cfg = parse_config(base_global(seed=42))
        w1 = generate_scenario(cfg)
        w2 = generate_scenario(cfg)
        assert w1 == w2

    def test_seed_changes_layout(self):
        w1 = generate_scenario(parse_config(base_global(seed=1)))
        w2 = generate_scenario(parse_config(base_global(seed=2)))
        assert w1.positions != w2.positions

    def test_initial_clearance(self):
        for seed in range(10):
            w = generate_scenario(parse_config(base_local(seed=seed)))
            pts = w.positions
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert dist(pts[i], pts[j]) >= 2.1

    def test_annulus_placement_bounds(self):
        cfg = parse_config(base_local(placement="random-annulus", seed=3))
        for pos in generate_scenario(cfg).positions:
            d = dist(pos, P(0, 0))
            assert 0.5 * 24.0 - 1e-9 <= d <= 1.5 * 24.0 + 1e-9

    def test_explicit_placement_used_verbatim(self):
        pts = [[0, 0], [5, 0], [0, 5], [5, 5]]
        w = generate_scenario(parse_config(base_local(placement=pts)))
        assert w.positions == (P(0, 0), P(5, 0), P(0, 5), P(5, 5))

    def test_visibility_assignment(self):
        cfg = parse_config(base_local(vis=[8.0, 9.0, 10.0, 11.0]))
        w = generate_scenario(cfg)
        assert [r.vis_radius for r in w.robots] == [8.0, 9.0, 10.0, 11.0]


# ---------------------------------------------------------------------------
# Metrics and summaries
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_perfect_ring(self):
        n, r = 6, 5.0
        pts = [
            P(r * math.cos(2 * math.pi * i / n), r * math.sin(2 * math.pi * i / n))
            for i in range(n)
        ]
        uerr, smin = _ring_metrics(pts, P(0, 0), n)
        assert uerr <= 1e-12
        assert abs(smin - 2 * r * math.sin(math.pi / n)) <= 1e-9

    def test_angular_displacement_detected(self):
        n, r = 4, 5.0
        delta = 1e-3
        pts = [P(0, r), P(r, 0), P(0, -r), P(-r * math.cos(delta), r * math.sin(delta))]
        uerr, _ = _ring_metrics(pts, P(0, 0), n)
        assert abs(uerr - delta) <= 1e-6

    def test_summary_line_refuses_non_finite_values(self):
        s = RunSummary("fault", 3, math.inf, 0.0, 4.25, "")
        with pytest.raises(ValueError):
            s.to_json_line()

    def test_summary_line_round_trips(self):
        s = RunSummary("converged", 17, 2.0000001, 1e-8, 4.25, "")
        rec = json.loads(s.to_json_line())
        assert rec["outcome"] == "converged"
        assert rec["cycles_used"] == 17
        assert rec["spacing_min"] == 4.25


# ---------------------------------------------------------------------------
# Full scenario runs
# ---------------------------------------------------------------------------


class TestRunScenario:
    def test_global_run_converges(self):
        trace, summary = run_scenario(parse_config(base_global(seed=5)))
        assert summary.outcome == "converged"
        assert summary.uniformity_error < 1e-6
        assert summary.spacing_min >= 4.0 - 1e-6
        assert summary.min_pairwise_dist >= 2.0 - 1e-9
        assert exit_code_for(trace) == 0

    def test_local_run_converges(self):
        cfg = parse_config(base_local(seed=5, max_cycles=800, fairness_bound=12))
        trace, summary = run_scenario(cfg)
        assert summary.outcome == "converged"
        assert summary.min_pairwise_dist >= 2.0 - 1e-9

    def test_rerun_byte_identical(self):
        cfg = parse_config(base_local(seed=9))
        t1, s1 = run_scenario(cfg)
        t2, s2 = run_scenario(cfg)
        assert t1.to_jsonl() == t2.to_jsonl()
        assert s1.to_json_line() == s2.to_json_line()


# ---------------------------------------------------------------------------
# Curated suite helpers
# ---------------------------------------------------------------------------


class TestCuratedSuite:
    def test_thirty_shapes_per_seed(self):
        assert len(curated_local_configs((1,))) == 30
        assert len(curated_local_configs((1, 2))) == 60

    def test_all_configs_parse(self):
        for raw in curated_local_configs((1,)):
            cfg = parse_config(raw)
            assert cfg.scheduler == "ASYNC"
            assert cfg.fairness == 3 * cfg.n

    def test_placement_clearance(self):
        for kind in ("inside", "outside", "mixed", "center", "contention"):
            for n in (4, 6, 8):
                rad = curated_rad(n)
                pts = [P(x, y) for x, y in curated_placement(kind, n, rad)]
                for i in range(len(pts)):
                    for j in range(i + 1, len(pts)):
                        assert dist(pts[i], pts[j]) >= 2.0, (kind, n, i, j)

    def test_nonuniform_variant_bounds(self):
        raw = curated_local_configs((1,))[0]
        var = nonuniform_variant(raw)
        assert var["algorithm"] == "local-nonuniform"
        assert len(var["vis"]) == raw["n"]
        for v in var["vis"]:
            assert raw["rad"] / 3.0 <= v <= raw["rad"]

    def test_nonuniform_variant_deterministic(self):
        raw = curated_local_configs((3,))[5]
        assert nonuniform_variant(raw) == nonuniform_variant(raw)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def write_config(self, tmp_path, raw, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        return str(path)

    def test_run_success(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_global(seed=5))
        trace = tmp_path / "out.jsonl"
        summary = tmp_path / "summary.json"
        code = main(
            ["run", "--config", cfg, "--trace", str(trace), "--summary", str(summary)]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert json.loads(printed)["outcome"] == "converged"
        assert summary.read_text().strip() == printed
        lines = trace.read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert {"clock", "cycle", "robot", "phase", "x", "y"} <= set(rec)

    def test_run_invalid_config(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_global(a=2.0))
        assert main(["run", "--config", cfg]) == 1
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '"a": Infinity',
            '"a": 4.0, "max_cycles": true',
            '"a": 4.0, "placement": [[0, 0], [5, 0], [NaN, 5], [5, 5]]',
        ],
    )
    def test_run_rejects_non_finite_and_boolean_json(self, tmp_path, capsys, text):
        # Python's json module reads NaN, Infinity and true as numbers.
        raw = '{"algorithm": "global", "n": 4, "scheduler": "SSYNC", "seed": 1'
        if "placement" not in text:
            raw += ', "placement": "random-disc"'
        path = tmp_path / "bad.json"
        path.write_text(raw + ", " + text + "}")
        assert main(["run", "--config", str(path)]) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_run_rad_too_small_for_n(self, tmp_path, capsys):
        raw = base_local(n=3, rad=0.3, vis=1.0, placement=[[0, 0], [3, 0], [0, 3]])
        assert main(["run", "--config", self.write_config(tmp_path, raw)]) == 1
        assert capsys.readouterr().err.startswith("invalid config:")

    @pytest.mark.parametrize("body", [b"{not json", b'{"algorithm": "gl\xffobal"}'])
    def test_run_unreadable_config(self, tmp_path, capsys, body):
        path = tmp_path / "bad.json"
        path.write_bytes(body)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("invalid config:")

    def test_run_missing_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_run_frames(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_local(seed=5))
        frames = tmp_path / "frames"
        code = main(["run", "--config", cfg, "--frames", str(frames), "--every", "20"])
        assert code == 0
        names = sorted(p.name for p in frames.iterdir())
        assert "frame-initial.svg" in names
        assert "frame-final.svg" in names
        for name in names:
            body = (frames / name).read_text()
            assert "<svg" in body and body.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("algorithm", ["global", "local", "local-nonuniform"])
    def test_run_frames_draw_each_robots_visibility(self, tmp_path, capsys, algorithm):
        # Global robots see everything: no visibility circle. Local robots
        # get one dashed circle each, with the robot's own radius.
        if algorithm == "global":
            raw = base_global(seed=5)
        else:
            raw = curated_local_configs(seeds=(1,))[0]
            if algorithm == "local-nonuniform":
                raw = nonuniform_variant(raw)
        frames = tmp_path / "frames"
        argv = ["run", "--config", self.write_config(tmp_path, raw), "--frames", str(frames)]
        assert main(argv + ["--every", "3"]) == 0
        if algorithm == "global":
            want = []
        elif algorithm == "local":
            want = [raw["vis"]] * raw["n"]
        else:
            want = raw["vis"]
        names = sorted(p.name for p in frames.iterdir())
        assert len(names) > 2
        for name in names:
            dashed = [
                line
                for line in (frames / name).read_text().splitlines()
                if "stroke-dasharray" in line
            ]
            assert [line.split('r="')[1].split('"')[0] for line in dashed] == [
                f"{v:.6f}" for v in want
            ]

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_run_every_must_be_positive(self, tmp_path, capsys, every):
        cfg = self.write_config(tmp_path, base_local(seed=5))
        summary = tmp_path / "summary.json"
        argv = ["run", "--config", cfg, "--summary", str(summary)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--frames", str(tmp_path / "frames"), "--every", every])
        assert exc.value.code == 1
        assert "--every: must be a positive integer" in capsys.readouterr().err
        assert not summary.exists()

    def test_missing_argument_is_invalid_input(self, capsys):
        # Exit 2 is budget-exhausted; a bad command line is invalid input.
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 1
        assert "--config" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--trace", "--summary", "--frames"])
    def test_run_unwritable_output(self, tmp_path, capsys, flag):
        cfg = self.write_config(tmp_path, base_global(seed=5))
        # A path under a missing directory; for --frames, an existing file.
        target = tmp_path / "missing" / "out" if flag != "--frames" else tmp_path / "taken"
        if flag == "--frames":
            target.write_text("")
        assert main(["run", "--config", cfg, flag, str(target)]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("cannot write output:")
        assert len(printed.err.splitlines()) == 1

    def test_run_unwritable_output_leaves_nothing_behind(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_global(seed=5))
        trace, summary, frames = tmp_path / "t.jsonl", tmp_path / "s.json", tmp_path / "fr"
        frames.write_text("")
        argv = ["--trace", str(trace), "--summary", str(summary), "--frames", str(frames)]
        assert main(["run", "--config", cfg] + argv) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("cannot write output:")
        assert len(printed.err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fr", "scenario.json"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_unwritable_file_output(self, tmp_path, capsys, jobs):
        # a's summary path is a directory: its trace, already written, is
        # removed again, and b still runs.
        confs = tmp_path / "confs"
        confs.mkdir()
        (confs / "a.json").write_text(json.dumps(base_global(seed=5)))
        (confs / "b.json").write_text(json.dumps(base_global(seed=5)))
        out = tmp_path / "out"
        (out / "a.summary.json").mkdir(parents=True)
        code = main(["batch", "--configs", str(confs), "--out", str(out), "--jobs", jobs])
        assert code == 1
        printed = capsys.readouterr()
        assert printed.out == "b: converged\n"
        assert printed.err.startswith("a: cannot write output:")
        assert len(printed.err.splitlines()) == 1
        produced = sorted(p.name for p in out.iterdir())
        assert produced == ["a.summary.json", "b.summary.json", "b.trace.jsonl"]
        assert not any((out / "a.summary.json").iterdir())

    def test_batch_unreadable_configs_or_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["batch", "--configs", str(tmp_path / "nope"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot read configs:") and len(err.splitlines()) == 1
        assert not out.exists()
        confs = tmp_path / "confs"
        confs.mkdir()
        (confs / "a.json").write_text(json.dumps(base_global(seed=5)))
        out.write_text("")
        assert main(["batch", "--configs", str(confs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write output:") and len(err.splitlines()) == 1

    def test_batch(self, tmp_path, capsys):
        confs = tmp_path / "confs"
        confs.mkdir()
        (confs / "a.json").write_text(json.dumps(base_global(seed=5)))
        (confs / "b.json").write_text(json.dumps(base_local(seed=5)))
        out = tmp_path / "out"
        code = main(["batch", "--configs", str(confs), "--out", str(out)])
        assert code == 0
        produced = sorted(p.name for p in out.iterdir())
        assert produced == [
            "a.summary.json",
            "a.trace.jsonl",
            "b.summary.json",
            "b.trace.jsonl",
        ]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_isolates_invalid_files(self, tmp_path, capsys, jobs):
        confs = tmp_path / "confs"
        confs.mkdir()
        (confs / "a.json").write_text(json.dumps(base_local(n=3, rad=0.3, vis=1.0)))
        (confs / "b.json").write_text(json.dumps(base_global(seed=5)))
        (confs / "c.json").write_bytes(b'{"algorithm": "gl\xffobal"}')
        out = tmp_path / "out"
        code = main(["batch", "--configs", str(confs), "--out", str(out), "--jobs", jobs])
        assert code == 1
        assert sorted(p.name for p in out.iterdir()) == ["b.summary.json", "b.trace.jsonl"]
        printed = capsys.readouterr()
        assert printed.out == "b: converged\n"
        err = printed.err.splitlines()
        assert [line.split(":")[:2] for line in err] == [
            ["a", " invalid-config"],
            ["c", " invalid-config"],
        ]
        assert "cannot space 3" in err[0]

    def test_batch_worst_code_wins_over_invalid(self, tmp_path, capsys):
        confs = tmp_path / "confs"
        confs.mkdir()
        (confs / "a.json").write_text("[]")
        (confs / "b.json").write_text(json.dumps(base_global(seed=49, n=6, a=5.0, max_cycles=5)))
        code = main(["batch", "--configs", str(confs), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().out == "b: budget-exhausted\n"

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_batch_jobs_must_be_positive(self, tmp_path, capsys, jobs):
        confs = tmp_path / "confs"
        confs.mkdir()
        (confs / "a.json").write_text(json.dumps(base_global(seed=5)))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--configs", str(confs), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 1
        assert "--jobs: must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_empty_dir(self, tmp_path, capsys):
        confs = tmp_path / "confs"
        confs.mkdir()
        assert main(["batch", "--configs", str(confs), "--out", str(tmp_path / "o")]) == 1

    def test_oracle_sec(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[0, 0], [2, 0], [0, 2]]))
        assert main(["oracle", "sec", "--points", str(pts)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert abs(rec["radius"] - math.sqrt(2)) <= 1e-9
        assert abs(rec["center"][0] - 1.0) <= 1e-9
        assert abs(rec["center"][1] - 1.0) <= 1e-9

    def test_oracle_sec_bad_file(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        pts.write_text("[]")
        assert main(["oracle", "sec", "--points", str(pts)]) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "[[NaN, 0], [1, 1]]",
            "[[0, Infinity], [1, 1]]",
            "[[1e999, 0]]",
            "[[1" + "0" * 400 + ", 0]]",
            '["12", "34"]',
            "[[true, false], [3, 3]]",
            "[[1, 2, 3]]",
            "7",
        ],
        ids=["nan", "infinity", "float-overflow", "int-overflow", "strings", "booleans",
             "triple", "not-a-list"],
    )
    def test_oracle_sec_rejects_bad_points(self, tmp_path, capsys, text):
        pts = tmp_path / "pts.json"
        pts.write_text(text)
        assert main(["oracle", "sec", "--points", str(pts)]) == 1
        assert capsys.readouterr().err.startswith("invalid points file")
