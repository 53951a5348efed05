"""CLI tests (argument parsing and end-to-end subcommands)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.workloads import get_kernel

from oracle import PipelineSimulator


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["sta"])
        assert args.variant == "critical_range"
        assert args.voltage == 0.70

    def test_evaluate_options(self):
        args = build_parser().parse_args(
            ["evaluate", "crc32", "--policy", "genie", "--margin", "5"]
        )
        assert args.policy == "genie"
        assert args.margin == 5.0

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "crc32", "fib", "--policy", "instruction",
             "--policy", "genie", "--margin", "0", "--margin", "10",
             "--check-safety"]
        )
        assert args.programs == ["crc32", "fib"]
        assert args.policy == ["instruction", "genie"]
        assert args.margin == [0.0, 10.0]
        assert args.check_safety


class TestCommands:
    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "crc32" in out and "matmult" in out

    def test_asm_kernel(self, capsys):
        assert main(["asm", "fib"]) == 0
        out = capsys.readouterr().out
        assert "l.addi" in out

    def test_asm_file(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text("l.addi r1, r0, 7\nl.nop 0x1\n")
        assert main(["asm", str(source)]) == 0
        assert "l.addi r1,r0,7" in capsys.readouterr().out

    def test_run_kernel(self, capsys):
        assert main(["run", "fib", "--regs"]) == 0
        out = capsys.readouterr().out
        assert "CPI" in out and "r11" in out

    def test_run_reports_the_oracle_cycle_count(self, capsys):
        reference = PipelineSimulator(
            get_kernel("fib").program(), spec="nofwd6"
        ).run()
        assert main(["run", "fib", "--pipeline-spec", "nofwd6"]) == 0
        out = capsys.readouterr().out
        assert (f"{reference.num_retired} instructions, "
                f"{reference.num_cycles} cycles "
                f"(CPI {reference.cpi:.3f})") in out

    def test_sta(self, capsys):
        assert main(["sta"]) == 0
        out = capsys.readouterr().out
        assert "2026" in out

    def test_sta_conventional(self, capsys):
        assert main(["sta", "--variant", "conventional"]) == 0
        assert "1859" in capsys.readouterr().out

    def test_characterize_and_evaluate_roundtrip(self, tmp_path, capsys):
        lut_path = tmp_path / "lut.json"
        assert main(["characterize", "-o", str(lut_path)]) == 0
        payload = json.loads(lut_path.read_text())
        assert "entries" in payload

        assert main(["evaluate", "fib", "--lut", str(lut_path)]) == 0
        out = capsys.readouterr().out
        assert "violations 0" in out

        assert main(["table2", "--lut", str(lut_path)]) == 0
        assert "1899" in capsys.readouterr().out

        csv_path = tmp_path / "sweep.csv"
        assert main([
            "sweep", "fib", "crc16", "--lut", str(lut_path),
            "--policy", "instruction", "--policy", "genie",
            "--margin", "0", "--margin", "10",
            "--check-safety", "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "4 configs" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("config,benchmark")
        assert len(lines) == 1 + 2 * 4   # header + programs x configs


class TestProgramErrors:
    """Bad program specs exit nonzero with a friendly message — never a
    raw traceback."""

    def test_unknown_kernel(self, capsys):
        assert main(["run", "nosuchkernel"]) == 2
        err = capsys.readouterr().err
        assert "unknown kernel 'nosuchkernel'" in err
        assert "crc32" in err        # the message lists bundled kernels

    def test_missing_assembly_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.s"
        assert main(["asm", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "assembly file not found" in err

    def test_assembly_error_names_file_and_line(self, tmp_path, capsys):
        source = tmp_path / "bad.s"
        source.write_text("start:\n  l.addi r1, r0, 1\n  l.addi r2, r0, 08\n")
        assert main(["run", str(source)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot assemble")
        assert "bad.s" in err and "line 3" in err
        assert "Traceback" not in err

    def test_grid_assembly_error_exits_2(self, tmp_path, capsys):
        source = tmp_path / "bad.s"
        source.write_text("l.addi r1, r0, 99999\n")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"policies": ["instruction"], "workloads": [str(source)]}
        ))
        assert main(["sweep", "--grid", str(grid)]) == 2
        err = capsys.readouterr().err
        assert "cannot assemble" in err and "line 1" in err

    def test_evaluate_fails_fast_before_characterisation(self, capsys):
        assert main(["evaluate", "nosuchkernel"]) == 2
        captured = capsys.readouterr()
        assert "unknown kernel" in captured.err
        assert "characterising" not in captured.err   # failed fast


class TestRuntimeFaults:
    """A program that faults while it runs exits 2 with the fault text,
    never a traceback, from every command that simulates it."""

    MESSAGE = "error: misaligned 4-byte access at 0x00000002"

    @pytest.fixture
    def faulty(self, tmp_path):
        source = tmp_path / "faulty.s"
        source.write_text("l.addi r1, r0, 2\nl.lwz r2, 0(r1)\nl.nop 0x1\n")
        return str(source)

    @pytest.fixture
    def lut_file(self, tmp_path, lut):
        path = tmp_path / "lut.json"
        path.write_text(lut.to_json())
        return str(path)

    def test_run(self, faulty, capsys):
        assert main(["run", faulty]) == 2
        assert capsys.readouterr().err == self.MESSAGE + "\n"

    @pytest.mark.parametrize("command", ["evaluate", "sweep", "stream"])
    def test_commands_with_a_lut(self, command, faulty, lut_file, capsys):
        assert main([command, faulty, "--lut", lut_file]) == 2
        err = capsys.readouterr().err
        assert self.MESSAGE in err.splitlines()
        assert "Traceback" not in err

    def test_runaway_loop_exits_after_one_pass(self, tmp_path, capsys):
        source = tmp_path / "loop.s"
        source.write_text("loop:\n  l.j loop\n  l.nop\n")
        assert main(["run", str(source)]) == 2
        assert capsys.readouterr().err == (
            "error: exceeded 4000000 cycles without halting (pc=0x00000000)\n"
        )


class TestGridSweep:
    def test_grid_end_to_end_with_resume_and_jobs(self, tmp_path, capsys,
                                                  design, lut):
        """Grid mode: run, export, then resume warm with --jobs 2."""
        import json as jsonlib

        from repro.dta.compiled import clear_compiled_cache
        from repro.lab.store import ArtifactStore

        store_dir = tmp_path / "store"
        # seed the LUT so the CLI test does not re-characterise
        ArtifactStore(store_dir).save_lut(lut, design)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(jsonlib.dumps({
            "name": "cli-grid",
            "policies": ["instruction", "genie"],
            "workloads": ["fib", "crc16"],
            "check_safety": True,
        }))
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"

        clear_compiled_cache()
        assert main([
            "sweep", "--grid", str(grid_path), "--store", str(store_dir),
            "--json", str(json_path), "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "cli-grid" in out
        document = jsonlib.loads(json_path.read_text())
        assert len(document["results"]) == 2 * 2
        assert csv_path.read_text().startswith("design_point,config")

        clear_compiled_cache()
        assert main([
            "sweep", "--grid", str(grid_path), "--store", str(store_dir),
            "--resume", "--jobs", "2",
        ]) == 0
        assert "(2 resumed)" in capsys.readouterr().out

    def test_grid_file_errors(self, tmp_path, capsys):
        assert main(["sweep", "--grid", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text('{"policies": ["warp-speed"]}')
        assert main(["sweep", "--grid", str(bad)]) == 2
        assert "warp-speed" in capsys.readouterr().err

    def test_grid_rejects_conflicting_axes(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text("{}")
        assert main(
            ["sweep", "fib", "--grid", str(grid_path)]
        ) == 2
        assert "grid file" in capsys.readouterr().err
        # safety gating and LUT reuse live in the grid file, not flags
        assert main(
            ["sweep", "--grid", str(grid_path), "--check-safety"]
        ) == 2
        assert main(
            ["sweep", "--grid", str(grid_path), "--lut", "lut.json"]
        ) == 2

    def test_grid_rejects_design_flags(self, tmp_path, capsys):
        """--variant/--voltage would be silently shadowed by the grid's
        own axes; reject them like the other per-flag axes."""
        grid_path = tmp_path / "grid.json"
        grid_path.write_text("{}")
        assert main(
            ["sweep", "--grid", str(grid_path), "--voltage", "0.8"]
        ) == 2
        assert main(
            ["sweep", "--grid", str(grid_path), "--variant", "conventional"]
        ) == 2

    def test_jobs_resume_json_require_grid(self, capsys):
        assert main(["sweep", "--jobs", "2"]) == 2
        assert main(["sweep", "--resume"]) == 2
        assert main(["sweep", "--json", "out.json"]) == 2

    def test_grid_sweep_store_max_size(self, tmp_path, capsys, design,
                                       lut):
        """--store-max-size LRU-evicts the store after the merged run."""
        import json as jsonlib

        from repro.dta.compiled import clear_compiled_cache
        from repro.lab.store import ArtifactStore

        store_dir = tmp_path / "store"
        ArtifactStore(store_dir).save_lut(lut, design)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(jsonlib.dumps({
            "name": "budgeted", "policies": ["instruction"],
            "workloads": ["fib"],
        }))
        clear_compiled_cache()
        assert main([
            "sweep", "--grid", str(grid_path), "--store", str(store_dir),
            "--store-max-size", "1K",
        ]) == 0
        total = sum(
            path.stat().st_size
            for path in store_dir.rglob("*") if path.is_file()
        )
        assert total <= 1024
        capsys.readouterr()

    def test_sweep_store_max_size_invalid(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text('{"workloads": ["fib"]}')
        assert main([
            "sweep", "--grid", str(grid_path), "--store",
            str(tmp_path / "store"), "--store-max-size", "plenty",
        ]) == 2
        assert "invalid size" in capsys.readouterr().err

    def test_sweep_store_max_size_requires_store(self, tmp_path, capsys):
        """A budget with nothing to evict is a user error, not a no-op."""
        grid_path = tmp_path / "grid.json"
        grid_path.write_text('{"workloads": ["fib"]}')
        assert main([
            "sweep", "--grid", str(grid_path),
            "--store-max-size", "64K",
        ]) == 2
        assert "requires --store" in capsys.readouterr().err
        assert main([
            "sweep", "fib", "--store-max-size", "64K",
        ]) == 2
        assert "requires --store" in capsys.readouterr().err

    def test_legacy_sweep_honours_store(self, tmp_path, capsys, design,
                                        lut):
        """Without --grid, --store still caches traces and the LUT."""
        from repro.dta.compiled import clear_compiled_cache
        from repro.lab.store import ArtifactStore

        store_dir = tmp_path / "store"
        ArtifactStore(store_dir).save_lut(lut, design)
        clear_compiled_cache()
        assert main([
            "sweep", "fib", "--store", str(store_dir),
            "--policy", "instruction",
        ]) == 0
        err = capsys.readouterr().err
        assert "characterising" not in err    # LUT came from the store
        assert any((store_dir / "traces").iterdir())


class TestStoreGc:
    def test_parse_size(self):
        from repro.cli import parse_size

        assert parse_size("4096") == 4096
        assert parse_size("4K") == 4096
        assert parse_size("1.5M") == int(1.5 * (1 << 20))
        assert parse_size("2G") == 2 << 30
        assert parse_size("500MB") == 500 << 20
        with pytest.raises(ValueError):
            parse_size("chunky")
        with pytest.raises(ValueError):
            parse_size("-1M")

    def test_store_gc_evicts_to_budget(self, tmp_path, capsys):
        from repro.lab.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        for index in range(3):
            store.save_result(f"r{index}", {"blob": "y" * 512})
        code = main([
            "store", "gc", "--store", str(store.root), "--max-size", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "evicted 3" in out
        assert not any((store.root / "results").glob("*.json"))

    def test_store_gc_dry_run(self, tmp_path, capsys):
        from repro.lab.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        store.save_result("keep", {"blob": "z"})
        code = main([
            "store", "gc", "--store", str(store.root),
            "--max-size", "0", "--dry-run",
        ])
        assert code == 0
        assert "would evict 1" in capsys.readouterr().out
        assert store.load_result("keep") == {"blob": "z"}

    def test_store_gc_missing_directory(self, tmp_path, capsys):
        code = main([
            "store", "gc", "--store", str(tmp_path / "nope"),
            "--max-size", "1M",
        ])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_store_gc_bad_size(self, tmp_path, capsys):
        (tmp_path / "s").mkdir()
        code = main([
            "store", "gc", "--store", str(tmp_path / "s"),
            "--max-size", "many",
        ])
        assert code == 2
        assert "invalid size" in capsys.readouterr().err


class TestLearnedPolicyErrors:
    """learned:<model> specs fail fast (exit 2, naming the path) before
    any simulation or characterisation runs."""

    def test_parser_accepts_learned_spec(self):
        args = build_parser().parse_args(
            ["evaluate", "crc32", "--policy", "learned:m.npz"]
        )
        assert args.policy == "learned:m.npz"

    def test_parser_rejects_unknown_policy(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "crc32", "--policy", "warp-speed"]
            )
        assert "learned:<model.npz>" in capsys.readouterr().err

    def test_evaluate_missing_model(self, tmp_path, capsys):
        missing = tmp_path / "missing.npz"
        assert main(
            ["evaluate", "crc32", "--policy", f"learned:{missing}"]
        ) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert "not found" in captured.err
        assert "characterising" not in captured.err   # failed fast

    def test_evaluate_corrupt_model(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"not a model")
        assert main(
            ["evaluate", "crc32", "--policy", f"learned:{corrupt}"]
        ) == 2
        captured = capsys.readouterr()
        assert "corrupt" in captured.err and str(corrupt) in captured.err
        assert "characterising" not in captured.err

    def test_flag_sweep_missing_model(self, tmp_path, capsys):
        missing = tmp_path / "missing.npz"
        assert main(
            ["sweep", "fib", "--policy", f"learned:{missing}"]
        ) == 2
        assert str(missing) in capsys.readouterr().err

    def test_grid_sweep_missing_model(self, tmp_path, capsys):
        missing = tmp_path / "missing.npz"
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "name": "g", "policies": [f"learned:{missing}"],
            "workloads": ["fib"],
        }))
        assert main(["sweep", "--grid", str(grid)]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert "units" not in captured.err            # never started


class TestTrain:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["train", "--grid", "g.json"])
        assert args.out == "model.npz"
        assert args.model == "tree"
        assert args.seed == 0
        assert not args.no_eval

    def test_train_end_to_end(self, tmp_path, capsys):
        """Train on a tiny grid, write report, deploy via evaluate."""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "name": "cli-train", "policies": ["static"],
            "workloads": ["fib"], "check_safety": True,
        }))
        out = tmp_path / "model.npz"
        report = tmp_path / "BENCH_train.json"
        code = main([
            "train", "--grid", str(grid), "--out", str(out),
            "--report", str(report), "--seed", "3",
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert out.is_file()
        assert "Learned vs static" in captured.out
        document = json.loads(report.read_text())
        assert document["train"]["grid"] == "cli-train"
        assert document["train"]["config"]["seed"] == 3
        assert document["eval"]["safe"] is True
        assert document["eval"]["faster_than_static"] is True
        assert document["eval"]["learned"]["violations"] == 0

        # the written artifact deploys through the registry
        assert main(
            ["evaluate", "fib", "--policy", f"learned:{out}"]
        ) == 0
        assert "violations 0" in capsys.readouterr().out

    def test_train_no_eval_skips_suite(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "name": "cli-train", "policies": ["static"],
            "workloads": ["fib"], "check_safety": True,
        }))
        out = tmp_path / "model.npz"
        report = tmp_path / "r.json"
        code = main([
            "train", "--grid", str(grid), "--out", str(out),
            "--report", str(report), "--no-eval",
        ])
        assert code == 0
        assert "Learned vs static" not in capsys.readouterr().out
        assert "eval" not in json.loads(report.read_text())

    def test_train_stores_model_artifact(self, tmp_path, capsys):
        from repro.lab.store import ArtifactStore

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "name": "cli-train", "policies": ["static"],
            "workloads": ["fib"], "check_safety": True,
        }))
        store_dir = tmp_path / "store"
        code = main([
            "train", "--grid", str(grid),
            "--out", str(tmp_path / "model.npz"),
            "--store", str(store_dir), "--no-eval",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stored model artifact" in out
        from repro.lab.scenario import ScenarioGrid

        fingerprint = ScenarioGrid.from_file(grid).fingerprint()
        name = f"train:{fingerprint}:0:tree"
        assert ArtifactStore(store_dir).load_model(name) is not None

    def test_train_bad_grid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"policies": ["warp"]}')
        assert main(["train", "--grid", str(bad)]) == 2
        assert "unknown policy" in capsys.readouterr().err


class TestObservability:
    """--trace / --progress / the profile subcommand."""

    @staticmethod
    def _seeded(tmp_path, design, lut):
        from repro.lab.store import ArtifactStore

        store_dir = tmp_path / "store"
        ArtifactStore(store_dir).save_lut(lut, design)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "name": "cli-obs",
            "policies": ["instruction"],
            "workloads": ["fib", "crc16"],
            "check_safety": True,
        }))
        return store_dir, grid_path

    def test_parser_accepts_trace_and_progress(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "g.json", "--trace", "t.json",
             "--progress"]
        )
        assert args.trace == "t.json" and args.progress

    def test_parser_profile_defaults(self):
        args = build_parser().parse_args(["profile", "g.json"])
        assert args.grid == "g.json"
        assert args.jobs == 1 and args.store is None
        assert args.trace is None and not args.resume

    def test_trace_and_progress_require_grid(self, capsys):
        assert main(["sweep", "--trace", "t.json"]) == 2
        assert "--trace" in capsys.readouterr().err
        assert main(["sweep", "--progress"]) == 2
        assert "--progress" in capsys.readouterr().err

    def test_sweep_trace_writes_valid_chrome_trace(self, tmp_path, capsys,
                                                   design, lut):
        from repro.dta.compiled import clear_compiled_cache
        from repro.obs.export import validate_chrome_trace

        store_dir, grid_path = self._seeded(tmp_path, design, lut)
        trace_path = tmp_path / "trace.json"
        clear_compiled_cache()
        assert main([
            "sweep", "--grid", str(grid_path), "--store", str(store_dir),
            "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote {trace_path}" in out
        payload = json.loads(trace_path.read_text())
        categories = validate_chrome_trace(payload)
        assert {"session", "sweep", "evaluate", "store"} <= categories
        assert payload["otherData"]["counters"]

    def test_sweep_progress_silent_off_tty(self, tmp_path, capsys, design,
                                           lut):
        store_dir, grid_path = self._seeded(tmp_path, design, lut)
        assert main([
            "sweep", "--grid", str(grid_path), "--store", str(store_dir),
            "--progress",
        ]) == 0
        captured = capsys.readouterr()
        assert "cli-obs" in captured.out
        assert "\r" not in captured.err   # non-TTY: line never renders

    def test_profile_end_to_end(self, tmp_path, capsys, design, lut):
        from repro.dta.compiled import clear_compiled_cache

        store_dir, grid_path = self._seeded(tmp_path, design, lut)
        clear_compiled_cache()
        assert main([
            "profile", str(grid_path), "--store", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "Profile 'cli-obs'" in out
        assert "session.sweep" in out
        assert "counters:" in out
        assert "store:" in out

    def test_profile_with_trace_export(self, tmp_path, capsys, design,
                                       lut):
        from repro.obs.export import validate_chrome_trace

        store_dir, grid_path = self._seeded(tmp_path, design, lut)
        trace_path = tmp_path / "profile-trace.json"
        assert main([
            "profile", str(grid_path), "--store", str(store_dir),
            "--trace", str(trace_path),
        ]) == 0
        validate_chrome_trace(json.loads(trace_path.read_text()))

    def test_profile_bad_grid(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err
