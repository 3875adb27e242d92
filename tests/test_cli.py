"""Tests for the command-line interface."""

import json

import pytest

from references import render_estimate_body
from repro.cli import main
from repro.core.estimator import NutritionEstimator


class TestEstimate:
    def test_estimates_recipe(self, capsys):
        code = main(["estimate", "--servings", "2",
                     "1 cup white sugar", "2 tbsp butter"])
        assert code == 0
        out = capsys.readouterr().out
        # Bare "sugar" resolves to "Sugars, brown" by SR index order
        # (19334 < 19335) — heuristic (i) verbatim; "white sugar"
        # disambiguates via term priority.
        assert "Sugars," in out
        assert "energy_kcal" in out

    def test_unmatched_shown(self, capsys):
        main(["estimate", "2 tsp garam masala"])
        assert "(unmatched)" in capsys.readouterr().out

    def test_rejects_bad_servings(self, capsys):
        assert main(["estimate", "--servings", "0", "1 tsp salt"]) == 2
        assert (
            "error: --servings must be >= 1, got 0"
            in capsys.readouterr().out
        )

    @pytest.mark.parametrize("phrases", [
        ["1 bunch cilantro", "1 cup cilantro"],
        ["1 cup cilantro", "1 bunch cilantro"],
        ["2 cups flour", "1 tsp salt", "1 pinch salt"],
    ])
    def test_energy_equals_service_body(self, capsys, phrases):
        """``repro estimate`` prints the ``/v1/estimate`` answer."""
        assert main(["estimate", "--servings", "2", *phrases]) == 0
        printed = next(
            line.split()[1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("energy_kcal")
        )
        body = json.loads(
            render_estimate_body(NutritionEstimator(), phrases, 2)
        )
        assert printed == f"{body['per_serving']['energy_kcal']:.2f}"


class TestParse:
    def test_shows_tags_and_entities(self, capsys):
        code = main(["parse", "1 small onion , finely chopped"])
        assert code == 0
        out = capsys.readouterr().out
        assert "QUANTITY" in out and "SIZE" in out and "NAME" in out
        assert "name='onion'" in out


class TestMatch:
    def test_match_found(self, capsys):
        code = main(["match", "red lentils"])
        assert code == 0
        assert "Lentils, pink or red, raw" in capsys.readouterr().out

    def test_match_with_state(self, capsys):
        code = main(["match", "coriander", "--state", "ground"])
        assert code == 0
        assert "Coriander (cilantro) leaves, raw" in capsys.readouterr().out

    def test_unmatched_exit_code(self, capsys):
        assert main(["match", "garam masala"]) == 1
        assert "UNMATCHED" in capsys.readouterr().out

    def test_explain(self, capsys):
        code = main(["match", "apple", "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "winner: Apples, raw, with skin" in out
        assert "decided by" in out


class TestExplain:
    def test_explain_resolved_line(self, capsys):
        code = main(["explain", "2 cups all-purpose flour"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: status=matched reason=ner-unit" in out
        assert "winner:" in out
        assert "unit resolution chain" in out
        assert "trace: ner-unit:resolved" in out

    def test_explain_context_rescue(self, capsys):
        code = main([
            "explain", "1 head butter cup",
            "--context", "2 tablespoons butter",
            "--context", "1 tablespoon butter , melted",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "statistics from 2 context line(s)" in out
        assert "reason=corpus-frequent-unit" in out

    def test_explain_unresolved_exit_code(self, capsys):
        assert main(["explain", "2 teaspoons garam masala"]) == 1
        assert "no-description-match" in capsys.readouterr().out

    def test_explain_rejects_bad_top(self, capsys):
        assert main(["explain", "x", "--top", "-1"]) == 2
        assert "--top must be >= 0" in capsys.readouterr().out


class TestGenerate:
    def test_prints_recipes(self, capsys):
        code = main(["generate", "--recipes", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("# ") == 2

    def test_writes_jsonl(self, tmp_path, capsys):
        out_file = tmp_path / "c.jsonl"
        code = main(["generate", "--recipes", "3", "--out", str(out_file)])
        assert code == 0
        from repro.recipedb.corpus import load_recipes_jsonl

        assert len(load_recipes_jsonl(out_file)) == 3

    def test_seed_changes_corpus(self, capsys):
        main(["generate", "--recipes", "2", "--seed", "1"])
        first = capsys.readouterr().out
        main(["generate", "--recipes", "2", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestTables:
    def test_all_four_tables(self, capsys):
        code = main(["tables"])
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("Table I", "Table II", "Table III", "Table IV",
                       "Butter, salted"):
            assert marker in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


def _recipe_lines(out: str) -> list[str]:
    """The per-recipe lines of a ``repro batch`` run, in order."""
    return [line for line in out.splitlines() if "kcal/serving" in line]


def _poisoned_corpus(tmp_path):
    """A 6-recipe corpus and a copy whose line 3 is malformed JSON."""
    clean = tmp_path / "clean.jsonl"
    main(["generate", "--recipes", "6", "--seed", "11", "--out", str(clean)])
    lines = clean.read_text().splitlines(keepends=True)
    lines[2] = "{not json\n"
    poisoned = tmp_path / "poisoned.jsonl"
    poisoned.write_text("".join(lines))
    return clean, poisoned


class TestBatch:
    def test_batch_estimates_corpus(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        assert main(["generate", "--recipes", "4", "--out", str(path)]) == 0
        capsys.readouterr()
        code = main(["batch", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "kcal/serving" in out
        assert "4 recipes" in out and "lines/s" in out

    def test_batch_jsonl_streaming(self, tmp_path, capsys):
        """The default run streams the JSONL corpus through the engine
        in process."""
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "5", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path)]) == 0
        out = capsys.readouterr().out
        assert "5 recipes" in out
        assert "1 worker(s), two-phase corpus protocol" in out
        assert "duplicate collapse:" in out

    def test_batch_empty_corpus(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["batch", str(path)]) == 1
        assert "empty corpus" in capsys.readouterr().out

    def test_batch_sharded_workers(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "6", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "6 recipes" in out
        assert "2 worker(s), two-phase corpus protocol" in out

    def test_batch_modes_agree_per_recipe(self, tmp_path, capsys):
        """--workers changes execution strategy, never results: in
        process and across two workers the engine runs the same
        two-phase corpus protocol."""
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "5", "--out", str(path)])
        capsys.readouterr()
        main(["batch", str(path)])
        in_process = _recipe_lines(capsys.readouterr().out)
        main(["batch", str(path), "--workers", "2"])
        sharded = _recipe_lines(capsys.readouterr().out)
        assert in_process == sharded
        assert len(in_process) == 5

    def test_batch_quarantines_malformed_line(self, tmp_path, capsys):
        """The default run dead-letters a malformed line and estimates
        the rest exactly as if the line were absent."""
        clean, poisoned = _poisoned_corpus(tmp_path)
        assert main(["batch", str(clean)]) == 0
        expected = _recipe_lines(capsys.readouterr().out)
        assert main(["batch", str(poisoned)]) == 0
        out = capsys.readouterr().out
        assert "dead-letter report:" in out
        assert "[ingest line 3] malformed-json" in out
        assert _recipe_lines(out) == expected[:2] + expected[3:]

    def test_batch_strict_aborts_on_malformed_line(self, tmp_path, capsys):
        _, poisoned = _poisoned_corpus(tmp_path)
        assert main(["batch", str(poisoned), "--strict"]) == 2
        out = capsys.readouterr().out
        assert f"error: {poisoned} line 3: malformed-json: " in out
        assert "kcal/serving" not in out

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        ("bad_line", "expected"),
        [
            (
                "{not json\n",
                "malformed-json: Expecting property name enclosed in "
                "double quotes: line 1 column 2 (char 1)",
            ),
            ('{"title": "no other keys"}\n', "invalid-recipe: KeyError("),
        ],
        ids=["malformed-json", "invalid-recipe"],
    )
    def test_batch_strict_names_the_bad_corpus_line(
        self, tmp_path, capsys, workers, bad_line, expected
    ):
        """A bad line far into the corpus (the first collect chunk has
        long been sent) is reported by its file line, in one line."""
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "150", "--seed", "11",
              "--out", str(path)])
        lines = path.read_text().splitlines(keepends=True)
        lines[139] = bad_line
        path.write_text("".join(lines))
        capsys.readouterr()
        code = main(["batch", str(path), "--strict", "--workers", workers])
        assert code == 2
        (error,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("error:")
        ]
        assert error.startswith(f"error: {path} line 140: {expected}")

    def test_batch_reasons_breakdown(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "4", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path), "--reasons"]) == 0
        out = capsys.readouterr().out
        assert "reason-code breakdown:" in out
        assert "unit gap (Figure 2" in out
        assert "resolved by:" in out

    def test_batch_reasons_identical_across_engine_modes(
        self, tmp_path, capsys
    ):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "5", "--out", str(path)])
        capsys.readouterr()
        main(["batch", str(path), "--reasons"])
        classic = capsys.readouterr().out
        main(["batch", str(path), "--reasons", "--workers", "2"])
        sharded = capsys.readouterr().out
        tail = "reason-code breakdown:"
        assert classic.split(tail)[1] == sharded.split(tail)[1]

    def test_batch_rejects_bad_workers(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        main(["generate", "--recipes", "2", "--out", str(path)])
        capsys.readouterr()
        assert main(["batch", str(path), "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().out


class TestServe:
    def test_serve_wires_config_through(self, monkeypatch):
        import repro.cli as cli

        captured = {}

        def fake_serve(config, ready_file=None):
            captured["config"] = config
            captured["ready_file"] = ready_file
            return 0

        monkeypatch.setattr(cli, "serve", fake_serve)
        code = main(["serve", "--port", "0", "--workers", "2",
                     "--cache-cap", "128", "--host", "0.0.0.0",
                     "--procs", "2"])
        assert code == 0
        config = captured["config"]
        assert config.host == "0.0.0.0"
        assert config.port == 0
        assert config.workers == 2
        assert config.cache_cap == 128
        assert config.procs == 2
        assert captured["ready_file"] is None

    def test_serve_defaults(self, monkeypatch):
        import repro.cli as cli
        from repro.service.state import DEFAULT_RESPONSE_CACHE_CAP

        captured = {}
        monkeypatch.setattr(
            cli, "serve",
            lambda config, ready_file=None: (
                captured.setdefault("c", config) and 0
            ),
        )
        main(["serve"])
        config = captured["c"]
        assert (config.host, config.port, config.workers) == (
            "127.0.0.1", 8080, 1)
        assert config.cache_cap == DEFAULT_RESPONSE_CACHE_CAP
        assert config.procs == 1

    def test_serve_rejects_bad_workers(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().out

    def test_serve_artifact_flag_lands_in_spec(self, monkeypatch,
                                               tmp_path):
        import repro.cli as cli
        from repro.artifacts import save_artifact
        from repro.core.estimator import NutritionEstimator

        path = tmp_path / "p.artifact"
        save_artifact(path, NutritionEstimator())
        captured = {}
        monkeypatch.setattr(
            cli, "serve",
            lambda config, ready_file=None: (
                captured.setdefault("c", config) and 0
            ),
        )
        main(["serve", "--artifact", str(path)])
        assert captured["c"].spec.artifact_path == str(path)

    def test_serve_corrupt_artifact_exits_typed(self, tmp_path, capsys):
        bad = tmp_path / "bad.artifact"
        bad.write_bytes(b"REPROART garbage")
        assert main(["serve", "--artifact", str(bad)]) == 2
        assert "error:" in capsys.readouterr().out


class TestBuildArtifact:
    def test_builds_loadable_artifact(self, tmp_path, capsys):
        from repro.artifacts import load_artifact

        path = tmp_path / "out.artifact"
        assert main(["build-artifact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "format v1" in out and "tagger=rule" in out
        assert load_artifact(path).meta["foods"] > 0

    def test_rejects_bad_training_args(self, tmp_path, capsys):
        path = str(tmp_path / "x.artifact")
        assert main(["build-artifact", path, "--tagger", "perceptron",
                     "--train-phrases", "0"]) == 2
        assert "--train-phrases must be >= 1" in capsys.readouterr().out
        assert main(["build-artifact", path, "--tagger", "perceptron",
                     "--epochs", "0"]) == 2
        assert "--epochs must be >= 1" in capsys.readouterr().out

    def test_help_epilog_mentions_new_subcommands(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "serve" in out
        assert "batch corpus.jsonl --workers 4 --reasons" in out
