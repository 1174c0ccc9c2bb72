import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import make_plan, rect

from ergoplan import dataset, guidance, model, render, tokenizer
from ergoplan.cli import main
from ergoplan.ergocost import TERMS
from ergoplan.errors import ErgoplanError
from ergoplan.plan import RoomType, deserialize_plan, serialize_plan

V = tokenizer.Vocabulary(256)
TRAIN = ["train", "--corpus", "{corpus}", "--out", "{out}"]


class TestRenderSvg:
    def test_boundary_door_only(self, tiling_plan):
        plan = type(tiling_plan)(
            resolution=tiling_plan.resolution,
            boundary=tiling_plan.boundary,
            door=tiling_plan.door,
            rooms=(),
        )
        svg = render.render_svg(plan)
        root = ET.fromstring(svg)
        assert root.attrib["viewBox"] == "0 0 256 256"
        assert len(root.findall(".//{http://www.w3.org/2000/svg}line")) == 1

    def test_byte_stable(self, spread_plan):
        assert render.render_svg(spread_plan) == render.render_svg(spread_plan)

    def test_path_per_room_parses_back(self, spread_plan):
        svg = render.render_svg(spread_plan)
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(svg)
        paths = root.findall(f"{ns}path")
        assert len(paths) == len(spread_plan.rooms) + 1  # rooms + boundary
        for room, path in zip(spread_plan.rooms, paths):
            coords = re.findall(r"[ML] (-?\d+),(-?\d+)", path.attrib["d"])
            assert tuple((int(x), int(y)) for x, y in coords) == room.vertices
            assert path.attrib["fill"] == render.DEFAULT_COLORS[room.kind]

    def test_all_13_types_have_colors(self):
        assert set(render.DEFAULT_COLORS) == set(RoomType)

    def test_exact_bytes(self):
        plan = make_plan(
            rect(0, 0, 32, 16),
            ((0, 4), (0, 8)),
            [(RoomType.Entrance, rect(0, 0, 16, 16)), (RoomType.Kitchen, rect(16, 0, 32, 16))],
            resolution=64,
        )
        assert render.render_svg(plan) == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 64 64">\n'
            '<rect width="64" height="64" fill="#FFFFFF"/>\n'
            '<path d="M 0,0 L 16,0 L 16,16 L 0,16 Z" fill="#E1ECF7" stroke="#333333" '
            'stroke-width="1.0"><title>Entrance</title></path>\n'
            '<path d="M 16,0 L 32,0 L 32,16 L 16,16 Z" fill="#B8D8BA" stroke="#333333" '
            'stroke-width="1.0"><title>Kitchen</title></path>\n'
            '<path d="M 0,0 L 32,0 L 32,16 L 0,16 Z" fill="none" stroke="#333333" '
            'stroke-width="2.0"/>\n'
            '<line x1="0" y1="4" x2="0" y2="8" stroke="#CC3333" stroke-width="3.0"/>\n'
            "</svg>\n"
        )


@pytest.fixture
def corpus_dir(tmp_path):
    corpus = dataset.synth_generate(6, seed=3, cfg=dataset.SynthConfig(de_ergonomize_fraction=0.5))
    path = tmp_path / "corpus"
    dataset.save_corpus(corpus, path)
    return path


@pytest.fixture
def plan_file(tmp_path, spread_plan):
    path = tmp_path / "plan.json"
    path.write_text(serialize_plan(spread_plan))
    return path


class TestCli:
    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--bogus"])
        assert err.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_plan_file_exits_two(self, tmp_path, capsys):
        code = main(["ergo-cost", str(tmp_path / "nope.json")])
        assert code == 2

    def test_ergo_cost_json(self, plan_file, capsys):
        code = main(["--format", "json", "ergo-cost", str(plan_file), "--meters-per-cell", "1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == pytest.approx(7.5)
        assert payload["perfect"] is False
        assert len(payload["rooms"]) == 4

    def test_ergo_loss_json(self, plan_file, capsys):
        code = main(["ergo-loss", str(plan_file), "--meters-per-cell", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [*TERMS, "total"]
        assert payload["total"] > 0

    @pytest.mark.parametrize("command", ["ergo-cost", "ergo-loss", "eval"])
    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_non_positive_scale_is_rejected(self, command, scale, plan_file, corpus_dir, capsys):
        target = ["--corpus", str(corpus_dir)] if command == "eval" else [str(plan_file)]
        assert main([command, *target, "--meters-per-cell", scale]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: meters_per_cell must be positive"]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["ergo-loss", "{plan}", "--beta", "-1"], "beta must be positive"),
            (["guidance-check", "{plan}", "--gamma", "0"], "gamma must be positive"),
            (
                ["train", "--corpus", "{corpus}", "--out", "{out}", "--heads", "3", "--embed-dim", "8"],
                "embed_dim must be divisible by heads",
            ),
            (["generate", "--checkpoint", "{out}", "--from-scratch", "--n", "0"], "n must be at least 1"),
            ([*TRAIN, "--heads", "0"], "heads must be positive"),
            ([*TRAIN, "--layers", "0"], "layers must be positive"),
            ([*TRAIN, "--embed-dim", "0"], "embed_dim must be positive"),
            ([*TRAIN, "--context", "0"], "context_len must be positive"),
            ([*TRAIN, "--batch-size", "0"], "batch_size must be positive"),
            ([*TRAIN, "--steps", "-3"], "steps must be non-negative"),
            ([*TRAIN, "--lr", "-1"], "lr must be positive"),
            (
                ["split", "--in", "{corpus}", "--fractions", "1.2,-0.1,-0.1"],
                "fractions must be three non-negative values summing to 1",
            ),
            (
                ["generate", "--checkpoint", "{out}", "--prefixes", "{corpus}", "--n", "-2"],
                "n must be at least 1",
            ),
            (["synth", "--n", "-4", "--out", "{out}"], "n must be non-negative"),
            (
                ["eval", "--corpus", "{corpus}", "--coverage-tolerance", "-1"],
                "coverage_tolerance must be non-negative",
            ),
            (
                ["eval", "--corpus", "{corpus}", "--coverage-tolerance", "nan"],
                "coverage_tolerance must be non-negative",
            ),
            (
                ["eval", "--corpus", "{corpus}", "--overlap-tolerance", "-0.5"],
                "overlap_tolerance must be non-negative",
            ),
            (["eval", "{tokens}", "--resolution", "0"], "resolution must be positive"),
        ],
    )
    def test_rejected_config_value_is_a_usage_error(
        self, argv, named, plan_file, corpus_dir, tmp_path, capsys
    ):
        out = tmp_path / "m.npz"
        tokens = tmp_path / "tokens.txt"
        plan = deserialize_plan(plan_file.read_text())
        tokens.write_text(tokenizer.format_token_line(tokenizer.encode(plan, V)) + "\n")
        paths = {"plan": plan_file, "corpus": corpus_dir, "out": out, "tokens": tokens}
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {named}"]
        assert not out.exists()

    def test_render_writes_svg(self, plan_file, tmp_path, capsys):
        out = tmp_path / "plan.svg"
        assert main(["render", str(plan_file), "-o", str(out)]) == 0
        ET.fromstring(out.read_text())

    def test_tokenize_detokenize_pipeline(self, corpus_dir, tmp_path, capsys):
        tokens_file = tmp_path / "tokens.txt"
        assert main(["tokenize", "--corpus", str(corpus_dir), "--out", str(tokens_file)]) == 0
        plans_out = tmp_path / "decoded"
        assert main(["detokenize", str(tokens_file), "--out", str(plans_out)]) == 0
        decoded = sorted(plans_out.glob("*.json"))
        assert len(decoded) == 6
        originals = dataset.load_corpus(corpus_dir).plans
        for path, original in zip(decoded, originals):
            assert deserialize_plan(path.read_text()) == original

    def test_detokenize_bad_sequence_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n")
        assert main(["detokenize", str(bad)]) == 2
        assert "parse failure" in capsys.readouterr().err

    def test_synth_split_eval_pipeline(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert main(["--seed", "4", "synth", "--n", "10", "--out", str(out)]) == 0
        assert main(["--format", "json", "split", "--in", str(out), "--fractions", "0.8,0.1,0.1"]) == 0
        counts = json.loads(capsys.readouterr().out)
        assert counts == {"train": 8, "val": 1, "test": 1}
        assert main(["--format", "json", "eval", "--corpus", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parsability"] == 1.0
        assert report["validity"] == 1.0

    def test_eval_reports_throughput_and_failures_on_stderr(self, corpus_dir, tmp_path, capsys):
        vocab = tokenizer.Vocabulary(256)
        lines = [
            tokenizer.format_token_line(tokenizer.encode(plan, vocab))
            for plan in dataset.load_corpus(corpus_dir).plans
        ]
        lines[0] = lines[0].rsplit(" ", 3)[0]  # EOS and the last room's last pair dropped
        tokens_file = tmp_path / "tokens.txt"
        tokens_file.write_text("\n".join(lines) + "\n")
        report_file = tmp_path / "r.json"
        assert main(["--format", "json", "eval", str(tokens_file), "--out", str(report_file)]) == 0
        captured = capsys.readouterr()
        stdout = json.loads(captured.out)
        assert stdout == json.loads(report_file.read_text())
        assert stdout["failures"] == {"room needs at least 4 vertices": 1}
        (line,) = captured.err.splitlines()
        assert re.fullmatch(
            r"evaluated 6 sequences in \d+\.\d\d s \(\d+ seq/s\), failures: 1 room needs at least 4 vertices",
            line,
        )
        assert main(["eval", "--corpus", str(corpus_dir)]) == 0
        assert capsys.readouterr().err.endswith("failures: none\n")

    def test_augment_expands_corpus(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "aug"
        assert main(["augment", "--in", str(corpus_dir), "--out", str(out), "--mirror"]) == 0
        assert len(dataset.load_corpus(out).plans) == 6 * 8

    def test_guidance_check_without_model(self, plan_file, capsys):
        assert main(["guidance-check", str(plan_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] is not None
        assert len(payload["eligible"]) == 6 * 4 * 2
        assert all(e["axis"] in "xy" for e in payload["eligible"])

    def test_guidance_check_with_checkpoint(self, plan_file, tmp_path, capsys):
        # the eligible rows and their expected coordinates come from the
        # model's probability rows: room-vertex coordinates whose argmax is
        # a coordinate token
        cfg = model.ModelConfig(layers=1, heads=2, embed_dim=8, context_len=80, seed=5)
        ckpt = tmp_path / "m.npz"
        model.save_checkpoint(ckpt, model.init_train_state(cfg, model.TrainConfig()), cfg)
        norule = tmp_path / "norule.json"
        rooms = [(RoomType.Storage, rect(0, 0, 8, 8))]
        norule.write_text(serialize_plan(make_plan(rect(0, 0, 40, 40), ((0, 2), (0, 6)), rooms)))
        net = model.Model(cfg, model.load_checkpoint(ckpt)[0].params)
        gcfg = guidance.GuidanceConfig()
        skipped = []
        for path in (plan_file, norule):
            assert main(["guidance-check", str(path), "--checkpoint", str(ckpt)]) == 0
            payload = json.loads(capsys.readouterr().out)
            seq = tokenizer.encode(deserialize_plan(path.read_text()), V)
            rows = net.prob_rows(seq)
            _, pos, room, vertex, axis = tokenizer.room_coordinates(np.array([seq.tokens]), V)
            keep = rows[pos].argmax(axis=1) < V.resolution
            skipped.append(len(pos) - keep.sum())
            v_bar, _ = guidance.collapse(rows[pos[keep]], gcfg)
            expected = [
                {"position": p, "room": r, "vertex": v, "axis": "xy"[a], "v_bar": value}
                for p, r, v, a, value in zip(
                    *(column[keep].tolist() for column in (pos, room, vertex, axis)),
                    v_bar.tolist(),
                )
            ]
            cell_values = [e.pop("cell_value") for e in payload["eligible"]]
            assert payload["eligible"] == expected
            assert cell_values == [e["v_bar"] * 256 for e in expected]
        assert skipped[0] > 0 and payload["eligible"]
        # a plan that no rule applies to still lists its eligible positions
        assert payload["ground_truth_loss"] is None and payload["alpha"] is None

    def test_compare_reports(self, corpus_dir, tmp_path, capsys):
        report_file = tmp_path / "r.json"
        assert main(["eval", "--corpus", str(corpus_dir), "--out", str(report_file)]) == 0
        capsys.readouterr()
        assert main(["--format", "json", "compare", str(report_file), str(report_file)]) == 0
        deltas = json.loads(capsys.readouterr().out)
        assert deltas["ergonomic_cost_improvement"] == 0.0

    def test_installed_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "ergoplan.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "synth" in out.stdout and "train" in out.stdout


class TestTrainGenerateCli:
    def test_train_generate_eval_round(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert main(["--seed", "1", "synth", "--n", "12", "--out", str(corpus)]) == 0
        ckpt = tmp_path / "model.npz"
        code = main(
            [
                "--seed", "1",
                "train",
                "--corpus", str(corpus),
                "--out", str(ckpt),
                "--guided", "on",
                "--steps", "30",
                "--batch-size", "4",
                "--layers", "1",
                "--heads", "2",
                "--embed-dim", "16",
                "--context", "128",
                "--log-every", "0",
            ]
        )
        assert code == 0
        assert ckpt.exists()
        tokens_file = tmp_path / "gen.txt"
        assert main(
            ["generate", "--checkpoint", str(ckpt), "--prefixes", str(corpus), "--n", "4", "--out", str(tokens_file)]
        ) == 0
        lines = tokens_file.read_text().strip().splitlines()
        assert len(lines) == 4
        capsys.readouterr()
        assert main(["--format", "json", "eval", str(tokens_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["sequences"] == 4

    def test_train_flags_default_to_the_config_fields(self, corpus_dir, tmp_path, monkeypatch):
        built = []

        def record(samples, model_cfg, train_cfg, guidance_cfg, log_every):
            built.extend([model_cfg, train_cfg, guidance_cfg])
            raise ErgoplanError("recorded")

        monkeypatch.setattr(model, "train", record)
        argv = [arg.format(corpus=corpus_dir, out=tmp_path / "m.npz") for arg in TRAIN]
        assert main(["--seed", "0", *argv]) == 2
        assert built == [
            model.ModelConfig(vocab_size=V.size),
            model.TrainConfig(),
            guidance.GuidanceConfig(resolution=256),
        ]

    def test_plan_longer_than_the_context_fails_before_the_first_step(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert main(["--seed", "2", "synth", "--n", "4", "--out", str(corpus)]) == 0
        ckpt = tmp_path / "m.npz"
        argv = ["train", "--corpus", str(corpus), "--out", str(ckpt), "--guided", "off"]
        flags = ["--steps", "20", "--batch-size", "1", "--layers", "1", "--heads", "1"]
        lengths = [len(tokenizer.encode(plan)) for plan in dataset.load_corpus(corpus).plans]
        assert min(lengths) <= 64 < max(lengths)  # some plans fit, some do not
        capsys.readouterr()
        code = main([*argv, *flags, "--embed-dim", "8", "--context", "64", "--log-every", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "step " not in captured.out
        assert re.fullmatch(r"error: sequence length \d+ exceeds 64\n", captured.err)
        assert not ckpt.exists()

    def test_non_integer_seed_variable_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ERGOPLAN_SEED", "abc")
        with pytest.raises(SystemExit) as err:
            main(["synth", "--n", "1", "--out", str(tmp_path / "c")])
        assert err.value.code == 1
        assert "ERGOPLAN_SEED" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_bad_checkpoint_is_a_data_error(self, tmp_path, capsys):
        cfg = model.ModelConfig(layers=1, heads=1, embed_dim=8, context_len=64)
        good = tmp_path / "m.npz"
        model.save_checkpoint(good, model.init_train_state(cfg, model.TrainConfig()), cfg)
        data = dict(np.load(good))
        meta = json.loads(bytes(data["__meta__"]).decode())
        cases = {
            "checksum mismatch": {"checksum": "0" * len(meta["checksum"])},
            "unsupported checkpoint version": {"version": model.CHECKPOINT_VERSION + 1},
        }
        for message, change in cases.items():
            bad = tmp_path / "bad.npz"
            changed = json.dumps({**meta, **change}).encode()
            data["__meta__"] = np.frombuffer(changed, dtype=np.uint8)
            np.savez(bad, **data)
            assert main(["generate", "--checkpoint", str(bad), "--from-scratch"]) == 2
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
            assert captured.out == ""

    def test_split_selects_plans_for_generate_and_eval(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        assert main(["--seed", "4", "synth", "--n", "10", "--out", str(corpus_dir)]) == 0
        assert main(["split", "--in", str(corpus_dir), "--fractions", "0.6,0.2,0.2"]) == 0
        corpus = dataset.load_corpus(corpus_dir)
        capsys.readouterr()
        cases = {(): "test", ("--split", "train"): "train", ("--split", "all"): None}
        for flag, expected in cases.items():
            assert main(["--format", "json", "eval", "--corpus", str(corpus_dir), *flag]) == 0
            sequences = json.loads(capsys.readouterr().out)["counts"]["sequences"]
            assert sequences == len(corpus.subset(expected) if expected else corpus.plans)

        cfg = model.ModelConfig(layers=1, heads=1, embed_dim=8, context_len=64)
        ckpt = tmp_path / "m.npz"
        model.save_checkpoint(ckpt, model.init_train_state(cfg, model.TrainConfig()), cfg)
        tokens_file = tmp_path / "gen.txt"
        argv = ["generate", "--checkpoint", str(ckpt), "--prefixes", str(corpus_dir)]
        assert main([*argv, "--out", str(tokens_file)]) == 0
        report = capsys.readouterr().err
        assert "tok/s" in report and "hit the context limit" in report
        test_plans = corpus.subset("test")
        lines = tokenizer.parse_token_lines(tokens_file.read_text())
        assert len(lines) == len(test_plans) > 0
        for line, plan in zip(lines, test_plans):
            prefix = tokenizer.boundary_door_prefix(tokenizer.encode(plan, V), V)
            assert tuple(line[: len(prefix)]) == prefix

        (corpus_dir / "splits.json").unlink()
        assert main([*argv, "--split", "test"]) == 2
        assert "no splits.json" in capsys.readouterr().err
