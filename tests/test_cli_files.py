"""The CLI's JSON file layer: one write per document, and one report for
a bad set wherever it is read from."""

import json

from tubesynth import cli

from test_cli import interval, scalar_config, write


def test_write_json_is_one_write_of_the_indented_document(tmp_path, monkeypatch):
    obj = {"none": None, "ints": [0, -3, 2 ** 70], "nested": [[1.5, [2.0, []]], {}],
           "zero": -0.0, "tiny": 1e-300, "huge": 1.7976931348623157e308}
    writes = []

    def recording_open(path, mode="r"):
        fh = open(path, mode)
        write = fh.write
        fh.write = lambda text: writes.append(text) or write(text)
        return fh

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    cli._write_json(tmp_path / "doc.json", obj)
    text = (tmp_path / "doc.json").read_text()
    assert text == json.dumps(obj, indent=2) + "\n"
    assert writes == [text]
    assert json.loads(text) == obj


def test_a_bad_set_is_reported_by_its_field_in_config_and_sets_json(tmp_path, capsys):
    short = {"A": interval(1.0)["A"], "b": [1.0]}
    bad = scalar_config()
    bad["tube"]["explicit"][1] = short
    cfg = write(tmp_path / "bad.json", bad)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err \
        == "config error: tube.explicit[1]: b has length 1, expected 2\n"

    cfg = write(tmp_path / "cfg.json", scalar_config())
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    sets = json.loads((out / "sets.json").read_text())
    sets["steps"][1]["set_bounds"] = [1.0]
    write(out / "sets.json", sets)
    capsys.readouterr()
    assert cli.main(["simulate", "--config", cfg, "--gains", str(out / "gains.json"),
                     "--out", str(tmp_path / "a"), "--runs", "3"]) == 2
    assert capsys.readouterr().err == ("config error: %s: steps[1].set_bounds: "
                                       "b has length 1, expected 2\n" % (out / "sets.json"))
    assert not (tmp_path / "a").exists()
