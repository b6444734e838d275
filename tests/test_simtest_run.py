"""The one simtest CLI and the configuration matrices CI runs through it.

Every ``python -m repro.simtest.run`` invocation in the CI workflow is
parsed with the CLI's own argument parser and enumerated at its CI
episode count: each (workload kind, applicable configuration) pair of
its matrix must occur at least once, so no configuration a job names
is silently never run.
"""

import json
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from repro.core.emitter import Emitter
from repro.errors import DataCellError
from repro.simtest import KINDS, Config, Episode, check, matrix
from repro.simtest.run import main, parse_args

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def ci_invocations():
    text = CI.read_text().replace("\\\n", " ")
    return [
        parse_args(shlex.split(line) + ["--seed", "0"])
        for line in re.findall(r"python -m repro\.simtest\.run(.*)", text)
    ]


def test_ci_runs_every_matrix_at_its_episode_count():
    assert sorted(a.episodes for a in ci_invocations()) == [
        30, 100, 100, 200, 200,
    ]


@pytest.mark.parametrize(
    "index", range(5), ids=lambda i: f"invocation{i}"
)
def test_every_applicable_pair_occurs_in_each_ci_matrix(index):
    args = ci_invocations()[index]
    seen = Counter(
        (episode.kind, config)
        for episode, config in matrix(args.configs, args.episodes, 0)
    )
    wanted = {(k, c) for c in args.configs for k in KINDS if c.applies(k)}
    assert wanted <= set(seen), sorted(map(str, wanted - set(seen)))


def test_ci_matrices_cover_every_kind_route_and_flag():
    configs = {c for a in ci_invocations() for c in a.configs}
    assert {c.route for c in configs} == {"reeval", "basic", "incremental"}
    assert any(c.wire for c in configs) and any(c.crash for c in configs)
    kinds = {k for c in configs for k in KINDS if c.applies(k)}
    assert kinds == set(KINDS)


def test_crash_matrix_kills_mid_run():
    (crash,) = [a for a in ci_invocations() if all(c.crash for c in a.configs)]
    kills = sum(
        check(episode, config).crashed
        for episode, config in matrix(crash.configs, 20, 0)
    )
    assert kills >= 18


class TestConfig:
    @pytest.mark.parametrize(
        "text", ["reeval", "basic+crash", "incremental+wire+crash"]
    )
    def test_parse_round_trips(self, text):
        assert str(Config.parse(text)) == text

    @pytest.mark.parametrize("text", ["fast", "reeval+gpu", ""])
    def test_bad_configuration_rejected(self, text):
        with pytest.raises(ValueError):
            Config.parse(text)

    def test_inapplicable_pair_refused(self):
        episode = Episode(seed=0, rows=((1, 2),), workload="time_window")
        with pytest.raises(DataCellError):
            check(episode, Config("reeval"))

    def test_crash_refuses_channel_faults(self):
        episode = Episode(seed=0, rows=((1, 2),), batch_fault_rate=0.3)
        with pytest.raises(DataCellError):
            check(episode, Config(crash=True))


def test_cli_reports_pairs_and_passes(capsys):
    assert main(["--episodes", "8", "--seed", "3",
                 "--configs", "incremental,basic+crash"]) == 0
    out = capsys.readouterr().out
    assert "8/8 episodes passed" in out
    assert "join@incremental=" in out and "count_window@basic+crash=" in out


def test_cli_rejects_unknown_configuration(capsys):
    with pytest.raises(SystemExit):
        main(["--configs", "reeval,turbo"])


def test_cli_shrinks_a_failure_into_a_pasteable_repro(
    monkeypatch, tmp_path, capsys
):
    original = Emitter.activate

    def no_suppression(self):
        self.high_water_seq = -1  # recovery re-delivers everything
        return original(self)

    monkeypatch.setattr(Emitter, "activate", no_suppression)
    out = tmp_path / "repro.json"
    failures = main(["--episodes", "4", "--seed", "0", "--configs",
                     "reeval+crash", "--out", str(out)])
    artifact = json.loads(out.read_text())
    assert failures == len(artifact["failures"]) >= 1
    repro = artifact["shrunk"]["repro"]
    assert repro.startswith("check(Episode(") and "crash=True" in repro
    calls = []
    for line in (artifact["shrunk"]["original"], repro):
        eval(line, {"Episode": Episode, "Config": Config,
                    "check": lambda *args: calls.append(args)})
    (failing, _), (episode, config) = calls
    assert len(episode.rows) < len(failing.rows)
    assert config == Config(crash=True)
    assert not check(episode, config).ok
