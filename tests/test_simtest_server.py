"""The simulated wire seam: episodes ingesting through the server path.

``Config(wire=True)`` replaces the episode's receptor with a
:class:`WireIngress` (real frame encode → decode → ingest queue) plus
the real :class:`ServerIngestPump`, so the differential oracle's
streaming ≡ one-shot claim covers the network ingest path — without
sockets, fully deterministic.
"""

import pytest

from repro import DataCell, LogicalClock
from repro.adapters.channels import InMemoryChannel
from repro.kernel.types import AtomType
from repro.server.protocol import Command
from repro.simtest import Config, Episode, check
from repro.simtest.server_episode import attach_server_ingress

ROWS = tuple((v, v % 7) for v in range(-5, 25))


class TestWireIngress:
    def _cell(self):
        cell = DataCell(clock=LogicalClock())
        cell.execute("create basket feed (a int, b int)")
        return cell

    def test_rows_cross_the_wire_seam(self):
        cell = self._cell()
        channel = InMemoryChannel()
        ingress = attach_server_ingress(
            cell, channel, "feed",
            [("a", AtomType.INT), ("b", AtomType.INT)],
        )
        channel.push_many([(1, 2), (3, 4), (5, 6)])
        cell.run_until_quiescent()
        assert cell.basket("feed").total_in == 3
        assert ingress.frames_sent == 1
        assert ingress.decoder.frames_decoded == 1

    def test_pump_acks_each_batch(self):
        cell = self._cell()
        channel = InMemoryChannel()
        ingress = attach_server_ingress(
            cell, channel, "feed",
            [("a", AtomType.INT), ("b", AtomType.INT)],
            batch_size=2,
        )
        channel.push_many([(1, 2), (3, 4), (5, 6)])
        cell.run_until_quiescent()
        assert [m.command for m in ingress.replies] == [Command.ACK] * 2
        assert sorted(m.meta["rows"] for m in ingress.replies) == [1, 2]
        assert [m.meta["seq"] for m in ingress.replies] == [1, 2]

    def test_bad_basket_is_an_error_reply(self):
        cell = self._cell()
        channel = InMemoryChannel()
        ingress = attach_server_ingress(
            cell, channel, "ghost",
            [("a", AtomType.INT), ("b", AtomType.INT)],
        )
        channel.push((1, 2))
        cell.run_until_quiescent()
        assert [m.command for m in ingress.replies] == [Command.ERROR]


@pytest.mark.parametrize("case", ["filter", "passthrough"])
@pytest.mark.parametrize("fault_rate", [0.0, 0.3])
def test_via_server_episodes_match_the_oracle(case, fault_rate):
    spec = Episode(
        seed=11,
        rows=ROWS,
        workload=case,
        policy="priority",
        batch_size=3,
        batch_fault_rate=fault_rate,
    )
    result = check(spec, Config(wire=True))
    assert result.ok, result.explain()


def test_via_server_starvation_policy():
    """Starving the wire transition stalls ingest without divergence."""
    spec = Episode(
        seed=5,
        rows=ROWS,
        workload="filter",
        policy="starve:server_wire",
        batch_size=2,
    )
    result = check(spec, Config(wire=True))
    assert result.ok, result.explain()


def test_receptor_and_server_paths_agree():
    """The ingest path is an implementation detail of the claim."""
    for via_server in (False, True):
        spec = Episode(
            seed=23,
            rows=ROWS,
            workload="compound",
            policy="round-robin",
            batch_size=4,
        )
        result = check(spec, Config(wire=via_server))
        assert result.ok, result.explain()
