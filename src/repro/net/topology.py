"""Multi-switch fabrics: a 2-tier leaf/spine topology.

A single :class:`~repro.net.switch.Switch` models one ToR.  Data-center
RDMA runs across tiers, where congestion is *shared*: an incast at one
leaf backs up into the spines and PFC spreads the pressure to innocent
flows — behavior a single switch cannot exhibit.  This module wires
:class:`Switch` instances into the standard Clos shape:

* ``leaves[i]`` — edge switches; hosts attach round-robin (or to an
  explicit leaf).
* ``spines[j]`` — core tier; every leaf trunks to every spine.
* Leaf→spine traffic ECMP-hashes over the uplinks (deterministic CRC32
  of the flow identity, so one flow keeps one path and packet order).
* Spine→leaf traffic follows static routes installed at ``attach``.
* ``oversubscription`` scales the trunk line rate down relative to the
  host ports (an oversubscription of 4 gives each uplink a quarter of
  the edge bandwidth — the standard knob for provoking core congestion).

Counters, fault arming and port management stay per switch: reach
them through ``leaves`` / ``spines``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .cmac import CMAC_BANDWIDTH, Cmac
from .headers import MacAddress
from .switch import SWITCH_LATENCY_NS, Switch, SwitchConfig

__all__ = ["LeafSpineTopology"]


class LeafSpineTopology:
    """A 2-tier Clos of :class:`Switch` instances."""

    def __init__(
        self,
        env,
        leaves: int = 2,
        spines: int = 2,
        latency_ns: float = SWITCH_LATENCY_NS,
        config: Optional[SwitchConfig] = None,
        oversubscription: float = 1.0,
        host_line_rate: float = CMAC_BANDWIDTH,
    ):
        if leaves < 1 or spines < 1:
            raise ValueError("need at least one leaf and one spine")
        if oversubscription <= 0.0:
            raise ValueError("oversubscription must be positive")
        self.env = env
        self.latency_ns = latency_ns
        self.config = config if config is not None else SwitchConfig()
        self.leaves: List[Switch] = [
            Switch(env, latency_ns, self.config, name=f"leaf{i}")
            for i in range(leaves)
        ]
        self.spines: List[Switch] = [
            Switch(env, latency_ns, self.config, name=f"spine{j}")
            for j in range(spines)
        ]
        self.uplink_rate = host_line_rate / oversubscription
        #: (leaf index, spine index) -> (leaf-side key, spine-side key).
        self.trunks: Dict[Tuple[int, int], Tuple[object, object]] = {}
        for i, leaf in enumerate(self.leaves):
            for j, spine in enumerate(self.spines):
                self.trunks[(i, j)] = leaf.connect_trunk(
                    spine, line_rate=self.uplink_rate, ecmp_here=True
                )
        self._next_leaf = 0

    # ------------------------------------------------------------ topology

    def attach(self, mac: MacAddress, cmac: Cmac, leaf: Optional[int] = None) -> int:
        """Attach a host to a leaf (round-robin when unspecified) and
        install spine→leaf return routes.  Returns the leaf index."""
        index = leaf if leaf is not None else self._next_leaf % len(self.leaves)
        if leaf is None:
            self._next_leaf += 1
        self.leaves[index].attach(mac, cmac)
        for j, spine in enumerate(self.spines):
            _, spine_key = self.trunks[(index, j)]
            spine.add_route(mac, spine_key)
        return index
