"""Protocol-agnostic routing layer.

Architecture
------------
The paper's misbehaviour detector judges *forwarding behaviour*; nothing in
its evidence/trust/investigation pipeline cares which routing protocol
produced the routes.  This package is the seam that keeps it that way:

* :class:`~repro.routing.base.RoutingProtocol` is the contract every
  backend implements.  It owns the protocol-agnostic machinery — network
  attachment and frame dispatch, the per-node audit
  :class:`~repro.logs.store.LogStore`, deterministic per-node randomness,
  transmission statistics, the attack hooks (``forward_filters``,
  ``data_handlers``) and the hop-by-hop data plane —
  and requires four protocol-specific pieces:

  ====================================  =======================================
  ``start()``                           schedule periodic control traffic
  ``symmetric_neighbors()``             neighbour discovery result
  ``next_hop(destination)``             route lookup (``None`` = unroutable)
  ``handle_control(payload, last_hop)`` process one received control payload
  ====================================  =======================================

  Optional refinements: ``next_hop_for(packet)`` (per-packet routing, used
  by geo to avoid revisiting hops), ``_on_no_route(packet)`` (reactive
  protocols buffer + discover), ``_data_filter_probe(packet)`` (what drop
  attacks see on the data path), and the detector-integration views
  (``local_topology_answer``, ``peer_advertises``, ``coverage_of``,
  ``providers_of``, ``is_mpr_selector``) that default to "not tracked".

* The **registry** maps protocol names to factories so experiments sweep
  routing protocols like any other axis
  (``--axis protocol=olsr,aodv,geo``).  Registering a new backend::

      from repro.routing import RoutingProtocol, register_protocol

      class MyProtocol(RoutingProtocol):
          protocol_name = "mine"
          ...

      register_protocol(
          "mine",
          lambda node_id, network, config=None, log_store=None, seed=None:
              MyProtocol(node_id, network, config=config,
                         log_store=log_store, seed=seed),
          "one-line description shown by `repro.experiments list`",
      )

  Built-in backends (OLSR from :mod:`repro.olsr.node`, AODV from
  :mod:`repro.routing.aodv`, greedy-geo from :mod:`repro.routing.geo`)
  self-register on first registry use via a lazy import, so importing this
  package stays cheap and cycle-free.

Because attacks attach to the *base-class* hooks and the detector consumes
the *audit log*, a backend registered here automatically works with the
drop/liar/clique attack library, the cooperative investigation protocol,
and the validation invariants that are not OLSR-specific.
"""

from repro.routing.base import DataPacket, ForwardProbe, RoutingProtocol
from repro.routing.registry import (
    ProtocolInfo,
    UnknownProtocolError,
    create_protocol,
    get_protocol,
    list_protocols,
    register_protocol,
)

__all__ = [
    "DataPacket",
    "ForwardProbe",
    "RoutingProtocol",
    "ProtocolInfo",
    "UnknownProtocolError",
    "create_protocol",
    "get_protocol",
    "list_protocols",
    "register_protocol",
]
