"""Network substrate: links, ports, TSN switches, NICs, topology.

The testbed network of the paper (Fig. 2) is four edge devices whose
integrated TSN switches form a full mesh, with each clock synchronization VM
owning a passthrough NIC attached to its device's switch.

Model summary:

* :mod:`repro.network.link` — full-duplex point-to-point links with a fixed
  base propagation+processing delay plus bounded per-packet jitter. The
  min/max delay over all links is what the paper's reading error
  E = d_max − d_min derives from.
* :mod:`repro.network.switch` — store-and-forward switch with static VLAN
  multicast membership (the measurement VLAN) and a hook that terminates
  link-local gPTP traffic at the switch's time-aware bridge logic instead of
  forwarding it (802.1AS frames are never bridged; every hop regenerates).
* :mod:`repro.network.nic` — i210-like endpoint NIC: PTP hardware clock,
  rx/tx hardware timestamping with white jitter, an ETF launch-time transmit
  queue, and the tx-timestamp-timeout fault mode the paper observed in the
  igb driver. Its ingress works like the switch's: gPTP frames go to one
  gPTP handler, every other frame to the rx handlers.
* :mod:`repro.network.topology` — builder for the 4-switch mesh plus path
  enumeration used by the measurement-error analysis.

A link hands each arriving frame straight to the receiving device's
``on_receive``, and the device stamps it with its PHC's one noisy read,
:meth:`repro.clocks.hardware_clock.HardwareClock.timestamp`.
"""

from repro.network.link import Link, LinkModel
from repro.network.nic import Nic, NicModel
from repro.network.packet import GPTP_MULTICAST, Packet
from repro.network.port import Port
from repro.network.switch import SwitchModel, TsnSwitch
from repro.network.topology import MeshTopology, build_mesh

__all__ = [
    "Link",
    "LinkModel",
    "Nic",
    "NicModel",
    "Packet",
    "GPTP_MULTICAST",
    "Port",
    "TsnSwitch",
    "SwitchModel",
    "MeshTopology",
    "build_mesh",
]
