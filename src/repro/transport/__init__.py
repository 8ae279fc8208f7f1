"""Transport abstraction binding DECAF sites to a message fabric.

One contract (:class:`~repro.transport.base.Transport`: replicas addressed
as ``(tenant, site)``, per-pair FIFO delivery, fail-stop notification) and
three fabrics that differ only in where the bytes go:

* :class:`~repro.transport.memory.MemoryTransport` — synchronous in-process
  queue with zero latency; used by unit tests that exercise protocol logic
  without timing.
* :class:`~repro.sim.network.Network` — the discrete-event simulated
  network (latency models, FIFO reliable channels, fail-stop crashes,
  partitions, schedule choice points); used by integration tests, the
  model checker and every experiment.
* :class:`~repro.transport.tcp.TcpTransport` — length-prefixed wire-codec
  frames over real asyncio TCP streams, with reconnect/backoff and
  fail-stop detection; lets sites in separate OS processes collaborate,
  and with every site local serves as the in-loop fabric of the live
  examples.

:class:`~repro.transport.base.TenantTransport` is one tenant's view of any
of them.
"""

from repro.transport.base import TenantTransport, Transport
from repro.transport.memory import MemoryTransport
# Network subclasses repro.transport.base.Transport, so repro.sim.network
# imports this package; that resolves because ``import repro`` reaches this
# package (through repro.core.site) before it reaches repro.sim.
from repro.sim.network import Network
from repro.transport.tcp import TcpTransport

__all__ = [
    "Transport",
    "TenantTransport",
    "MemoryTransport",
    "Network",
    "TcpTransport",
]
