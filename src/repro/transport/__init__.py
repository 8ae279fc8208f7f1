"""Transport abstraction binding DECAF sites to a message fabric.

Four interchangeable implementations:

* :class:`~repro.transport.memory.MemoryTransport` — synchronous in-process
  queue with zero latency; used by unit tests that exercise protocol logic
  without timing.
* :class:`~repro.transport.simnet.SimTransport` — adapter over the
  discrete-event :class:`~repro.sim.network.Network`; used by integration
  tests and every benchmark.
* :class:`~repro.transport.asyncio_transport.AsyncioTransport` — wall-clock
  asyncio delivery with optional injected delay; used by the runnable
  examples to demonstrate live behaviour.
* :class:`~repro.transport.tcp.TcpTransport` — length-prefixed wire-codec
  frames over real asyncio TCP streams, with reconnect/backoff and
  fail-stop detection; lets sites in separate OS processes collaborate.
"""

from repro.transport.base import TenantTransport, Transport
from repro.transport.memory import MemoryTransport
from repro.transport.simnet import SimTransport
from repro.transport.asyncio_transport import AsyncioTransport
from repro.transport.tcp import TcpTransport

__all__ = [
    "Transport",
    "TenantTransport",
    "MemoryTransport",
    "SimTransport",
    "AsyncioTransport",
    "TcpTransport",
]
