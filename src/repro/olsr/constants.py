"""Protocol constants from RFC 3626 (Optimized Link State Routing).

Timing values are in seconds of simulated time.  They are the RFC 3626 §18
defaults, and every node runs on them: nothing overrides a timer.
"""

from __future__ import annotations

import enum

# --------------------------------------------------------------------- timing
HELLO_INTERVAL = 2.0
REFRESH_INTERVAL = 2.0
TC_INTERVAL = 5.0

NEIGHB_HOLD_TIME = 3 * REFRESH_INTERVAL
TOP_HOLD_TIME = 3 * TC_INTERVAL
DUP_HOLD_TIME = 30.0

#: Maximum jitter subtracted from periodic emission intervals (RFC §18.3).
MAXJITTER = HELLO_INTERVAL / 4.0
#: A node's first HELLO leaves within this long of its start.
START_DELAY_MAX = 1.0
#: A relayed flooded message waits a uniform delay below this (RFC §3.4).
FORWARD_JITTER = 0.1


# ---------------------------------------------------------------- message ids
class MessageType(str, enum.Enum):
    """OLSR control-message types."""

    HELLO = "HELLO"
    TC = "TC"
    MID = "MID"
    HNA = "HNA"

    def __str__(self) -> str:
        return self.value


# --------------------------------------------------------------- willingness
class Willingness(int, enum.Enum):
    """Willingness of a node to carry traffic on behalf of others (RFC §18.8)."""

    WILL_NEVER = 0
    WILL_LOW = 1
    WILL_DEFAULT = 3
    WILL_HIGH = 6
    WILL_ALWAYS = 7


# ----------------------------------------------------------------- link codes
class LinkType(int, enum.Enum):
    """Link type advertised in HELLO messages (RFC §6.1.1)."""

    UNSPEC_LINK = 0
    ASYM_LINK = 1
    SYM_LINK = 2
    LOST_LINK = 3


class NeighborType(int, enum.Enum):
    """Neighbour type advertised in HELLO messages (RFC §6.1.1)."""

    NOT_NEIGH = 0
    SYM_NEIGH = 1
    MPR_NEIGH = 2


# --------------------------------------------------------------------- limits
DEFAULT_TTL = 255
MAX_TTL = 255

#: Header sizes (bytes): an OLSR packet header and each message's header.
PACKET_HEADER_SIZE = 4
MESSAGE_HEADER_SIZE = 12
#: Default emission sizes used for statistics (bytes).
HELLO_BASE_SIZE = 20
TC_BASE_SIZE = 16
PER_ADDRESS_SIZE = 4
