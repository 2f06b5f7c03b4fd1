"""IEEE 802.1AS (gPTP) protocol stack.

A from-scratch implementation of the pieces of 802.1AS the paper's
architecture exercises, shaped after LinuxPTP:

* two-step Sync/FollowUp with preciseOriginTimestamp, correctionField and
  cumulative rate ratio (:mod:`repro.gptp.messages`);
* peer-delay measurement with neighbor-rate-ratio estimation on every link
  (:mod:`repro.gptp.pdelay`);
* time-aware bridging — switches terminate and regenerate Sync/FollowUp per
  domain, accumulating residence time and ingress link delay into the
  correction field (:mod:`repro.gptp.bridge`);
* ptp4l-like per-domain instances: grandmaster transmit path with ETF
  launch-time alignment, and slave offset computation feeding a pluggable
  sink (:mod:`repro.gptp.instance`);
* the LinuxPTP PI servo with its interval-scaled gains
  (:mod:`repro.gptp.servo`);
* phc2sys — the PHC → ``CLOCK_SYNCTIME`` parameter publisher
  (:mod:`repro.gptp.phc2sys`).

There is no BMCA: as in the paper (§III-A1), port roles are configured
externally, so a grandmaster is fixed when its instance is created.
"""

from repro.gptp.bridge import TimeAwareBridge
from repro.gptp.domain import DomainConfig
from repro.gptp.instance import GptpStack, OffsetSample, OffsetSink, Ptp4lInstance
from repro.gptp.messages import (
    FollowUp,
    PdelayReq,
    PdelayResp,
    PdelayRespFollowUp,
    Sync,
)
from repro.gptp.pdelay import PdelayInitiator, PdelayResponder
from repro.gptp.phc2sys import Phc2Sys
from repro.gptp.servo import PiServo, ServoConfig, ServoState

__all__ = [
    "TimeAwareBridge",
    "DomainConfig",
    "GptpStack",
    "OffsetSample",
    "OffsetSink",
    "Ptp4lInstance",
    "Sync",
    "FollowUp",
    "PdelayReq",
    "PdelayResp",
    "PdelayRespFollowUp",
    "PdelayInitiator",
    "PdelayResponder",
    "Phc2Sys",
    "PiServo",
    "ServoConfig",
    "ServoState",
]
