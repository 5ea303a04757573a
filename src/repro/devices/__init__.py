"""Pluggable device models: one contract, many media technologies.

The package splits into a *surface* and *implementations*:

* surface — :mod:`repro.devices.base` (the :class:`DeviceModel`
  contract). This is all ``disk/`` and ``array/`` are allowed to
  import (layering rule 7).
* implementations — :class:`HddDeviceModel` (the paper's mechanical
  36Z15 path, defined in :mod:`repro.mechanics.service` and
  re-exported here) and :mod:`repro.devices.flash` (flat-latency
  multi-channel SSD/NVMe).

Slots are described by named :class:`~repro.config.DeviceSpec` presets
(``ultrastar_36z15``, ``generic_ssd``, ``generic_nvme``) carried on
:attr:`~repro.config.SimConfig.devices`;
:class:`~repro.host.system.System` builds each slot's model from its
spec's :attr:`~repro.config.DeviceSpec.kind`.
"""

from repro.devices.base import DeviceGeometry, DeviceModel, ServiceBreakdown
from repro.devices.flash import FlashServiceModel, FlatGeometry
from repro.mechanics.service import HddDeviceModel

__all__ = [
    "DeviceGeometry",
    "DeviceModel",
    "FlashServiceModel",
    "FlatGeometry",
    "HddDeviceModel",
    "ServiceBreakdown",
]
