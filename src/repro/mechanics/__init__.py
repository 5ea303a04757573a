"""Disk mechanical models: seek, rotation and media transfer."""

from repro.mechanics.seek import SeekModel, fit_seek_params
from repro.mechanics.rotation import RotationModel
from repro.mechanics.transfer import TransferModel
from repro.mechanics.service import HddDeviceModel

__all__ = [
    "SeekModel",
    "fit_seek_params",
    "RotationModel",
    "TransferModel",
    "HddDeviceModel",
]
