"""Simulation of harvester-filtered low-rate energy features for bearing fault
detection, with a conventional high-rate digital pipeline as the baseline."""

from .classify import knn_fit
from .dataset import write_recording_f32

__version__ = "0.1.0"
