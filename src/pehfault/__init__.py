"""Simulation of harvester-filtered low-rate energy features for bearing fault
detection: a harvester band-pass, an integrator, and a kNN classifier."""

from .dataset import write_recording_f32

__version__ = "0.1.0"
