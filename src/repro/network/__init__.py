"""Network engines: addressing, simulation, latency calibration and sockets."""

from .addressing import Endpoint, Transport, endpoint_for_color
from .engine import NetworkEngine, NetworkNode
from .latency import CalibratedLatencies, LatencyModel, default_latencies
from .simulated import SimulatedNetwork
from .aio import AsyncSocketNetwork

__all__ = [
    "Endpoint",
    "Transport",
    "endpoint_for_color",
    "NetworkEngine",
    "NetworkNode",
    "SimulatedNetwork",
    "AsyncSocketNetwork",
    "LatencyModel",
    "CalibratedLatencies",
    "default_latencies",
]
