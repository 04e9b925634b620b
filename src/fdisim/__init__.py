"""Round-based simulator of dense IIoT sensor clustering with watchdog
surveillance and consensus-based exclusion of false-data injectors."""

from .attacks import AttackConfig
from .clustering import ClusterConfig
from .detection import DetectionConfig
from .engine import ConfigError, RunResult, ScenarioConfig, run_scenario
from .sensing import FieldConfig, TraceError

__version__ = "0.1.0"
