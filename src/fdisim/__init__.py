"""Round-based simulator of dense IIoT sensor clustering with watchdog
surveillance and consensus-based exclusion of false-data injectors."""

from .attacks import AttackConfig, GroundTruth, churn_is_false_phase, forge_reading
from .clustering import (ClusterConfig, ClusterSnapshot, NeighborRecord, NeighborTable,
                         elect_leaders, extract_clusters, is_similar)
from .detection import (ClassifyOutcome, ConsensusRegion, DetectionConfig, classify_suspect,
                        region_sd)
from .domain import (AlertMessage, DataMessage, NodeLabel, validate_alert_message,
                     validate_data_message)
from .engine import (ConfigError, RunResult, ScenarioConfig, compute_adjacency, place_nodes,
                     run_scenario)
from .metrics import (ConfusionCounts, MetricsReport, aggregate_runs, cluster_availability,
                      compute_confusion)
from .sensing import FieldConfig, TraceError, TraceTable, load_trace, synth_reading

__version__ = "0.1.0"
