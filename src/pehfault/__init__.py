"""Simulation of harvester-filtered low-rate energy features for bearing fault
detection, with a conventional high-rate digital pipeline as the baseline."""

from .classify import (
    EvalReport,
    KnnModel,
    SplitConfig,
    SweepRow,
    accuracy_sweep,
    evaluate,
    knn_fit,
    knn_predict,
    points_from_features,
    repeated_evaluation,
    split,
    sweep_csv,
)
from .dataset import (
    DEFAULT_SURROGATE_SPEC,
    ClassSignalSpec,
    LabeledFeature,
    MachineState,
    Manifest,
    RecordingMeta,
    SurrogateSpec,
    build_feature_set,
    build_feature_sets,
    filter_manifest,
    load_manifest,
    load_recording,
    load_surrogate_spec,
    synth_surrogate_corpus,
    write_recording_f32,
)
from .errors import ConfigError, DataError
from .frontend import integrate_energy, make_feature, mean_state_energy
from .harvester import (
    DEFAULT_DESIGNS,
    PehDesign,
    design_from_thickness,
    frf_magnitude,
    load_design_table,
    measure_steady_gain,
    simulate_voltage,
    verify_discretization,
)
from .report import (
    EnergyCostModel,
    SamplingCostReport,
    ScatterPoint,
    ThoughtExperimentReport,
    run_thought_experiment,
    sampling_cost_report,
    scatter_csv,
    scatter_points,
    scatter_svg,
)
from .signals import (
    SignalUnit,
    Spectrum,
    TimeSeries,
    band_energy_digital,
    fft_magnitude,
    segment,
    signal_energy,
    synth_composite,
    synth_sine,
)

__version__ = "0.1.0"
