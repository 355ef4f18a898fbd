"""Configuration of a Quorum run (Sections IV and V of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.quantum.backend import available_simulation_backends

__all__ = ["QuorumConfig"]

_BACKENDS = ("analytic", "density_matrix", "statevector")
_ENTANGLEMENTS = ("linear", "ring", "full")
_FEATURE_SCALINGS = ("circuit_sqrt", "dataset_sqrt", "dataset_linear")
# Mirrors repro.core.parallel.available_executors(); kept literal here because
# the parallel module imports this one.
_EXECUTORS = ("auto", "fused", "serial", "threads", "processes")
# Fields of earlier releases that no longer change behaviour; ``from_dict``
# drops them so artifacts saved with them still load.
_RETIRED_FIELDS = ("compile_circuits",)


@dataclass(frozen=True)
class QuorumConfig:
    """All knobs of the Quorum detector.

    Attributes
    ----------
    num_qubits:
        Encoding register size ``n``; circuits use ``2n + 1`` qubits.  The paper's
        primary experiments use 3 (7-qubit circuits).
    num_layers:
        Rotation/entanglement layers in the random ansatz (Fig. 5 shows 2).
    entanglement:
        CX pattern of the ansatz (``linear`` matches the figure).
    ensemble_groups:
        Number of independent ensemble members (paper: 1,000; scaled down by
        default here because every member is an independent full pass).
    shots:
        Measurement shots per circuit (paper: 4,096).  ``None`` uses exact
        probabilities (no shot noise).
    compression_levels:
        Numbers of qubits reset between encoder and decoder.  ``None`` sweeps
        1 .. n-1 as the paper does.
    bucket_probability:
        Target probability that a bucket contains at least one anomaly; drives the
        bucket size via the hypergeometric calculation in
        :mod:`repro.core.bucketing`.
    anomaly_fraction_estimate:
        Estimated fraction of anomalies in the dataset.  ``None`` falls back to
        ``default_anomaly_fraction``.
    default_anomaly_fraction:
        Conservative prior used when no estimate is supplied.
    feature_scaling:
        How the per-feature maximum is chosen before squaring into probabilities:
        ``"circuit_sqrt"`` (default) scales to ``1/sqrt(m)`` with ``m`` the
        per-circuit feature capacity, so the selected features can carry up to the
        full probability mass; ``"dataset_sqrt"`` scales to ``1/sqrt(M)``;
        ``"dataset_linear"`` is the paper's literal ``1/M`` formula (which leaves
        almost all mass on the overflow state for wide datasets).
    backend:
        ``"analytic"`` (reduced-density-matrix fast path), ``"density_matrix"``
        (full 2n+1-qubit circuit, supports noise), or ``"statevector"``
        (trajectory sampling).
    simulation_backend:
        Which batched numerical kernel implementation the engines run on; one of
        :func:`repro.quantum.backend.available_simulation_backends` (default
        ``"numpy"``).
    noisy:
        Apply the Brisbane-like noise model (only meaningful for the
        ``density_matrix`` backend).
    gate_level_encoding:
        Synthesize explicit state-preparation gates instead of exact
        ``initialize`` instructions (used for noisy runs).
    seed:
        Master seed; every ensemble member derives its own child seed from it.
    n_jobs:
        Workers for the embarrassingly parallel ensemble loop (1 = serial).
    executor:
        Executor strategy running the ensemble members when ``n_jobs > 1``:
        ``"serial"``, ``"threads"`` (zero-copy shared dataset, BLAS releases
        the GIL), ``"processes"`` (dataset in shared memory), ``"fused"``
        (cross-member stacked batches, see ``fused_members``), or ``"auto"``
        (processes when ``n_jobs > 1``).  Results are bit-identical across
        strategies for a fixed seed.
    fused_members:
        Cross-member fused execution: members sharing a compiled-circuit
        structure signature run as ONE ``(members x levels x samples)``
        stacked batch per sweep step instead of one dispatch per member.
        ``True`` forces fusion regardless of ``executor``; ``False`` disables
        it even for ``executor="fused"``; ``None`` (default) fuses exactly
        when ``executor == "fused"``.  Scores stay bit-identical to the
        serial path (shot noise is drawn per member from each member's own
        RNG stream); unfusable configurations (statevector backend, mixed
        structure signatures) fall back to per-member dispatch.
    """

    num_qubits: int = 3
    num_layers: int = 2
    entanglement: str = "linear"
    ensemble_groups: int = 50
    shots: Optional[int] = 4096
    compression_levels: Optional[Tuple[int, ...]] = None
    bucket_probability: float = 0.75
    anomaly_fraction_estimate: Optional[float] = None
    default_anomaly_fraction: float = 0.05
    feature_scaling: str = "circuit_sqrt"
    backend: str = "analytic"
    simulation_backend: str = "numpy"
    noisy: bool = False
    gate_level_encoding: bool = False
    seed: Optional[int] = 1234
    n_jobs: int = 1
    executor: str = "auto"
    fused_members: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.num_qubits < 2:
            raise ValueError("Quorum needs at least 2 encoding qubits")
        if self.num_layers < 1:
            raise ValueError("the ansatz needs at least one layer")
        if self.entanglement not in _ENTANGLEMENTS:
            raise ValueError(f"entanglement must be one of {_ENTANGLEMENTS}")
        if self.ensemble_groups < 1:
            raise ValueError("at least one ensemble group is required")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be positive (or None for exact)")
        if not 0.0 < self.bucket_probability < 1.0:
            raise ValueError("bucket_probability must be in (0, 1)")
        if self.anomaly_fraction_estimate is not None:
            if not 0.0 < self.anomaly_fraction_estimate < 1.0:
                raise ValueError("anomaly_fraction_estimate must be in (0, 1)")
        if not 0.0 < self.default_anomaly_fraction < 1.0:
            raise ValueError("default_anomaly_fraction must be in (0, 1)")
        if self.feature_scaling not in _FEATURE_SCALINGS:
            raise ValueError(f"feature_scaling must be one of {_FEATURE_SCALINGS}")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        if self.simulation_backend not in available_simulation_backends():
            raise ValueError(
                "simulation_backend must be one of "
                f"{available_simulation_backends()}"
            )
        if self.noisy and self.backend != "density_matrix":
            raise ValueError("noisy simulation requires the density_matrix backend")
        if self.backend == "statevector" and self.shots is None:
            raise ValueError("the statevector backend is shot-based; "
                             "exact probabilities (shots=None) need another "
                             "backend")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        if self.executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}")
        if self.fused_members is not None and not isinstance(
                self.fused_members, bool):
            raise ValueError("fused_members must be True, False, or None")
        if self.compression_levels is not None:
            levels = tuple(int(level) for level in self.compression_levels)
            if not levels:
                raise ValueError("compression_levels cannot be empty")
            for level in levels:
                if not 1 <= level <= self.num_qubits:
                    raise ValueError(
                        f"compression level {level} outside [1, {self.num_qubits}]"
                    )
            object.__setattr__(self, "compression_levels", levels)

    # -------------------------------------------------------------- properties
    @property
    def features_per_circuit(self) -> int:
        """m = 2^n - 1 features fit per circuit (one slot is the overflow state)."""
        return 2 ** self.num_qubits - 1

    @property
    def total_circuit_qubits(self) -> int:
        """2n + 1 qubits: two registers plus the SWAP-test ancilla."""
        return 2 * self.num_qubits + 1

    @property
    def effective_compression_levels(self) -> Tuple[int, ...]:
        """The compression sweep: explicit levels, or 1 .. n-1 by default."""
        if self.compression_levels is not None:
            return self.compression_levels
        return tuple(range(1, self.num_qubits))

    def feature_ceiling(self, num_dataset_features: int) -> float:
        """Per-feature maximum after normalization, for a dataset with ``M`` columns."""
        if num_dataset_features < 1:
            raise ValueError("the dataset needs at least one feature")
        if self.feature_scaling == "circuit_sqrt":
            capacity = min(self.features_per_circuit, num_dataset_features)
            return 1.0 / float(capacity) ** 0.5
        if self.feature_scaling == "dataset_sqrt":
            return 1.0 / float(num_dataset_features) ** 0.5
        return 1.0 / float(num_dataset_features)

    @property
    def wants_fused_members(self) -> bool:
        """Whether ensemble members should execute as cross-member batches.

        ``fused_members`` overrides when set; otherwise fusion follows the
        executor choice (``executor == "fused"``).
        """
        if self.fused_members is not None:
            return self.fused_members
        return self.executor == "fused"

    @property
    def effective_anomaly_fraction(self) -> float:
        """The anomaly-fraction estimate used for bucket sizing."""
        if self.anomaly_fraction_estimate is not None:
            return self.anomaly_fraction_estimate
        return self.default_anomaly_fraction

    # ----------------------------------------------------------------- helpers
    def with_overrides(self, **overrides: object) -> "QuorumConfig":
        """A copy of the config with the given fields replaced."""
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, object]:
        """Every config field as a JSON-friendly mapping.

        Unlike :meth:`describe` (a human-readable summary), this covers *all*
        fields and round-trips exactly through :meth:`from_dict`, which is what
        the serving artifact layer persists.
        """
        payload: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "QuorumConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected loudly: a silently dropped knob in a loaded
        model artifact would change scoring behaviour without any error.
        Retired fields, which no longer change any score, are dropped.
        """
        values = {key: value for key, value in payload.items()
                  if key not in _RETIRED_FIELDS}
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ValueError(f"unknown QuorumConfig fields: {', '.join(unknown)}")
        levels = values.get("compression_levels")
        if levels is not None:
            values["compression_levels"] = tuple(int(level) for level in levels)
        return cls(**values)  # type: ignore[arg-type]

    def describe(self) -> Dict[str, object]:
        """Readable summary used by examples and the benchmark harness."""
        return {
            "num_qubits": self.num_qubits,
            "circuit_qubits": self.total_circuit_qubits,
            "features_per_circuit": self.features_per_circuit,
            "ensemble_groups": self.ensemble_groups,
            "shots": self.shots,
            "compression_levels": list(self.effective_compression_levels),
            "bucket_probability": self.bucket_probability,
            "backend": self.backend,
            "simulation_backend": self.simulation_backend,
            "noisy": self.noisy,
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "executor": self.executor,
            "fused_members": self.fused_members,
        }
