import fedmesh

PUBLIC_API = [
    "AdversaryAssignment",
    "BinaryMetrics",
    "CipherVector",
    "ClientEvaluation",
    "ClientReports",
    "CrossEdgeConfig",
    "DataConfig",
    "Dataset",
    "EdgeUpdate",
    "FixedPointCodec",
    "MODES",
    "ParamVector",
    "RoundRecord",
    "ScoreWeights",
    "SecAggConfig",
    "SelectionConfig",
    "SimulationConfig",
    "SimulationResult",
    "TrainerConfig",
    "aggregate_encrypted",
    "binary_metrics",
    "build_report",
    "central_aggregate",
    "consistency_check",
    "cross_edge_exchange",
    "encrypt_update",
    "estimate_metrics",
    "finalize_edge_update",
    "generate_synthetic",
    "grid_search_init",
    "ingest_csv",
    "jain_fairness",
    "keygen",
    "partition_noniid",
    "run",
    "score",
    "select_clients",
    "split",
    "train_clients",
    "train_local",
    "update_weights",
]


def test_public_api_is_pinned():
    # growing or shrinking the public surface must be a deliberate edit here
    assert sorted(fedmesh.__all__) == PUBLIC_API
    assert len(set(fedmesh.__all__)) == len(fedmesh.__all__)
    for name in PUBLIC_API:
        assert getattr(fedmesh, name) is not None
