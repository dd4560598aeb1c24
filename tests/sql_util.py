"""Shared helpers for SQL-layer tests."""

from repro.cluster import standard_cluster
from repro.sql import Engine

REGIONS3 = ["us-east1", "us-west1", "europe-west2"]
REGIONS5 = ["us-east1", "us-west1", "europe-west2", "asia-northeast1",
            "australia-southeast1"]


def make_engine(regions=REGIONS3, nodes_per_region=3, max_clock_offset=250.0,
                skew_fraction=0.5, jitter_fraction=0.0, seed=0,
                txn_protocol=None, **kwargs):
    cluster = standard_cluster(
        regions, nodes_per_region=nodes_per_region,
        max_clock_offset=max_clock_offset, skew_fraction=skew_fraction,
        jitter_fraction=jitter_fraction, seed=seed,
        txn_protocol=txn_protocol)
    return Engine(cluster, **kwargs)


def movr_engine(regions=REGIONS3, **kwargs):
    """An engine with the paper's movr-style schema loaded."""
    engine = make_engine(regions, **kwargs)
    session = engine.connect(regions[0])
    region_list = ", ".join(f'"{r}"' for r in regions[1:])
    session.execute(
        f'CREATE DATABASE movr PRIMARY REGION "{regions[0]}" '
        f"REGIONS {region_list}")
    session.execute(
        "CREATE TABLE users (id int PRIMARY KEY, email string UNIQUE, "
        "name string) LOCALITY REGIONAL BY ROW")
    session.execute(
        "CREATE TABLE promo_codes (code string PRIMARY KEY, "
        "description string) LOCALITY GLOBAL")
    return engine, session


def connect(engine, region, db="movr", index=0):
    session = engine.connect(region, index)
    session.execute(f"USE {db}")
    return session
