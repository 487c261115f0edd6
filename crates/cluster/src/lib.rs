//! Elastic multi-unit CAM sharding cluster.
//!
//! A [`CamCluster`] scales the single-unit CAM horizontally: keys hash
//! onto a fixed ring of virtual slots ([`HashRing`]) and slots map to
//! [`dsp_cam_core::pipelined::StreamingCam`] shards, each wrapping its
//! own `CamUnit`. Because per-operation cost grows superlinearly in
//! unit size (every search walks the whole unit), four quarter-size
//! shards answer a mixed workload well over twice as fast as one big
//! unit even on a single core — the cluster trades replicated control
//! logic for shorter per-shard walks, the same area-for-latency bargain
//! the paper's multi-unit DSP tiling makes.
//!
//! Elasticity comes from **live slot migration**
//! ([`CamCluster::begin_migration`]): the migrating slot's keys are
//! frozen into a read-only replica snapshot (via the core `rehydrate`
//! path) that keeps answering searches while the destination shard
//! absorbs the moved words through its write buffer. No query is ever
//! dropped or reordered — each key has exactly one serving home at any
//! instant, and each shard applies its ops in issue order.
//!
//! [`ClusterSnapshot`] replicates read-only copies of every shard for
//! multi-shard search fan-out outside the clocked pipeline, and
//! [`replay_cluster`] drives a whole `dsp-cam-workload` trace through a
//! bounded async-style ingest queue, producing per-shard retire-latency
//! and migration-stall histograms. The replay and the transactional
//! [`CamCluster::search`] / [`CamCluster::search_stream`] /
//! [`CamCluster::update`] / [`CamCluster::delete`] run on one issue
//! engine, which gives each shard at most one issue per cycle — the
//! unit's single issue port (II = 1).
//!
//! **Fault tolerance** ([`CamCluster::enable_failover`]) keeps the
//! cluster serving through shard failures: each shard maintains one
//! read-only replica epoch (a clean journal mark taken via the
//! `rehydrate` path and replaced at each [`ReplicationConfig`]
//! refresh) plus a bounded journal of acknowledged writes since that
//! epoch. A crashed shard —
//! injected by a seeded [`ClusterFaultPlan`] — has its slots degraded
//! to replica-served reads while a rebuild restores
//! `epoch + journal` at one word per tick, guaranteeing zero lost
//! acknowledged writes; a destination that crashes inside a migration
//! window rolls it back to source-serving, the same rollback
//! [`CamCluster::abort_migration`] runs; and
//! writes aimed at a down shard wait under a bounded-backoff
//! [`ShedPolicy`] before the cluster sheds them with
//! [`ClusterError::Overloaded`]. See `tests/cluster_recovery.rs` for
//! the chaos contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::expect_used, clippy::unwrap_used))]

mod cluster;
mod failover;
mod ingest;
mod ring;

pub use cluster::{CamCluster, ClusterCounters, ClusterError, ClusterSnapshot};
pub use failover::{
    ClusterFaultPlan, FailoverStats, PlannedFault, ReplicationConfig, ShardFault, ShedPolicy,
};
pub use ingest::{replay_cluster, ClusterReplayOutcome, IngestConfig, MigrationPlan};
pub use ring::{mix64, HashRing};
