//! Error types for configuration and runtime CAM operations.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A rejected design-time configuration (Table III parameter rules).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ConfigError {
    /// Storage data width outside `1..=48` bits.
    DataWidth {
        /// The requested width.
        requested: u32,
    },
    /// Block size must be a power of two of at least 2 cells.
    BlockSize {
        /// The requested cell count.
        requested: usize,
    },
    /// Unit must contain at least one block.
    NoBlocks,
    /// Streaming batch width outside `1..=MAX_BATCH_WIDTH` keys.
    BatchWidth {
        /// The requested keys-per-pass batch width.
        requested: usize,
    },
    /// Bus width must be a power of two of at least the data width.
    BusWidth {
        /// The requested bus width in bits.
        requested: u32,
        /// The configured data width in bits.
        data_width: u32,
    },
    /// TCAM don't-care bits extend beyond the data width.
    MaskBeyondWidth {
        /// The configured data width.
        data_width: u32,
        /// The offending mask.
        mask: u64,
    },
    /// RMCAM range size exceeds the datapath.
    RangeTooWide {
        /// The requested log2 range size.
        log2_size: u32,
    },
    /// RMCAM range base not aligned to the range size.
    RangeMisaligned {
        /// The requested base.
        base: u64,
        /// The requested log2 range size.
        log2_size: u32,
    },
    /// Group count must be ≥ 1 and divide the number of blocks.
    GroupCount {
        /// The requested group count.
        requested: usize,
        /// The number of blocks in the unit.
        blocks: usize,
    },
    /// Write-buffer capacity and drain budget must both be at least 1.
    WriteBuffer {
        /// The requested staging capacity in word slots.
        capacity: usize,
        /// The requested drain budget per idle tick.
        drain_per_tick: usize,
    },
    /// A cluster needs at least one shard and one ring slot.
    ClusterShape {
        /// The requested shard count.
        shards: usize,
        /// The requested ring slot count.
        slots: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DataWidth { requested } => {
                write!(f, "data width {requested} outside the 1..=48 bit range")
            }
            ConfigError::BlockSize { requested } => write!(
                f,
                "block size {requested} is not a power of two of at least 2"
            ),
            ConfigError::NoBlocks => write!(f, "unit must contain at least one block"),
            ConfigError::BatchWidth { requested } => write!(
                f,
                "batch width {requested} outside the 1..=64 keys-per-pass range"
            ),
            ConfigError::BusWidth {
                requested,
                data_width,
            } => write!(
                f,
                "bus width {requested} is not a power of two covering the {data_width}-bit data width"
            ),
            ConfigError::MaskBeyondWidth { data_width, mask } => write!(
                f,
                "ternary mask {mask:#x} has don't-care bits beyond the {data_width}-bit data width"
            ),
            ConfigError::RangeTooWide { log2_size } => {
                write!(f, "range size 2^{log2_size} exceeds the 48-bit datapath")
            }
            ConfigError::RangeMisaligned { base, log2_size } => write!(
                f,
                "range base {base:#x} is not aligned to its 2^{log2_size} size"
            ),
            ConfigError::GroupCount { requested, blocks } => write!(
                f,
                "group count {requested} does not evenly partition {blocks} blocks"
            ),
            ConfigError::WriteBuffer {
                capacity,
                drain_per_tick,
            } => write!(
                f,
                "write buffer needs capacity >= 1 and drain budget >= 1 \
                 (got {capacity} slots, {drain_per_tick} per tick)"
            ),
            ConfigError::ClusterShape { shards, slots } => write!(
                f,
                "a cluster needs at least one shard and one ring slot \
                 (got {shards} shards, {slots} slots)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A rejected runtime CAM operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CamError {
    /// An update arrived when every cell (in the addressed block/group) is
    /// already occupied.
    Full {
        /// Entries the operation could not place.
        rejected: usize,
        /// The capacity-limiting group, when the rejection happened at
        /// unit scope (`None` for standalone blocks).
        group: Option<usize>,
    },
    /// A value wider than the configured data width was presented.
    ValueTooWide {
        /// The offending value.
        value: u64,
        /// The configured data width.
        data_width: u32,
    },
    /// A search was issued to a group index that does not exist under the
    /// current grouping.
    NoSuchGroup {
        /// The requested group.
        group: usize,
        /// The number of groups currently configured.
        groups: usize,
    },
    /// A Routing Table write addressed a block index beyond the unit.
    NoSuchBlock {
        /// The requested block.
        block: usize,
        /// The number of blocks in the unit.
        blocks: usize,
    },
    /// More concurrent search keys than configured groups.
    TooManyQueries {
        /// Keys presented.
        presented: usize,
        /// Maximum concurrent queries (the group count).
        capacity: usize,
    },
    /// A range entry was presented to a non-range-matching CAM (or vice
    /// versa a plain value to an RMCAM update path that expects ranges).
    KindMismatch,
}

impl fmt::Display for CamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CamError::Full { rejected, group } => match group {
                Some(group) => write!(
                    f,
                    "CAM group {group} is full; {rejected} entries were rejected"
                ),
                None => write!(f, "CAM is full; {rejected} entries were rejected"),
            },
            CamError::ValueTooWide { value, data_width } => write!(
                f,
                "value {value:#x} does not fit in the {data_width}-bit data width"
            ),
            CamError::NoSuchGroup { group, groups } => {
                write!(f, "group {group} does not exist ({groups} configured)")
            }
            CamError::NoSuchBlock { block, blocks } => {
                write!(f, "block {block} does not exist (unit has {blocks} blocks)")
            }
            CamError::TooManyQueries {
                presented,
                capacity,
            } => write!(
                f,
                "{presented} concurrent queries exceed the {capacity}-group capacity"
            ),
            CamError::KindMismatch => {
                write!(f, "operation does not match the configured CAM kind")
            }
        }
    }
}

impl std::error::Error for CamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_messages() {
        let cases: Vec<(ConfigError, &str)> = vec![
            (ConfigError::DataWidth { requested: 50 }, "50"),
            (ConfigError::BlockSize { requested: 3 }, "3"),
            (ConfigError::NoBlocks, "at least one"),
            (ConfigError::BatchWidth { requested: 65 }, "65"),
            (
                ConfigError::BusWidth {
                    requested: 100,
                    data_width: 32,
                },
                "100",
            ),
            (
                ConfigError::MaskBeyondWidth {
                    data_width: 16,
                    mask: 0x10000,
                },
                "16",
            ),
            (ConfigError::RangeTooWide { log2_size: 49 }, "49"),
            (
                ConfigError::RangeMisaligned {
                    base: 3,
                    log2_size: 2,
                },
                "0x3",
            ),
            (
                ConfigError::GroupCount {
                    requested: 3,
                    blocks: 4,
                },
                "3",
            ),
            (
                ConfigError::WriteBuffer {
                    capacity: 0,
                    drain_per_tick: 4,
                },
                "capacity",
            ),
            (
                ConfigError::ClusterShape {
                    shards: 0,
                    slots: 16,
                },
                "0 shards",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }

    #[test]
    fn cam_error_messages() {
        assert!(CamError::Full {
            rejected: 2,
            group: None
        }
        .to_string()
        .contains('2'));
        let msg = CamError::Full {
            rejected: 2,
            group: Some(1),
        }
        .to_string();
        assert!(msg.contains('2') && msg.contains("group 1"), "{msg:?}");
        assert!(CamError::ValueTooWide {
            value: 0x100,
            data_width: 8
        }
        .to_string()
        .contains("0x100"));
        assert!(CamError::NoSuchGroup {
            group: 5,
            groups: 4
        }
        .to_string()
        .contains('5'));
        assert!(CamError::TooManyQueries {
            presented: 9,
            capacity: 4
        }
        .to_string()
        .contains('9'));
        let msg = CamError::NoSuchBlock {
            block: 7,
            blocks: 4,
        }
        .to_string();
        assert!(msg.contains('7') && msg.contains("block"), "{msg:?}");
        assert!(!CamError::KindMismatch.to_string().is_empty());
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes_err(ConfigError::NoBlocks);
        takes_err(CamError::KindMismatch);
    }
}
