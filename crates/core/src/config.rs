//! Buffer manager configuration and builder.

use spitfire_device::{PersistenceTracking, SsdBackendConfig, TimeScale};

use crate::policy::MigrationPolicy;

/// Default page size: 16 KB, as in HyMem and the paper's experiments.
pub const DEFAULT_PAGE_SIZE: usize = 16 * 1024;

/// Which storage hierarchy a configuration describes (paper §6.6 compares
/// all of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hierarchy {
    /// Two tiers: DRAM buffer over SSD (the classic design).
    DramSsd,
    /// Two tiers: NVM buffer over SSD (app-direct mode).
    NvmSsd,
    /// Three tiers: DRAM and NVM buffers over SSD.
    DramNvmSsd,
    /// Two tiers, with tier 1 being NVM in *memory mode*: DRAM acts as a
    /// hardware-managed cache and the DBMS sees one large volatile buffer
    /// (paper §2.2, Figure 5).
    MemoryModeSsd,
}

/// Errors produced by [`BufferManagerConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Page size must be a power of two of at least 512 bytes.
    BadPageSize(usize),
    /// Both buffers were configured with zero capacity.
    NoBufferCapacity,
    /// A buffer capacity is smaller than one page.
    CapacityTooSmall {
        /// Tier label ("dram" or "nvm").
        tier: &'static str,
        /// Configured capacity in bytes.
        capacity: usize,
    },
    /// Fine-grained loading granule must be a power of two in
    /// `[64, page_size]`.
    BadGranule(usize),
    /// Mini pages require fine-grained loading to be enabled.
    MiniPagesNeedGranule,
    /// Memory mode needs both a DRAM cache size and NVM capacity.
    BadMemoryMode,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadPageSize(s) => {
                write!(f, "page size {s} must be a power of two >= 512")
            }
            ConfigError::NoBufferCapacity => {
                write!(
                    f,
                    "at least one of the DRAM and NVM buffers must have capacity"
                )
            }
            ConfigError::CapacityTooSmall { tier, capacity } => {
                write!(
                    f,
                    "{tier} capacity of {capacity} bytes holds no complete page"
                )
            }
            ConfigError::BadGranule(g) => {
                write!(
                    f,
                    "loading granule {g} must be a power of two in [64, page_size]"
                )
            }
            ConfigError::MiniPagesNeedGranule => {
                write!(f, "mini pages require fine-grained loading (set a granule)")
            }
            ConfigError::BadMemoryMode => {
                write!(
                    f,
                    "memory mode requires nonzero DRAM (cache) and NVM capacities"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The replacement policy a pool runs. There is one: the paper's per-tier
/// CLOCK (§5.2), which every pool runs inline. The type stays only so
/// callers of [`BufferManagerConfigBuilder::dram_policy`] /
/// [`BufferManagerConfigBuilder::nvm_policy`] keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyConfig {
    /// CLOCK second-chance sweep over the pool's occupied frames.
    Clock,
}

// Background maintenance constants: values, not options — no binary,
// server, benchmark workload or example has a reason to set one.

/// Free-frame fraction of the DRAM pool below which maintenance workers
/// refill. When a tier's free frames drop below its *low* mark, workers
/// pre-evict replacement victims until the *high* mark is reached, so a
/// fetch miss takes a frame from the free list instead of running eviction
/// I/O inline. `low` must leave enough slack to absorb an allocation burst
/// while a worker wakes up; `high` is the refill target and bounds the
/// standing capacity loss.
pub(crate) const DRAM_LOW_WATERMARK: f64 = 1.0 / 8.0;
/// Free-frame fraction the DRAM refill aims for.
pub(crate) const DRAM_HIGH_WATERMARK: f64 = 1.0 / 4.0;
/// NVM low mark. Proportionally slimmer than DRAM's: the pool is larger,
/// demand per frame lower, and every standing free frame is resident
/// capacity given up.
pub(crate) const NVM_LOW_WATERMARK: f64 = 1.0 / 16.0;
/// Free-frame fraction the NVM refill aims for.
pub(crate) const NVM_HIGH_WATERMARK: f64 = 1.0 / 8.0;
/// Max pages written back per maintenance batch; dirty NVM victims in
/// one batch share a single SSD sync barrier, amortizing
/// the device cost model's per-op latency. Trades fsync amortization
/// against how long the batch's frames stay claimed-but-unfreed.
pub const MAINTENANCE_BATCH: usize = 4;
/// Worker threads [`crate::Maintenance::start`] spawns: two, so a DRAM
/// refill is never stuck behind an in-flight NVM write-back batch.
pub(crate) const MAINTENANCE_WORKERS: usize = 2;

// The relations the maintenance code relies on, checked at compile time.
const _: () = {
    assert!(0.0 < DRAM_LOW_WATERMARK && DRAM_LOW_WATERMARK < DRAM_HIGH_WATERMARK);
    assert!(0.0 < NVM_LOW_WATERMARK && NVM_LOW_WATERMARK < NVM_HIGH_WATERMARK);
    assert!(DRAM_HIGH_WATERMARK <= 0.9 && NVM_HIGH_WATERMARK <= 0.9);
    assert!(MAINTENANCE_BATCH >= 1 && MAINTENANCE_WORKERS >= 1);
};

/// Background maintenance tuning (see the [`crate::Maintenance`] handle).
/// The free-frame watermarks (DRAM ⅛ → ¼, NVM 1⁄16 → ⅛ of the pool), the
/// write-back batch ([`MAINTENANCE_BATCH`]) and the worker count (2) are
/// constants of this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceConfig {
    /// Worker wake-up period in microseconds when not kicked by a
    /// low-watermark signal.
    pub interval_us: u64,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig { interval_us: 500 }
    }
}

/// Configuration for a [`crate::BufferManager`]; construct via
/// [`BufferManagerConfig::builder`].
#[derive(Debug, Clone)]
pub struct BufferManagerConfig {
    /// Page size in bytes (power of two, ≥ 512).
    pub page_size: usize,
    /// DRAM buffer capacity in bytes (0 disables the DRAM buffer). In
    /// memory mode this is the size of the DRAM cache in front of NVM.
    pub dram_capacity: usize,
    /// NVM buffer capacity in bytes (0 disables the NVM buffer). In memory
    /// mode this is the capacity of the volatile composite device.
    pub nvm_capacity: usize,
    /// Initial data migration policy.
    pub policy: MigrationPolicy,
    /// Scale for emulated device delays.
    pub time_scale: TimeScale,
    /// NVM persistence bookkeeping (enable `Full` for crash tests).
    pub persistence: PersistenceTracking,
    /// Fine-grained loading granule in bytes (None = whole-page loading;
    /// paper §2.1, Figure 11 sweeps 64–512 B).
    pub fine_grained: Option<usize>,
    /// Enable the mini-page layout for fine-grained pages (paper §2.1).
    pub mini_pages: bool,
    /// Run tier 1 in memory mode (DRAM as hardware cache over NVM).
    pub memory_mode: bool,
    /// Seed for the policy's coin flips (reproducible experiments). A
    /// page's coins are a function of this seed, the page id, the coin and
    /// how many coins the page has drawn, so the same seed gives every
    /// page the same coins whatever thread draws them and in what order.
    pub seed: u64,
    /// Background maintenance tuning (the workers' wake-up period).
    pub maintenance: MaintenanceConfig,
    /// SSD backing store: the in-memory emulation (default) or a real
    /// file with direct I/O.
    pub ssd_backend: SsdBackendConfig,
}

impl BufferManagerConfig {
    /// Start building a configuration.
    pub fn builder() -> BufferManagerConfigBuilder {
        BufferManagerConfigBuilder {
            config: Self::default_config(),
        }
    }

    fn default_config() -> Self {
        BufferManagerConfig {
            page_size: DEFAULT_PAGE_SIZE,
            dram_capacity: 64 * 1024 * 1024,
            nvm_capacity: 256 * 1024 * 1024,
            policy: MigrationPolicy::lazy(),
            time_scale: TimeScale::REAL,
            persistence: PersistenceTracking::Counters,
            fine_grained: None,
            mini_pages: false,
            memory_mode: false,
            seed: 0x5f17f17e,
            maintenance: MaintenanceConfig::default(),
            ssd_backend: SsdBackendConfig::default(),
        }
    }

    /// The hierarchy implied by the configured capacities.
    pub fn hierarchy(&self) -> Hierarchy {
        if self.memory_mode {
            Hierarchy::MemoryModeSsd
        } else {
            match (self.dram_capacity > 0, self.nvm_capacity > 0) {
                (true, true) => Hierarchy::DramNvmSsd,
                (true, false) => Hierarchy::DramSsd,
                (false, true) => Hierarchy::NvmSsd,
                (false, false) => Hierarchy::DramSsd, // rejected by validate()
            }
        }
    }

    /// Number of whole pages the DRAM buffer holds.
    pub fn dram_pages(&self) -> usize {
        self.dram_capacity / self.page_size
    }

    /// Number of whole pages the NVM buffer holds.
    pub fn nvm_pages(&self) -> usize {
        self.nvm_capacity / self.page_size
    }

    /// Check all invariants; called by the manager on build.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.page_size.is_power_of_two() || self.page_size < 512 {
            return Err(ConfigError::BadPageSize(self.page_size));
        }
        if self.memory_mode {
            if self.dram_capacity == 0 || self.nvm_capacity == 0 {
                return Err(ConfigError::BadMemoryMode);
            }
            if self.nvm_capacity < self.page_size {
                return Err(ConfigError::CapacityTooSmall {
                    tier: "nvm",
                    capacity: self.nvm_capacity,
                });
            }
        } else {
            if self.dram_capacity == 0 && self.nvm_capacity == 0 {
                return Err(ConfigError::NoBufferCapacity);
            }
            if self.dram_capacity > 0 && self.dram_capacity < self.page_size {
                return Err(ConfigError::CapacityTooSmall {
                    tier: "dram",
                    capacity: self.dram_capacity,
                });
            }
            if self.nvm_capacity > 0 && self.nvm_capacity < self.page_size {
                return Err(ConfigError::CapacityTooSmall {
                    tier: "nvm",
                    capacity: self.nvm_capacity,
                });
            }
        }
        if let Some(g) = self.fine_grained {
            if !g.is_power_of_two() || g < 64 || g > self.page_size {
                return Err(ConfigError::BadGranule(g));
            }
            // A mini page (16 granule slots + one header cache line,
            // Figure 2b) must fit within one slab frame.
            if self.mini_pages && 16 * g + 64 > self.page_size {
                return Err(ConfigError::BadGranule(g));
            }
        } else if self.mini_pages {
            return Err(ConfigError::MiniPagesNeedGranule);
        }
        Ok(())
    }
}

/// Builder for [`BufferManagerConfig`].
#[derive(Debug, Clone)]
pub struct BufferManagerConfigBuilder {
    config: BufferManagerConfig,
}

impl BufferManagerConfigBuilder {
    /// Set the page size in bytes (power of two, ≥ 512; default 16 KB).
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.config.page_size = bytes;
        self
    }

    /// Set the DRAM buffer capacity in bytes (0 disables DRAM).
    pub fn dram_capacity(mut self, bytes: usize) -> Self {
        self.config.dram_capacity = bytes;
        self
    }

    /// Set the NVM buffer capacity in bytes (0 disables NVM).
    pub fn nvm_capacity(mut self, bytes: usize) -> Self {
        self.config.nvm_capacity = bytes;
        self
    }

    /// Set the initial data migration policy (default: Spitfire-Lazy).
    pub fn policy(mut self, policy: MigrationPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Set the emulated-delay scale (default: REAL; use ZERO in tests).
    pub fn time_scale(mut self, scale: TimeScale) -> Self {
        self.config.time_scale = scale;
        self
    }

    /// Set NVM persistence bookkeeping (default: counters only).
    pub fn persistence(mut self, tracking: PersistenceTracking) -> Self {
        self.config.persistence = tracking;
        self
    }

    /// Enable cache-line-grained loading with the given granule in bytes.
    pub fn fine_grained(mut self, granule: usize) -> Self {
        self.config.fine_grained = Some(granule);
        self
    }

    /// Enable the mini-page layout (requires [`Self::fine_grained`]).
    pub fn mini_pages(mut self, enabled: bool) -> Self {
        self.config.mini_pages = enabled;
        self
    }

    /// Run tier 1 in memory mode (DRAM cache over NVM; Figure 5).
    pub fn memory_mode(mut self, enabled: bool) -> Self {
        self.config.memory_mode = enabled;
        self
    }

    /// Seed the policy coin flips (see [`BufferManagerConfig::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Set the background-maintenance tuning block.
    pub fn maintenance(mut self, maintenance: MaintenanceConfig) -> Self {
        self.config.maintenance = maintenance;
        self
    }

    /// Choose the SSD backing store (default: in-memory emulation).
    pub fn ssd_backend(mut self, backend: SsdBackendConfig) -> Self {
        self.config.ssd_backend = backend;
        self
    }

    /// The DRAM pool's replacement policy: CLOCK, the only one, so this
    /// sets nothing. Kept only because `benchmark/src/ycsb.rs` calls it.
    pub fn dram_policy(self, _: PolicyConfig) -> Self {
        self
    }

    /// The NVM pool's replacement policy: CLOCK, the only one, so this
    /// sets nothing. Kept only because `benchmark/src/ycsb.rs` calls it.
    pub fn nvm_policy(self, _: PolicyConfig) -> Self {
        self
    }

    /// Finish, validating invariants.
    pub fn build(self) -> Result<BufferManagerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_is_valid_three_tier() {
        let c = BufferManagerConfig::builder().build().unwrap();
        assert_eq!(c.hierarchy(), Hierarchy::DramNvmSsd);
        assert_eq!(c.page_size, 16 * 1024);
        assert_eq!(c.dram_pages(), 64 * 1024 * 1024 / (16 * 1024));
    }

    #[test]
    fn two_tier_hierarchies() {
        let c = BufferManagerConfig::builder()
            .nvm_capacity(0)
            .build()
            .unwrap();
        assert_eq!(c.hierarchy(), Hierarchy::DramSsd);
        let c = BufferManagerConfig::builder()
            .dram_capacity(0)
            .build()
            .unwrap();
        assert_eq!(c.hierarchy(), Hierarchy::NvmSsd);
    }

    #[test]
    fn zero_capacity_everywhere_is_rejected() {
        let err = BufferManagerConfig::builder()
            .dram_capacity(0)
            .nvm_capacity(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::NoBufferCapacity);
    }

    #[test]
    fn bad_page_sizes_rejected() {
        assert!(matches!(
            BufferManagerConfig::builder().page_size(1000).build(),
            Err(ConfigError::BadPageSize(1000))
        ));
        assert!(matches!(
            BufferManagerConfig::builder().page_size(256).build(),
            Err(ConfigError::BadPageSize(256))
        ));
    }

    #[test]
    fn sub_page_capacity_rejected() {
        let err = BufferManagerConfig::builder()
            .page_size(16 * 1024)
            .dram_capacity(1024)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::CapacityTooSmall {
                tier: "dram",
                capacity: 1024
            }
        );
    }

    #[test]
    fn granule_validation() {
        assert!(BufferManagerConfig::builder()
            .fine_grained(256)
            .build()
            .is_ok());
        assert!(matches!(
            BufferManagerConfig::builder().fine_grained(48).build(),
            Err(ConfigError::BadGranule(48))
        ));
        assert!(matches!(
            BufferManagerConfig::builder()
                .page_size(4096)
                .fine_grained(8192)
                .build(),
            Err(ConfigError::BadGranule(8192))
        ));
        assert_eq!(
            BufferManagerConfig::builder()
                .mini_pages(true)
                .build()
                .unwrap_err(),
            ConfigError::MiniPagesNeedGranule
        );
    }

    #[test]
    fn maintenance_validation() {
        // What is left to set is a period, and any period builds; the
        // watermark / batch / worker invariants are compile-time asserts
        // on the constants above.
        let m = MaintenanceConfig { interval_us: 0 };
        let c = BufferManagerConfig::builder().maintenance(m).build();
        assert_eq!(c.unwrap().maintenance, m);
    }

    #[test]
    fn memory_mode_requires_both_capacities() {
        assert!(matches!(
            BufferManagerConfig::builder()
                .memory_mode(true)
                .dram_capacity(0)
                .build(),
            Err(ConfigError::BadMemoryMode)
        ));
        let c = BufferManagerConfig::builder()
            .memory_mode(true)
            .build()
            .unwrap();
        assert_eq!(c.hierarchy(), Hierarchy::MemoryModeSsd);
    }
}
