//! # st-workloads — the eight calibrated SPECint-like workloads
//!
//! The paper evaluates on the eight SPECint95/SPECint2000 benchmarks with
//! the highest branch misprediction rates (Table 2). SPEC binaries are not
//! redistributable, so this crate provides eight synthetic workload
//! profiles whose **branch streams are calibrated so that the paper's
//! default 8 KB gshare sees (approximately) the same misprediction rate**
//! as Table 2 reports:
//!
//! | workload  | suite        | Table 2 gshare miss rate |
//! |-----------|--------------|--------------------------|
//! | compress  | SPECint95    | 10.2 %                   |
//! | gcc       | SPECint95    |  9.2 %                   |
//! | go        | SPECint95    | 19.7 %                   |
//! | bzip2     | SPECint2000  |  8.0 %                   |
//! | crafty    | SPECint2000  |  7.7 %                   |
//! | gzip      | SPECint2000  |  8.8 %                   |
//! | parser    | SPECint2000  |  6.8 %                   |
//! | twolf     | SPECint2000  | 11.2 %                   |
//!
//! Beyond the miss rate, each profile's static code size, memory locality
//! and branch-behaviour mix follow the benchmark's published character
//! (go/gcc: large code and hard branches; gzip/bzip2: small loopy kernels;
//! parser/crafty: predictable control).
//!
//! [`measure_gshare_miss_rate`] reproduces the calibration measurement and
//! [`calibrate_hardness`] re-derives a profile's hardness knob from a
//! target rate, so the constants baked into [`profiles`] are auditable.
//!
//! ## Example
//!
//! ```
//! let go = st_workloads::by_name("go").expect("known workload");
//! let rate = st_workloads::measure_gshare_miss_rate(&go, 50_000, 8 * 1024);
//! assert!(rate > 0.10, "go must stay hard to predict");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibrate;
pub mod generate;
pub mod profiles;

pub use calibrate::{
    calibrate_hardness, measure_gshare_miss_rate, measure_gshare_miss_rate_warm, Calibration,
};
pub use generate::{families, markdown_table, Family, GEN_PREFIX};
pub use profiles::{
    all, by_name, bzip2, compress, crafty, gcc, go, gzip, parser, twolf, WorkloadInfo,
};
