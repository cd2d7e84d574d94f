//! # st-report — table and figure rendering
//!
//! Plain-text reporting used by `st repro` (`st_sweep::figures`) to
//! regenerate the paper's tables and figures: aligned text tables, CSV
//! emitters, simple ASCII bar charts (the "figures") and compact
//! integer-range formatting.
//!
//! Everything renders to `String` so tests can assert on output and the
//! harness can both print and persist results.
//!
//! ## Example
//!
//! ```
//! use st_report::Table;
//!
//! let mut t = Table::new(vec!["bench", "IPC"]);
//! t.row(vec!["go".to_string(), "1.23".to_string()]);
//! let text = t.render();
//! assert!(text.contains("go"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chart;
pub mod ranges;
pub mod table;

pub use chart::BarChart;
pub use ranges::format_ranges;
pub use table::{write_csv, Table};
