//! # sensormeta-relstore
//!
//! An embedded relational storage engine: the substrate beneath the Sensor
//! Metadata Repository. It provides slotted-page heap storage, B-tree
//! secondary indexes, a typed schema layer, and a SQL subset (DDL + DML +
//! SELECT with joins, grouping, and ordering), plus snapshot persistence.
//!
//! The engine plays the role MySQL plays under Semantic MediaWiki in the
//! paper's deployment: the system of record for wiki pages, semantic
//! annotations, and link tables, queried through SQL by the query-management
//! layer.
//!
//! ```
//! use sensormeta_relstore::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE sensors (id INTEGER PRIMARY KEY, name TEXT NOT NULL)").unwrap();
//! db.execute("INSERT INTO sensors VALUES (1, 'wfj_temp'), (2, 'wfj_wind')").unwrap();
//! let rs = db.query("SELECT name FROM sensors ORDER BY id DESC").unwrap();
//! assert_eq!(rs.rows[0][0].to_string(), "wfj_wind");
//! ```

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
#![warn(missing_debug_implementations)]

pub mod btree;
pub mod db;
pub mod encoding;
pub mod error;
pub mod heap;
pub mod page;
pub mod recover;
pub mod schema;
pub mod sql;
pub mod table;
pub mod trigram;
pub mod value;
pub mod vfs;
pub mod wal;

pub use db::{Database, TxHost};
pub use error::{RelError, Result};
pub use heap::RowId;
pub use recover::{wal_path_for, DurabilityOptions, RecoveryReport};
pub use schema::{Column, TableSchema};
pub use sql::exec::{ExecOutcome, ResultSet};
pub use sql::planner::{AccessPath, PlannerConfig, SelectPlan};
pub use table::{IndexDef, IndexKind, Table};
pub use trigram::TrigramIndex;
pub use value::{DataType, Value};
pub use vfs::{FaultPlan, FaultVfs, MemVfs, StdVfs, Vfs, VfsFile};
pub use wal::{scan_wal, CommittedTx, LogicalOp, WalScan};
