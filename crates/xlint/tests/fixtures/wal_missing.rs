//! WAL fixture: the write path never touches the log (seeded violation).

use std::collections::BTreeMap;

pub struct Database {
    tables: BTreeMap<u64, u64>,
}

impl Database {
    /// Applies a write with no WAL append anywhere on the path.
    pub fn execute(&mut self, k: u64, v: u64) {
        self.tables.insert(k, v);
    }
}
