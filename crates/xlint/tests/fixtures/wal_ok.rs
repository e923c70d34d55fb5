//! WAL fixture: log first, apply second.

use std::collections::BTreeMap;

pub struct Database {
    tables: BTreeMap<u64, u64>,
}

impl Database {
    /// Applies one write, WAL first.
    pub fn execute(&mut self, k: u64, v: u64) {
        self.wal_commit(k, v);
        self.tables.insert(k, v);
    }

    fn wal_commit(&mut self, _k: u64, _v: u64) {}
}
