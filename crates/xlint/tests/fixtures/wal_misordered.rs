//! WAL fixture: the write is applied before it is logged (seeded violation).

use std::collections::BTreeMap;

pub struct Database {
    tables: BTreeMap<u64, u64>,
}

impl Database {
    /// Applies the write first and logs it after — recovery would miss it.
    pub fn execute(&mut self, k: u64, v: u64) {
        self.tables.insert(k, v);
        self.wal_commit(k, v);
    }

    fn wal_commit(&mut self, _k: u64, _v: u64) {}
}
