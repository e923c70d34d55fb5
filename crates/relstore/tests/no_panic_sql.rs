//! Bounded-input test for the SQL front end: no input string panics or
//! exhausts memory in `Database::query` or `Database::execute`.
//!
//! Two seeded generators feed a small schema: raw bytes decoded as lossy
//! UTF-8, and sequences of grammar tokens that include non-ASCII symbols.
//! Every call must return `Ok` or `Err`. A counting global allocator
//! refuses any allocation that would take the running input past
//! [`CAP_BYTES`] live bytes on its thread, so a runaway input aborts the
//! binary at once, after naming itself on stderr, instead of growing until
//! the machine runs out of memory. A panic is caught and fails the test
//! with the input that caused it.
//!
//! Run with `cargo test -p sensormeta-relstore --test no_panic_sql`.

use sensormeta_relstore::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Live bytes one input may hold on its thread. Every statement over the
/// schema below needs a few hundred kilobytes at most.
const CAP_BYTES: usize = 64 << 20;

/// Inputs per generator.
const INPUTS: usize = 20_000;

struct CappedAlloc;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread since it was armed.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// Whether this thread is running an input (the cap only applies then).
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// The input running on this thread: the log line a failure names.
    static INPUT: RefCell<String> = const { RefCell::new(String::new()) };
}

impl CappedAlloc {
    /// Counts `size` more live bytes; false when that would pass the cap
    /// of an armed thread (which is then disarmed and reported).
    fn admit(size: usize) -> bool {
        let Ok(true) = ARMED.try_with(Cell::get) else {
            return true;
        };
        let live = LIVE.with(Cell::get).saturating_add(size);
        if live > CAP_BYTES {
            // Disarmed first, so the report below allocates freely.
            ARMED.with(|a| a.set(false));
            let _ = INPUT.try_with(|input| {
                let input = input.try_borrow();
                let input = input.as_deref().map_or("<unavailable>", String::as_str);
                let _ = writeln!(
                    std::io::stderr(),
                    "no_panic_sql: input {input:?} passed the {CAP_BYTES}-byte allocation cap"
                );
            });
            return false;
        }
        LIVE.with(|l| l.set(live));
        true
    }

    fn release(size: usize) {
        let _ = LIVE.try_with(|l| l.set(l.get().saturating_sub(size)));
    }
}

// SAFETY: every method either returns null, which `GlobalAlloc` allows as
// an allocation failure, or forwards its caller's pointer, layout and size
// unchanged to `System`, so `System` upholds the contract. The counting
// never unwinds: the cells are const-initialised without destructors and
// the report ignores its write error.
unsafe impl GlobalAlloc for CappedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !Self::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !Self::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::release(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() && !Self::admit(new_size - layout.size()) {
            return std::ptr::null_mut();
        }
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() && new_size < layout.size() {
            Self::release(layout.size() - new_size);
        }
        out
    }
}

#[global_allocator]
static GLOBAL: CappedAlloc = CappedAlloc;

/// splitmix64: a fixed seed gives the same inputs on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Two small tables with an index each, so statements reach the planner,
/// joins and index seeks.
fn schema() -> Database {
    let mut db = Database::new();
    for stmt in [
        "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, v REAL)",
        "CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER, tag TEXT)",
        "CREATE INDEX t_name ON t (name)",
        "CREATE INDEX u_t ON u (t_id)",
        "INSERT INTO t VALUES (1, 'alpha', 1.5), (2, 'Zürich', -2.0), (3, '°C', NULL)",
        "INSERT INTO u VALUES (1, 1, 'snow'), (2, 1, 'wind'), (3, 2, NULL)",
    ] {
        if let Err(e) = db.execute(stmt) {
            panic!("schema statement {stmt:?} failed: {e}");
        }
    }
    db
}

/// Runs one input through `query` on `db` and through `execute` on a
/// copy of it, under the allocation cap. Returns the panic message if
/// either call panicked.
fn run(db: &Database, input: &str) -> Option<String> {
    INPUT.with(|slot| {
        let mut slot = slot.borrow_mut();
        slot.clear();
        slot.push_str(input);
    });
    let mut copy = db.clone_reader();
    LIVE.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = db.query(input);
        let _ = copy.execute(input);
    }));
    ARMED.with(|a| a.set(false));
    drop(copy);
    let payload = outcome.err()?;
    Some(
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned()),
    )
}

fn check_all(inputs: impl Iterator<Item = String>) {
    let db = schema();
    let mut panics = Vec::new();
    for input in inputs {
        if let Some(msg) = run(&db, &input) {
            panics.push(format!("{input:?}: {msg}"));
        }
    }
    assert!(
        panics.is_empty(),
        "{} input(s) panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
}

#[test]
fn raw_bytes_never_panic() {
    let mut rng = Rng(0x5EED_0001);
    check_all((0..INPUTS).map(|_| {
        let len = rng.below(48);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }));
}

/// Keywords of the SQL subset, names from the schema and non-ASCII letters,
/// separated by spaces.
const WORDS: &str = "SELECT FROM WHERE INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE \
    INDEX ON DROP JOIN LEFT GROUP BY ORDER LIMIT OFFSET AND OR NOT LIKE ILIKE IN BETWEEN IS \
    NULL COUNT SUM MIN MAX EXPLAIN DISTINCT AS ASC DESC HAVING PRIMARY KEY INTEGER TEXT REAL \
    UNIQUE t u id name v t_id tag x é météo";

/// Literals, symbols, unbalanced quotes and non-ASCII symbols, separated by
/// spaces.
const PUNCTUATION: &str = "'a' 'Zürich' '°' '%a%' '' 1 0 -3 2.5 1e9 1e .5 \
    99999999999999999999 ( ) , . * + - / % = != <> < <= > >= ; || ! | -- ' \" \"q\" \
    ° ’ € × · µ ß ∑ 🙂";

/// What goes between two tokens: mostly a space, sometimes nothing or
/// other (also non-ASCII) whitespace.
const SEPARATORS: &[&str] = &[" ", " ", " ", "", "\t", "\n", "\u{a0}"];

/// Statement heads the token tails extend, so inputs get past the first
/// keyword into expressions, joins, writes and the planner.
const HEADS: &[&str] = &[
    "",
    "SELECT ",
    "SELECT * FROM t WHERE ",
    "SELECT t.name, COUNT(*) FROM t JOIN u ON u.t_id = t.id WHERE ",
    "SELECT name FROM t ORDER BY ",
    "INSERT INTO u VALUES (",
    "UPDATE t SET v = ",
    "DELETE FROM u WHERE ",
    "EXPLAIN SELECT * FROM u WHERE ",
    "CREATE TABLE w (",
];

#[test]
fn grammar_tokens_never_panic() {
    let tokens: Vec<&str> = WORDS
        .split_whitespace()
        .chain(PUNCTUATION.split_whitespace())
        .collect();
    let mut rng = Rng(0x5EED_0002);
    check_all((0..INPUTS).map(|_| {
        let len = 1 + rng.below(8);
        let mut sql = rng.pick(HEADS).to_owned();
        for _ in 0..len {
            sql.push_str(rng.pick(&tokens));
            sql.push_str(rng.pick(SEPARATORS));
        }
        sql
    }));
}
