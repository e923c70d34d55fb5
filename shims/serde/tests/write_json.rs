//! `Serialize::write_json` appends exactly what `to_value().to_string()`
//! prints, for derived structs and enums and for every shim impl they
//! nest: the two paths must agree byte for byte, floats and escapes
//! included.

use proptest::prelude::*;
use serde::{Serialize, Value};

#[derive(Debug, Clone, Serialize)]
struct Leaf {
    name: String,
    weight: f64,
    count: usize,
    signed: i64,
    flag: bool,
    coords: Option<(f64, f64)>,
}

#[derive(Debug, Clone, Serialize)]
#[serde(rename_all = "snake_case")]
enum Kind {
    PlainUnit,
    Other,
    WrapsLeaf(Leaf),
    WrapsList(Vec<String>),
}

#[derive(Debug, Clone, Serialize)]
struct Tree {
    leaves: Vec<Leaf>,
    kinds: Vec<Kind>,
    nested: Vec<Vec<(u32, Option<String>)>>,
    maybe: Option<Box<Leaf>>,
    pair: (String, f32, Vec<bool>),
    #[serde(default)]
    raw: Value,
}

#[derive(Debug, Clone, Serialize)]
struct Empty {}

/// Keeps the provided `write_json`, which prints `to_value()`.
impl Serialize for Box<Leaf> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Characters from everywhere the escaper branches: quotes, backslashes,
/// control characters, DEL, ASCII, and 2-, 3- and 4-byte UTF-8.
fn json_char() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('"'),
        Just('\\'),
        Just('\u{7f}'),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        (0x80u32..0x800).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        (0x800u32..0x10000).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).unwrap_or('?')),
    ]
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(json_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

/// Floats at every branch of the printing rule (integral below and at
/// 1e15, signed zeros, the smallest subnormal, the largest finite, NaN and
/// both infinities), plus arbitrary bit patterns.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0),
        Just(0.0),
        Just(1e15),
        Just(1e15 - 1.0),
        Just(-1e15),
        Just(5e-324),
        Just(f64::MAX),
        Just(f64::MIN),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.1),
        (-1_000_000i64..1_000_000).prop_map(|i| i as f64),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn leaf() -> impl Strategy<Value = Leaf> {
    (
        text(),
        float(),
        (any::<usize>(), any::<i64>()),
        any::<bool>(),
        prop_oneof![Just(None), (float(), float()).prop_map(Some),],
    )
        .prop_map(|(name, weight, (count, signed), flag, coords)| Leaf {
            name,
            weight,
            count,
            signed,
            flag,
            coords,
        })
}

fn kind() -> impl Strategy<Value = Kind> {
    prop_oneof![
        Just(Kind::PlainUnit),
        Just(Kind::Other),
        leaf().prop_map(Kind::WrapsLeaf),
        prop::collection::vec(text(), 0..3).prop_map(Kind::WrapsList),
    ]
}

fn tree() -> impl Strategy<Value = Tree> {
    (
        prop::collection::vec(leaf(), 0..4),
        prop::collection::vec(kind(), 0..4),
        prop::collection::vec(
            prop::collection::vec(
                (any::<u32>(), prop_oneof![Just(None), text().prop_map(Some)]),
                0..3,
            ),
            0..3,
        ),
        prop_oneof![Just(None), leaf().prop_map(|l| Some(Box::new(l)))],
        (
            text(),
            float().prop_map(|f| f as f32),
            prop::collection::vec(any::<bool>(), 0..3),
        ),
    )
        .prop_map(|(leaves, kinds, nested, maybe, pair)| {
            let raw = Value::Array(vec![
                Value::Int(-7),
                Value::Float(pair.1 as f64),
                Value::String(pair.0.clone()),
                Value::Null,
                Value::Object(vec![(pair.0.clone(), Value::Bool(true))]),
            ]);
            Tree {
                leaves,
                kinds,
                nested,
                maybe,
                pair,
                raw,
            }
        })
}

/// Both renderings of `value`, streamed first.
fn both<T: Serialize + ?Sized>(value: &T) -> (String, String) {
    let mut streamed = String::new();
    value.write_json(&mut streamed);
    (streamed, value.to_value().to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn derived_trees_stream_their_value_text(t in tree()) {
        let (streamed, tree) = both(&t);
        prop_assert_eq!(streamed, tree);
    }

    #[test]
    fn floats_stream_their_value_text(x in float()) {
        let (streamed, tree) = both(&x);
        prop_assert_eq!(streamed, tree, "{:?} ({:#x})", x, x.to_bits());
        let (streamed, tree) = both(&(x as f32));
        prop_assert_eq!(streamed, tree, "{:?} as f32", x);
    }

    #[test]
    fn strings_stream_their_value_text(s in text()) {
        let (streamed, tree) = both(&s);
        prop_assert_eq!(&streamed, &tree);
        let (streamed_str, _) = both(s.as_str());
        prop_assert_eq!(streamed_str, tree);
    }
}

#[test]
fn float_rule_at_its_edges() {
    let cases: [(f64, &str); 9] = [
        (-0.0, "-0.0"),
        (0.0, "0.0"),
        (1e15 - 1.0, "999999999999999.0"),
        (1e15, "1000000000000000"),
        (2.5, "2.5"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
        (f64::NEG_INFINITY, "null"),
        (-3.0, "-3.0"),
    ];
    for (x, want) in cases {
        let (streamed, tree) = both(&x);
        assert_eq!(streamed, want, "{x:?}");
        assert_eq!(tree, want, "{x:?}");
    }
    for x in [f64::MAX, 5e-324, -5e-324] {
        let (streamed, tree) = both(&x);
        assert_eq!(streamed, tree, "{x:?}");
    }
}

#[test]
fn shapes_without_fields_or_items() {
    assert_eq!(both(&Empty {}), ("{}".to_owned(), "{}".to_owned()));
    let none: Option<Vec<u8>> = None;
    assert_eq!(both(&none).0, "null");
    let empty: Vec<Kind> = Vec::new();
    assert_eq!(both(&empty).0, "[]");
    let (streamed, tree) = both(&vec![Kind::PlainUnit, Kind::WrapsList(vec!["a\"b".into()])]);
    assert_eq!(streamed, r#"["plain_unit",{"wraps_list":["a\"b"]}]"#);
    assert_eq!(streamed, tree);
    // u64 beyond i64::MAX prints as the value tree holds it.
    let (streamed, tree) = both(&u64::MAX);
    assert_eq!(streamed, tree);
}
