//! Narrowing equivalence of the device emit path.
//!
//! The deserializing StorageApps emit each page's new records with
//! `encode_rows` straight from the parser's wide columns; the host path
//! canonicalizes first. These properties feed both apps random chunkings
//! of inputs whose values do not fit their declared widths and check the
//! emitted bytes against `encode_rows` over the canonicalized reference
//! parse, so skipping `canonicalize` on the device is byte-identical.

use morpheus::{BinaryDeserializeApp, DeserializeApp, DeviceCtx, StorageApp};
use morpheus_format::{
    encode_binary, parse_binary, parse_buffer, Endianness, FieldKind, ParsedColumns, Schema,
};
use proptest::prelude::*;

/// One field of every kind, so every narrowing rule is exercised.
fn all_kinds() -> Schema {
    Schema::new(vec![
        FieldKind::U32,
        FieldKind::I32,
        FieldKind::U64,
        FieldKind::I64,
        FieldKind::F32,
        FieldKind::F64,
    ])
}

/// A row whose integers overflow their narrow fields and whose floats
/// f32 cannot hold exactly (or at all): `(ints, (mantissa, exp), f64)`,
/// with the F32 value written as `{mantissa}e{exp}`.
type Row = ((i64, i64, i64, i64), (f64, i32), f64);

fn row() -> impl Strategy<Value = Row> {
    (
        (
            // U32: negatives and values above 2^32.
            -(1i64 << 40)..(1i64 << 40),
            // I32: well beyond the i32 range.
            -(1i64 << 40)..(1i64 << 40),
            any::<i64>(),
            any::<i64>(),
        ),
        // F32: nine fractional digits, scaled from below f32's smallest
        // normal to beyond its maximum.
        (-1.0e6f64..1.0e6, -50i32..50),
        -1.0e12f64..1.0e12,
    )
}

fn render(rows: &[Row]) -> Vec<u8> {
    let mut text = String::new();
    for ((a, b, c, d), (m, e), f) in rows {
        text.push_str(&format!("{a} {b} {c} {d} {m:.9}e{e} {f:.6}\n"));
    }
    text.into_bytes()
}

/// Feeds `app` the input in pieces whose lengths cycle through `cuts`,
/// then finishes it; returns its return value and everything it emitted.
fn drive(app: &mut dyn StorageApp, dsram: u32, input: &[u8], cuts: &[usize]) -> (i32, Vec<u8>) {
    let mut ctx = DeviceCtx::new(dsram);
    let mut rest = input;
    for &n in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (piece, tail) = rest.split_at(n.min(rest.len()));
        app.on_chunk(&mut ctx, piece).unwrap();
        rest = tail;
    }
    let ret = app.on_finish(&mut ctx).unwrap();
    (ret, ctx.take_output())
}

fn canonical_bytes(mut reference: ParsedColumns) -> Vec<u8> {
    reference.canonicalize();
    let mut bytes = Vec::new();
    reference.encode_rows(0, reference.records, &mut bytes);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Text input: the app's output equals the canonicalized reference
    /// parse, encoded, for any chunking and any D-SRAM spill pattern.
    #[test]
    fn text_emit_matches_canonicalized_reference(
        rows in proptest::collection::vec(row(), 1..120),
        cuts in proptest::collection::vec(1usize..700, 1..16),
        dsram in 2048u32..65536,
    ) {
        let text = render(&rows);
        let (reference, _) = parse_buffer(&text, &all_kinds()).unwrap();
        // The inputs really do overflow: canonicalize changes something.
        let mut narrowed = reference.clone();
        narrowed.canonicalize();
        prop_assert!(narrowed != reference);

        let mut app = DeserializeApp::new("narrow", all_kinds());
        let (ret, out) = drive(&mut app, dsram, &text, &cuts);
        prop_assert_eq!(ret as u64, reference.records);
        prop_assert_eq!(out, canonical_bytes(reference));
    }

    /// Packed binary input, either byte order: same property.
    #[test]
    fn binary_emit_matches_canonicalized_reference(
        rows in proptest::collection::vec(row(), 1..120),
        cuts in proptest::collection::vec(1usize..700, 1..16),
        big_endian in any::<bool>(),
    ) {
        let endian = if big_endian { Endianness::Big } else { Endianness::Little };
        // Encoding at the declared widths narrows the wide values on disk;
        // the F32 field goes through the same decimal text as above.
        let (wide, _) = parse_buffer(&render(&rows), &all_kinds()).unwrap();
        let packed = encode_binary(&wide, endian);
        let (reference, _) = parse_binary(&packed, &all_kinds(), endian).unwrap();

        let mut app = BinaryDeserializeApp::new("narrow", all_kinds(), endian);
        let (ret, out) = drive(&mut app, 256 * 1024, &packed, &cuts);
        prop_assert_eq!(ret as u64, reference.records);
        prop_assert_eq!(out, canonical_bytes(reference));
    }
}
