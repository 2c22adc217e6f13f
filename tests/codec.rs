//! One totality harness for every wire type.
//!
//! Each byte form a node decodes from outside — at consensus or from its
//! own journal — goes through [`check_totality`], which checks four
//! things on every valid value of the form:
//!
//! 1. the round trip: decoding the encoding gives the value back;
//! 2. every proper prefix is refused (or, for a magic-tagged form cut
//!    inside its magic, recognised as not this form);
//! 3. one trailing byte is refused;
//! 4. every single-bit flip of the encoding, and 1,000 random byte
//!    strings, never panic — and whatever does decode re-encodes to the
//!    very bytes it came from, so no two payloads decode to one value.
//!
//! A form may add hostile payloads with the exact outcome each must get.
//! The test prints how many payloads each form decoded.

use std::cell::Cell;
use std::fmt::Debug;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zendoo::core::crosschain::{decode_xct_list, encode_xct_list, CrossChainTransfer, XCT_MAGIC};
use zendoo::core::escrow::EscrowTag;
use zendoo::core::ids::{Address, Amount, Nullifier, SidechainId};
use zendoo::core::settlement::{decode_settlement_metadata, SettlementBatch, XSB_MAGIC};
use zendoo::latus::mst::Utxo;
use zendoo::latus::tx::ReceiverMetadata;
use zendoo::mainchain::transaction::OutputKind;
use zendoo::mainchain::{OutPoint, TxOut};
use zendoo::primitives::digest::Digest32;
use zendoo::primitives::encode::{Decode, Encode};

/// What a decoder made of a payload: `None` when it is not this form at
/// all (a magic-tagged form without its magic), `Some(Err)` with the
/// refusal's `Debug` form, `Some(Ok)` with the value.
type Outcome<T> = Option<Result<T, String>>;

/// One wire form under test.
struct Form<T> {
    name: &'static str,
    values: Vec<T>,
    encode: fn(&T) -> Vec<u8>,
    decode: fn(&[u8]) -> Outcome<T>,
    /// The magic a tagged form starts with (empty for untagged forms).
    magic: &'static [u8],
    /// Payloads with the exact outcome each must get.
    hostile: Vec<(Vec<u8>, Outcome<T>)>,
}

/// The outcome of a whole-payload [`Decode`].
fn typed<T: Decode>(bytes: &[u8]) -> Outcome<T> {
    Some(T::decode(bytes).map_err(|e| format!("{e:?}")))
}

/// Runs the four checks and the hostile payloads of `form`; returns the
/// number of payloads decoded.
fn check_totality<T: Clone + PartialEq + Debug>(form: Form<T>) -> usize {
    let cases = Cell::new(0usize);
    let decode = |bytes: &[u8]| {
        cases.set(cases.get() + 1);
        (form.decode)(bytes)
    };
    // Whatever decodes must re-encode to the bytes it was read from.
    let canonical = |bytes: &[u8], what: &str| {
        if let Some(Ok(value)) = decode(bytes) {
            assert_eq!((form.encode)(&value), bytes, "{}: {what}", form.name);
        }
    };
    let mut longest = 0;
    for value in &form.values {
        let bytes = (form.encode)(value);
        longest = longest.max(bytes.len());
        assert_eq!(
            decode(&bytes),
            Some(Ok(value.clone())),
            "{}: round trip",
            form.name
        );
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Some(Err(_)) => {}
                None => assert!(
                    cut < form.magic.len(),
                    "{}: a prefix of {cut} bytes lost the magic",
                    form.name
                ),
                Some(Ok(v)) => panic!("{}: a prefix of {cut} bytes decoded as {v:?}", form.name),
            }
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(
            matches!(decode(&long), Some(Err(_))),
            "{}: a trailing byte was accepted",
            form.name
        );
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            canonical(&flipped, &format!("bit {bit} flipped"));
        }
    }
    let seed = form
        .name
        .bytes()
        .fold(0u64, |h, b| h.rotate_left(5) ^ u64::from(b));
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..1_000 {
        // Half the strings carry the magic, so a tagged form's body
        // parser sees them too.
        let mut bytes = if i % 2 == 0 {
            form.magic.to_vec()
        } else {
            Vec::new()
        };
        let start = bytes.len();
        bytes.resize(start + rng.gen_range(0, 2 * longest as u64 + 2) as usize, 0);
        rng.fill(&mut bytes[start..]);
        canonical(&bytes, &format!("random string {i}"));
    }
    for (bytes, expected) in &form.hostile {
        assert_eq!(&decode(bytes), expected, "{}: hostile payload", form.name);
    }
    println!("{}: {} payloads", form.name, cases.get());
    cases.get()
}

fn digest(label: &str) -> Digest32 {
    Digest32::hash_bytes(label.as_bytes())
}

fn outpoint(label: &str, index: u32) -> OutPoint {
    OutPoint {
        txid: digest(label),
        index,
    }
}

fn escrow_tag() -> EscrowTag {
    EscrowTag {
        source: SidechainId(digest("src")),
        epoch: 3,
        dest: SidechainId(digest("dst")),
        payback: Address(digest("pay")),
        nullifier: Nullifier(digest("null")),
    }
}

fn regular_txout() -> TxOut {
    TxOut::regular(Address(digest("a")), Amount::from_units(7))
}

fn escrow_txout() -> TxOut {
    TxOut {
        address: Address(digest("marker")),
        amount: Amount::from_units(11),
        kind: OutputKind::Escrow(escrow_tag()),
    }
}

fn xct(nonce: u64, amount: u64) -> CrossChainTransfer {
    CrossChainTransfer::new(
        SidechainId::from_label("src"),
        SidechainId::from_label("dst"),
        Address::from_label(&format!("recv-{nonce}")),
        Amount::from_units(amount),
        nonce,
        Address::from_label("payback"),
    )
}

fn batch(n: u64) -> SettlementBatch {
    SettlementBatch::new(
        SidechainId::from_label("src"),
        4,
        SidechainId::from_label("dst"),
        (0..n).map(|i| xct(i, 100 + i)).collect(),
    )
}

fn utxo(label: &str, amount: u64) -> Utxo {
    Utxo {
        address: Address::from_label(label),
        amount: Amount::from_units(amount),
        nonce: digest(label),
    }
}

#[test]
fn every_wire_form_is_total() {
    let regular = regular_txout().encoded();
    let mut total = 0;
    total += check_totality(Form {
        name: "OutPoint",
        values: vec![outpoint("tx", 0), outpoint("tx", u32::MAX)],
        encode: Encode::encoded,
        decode: typed,
        magic: b"",
        hostile: vec![],
    });
    total += check_totality(Form {
        name: "TxOut",
        values: vec![regular_txout(), escrow_txout()],
        encode: Encode::encoded,
        decode: typed,
        magic: b"",
        hostile: (0..regular.len())
            .map(|cut| (regular[..cut].to_vec(), Some(Err("UnexpectedEof".into()))))
            .chain([(
                [&regular[..40], &[2]].concat(),
                Some(Err("BadTag(2)".into())),
            )])
            .collect(),
    });
    total += check_totality(Form {
        name: "journal (OutPoint, TxOut) list",
        values: vec![
            vec![],
            vec![
                (outpoint("a", 0), regular_txout()),
                (outpoint("b", 1), escrow_txout()),
            ],
        ],
        encode: Encode::encoded,
        decode: typed::<Vec<(OutPoint, TxOut)>>,
        magic: b"",
        hostile: vec![(
            u64::MAX.encoded(),
            Some(Err(format!("BadLength({})", u64::MAX))),
        )],
    });
    total += check_totality(Form {
        name: "EscrowTag",
        values: vec![escrow_tag()],
        encode: Encode::encoded,
        decode: typed,
        magic: b"",
        hostile: vec![],
    });
    total += check_totality(Form {
        name: "CrossChainTransfer",
        values: vec![xct(1, 10), xct(u64::MAX, u64::MAX)],
        encode: Encode::encoded,
        decode: typed,
        magic: b"",
        hostile: vec![],
    });
    total += check_totality(Form {
        name: "Utxo",
        values: vec![utxo("alice", 5), utxo("bob", u64::MAX)],
        encode: Encode::encoded,
        decode: typed,
        magic: b"",
        hostile: vec![(b"short".to_vec(), Some(Err("UnexpectedEof".into())))],
    });
    total += check_totality(Form {
        name: "ReceiverMetadata",
        values: vec![ReceiverMetadata {
            receiver: Address::from_label("r"),
            payback: Address::from_label("p"),
        }],
        encode: ReceiverMetadata::to_bytes,
        decode: |bytes| Some(ReceiverMetadata::parse(bytes).ok_or_else(|| "None".into())),
        magic: b"",
        hostile: vec![(vec![0; 63], Some(Err("None".into())))],
    });
    total += check_totality(Form {
        name: "declared XCT list",
        values: vec![
            vec![],
            vec![xct(1, 10)],
            vec![xct(1, 10), xct(2, 20), xct(3, 30)],
        ],
        encode: |xcts| encode_xct_list(xcts),
        decode: |bytes| decode_xct_list(bytes).map(|r| r.map_err(|e| format!("{e:?}"))),
        magic: XCT_MAGIC,
        hostile: vec![
            (b"not-xct".to_vec(), None),
            // A u32 count no payload could hold.
            (
                [XCT_MAGIC.as_slice(), &u32::MAX.encoded()].concat(),
                Some(Err("Malformed".into())),
            ),
        ],
    });
    total += check_totality(Form {
        name: "XSB settlement batch",
        values: vec![batch(1), batch(3)],
        encode: SettlementBatch::receiver_metadata,
        decode: |bytes| decode_settlement_metadata(bytes).map(|r| r.map_err(|e| format!("{e:?}"))),
        magic: XSB_MAGIC,
        hostile: vec![
            (vec![0; 64], None),
            (batch(0).receiver_metadata(), Some(Err("Empty".into()))),
        ],
    });
    println!("codec totality: {total} payloads decoded");
}
