//! Property tests of the stateless DAD baseline's wire codec: arbitrary
//! bytes and byte flips of valid encodings never panic
//! `DadMsg::wire_decode`, and every message it accepts re-encodes to the
//! bytes it came from.

use addrspace::Addr;
use baselines::dad::DadMsg;
use proptest::prelude::*;
use proto_io::WireMsg;

fn arb_msg() -> impl Strategy<Value = DadMsg> {
    (any::<bool>(), any::<u32>()).prop_map(|(request, bits)| {
        let addr = Addr::new(bits);
        if request {
            DadMsg::Areq { addr }
        } else {
            DadMsg::Arep { addr }
        }
    })
}

fn encode(msg: &DadMsg) -> Vec<u8> {
    let mut out = Vec::new();
    msg.wire_encode(&mut out);
    out
}

/// What every accepted input must satisfy: the codec carries no
/// redundancy, so a decoded message encodes back to the same bytes.
fn assert_reencodes(bytes: &[u8]) {
    if let Ok(msg) = DadMsg::wire_decode(bytes) {
        assert_eq!(encode(&msg), bytes, "{msg:?}");
    }
}

proptest! {
    /// Every message decodes back to itself.
    #[test]
    fn roundtrip(msg in arb_msg()) {
        prop_assert_eq!(DadMsg::wire_decode(&encode(&msg)).unwrap(), msg);
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..12)) {
        assert_reencodes(&bytes);
    }

    /// Flipping a byte of a valid encoding, or cutting or extending it,
    /// never panics the decoder.
    #[test]
    fn mutations_never_panic(msg in arb_msg(), pos in any::<u64>(), mask in 1u16..256, cut in 0usize..7) {
        let mut bytes = encode(&msg);
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= mask as u8;
        assert_reencodes(&bytes);
        bytes.resize(cut, mask as u8);
        assert_reencodes(&bytes);
    }
}
