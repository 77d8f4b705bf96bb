//! Differential properties: the SWAR word classifier against the scalar
//! byte-class LUT and `StringMask`, on arbitrary byte soup — including
//! `\"`/`\\` escape chains that span word boundaries, CRLF, NUL and
//! non-ASCII bytes.

use proptest::prelude::*;
use rfjson_jsonstream::swar::{
    self, classify_word, load_word, string_mask_word, StringState, WORD_BYTES,
};
use rfjson_jsonstream::{classify, ByteClass, StringMask};

/// Scalar oracle: per-byte class bits and string-mask bits for a whole
/// stream, chunked exactly like the SWAR path would see it.
fn scalar_masks(stream: &[u8]) -> (Vec<ByteClass>, Vec<bool>) {
    let classes = stream.iter().map(|&b| classify(b)).collect();
    (classes, StringMask::mask_of(stream))
}

/// Runs the SWAR classifier word-by-word (scalar tail), carrying the
/// string state across words, and flattens the per-byte facts.
fn swar_masks(stream: &[u8]) -> (Vec<ByteClass>, Vec<bool>) {
    let mut classes = Vec::with_capacity(stream.len());
    let mut masked = Vec::with_capacity(stream.len());
    let mut state = StringState::default();
    let mut chunks = stream.chunks_exact(WORD_BYTES);
    for chunk in chunks.by_ref() {
        let w = load_word(chunk.try_into().unwrap());
        let m = classify_word(w);
        let (mask_bits, next) = string_mask_word(m.quotes, m.backslashes, state);
        state = next;
        for (j, &b) in chunk.iter().enumerate() {
            let bit = 1u8 << j;
            let class = if m.quotes & bit != 0 {
                ByteClass::Quote
            } else if m.backslashes & bit != 0 {
                ByteClass::Backslash
            } else if m.opens & bit != 0 {
                ByteClass::Open
            } else if m.closes & bit != 0 {
                ByteClass::Close
            } else if m.commas & bit != 0 {
                ByteClass::Comma
            } else {
                ByteClass::Other
            };
            assert_eq!(m.newlines & bit != 0, b == b'\n', "newline mask");
            classes.push(class);
            masked.push(mask_bits & bit != 0);
        }
    }
    // Word-boundary fallback: the tail runs byte-serial from the synced
    // carry state, exactly like the engine's block path.
    let mut tail_mask = StringMask::new();
    tail_mask.restore(state.in_string, state.pending_escape);
    for &b in chunks.remainder() {
        classes.push(classify(b));
        masked.push(tail_mask.on_byte(b));
    }
    (classes, masked)
}

fn assert_equiv(stream: &[u8]) {
    let (want_classes, want_masked) = scalar_masks(stream);
    let (got_classes, got_masked) = swar_masks(stream);
    assert_eq!(got_classes, want_classes, "{stream:?}");
    assert_eq!(got_masked, want_masked, "{stream:?}");
}

#[test]
fn escape_chains_spanning_word_boundaries() {
    // Backslash runs of every length straddling the 8-byte boundary at
    // every offset, inside and outside strings.
    for open in [true, false] {
        for run in 0..12usize {
            for offset in 0..9usize {
                let mut s = Vec::new();
                if open {
                    s.push(b'"');
                }
                s.extend(std::iter::repeat_n(b'x', offset));
                s.extend(std::iter::repeat_n(b'\\', run));
                s.extend_from_slice(b"\"tail\"with{struct},bytes");
                assert_equiv(&s);
            }
        }
    }
}

#[test]
fn crlf_nul_and_non_ascii() {
    let streams: Vec<&[u8]> = vec![
        b"{\"a\":1}\r\n{\"b\":\"\xc3\xa9\"}\r\n",
        b"\x00\x00\"\x00\\\x00\"\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        b"\xff\xfe\xfd{\x80[\x81]\x82},\"\xf0\x9f\x92\xa9\"",
        b"\r\r\r\r\r\r\r\r\n",
    ];
    for s in streams {
        assert_equiv(s);
    }
}

proptest! {
    #[test]
    fn classifier_matches_lut_on_byte_soup(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        assert_equiv(&bytes);
    }

    #[test]
    fn string_heavy_soup_matches(
        // Skew the alphabet toward the structural characters so quote
        // and escape interactions dominate.
        picks in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        const ALPHABET: &[u8] = b"\"\\{}[],\r\nax\xff\x00";
        let bytes: Vec<u8> = picks
            .iter()
            .map(|&p| ALPHABET[p as usize % ALPHABET.len()])
            .collect();
        assert_equiv(&bytes);
    }

    #[test]
    fn find_byte_matches_position_on_soup(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        needle in any::<u8>(),
        from in 0usize..200,
    ) {
        let from = from.min(bytes.len());
        prop_assert_eq!(
            swar::find_byte(&bytes[from..], needle),
            bytes[from..].iter().position(|&b| b == needle)
        );
    }
}

/// The partial-word form: every prefix length of every word over the
/// quote/backslash alphabet, from every carry-in state, zero-padded.
#[test]
fn string_mask_prefix_matches_scalar_on_partial_words() {
    const ALPHABET: [u8; 3] = [b'"', b'\\', b'a'];
    let states = [
        StringState::default(),
        StringState {
            in_string: true,
            pending_escape: false,
        },
        StringState {
            in_string: true,
            pending_escape: true,
        },
    ];
    for len in 0..=WORD_BYTES {
        for code in 0..3usize.pow(len as u32) {
            let mut word = [0u8; WORD_BYTES];
            let mut c = code;
            for b in word.iter_mut().take(len) {
                *b = ALPHABET[c % 3];
                c /= 3;
            }
            for state in states {
                let m = classify_word(load_word(&word));
                let (bits, next) =
                    swar::string_mask_prefix(m.quotes, m.backslashes, state, len as u32);
                let mut scalar = StringMask::new();
                scalar.restore(state.in_string, state.pending_escape);
                for (j, &b) in word[..len].iter().enumerate() {
                    assert_eq!(bits >> j & 1 == 1, scalar.on_byte(b), "{word:?} {state:?}");
                }
                assert_eq!(
                    next.in_string,
                    scalar.in_string(),
                    "{word:?}/{len} {state:?}"
                );
                assert_eq!(
                    next.pending_escape,
                    scalar.pending_escape(),
                    "{word:?}/{len} {state:?}"
                );
            }
        }
    }
}
