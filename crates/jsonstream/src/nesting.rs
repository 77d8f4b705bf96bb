//! Streaming nesting-level tracking.
//!
//! §III-C of the paper: *"This sensitivity for nesting levels is achieved by
//! incrementing a counter with every `[`,`{` and decrementing it with every
//! `}`,`]`"* — counting only brackets **outside** string literals, which is
//! what [`crate::mask::StringMask`] provides.

use crate::mask::StringMask;

/// Byte-serial nesting-depth tracker (string-mask aware).
///
/// Depth convention: an opening bracket byte already belongs to the new
/// (deeper) level and a closing bracket byte still belongs to the level it
/// closes, so every byte from `{` to the matching `}` inclusive reports the
/// same depth.
///
/// # Example
///
/// ```
/// use rfjson_jsonstream::NestingTracker;
///
/// let mut t = NestingTracker::new();
/// let depths: Vec<u32> = br#"{"a":[1]}"#.iter().map(|&b| t.on_byte(b)).collect();
/// assert_eq!(depths, vec![1, 1, 1, 1, 1, 2, 2, 2, 1]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NestingTracker {
    mask: StringMask,
    depth: u32,
}

impl NestingTracker {
    /// A tracker at depth 0, outside any string.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one byte and returns the nesting depth that byte belongs
    /// to. Unmatched closing brackets saturate at depth 0 (malformed input
    /// cannot underflow the counter).
    pub fn on_byte(&mut self, b: u8) -> u32 {
        let masked = self.mask.on_byte(b);
        if masked {
            return self.depth;
        }
        match b {
            b'{' | b'[' => {
                self.depth = self.depth.saturating_add(1);
                self.depth
            }
            b'}' | b']' => {
                let d = self.depth;
                self.depth = self.depth.saturating_sub(1);
                d
            }
            _ => self.depth,
        }
    }

    /// Current depth (after all consumed bytes).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Is the current byte position inside a string literal?
    pub fn in_string(&self) -> bool {
        self.mask.in_string()
    }

    /// Record boundary: back to depth 0, outside strings.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Convenience: per-byte depths of a whole record.
    pub fn depths_of(input: &[u8]) -> Vec<u32> {
        let mut t = NestingTracker::new();
        input.iter().map(|&b| t.on_byte(b)).collect()
    }
}

/// Byte-serial detector for *unmasked* commas at a given depth — the
/// same-member (key/value co-occurrence) scope of §III-C: *"we just need to
/// check that the key RF and the value RF both appear before the same
/// unescaped comma"*.
#[derive(Debug, Clone, Default)]
pub struct MemberBoundary {
    tracker: NestingTracker,
}

impl MemberBoundary {
    /// New detector at depth 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one byte; returns `true` when the byte is a structural
    /// comma (or a structural closing bracket, which also terminates the
    /// last member of an object/array).
    pub fn on_byte(&mut self, b: u8) -> bool {
        let in_string_before = self.tracker.in_string();
        self.tracker.on_byte(b);
        if in_string_before || self.tracker.in_string() && b == b'"' {
            // byte inside (or opening) a string: never structural
            return false;
        }
        matches!(b, b',' | b'}' | b']')
    }

    /// Record boundary reset.
    pub fn reset(&mut self) {
        self.tracker.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_saturates_instead_of_wrapping() {
        let mut t = NestingTracker {
            depth: u32::MAX,
            ..NestingTracker::default()
        };
        assert_eq!(t.on_byte(b'{'), u32::MAX);
        assert_eq!(t.on_byte(b'['), u32::MAX);
        assert_eq!(t.on_byte(b']'), u32::MAX);
        assert_eq!(t.depth(), u32::MAX - 1);
    }

    #[test]
    fn flat_object_depths() {
        let d = NestingTracker::depths_of(br#"{"a":1}"#);
        assert_eq!(d, vec![1; 7]);
    }

    #[test]
    fn nested_example_from_listing1() {
        // Sketch of the SenML shape: {"e":[{...},{...}],"bt":1}
        let input = br#"{"e":[{"v":1},{"v":2}],"bt":3}"#;
        let d = NestingTracker::depths_of(input);
        assert_eq!(d[0], 1, "outer {{");
        assert_eq!(d[5], 2, "[ of the array");
        assert_eq!(d[6], 3, "{{ of the first measurement");
        assert_eq!(*d.last().unwrap(), 1, "outer }}");
        let mut t = NestingTracker::new();
        for &b in input {
            t.on_byte(b);
        }
        assert_eq!(t.depth(), 0, "balanced record returns to 0");
    }

    #[test]
    fn brackets_in_strings_do_not_count() {
        let input = br#"{"k":"}}]]"}"#;
        let mut t = NestingTracker::new();
        for &b in input {
            t.on_byte(b);
        }
        assert_eq!(t.depth(), 0);
        let d = NestingTracker::depths_of(input);
        assert!(d.iter().all(|&x| x <= 1));
    }

    #[test]
    fn underflow_saturates() {
        let mut t = NestingTracker::new();
        t.on_byte(b'}');
        t.on_byte(b']');
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn member_boundaries() {
        let input = br#"{"a":1,"b":"x,y"}"#;
        let mut m = MemberBoundary::new();
        let hits: Vec<usize> = input
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| m.on_byte(b).then_some(i))
            .collect();
        // The structural comma at index 6 and the closing brace; the comma
        // inside the string "x,y" is ignored.
        assert_eq!(hits, vec![6, 16]);
    }

    #[test]
    fn reset_restores_zero() {
        let mut t = NestingTracker::new();
        t.on_byte(b'{');
        t.on_byte(b'"');
        assert_eq!(t.depth(), 1);
        assert!(t.in_string());
        t.reset();
        assert_eq!(t.depth(), 0);
        assert!(!t.in_string());
    }
}
