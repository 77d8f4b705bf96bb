//! Record-aligned ingest batching: the client cuts the stream into
//! batches of about [`BATCH_BYTES`] that end only at record ends, so no
//! runner call ever sees half a record (a half record would leave a
//! lane's state, and its prefilter probation, skewed for the next call).

use rfjson_jsonstream::frame::split_records;
use std::ops::Range;

/// Target ingest batch size.
pub const BATCH_BYTES: usize = 256 * 1024;

/// Cuts `stream` into consecutive batches of at least `target` bytes
/// (the last may be shorter), each ending just after a `\n` or at the
/// end of the stream. The batches cover the stream exactly, in order.
pub fn record_aligned_batches(stream: &[u8], target: usize) -> Vec<Range<usize>> {
    let target = target.max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < stream.len() {
        let probe = (start + target).min(stream.len()) - 1;
        let end = stream[probe..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(stream.len(), |i| probe + i + 1);
        out.push(start..end);
        start = end;
    }
    out
}

/// Byte ranges (relative to `batch`) of the records the workspace's
/// framing rules find in `batch`, in order — the records the runner
/// returns one verdict each for.
pub fn record_ranges(batch: &[u8]) -> Vec<Range<usize>> {
    let base = batch.as_ptr() as usize;
    split_records(batch)
        .map(|r| {
            let start = r.as_ptr() as usize - base;
            start..start + r.len()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_of(lens: &[usize]) -> Vec<u8> {
        let mut s = Vec::new();
        for (i, &n) in lens.iter().enumerate() {
            s.extend(std::iter::repeat_n(b'a' + (i % 26) as u8, n));
            s.push(b'\n');
        }
        s
    }

    fn assert_aligned(stream: &[u8], batches: &[Range<usize>]) {
        let mut pos = 0;
        for b in batches {
            assert_eq!(b.start, pos, "batches are contiguous");
            assert!(b.end > b.start, "no empty batch");
            assert!(
                b.start == 0 || stream[b.start - 1] == b'\n',
                "batch starts at a record start"
            );
            assert!(
                b.end == stream.len() || stream[b.end - 1] == b'\n',
                "batch ends at a record end"
            );
            pos = b.end;
        }
        assert_eq!(pos, stream.len(), "batches cover the stream");
    }

    #[test]
    fn batches_end_at_record_ends() {
        let lens: Vec<usize> = (0..500).map(|i| 20 + (i * 37) % 300).collect();
        let s = stream_of(&lens);
        for target in [1, 7, 64, 1000, 4096, s.len(), s.len() + 1] {
            let batches = record_aligned_batches(&s, target);
            assert_aligned(&s, &batches);
            for b in &batches[..batches.len() - 1] {
                assert!(b.len() >= target, "only the last batch may be short");
            }
        }
    }

    #[test]
    fn records_longer_than_a_batch_stay_whole() {
        let s = stream_of(&[10, 5000, 10, 3000]);
        let batches = record_aligned_batches(&s, 1024);
        assert_aligned(&s, &batches);
        assert_eq!(batches.len(), 2);
        assert_eq!(record_ranges(&s[batches[0].clone()]).len(), 2);
        assert_eq!(record_ranges(&s[batches[1].clone()]).len(), 2);
    }

    #[test]
    fn stream_without_final_newline() {
        let mut s = stream_of(&[100, 100, 100]);
        s.pop();
        let batches = record_aligned_batches(&s, 150);
        assert_aligned(&s, &batches);
        assert_eq!(batches.last().map(|b| b.end), Some(s.len()));
    }

    #[test]
    fn record_ranges_match_split_records() {
        let s = stream_of(&[3, 1, 4, 1, 5]);
        let ranges = record_ranges(&s);
        let recs: Vec<&[u8]> = ranges.iter().map(|r| &s[r.clone()]).collect();
        assert_eq!(recs, split_records(&s).collect::<Vec<_>>());
        assert_eq!(ranges[1], 4..5);
    }

    #[test]
    fn empty_stream_has_no_batches() {
        assert!(record_aligned_batches(b"", 10).is_empty());
    }
}
