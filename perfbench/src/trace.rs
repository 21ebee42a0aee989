//! Layer-boundary timing and the in-memory span recorder.
//!
//! Every call the benchmark makes into a layer goes through [`call`], which
//! always returns the call's duration (the end-to-end metrics are built from
//! these) and, in a traced run, also records a span: name, start, end,
//! parent span and op id. Spans stay in memory until [`write_jsonl`] dumps
//! them at exit, so tracing does no I/O while the workload runs.
//!
//! A span's name is `<layer>.<call>`; the layer is the part before the
//! first dot and [`self_times`] sums self time (duration minus the time
//! covered by child spans) per layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded layer call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u64,
}

#[derive(Debug)]
struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

fn since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns span recording on or off for this thread (the benchmark is
/// single-threaded). Turning it off keeps the spans recorded so far.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Runs `f` as one call into a layer and returns its result and duration.
/// While recording, the call also becomes a span named `name` carrying op
/// id `op`, nested under whichever span is open.
pub fn call<T>(name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
    let index = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let index = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans");
        let span = Span {
            name,
            start_ns: since(r.origin),
            end_ns: 0,
            parent: r.open.last().copied(),
            op,
        };
        r.spans.push(span);
        r.open.push(index);
        Some(index)
    });
    let start = Instant::now();
    let value = f();
    let took = start.elapsed();
    if let Some(index) = index {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = since(r.origin);
            r.spans[index as usize].end_ns = end;
            r.open.pop();
        });
    }
    (value, took)
}

/// Seconds spent per layer outside that layer's child spans, summed over
/// every recorded span.
pub fn self_times() -> BTreeMap<&'static str, f64> {
    REC.with(|r| {
        let r = r.borrow();
        let mut child_ns = vec![0u64; r.spans.len()];
        for span in &r.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in r.spans.iter().zip(child_ns) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    })
}

/// Writes every recorded span as one JSON object per line.
///
/// # Errors
///
/// I/O errors creating or writing `path`.
pub fn write_jsonl(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    REC.with(|r| -> io::Result<()> {
        for (id, span) in r.borrow().spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        Ok(())
    })?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_recording(true);
        let ((), total) = call("outer.a", 0, || {
            std::thread::sleep(Duration::from_millis(2));
            call("inner.b", 0, || {
                std::thread::sleep(Duration::from_millis(4))
            });
        });
        set_recording(false);
        let t = self_times();
        assert!(t["inner"] >= 0.004, "{t:?}");
        assert!(t["outer"] >= 0.002, "{t:?}");
        // Self time plus child time is the outer span's duration.
        let sum = t["outer"] + t["inner"];
        assert!(
            (sum - total.as_secs_f64()).abs() < 1e-4,
            "{t:?} vs {total:?}"
        );
    }
}
