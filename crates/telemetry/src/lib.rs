//! Zero-cost-by-default telemetry for the Leonardo reproduction.
//!
//! The paper's claims are claims about *run behaviour* — ≈2000
//! generations to maximum fitness in ≈10 minutes at 1 MHz (fact F6),
//! a 32-individual population evolved by a hardware GA pipeline (F4,
//! F5) — so the repo needs a way to watch a run while it happens
//! without perturbing it. This crate is that layer:
//!
//! * **Facade** (this module): [`count`], [`observe`], [`emit`] and the
//!   [`span`] timer, all guarded by [`enabled_at`]. With the default
//!   feature set the entire API is a compile-time no-op — `enabled_at`
//!   is `const false`, the emit bodies are empty, and an instrumented
//!   hot loop carries no atomic loads, no branches, nothing.
//! * **Events** ([`event`]): a static name, a [`Level`]
//!   (coarse [`Level::Metric`] vs per-generation [`Level::Trace`]) and
//!   an allocation-free payload.
//! * **Sinks** (`sink`, with the `runtime` feature): a JSONL event
//!   stream, an in-memory [`Aggregator`](sink::Aggregator) with a human
//!   summary, and a fan-out combinator.
//! * **Manifests** ([`manifest`]): a versioned [`RunManifest`] recording
//!   params, seeds, git revision, wall/cycle totals and named tables of
//!   summary rows next to every experiment artifact.
//!
//! # Enabling the runtime
//!
//! Library crates (`discipulus`, `leonardo-rtl`, `leonardo-evo`) depend
//! on this crate *without* features: their instrumentation compiles
//! away unless something else in the build graph turns it on. The
//! experiment harness (`leonardo-bench`) enables the `runtime` feature,
//! installs a sink for the duration of a run, and the same emit sites
//! start recording:
//!
//! ```
//! use leonardo_telemetry as tele;
//!
//! // In an instrumented library (free when the runtime is off):
//! fn step() {
//!     if tele::enabled_at(tele::Level::Trace) {
//!         tele::emit(
//!             tele::Level::Trace,
//!             "evo.ga.generation",
//!             &[("best", 27u64.into()), ("mean", 21.5.into())],
//!         );
//!     }
//! }
//!
//! // In the harness (requires the `runtime` feature to do anything):
//! # #[cfg(feature = "runtime")] {
//! use std::sync::Arc;
//! let agg = Arc::new(tele::sink::Aggregator::new());
//! let _guard = tele::install(agg.clone(), tele::Level::Trace);
//! step();
//! assert_eq!(agg.events("evo.ga.generation").len(), 1);
//! # }
//! ```
//!
//! The sink guard restores the previous (usually absent) sink on drop,
//! and installs are serialised process-wide so concurrent tests cannot
//! interleave their streams.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod manifest;
#[cfg(feature = "runtime")]
pub mod sink;

pub use event::{Event, Level, Payload, Value};
pub use manifest::{host_cores, ManifestError, RunManifest, MANIFEST_SCHEMA_VERSION};

#[cfg(feature = "runtime")]
mod runtime {
    use crate::event::{Event, Level, Payload};
    use crate::sink::Sink;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

    // 0 = off, 1 = metric only, 2 = metric + trace. A relaxed load of
    // this atomic is the entire disabled-path cost of an emit site.
    static LEVEL: AtomicU8 = AtomicU8::new(0);
    static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
    // Serialises sessions: a second `install` blocks until the first
    // guard drops, so parallel tests cannot interleave their streams.
    static SESSION: Mutex<()> = Mutex::new(());

    fn unpoison<'a, T: ?Sized>(
        r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
    ) -> MutexGuard<'a, T> {
        r.unwrap_or_else(PoisonError::into_inner)
    }

    /// True when a sink is installed at `level` or finer.
    #[inline]
    pub fn enabled_at(level: Level) -> bool {
        LEVEL.load(Ordering::Relaxed) > level as u8
    }

    /// Deliver `event` to the installed sink, if any.
    pub fn dispatch(event: &Event<'_>) {
        if !enabled_at(event.level) {
            return;
        }
        let guard = SINK.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(sink) = guard.as_ref() {
            sink.record(event);
        }
    }

    /// Exclusive telemetry session; see [`crate::install`].
    pub struct SinkGuard {
        _session: MutexGuard<'static, ()>,
    }

    impl Drop for SinkGuard {
        fn drop(&mut self) {
            LEVEL.store(0, Ordering::Relaxed);
            let previous = SINK.write().unwrap_or_else(PoisonError::into_inner).take();
            if let Some(sink) = previous {
                sink.flush();
            }
        }
    }

    pub fn install(sink: Arc<dyn Sink>, max_level: Level) -> SinkGuard {
        let session = unpoison(SESSION.lock());
        *SINK.write().unwrap_or_else(PoisonError::into_inner) = Some(sink);
        LEVEL.store(max_level as u8 + 1, Ordering::Relaxed);
        SinkGuard { _session: session }
    }

    pub fn flush() {
        let guard = SINK.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(sink) = guard.as_ref() {
            sink.flush();
        }
    }

    use crate::event::Value;

    pub fn emit(level: Level, name: &'static str, fields: &[(&'static str, Value)]) {
        dispatch(&Event {
            name,
            level,
            payload: Payload::Fields(fields),
        });
    }

    pub fn count(level: Level, name: &'static str, n: u64) {
        dispatch(&Event {
            name,
            level,
            payload: Payload::Count(n),
        });
    }

    pub fn observe(level: Level, name: &'static str, value: f64) {
        dispatch(&Event {
            name,
            level,
            payload: Payload::Observe(value),
        });
    }

    /// Timer state for [`crate::span`]; observes elapsed seconds on drop.
    pub struct SpanTimer {
        level: Level,
        name: &'static str,
        start: std::time::Instant,
    }

    impl Drop for SpanTimer {
        fn drop(&mut self) {
            observe(self.level, self.name, self.start.elapsed().as_secs_f64());
        }
    }

    pub fn span(level: Level, name: &'static str) -> Option<SpanTimer> {
        if enabled_at(level) {
            Some(SpanTimer {
                level,
                name,
                start: std::time::Instant::now(),
            })
        } else {
            None
        }
    }
}

#[cfg(feature = "runtime")]
pub use runtime::{SinkGuard, SpanTimer};

/// Install `sink` as the process-wide telemetry sink, recording events up
/// to and including `max_level`, for as long as the returned guard lives.
///
/// Sessions are exclusive: a second `install` blocks until the first
/// guard drops (this is what makes parallel `cargo test` runs safe).
/// Dropping the guard flushes and uninstalls the sink and restores the
/// no-op state.
#[cfg(feature = "runtime")]
pub fn install(sink: std::sync::Arc<dyn sink::Sink>, max_level: Level) -> SinkGuard {
    runtime::install(sink, max_level)
}

/// True when a sink is currently recording events at `level`.
///
/// Emit sites guard field construction with this so that a disabled run
/// pays one relaxed atomic load — and with the `runtime` feature off,
/// nothing at all (the function is `const false` and the guarded block
/// is dead code).
#[inline]
#[must_use]
pub fn enabled_at(level: Level) -> bool {
    #[cfg(feature = "runtime")]
    {
        runtime::enabled_at(level)
    }
    #[cfg(not(feature = "runtime"))]
    {
        let _ = level;
        false
    }
}

/// Emit a structured event with named `fields`.
///
/// Prefer guarding the call with [`enabled_at`] when building the field
/// slice involves any work.
#[inline]
pub fn emit(level: Level, name: &'static str, fields: &[(&'static str, Value)]) {
    #[cfg(feature = "runtime")]
    runtime::emit(level, name, fields);
    #[cfg(not(feature = "runtime"))]
    {
        let _ = (level, name, fields);
    }
}

/// Increment the counter `name` by `n`.
#[inline]
pub fn count(level: Level, name: &'static str, n: u64) {
    #[cfg(feature = "runtime")]
    runtime::count(level, name, n);
    #[cfg(not(feature = "runtime"))]
    {
        let _ = (level, name, n);
    }
}

/// Record one scalar observation of the distribution `name`.
#[inline]
pub fn observe(level: Level, name: &'static str, value: f64) {
    #[cfg(feature = "runtime")]
    runtime::observe(level, name, value);
    #[cfg(not(feature = "runtime"))]
    {
        let _ = (level, name, value);
    }
}

/// Start a wall-clock span; elapsed seconds are recorded as an
/// observation of `name` when the returned value is dropped.
///
/// Returns `None` (and measures nothing) when telemetry is disabled.
#[cfg(feature = "runtime")]
#[inline]
pub fn span(level: Level, name: &'static str) -> Option<SpanTimer> {
    runtime::span(level, name)
}

/// Start a wall-clock span; with the runtime feature off this is a unit
/// no-op so call sites compile either way.
#[cfg(not(feature = "runtime"))]
#[inline]
pub fn span(level: Level, name: &'static str) -> Option<()> {
    let _ = (level, name);
    None
}

/// Ask the installed sink (if any) to flush buffered output.
#[inline]
pub fn flush() {
    #[cfg(feature = "runtime")]
    runtime::flush();
}

#[cfg(all(test, feature = "runtime"))]
mod runtime_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn install_enables_and_drop_restores() {
        // Other tests in this binary run concurrently and hold their own
        // sessions, so global state is only asserted while we hold ours.
        let agg = Arc::new(sink::Aggregator::new());
        {
            let _guard = install(agg.clone(), Level::Metric);
            assert!(enabled_at(Level::Metric));
            assert!(!enabled_at(Level::Trace));
            count(Level::Metric, "kept", 1);
            count(Level::Trace, "dropped", 1);
            emit(Level::Metric, "point", &[("x", 1u64.into())]);
            observe(Level::Metric, "obs", 2.0);
            flush();
        }
        assert_eq!(agg.counter("kept"), 1);
        assert_eq!(agg.counter("dropped"), 0);
        assert_eq!(agg.events("point").len(), 1);
        assert_eq!(agg.observations("obs"), vec![2.0]);
    }

    #[test]
    fn trace_level_includes_metric() {
        let agg = Arc::new(sink::Aggregator::new());
        let _guard = install(agg.clone(), Level::Trace);
        count(Level::Metric, "m", 1);
        count(Level::Trace, "t", 1);
        assert_eq!(agg.counter("m"), 1);
        assert_eq!(agg.counter("t"), 1);
    }

    #[test]
    fn span_records_elapsed_seconds() {
        let agg = Arc::new(sink::Aggregator::new());
        let _guard = install(agg.clone(), Level::Metric);
        {
            let _span = span(Level::Metric, "timed");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let obs = agg.observations("timed");
        assert_eq!(obs.len(), 1);
        assert!(obs[0] >= 0.004, "span too short: {}", obs[0]);
    }

    #[test]
    fn sessions_are_exclusive_across_threads() {
        let agg = Arc::new(sink::Aggregator::new());
        let _guard = install(agg.clone(), Level::Metric);
        let worker = std::thread::spawn(|| {
            let inner = Arc::new(sink::Aggregator::new());
            let _g = install(inner.clone(), Level::Metric);
            count(Level::Metric, "inner", 1);
            inner.counter("inner")
        });
        count(Level::Metric, "outer", 1);
        drop(_guard);
        assert_eq!(worker.join().unwrap(), 1);
        assert_eq!(agg.counter("outer"), 1);
        assert_eq!(agg.counter("inner"), 0);
    }
}

#[cfg(all(test, not(feature = "runtime")))]
mod noop_tests {
    use super::*;

    #[test]
    fn disabled_api_is_inert() {
        assert!(!enabled_at(Level::Metric));
        assert!(!enabled_at(Level::Trace));
        count(Level::Metric, "c", 1);
        observe(Level::Metric, "o", 1.0);
        emit(Level::Metric, "e", &[("x", 1u64.into())]);
        assert!(span(Level::Trace, "s").is_none());
        flush();
    }
}
