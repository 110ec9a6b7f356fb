//! Tracing from outside the program: an in-memory span recorder and
//! timing decorators around the `eavm-core` traits.
//!
//! Nothing here changes what the wrapped code decides; the traced run
//! checks that its outcomes equal the untraced run's.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use eavm_core::{
    AllocationModel, AllocationStrategy, MixEstimate, Placement, RequestView, ServerView,
};
use eavm_types::{EavmError, Joules, MixVector, Seconds, Watts, WorkloadType};

/// One recorded interval. `parent` is the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    attrs: Vec<(&'static str, f64)>,
}

/// Spans kept in memory for the whole run and written once at the end.
/// A disabled recorder keeps nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span now.
    pub fn open(&mut self, name: impl Into<String>, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.into(),
            parent: parent.0,
            start: now,
            end: now,
            attrs: Vec::new(),
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close a span now, attaching `attrs` (counts and timings measured
    /// inside it).
    pub fn close(&mut self, id: SpanId, attrs: &[(&'static str, f64)]) {
        let now = self.origin.elapsed();
        if let Some(span) = id.0.and_then(|i| self.spans.get_mut(i)) {
            span.end = now;
            span.attrs.extend_from_slice(attrs);
        }
    }

    /// The root of all spans.
    pub fn root() -> SpanId {
        SpanId(None)
    }

    /// Spans as JSON lines: `id`, `parent`, `name`, `start_ns`, `end_ns`
    /// and the attributes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{}",
                crate::report::json_string(&span.name),
                span.start.as_nanos(),
                span.end.as_nanos()
            );
            for (key, value) in &span.attrs {
                let _ = write!(out, ",\"{key}\":{}", crate::report::json_number(*value));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// A sampled model call measured longer than this was descheduled
/// part-way (a lookup takes well under a microsecond); it counts as a
/// call but not as a sample.
const PREEMPTED: Duration = Duration::from_micros(20);

/// Call count and busy time of one wrapped layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub calls: u64,
    /// Calls whose duration was measured.
    pub timed: u64,
    /// Summed duration of the measured calls.
    pub busy: Duration,
}

impl Tally {
    fn add(&mut self, busy: Duration) {
        self.calls += 1;
        self.timed += 1;
        self.busy += busy;
    }

    /// Estimated busy time of all calls: the measured calls' mean
    /// duration, less `clock` (what timing a call adds to it, see
    /// [`clock_overhead`]), times the call count.
    pub fn busy_s(&self, clock: Duration) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let mean = self.busy.as_secs_f64() / self.timed as f64 - clock.as_secs_f64();
        mean.max(0.0) * self.calls as f64
    }
}

/// A [`TimedModel`] measures one call in this many; the rest are only
/// counted. Reading the clock costs about as much as a database
/// lookup, so timing every call would double the time being measured.
const MODEL_SAMPLE_EVERY: u64 = 64;

/// Shared read access to a [`TimedModel`]'s tally after the model moved
/// into a strategy.
pub type TallyHandle = Rc<Cell<Tally>>;

/// Counts every call that reaches the wrapped model's database and
/// times one in [`MODEL_SAMPLE_EVERY`].
#[derive(Debug)]
pub struct TimedModel<M> {
    inner: M,
    tally: TallyHandle,
}

impl<M> TimedModel<M> {
    pub fn new(inner: M) -> Self {
        TimedModel {
            inner,
            tally: Rc::default(),
        }
    }

    pub fn tally_handle(&self) -> TallyHandle {
        Rc::clone(&self.tally)
    }

    fn timed<T>(&self, call: impl FnOnce(&M) -> T) -> T {
        let mut tally = self.tally.get();
        if !tally.calls.is_multiple_of(MODEL_SAMPLE_EVERY) {
            tally.calls += 1;
            self.tally.set(tally);
            return call(&self.inner);
        }
        let started = Instant::now();
        let out = call(&self.inner);
        let busy = started.elapsed();
        if busy > PREEMPTED {
            tally.calls += 1;
        } else {
            tally.add(busy);
        }
        self.tally.set(tally);
        out
    }
}

impl<M: AllocationModel> AllocationModel for TimedModel<M> {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        self.timed(|m| m.exec_time(mix, ty))
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        self.timed(|m| m.power(mix))
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        self.timed(|m| m.run_energy(mix))
    }

    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.inner.solo_time(ty)
    }

    fn max_mix(&self) -> MixVector {
        self.inner.max_mix()
    }

    fn cpu_slots(&self) -> u32 {
        self.inner.cpu_slots()
    }

    fn slowdown(&self, mix: MixVector, ty: WorkloadType) -> Result<f64, EavmError> {
        self.timed(|m| m.slowdown(mix, ty))
    }

    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        self.timed(|m| m.estimate_mix(mix))
    }
}

/// Times every `allocate` call and counts the infeasible ones.
pub struct TimedStrategy<S: ?Sized> {
    pub tally: Tally,
    pub infeasible: u64,
    pub inner: Box<S>,
}

impl<S: AllocationStrategy + ?Sized> TimedStrategy<S> {
    pub fn new(inner: Box<S>) -> Self {
        TimedStrategy {
            tally: Tally::default(),
            infeasible: 0,
            inner,
        }
    }
}

impl<S: AllocationStrategy + ?Sized> AllocationStrategy for TimedStrategy<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn allocate(
        &mut self,
        request: &RequestView,
        servers: &[ServerView],
    ) -> Result<Vec<Placement>, EavmError> {
        let started = Instant::now();
        let out = self.inner.allocate(request, servers);
        self.tally.add(started.elapsed());
        if out.is_err() {
            self.infeasible += 1;
        }
        out
    }
}

/// What timing a call of `model.estimate_mix` adds to its measured
/// duration: the mean of individually timed calls less the mean of the
/// same calls timed in bulk, the lower of a few tries each. Reading
/// the clock costs about as much as the call, so
/// [`Tally::busy_s`] subtracts this from every measured call.
pub fn clock_overhead(model: &impl AllocationModel, mixes: &[MixVector]) -> Duration {
    const TRIES: usize = 5;
    let (mut bulk, mut each) = (Duration::MAX, Duration::MAX);
    for _ in 0..TRIES {
        let started = Instant::now();
        for mix in mixes {
            let _ = std::hint::black_box(model.estimate_mix(std::hint::black_box(*mix)));
        }
        bulk = bulk.min(started.elapsed());
        let mut total = Duration::ZERO;
        for mix in mixes {
            let started = Instant::now();
            let _ = std::hint::black_box(model.estimate_mix(std::hint::black_box(*mix)));
            total += started.elapsed();
        }
        each = each.min(total);
    }
    let calls = u32::try_from(mixes.len().max(1)).unwrap_or(u32::MAX);
    each.saturating_sub(bulk) / calls
}

/// Wall and CPU time of one interval.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    /// CPU time of all the process's threads: for work that never waits,
    /// its wall time less the time it waited for a processor, including
    /// time the hypervisor stole. Equal to `wall_s` where the platform
    /// does not report it.
    pub cpu_s: f64,
}

/// Measures a [`Timing`] from `start` to [`Stopwatch::stop`].
pub struct Stopwatch {
    wall: Instant,
    cpu: Option<Duration>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: process_cpu(),
            wall: Instant::now(),
        }
    }

    pub fn stop(&self) -> Timing {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = match (self.cpu, process_cpu()) {
            (Some(before), Some(after)) => after.saturating_sub(before).as_secs_f64(),
            _ => wall_s,
        };
        Timing { wall_s, cpu_s }
    }
}

/// CPU time all threads of this process have run, exited ones
/// included (`CLOCK_PROCESS_CPUTIME_ID`); `None` off 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
pub fn process_cpu() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` — two 64-bit
    // integers on 64-bit Linux, laid out as `Timespec` — through the
    // pointer, which is valid and exclusive for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u32::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then(|| Duration::new(secs, nanos))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu() -> Option<Duration> {
    None
}
