//! Seeded fault injection for hardening the differential harness.
//!
//! Real engine binaries crash, wedge, and print garbage (§3.4 keeps voting
//! anyway). Our simulated testbeds are too polite to exercise those paths,
//! so this module makes misbehaviour injectable: a [`FaultPlan`] attached to
//! a [`Testbed`](crate::Testbed) decides — as a pure function of the plan
//! seed, the program's content and the attempt — whether a given run
//! panics, hangs, emits garbage, or fails transiently. The content address
//! is a hash of the chunk's arena ([`NodeArena::hash_content`]): its nodes,
//! atoms, numbers, `extra` records and function protos, but not the AST
//! ids, so two compiles of one program text address alike however the
//! source was laid out. Content-addressed decisions keep chaos campaigns
//! bit-identical at any thread count and shard layout, and a compile
//! without chaos pays nothing for them.

use comfort_syntax::NodeArena;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The fault classes a [`FaultPlan`] can inject, checked in this order
/// (panic wins over hang wins over garbage wins over transient when rate
/// bands overlap a single draw).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A fatal signal (SIGABRT-class). In a jailed worker process this
    /// raises the real signal and kills the process; contained in-process
    /// it panics with a [`ChaosAbort`] payload that the harness maps to
    /// the identical deterministic `Crashed` outcome.
    Abort,
    /// `panic!` inside the run (simulates a harness-visible engine abort).
    Panic,
    /// The run wedges (sleeps) and reports itself hung.
    Hang,
    /// The run "succeeds" but prints deterministic garbage.
    Garbage,
    /// The run fails with a retryable transient error for the first
    /// [`FaultPlan::transient_persistence`] attempts.
    Transient,
}

impl FaultKind {
    /// Stable label used in telemetry and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Abort => "abort",
            FaultKind::Panic => "panic",
            FaultKind::Hang => "hang",
            FaultKind::Garbage => "garbage",
            FaultKind::Transient => "transient",
        }
    }
}

/// The panic payload used for injected panics. The harness installs a hook
/// that keeps these off stderr (see
/// [`silence_chaos_panics`](crate::harness::silence_chaos_panics)); any
/// other payload still reports normally.
#[derive(Debug)]
pub struct ChaosPanic {
    /// Label of the testbed that injected the panic.
    pub testbed: String,
}

/// The panic payload for a *contained* abort fault: in-process runs must
/// not actually die, but they must report the same deterministic fatal
/// outcome a jailed worker process observes when the signal is real. The
/// harness maps this payload to `Crashed("fatal signal N (NAME) on L")`.
#[derive(Debug)]
pub struct ChaosAbort {
    /// Label of the testbed that injected the abort.
    pub testbed: String,
    /// The fatal signal number the abort simulates (6 = SIGABRT).
    pub signal: i32,
}

/// Stable name for the signals the chaos planner and the fleet supervisor
/// classify (anything else renders as `SIG<n>` by number only).
pub fn signal_name(signal: i32) -> &'static str {
    match signal {
        4 => "SIGILL",
        6 => "SIGABRT",
        8 => "SIGFPE",
        9 => "SIGKILL",
        11 => "SIGSEGV",
        15 => "SIGTERM",
        24 => "SIGXCPU",
        _ => "SIG?",
    }
}

/// The deterministic `Crashed` detail string for a fatal signal on a
/// testbed — shared by the contained in-process path and the jailed
/// worker path so both produce bit-identical reports.
pub fn fatal_signal_message(signal: i32, testbed: &str) -> String {
    format!("fatal signal {signal} ({}) on {testbed}", signal_name(signal))
}

/// A raw fault surfaced by
/// [`Testbed::run_attempt_compiled`](crate::Testbed::run_attempt_compiled)
/// before the isolation layer maps it to a deterministic [`RunResult`](crate::RunResult)
/// outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawFault {
    /// A retryable transient failure (I/O-flake analogue).
    Transient {
        /// Human-readable failure description.
        message: String,
    },
    /// The run wedged for `millis` of wall-clock time and would never have
    /// produced a result on its own.
    Wedged {
        /// How long the run slept before reporting itself hung.
        millis: u64,
    },
}

/// A deterministic fault-injection plan: per-run fault probabilities drawn
/// from a content-addressed hash, so the same (seed, program content,
/// attempt) triple always yields the same decision regardless of
/// scheduling.
///
/// Rates are cumulative bands over one uniform draw in `[0, 1)`: a plan
/// with `panic_rate = 0.10` and `hang_rate = 0.05` panics on draws below
/// 0.10 and hangs on draws in `[0.10, 0.15)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan seed. [`FaultPlan::DERIVE`] means "derive from the campaign
    /// seed" when the plan is attached through a campaign config.
    pub seed: u64,
    /// Probability a run dies by (or, contained, simulates) a fatal
    /// signal. Checked before every other band.
    pub abort_rate: f64,
    /// The signal an abort fault raises (default 6 = SIGABRT).
    pub abort_signal: i32,
    /// Probability a run panics.
    pub panic_rate: f64,
    /// Probability a run wedges.
    pub hang_rate: f64,
    /// Probability a run emits garbage output.
    pub garbage_rate: f64,
    /// Probability a run fails transiently (retry succeeds).
    pub transient_rate: f64,
    /// How many attempts a transient fault persists for (1 = the first
    /// retry succeeds; larger values exhaust small retry budgets).
    pub transient_persistence: u32,
    /// Wall-clock sleep for injected hangs, in milliseconds. Kept small by
    /// default so chaos campaigns stay fast.
    pub hang_millis: u64,
    /// Size of injected garbage output, in bytes.
    pub garbage_bytes: usize,
}

impl FaultPlan {
    /// Sentinel seed meaning "derive my seed from the campaign seed".
    pub const DERIVE: u64 = 0;

    /// A plan with the given seed and all fault rates zero.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            abort_rate: 0.0,
            abort_signal: 6,
            panic_rate: 0.0,
            hang_rate: 0.0,
            garbage_rate: 0.0,
            transient_rate: 0.0,
            transient_persistence: 1,
            hang_millis: 20,
            garbage_bytes: 64,
        }
    }

    /// A plan whose seed is derived (splitmix64) from a campaign seed, so
    /// "the chaos schedule" is a pure function of the campaign config.
    pub fn derived_from(campaign_seed: u64) -> Self {
        FaultPlan::new(splitmix64(campaign_seed ^ 0xC4A0_5C4A_05C4_A05C))
    }

    /// Sets the fatal-signal probability.
    pub fn abort_rate(mut self, rate: f64) -> Self {
        self.abort_rate = rate;
        self
    }

    /// Sets the signal an abort fault raises.
    pub fn abort_signal(mut self, signal: i32) -> Self {
        self.abort_signal = signal;
        self
    }

    /// Sets the panic probability.
    pub fn panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Sets the hang probability.
    pub fn hang_rate(mut self, rate: f64) -> Self {
        self.hang_rate = rate;
        self
    }

    /// Sets the garbage-output probability.
    pub fn garbage_rate(mut self, rate: f64) -> Self {
        self.garbage_rate = rate;
        self
    }

    /// Sets the transient-failure probability.
    pub fn transient_rate(mut self, rate: f64) -> Self {
        self.transient_rate = rate;
        self
    }

    /// Sets how many attempts a transient fault persists for.
    pub fn transient_persistence(mut self, attempts: u32) -> Self {
        self.transient_persistence = attempts.max(1);
        self
    }

    /// Sets the injected-hang duration in milliseconds.
    pub fn hang_millis(mut self, millis: u64) -> Self {
        self.hang_millis = millis;
        self
    }

    /// `true` when every rate lies in `[0, 1]` and their sum does too
    /// (the bands must fit one uniform draw).
    pub fn rates_valid(&self) -> bool {
        let rates = [
            self.abort_rate,
            self.panic_rate,
            self.hang_rate,
            self.garbage_rate,
            self.transient_rate,
        ];
        rates.iter().all(|r| (0.0..=1.0).contains(r) && r.is_finite())
            && rates.iter().sum::<f64>() <= 1.0
    }

    /// Decides the fault (if any) for running the program compiled into
    /// `arena` at `attempt` (0 = first try). Pure function of `(seed,
    /// program content, attempt)` — never of wall-clock time or scheduling.
    pub fn decide(&self, arena: &NodeArena, attempt: u32) -> Option<FaultKind> {
        let draw = self.draw(arena);
        let mut band = self.abort_rate;
        if draw < band {
            return Some(FaultKind::Abort);
        }
        band += self.panic_rate;
        if draw < band {
            return Some(FaultKind::Panic);
        }
        band += self.hang_rate;
        if draw < band {
            return Some(FaultKind::Hang);
        }
        band += self.garbage_rate;
        if draw < band {
            return Some(FaultKind::Garbage);
        }
        band += self.transient_rate;
        if draw < band && attempt < self.transient_persistence {
            return Some(FaultKind::Transient);
        }
        None
    }

    /// Deterministic garbage output for a garbage fault on the program
    /// compiled into `arena`.
    pub fn garbage_output(&self, arena: &NodeArena) -> String {
        let mut state = splitmix64(self.content_hash(arena) ^ 0x6A5B_9C3D);
        let mut out = String::with_capacity(self.garbage_bytes);
        const ALPHABET: &[u8] = b"\x00\x7f#@!~GARBAGE0123456789abcdef\n";
        while out.len() < self.garbage_bytes {
            state = splitmix64(state);
            out.push(ALPHABET[(state % ALPHABET.len() as u64) as usize] as char);
        }
        out
    }

    /// The plan's address for a program: its seed and the arena's content.
    fn content_hash(&self, arena: &NodeArena) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.seed.hash(&mut hasher);
        arena.hash_content(&mut hasher);
        hasher.finish()
    }

    fn draw(&self, arena: &NodeArena) -> f64 {
        // Top 53 bits → uniform in [0, 1).
        (splitmix64(self.content_hash(arena)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 mixer (same scheme the executor uses for shard seeds).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comfort_interp::compile;
    use comfort_syntax::parse;

    fn arena(src: &str) -> NodeArena {
        NodeArena::build(&parse(src).expect("test source parses"))
    }

    #[test]
    fn decisions_are_deterministic_and_content_addressed() {
        let plan = FaultPlan::new(7).panic_rate(0.5).hang_rate(0.25);
        let a = arena("print(1);");
        let b = arena("print(2);");
        assert_eq!(plan.decide(&a, 0), plan.decide(&a, 0));
        // Different programs draw independently; over many programs both
        // faulting and clean runs must occur at these rates.
        let decisions: Vec<_> =
            (0..64).map(|i| plan.decide(&arena(&format!("print({i});")), 0)).collect();
        assert!(decisions.iter().any(|d| d.is_some()));
        assert!(decisions.iter().any(|d| d.is_none()));
        let _ = b;
    }

    #[test]
    fn the_address_is_the_arena_content_not_the_layout() {
        let plan = FaultPlan::new(11);
        let address = |src: &str| {
            let chunk = compile(&parse(src).expect("test source parses"));
            plan.content_hash(&chunk.arena)
        };
        // Separately compiled chunks of one program text share an address.
        assert_eq!(address("print('t');"), address("print ( 't' ) ;"));
        // A changed literal is a different program.
        assert_ne!(address("print('t');"), address("print('u');"));
        assert_ne!(address("print(1);"), address("print(2);"));
        // The address is the plan's own: another seed draws afresh.
        let other = FaultPlan::new(12);
        let chunk = compile(&parse("print('t');").expect("test source parses"));
        assert_ne!(plan.content_hash(&chunk.arena), other.content_hash(&chunk.arena));
    }

    #[test]
    fn rate_bands_partition_in_order() {
        // A certain-fault plan: the first band wins.
        let plan = FaultPlan::new(1).abort_rate(1.0);
        assert_eq!(plan.decide(&arena("print(1);"), 0), Some(FaultKind::Abort));
        let plan = FaultPlan::new(1).panic_rate(1.0);
        assert_eq!(plan.decide(&arena("print(1);"), 0), Some(FaultKind::Panic));
        let plan = FaultPlan::new(1).hang_rate(1.0);
        assert_eq!(plan.decide(&arena("print(1);"), 0), Some(FaultKind::Hang));
        // Abort outranks panic on the same draw.
        let plan = FaultPlan::new(1).abort_rate(1.0).panic_rate(1.0);
        assert!(!plan.rates_valid(), "bands exceed one draw");
        let plan = FaultPlan::new(1).abort_rate(0.5).panic_rate(0.5);
        assert!(plan.rates_valid());
    }

    #[test]
    fn fatal_signal_messages_are_deterministic_and_named() {
        assert_eq!(
            fatal_signal_message(6, "jsc-sim [chaos]"),
            fatal_signal_message(6, "jsc-sim [chaos]")
        );
        assert!(fatal_signal_message(6, "t").contains("SIGABRT"));
        assert!(fatal_signal_message(11, "t").contains("SIGSEGV"));
        assert!(fatal_signal_message(9, "t").contains("SIGKILL"));
        assert!(fatal_signal_message(64, "t").contains("SIG?"));
    }

    #[test]
    fn transient_faults_respect_persistence() {
        let plan = FaultPlan::new(3).transient_rate(1.0).transient_persistence(2);
        let p = arena("print(1);");
        assert_eq!(plan.decide(&p, 0), Some(FaultKind::Transient));
        assert_eq!(plan.decide(&p, 1), Some(FaultKind::Transient));
        assert_eq!(plan.decide(&p, 2), None, "attempt beyond persistence succeeds");
    }

    #[test]
    fn garbage_is_deterministic_and_sized() {
        let plan = FaultPlan::new(9);
        let p = arena("print(1);");
        assert_eq!(plan.garbage_output(&p), plan.garbage_output(&p));
        assert!(plan.garbage_output(&p).len() >= plan.garbage_bytes);
    }

    #[test]
    fn rate_validation() {
        assert!(FaultPlan::new(1).panic_rate(0.5).rates_valid());
        assert!(!FaultPlan::new(1).panic_rate(0.7).hang_rate(0.7).rates_valid());
        assert!(!FaultPlan::new(1).panic_rate(-0.1).rates_valid());
    }

    #[test]
    fn derived_seed_is_stable() {
        assert_eq!(FaultPlan::derived_from(42).seed, FaultPlan::derived_from(42).seed);
        assert_ne!(FaultPlan::derived_from(42).seed, FaultPlan::derived_from(43).seed);
    }
}
