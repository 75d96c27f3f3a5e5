//! Spec constants and device configuration.
//!
//! Defaults are the Bluetooth 1.1 values the paper recites in §3:
//! `T_inquiry_scan` = 1.28 s, `T_w_inquiry_scan` = 11.25 ms,
//! `N_inquiry` = 256 train repetitions (2.56 s per train), response
//! backoff uniform in [0, 1023] slots. Every one of them is a knob so the
//! ablation benches can sweep them.

use crate::addr::BdAddr;
use crate::hop::{InquiryFreq, Train, NUM_INQUIRY_FREQS, TRAIN_LEN};
use desim::SimDuration;

/// Default scan interval `T_inquiry_scan` / `T_page_scan` (1.28 s).
pub const T_SCAN: SimDuration = SimDuration::from_millis(1280);

/// Default scan window `T_w_inquiry_scan` / `T_w_page_scan` (11.25 ms).
pub const TW_SCAN: SimDuration = SimDuration::from_units_0125us(90_000);

/// Spec train-repetition count before switching trains.
pub const N_INQUIRY: u32 = 256;

/// Duration of one 16-frequency train (16 slots = 10 ms).
pub const TRAIN_DURATION: SimDuration = SimDuration::from_millis(10);

/// Time spent repeating one train before switching (2.56 s).
pub const TRAIN_REPEAT: SimDuration = SimDuration::from_millis(2560);

/// Maximum inquiry length for error-free collection (10.24 s = 4 trains).
pub const MAX_INQUIRY: SimDuration = SimDuration::from_millis(10_240);

/// Maximum inquiry-response backoff, in slots (RAND ∈ [0, 1023]).
pub const BACKOFF_MAX_SLOTS: u64 = 1023;

/// Default page timeout (`pageTO`, 5.12 s).
pub const PAGE_TIMEOUT: SimDuration = SimDuration::from_millis(5120);

/// Default link supervision timeout used when a slave walks out of range.
pub const SUPERVISION_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// How a master alternates inquiry and connection-management time.
///
/// The paper's Figure 2 uses `periodic(1 s, 5 s)`; its §5 sizing argument
/// uses `periodic(3.84 s, 15.4 s)`. [`DutyCycle::always_inquiry`] is the
/// §4.1 upper-bound configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DutyCycle {
    inquiry: SimDuration,
    period: SimDuration,
}

impl DutyCycle {
    /// A master that never leaves the inquiry state (the paper's
    /// "most advantageous policy of device discovery").
    pub fn always_inquiry() -> DutyCycle {
        DutyCycle {
            inquiry: SimDuration::from_secs(1),
            period: SimDuration::from_secs(1),
        }
    }

    /// Inquiry for `inquiry` out of every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `inquiry` is zero or exceeds `period`.
    pub fn periodic(inquiry: SimDuration, period: SimDuration) -> DutyCycle {
        assert!(!inquiry.is_zero(), "zero inquiry phase");
        assert!(inquiry <= period, "inquiry phase longer than period");
        DutyCycle { inquiry, period }
    }

    /// The inquiry-phase length.
    pub fn inquiry_len(&self) -> SimDuration {
        self.inquiry
    }

    /// The full cycle length.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The connection-management (service) share of the cycle.
    pub fn service_len(&self) -> SimDuration {
        self.period - self.inquiry
    }

    /// True if the master never leaves inquiry.
    pub fn is_always_inquiry(&self) -> bool {
        self.inquiry == self.period
    }

    /// Fraction of the cycle spent in inquiry — the paper's "average load
    /// of tracking service" (≈24 % for 3.84 s / 15.4 s).
    pub fn inquiry_fraction(&self) -> f64 {
        self.inquiry.as_secs_f64() / self.period.as_secs_f64()
    }
}

impl Default for DutyCycle {
    fn default() -> Self {
        DutyCycle::always_inquiry()
    }
}

/// Which train an inquiring master begins with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartTrain {
    /// Determined by the (random) clock — 50 % A, 50 % B, like real
    /// hardware.
    #[default]
    Random,
    /// Always the given train (Figure 2 pins train A).
    Fixed(Train),
}

/// How the master walks its trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainPolicy {
    /// Spec behaviour: repeat a train `n_inquiry` times (2.56 s), then
    /// switch.
    Alternate {
        /// Repetitions per train before switching (spec: 256).
        n_inquiry: u32,
    },
    /// Transmit a single train only — the Figure 2 simulation setup.
    Single,
}

impl TrainPolicy {
    /// The spec default: alternate every [`N_INQUIRY`] repetitions.
    pub fn spec() -> TrainPolicy {
        TrainPolicy::Alternate {
            n_inquiry: N_INQUIRY,
        }
    }
}

impl Default for TrainPolicy {
    fn default() -> Self {
        TrainPolicy::spec()
    }
}

/// A slave's scan schedule.
///
/// Windows of `window` length open every `interval`. With
/// `interleave_page_scan`, consecutive windows alternate between inquiry
/// scan and page scan — the configuration of the paper's Table 1 slave
/// ("the slave alternates the periods of inquiry scan and page scan").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanPattern {
    interval: SimDuration,
    window: SimDuration,
    interleave_page_scan: bool,
}

impl ScanPattern {
    /// Spec-default inquiry scanning: 11.25 ms window every 1.28 s, no
    /// page scan.
    pub fn spec_inquiry() -> ScanPattern {
        ScanPattern {
            interval: T_SCAN,
            window: TW_SCAN,
            interleave_page_scan: false,
        }
    }

    /// The Table 1 slave: alternating inquiry-scan and page-scan windows
    /// of 11.25 ms, one window per 1.28 s.
    pub fn alternating() -> ScanPattern {
        ScanPattern {
            interval: T_SCAN,
            window: TW_SCAN,
            interleave_page_scan: true,
        }
    }

    /// The Figure 2 slave: continuously in inquiry scan.
    pub fn continuous_inquiry() -> ScanPattern {
        ScanPattern {
            interval: T_SCAN,
            window: T_SCAN,
            interleave_page_scan: false,
        }
    }

    /// A custom schedule.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or longer than `interval`.
    pub fn custom(
        interval: SimDuration,
        window: SimDuration,
        interleave_page_scan: bool,
    ) -> ScanPattern {
        assert!(!window.is_zero(), "zero scan window");
        assert!(window <= interval, "scan window longer than interval");
        ScanPattern {
            interval,
            window,
            interleave_page_scan,
        }
    }

    /// Interval between window starts.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Whether windows alternate inquiry/page scan.
    pub fn interleaves_page_scan(&self) -> bool {
        self.interleave_page_scan
    }

    /// True if the device listens without gaps (window == interval).
    pub fn is_continuous(&self) -> bool {
        self.window == self.interval && !self.interleave_page_scan
    }
}

impl Default for ScanPattern {
    fn default() -> Self {
        ScanPattern::spec_inquiry()
    }
}

/// Where a slave's scan-frequency walk starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartFreq {
    /// Uniform over all 32 inquiry frequencies (real hardware — drives the
    /// ≈50/50 same/different-train split of Table 1).
    #[default]
    Random,
    /// Uniform over the frequencies of one train (Figure 2 pins train A).
    InTrain(Train),
    /// A fixed start position.
    Fixed(InquiryFreq),
}

impl StartFreq {
    /// Resolves the start position using `rng` where randomness is called
    /// for.
    pub fn resolve(self, rng: &mut desim::SimRng) -> InquiryFreq {
        match self {
            StartFreq::Random => InquiryFreq::new(rng.below(NUM_INQUIRY_FREQS as u64) as u8),
            StartFreq::InTrain(t) => t.freq(rng.below(TRAIN_LEN as u64) as u8),
            StartFreq::Fixed(f) => f,
        }
    }
}

/// Configuration of one master (a BIPS workstation radio). The default
/// is spec behaviour: always inquiring, alternating trains, random start
/// train.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MasterConfig {
    /// Inquiry/service alternation.
    duty: DutyCycle,
    /// Train walk policy.
    trains: TrainPolicy,
    /// Starting train.
    start_train: StartTrain,
}

impl MasterConfig {
    /// Sets the duty cycle.
    pub fn duty(mut self, duty: DutyCycle) -> MasterConfig {
        self.duty = duty;
        self
    }

    /// Sets the train policy.
    pub fn trains(mut self, trains: TrainPolicy) -> MasterConfig {
        self.trains = trains;
        self
    }

    /// Sets the starting train.
    pub fn start_train(mut self, start: StartTrain) -> MasterConfig {
        self.start_train = start;
        self
    }

    /// The configured duty cycle.
    pub fn duty_cycle(&self) -> DutyCycle {
        self.duty
    }

    /// The configured train policy.
    pub fn train_policy(&self) -> TrainPolicy {
        self.trains
    }

    /// The configured start train.
    pub fn start_train_policy(&self) -> StartTrain {
        self.start_train
    }
}

/// Configuration of one slave (a BIPS handheld radio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaveConfig {
    /// Device address.
    pub addr: BdAddr,
    scan: ScanPattern,
    start_freq: StartFreq,
    backoff_max_slots: u64,
    halt_when_discovered: bool,
}

impl SlaveConfig {
    /// A slave with spec-default scanning.
    pub fn new(addr: BdAddr) -> SlaveConfig {
        SlaveConfig {
            addr,
            scan: ScanPattern::default(),
            start_freq: StartFreq::default(),
            backoff_max_slots: BACKOFF_MAX_SLOTS,
            halt_when_discovered: false,
        }
    }

    /// Sets the scan pattern.
    pub fn scan(mut self, scan: ScanPattern) -> SlaveConfig {
        self.scan = scan;
        self
    }

    /// Sets the scan-frequency start policy.
    pub fn start_freq(mut self, start: StartFreq) -> SlaveConfig {
        self.start_freq = start;
        self
    }

    /// Sets the maximum response backoff in slots (spec: 1023). The
    /// ablation benches sweep this.
    pub fn backoff_max_slots(mut self, slots: u64) -> SlaveConfig {
        self.backoff_max_slots = slots;
        self
    }

    /// The configured scan pattern.
    pub fn scan_pattern(&self) -> ScanPattern {
        self.scan
    }

    /// The configured start-frequency policy.
    pub fn start_freq_policy(&self) -> StartFreq {
        self.start_freq
    }

    /// The configured backoff bound.
    pub fn backoff_bound(&self) -> u64 {
        self.backoff_max_slots
    }

    /// Makes the slave leave inquiry scan once its FHS has been received —
    /// modeling a BIPS handheld that proceeds to page scan / enrollment
    /// after discovery instead of answering inquiries forever. Figure 2's
    /// "inquiry and connection management" scenario behaves this way.
    pub fn halt_when_discovered(mut self, halt: bool) -> SlaveConfig {
        self.halt_when_discovered = halt;
        self
    }

    /// Whether the slave stops inquiry-scanning after discovery.
    pub fn halts_when_discovered(&self) -> bool {
        self.halt_when_discovered
    }
}

/// How slaves' inquiry-scan frequencies relate to each other.
///
/// The spec derives the inquiry-scan hopping sequence from the **GIAC**,
/// so every device follows the *same* 32-frequency sequence; what differs
/// is the phase input, `CLKN[16:12]` of each device's own clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanFreqModel {
    /// Each slave's clock phase decorrelates its scan position (devices
    /// rarely share a frequency). Collisions are rare.
    #[default]
    PerDevice,
    /// All slaves sit at the same sequence position at any instant — the
    /// BlueHoc modeling the paper's Figure 2 exhibits (every undiscovered
    /// slave answers the same ID packet, so response collisions are the
    /// dominant loss). Use this to regenerate Figure 2.
    SharedSequence,
}

/// How paging is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageModel {
    /// Analytic: the page lands at the slave's next page-scan window plus
    /// a fixed handshake (the master knows the slave's clock from the
    /// FHS). Cheap and accurate to first order.
    #[default]
    Analytic,
    /// Slot-accurate: the master transmits page ID packets every even
    /// slot on the slave's page frequency; the slave must actually be
    /// listening (page-scan window, not deafened by a response backoff),
    /// and channel errors apply per attempt.
    SlotAccurate,
}

/// Medium-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediumConfig {
    /// Whether simultaneous FHS responses destroy each other — the
    /// mechanism the paper added to BlueHoc. Disable to reproduce
    /// vanilla-BlueHoc optimism in the ablation bench.
    pub fhs_collisions: bool,
    /// How slave scan frequencies relate across devices.
    pub scan_freq_model: ScanFreqModel,
    /// Probability that a transmitted packet (ID or FHS) survives the
    /// channel. The paper's experiments assume an "error-free
    /// environment" (1.0, the default); lower it to study error-prone
    /// cells (ablation A5).
    pub packet_success: f64,
    /// Paging simulation model.
    pub page_model: PageModel,
    /// Page timeout before the master gives up on a slave.
    pub page_timeout: SimDuration,
    /// How long a link survives out-of-range before it is declared lost.
    pub supervision_timeout: SimDuration,
    /// Drive the inquiry chain with the skip-ahead scheduler: instead of
    /// one event per slot pair, the medium computes the next pair any
    /// in-range scanning slave could hear and accounts the silent span in
    /// closed form. Bit-identical to the slot-ticking path (the default);
    /// disable to run the naive chain, e.g. for differential testing.
    pub skip_ahead: bool,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            fhs_collisions: true,
            scan_freq_model: ScanFreqModel::default(),
            packet_success: 1.0,
            page_model: PageModel::default(),
            page_timeout: PAGE_TIMEOUT,
            supervision_timeout: SUPERVISION_TIMEOUT,
            skip_ahead: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constants_line_up() {
        // 16 slots of 625 µs = one 10 ms train.
        assert_eq!(TRAIN_DURATION.as_micros(), 16 * 625);
        // 256 repetitions of 10 ms = 2.56 s.
        assert_eq!(
            TRAIN_REPEAT.as_micros(),
            N_INQUIRY as u64 * TRAIN_DURATION.as_micros()
        );
        // Four train periods = 10.24 s.
        assert_eq!(MAX_INQUIRY, TRAIN_REPEAT * 4);
        assert_eq!(TW_SCAN.as_secs_f64(), 11.25e-3);
    }

    #[test]
    fn duty_cycle_fractions() {
        let fig2 = DutyCycle::periodic(SimDuration::from_secs(1), SimDuration::from_secs(5));
        assert_eq!(fig2.inquiry_fraction(), 0.2);
        assert_eq!(fig2.service_len(), SimDuration::from_secs(4));
        let sec5 = DutyCycle::periodic(
            SimDuration::from_millis(3840),
            SimDuration::from_millis(15400),
        );
        assert!((sec5.inquiry_fraction() - 0.249).abs() < 0.01, "≈24 % load");
        assert!(DutyCycle::always_inquiry().is_always_inquiry());
    }

    #[test]
    #[should_panic(expected = "longer than period")]
    fn duty_cycle_validates() {
        let _ = DutyCycle::periodic(SimDuration::from_secs(2), SimDuration::from_secs(1));
    }

    #[test]
    fn scan_pattern_shapes() {
        assert!(ScanPattern::continuous_inquiry().is_continuous());
        assert!(!ScanPattern::spec_inquiry().is_continuous());
        assert!(ScanPattern::alternating().interleaves_page_scan());
        let c = ScanPattern::custom(T_SCAN, TW_SCAN, false);
        assert_eq!(c, ScanPattern::spec_inquiry());
    }

    #[test]
    #[should_panic(expected = "longer than interval")]
    fn scan_pattern_validates() {
        let _ = ScanPattern::custom(TW_SCAN, T_SCAN, false);
    }

    #[test]
    fn start_freq_resolution_respects_train() {
        let mut rng = desim::SimRng::seed_from(3);
        for _ in 0..64 {
            let f = StartFreq::InTrain(Train::B).resolve(&mut rng);
            assert_eq!(f.train(), Train::B);
        }
        let fixed = StartFreq::Fixed(InquiryFreq::new(7)).resolve(&mut rng);
        assert_eq!(fixed.index(), 7);
    }

    #[test]
    fn start_freq_random_spans_both_trains() {
        let mut rng = desim::SimRng::seed_from(4);
        let mut a = false;
        let mut b = false;
        for _ in 0..128 {
            match StartFreq::Random.resolve(&mut rng).train() {
                Train::A => a = true,
                Train::B => b = true,
            }
        }
        assert!(a && b);
    }

    #[test]
    fn builders_chain() {
        let m = MasterConfig::default()
            .duty(DutyCycle::periodic(
                SimDuration::from_secs(1),
                SimDuration::from_secs(5),
            ))
            .trains(TrainPolicy::Single)
            .start_train(StartTrain::Fixed(Train::A));
        assert_eq!(m.train_policy(), TrainPolicy::Single);
        assert_eq!(m.duty_cycle().inquiry_fraction(), 0.2);

        let s = SlaveConfig::new(BdAddr::new(2))
            .scan(ScanPattern::continuous_inquiry())
            .backoff_max_slots(511);
        assert_eq!(s.backoff_bound(), 511);
        assert!(s.scan_pattern().is_continuous());
    }
}
