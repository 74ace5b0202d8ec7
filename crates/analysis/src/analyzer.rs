//! The composed streaming analyzer and its report.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use simtime::SimDuration;
use trace::{Event, EventCounts, Pid, StringTable, TraceSink};

use crate::attribution::AttributionTracker;
use crate::classify::{Classifier, ClusterKey, ClusterState, PatternMix};
use crate::countdown::{self, Chains, Dot};
use crate::lifecycle::{Episodes, Sample};
use crate::provenance::{ProvenanceRow, ProvenanceTracker};
use crate::scatter::{ScatterBuilder, ScatterPoint};
use crate::slots::{ByOrigin, TimerSlots};
use crate::summary::{RateSeries, TraceSummary};
use crate::values::{coverage, ValueBuckets, ValueCounts, ValueRow};

/// How episodes are clustered into "a timer" for classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMode {
    /// By timer address — natural on Linux, where structs are static.
    ByAddress,
    /// By (origin, pid) — required on Vista, where KTIMERs are allocated
    /// fresh per use (§3.3).
    ByOriginPid,
}

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Jitter tolerance (the paper's experimentally determined 2 ms).
    pub tolerance: SimDuration,
    /// Cluster mode for pattern classification.
    pub cluster_mode: ClusterMode,
    /// Explicit pid → Figure 1 group labels.
    pub rate_groups: HashMap<Pid, String>,
    /// Processes whose sets become Figure 4 dots (Xorg).
    pub dot_pids: Vec<Pid>,
    /// Processes filtered out of Figures 5/6 and the scatter plots
    /// (X and icewm).
    pub exclude_pids: Vec<Pid>,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            tolerance: SimDuration::from_millis(2),
            cluster_mode: ClusterMode::ByAddress,
            rate_groups: HashMap::new(),
            dot_pids: Vec::new(),
            exclude_pids: Vec::new(),
        }
    }
}

impl AnalyzerConfig {
    /// The configuration used for Linux traces.
    pub fn linux() -> Self {
        Self::default()
    }

    /// The configuration used for Vista traces.
    pub fn vista() -> Self {
        AnalyzerConfig {
            cluster_mode: ClusterMode::ByOriginPid,
            ..Self::default()
        }
    }
}

/// Everything the paper's tables and figures need, in one serialisable
/// bundle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Table 1/2 column.
    pub summary: TraceSummary,
    /// Figure 2 data.
    pub pattern_mix: PatternMix,
    /// Figure 3 / 7 rows (unfiltered) at the ≥ 2 % rule.
    pub values_all: Vec<ValueRow>,
    /// Coverage of the ≥ 2 % rows (the paper quotes these percentages).
    pub values_all_coverage: f64,
    /// Figure 5 rows (X/icewm filtered).
    pub values_filtered: Vec<ValueRow>,
    /// Coverage of the filtered rows.
    pub values_filtered_coverage: f64,
    /// Figure 6 rows (user-space sets only, filtered).
    pub values_user: Vec<ValueRow>,
    /// Figures 8–11 points.
    pub scatter: Vec<ScatterPoint>,
    /// Figure 4 dots.
    pub fig4_dots: Vec<Dot>,
    /// Figure 1 series: group → sets/second (ordered for deterministic
    /// serialisation).
    pub rate_series: std::collections::BTreeMap<String, Vec<u32>>,
    /// Table 3 rows.
    pub provenance: Vec<ProvenanceRow>,
    /// Per-origin attribution (§5's provenance-tracking proposal):
    /// counts, timeout-value and set-vs-fired slack histograms, in
    /// canonical order. Riding inside the report keeps it byte-identical
    /// across execution modes and cache replay for free.
    pub attribution: telemetry::OriginTable,
    /// Number of timers the countdown detector flagged (≥ 50 % countdown
    /// re-issues).
    pub countdown_timer_count: usize,
    /// Detector-vs-ground-truth counts: (detected, flagged).
    pub countdown_validation: (u64, u64),
}

/// The composed streaming analyzer.
///
/// One fused pass per record: the timer address resolves once to a dense
/// slot, and the lifecycle and countdown folds update that slot's state;
/// the three value histograms share one bucket interner; the pattern
/// classifiers index clusters by slot (Linux) and by origin id.
pub struct TraceAnalyzer {
    cfg: AnalyzerConfig,
    counts: EventCounts,
    timers: TimerSlots,
    episodes: Episodes,
    chains: Chains,
    /// Clusters by timer slot (`ByAddress`) or by (origin, pid).
    classifier: Classifier,
    origin_clusters: ByOrigin<ClusterState>,
    value_buckets: ValueBuckets,
    values_all: ValueCounts,
    values_filtered: ValueCounts,
    values_user: ValueCounts,
    scatter: ScatterBuilder,
    rates: RateSeries,
    provenance: ProvenanceTracker,
    attribution: AttributionTracker,
    /// Records the trace layer decoded unsuccessfully before this
    /// analyzer ever saw them (lossy-merge accounting), folded into the
    /// summary's lost-record rows.
    decode_lost: u64,
}

impl std::fmt::Debug for TraceAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceAnalyzer")
            .field("accesses", &self.counts.accesses)
            .finish()
    }
}

impl TraceAnalyzer {
    /// Creates an analyzer.
    pub fn new(cfg: AnalyzerConfig) -> Self {
        let excluded = || cfg.exclude_pids.iter().copied();
        TraceAnalyzer {
            counts: EventCounts::default(),
            timers: TimerSlots::default(),
            episodes: Episodes::default(),
            chains: Chains::new(cfg.tolerance, cfg.dot_pids.clone()),
            classifier: Classifier::new(cfg.tolerance),
            origin_clusters: ByOrigin::default(),
            value_buckets: ValueBuckets::default(),
            values_all: ValueCounts::new(false, []),
            values_filtered: ValueCounts::new(false, excluded()),
            // The user-space histogram applies the same process filter.
            values_user: ValueCounts::new(true, excluded()),
            scatter: ScatterBuilder::new(),
            rates: RateSeries::new(cfg.rate_groups.clone()),
            provenance: ProvenanceTracker::new(),
            attribution: AttributionTracker::new(),
            decode_lost: 0,
            cfg,
        }
    }

    /// Accounts `n` records the trace layer could not decode (e.g. a
    /// [`trace::MergeStats::lost_records`] total from the lossy per-CPU
    /// merge). They surface as [`TraceSummary::decode_lost`].
    pub fn note_decode_lost(&mut self, n: u64) {
        self.decode_lost += n;
    }

    /// Feeds one event through every component.
    pub fn push(&mut self, event: &Event) {
        self.counts.absorb(event);
        let slot = self.timers.slot(event.timer);
        let timer = self.timers.get_mut(slot);
        self.rates.push(event);
        if let Some(value) = crate::valued_set(event) {
            let id = self.value_buckets.intern(value);
            self.values_all.fold(event, id);
            self.values_filtered.fold(event, id);
            self.values_user.fold(event, id);
            self.chains.fold(&mut timer.chain, event, value);
        }
        self.attribution.push(event);
        if let Some(sample) = self.episodes.fold(&mut timer.open, event) {
            self.push_sample(slot, &sample);
        }
    }

    /// Feeds a whole chunk: [`push`](Self::push) per event, so chunk
    /// boundaries carry no semantics.
    pub fn push_chunk(&mut self, events: &[Event]) {
        for event in events {
            self.push(event);
        }
    }

    /// The lifecycle chain: one completed episode feeding the
    /// classifiers, scatter and provenance, in exact sample order.
    fn push_sample(&mut self, slot: u32, sample: &Sample) {
        match self.cfg.cluster_mode {
            ClusterMode::ByAddress => self.classifier.push_dense(slot, sample),
            ClusterMode::ByOriginPid => self
                .classifier
                .push(ClusterKey(sample.origin as u64, sample.pid as u64), sample),
        }
        self.origin_clusters
            .entry(sample.origin)
            .fold(self.cfg.tolerance, sample);
        if !self.cfg.exclude_pids.contains(&sample.pid) {
            self.scatter.push(sample);
        }
        self.provenance.push(sample);
    }

    /// Finalises into a [`Report`]; `strings` resolves origin labels.
    pub fn finish(self, strings: &StringTable) -> Report {
        let mut summary = TraceSummary::from_counts(
            self.counts,
            self.timers.len() as u64,
            self.episodes.peak_concurrency() as u64,
        );
        summary.orphan_ends = self.episodes.orphan_ends();
        summary.decode_lost = self.decode_lost;
        summary.out_of_order_sets = self.chains.out_of_order_sets();
        // The main classifier only: the origin clusters see the same
        // samples again and would double-count.
        summary.anomalous_rearms = self.classifier.anomalous_rearms();
        let origin_clusters = &self.origin_clusters;
        let provenance = self.provenance.rows(
            1.0,
            4,
            |o| strings.resolve(o).to_owned(),
            |o| {
                origin_clusters
                    .get(o)
                    .map_or(crate::classify::PatternClass::Other, ClusterState::class)
            },
        );
        let mut rate_series = std::collections::BTreeMap::new();
        for name in self.rates.group_names() {
            rate_series.insert(name.to_owned(), self.rates.series(name).to_vec());
        }
        let values_all = self.values_all.rows(&self.value_buckets, 2.0);
        let values_filtered = self.values_filtered.rows(&self.value_buckets, 2.0);
        let chains = || self.timers.iter().map(|t| &t.chain.stats);
        Report {
            summary,
            pattern_mix: self.classifier.finish(),
            values_all_coverage: coverage(&values_all),
            values_all,
            values_filtered_coverage: coverage(&values_filtered),
            values_filtered,
            values_user: self.values_user.rows(&self.value_buckets, 2.0),
            scatter: self.scatter.points(),
            fig4_dots: self.chains.dots().to_vec(),
            rate_series,
            provenance,
            attribution: self.attribution.finish(strings),
            countdown_timer_count: chains().filter(|s| s.is_countdown_timer(0.5)).count(),
            countdown_validation: countdown::validation_counts(chains()),
        }
    }

    /// Aggregate counters so far (for progress displays).
    pub fn counts(&self) -> EventCounts {
        self.counts
    }
}

impl TraceSink for TraceAnalyzer {
    fn record(&mut self, event: &Event) {
        self.push(event);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}
