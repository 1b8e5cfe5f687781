//! Per-page sharing profiles: the paper's diagnostic for *why* restructuring
//! helps on SVM.
//!
//! Page-grained coherence turns word-disjoint writes into false sharing; the
//! paper attributes diff/fetch/invalidation traffic to data structures before
//! and after each P/A, DS and Alg transformation to show which structure each
//! restructuring fixed. [`SharingProfile`] is that attribution: per protocol
//! page, the traffic counters, the writer/reader sets, and a true-vs-false
//! sharing classification computed from word-granularity write footprints —
//! two nodes diffing *disjoint* word sets of the same page is pure false
//! sharing (the race detector proves it is not a race; here it is surfaced
//! as cost, not error).
//!
//! When a run is configured with
//! [`RunConfig::with_sharing_profile`](crate::RunConfig::with_sharing_profile)
//! a [`SharingTracker`] consumes the page events the page-based platforms
//! (`svm-hlrc`, `lrc-tmk`) report on the protocol event stream
//! ([`crate::probe`]), and the frozen profile is attached to
//! [`RunStats::sharing`](crate::RunStats). Like every consumer of the
//! stream it cannot charge cycles: statistics are bit-identical with it on
//! or off. Its window runs from `start_timing` to the **end of the run** —
//! unlike the tracer and the metrics engine it also sees the
//! post-`stop_timing` verification read-back (DESIGN.md §8).

use crate::probe::ProtoEvent;
use crate::util::{insert_sorted, joined, json_escape, json_rows, FxMap};
use std::fmt::Write as _;

/// How a page was shared during the profiled region, judged from the
/// word-granularity write footprints of the diffs it generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SharingClass {
    /// No node ever diffed the page: read-only (or home-write-only) traffic.
    ReadShared,
    /// Exactly one node diffed the page: migratory/private traffic; any cost
    /// is placement, not sharing.
    SingleWriter,
    /// Two or more nodes diffed **disjoint** word sets: all coherence traffic
    /// on this page is an artifact of page granularity.
    FalseSharing,
    /// Two or more nodes diffed at least one common word: the processors
    /// genuinely communicate through this page.
    TrueSharing,
}

impl SharingClass {
    /// Short label used by reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            SharingClass::ReadShared => "read-shared",
            SharingClass::SingleWriter => "single-writer",
            SharingClass::FalseSharing => "false-sharing",
            SharingClass::TrueSharing => "true-sharing",
        }
    }
}

/// Sharing record for one protocol page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageSharing {
    /// First byte address of the page.
    pub page_base: u64,
    /// Label of the allocation containing the page (see
    /// `Proc::alloc_shared_labeled`); empty if unlabeled.
    pub label: &'static str,
    /// Remote page fetches (faults served over the wire).
    pub fetches: u64,
    /// Total 4-byte words carried by diffs of this page.
    pub diff_words: u64,
    /// Total contiguous runs across those diffs (scattered diffs cost more
    /// wire per word).
    pub diff_runs: u64,
    /// Bytes this page moved over the interconnect (pages + diffs + control).
    pub wire_bytes: u64,
    /// Write-notice invalidations applied to copies of this page.
    pub invalidations: u64,
    /// Nodes that diffed the page, ascending.
    pub writers: Vec<u32>,
    /// Nodes that fetched the page, ascending.
    pub readers: Vec<u32>,
    /// True/false sharing classification.
    pub class: SharingClass,
}

/// Per-allocation-label aggregate of [`PageSharing`] records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelSharing {
    /// The allocation label ("" for unlabeled allocations).
    pub label: &'static str,
    /// Pages of this label that saw protocol activity.
    pub pages: u64,
    /// Pages classified [`SharingClass::FalseSharing`].
    pub false_pages: u64,
    /// Pages classified [`SharingClass::TrueSharing`].
    pub true_pages: u64,
    /// Sum of fetches over the label's pages.
    pub fetches: u64,
    /// Sum of diff words over the label's pages.
    pub diff_words: u64,
    /// Diff words on pages classified as pure false sharing.
    pub false_diff_words: u64,
    /// Diff words on pages classified as true sharing.
    pub true_diff_words: u64,
    /// Sum of wire bytes over the label's pages.
    pub wire_bytes: u64,
    /// Sum of invalidations over the label's pages.
    pub invalidations: u64,
}

impl LabelSharing {
    /// Fraction of this label's diff traffic that is pure false sharing
    /// (0.0 when the label produced no diffs).
    pub fn false_share(&self) -> f64 {
        if self.diff_words == 0 {
            0.0
        } else {
            self.false_diff_words as f64 / self.diff_words as f64
        }
    }
}

/// Per-word diff-ownership sentinel: written by more than one node.
const MULTI: u16 = u16::MAX;

/// Live activity record for one protocol page.
#[derive(Default)]
struct PageTrack {
    fetches: u64,
    diff_words: u64,
    diff_runs: u64,
    wire_bytes: u64,
    invalidations: u64,
    /// Nodes that diffed the page, ascending.
    writers: Vec<u32>,
    /// Nodes that fetched the page, ascending.
    readers: Vec<u32>,
    /// Per word: diffing node + 1 (0 = never diffed, [`MULTI`] = several).
    /// Grown to the highest diffed word.
    owner: Vec<u16>,
    /// Two nodes diffed the same word: genuine communication.
    overlap: bool,
}

impl PageTrack {
    fn record_diff(&mut self, writer: usize, word_runs: &[(u32, u32)], wire: u64) {
        self.diff_runs += word_runs.len() as u64;
        self.wire_bytes += wire;
        insert_sorted(&mut self.writers, writer as u32);
        let me = writer as u16 + 1;
        for &(first, n) in word_runs {
            self.diff_words += n as u64;
            let end = (first + n) as usize;
            if self.owner.len() < end {
                self.owner.resize(end, 0);
            }
            for o in &mut self.owner[first as usize..end] {
                if *o == 0 {
                    *o = me;
                } else if *o != me {
                    *o = MULTI;
                    self.overlap = true;
                }
            }
        }
    }

    fn classify(&self) -> SharingClass {
        match self.writers.len() {
            0 => SharingClass::ReadShared,
            1 => SharingClass::SingleWriter,
            _ if self.overlap => SharingClass::TrueSharing,
            _ => SharingClass::FalseSharing,
        }
    }
}

/// The sharing-profile consumer of the protocol event stream: per-page
/// traffic counters plus word-granularity write footprints, keyed by page
/// base address.
#[derive(Default)]
pub struct SharingTracker {
    page_bytes: u64,
    pages: FxMap<u64, PageTrack>,
}

impl SharingTracker {
    /// Consume one protocol event. Called by the probe for every event,
    /// inside the timed region or not.
    pub(crate) fn on_event(&mut self, ev: &ProtoEvent<'_>) {
        use ProtoEvent as P;
        match *ev {
            P::PageGeometry { page_bytes } => self.page_bytes = page_bytes,
            P::PageFetch {
                reader_node,
                page,
                bytes,
                ..
            } => {
                let t = self.pages.entry(page).or_default();
                t.fetches += 1;
                t.wire_bytes += bytes;
                insert_sorted(&mut t.readers, reader_node as u32);
            }
            P::DiffCreated {
                writer_node,
                page,
                word_runs,
                wire_bytes,
                ..
            } => {
                self.pages
                    .entry(page)
                    .or_default()
                    .record_diff(writer_node, word_runs, wire_bytes)
            }
            P::Invalidation { page, .. } => self.pages.entry(page).or_default().invalidations += 1,
            _ => {}
        }
    }

    /// Forget all page activity (called at `start_timing`).
    pub(crate) fn reset(&mut self) {
        self.pages.clear();
    }

    /// Freeze into a [`SharingProfile`], attributing pages to allocation
    /// labels via `label_of`.
    pub(crate) fn into_profile(self, label_of: impl Fn(u64) -> &'static str) -> SharingProfile {
        let mut pages: Vec<PageSharing> = self
            .pages
            .into_iter()
            .map(|(page_base, t)| PageSharing {
                page_base,
                label: label_of(page_base),
                fetches: t.fetches,
                diff_words: t.diff_words,
                diff_runs: t.diff_runs,
                wire_bytes: t.wire_bytes,
                invalidations: t.invalidations,
                class: t.classify(),
                writers: t.writers,
                readers: t.readers,
            })
            .collect();
        pages.sort_by_key(|p| p.page_base);
        SharingProfile {
            page_bytes: self.page_bytes,
            pages,
        }
    }
}

/// The complete sharing profile of one run on a page-based platform.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharingProfile {
    /// Protocol page size in bytes.
    pub page_bytes: u64,
    /// One record per page with protocol activity, ascending by address.
    pub pages: Vec<PageSharing>,
}

impl SharingProfile {
    /// Aggregate the profile by allocation label, hottest (most diff words,
    /// then most wire bytes) first.
    pub fn labels(&self) -> Vec<LabelSharing> {
        let mut agg: Vec<LabelSharing> = Vec::new();
        for p in &self.pages {
            let e = match agg.iter_mut().find(|l| l.label == p.label) {
                Some(e) => e,
                None => {
                    agg.push(LabelSharing {
                        label: p.label,
                        ..LabelSharing::default()
                    });
                    agg.last_mut().unwrap()
                }
            };
            e.pages += 1;
            e.fetches += p.fetches;
            e.diff_words += p.diff_words;
            e.wire_bytes += p.wire_bytes;
            e.invalidations += p.invalidations;
            match p.class {
                SharingClass::FalseSharing => {
                    e.false_pages += 1;
                    e.false_diff_words += p.diff_words;
                }
                SharingClass::TrueSharing => {
                    e.true_pages += 1;
                    e.true_diff_words += p.diff_words;
                }
                _ => {}
            }
        }
        agg.sort_by(|a, b| {
            (b.diff_words, b.wire_bytes, a.label).cmp(&(a.diff_words, a.wire_bytes, b.label))
        });
        agg
    }

    /// The aggregate for one label, if any of its pages saw activity.
    pub fn label(&self, label: &str) -> Option<LabelSharing> {
        self.labels().into_iter().find(|l| l.label == label)
    }

    /// Total diff words across all pages.
    pub fn total_diff_words(&self) -> u64 {
        self.pages.iter().map(|p| p.diff_words).sum()
    }

    /// Human-readable report: hottest pages by wire traffic, then the
    /// per-label true/false-sharing table.
    pub fn report(&self) -> String {
        let mut s = format!(
            "sharing profile: {} active pages of {} bytes\n",
            self.pages.len(),
            self.page_bytes
        );
        let mut hot: Vec<&PageSharing> = self.pages.iter().collect();
        hot.sort_by_key(|p| (std::cmp::Reverse(p.wire_bytes), p.page_base));
        s.push_str(
            "hottest pages by wire bytes:\n      page_base label                 class  wire_B  fetches  diff_wd  invals  writers\n",
        );
        for p in hot.iter().take(16) {
            s.push_str(&format!(
                "{:#014x} {:<16} {:>13} {:>7} {:>8} {:>8} {:>7}  {:?}\n",
                p.page_base,
                if p.label.is_empty() { "-" } else { p.label },
                p.class.label(),
                p.wire_bytes,
                p.fetches,
                p.diff_words,
                p.invalidations,
                p.writers,
            ));
        }
        s.push_str(
            "by allocation label:\nlabel                 pages  false  true  fetches  diff_wd  false_wd  false%   wire_B\n",
        );
        for l in self.labels() {
            s.push_str(&format!(
                "{:<20} {:>6} {:>6} {:>5} {:>8} {:>8} {:>9} {:>6.1}% {:>8}\n",
                if l.label.is_empty() { "-" } else { l.label },
                l.pages,
                l.false_pages,
                l.true_pages,
                l.fetches,
                l.diff_words,
                l.false_diff_words,
                100.0 * l.false_share(),
                l.wire_bytes,
            ));
        }
        s
    }

    /// Machine-readable JSON (hand-rolled; the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\n  \"page_bytes\": {},\n  \"pages\": ", self.page_bytes);
        json_rows(&mut s, &self.pages, |s, p| {
            let _ = write!(
                s,
                "{{\"page_base\": {}, \"label\": \"{}\", \"class\": \"{}\", \"fetches\": {}, \"diff_words\": {}, \"diff_runs\": {}, \"wire_bytes\": {}, \"invalidations\": {}, \"writers\": [{}], \"readers\": [{}]}}",
                p.page_base,
                json_escape(p.label),
                p.class.label(),
                p.fetches,
                p.diff_words,
                p.diff_runs,
                p.wire_bytes,
                p.invalidations,
                joined(&p.writers, ", "),
                joined(&p.readers, ", "),
            );
        });
        s.push_str(",\n  \"labels\": ");
        json_rows(&mut s, self.labels(), |s, l| {
            let _ = write!(
                s,
                "{{\"label\": \"{}\", \"pages\": {}, \"false_pages\": {}, \"true_pages\": {}, \"fetches\": {}, \"diff_words\": {}, \"false_diff_words\": {}, \"true_diff_words\": {}, \"false_share\": {:.4}, \"wire_bytes\": {}, \"invalidations\": {}}}",
                json_escape(l.label),
                l.pages,
                l.false_pages,
                l.true_pages,
                l.fetches,
                l.diff_words,
                l.false_diff_words,
                l.true_diff_words,
                l.false_share(),
                l.wire_bytes,
                l.invalidations,
            );
        });
        s.push_str("\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(base: u64, label: &'static str, class: SharingClass, diff_words: u64) -> PageSharing {
        PageSharing {
            page_base: base,
            label,
            fetches: 2,
            diff_words,
            diff_runs: 1,
            wire_bytes: diff_words * 4 + 8,
            invalidations: 1,
            writers: vec![0, 1],
            readers: vec![2],
            class,
        }
    }

    #[test]
    fn label_aggregation_and_false_share() {
        let prof = SharingProfile {
            page_bytes: 4096,
            pages: vec![
                page(0x1000, "grid", SharingClass::FalseSharing, 30),
                page(0x2000, "grid", SharingClass::TrueSharing, 10),
                page(0x3000, "tasks", SharingClass::SingleWriter, 5),
            ],
        };
        let grid = prof.label("grid").unwrap();
        assert_eq!(grid.pages, 2);
        assert_eq!(grid.false_pages, 1);
        assert_eq!(grid.diff_words, 40);
        assert_eq!(grid.false_diff_words, 30);
        assert!((grid.false_share() - 0.75).abs() < 1e-12);
        let tasks = prof.label("tasks").unwrap();
        assert_eq!(tasks.false_diff_words, 0);
        assert_eq!(tasks.false_share(), 0.0);
        // Hottest label first.
        assert_eq!(prof.labels()[0].label, "grid");
    }

    #[test]
    fn report_and_json_render() {
        let prof = SharingProfile {
            page_bytes: 4096,
            pages: vec![page(0x1000, "grid", SharingClass::FalseSharing, 8)],
        };
        let rep = prof.report();
        assert!(rep.contains("false-sharing"));
        assert!(rep.contains("grid"));
        let json = prof.to_json();
        assert!(json.contains("\"label\": \"grid\""));
        assert!(json.contains("\"false_share\": 1.0000"));
    }

    #[test]
    fn json_escapes_labels() {
        const LABEL: &str = "a\"b\\c\u{1}";
        let prof = SharingProfile {
            page_bytes: 4096,
            pages: vec![page(0x1000, LABEL, SharingClass::FalseSharing, 8)],
        };
        let json = prof.to_json();
        // Once per page, once per label.
        assert_eq!(json.matches("\"a\\\"b\\\\c\\u0001\"").count(), 2, "{json}");
        assert!(!json.contains(LABEL));
    }

    fn diff(writer_node: usize, page: u64, word_runs: &[(u32, u32)]) -> ProtoEvent<'_> {
        ProtoEvent::DiffCreated {
            pid: writer_node,
            writer_node,
            page,
            at: 0,
            span: None,
            word_runs,
            wire_bytes: 12,
        }
    }

    fn fetch(reader_node: usize, page: u64) -> ProtoEvent<'static> {
        ProtoEvent::PageFetch {
            pid: reader_node,
            reader_node,
            page,
            home: 0,
            src: 0,
            bytes: 4096,
            t0: 0,
            t1: 1,
        }
    }

    fn profile_of(events: &[ProtoEvent<'_>]) -> SharingProfile {
        let mut t = SharingTracker::default();
        t.on_event(&ProtoEvent::PageGeometry { page_bytes: 4096 });
        for e in events {
            t.on_event(e);
        }
        t.into_profile(|_| "")
    }

    #[test]
    fn tracker_classifies_by_word_footprint() {
        let prof = profile_of(&[
            // Disjoint words from two nodes: false sharing.
            diff(0, 0x1000, &[(0, 2)]),
            diff(1, 0x1000, &[(8, 1)]),
            // A common word: true sharing.
            diff(0, 0x2000, &[(4, 1)]),
            diff(2, 0x2000, &[(3, 2)]),
            // One writer, twice: single-writer.
            diff(3, 0x3000, &[(0, 1)]),
            diff(3, 0x3000, &[(5, 1)]),
            // Fetched only: read-shared.
            fetch(1, 0x4000),
            fetch(2, 0x4000),
        ]);
        let classes: Vec<SharingClass> = prof.pages.iter().map(|p| p.class).collect();
        assert_eq!(
            classes,
            [
                SharingClass::FalseSharing,
                SharingClass::TrueSharing,
                SharingClass::SingleWriter,
                SharingClass::ReadShared
            ]
        );
        let p = &prof.pages[0];
        assert_eq!((p.diff_words, p.diff_runs, p.wire_bytes), (3, 2, 24));
        assert_eq!(p.writers, [0, 1]);
        assert_eq!(prof.pages[3].readers, [1, 2]);
        assert_eq!(prof.pages[3].fetches, 2);
    }

    #[test]
    fn tracker_sorts_pages_and_reset_keeps_geometry() {
        let mut t = SharingTracker::default();
        t.on_event(&ProtoEvent::PageGeometry { page_bytes: 8192 });
        t.on_event(&fetch(0, 0x9000));
        t.reset();
        for page in [0x5000, 0x2000, 0x9000] {
            t.on_event(&ProtoEvent::Invalidation {
                pid: 0,
                page,
                at: 0,
            });
        }
        let prof = t.into_profile(|_| "grid");
        let bases: Vec<u64> = prof.pages.iter().map(|p| p.page_base).collect();
        assert_eq!(bases, [0x2000, 0x5000, 0x9000]);
        assert_eq!(prof.page_bytes, 8192);
        assert_eq!(prof.pages[2].fetches, 0, "reset must drop earlier activity");
        assert_eq!(prof.pages[0].label, "grid");
    }
}
